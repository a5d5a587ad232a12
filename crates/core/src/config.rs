//! RUPAM configuration.

use rupam_simcore::time::SimDuration;
use rupam_simcore::units::ByteSize;

use crate::alloc::{AllocationPolicy, TenantSpec};

/// Tunables of the RUPAM scheduler (§III).
#[derive(Clone, Debug)]
pub struct RupamConfig {
    /// `Res_factor` — sensitivity of the Algorithm 1 bottleneck
    /// classification ("a task is considered compute-bound if it spends
    /// 2× more time than shuffle").
    pub res_factor: f64,
    /// Memory the executor leaves for the OS when sizing itself to the
    /// node (§III-C2 dynamic allocation: executor = node memory − this).
    pub os_reserved: ByteSize,
    /// Fraction of executor memory that must stay free for RUPAM to
    /// consider a node for a memory-unknown task.
    pub unknown_task_mem_estimate: ByteSize,
    /// CPU-utilisation ceiling above which a node stops receiving more
    /// CPU-bound tasks (over-commit guard).
    pub cpu_util_ceiling: f64,
    /// Network-utilisation ceiling for NET-bound tasks.
    pub net_util_ceiling: f64,
    /// Disk-utilisation ceiling for I/O-bound tasks.
    pub disk_util_ceiling: f64,
    /// Maximum concurrent tasks per node as a multiple of cores (RUPAM
    /// over-commits beyond core count when resources allow; this caps the
    /// overlap).
    pub overcommit_factor: f64,
    /// Free-memory watermark that triggers memory-straggler relocation
    /// (§III-C3): below this fraction of executor memory, the hungriest
    /// task is killed and requeued.
    pub mem_straggler_watermark: f64,
    /// Minimum time between two memory-straggler kills on one node, to
    /// avoid kill storms.
    pub mem_straggler_cooldown: SimDuration,
    /// How long a GPU-bound task may wait for a GPU slot before RUPAM
    /// races a CPU copy on the strongest idle CPU node (§III-C3's
    /// OpenBLAS/NVBLAS race).
    pub gpu_race_after: SimDuration,
    /// A task whose `peakmemory` exceeds this fraction of the *smallest*
    /// executor is classified MEM-bound (Fig. 4's MEM queue).
    pub mem_bound_fraction: f64,
    /// Per-decision overhead (RUPAM does more bookkeeping than stock
    /// Spark; Fig. 7 shows a moderate extra scheduler delay).
    pub decision_cost: SimDuration,
    /// Ablation: disable the task-characteristics DB (every task is
    /// treated as first-contact forever).
    pub use_task_db: bool,
    /// Ablation: disable per-node executor sizing (fall back to the
    /// uniform smallest-node executor, like stock Spark).
    pub dynamic_executors: bool,
    /// Ablation: disable locality awareness inside Algorithm 2 (pure
    /// resource matching).
    pub use_locality: bool,
    /// Ablation: disable the straggler/racing extensions.
    pub straggler_handling: bool,
    /// How strongly a node's spot-preemption risk discounts its pick
    /// score: the dispatcher multiplies every candidate's score by
    /// `1 − min(1, spot_risk_penalty × preempt_risk)`, where
    /// `preempt_risk` is the per-check preemption probability the
    /// elastic controller publishes on the node view. `0.0` is the
    /// risk-blind ablation (spot nodes compete as equals); without an
    /// elastic spot tier every risk is `0.0` and any value here is a
    /// no-op, so decisions stay byte-identical to pre-elastic builds.
    pub spot_risk_penalty: f64,
    /// Keep `DB_task_char` entries warm across the jobs of a multi-tenant
    /// stream (keys stay per-template). Disabling scopes every entry to
    /// the stream job that produced it — the cold-DB control where a new
    /// tenant learns nothing from its predecessors.
    pub cross_job_db: bool,
    /// How the persistent node-queue cache is sharded for parallel
    /// offer scoring: `0` = auto (one shard per rack when the cluster has
    /// more than one rack, otherwise unsharded), `n` = exactly
    /// `min(n, nodes)` fixed-size partitions. Decision-identical for
    /// every value — sharding changes how the global ranking is stored
    /// and scanned, never what it says.
    pub shard_count: usize,
    /// How the per-round allocation session orders tenants before the
    /// Dispatcher consumes their candidate slices. The default,
    /// [`AllocationPolicy::FifoBaseline`], keeps the single shared
    /// pending pool and is byte-identical to the pre-tenant scheduler.
    pub allocation: AllocationPolicy,
    /// Per-tenant weights and quotas, indexed by
    /// [`rupam_dag::TenantId`]. Tenants beyond the vector (or an empty
    /// vector) get [`TenantSpec::default`]: weight 1, no quota.
    pub tenants: Vec<TenantSpec>,
    /// Honour `gang: true` stage flags: admit such a stage only when
    /// every one of its tasks can be co-resident in one round, with
    /// all-or-nothing rollback. Off by default (gang stages dispatch
    /// piecemeal exactly as before).
    pub gang_admission: bool,
}

impl RupamConfig {
    /// True when any tenant-scoped machinery must run: a non-FIFO
    /// allocation policy, or at least one tenant with a quota. The
    /// FIFO-baseline with no quotas takes exactly the pre-tenant code
    /// paths (pinned by golden digests).
    pub fn tenant_aware(&self) -> bool {
        self.allocation != AllocationPolicy::FifoBaseline
            || self.tenants.iter().any(|t| t.quota.is_some())
    }
}

impl Default for RupamConfig {
    fn default() -> Self {
        RupamConfig {
            res_factor: 2.0,
            os_reserved: ByteSize::gib(2),
            unknown_task_mem_estimate: ByteSize::mib(1024),
            cpu_util_ceiling: 1.0,
            net_util_ceiling: 0.9,
            disk_util_ceiling: 0.9,
            overcommit_factor: 1.5,
            mem_straggler_watermark: 0.08,
            mem_straggler_cooldown: SimDuration::from_secs(5),
            gpu_race_after: SimDuration::from_secs(5),
            mem_bound_fraction: 0.25,
            decision_cost: SimDuration::from_millis(3),
            use_task_db: true,
            dynamic_executors: true,
            use_locality: true,
            straggler_handling: true,
            spot_risk_penalty: 1.0,
            cross_job_db: true,
            shard_count: 0,
            allocation: AllocationPolicy::FifoBaseline,
            tenants: Vec::new(),
            gang_admission: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RupamConfig::default();
        assert_eq!(c.res_factor, 2.0);
        assert!(c.overcommit_factor >= 1.0);
        assert!(c.mem_straggler_watermark > 0.0 && c.mem_straggler_watermark < 0.5);
        assert!(c.use_task_db && c.dynamic_executors && c.use_locality && c.straggler_handling);
        assert!(c.cross_job_db, "the warm DB is the paper's default");
        assert!(
            c.decision_cost > SimDuration::from_millis(1),
            "RUPAM costs more per decision than stock Spark"
        );
        assert_eq!(c.allocation, AllocationPolicy::FifoBaseline);
        assert!(c.tenants.is_empty() && !c.gang_admission);
        assert!(
            !c.tenant_aware(),
            "the default config must take the pre-tenant code paths"
        );
    }

    #[test]
    fn tenant_awareness_triggers() {
        let mut c = RupamConfig {
            allocation: AllocationPolicy::WeightedFair,
            ..RupamConfig::default()
        };
        assert!(c.tenant_aware());
        c.allocation = AllocationPolicy::FifoBaseline;
        c.tenants = vec![TenantSpec::default()];
        assert!(!c.tenant_aware(), "weights alone don't leave the baseline");
        c.tenants[0].quota = Some(0.5);
        assert!(c.tenant_aware(), "a quota arms the allocator");
    }
}
