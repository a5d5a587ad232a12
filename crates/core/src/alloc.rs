//! Tenant allocation: fair queues, session snapshots and quota
//! preemption (ROADMAP #4, Volcano-style session/allocate loop).
//!
//! Every offer round the scheduler freezes an [`AllocSession`]: one
//! [`TenantQueue`] per tenant carrying its weight, optional quota and a
//! usage snapshot derived from the round's [`OfferInput`]. A pluggable
//! [`AllocationPolicy`] orders the queues; the Dispatcher then consumes
//! each tenant's candidate slice in that order, skipping tenants the
//! overuse check flags. Over-quota tenants additionally surrender their
//! newest running tasks through [`quota_preemption_commands`] — the
//! kills re-enter the pending set through the ordinary lineage-recovery
//! retry path, so no work is ever lost.
//!
//! The [`AllocationPolicy::FifoBaseline`] with no quotas is a strict
//! no-op: no session is built, the Dispatcher keeps its single shared
//! pool, and decisions stay byte-identical to the pre-tenant scheduler
//! (pinned by golden digests).

use rupam_dag::{StageId, TenantId};
use rupam_exec::scheduler::{Command, KillReason, OfferInput, RunningTaskView};
use rupam_simcore::time::SimTime;

use crate::config::RupamConfig;

/// How the allocation session orders tenants each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// No tenant ordering at all: one shared FIFO pending pool, exactly
    /// the pre-tenant scheduler. The digest-pinned baseline.
    FifoBaseline,
    /// Weighted fair sharing over running-task counts: tenants are
    /// served in ascending `running / weight`, so the tenant furthest
    /// below its share goes first.
    WeightedFair,
    /// Dominant Resource Fairness: tenants are served in ascending
    /// `dominant_share / weight`, where the dominant share is the
    /// largest of the tenant's cores / memory / GPU cluster shares.
    Drf,
}

impl AllocationPolicy {
    /// Stable code used in scheduler name suffixes and bench tables.
    pub fn code(&self) -> &'static str {
        match self {
            AllocationPolicy::FifoBaseline => "fifo",
            AllocationPolicy::WeightedFair => "wfair",
            AllocationPolicy::Drf => "drf",
        }
    }
}

/// Per-tenant allocation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSpec {
    /// Relative share weight (≥ 0; the fair policies divide usage by
    /// it, so weight 3 tolerates 3× the usage of weight 1).
    pub weight: f64,
    /// Optional hard ceiling on the tenant's dominant resource share
    /// (fraction of the cluster, `0.0..=1.0`). Above it the tenant
    /// stops receiving offers and surrenders its newest running tasks.
    /// `None` = unlimited.
    pub quota: Option<f64>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1.0,
            quota: None,
        }
    }
}

/// A tenant's resource usage at snapshot time, as cluster shares.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantUsage {
    /// Running (non-speculative) attempts.
    pub running: usize,
    /// Fraction of cluster cores held (1 core per running attempt).
    pub cores_share: f64,
    /// Fraction of total executor memory held (peak allocations).
    pub mem_share: f64,
    /// Fraction of cluster GPUs held (attempts executing kernels).
    pub gpu_share: f64,
}

impl TenantUsage {
    /// The DRF dominant share: the largest of the three resource
    /// shares.
    pub fn dominant_share(&self) -> f64 {
        self.cores_share.max(self.mem_share).max(self.gpu_share)
    }
}

/// One tenant's queue in the session: spec + usage + overuse check.
#[derive(Clone, Copy, Debug)]
pub struct TenantQueue {
    /// The tenant.
    pub tenant: TenantId,
    /// Share weight (from [`TenantSpec`], default 1.0).
    pub weight: f64,
    /// Quota ceiling on the dominant share, if any.
    pub quota: Option<f64>,
    /// Usage snapshot for this round.
    pub usage: TenantUsage,
}

impl TenantQueue {
    /// The overuse check: is the tenant's dominant share strictly above
    /// its quota? Quota-less tenants are never over.
    pub fn over_quota(&self) -> bool {
        self.quota
            .is_some_and(|q| self.usage.dominant_share() > q + 1e-9)
    }

    /// Weighted-fair ordering key: running tasks per unit weight.
    fn fair_key(&self) -> f64 {
        if self.weight <= 0.0 {
            f64::INFINITY
        } else {
            self.usage.running as f64 / self.weight
        }
    }

    /// DRF ordering key: dominant share per unit weight.
    fn drf_key(&self) -> f64 {
        if self.weight <= 0.0 {
            f64::INFINITY
        } else {
            self.usage.dominant_share() / self.weight
        }
    }
}

/// The per-round allocation snapshot: one queue per tenant, ordered on
/// demand by the configured policy.
#[derive(Clone, Debug, Default)]
pub struct AllocSession {
    /// Queues indexed by tenant id.
    pub queues: Vec<TenantQueue>,
}

impl AllocSession {
    /// Freeze a session from this round's offer snapshot.
    /// `tenant_of_stage` resolves a running attempt's stage to its
    /// tenant (the scheduler wires its stage→job map composed with
    /// [`OfferInput::job_tenants`]); `tenant_count` is the number of
    /// tenants in the stream (at least 1).
    pub fn snapshot(
        cfg: &RupamConfig,
        input: &OfferInput<'_>,
        tenant_count: usize,
        tenant_of_stage: &dyn Fn(StageId) -> TenantId,
    ) -> Self {
        let tenants = tenant_count.max(1);
        let total_cores: f64 = input
            .cluster
            .nodes()
            .iter()
            .map(|n| n.cores as f64)
            .sum::<f64>()
            .max(1.0);
        let total_gpus: f64 = input
            .cluster
            .nodes()
            .iter()
            .map(|n| n.gpus as f64)
            .sum::<f64>()
            .max(1.0);
        let total_mem: f64 = input
            .nodes
            .iter()
            .map(|v| v.executor_mem.as_f64())
            .sum::<f64>()
            .max(1.0);
        let mut usage = vec![TenantUsage::default(); tenants];
        for view in &input.nodes {
            for r in &view.running {
                if r.speculative {
                    continue;
                }
                let t = tenant_of_stage(r.task.stage);
                let u = &mut usage[t.index().min(tenants - 1)];
                u.running += 1;
                u.cores_share += 1.0 / total_cores;
                u.mem_share += r.peak_mem.as_f64() / total_mem;
                if r.on_gpu {
                    u.gpu_share += 1.0 / total_gpus;
                }
            }
        }
        let queues = usage
            .into_iter()
            .enumerate()
            .map(|(i, usage)| {
                let spec = cfg.tenants.get(i).copied().unwrap_or_default();
                TenantQueue {
                    tenant: TenantId(i),
                    weight: spec.weight,
                    quota: spec.quota,
                    usage,
                }
            })
            .collect();
        AllocSession { queues }
    }

    /// Tenants in the order the Dispatcher should serve them this
    /// round. Ties break on tenant id, so the order — like every other
    /// scheduling decision — is a pure function of the snapshot.
    pub fn order(&self, policy: AllocationPolicy) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.queues.iter().map(|q| q.tenant).collect();
        match policy {
            AllocationPolicy::FifoBaseline => {}
            AllocationPolicy::WeightedFair => {
                ids.sort_by(|&a, &b| {
                    self.queues[a.index()]
                        .fair_key()
                        .total_cmp(&self.queues[b.index()].fair_key())
                        .then(a.cmp(&b))
                });
            }
            AllocationPolicy::Drf => {
                ids.sort_by(|&a, &b| {
                    self.queues[a.index()]
                        .drf_key()
                        .total_cmp(&self.queues[b.index()].drf_key())
                        .then(a.cmp(&b))
                });
            }
        }
        ids
    }

    /// Whether `tenant` currently fails the overuse check (unknown
    /// tenants are within quota by definition).
    pub fn over_quota(&self, tenant: TenantId) -> bool {
        self.queues
            .get(tenant.index())
            .is_some_and(|q| q.over_quota())
    }
}

/// Per-tenant cooldown state for quota preemption, owned by the
/// scheduler across rounds (mirrors the memory-straggler cooldown: one
/// kill wave per tenant per cooldown window, so a briefly-over tenant
/// is not storm-killed while its re-queued work drains).
#[derive(Clone, Debug, Default)]
pub struct PreemptState {
    last_kill: Vec<Option<SimTime>>,
}

impl PreemptState {
    /// State for up to `tenants` tenants.
    pub fn new(tenants: usize) -> Self {
        PreemptState {
            last_kill: vec![None; tenants.max(1)],
        }
    }
}

/// Kill-and-requeue commands reclaiming capacity from every over-quota
/// tenant: the tenant's *newest* running tasks die first (they have the
/// least sunk work), at most enough to bring the dominant share back
/// under quota, at most one wave per tenant per
/// [`RupamConfig::mem_straggler_cooldown`] window. Victims re-enter the
/// pending set through the engine's ordinary failure path
/// ([`KillReason::QuotaPreempt`] → `AttemptOutcome::QuotaPreempted`),
/// so the no-lost-tasks recovery invariant holds unchanged.
pub fn quota_preemption_commands(
    cfg: &RupamConfig,
    session: &AllocSession,
    state: &mut PreemptState,
    input: &OfferInput<'_>,
    tenant_of_stage: &dyn Fn(StageId) -> TenantId,
) -> Vec<Command> {
    let mut cmds = Vec::new();
    if state.last_kill.len() < session.queues.len() {
        state.last_kill.resize(session.queues.len(), None);
    }
    for q in &session.queues {
        if !q.over_quota() {
            continue;
        }
        let idx = q.tenant.index();
        if let Some(last) = state.last_kill[idx] {
            if input.now.since(last) < cfg.mem_straggler_cooldown {
                continue;
            }
        }
        // enough of the newest tasks to get back under quota: the share
        // is ~proportional to running count, so scale the excess
        let dominant = q.usage.dominant_share();
        let quota = q.quota.unwrap_or(1.0);
        let excess = ((dominant - quota) / dominant * q.usage.running as f64).ceil() as usize;
        let excess = excess.clamp(1, q.usage.running);
        // gather this tenant's running attempts, newest first (smallest
        // elapsed); ties break on (stage, index, node) for determinism
        let mut victims: Vec<(&RunningTaskView, rupam_cluster::NodeId)> = input
            .nodes
            .iter()
            .flat_map(|v| v.running.iter().map(move |r| (r, v.node)))
            .filter(|(r, _)| !r.speculative && tenant_of_stage(r.task.stage) == q.tenant)
            .collect();
        victims.sort_by(|(a, an), (b, bn)| {
            a.elapsed
                .cmp(&b.elapsed)
                .then(a.task.stage.cmp(&b.task.stage))
                .then(a.task.index.cmp(&b.task.index))
                .then(an.cmp(bn))
        });
        let mut killed = 0;
        for (r, node) in victims {
            if killed == excess {
                break;
            }
            cmds.push(Command::KillAndRequeue {
                task: r.task,
                node,
                reason: KillReason::QuotaPreempt,
            });
            killed += 1;
        }
        if killed > 0 {
            state.last_kill[idx] = Some(input.now);
        }
    }
    cmds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(tenant: usize, weight: f64, quota: Option<f64>, usage: TenantUsage) -> TenantQueue {
        TenantQueue {
            tenant: TenantId(tenant),
            weight,
            quota,
            usage,
        }
    }

    fn usage(running: usize, cores: f64, mem: f64, gpu: f64) -> TenantUsage {
        TenantUsage {
            running,
            cores_share: cores,
            mem_share: mem,
            gpu_share: gpu,
        }
    }

    #[test]
    fn dominant_share_is_the_max() {
        assert_eq!(usage(3, 0.1, 0.4, 0.2).dominant_share(), 0.4);
        assert_eq!(usage(0, 0.0, 0.0, 0.0).dominant_share(), 0.0);
    }

    #[test]
    fn overuse_check() {
        let under = queue(0, 1.0, Some(0.5), usage(2, 0.3, 0.1, 0.0));
        let over = queue(1, 1.0, Some(0.25), usage(8, 0.3, 0.1, 0.0));
        let unlimited = queue(2, 1.0, None, usage(99, 1.0, 1.0, 1.0));
        assert!(!under.over_quota());
        assert!(over.over_quota());
        assert!(!unlimited.over_quota());
        // exactly at quota is not over (tolerance guards float dust)
        let at = queue(3, 1.0, Some(0.3), usage(3, 0.3, 0.1, 0.0));
        assert!(!at.over_quota());
    }

    #[test]
    fn fifo_order_is_tenant_id_order() {
        let s = AllocSession {
            queues: vec![
                queue(0, 1.0, None, usage(9, 0.9, 0.0, 0.0)),
                queue(1, 1.0, None, usage(0, 0.0, 0.0, 0.0)),
            ],
        };
        assert_eq!(
            s.order(AllocationPolicy::FifoBaseline),
            vec![TenantId(0), TenantId(1)]
        );
    }

    #[test]
    fn weighted_fair_serves_the_most_starved_first() {
        let s = AllocSession {
            queues: vec![
                queue(0, 1.0, None, usage(6, 0.0, 0.0, 0.0)), // 6 per weight
                queue(1, 3.0, None, usage(9, 0.0, 0.0, 0.0)), // 3 per weight
                queue(2, 1.0, None, usage(1, 0.0, 0.0, 0.0)), // 1 per weight
            ],
        };
        assert_eq!(
            s.order(AllocationPolicy::WeightedFair),
            vec![TenantId(2), TenantId(1), TenantId(0)]
        );
    }

    #[test]
    fn drf_orders_on_weighted_dominant_share() {
        let s = AllocSession {
            queues: vec![
                // dominant 0.6 / weight 2 = 0.3
                queue(0, 2.0, None, usage(4, 0.6, 0.2, 0.0)),
                // dominant 0.2 / weight 1 = 0.2
                queue(1, 1.0, None, usage(9, 0.1, 0.2, 0.0)),
            ],
        };
        assert_eq!(
            s.order(AllocationPolicy::Drf),
            vec![TenantId(1), TenantId(0)]
        );
    }

    #[test]
    fn order_ties_break_on_tenant_id() {
        let s = AllocSession {
            queues: vec![
                queue(0, 1.0, None, usage(2, 0.2, 0.0, 0.0)),
                queue(1, 1.0, None, usage(2, 0.2, 0.0, 0.0)),
            ],
        };
        assert_eq!(
            s.order(AllocationPolicy::WeightedFair),
            vec![TenantId(0), TenantId(1)]
        );
        assert_eq!(
            s.order(AllocationPolicy::Drf),
            vec![TenantId(0), TenantId(1)]
        );
    }

    #[test]
    fn session_over_quota_handles_unknown_tenants() {
        let s = AllocSession {
            queues: vec![queue(0, 1.0, Some(0.1), usage(5, 0.5, 0.0, 0.0))],
        };
        assert!(s.over_quota(TenantId(0)));
        assert!(!s.over_quota(TenantId(7)), "unknown tenants are in quota");
    }

    #[test]
    fn zero_weight_sorts_last() {
        let s = AllocSession {
            queues: vec![
                queue(0, 0.0, None, usage(0, 0.0, 0.0, 0.0)),
                queue(1, 1.0, None, usage(50, 0.9, 0.9, 0.9)),
            ],
        };
        assert_eq!(
            s.order(AllocationPolicy::WeightedFair),
            vec![TenantId(1), TenantId(0)]
        );
    }

    #[test]
    fn policy_codes_are_stable() {
        assert_eq!(AllocationPolicy::FifoBaseline.code(), "fifo");
        assert_eq!(AllocationPolicy::WeightedFair.code(), "wfair");
        assert_eq!(AllocationPolicy::Drf.code(), "drf");
    }
}
