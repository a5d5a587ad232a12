//! The pluggable scheduler interface.
//!
//! The engine mirrors Spark's offer-based protocol: it notifies the
//! scheduler of lifecycle events (`on_stage_ready`, `on_task_finished`,
//! `on_task_failed`) and, whenever capacity might have appeared (a task
//! finished, a heartbeat arrived, an executor came back), builds a
//! read-only [`OfferInput`] snapshot and asks the scheduler for
//! [`Command`]s. Commands are validated against live state before being
//! applied, so schedulers may act on slightly stale views safely — just
//! like real drivers do.

use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use rupam_cluster::{ClusterSpec, NodeId, NodeTier};
use rupam_dag::app::{Application, JobId, Stage, StageId, StageKind};
use rupam_dag::{Locality, TaskRef, TenantId};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::LaunchReason;

/// A summary of one running attempt, visible to schedulers (for RUPAM's
/// memory-straggler detection and resource-aware speculation).
#[derive(Clone, Debug, PartialEq)]
pub struct RunningTaskView {
    /// The task being run.
    pub task: TaskRef,
    /// Whether this copy is speculative.
    pub speculative: bool,
    /// Time since launch.
    pub elapsed: SimDuration,
    /// Memory the attempt holds.
    pub peak_mem: ByteSize,
    /// Whether it runs its kernels on a GPU.
    pub on_gpu: bool,
}

/// Read-only view of one node at offer time.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeView {
    /// The node.
    pub node: NodeId,
    /// Executor heap size on this node (scheduler-determined at start).
    pub executor_mem: ByteSize,
    /// Memory held by running attempts.
    pub mem_in_use: ByteSize,
    /// Free executor memory (`executor_mem - mem_in_use`).
    pub free_mem: ByteSize,
    /// Running attempts.
    pub running: Vec<RunningTaskView>,
    /// Busy-core fraction right now.
    pub cpu_util: f64,
    /// NIC utilisation fraction right now.
    pub net_util: f64,
    /// Disk utilisation fraction right now.
    pub disk_util: f64,
    /// GPUs not currently executing kernels.
    pub gpus_idle: u32,
    /// True while the executor JVM is restarting or the failure detector
    /// has declared the node dead (nothing can launch).
    pub blocked: bool,
    /// Time since the node's last heartbeat reached the RM (always zero
    /// when the fault subsystem is disabled).
    pub heartbeat_age: SimDuration,
    /// True when the failure detector has declared the node dead: it is
    /// evicted from every ranking until heartbeats resume.
    pub dead: bool,
    /// True when the node's heartbeats are late enough to suspect it;
    /// speculation treats its running tasks as straggler sources.
    pub suspect: bool,
    /// Billing tier: on-demand (fixed fleet) or spot (elastic, cheaper,
    /// preemptible). Always on-demand without spot pools.
    pub tier: NodeTier,
    /// True while a preemption notice is in flight: running tasks may
    /// finish inside the drain window, but nothing new launches.
    pub draining: bool,
    /// Current per-check preemption probability of the node's spot pool
    /// (0.0 for on-demand nodes and deprovisioned spot nodes).
    /// Risk-aware dispatchers penalise placements by it.
    pub preempt_risk: f64,
}

impl NodeView {
    /// Number of running attempts (stock Spark's slot accounting).
    pub fn running_count(&self) -> usize {
        self.running.len()
    }
}

/// One pending (launchable) task at offer time.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingTaskView {
    /// The task.
    pub task: TaskRef,
    /// Stream job the task belongs to (`JobId(0)` on single-app runs).
    pub job: JobId,
    /// Template key of its stage (RUPAM's `DB_task_char` key part).
    pub template_key: Sym,
    /// Map or result stage (Algorithm 1's first-contact heuristic).
    pub stage_kind: StageKind,
    /// Attempt number this launch would get (0 = first).
    pub attempt_no: u32,
    /// Ground-truth-free memory hint: the *observed* peak of the previous
    /// attempt if any, else the stage-level conservative estimate Spark
    /// exposes through its memory manager. RUPAM's Algorithm 2 compares
    /// this against node free memory.
    pub peak_mem_hint: ByteSize,
    /// Whether the task has GPU kernels (known statically in the paper:
    /// BLAS-backed stages are marked once one task is seen using a GPU).
    pub gpu_capable: bool,
    /// Nodes whose executor cache holds the input (`PROCESS_LOCAL`).
    pub process_nodes: Vec<NodeId>,
    /// Nodes with an HDFS replica or ≥ 20 % of the shuffle input
    /// (`NODE_LOCAL`).
    pub node_local: Vec<NodeId>,
}

impl PendingTaskView {
    /// Locality this task would achieve on `node`.
    pub fn locality(&self, cluster: &ClusterSpec, node: NodeId) -> Locality {
        if self.process_nodes.contains(&node) {
            return Locality::ProcessLocal;
        }
        if self.node_local.contains(&node) {
            return Locality::NodeLocal;
        }
        if self.node_local.iter().any(|&n| cluster.same_rack(n, node)) {
            return Locality::RackLocal;
        }
        Locality::Any
    }

    /// Best locality achievable anywhere right now.
    pub fn best_locality(&self) -> Locality {
        if !self.process_nodes.is_empty() {
            Locality::ProcessLocal
        } else if !self.node_local.is_empty() {
            Locality::NodeLocal
        } else {
            Locality::Any
        }
    }
}

/// The full offer-round snapshot.
pub struct OfferInput<'a> {
    /// Current time.
    pub now: SimTime,
    /// Cluster topology.
    pub cluster: &'a ClusterSpec,
    /// The application being run.
    pub app: &'a Application,
    /// Per-node views, indexed by node id.
    pub nodes: Vec<NodeView>,
    /// All launchable regular tasks, in (stage, index) order.
    pub pending: Vec<PendingTaskView>,
    /// Running tasks eligible for a speculative copy, per Spark's policy
    /// (plus whatever the scheduler adds on its own authority).
    pub speculatable: Vec<PendingTaskView>,
    /// Submission instant of each stream job, indexed by [`JobId`]
    /// (`[t0]` on single-app runs). No task of a job may launch before
    /// its job's arrival — the auditor enforces this.
    pub job_arrivals: Vec<SimTime>,
    /// Tenant of each stream job, indexed by [`JobId`]
    /// (`[TenantId(0)]` on single-app runs). Tenant-aware allocators
    /// resolve a pending task's tenant through its `job`; FIFO-baseline
    /// schedulers ignore the column entirely.
    pub job_tenants: Vec<TenantId>,
    /// Host-computed delta against the previous offer round: the nodes
    /// whose view may differ from what the scheduler last saw (the
    /// paper's collectors piggy-back exactly such deltas on heartbeats).
    /// `None` means "unknown — assume every node moved"; schedulers may
    /// use a `Some` set to refresh cached rankings in `O(changed)`
    /// instead of `O(nodes)`, but must behave identically either way.
    ///
    /// Guarantee: a `Some` delta is sorted by node id and always
    /// includes every node with running attempts in this round's view or
    /// the previous one — so policies that only act on running attempts
    /// (straggler kills, GPU races, relocations) may scan the delta
    /// instead of the whole cluster without missing a candidate.
    pub changed: Option<Vec<NodeId>>,
    /// The task-side counterpart of [`changed`](Self::changed): the
    /// caller's warranty about how `pending` differs from the previous
    /// offer round it gave this scheduler. Sorted by `(stage, index)`,
    /// it contains every pending task that (a) entered or re-entered the
    /// pending set since the previous round, (b) is still pending but had
    /// its view change (placement preferences, peak-memory hint, attempt
    /// number), or (c) was named in a `Launch` of the previous round's
    /// commands but is still pending (the producer dropped the launch).
    /// It may list more. Schedulers ingest new work in `O(fresh)` and
    /// keep persistent task queues instead of rescanning `O(pending)`
    /// per round. Both hosts produce the list with
    /// [`crate::offer_state::OfferState`]: a task is fresh if it arrived,
    /// had its view re-derived to a different value, or was named in a
    /// `Launch` of the previous round and is still pending.
    pub pending_fresh: Vec<TaskRef>,
}

/// An action a scheduler requests.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Launch a pending task (or a speculative copy of a running one).
    Launch {
        /// Task to launch.
        task: TaskRef,
        /// Target node.
        node: NodeId,
        /// Execute GPU kernels on a GPU (engine falls back to CPU when
        /// the task has no kernels).
        use_gpu: bool,
        /// Launch as a speculative / racing copy of a running attempt.
        speculative: bool,
        /// Why the scheduler placed the task here — recorded in decision
        /// traces and used by the invariant auditor to decide which
        /// checks the launch must satisfy.
        reason: LaunchReason,
    },
    /// Kill a *running* attempt and requeue its task (RUPAM's
    /// memory-straggler relocation §III-C3, or tenant-quota preemption).
    KillAndRequeue {
        /// Task whose running attempt dies.
        task: TaskRef,
        /// Node it is running on (guards against stale views).
        node: NodeId,
        /// Why the attempt dies — decides the recorded
        /// [`AttemptOutcome`] and which TM statistics the kill feeds.
        reason: KillReason,
    },
}

/// Why a [`Command::KillAndRequeue`] was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillReason {
    /// RUPAM's memory-straggler relocation: the attempt grinds against
    /// memory pressure and is re-queued for a better-fitting node. Feeds
    /// the TM's memory-failure statistics.
    MemoryStraggler,
    /// The attempt's tenant ran over quota; the allocator reclaims the
    /// capacity. Says nothing about the task's memory behaviour, so the
    /// TM must *not* count it as a memory failure.
    QuotaPreempt,
}

impl KillReason {
    /// The outcome recorded for an attempt killed for this reason, in
    /// the sim engine and the serve driver alike.
    pub fn outcome(self) -> AttemptOutcome {
        match self {
            KillReason::MemoryStraggler => AttemptOutcome::MemoryStragglerKilled,
            KillReason::QuotaPreempt => AttemptOutcome::QuotaPreempted,
        }
    }
}

/// A task scheduler: stock Spark, RUPAM, or an ablation variant.
pub trait Scheduler {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Executor heap size to launch on `node`. Stock Spark returns one
    /// uniform size; RUPAM sizes per node (§III-C2).
    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize;

    /// Per-decision overhead charged to each launched task as scheduler
    /// delay.
    fn decision_cost(&self) -> SimDuration {
        SimDuration::from_millis(1)
    }

    /// Called once before the run.
    fn on_app_start(&mut self, _app: &Application, _cluster: &ClusterSpec) {}

    /// A stream job was submitted: `stages` are all the stages it will
    /// eventually run (its chain of app-jobs). Called at the run start
    /// for jobs already arrived, then at each later arrival. Single-app
    /// runs see exactly one call covering the whole application.
    fn on_job_submitted(&mut self, _job: JobId, _stages: &[StageId], _now: SimTime) {}

    /// A stage's tasks became launchable.
    fn on_stage_ready(&mut self, _stage: &Stage, _now: SimTime) {}

    /// An attempt finished successfully; `record` carries the observed
    /// task metrics (Table I, right side) RUPAM's TM banks.
    fn on_task_finished(&mut self, _record: &TaskRecord, _now: SimTime) {}

    /// An attempt failed (OOM, executor loss, straggler kill) and the
    /// task went back to pending.
    fn on_task_failed(
        &mut self,
        _task: TaskRef,
        _node: NodeId,
        _outcome: AttemptOutcome,
        _now: SimTime,
    ) {
    }

    /// Produce commands for the current snapshot.
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command>;

    /// Audit scheduler-internal invariants against the snapshot the
    /// round just consumed (queue ordering, staleness of cached state,
    /// …). Called by the engine's [`InvariantAuditor`] after each round
    /// when auditing is enabled; returns human-readable violation
    /// descriptions. Default: no scheduler-specific invariants.
    ///
    /// [`InvariantAuditor`]: crate::audit::InvariantAuditor
    fn audit_round(&self, _input: &OfferInput<'_>) -> Vec<String> {
        Vec::new()
    }

    /// Engine heartbeat tick — a hook for cheap background maintenance
    /// (draining write-behind stores, aging caches) off the dispatch
    /// path. Default: nothing.
    fn on_heartbeat(&mut self, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_dag::StageId;

    fn view(process: Vec<NodeId>, node_local: Vec<NodeId>) -> PendingTaskView {
        PendingTaskView {
            task: TaskRef {
                stage: StageId(0),
                index: 0,
            },
            job: JobId(0),
            template_key: "t".into(),
            stage_kind: StageKind::ShuffleMap,
            attempt_no: 0,
            peak_mem_hint: ByteSize::mib(256),
            gpu_capable: false,
            process_nodes: process,
            node_local,
        }
    }

    #[test]
    fn locality_resolution() {
        let cluster = ClusterSpec::hydra();
        // thor nodes 0 and 2 share rack 0; thor 1 is rack 1
        let v = view(vec![NodeId(0)], vec![NodeId(2)]);
        assert_eq!(v.locality(&cluster, NodeId(0)), Locality::ProcessLocal);
        assert_eq!(v.locality(&cluster, NodeId(2)), Locality::NodeLocal);
        // node 4 (thor5) is rack 0, same rack as the NODE_LOCAL holder 2
        assert_eq!(v.locality(&cluster, NodeId(4)), Locality::RackLocal);
        // node 1 (thor2) is rack 1: no replica, different rack
        assert_eq!(v.locality(&cluster, NodeId(1)), Locality::Any);
    }

    #[test]
    fn best_locality() {
        assert_eq!(
            view(vec![NodeId(0)], vec![]).best_locality(),
            Locality::ProcessLocal
        );
        assert_eq!(
            view(vec![], vec![NodeId(0)]).best_locality(),
            Locality::NodeLocal
        );
        assert_eq!(view(vec![], vec![]).best_locality(), Locality::Any);
    }
}
