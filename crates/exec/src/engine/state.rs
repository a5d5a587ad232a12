//! The single authoritative cluster state.
//!
//! [`ClusterState`] owns everything the engine knows about the simulated
//! cluster at an instant: task attempts, per-node executor state, stage
//! and job bookkeeping, lineage tracking, the speculation set and the
//! fault-recovery ledger. The core loop ([`super::driver`]) owns exactly
//! one `ClusterState`; every subsystem module mutates cluster reality
//! through it, and everything else observes through the
//! [`super::events::EventBus`]. Nothing in here emits events or makes
//! policy decisions — it is pure state plus a few queries.

use std::collections::{HashMap, VecDeque};

use rupam_cluster::monitor::NodeMetrics;
use rupam_cluster::NodeId;
use rupam_dag::app::{JobId, StageId};
use rupam_dag::lineage::StageTracker;
use rupam_dag::{Locality, TaskRef};
use rupam_metrics::breakdown::TaskBreakdown;
use rupam_simcore::time::SimTime;
use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use crate::cache::ExecutorCache;
use crate::costmodel::Phase;
use crate::shuffle::MapOutputLedger;
use crate::speculation::SpeculationSet;

/// Index into [`ClusterState::attempts`]; attempts are never removed, so
/// ids are stable for the whole run.
pub(crate) type AttemptId = usize;

/// Runtime state of one task attempt (original or speculative copy).
pub(crate) struct AttemptRt {
    pub(crate) task: TaskRef,
    pub(crate) template_key: Sym,
    pub(crate) attempt_no: u32,
    pub(crate) speculative: bool,
    pub(crate) node: NodeId,
    pub(crate) locality: Locality,
    pub(crate) phases: VecDeque<Phase>,
    pub(crate) launched_at: SimTime,
    pub(crate) breakdown: TaskBreakdown,
    pub(crate) peak_mem: ByteSize,
    pub(crate) used_gpu: bool,
    pub(crate) alive: bool,
    pub(crate) rate: f64,
}

impl AttemptRt {
    pub(crate) fn current_phase(&self) -> Option<&Phase> {
        self.phases.front()
    }
}

/// Runtime state of one node's executor.
pub(crate) struct NodeRt {
    pub(crate) executor_mem: ByteSize,
    pub(crate) mem_in_use: ByteSize,
    pub(crate) running: Vec<AttemptId>,
    pub(crate) cache: ExecutorCache,
    pub(crate) blocked_until: SimTime,
    pub(crate) oom_epoch: u64,
    pub(crate) oom_scheduled: bool,
    pub(crate) last_metrics: NodeMetrics,
    // ---- fault-subsystem state (inert on healthy runs) ----
    /// Physically down: heartbeats stop, launches are dropped.
    pub(crate) crashed: bool,
    /// Service-rate divisor while a scripted slowdown is active (1.0 =
    /// full speed).
    pub(crate) slow_factor: f64,
    /// Guards stale [`super::driver::Event::SlowdownEnd`] events.
    pub(crate) slow_epoch: u64,
    /// Guards stale [`super::driver::Event::FlakyCheck`] events.
    pub(crate) flaky_epoch: u64,
    /// Heartbeats are suppressed (network partition) until this instant.
    pub(crate) hb_dropout_until: SimTime,
    /// End of the active flaky-OOM window.
    pub(crate) flaky_until: SimTime,
    /// Per-check kill probability inside the flaky-OOM window.
    pub(crate) flaky_prob: f64,
    // ---- elastic-subsystem state (inert without spot pools) ----
    /// Part of the active fleet. On-demand nodes are always provisioned;
    /// spot-pool nodes start deprovisioned and churn under the capacity
    /// controller. A deprovisioned node is blocked to the scheduler.
    pub(crate) provisioned: bool,
    /// A preemption notice is in flight: the node reclaims at this
    /// instant. Draining nodes accept no new work.
    pub(crate) drain_deadline: Option<SimTime>,
    /// Guards stale [`super::driver::Event::PreemptFire`] events across
    /// deprovision/re-provision cycles.
    pub(crate) elastic_epoch: u64,
}

/// Runtime state of one stream job (single-app runs have exactly one).
pub(crate) struct JobRt {
    pub(crate) name: String,
    pub(crate) tenant: rupam_dag::TenantId,
    pub(crate) arrival: SimTime,
    pub(crate) completed_at: Option<SimTime>,
}

/// Scheduling state of one task.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TaskState {
    Pending { attempt_no: u32 },
    Running { attempts: Vec<AttemptId> },
    Done,
}

/// Runtime state of one stage.
pub(crate) struct StageRt {
    pub(crate) released: bool,
    pub(crate) tasks: Vec<TaskState>,
    pub(crate) finished_secs: Vec<f64>,
}

/// The one authoritative snapshot of cluster reality, owned by the core
/// loop and mutated only by the engine's subsystem modules.
pub(crate) struct ClusterState {
    /// Every attempt ever launched (ids are indices; never removed).
    pub(crate) attempts: Vec<AttemptRt>,
    /// Per-node executor runtime state.
    pub(crate) nodes: Vec<NodeRt>,
    /// Per-stage scheduling state.
    pub(crate) stages: Vec<StageRt>,
    /// Per-stream-job metadata and completion times.
    pub(crate) jobs: Vec<JobRt>,
    /// Stage → owning stream job.
    pub(crate) stage_jobs: Vec<JobId>,
    /// Lineage/readiness tracking across stages and job chains.
    pub(crate) tracker: StageTracker,
    /// Where finished map outputs live (lineage-driven recompute).
    pub(crate) outputs: MapOutputLedger,
    /// Tasks currently flagged speculatable (not yet copied).
    pub(crate) spec_set: SpeculationSet,
    /// Highest observed peak memory per task, fed back into offers.
    pub(crate) observed_peak: HashMap<(StageId, usize), ByteSize>,
    /// Tasks killed by node faults (or re-pended by lineage recompute)
    /// that have not yet been re-run to completion, with the kill time.
    pub(crate) kill_pending: HashMap<TaskRef, SimTime>,
}

impl ClusterState {
    /// Remove a (still-alive) attempt from its node, freeing memory.
    pub(crate) fn detach_attempt(&mut self, id: AttemptId) {
        let a = &mut self.attempts[id];
        debug_assert!(a.alive);
        a.alive = false;
        let node = &mut self.nodes[a.node.index()];
        node.running.retain(|&x| x != id);
        node.mem_in_use = node.mem_in_use.saturating_sub(a.peak_mem);
    }

    /// Is any attempt alive anywhere on the cluster?
    pub(crate) fn anything_running(&self) -> bool {
        self.attempts.iter().any(|a| a.alive)
    }
}
