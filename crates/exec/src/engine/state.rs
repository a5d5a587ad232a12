//! The single authoritative cluster state.
//!
//! [`ClusterState`] owns what the engine knows about the simulated
//! cluster's execution at an instant: task attempts and their phases,
//! per-node executor state (memory, cache, physical faults), the
//! winners' durations and the speculation set. Task, stage and job
//! bookkeeping and fleet membership and health are the
//! [`crate::control::ControlPlane`] the engine shares with the serve
//! driver. The core loop ([`super::driver`]) owns exactly
//! one `ClusterState`; the subsystem modules mutate it, and everything
//! else observes through the [`super::events::EventBus`]. Nothing in
//! here emits events or makes policy decisions — it is pure state plus a
//! few queries.

use std::collections::VecDeque;

use rupam_cluster::monitor::NodeMetrics;
use rupam_cluster::NodeId;
use rupam_dag::{Locality, TaskRef};
use rupam_metrics::breakdown::TaskBreakdown;
use rupam_simcore::time::SimTime;
use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use crate::cache::ExecutorCache;
use crate::costmodel::Phase;
use crate::speculation::SpeculationSet;

// an engine attempt id indexes [`ClusterState::attempts`]; attempts are
// never removed, so ids are stable for the whole run
pub(crate) use crate::control::AttemptId;

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
}

/// The one authoritative snapshot of cluster reality, owned by the core
/// loop and mutated only by the engine's subsystem modules.
pub(crate) struct ClusterState {
    /// Every attempt ever launched (ids are indices; never removed).
    /// Only the live ones matter per event, and those are reached
    /// through the nodes' `running` lists ([`Self::live`]); a dead
    /// attempt keeps just what its record needs.
    pub(crate) attempts: Vec<AttemptRt>,
    /// Per-node executor runtime state.
    pub(crate) nodes: Vec<NodeRt>,
    /// Per-stage durations of the winning attempts (the speculation
    /// quantile's input).
    pub(crate) finished_secs: Vec<Vec<f64>>,
    /// Tasks currently flagged speculatable (not yet copied).
    pub(crate) spec_set: SpeculationSet,
}

impl ClusterState {
    /// Remove a (still-alive) attempt from its node, freeing memory and
    /// its remaining phases (a dead attempt's record needs only its
    /// breakdown).
    pub(crate) fn detach_attempt(&mut self, id: AttemptId) {
        let a = &mut self.attempts[id];
        debug_assert!(a.alive);
        a.alive = false;
        a.phases = VecDeque::new();
        let node = &mut self.nodes[a.node.index()];
        node.running.retain(|&x| x != id);
        node.mem_in_use = node.mem_in_use.saturating_sub(a.peak_mem);
    }

    /// Every live attempt, node by node: the nodes' `running` lists hold
    /// exactly the alive attempts, so this costs `O(live)`, not
    /// `O(attempts ever launched)`.
    pub(crate) fn live(&self) -> impl Iterator<Item = AttemptId> + '_ {
        self.nodes.iter().flat_map(|n| n.running.iter().copied())
    }

    /// Is any attempt alive anywhere on the cluster?
    pub(crate) fn anything_running(&self) -> bool {
        self.nodes.iter().any(|n| !n.running.is_empty())
    }

    /// Do the nodes' `running` lists hold exactly the alive attempts,
    /// each once and on its own node? (`O(attempts)`: debug checks only.)
    pub(crate) fn live_lists_consistent(&self) -> bool {
        let mut listed = vec![false; self.attempts.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &id in &node.running {
                let a = &self.attempts[id];
                if !a.alive || a.node.index() != i || std::mem::replace(&mut listed[id], true) {
                    return false;
                }
            }
        }
        (self.attempts.iter().zip(&listed)).all(|(a, &l)| a.alive == l)
    }
}
