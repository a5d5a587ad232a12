//! The engine's execution state.
//!
//! [`ClusterState`] owns how the simulated cluster executes: each
//! attempt's physics (phases, rate, breakdown), per-node executor state
//! (cache, physical faults, OOM checks), the winners' durations and the
//! speculation set. Which attempts run where, holding what memory, is the
//! attempt table of the [`crate::control::ControlPlane`] shared with the
//! serve driver. The core loop ([`super::driver`]) owns one
//! `ClusterState`, the subsystem modules mutate it, and nothing in here
//! emits events or makes policy decisions.

use std::collections::VecDeque;

use rupam_cluster::monitor::NodeMetrics;
use rupam_metrics::breakdown::TaskBreakdown;
use rupam_simcore::time::SimTime;

use crate::cache::ExecutorCache;
use crate::costmodel::Phase;
use crate::speculation::SpeculationSet;

// an attempt id indexes both [`ClusterState::attempts`] and the control
// plane's attempt table; neither ever shrinks
pub(crate) use crate::control::AttemptId;

/// How one attempt (original or speculative copy) runs: its remaining
/// phases, its current rate and the time it spent per category.
pub(crate) struct AttemptRt {
    pub(crate) phases: VecDeque<Phase>,
    pub(crate) breakdown: TaskBreakdown,
    pub(crate) rate: f64,
}

impl AttemptRt {
    pub(crate) fn current_phase(&self) -> Option<&Phase> {
        self.phases.front()
    }
}

/// Runtime state of one node's executor.
pub(crate) struct NodeRt {
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

/// How the simulated cluster executes, owned by the core loop and
/// mutated only by the engine's subsystem modules.
pub(crate) struct ClusterState {
    /// How every attempt ever launched runs, indexed by [`AttemptId`]; a
    /// dead attempt's phases are freed.
    pub(crate) attempts: Vec<AttemptRt>,
    /// Per-node executor runtime state.
    pub(crate) nodes: Vec<NodeRt>,
    /// Per-stage durations of the winning attempts (the speculation
    /// quantile's input).
    pub(crate) finished_secs: Vec<Vec<f64>>,
    /// Tasks currently flagged speculatable (not yet copied).
    pub(crate) spec_set: SpeculationSet,
}
