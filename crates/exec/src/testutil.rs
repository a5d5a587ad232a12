//! Shared fixtures for tests and benchmarks.
//!
//! Deliberately naive [`Scheduler`] implementations that exercise the
//! engine without any placement intelligence, and [`PendingShadow`], the
//! reference `pending_fresh` rule tests check the production
//! [`crate::offer_state::OfferState`] against. They live in the library
//! (not under `#[cfg(test)]`) so that unit tests, integration tests and
//! the bench harness all share the same fixtures instead of each
//! carrying a private copy.

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::Application;
use rupam_dag::TaskRef;
use rupam_metrics::trace::LaunchReason;
use rupam_simcore::units::ByteSize;

use crate::scheduler::{Command, OfferInput, PendingTaskView, Scheduler};

/// A trivially greedy FIFO scheduler: fills every node's core slots in
/// node order, ignores locality, memory pressure and speculation.
pub struct FifoScheduler {
    slots: Vec<usize>,
}

impl FifoScheduler {
    /// A fresh fixture; slots are sized on [`Scheduler::on_app_start`].
    pub fn new() -> Self {
        FifoScheduler { slots: Vec::new() }
    }
}

impl Default for FifoScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "fifo-test"
    }
    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }
    fn on_app_start(&mut self, _app: &Application, cluster: &ClusterSpec) {
        self.slots = cluster.nodes().iter().map(|n| n.cores as usize).collect();
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let mut cmds = Vec::new();
        let mut used: Vec<usize> = input.nodes.iter().map(|n| n.running_count()).collect();
        for p in &input.pending {
            if let Some(i) =
                (0..input.nodes.len()).find(|&i| !input.nodes[i].blocked && used[i] < self.slots[i])
            {
                used[i] += 1;
                cmds.push(Command::Launch {
                    task: p.task,
                    node: NodeId(i),
                    use_gpu: false,
                    speculative: false,
                    reason: LaunchReason::FifoSlot,
                });
            }
        }
        cmds
    }
}

/// [`FifoScheduler`] that additionally launches a speculative copy of
/// every flagged straggler onto node 2 (assumed fast in the fixtures
/// that use it).
pub struct SpecFifo(pub FifoScheduler);

impl Scheduler for SpecFifo {
    fn name(&self) -> &str {
        "spec-fifo"
    }
    fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
        self.0.executor_memory(c, n)
    }
    fn on_app_start(&mut self, a: &Application, c: &ClusterSpec) {
        self.0.on_app_start(a, c);
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let mut cmds = self.0.offer_round(input);
        for s in &input.speculatable {
            // copy onto the last (fast) node
            cmds.push(Command::Launch {
                task: s.task,
                node: NodeId(2),
                use_gpu: false,
                speculative: true,
                reason: LaunchReason::SparkSpeculative,
            });
        }
        cmds
    }
}

/// Launches every pending task onto node 0 with `use_gpu: true`;
/// exercises the GPU execution path without any placement logic.
pub struct GpuFifo;

impl Scheduler for GpuFifo {
    fn name(&self) -> &str {
        "gpu-fifo"
    }
    fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
        c.node(n).mem
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        input
            .pending
            .iter()
            .map(|p| Command::Launch {
                task: p.task,
                node: NodeId(0),
                use_gpu: true,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            })
            .collect()
    }
}

/// The exact `pending_fresh` rule, as a reference: the previous round's
/// pending list and the tasks that round's commands tried to launch.
/// Diffing a round's pending list against it is one sorted merge-walk.
/// [`crate::offer_state::OfferState`] must list at least these tasks.
#[derive(Default)]
pub struct PendingShadow {
    pending: Vec<PendingTaskView>,
    launched: Vec<TaskRef>,
}

impl PendingShadow {
    /// An empty shadow: the first round lists every pending task.
    pub fn new() -> Self {
        PendingShadow::default()
    }

    /// The fresh list for this round's `pending` (sorted by `(stage,
    /// index)`): every task that was not pending at the previous round,
    /// whose view differs from that round's, or that the previous
    /// round's commands named in a `Launch`.
    pub fn fresh(&self, pending: &[PendingTaskView]) -> Vec<TaskRef> {
        let mut prev = self.pending.iter().peekable();
        pending
            .iter()
            .filter(|v| {
                while prev.next_if(|p| p.task < v.task).is_some() {}
                prev.peek() != Some(v) || self.launched.binary_search(&v.task).is_ok()
            })
            .map(|v| v.task)
            .collect()
    }

    /// Remember a finished round: the pending list it offered and the
    /// commands the scheduler answered with.
    pub fn settle(&mut self, pending: Vec<PendingTaskView>, commands: &[Command]) {
        self.pending = pending;
        self.launched = commands
            .iter()
            .filter_map(|c| match c {
                Command::Launch { task, .. } => Some(*task),
                Command::KillAndRequeue { .. } => None,
            })
            .collect();
        self.launched.sort_unstable();
        self.launched.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_dag::app::{JobId, StageId, StageKind};

    #[test]
    fn pending_shadow_lists_new_changed_and_relaunch_candidates() {
        let task = |i| TaskRef {
            stage: StageId(0),
            index: i,
        };
        let at = |i, hint_mib| PendingTaskView {
            task: task(i),
            job: JobId(0),
            template_key: "t".into(),
            stage_kind: StageKind::ShuffleMap,
            attempt_no: 0,
            peak_mem_hint: ByteSize::mib(hint_mib),
            gpu_capable: false,
            process_nodes: vec![],
            node_local: vec![],
        };
        let mut shadow = PendingShadow::new();
        let round1 = vec![at(0, 1), at(1, 1), at(2, 1), at(3, 1)];
        assert_eq!(
            shadow.fresh(&round1),
            vec![task(0), task(1), task(2), task(3)]
        );
        let launch = |i| Command::Launch {
            task: task(i),
            node: NodeId(0),
            use_gpu: false,
            speculative: false,
            reason: LaunchReason::SafetyValve,
        };
        // 0 launched and left; 1's launch was dropped; 2 is unchanged;
        // 3's view changed; 4 is new
        shadow.settle(round1, &[launch(0), launch(1)]);
        let round2 = vec![at(1, 1), at(2, 1), at(3, 9), at(4, 1)];
        assert_eq!(shadow.fresh(&round2), vec![task(1), task(3), task(4)]);
        shadow.settle(round2.clone(), &[]);
        assert!(
            shadow.fresh(&round2).is_empty(),
            "a quiet round lists nothing"
        );
    }
}
