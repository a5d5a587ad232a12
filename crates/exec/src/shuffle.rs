//! The map-output ledger: where each shuffle-map stage's output lives.
//!
//! One definition of the shuffle bookkeeping the sim engine and the live
//! serve driver both run: registering a winner's output, the reducer
//! preference rule (a node holding at least
//! [`REDUCER_PREF_FRACTION`] of a reduce task's shuffle input is
//! `NODE_LOCAL`), and the lineage walk that re-pends finished map tasks
//! whose output died with a node.

use rupam_cluster::NodeId;
use rupam_dag::app::{Application, StageId, StageKind};
use rupam_dag::lineage::StageTracker;
use rupam_dag::TaskRef;

/// Fraction of a reduce task's shuffle input that must sit on one node
/// for Spark to consider that node `NODE_LOCAL` for the task.
pub const REDUCER_PREF_FRACTION: f64 = 0.2;

/// Whether a node holding `share` of a task's shuffle input is
/// `NODE_LOCAL` for it.
pub fn is_preferred(share: f64) -> bool {
    share >= REDUCER_PREF_FRACTION
}

struct StageOutputs {
    /// Map-output bytes held per node.
    per_node: Vec<f64>,
    /// Map-output bytes held cluster-wide.
    total: f64,
    /// Per task: node and attempt number of the winning (completed)
    /// copy, so losing a node tells exactly which outputs died with it.
    winners: Vec<Option<(NodeId, u32)>>,
}

/// Per-stage map outputs and winning attempts.
pub struct MapOutputLedger {
    stages: Vec<StageOutputs>,
}

impl MapOutputLedger {
    /// An empty ledger for `app` on a cluster of `nodes` nodes.
    pub fn new(app: &Application, nodes: usize) -> Self {
        MapOutputLedger {
            stages: app
                .stages
                .iter()
                .map(|s| StageOutputs {
                    per_node: vec![0.0; nodes],
                    total: 0.0,
                    winners: vec![None; s.num_tasks()],
                })
                .collect(),
        }
    }

    /// `task`'s attempt `attempt_no` won on `node`. A shuffle-map task's
    /// output now lives there; returns whether any map-output bytes
    /// moved (which stales the consumers' preferences).
    pub fn record_win(
        &mut self,
        app: &Application,
        task: TaskRef,
        node: NodeId,
        attempt_no: u32,
    ) -> bool {
        let stage = app.stage(task.stage);
        let out = &mut self.stages[task.stage.index()];
        out.winners[task.index] = Some((node, attempt_no));
        if stage.kind != StageKind::ShuffleMap {
            return false;
        }
        let bytes = stage.tasks[task.index].demand.shuffle_write.as_f64();
        out.per_node[node.index()] += bytes;
        out.total += bytes;
        bytes > 0.0
    }

    /// Map-output bytes of `parents` held on node `i`.
    fn held(&self, parents: &[StageId], i: usize) -> f64 {
        parents
            .iter()
            .fold(0.0, |b, p| b + self.stages[p.index()].per_node[i])
    }

    /// Map-output bytes of `parents` held cluster-wide.
    fn total(&self, parents: &[StageId]) -> f64 {
        parents
            .iter()
            .fold(0.0, |t, p| t + self.stages[p.index()].total)
    }

    /// Fraction of `stage`'s shuffle input (its parents' map outputs)
    /// held on `node`; 0 while no parent output exists.
    pub fn local_share(&self, app: &Application, stage: StageId, node: NodeId) -> f64 {
        let parents = &app.stage(stage).parents;
        let total = self.total(parents);
        if total > 0.0 {
            (self.held(parents, node.index()) / total).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// The nodes that are `NODE_LOCAL` for `stage`'s shuffle input.
    pub fn node_local(&self, app: &Application, stage: StageId) -> Vec<NodeId> {
        let parents = &app.stage(stage).parents;
        let total = self.total(parents);
        (0..self.stages[stage.index()].per_node.len())
            .filter(|&i| total > 0.0 && is_preferred(self.held(parents, i) / total))
            .map(NodeId)
            .collect()
    }

    /// `node` is gone, and with it every map output whose winning copy
    /// ran there. Each such task the chain still needs (per
    /// [`StageTracker::task_lost`], which re-blocks dependent stages)
    /// drops out of the ledger. Returns them per stage, in stage order,
    /// as `(task index, next attempt number)`; the host re-pends them.
    /// Totals are floored at zero.
    pub fn lose_node(
        &mut self,
        app: &Application,
        tracker: &mut StageTracker,
        node: NodeId,
    ) -> Vec<(StageId, Vec<(usize, u32)>)> {
        let mut lost_by_stage = Vec::new();
        for (sidx, out) in self.stages.iter_mut().enumerate() {
            let stage = &app.stages[sidx];
            if stage.kind != StageKind::ShuffleMap {
                continue;
            }
            let mut lost = Vec::new();
            for (tidx, winner) in out.winners.iter_mut().enumerate() {
                let Some((on, attempt_no)) = *winner else {
                    continue;
                };
                if on != node || !tracker.task_lost(app, StageId(sidx)) {
                    continue; // elsewhere, or the chain no longer needs it
                }
                let bytes = stage.tasks[tidx].demand.shuffle_write.as_f64();
                out.per_node[node.index()] = (out.per_node[node.index()] - bytes).max(0.0);
                out.total = (out.total - bytes).max(0.0);
                *winner = None;
                lost.push((tidx, attempt_no + 1));
            }
            if !lost.is_empty() {
                lost_by_stage.push((StageId(sidx), lost));
            }
        }
        lost_by_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_dag::app::AppBuilder;
    use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
    use rupam_simcore::units::ByteSize;

    fn task(index: usize, input: InputSource, write: u64) -> TaskTemplate {
        TaskTemplate {
            index,
            input,
            demand: TaskDemand {
                compute: 1.0,
                gpu_kernels: 0.0,
                input_bytes: ByteSize::ZERO,
                shuffle_read: ByteSize::ZERO,
                shuffle_write: ByteSize(write),
                output_bytes: ByteSize::ZERO,
                peak_mem: ByteSize::ZERO,
                cached_bytes: ByteSize::ZERO,
            },
        }
    }

    /// One job: a map stage whose tasks write `writes` bytes, and a
    /// one-task reduce stage reading them.
    fn map_reduce(writes: &[u64]) -> Application {
        let mut b = AppBuilder::new("mr");
        let job = b.begin_job();
        let maps = writes
            .iter()
            .enumerate()
            .map(|(i, &w)| task(i, InputSource::Generated, w))
            .collect();
        let map = b.add_stage(job, "map", "mr/map", StageKind::ShuffleMap, vec![], maps);
        let reduce = vec![task(0, InputSource::Shuffle, 0)];
        b.add_stage(
            job,
            "reduce",
            "mr/reduce",
            StageKind::Result,
            vec![map],
            reduce,
        );
        b.build()
    }

    /// A tracker for `app` with every map task finished.
    fn map_done(app: &Application) -> StageTracker {
        let mut tracker = StageTracker::new(app);
        let ready = tracker.take_ready(app);
        assert_eq!(ready, vec![StageId(0)]);
        for _ in 0..app.stages[0].num_tasks() {
            tracker.task_finished(app, StageId(0));
        }
        tracker
    }

    fn win_all(ledger: &mut MapOutputLedger, app: &Application, on: &[usize]) {
        for (i, &n) in on.iter().enumerate() {
            ledger.record_win(app, app.stages[0].task_ref(i), NodeId(n), 0);
        }
    }

    const REDUCE: StageId = StageId(1);

    #[test]
    fn node_local_threshold_is_exactly_twenty_percent() {
        // node 0 holds 1 of 5 units: exactly 20 %
        let app = map_reduce(&[1, 1, 1, 1, 1]);
        let mut ledger = MapOutputLedger::new(&app, 3);
        win_all(&mut ledger, &app, &[0, 1, 1, 1, 1]);
        assert_eq!(ledger.node_local(&app, REDUCE), vec![NodeId(0), NodeId(1)]);
        assert_eq!(ledger.local_share(&app, REDUCE, NodeId(0)), 0.2);
        assert!(is_preferred(ledger.local_share(&app, REDUCE, NodeId(0))));
        // one byte short of 20 %
        let app = map_reduce(&[999, 4001]);
        let mut ledger = MapOutputLedger::new(&app, 3);
        win_all(&mut ledger, &app, &[0, 1]);
        assert_eq!(ledger.node_local(&app, REDUCE), vec![NodeId(1)]);
        assert!(!is_preferred(ledger.local_share(&app, REDUCE, NodeId(0))));
        assert_eq!(ledger.local_share(&app, REDUCE, NodeId(2)), 0.0);
    }

    #[test]
    fn no_output_means_no_preference() {
        let app = map_reduce(&[0, 0]);
        let mut ledger = MapOutputLedger::new(&app, 2);
        assert!(ledger.node_local(&app, REDUCE).is_empty());
        assert!(!ledger.record_win(&app, app.stages[0].task_ref(0), NodeId(0), 0));
        assert!(ledger.node_local(&app, REDUCE).is_empty());
        assert_eq!(ledger.local_share(&app, REDUCE, NodeId(0)), 0.0);
    }

    #[test]
    fn losing_a_node_repends_exactly_its_winners() {
        let app = map_reduce(&[10, 20, 30, 40]);
        let mut ledger = MapOutputLedger::new(&app, 3);
        let mut tracker = map_done(&app);
        // task 2 won on its second attempt
        for (i, node, attempt) in [(0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 2, 0)] {
            ledger.record_win(&app, app.stages[0].task_ref(i), NodeId(node), attempt);
        }
        // the reduce stage's own win carries no map output
        assert!(!ledger.record_win(&app, app.stages[1].task_ref(0), NodeId(0), 0));
        let lost = ledger.lose_node(&app, &mut tracker, NodeId(0));
        assert_eq!(lost, vec![(StageId(0), vec![(0, 1), (2, 2)])]);
        // node 0's output is gone; the rest is untouched
        assert_eq!(ledger.node_local(&app, REDUCE), vec![NodeId(1), NodeId(2)]);
        assert_eq!(ledger.local_share(&app, REDUCE, NodeId(1)), 20.0 / 60.0);
        // a second loss of the same node finds nothing
        assert!(ledger.lose_node(&app, &mut tracker, NodeId(0)).is_empty());
        assert_eq!(tracker.remaining_in(StageId(0)), 2);
    }

    #[test]
    fn totals_never_go_negative() {
        let app = map_reduce(&[100, 100]);
        let mut ledger = MapOutputLedger::new(&app, 2);
        let mut tracker = map_done(&app);
        win_all(&mut ledger, &app, &[0, 1]);
        // corrupt the books: the ledger forgot node 0's bytes
        ledger.stages[0].per_node[0] = 10.0;
        ledger.stages[0].total = 50.0;
        ledger.lose_node(&app, &mut tracker, NodeId(0));
        assert_eq!(ledger.stages[0].per_node[0], 0.0);
        assert_eq!(ledger.stages[0].total, 0.0);
        assert_eq!(ledger.local_share(&app, REDUCE, NodeId(1)), 0.0);
    }

    #[test]
    fn outputs_the_chain_no_longer_needs_stay_lost() {
        let app = map_reduce(&[10]);
        let mut ledger = MapOutputLedger::new(&app, 2);
        // never released: the tracker refuses the recompute
        let mut tracker = StageTracker::new(&app);
        win_all(&mut ledger, &app, &[0]);
        assert!(ledger.lose_node(&app, &mut tracker, NodeId(0)).is_empty());
        assert_eq!(ledger.node_local(&app, REDUCE), vec![NodeId(0)]);
    }
}
