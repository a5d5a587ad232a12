//! The persistent offer state both hosts hand their scheduler.
//!
//! The control plane both hosts own ([`crate::control::ControlPlane`])
//! keeps one [`OfferState`] and produces every
//! [`OfferInput`](crate::scheduler::OfferInput)'s `nodes`, `pending`,
//! `changed` and `pending_fresh` through it. Nothing is rebuilt per
//! round: event application marks what it touched
//! ([`OfferState::node_dirty`], [`OfferState::task_dirty`],
//! [`OfferState::stage_released`], [`OfferState::outputs_moved`]), and a
//! round re-derives only that, through [`OfferHost`] builders: the
//! host's node views and the control plane's pending views.
//! The paper's RM keeps node state current the same way, from the deltas
//! heartbeats carry.
//!
//! Two rules need no marks. A node whose view had running attempts or
//! was blocked is rebuilt every round: running attempts accrue elapsed
//! time and change phase, and a block can lapse with time alone (an
//! executor restart, provisioning latency). And the command batch a round
//! returns is itself a dirty source ([`OfferState::settle`]): every
//! `Launch` marks its node and task, and a launch the host dropped makes
//! its task fresh next round.
//!
//! In debug builds every round checks the persistent views and pending
//! list against a from-scratch build.

use rupam_cluster::NodeId;
use rupam_dag::app::{Application, StageId};
use rupam_dag::TaskRef;
use rupam_simcore::time::SimDuration;

use crate::scheduler::{Command, NodeView, PendingTaskView};
use crate::shuffle::MapOutputLedger;

/// How a host builds views from its authoritative tables.
pub trait OfferHost {
    /// A from-scratch view of `node`.
    fn node_view(&self, node: NodeId) -> NodeView;
    /// Time since `node`'s last heartbeat: the one view field that moves
    /// every round without an event (no ranking reads it).
    fn heartbeat_age(&self, node: NodeId) -> SimDuration;
    /// A from-scratch view of `task` if it is pending in a released
    /// stage. Shuffle preferences go through `prefs`.
    fn pending_view(&self, task: TaskRef, prefs: &mut ShufflePrefs) -> Option<PendingTaskView>;
}

/// Per-stage memo of shuffle `NODE_LOCAL` preferences: every task of a
/// reduce stage shares them, so they are computed once per stage and
/// dropped when a parent's map output moves.
#[derive(Default)]
pub struct ShufflePrefs {
    memo: Vec<Option<Vec<NodeId>>>,
}

impl ShufflePrefs {
    /// The nodes `NODE_LOCAL` for `stage`'s shuffle input.
    pub fn node_local(
        &mut self,
        ledger: &MapOutputLedger,
        app: &Application,
        stage: StageId,
    ) -> Vec<NodeId> {
        if self.memo.len() <= stage.index() {
            self.memo.resize(stage.index() + 1, None);
        }
        self.memo[stage.index()]
            .get_or_insert_with(|| ledger.node_local(app, stage))
            .clone()
    }

    fn forget(&mut self, stage: StageId) {
        if let Some(m) = self.memo.get_mut(stage.index()) {
            *m = None;
        }
    }
}

/// The fields of a node view that node rankings can depend on, diffed
/// round over round into `OfferInput::changed`. `heartbeat_age` is
/// deliberately absent: it moves every round under an armed detector,
/// and the state changes it drives (suspect/dead) show in `dead` and
/// `suspect` at their transitions.
#[rustfmt::skip]
fn ranked(v: &NodeView) -> impl PartialEq {
    (v.executor_mem, v.mem_in_use, v.cpu_util, v.net_util, v.disk_util, v.gpus_idle,
     v.blocked, v.dead, v.suspect, v.draining, v.preempt_risk, v.running.len())
}

/// One round's share of the offer input, lent to the scheduler and
/// handed back through [`OfferState::settle`].
pub struct OfferViews {
    /// Per-node views, indexed by node id.
    pub nodes: Vec<NodeView>,
    /// Launchable tasks, sorted by `(stage, index)`.
    pub pending: Vec<PendingTaskView>,
    /// `OfferInput::changed`: `None` on the first round.
    pub changed: Option<Vec<NodeId>>,
    /// `OfferInput::pending_fresh`.
    pub pending_fresh: Vec<TaskRef>,
}

/// Node views with dirty bits, the sorted pending list with its queued
/// changes, the shuffle-preference memo and the fresh list.
#[derive(Default)]
pub struct OfferState {
    nodes: Vec<NodeView>,
    dirty: Vec<bool>,
    pending: Vec<PendingTaskView>,
    /// Tasks to re-derive at the next flush.
    touched: Vec<TaskRef>,
    /// Stages to re-derive task by task at the next flush.
    released: Vec<StageId>,
    /// Stages whose pending views carry stale shuffle preferences.
    stale: Vec<StageId>,
    prefs: ShufflePrefs,
    /// Stage → consumer stages.
    children: Vec<Vec<StageId>>,
    stage_sizes: Vec<usize>,
    /// Tasks the previous round's commands launched.
    launched: Vec<TaskRef>,
    fresh: Vec<TaskRef>,
}

impl OfferState {
    /// Empty state for `app` on `nodes` nodes: every node is built at the
    /// first round, and no task is pending until its stage is released.
    pub fn new(app: &Application, nodes: usize) -> Self {
        let mut children = vec![Vec::new(); app.stages.len()];
        for (s, stage) in app.stages.iter().enumerate() {
            for p in &stage.parents {
                children[p.index()].push(StageId(s));
            }
        }
        OfferState {
            dirty: vec![true; nodes],
            children,
            stage_sizes: app.stages.iter().map(|s| s.num_tasks()).collect(),
            ..OfferState::default()
        }
    }

    /// `node`'s view may have changed.
    pub fn node_dirty(&mut self, node: NodeId) {
        self.dirty[node.index()] = true;
    }

    /// `task` may have entered or left the pending set, or had its view
    /// change.
    pub fn task_dirty(&mut self, task: TaskRef) {
        self.touched.push(task);
    }

    /// `stage` was released: its pending tasks join the list.
    pub fn stage_released(&mut self, stage: StageId) {
        self.released.push(stage);
    }

    /// A map output of `stage` moved (a winner registered, or a node
    /// took outputs with it): its consumers' shuffle preferences are
    /// stale.
    pub fn outputs_moved(&mut self, stage: StageId) {
        for &child in &self.children[stage.index()] {
            self.prefs.forget(child);
            self.stale.push(child);
        }
    }

    /// The pending count after applying every queued change (the
    /// capacity controller's backlog, the livelock guard's test).
    pub fn backlog(&mut self, host: &impl OfferHost) -> usize {
        self.flush(host);
        self.pending.len()
    }

    /// Apply the queued pending-list changes: re-derive every touched
    /// task and every pending task of a stale stage, merging the results
    /// into the sorted list. A task whose view appeared or changed is
    /// fresh, and so is one the previous round launched that is still
    /// pending (the host dropped the launch).
    fn flush(&mut self, host: &impl OfferHost) {
        for stage in std::mem::take(&mut self.released) {
            let tasks = (0..self.stage_sizes[stage.index()]).map(|index| TaskRef { stage, index });
            self.touched.extend(tasks);
        }
        for stage in std::mem::take(&mut self.stale) {
            let lo = self.pending.partition_point(|p| p.task.stage < stage);
            let hi = self.pending.partition_point(|p| p.task.stage <= stage);
            self.touched
                .extend(self.pending[lo..hi].iter().map(|p| p.task));
        }
        if self.touched.is_empty() {
            return;
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        let mut old = std::mem::take(&mut self.pending).into_iter().peekable();
        let mut merged = Vec::with_capacity(old.len() + touched.len());
        for &task in &touched {
            while let Some(v) = old.next_if(|v| v.task < task) {
                merged.push(v);
            }
            let prev = old.next_if(|v| v.task == task);
            if let Some(view) = host.pending_view(task, &mut self.prefs) {
                if prev.as_ref() != Some(&view) || self.launched.binary_search(&task).is_ok() {
                    self.fresh.push(task);
                }
                merged.push(view);
            }
        }
        merged.extend(old);
        self.pending = merged;
    }

    /// Bring every view up to date and lend this round's offer input.
    /// Hand the lists back with [`OfferState::settle`].
    pub fn round(&mut self, host: &impl OfferHost) -> OfferViews {
        self.flush(host);
        let changed = self.refresh_nodes(host);
        #[cfg(debug_assertions)]
        self.check(host);
        // pending tasks leave the list only through a round's launches,
        // so everything flushed fresh since the last round is pending
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.sort_unstable();
        fresh.dedup();
        OfferViews {
            nodes: std::mem::take(&mut self.nodes),
            pending: std::mem::take(&mut self.pending),
            changed,
            pending_fresh: fresh,
        }
    }

    /// Rebuild the views marked dirty, running or blocked, and diff them
    /// against the previous round into `OfferInput::changed`. Nodes with
    /// running attempts — this round or the previous one — are always in
    /// the delta: which attempts hold GPUs, and what they have accrued,
    /// can change without any ranked field moving.
    fn refresh_nodes(&mut self, host: &impl OfferHost) -> Option<Vec<NodeId>> {
        if self.nodes.is_empty() {
            self.nodes = (0..self.dirty.len())
                .map(|i| host.node_view(NodeId(i)))
                .collect();
            self.dirty.fill(false);
            return None;
        }
        let mut changed = Vec::new();
        for (i, view) in self.nodes.iter_mut().enumerate() {
            let id = NodeId(i);
            if !(self.dirty[i] || view.blocked || !view.running.is_empty()) {
                view.heartbeat_age = host.heartbeat_age(id);
                continue;
            }
            let prev = std::mem::replace(view, host.node_view(id));
            self.dirty[i] = false;
            let running = !(view.running.is_empty() && prev.running.is_empty());
            if running || ranked(view) != ranked(&prev) {
                changed.push(id);
            }
        }
        Some(changed)
    }

    /// Take back the lists lent by [`OfferState::round`], and read the
    /// scheduler's answer: every launch marks its node (when the node
    /// exists) and task, and a launched task still pending at the next
    /// round is fresh.
    pub fn settle(
        &mut self,
        nodes: Vec<NodeView>,
        pending: Vec<PendingTaskView>,
        commands: &[Command],
    ) {
        self.nodes = nodes;
        self.pending = pending;
        self.launched.clear();
        for c in commands {
            if let Command::Launch { task, node, .. } = c {
                if let Some(dirty) = self.dirty.get_mut(node.index()) {
                    *dirty = true;
                }
                self.touched.push(*task);
                self.launched.push(*task);
            }
        }
        self.launched.sort_unstable();
    }

    /// The debug cross-check: the persistent views and pending list equal
    /// a from-scratch build (shuffle preferences recomputed, not read
    /// from the memo).
    #[cfg(debug_assertions)]
    fn check(&self, host: &impl OfferHost) {
        for (i, kept) in self.nodes.iter().enumerate() {
            let fresh = host.node_view(NodeId(i));
            assert!(
                *kept == fresh,
                "persistent node views diverged from a fresh build at node {i}:\n\
                 kept  {kept:?}\nfresh {fresh:?}"
            );
        }
        let mut prefs = ShufflePrefs::default();
        let stages = self.stage_sizes.iter().enumerate();
        let pending: Vec<PendingTaskView> = stages
            .flat_map(|(s, &n)| {
                (0..n).map(move |index| TaskRef {
                    stage: StageId(s),
                    index,
                })
            })
            .filter_map(|t| host.pending_view(t, &mut prefs))
            .collect();
        assert!(
            pending == self.pending,
            "persistent pending list diverged from a fresh build"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::PendingShadow;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rupam_cluster::NodeTier;
    use rupam_dag::app::{AppBuilder, JobId, StageKind};
    use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
    use rupam_metrics::trace::LaunchReason;
    use rupam_simcore::time::SimTime;
    use rupam_simcore::units::ByteSize;

    use crate::scheduler::RunningTaskView;

    const NODES: usize = 4;
    const TASKS: usize = 5;

    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Pending(u32),
        Running(NodeId, SimTime),
        Done,
    }

    /// A toy host: a map stage feeding a reduce stage, plus a stage
    /// reading cached partitions; nodes with a memory figure, a spot
    /// risk and a block that lapses with time.
    struct Toy {
        app: Application,
        ledger: MapOutputLedger,
        now: SimTime,
        mem: Vec<u64>,
        risk: Vec<f64>,
        blocked_until: Vec<SimTime>,
        released: Vec<bool>,
        tasks: Vec<Vec<St>>,
        /// Nodes caching each task's input (`process_nodes`).
        cached: Vec<Vec<Vec<NodeId>>>,
    }

    impl Toy {
        fn new() -> Self {
            let mut b = AppBuilder::new("toy");
            let job = b.begin_job();
            let tasks = |input: InputSource| {
                (0..TASKS)
                    .map(|index| TaskTemplate {
                        index,
                        input: input.clone(),
                        demand: TaskDemand {
                            shuffle_write: ByteSize::mib(1 + index as u64),
                            ..TaskDemand::default()
                        },
                    })
                    .collect()
            };
            let map = b.add_stage(
                job,
                "map",
                "toy/map",
                StageKind::ShuffleMap,
                vec![],
                tasks(InputSource::Generated),
            );
            let reduce = b.add_stage(
                job,
                "reduce",
                "toy/reduce",
                StageKind::ShuffleMap,
                vec![map],
                tasks(InputSource::Shuffle),
            );
            b.add_stage(
                job,
                "read",
                "toy/read",
                StageKind::Result,
                vec![reduce],
                tasks(InputSource::Generated),
            );
            let app = b.build();
            Toy {
                ledger: MapOutputLedger::new(&app, NODES),
                now: SimTime::ZERO,
                mem: vec![0; NODES],
                risk: vec![0.0; NODES],
                blocked_until: vec![SimTime::ZERO; NODES],
                released: vec![false; 3],
                tasks: vec![vec![St::Pending(0); TASKS]; 3],
                cached: vec![vec![Vec::new(); TASKS]; 3],
                app,
            }
        }

        fn all_tasks() -> impl Iterator<Item = TaskRef> {
            (0..3).flat_map(|s| {
                (0..TASKS).map(move |index| TaskRef {
                    stage: StageId(s),
                    index,
                })
            })
        }

        fn st(&mut self, t: TaskRef) -> &mut St {
            &mut self.tasks[t.stage.index()][t.index]
        }

        fn fresh_nodes(&self) -> Vec<NodeView> {
            (0..NODES).map(|i| self.node_view(NodeId(i))).collect()
        }

        fn fresh_pending(&self) -> Vec<PendingTaskView> {
            let mut prefs = ShufflePrefs::default();
            Toy::all_tasks()
                .filter_map(|t| self.pending_view(t, &mut prefs))
                .collect()
        }
    }

    impl OfferHost for Toy {
        fn node_view(&self, node: NodeId) -> NodeView {
            let i = node.index();
            let running: Vec<RunningTaskView> = Toy::all_tasks()
                .filter_map(|t| match self.tasks[t.stage.index()][t.index] {
                    St::Running(n, at) if n == node => Some(RunningTaskView {
                        task: t,
                        speculative: false,
                        elapsed: self.now.since(at),
                        peak_mem: ByteSize::ZERO,
                        on_gpu: false,
                    }),
                    _ => None,
                })
                .collect();
            NodeView {
                node,
                executor_mem: ByteSize::gib(8),
                mem_in_use: ByteSize::mib(self.mem[i]),
                free_mem: ByteSize::gib(8).saturating_sub(ByteSize::mib(self.mem[i])),
                cpu_util: running.len() as f64 / 8.0,
                running,
                net_util: 0.0,
                disk_util: 0.0,
                gpus_idle: 0,
                blocked: self.blocked_until[i] > self.now,
                heartbeat_age: self.heartbeat_age(node),
                dead: false,
                suspect: false,
                tier: NodeTier::Spot,
                draining: false,
                preempt_risk: self.risk[i],
            }
        }

        fn heartbeat_age(&self, _: NodeId) -> SimDuration {
            self.now.since(SimTime::ZERO)
        }

        fn pending_view(&self, task: TaskRef, prefs: &mut ShufflePrefs) -> Option<PendingTaskView> {
            let (s, i) = (task.stage.index(), task.index);
            let St::Pending(attempt_no) = self.tasks[s][i] else {
                return None;
            };
            if !self.released[s] {
                return None;
            }
            let stage = &self.app.stages[s];
            let node_local = match stage.tasks[i].input {
                InputSource::Shuffle => prefs.node_local(&self.ledger, &self.app, task.stage),
                _ => Vec::new(),
            };
            Some(PendingTaskView {
                task,
                job: JobId(0),
                template_key: stage.template_key,
                stage_kind: stage.kind,
                attempt_no,
                peak_mem_hint: ByteSize::ZERO,
                gpu_capable: false,
                process_nodes: self.cached[s][i].clone(),
                node_local,
            })
        }
    }

    fn launch(task: TaskRef, node: NodeId) -> Command {
        Command::Launch {
            task,
            node,
            use_gpu: false,
            speculative: false,
            reason: LaunchReason::FifoSlot,
        }
    }

    /// Checks one round against a from-scratch build: views and pending
    /// list equal, `pending_fresh` covers the exact reference rule, and
    /// `changed` covers every node that moved or runs attempts.
    fn checked_round(
        state: &mut OfferState,
        host: &Toy,
        shadow: &PendingShadow,
        prev: &[NodeView],
    ) -> OfferViews {
        let views = state.round(host);
        assert!(views.nodes == host.fresh_nodes(), "node views diverged");
        assert!(views.pending == host.fresh_pending(), "pending diverged");
        for t in shadow.fresh(&views.pending) {
            assert!(views.pending_fresh.contains(&t), "{t:?} not fresh");
        }
        if let Some(changed) = &views.changed {
            for (i, (now, was)) in views.nodes.iter().zip(prev).enumerate() {
                let was = NodeView {
                    heartbeat_age: now.heartbeat_age,
                    ..was.clone()
                };
                let running = !now.running.is_empty() || !was.running.is_empty();
                if running || *now != was {
                    assert!(
                        changed.contains(&NodeId(i)),
                        "node {i} missing from changed"
                    );
                }
            }
        }
        views
    }

    /// One seeded run of random host events and rounds.
    fn run(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut host = Toy::new();
        let mut state = OfferState::new(&host.app, NODES);
        let mut shadow = PendingShadow::new();
        let mut prev = host.fresh_nodes();
        let mut commands: Vec<Command> = Vec::new();
        for _ in 0..60 {
            // the previous round's launches: most land, some are dropped
            for c in &commands {
                let Command::Launch { task, node, .. } = *c else {
                    continue;
                };
                let landable = host.blocked_until[node.index()] <= host.now;
                if landable && matches!(*host.st(task), St::Pending(_)) && rng.gen_bool(0.8) {
                    *host.st(task) = St::Running(node, host.now);
                }
            }
            for _ in 0..rng.gen_range(0..6) {
                let t = TaskRef {
                    stage: StageId(rng.gen_range(0..3)),
                    index: rng.gen_range(0..TASKS),
                };
                let node = NodeId(rng.gen_range(0..NODES));
                match rng.gen_range(0..8) {
                    // pend: release the task's stage
                    0 if !host.released[t.stage.index()] => {
                        host.released[t.stage.index()] = true;
                        state.stage_released(t.stage);
                    }
                    // fail and re-pend a running attempt
                    1 => {
                        if let St::Running(_, _) = *host.st(t) {
                            *host.st(t) = St::Pending(rng.gen_range(1..4));
                            state.task_dirty(t);
                        }
                    }
                    // complete a running attempt, registering map output
                    2 => {
                        if let St::Running(on, _) = *host.st(t) {
                            *host.st(t) = St::Done;
                            if host.ledger.record_win(&host.app, t, on, 0) {
                                state.outputs_moved(t.stage);
                            }
                        }
                    }
                    // lineage: a finished task re-pends
                    3 if *host.st(t) == St::Done => {
                        *host.st(t) = St::Pending(1);
                        state.task_dirty(t);
                    }
                    // a parent's map output moves to another node
                    4 if t.stage.index() < 2 => {
                        let moved = host.ledger.record_win(&host.app, t, node, 1);
                        if moved {
                            state.outputs_moved(t.stage);
                        }
                    }
                    // the executor cache of `node` gains or drops the
                    // task's input
                    5 => {
                        let cached = &mut host.cached[t.stage.index()][t.index];
                        match cached.iter().position(|&n| n == node) {
                            Some(p) => drop(cached.remove(p)),
                            None => cached.push(node),
                        }
                        cached.sort_unstable();
                        state.task_dirty(t);
                    }
                    // a node-level change: memory, risk, or a block that
                    // lapses later with no event
                    6 => {
                        let i = node.index();
                        match rng.gen_range(0..3) {
                            0 => host.mem[i] = rng.gen_range(0..4096),
                            1 => host.risk[i] = rng.gen_range(0.0..0.1),
                            _ => {
                                host.blocked_until[i] =
                                    host.now + SimDuration::from_millis(rng.gen_range(1..3000));
                            }
                        }
                        state.node_dirty(node);
                    }
                    _ => {}
                }
            }
            host.now += SimDuration::from_millis(rng.gen_range(0..800));
            let views = checked_round(&mut state, &host, &shadow, &prev);
            // launch some pending tasks, and sometimes one already gone
            commands.clear();
            for p in &views.pending {
                if rng.gen_bool(0.3) {
                    commands.push(launch(p.task, NodeId(rng.gen_range(0..NODES))));
                }
            }
            if rng.gen_bool(0.2) {
                commands.push(launch(
                    TaskRef {
                        stage: StageId(0),
                        index: 0,
                    },
                    NodeId(0),
                ));
            }
            prev = views.nodes.clone();
            settle(&mut state, &mut shadow, views, &commands);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn persistent_state_matches_a_fresh_build(seed in 0u64..u64::MAX) {
            run(seed);
        }
    }

    /// Hand a round back to both the state and the reference shadow.
    fn settle(
        state: &mut OfferState,
        shadow: &mut PendingShadow,
        views: OfferViews,
        c: &[Command],
    ) {
        shadow.settle(views.pending.clone(), c);
        state.settle(views.nodes, views.pending, c);
    }

    #[test]
    fn node_whose_last_attempt_leaves_is_rebuilt() {
        let mut host = Toy::new();
        let mut state = OfferState::new(&host.app, NODES);
        let mut shadow = PendingShadow::new();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        host.released[0] = true;
        state.stage_released(StageId(0));
        let prev = host.fresh_nodes();
        let views = checked_round(&mut state, &host, &shadow, &prev);
        assert_eq!(views.changed, None, "the first round rescores everything");
        let prev = views.nodes.clone();
        settle(&mut state, &mut shadow, views, &[launch(t, NodeId(2))]);
        *host.st(t) = St::Running(NodeId(2), host.now);
        let views = checked_round(&mut state, &host, &shadow, &prev);
        assert_eq!(views.changed, Some(vec![NodeId(2)]));
        let prev = views.nodes.clone();
        settle(&mut state, &mut shadow, views, &[]);
        // the attempt finishes; nothing marks node 2
        *host.st(t) = St::Done;
        let views = checked_round(&mut state, &host, &shadow, &prev);
        assert!(views.nodes[2].running.is_empty());
        assert_eq!(views.changed, Some(vec![NodeId(2)]));
    }

    #[test]
    fn lapsed_block_is_rebuilt_without_an_event() {
        let mut host = Toy::new();
        let mut state = OfferState::new(&host.app, NODES);
        let mut shadow = PendingShadow::new();
        host.blocked_until[1] = SimTime::from_secs_f64(5.0);
        let prev = host.fresh_nodes();
        let views = checked_round(&mut state, &host, &shadow, &prev);
        assert!(views.nodes[1].blocked);
        let prev = views.nodes.clone();
        settle(&mut state, &mut shadow, views, &[]);
        // provisioning latency ends with time alone: no event, no mark
        host.now = SimTime::from_secs_f64(6.0);
        let views = checked_round(&mut state, &host, &shadow, &prev);
        assert!(!views.nodes[1].blocked);
        assert_eq!(views.changed, Some(vec![NodeId(1)]));
    }

    #[test]
    fn dropped_launch_is_fresh_next_round() {
        let mut host = Toy::new();
        let mut state = OfferState::new(&host.app, NODES);
        let t = TaskRef {
            stage: StageId(0),
            index: 3,
        };
        host.released[0] = true;
        state.stage_released(StageId(0));
        let views = state.round(&host);
        assert_eq!(views.pending_fresh.len(), TASKS);
        state.settle(views.nodes, views.pending, &[launch(t, NodeId(0))]);
        // the host dropped the launch: the task stays pending, unchanged
        let views = state.round(&host);
        assert_eq!(views.pending_fresh, vec![t]);
        state.settle(views.nodes, views.pending, &[]);
        assert!(state.round(&host).pending_fresh.is_empty());
    }
}
