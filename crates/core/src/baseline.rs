//! Stock Spark 2.2 task scheduling (the paper's baseline).
//!
//! Faithful to the behaviour the paper contrasts against (§II-A):
//!
//! * **Uniform executors** — one executor size for the whole cluster,
//!   dimensioned for the *smallest* node (14 GB on Hydra, to fit the
//!   16 GB thor machines).
//! * **One task per core** — a node is "available" iff it has free core
//!   slots, regardless of its actual load or free memory.
//! * **Delay scheduling** — per task set, wait up to
//!   `spark.locality.wait` (3 s) per locality level before relaxing from
//!   `PROCESS_LOCAL` towards `ANY`.
//! * **Speculation** — launches copies of the engine-flagged stragglers
//!   on any free slot (never next to the original copy).
//! * **No heterogeneity awareness** — CPU speed, SSDs, GPUs, memory
//!   capacity and current utilisation are all ignored.

use std::collections::HashMap;

use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use std::collections::HashSet;

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, Stage, StageId};
use rupam_dag::{Locality, TaskRef};
use rupam_exec::scheduler::{Command, OfferInput, PendingTaskView, Scheduler};
use rupam_metrics::record::AttemptOutcome;
use rupam_metrics::trace::LaunchReason;

/// Baseline configuration (`spark.*` defaults).
#[derive(Clone, Debug)]
pub struct SparkConfig {
    /// `spark.locality.wait`: how long a task set tolerates launching at
    /// a worse locality level than its best.
    pub locality_wait: SimDuration,
    /// Executor memory override (`spark.executor.memory`); `None` sizes
    /// for the smallest node minus the OS reservation, like the paper's
    /// 14 GB setting.
    pub executor_mem: Option<ByteSize>,
    /// Memory the operator leaves for the OS when sizing executors.
    pub os_reserved: ByteSize,
    /// Task slots per core (`spark.task.cpus` = 1 ⇒ 1 slot per core).
    pub slots_per_core: u32,
}

impl Default for SparkConfig {
    fn default() -> Self {
        SparkConfig {
            locality_wait: SimDuration::from_secs(3),
            executor_mem: None,
            os_reserved: ByteSize::gib(2),
            slots_per_core: 1,
        }
    }
}

/// Delay-scheduling state of one task set (Spark's `TaskSetManager`).
#[derive(Clone, Debug)]
struct TaskSetState {
    /// Locality levels this set can use, best first (derived from its
    /// tasks' preferences; `ANY` is always last).
    levels: Vec<Locality>,
    /// Index into `levels` of the currently allowed level.
    level_idx: usize,
    /// Last time a task launched at the current level (or the level
    /// changed) — the delay-scheduling timer.
    last_launch: SimTime,
}

impl TaskSetState {
    fn allowed(&mut self, now: SimTime, wait: SimDuration) -> Locality {
        if self.levels.is_empty() {
            return Locality::Any; // no pending tasks yet — nothing to gate
        }
        while self.level_idx + 1 < self.levels.len() && now.since(self.last_launch) > wait {
            self.level_idx += 1;
            self.last_launch = now;
        }
        self.levels[self.level_idx]
    }

    fn note_launch(&mut self, at: Locality, now: SimTime) {
        if let Some(idx) = self.levels.iter().position(|l| *l == at) {
            if idx <= self.level_idx {
                self.level_idx = idx;
            }
        }
        self.last_launch = now;
    }
}

/// The stock Spark scheduler.
pub struct SparkScheduler {
    cfg: SparkConfig,
    /// Stages in submission order (FIFO across task sets).
    stage_order: Vec<StageId>,
    states: HashMap<StageId, TaskSetState>,
    slots: Vec<usize>,
    /// Executors a task has already failed on — Spark's TaskSetManager
    /// will not relaunch an attempt there (`spark.excludeOnFailure`).
    failed_on: HashMap<TaskRef, HashSet<NodeId>>,
    /// Offer-round counter used to vary the node visit order — real
    /// drivers receive resource offers in arbitrary (registration/heartbeat)
    /// order, not sorted by hardware quality.
    round: u64,
}

impl SparkScheduler {
    /// A baseline scheduler with the given configuration.
    pub fn new(cfg: SparkConfig) -> Self {
        SparkScheduler {
            cfg,
            stage_order: Vec::new(),
            states: HashMap::new(),
            slots: Vec::new(),
            failed_on: HashMap::new(),
            round: 0,
        }
    }

    /// A baseline scheduler with Spark's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(SparkConfig::default())
    }

    fn stage_levels(pending: &[PendingTaskView], stage: StageId) -> Vec<Locality> {
        let mut levels = Vec::new();
        for p in pending.iter().filter(|p| p.task.stage == stage) {
            let best = p.best_locality();
            if !levels.contains(&best) {
                levels.push(best);
            }
        }
        if !levels.contains(&Locality::Any) {
            levels.push(Locality::Any);
        }
        levels.sort();
        levels
    }
}

impl Scheduler for SparkScheduler {
    fn name(&self) -> &str {
        "spark"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, _node: NodeId) -> ByteSize {
        self.cfg
            .executor_mem
            .unwrap_or_else(|| cluster.min_mem().saturating_sub(self.cfg.os_reserved))
    }

    fn decision_cost(&self) -> SimDuration {
        SimDuration::from_millis(1)
    }

    fn on_app_start(&mut self, _app: &Application, cluster: &ClusterSpec) {
        self.slots = cluster
            .nodes()
            .iter()
            .map(|n| (n.cores * self.cfg.slots_per_core) as usize)
            .collect();
        self.stage_order.clear();
        self.states.clear();
        self.failed_on.clear();
        self.round = 0;
    }

    fn on_task_failed(
        &mut self,
        task: TaskRef,
        node: NodeId,
        _outcome: AttemptOutcome,
        _now: SimTime,
    ) {
        let set = self.failed_on.entry(task).or_default();
        set.insert(node);
        // a task excluded from every executor could never relaunch;
        // Spark would abort — we clear the exclusions and let it retry
        if set.len() >= self.slots.len() {
            set.clear();
        }
    }

    fn on_stage_ready(&mut self, stage: &Stage, now: SimTime) {
        self.stage_order.push(stage.id);
        self.states.insert(
            stage.id,
            TaskSetState {
                levels: Vec::new(), // derived from pending tasks at first offer
                level_idx: 0,
                last_launch: now,
            },
        );
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        self.round += 1;
        let mut cmds = Vec::new();
        let mut used: Vec<usize> = input.nodes.iter().map(|n| n.running_count()).collect();
        let mut claimed: Vec<bool> = vec![false; input.pending.len()];

        // deterministic per-round permutation of the node visit order
        let mut node_order: Vec<usize> = (0..input.nodes.len()).collect();
        let round = self.round;
        node_order.sort_by_key(|&i| splitmix(round.wrapping_mul(0x9e37).wrapping_add(i as u64)));

        // refresh each live task set's locality levels from what is
        // actually pending (tasks get re-queued with new preferences,
        // e.g. once their input is cached somewhere)
        for &sid in &self.stage_order {
            if input.pending.iter().any(|p| p.task.stage == sid) {
                let levels = Self::stage_levels(&input.pending, sid);
                if let Some(st) = self.states.get_mut(&sid) {
                    if st.levels.is_empty() {
                        // first offer for this task set
                        st.levels = levels;
                        st.level_idx = 0;
                    } else if st.levels != levels {
                        let old_level = st.levels.get(st.level_idx).copied();
                        st.levels = levels;
                        st.level_idx = old_level
                            .and_then(|l| st.levels.iter().position(|x| *x == l))
                            .unwrap_or(0);
                    }
                }
            }
        }

        for &ni in &node_order {
            let node_view = &input.nodes[ni];
            if node_view.blocked {
                continue;
            }
            let node = NodeId(ni);
            'slot: while used[ni] < self.slots[ni] {
                // walk task sets FIFO, respecting each one's allowed level
                for &sid in &self.stage_order {
                    let Some(state) = self.states.get_mut(&sid) else {
                        continue;
                    };
                    let allowed = state.allowed(input.now, self.cfg.locality_wait);
                    // best candidate at or under the allowed level
                    let mut best: Option<(usize, Locality)> = None;
                    for (pi, p) in input.pending.iter().enumerate() {
                        if claimed[pi] || p.task.stage != sid {
                            continue;
                        }
                        if self
                            .failed_on
                            .get(&p.task)
                            .map(|s| s.contains(&node))
                            .unwrap_or(false)
                        {
                            continue; // excludeOnFailure
                        }
                        let loc = p.locality(input.cluster, node);
                        if loc <= allowed && best.map(|(_, bl)| loc < bl).unwrap_or(true) {
                            best = Some((pi, loc));
                        }
                    }
                    if let Some((pi, loc)) = best {
                        claimed[pi] = true;
                        state.note_launch(loc, input.now);
                        cmds.push(Command::Launch {
                            task: input.pending[pi].task,
                            node,
                            use_gpu: false,
                            speculative: false,
                            reason: LaunchReason::DelaySchedule {
                                allowed,
                                achieved: loc,
                            },
                        });
                        used[ni] += 1;
                        continue 'slot;
                    }
                }
                // no regular task fits: try a speculative copy (anywhere
                // but next to the original)
                let original_here =
                    |t: &PendingTaskView| node_view.running.iter().any(|r| r.task == t.task);
                if let Some(s) = input
                    .speculatable
                    .iter()
                    .find(|s| !original_here(s) && !cmds.iter().any(|c| matches!(c, Command::Launch { task, speculative: true, .. } if *task == s.task)))
                {
                    cmds.push(Command::Launch {
                        task: s.task,
                        node,
                        use_gpu: false,
                        speculative: true,
                        reason: LaunchReason::SparkSpeculative,
                    });
                    used[ni] += 1;
                    continue 'slot;
                }
                break;
            }
        }
        cmds
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_dag::app::StageKind;
    use rupam_dag::TaskRef;
    use rupam_exec::scheduler::NodeView;

    fn node_view(node: usize, running: usize, cores: usize) -> NodeView {
        let _ = cores;
        NodeView {
            node: NodeId(node),
            executor_mem: ByteSize::gib(14),
            mem_in_use: ByteSize::ZERO,
            free_mem: ByteSize::gib(14),
            running: (0..running)
                .map(|i| rupam_exec::scheduler::RunningTaskView {
                    task: TaskRef {
                        stage: StageId(99),
                        index: i,
                    },
                    speculative: false,
                    elapsed: SimDuration::ZERO,
                    peak_mem: ByteSize::mib(100),
                    on_gpu: false,
                })
                .collect(),
            cpu_util: 0.0,
            net_util: 0.0,
            disk_util: 0.0,
            gpus_idle: 0,
            blocked: false,
            heartbeat_age: SimDuration::ZERO,
            dead: false,
            suspect: false,
            tier: rupam_cluster::NodeTier::OnDemand,
            draining: false,
            preempt_risk: 0.0,
        }
    }

    fn pending(stage: usize, index: usize, node_local: Vec<NodeId>) -> PendingTaskView {
        PendingTaskView {
            task: TaskRef {
                stage: StageId(stage),
                index,
            },
            job: rupam_dag::app::JobId(0),
            template_key: "t".into(),
            stage_kind: StageKind::ShuffleMap,
            attempt_no: 0,
            peak_mem_hint: ByteSize::ZERO,
            gpu_capable: false,
            process_nodes: vec![],
            node_local,
        }
    }

    fn mk_offer<'a>(
        cluster: &'a ClusterSpec,
        app: &'a Application,
        now: SimTime,
        nodes: Vec<NodeView>,
        pending: Vec<PendingTaskView>,
    ) -> OfferInput<'a> {
        OfferInput {
            now,
            cluster,
            app,
            nodes,
            pending,
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        }
    }

    fn dummy_app() -> Application {
        use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
        let mut b = rupam_dag::AppBuilder::new("d");
        let j = b.begin_job();
        b.add_stage(
            j,
            "r",
            "d/r",
            StageKind::Result,
            vec![],
            vec![TaskTemplate {
                index: 0,
                input: InputSource::Generated,
                demand: TaskDemand::default(),
            }],
        );
        b.build()
    }

    fn ready_stage(sched: &mut SparkScheduler, app: &Application, now: SimTime) {
        sched.on_stage_ready(app.stage(StageId(0)), now);
    }

    #[test]
    fn uniform_executor_sized_for_smallest_node() {
        let cluster = ClusterSpec::hydra();
        let s = SparkScheduler::with_defaults();
        // 16 GiB thor − 2 GiB reserved = 14 GiB, on EVERY node
        for (id, _) in cluster.iter() {
            assert_eq!(s.executor_memory(&cluster, id), ByteSize::gib(14));
        }
    }

    #[test]
    fn one_task_per_core() {
        let cluster = ClusterSpec::two_node_motivation();
        let app = dummy_app();
        let mut s = SparkScheduler::with_defaults();
        s.on_app_start(&app, &cluster);
        ready_stage(&mut s, &app, SimTime::ZERO);
        // node 0 already runs 16 tasks (= cores): nothing launches there
        let offer = mk_offer(
            &cluster,
            &app,
            SimTime::ZERO,
            vec![node_view(0, 16, 16), node_view(1, 15, 16)],
            vec![pending(0, 0, vec![]), pending(0, 1, vec![])],
        );
        let cmds = s.offer_round(&offer);
        assert_eq!(cmds.len(), 1, "only node 1 has a slot: {cmds:?}");
        match &cmds[0] {
            Command::Launch { node, .. } => assert_eq!(*node, NodeId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delay_scheduling_waits_then_relaxes() {
        let cluster = ClusterSpec::two_node_motivation();
        let app = dummy_app();
        let mut s = SparkScheduler::with_defaults();
        s.on_app_start(&app, &cluster);
        ready_stage(&mut s, &app, SimTime::ZERO);
        // task prefers node 1; only node 0 has slots
        let offer_at = |now: SimTime, sched: &mut SparkScheduler| {
            let offer = mk_offer(
                &cluster,
                &app,
                now,
                vec![node_view(0, 0, 16), node_view(1, 16, 16)],
                vec![pending(0, 0, vec![NodeId(1)])],
            );
            sched.offer_round(&offer)
        };
        // immediately: NODE_LOCAL allowed only; node 0 is ANY-level => wait
        assert!(offer_at(SimTime::from_secs_f64(0.5), &mut s).is_empty());
        // after the 3 s wait the level relaxes and node 0 is accepted
        let cmds = offer_at(SimTime::from_secs_f64(4.0), &mut s);
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn prefers_local_node_when_available() {
        let cluster = ClusterSpec::two_node_motivation();
        let app = dummy_app();
        let mut s = SparkScheduler::with_defaults();
        s.on_app_start(&app, &cluster);
        ready_stage(&mut s, &app, SimTime::ZERO);
        let offer = mk_offer(
            &cluster,
            &app,
            SimTime::ZERO,
            vec![node_view(0, 0, 16), node_view(1, 0, 16)],
            vec![pending(0, 0, vec![NodeId(1)])],
        );
        let cmds = s.offer_round(&offer);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Launch { node, task, .. } => {
                assert_eq!(*node, NodeId(1), "should follow data locality");
                assert_eq!(task.index, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_requests_gpu() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let mut s = SparkScheduler::with_defaults();
        s.on_app_start(&app, &cluster);
        ready_stage(&mut s, &app, SimTime::ZERO);
        let mut p = pending(0, 0, vec![]);
        p.gpu_capable = true;
        let offer = mk_offer(
            &cluster,
            &app,
            SimTime::ZERO,
            (0..cluster.len()).map(|i| node_view(i, 0, 8)).collect(),
            vec![p],
        );
        for cmd in s.offer_round(&offer) {
            if let Command::Launch { use_gpu, .. } = cmd {
                assert!(!use_gpu, "stock Spark is GPU-oblivious");
            }
        }
    }

    #[test]
    fn speculative_copy_avoids_original_node() {
        let cluster = ClusterSpec::two_node_motivation();
        let app = dummy_app();
        let mut s = SparkScheduler::with_defaults();
        s.on_app_start(&app, &cluster);
        ready_stage(&mut s, &app, SimTime::ZERO);
        // original of task (0,0) runs on node 0
        let mut nv0 = node_view(0, 0, 16);
        nv0.running.push(rupam_exec::scheduler::RunningTaskView {
            task: TaskRef {
                stage: StageId(0),
                index: 0,
            },
            speculative: false,
            elapsed: SimDuration::from_secs(100),
            peak_mem: ByteSize::mib(100),
            on_gpu: false,
        });
        let offer = OfferInput {
            now: SimTime::from_secs_f64(100.0),
            cluster: &cluster,
            app: &app,
            nodes: vec![nv0, node_view(1, 0, 16)],
            pending: vec![],
            speculatable: vec![pending(0, 0, vec![])],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        let cmds = s.offer_round(&offer);
        let spec_launches: Vec<_> = cmds
            .iter()
            .filter_map(|c| match c {
                Command::Launch {
                    node,
                    speculative: true,
                    ..
                } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(spec_launches, vec![NodeId(1)], "copy must avoid node 0");
    }
}
