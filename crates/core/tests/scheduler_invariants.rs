//! Property-based invariants of the scheduler implementations, exercised
//! against synthetic offer snapshots (no engine in the loop — these pin
//! down the pure decision logic).

use proptest::prelude::*;

use rupam::{RupamConfig, RupamScheduler, SparkScheduler};
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, StageId, StageKind};
use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
use rupam_dag::{AppBuilder, TaskRef};
use rupam_exec::scheduler::{Command, NodeView, OfferInput, PendingTaskView, Scheduler};
use rupam_simcore::time::SimTime;
use rupam_simcore::units::ByteSize;

fn dummy_app(stages: usize, tasks_per_stage: usize) -> Application {
    let mut b = AppBuilder::new("inv");
    let j = b.begin_job();
    let mk = |n: usize| {
        (0..n)
            .map(|i| TaskTemplate {
                index: i,
                input: InputSource::Generated,
                demand: TaskDemand::default(),
            })
            .collect::<Vec<_>>()
    };
    let mut prev: Option<StageId> = None;
    for s in 0..stages {
        let parents = prev.into_iter().collect();
        let kind = if s + 1 == stages {
            StageKind::Result
        } else {
            StageKind::ShuffleMap
        };
        prev = Some(b.add_stage(
            j,
            format!("s{s}"),
            format!("inv/s{s}"),
            kind,
            parents,
            mk(tasks_per_stage),
        ));
    }
    b.build()
}

fn node_views(cluster: &ClusterSpec, busy: &[usize]) -> Vec<NodeView> {
    cluster
        .iter()
        .map(|(id, spec)| {
            let running = busy.get(id.index()).copied().unwrap_or(0);
            NodeView {
                node: id,
                executor_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
                mem_in_use: ByteSize::mib(256 * running as u64),
                free_mem: spec
                    .mem
                    .saturating_sub(ByteSize::gib(2))
                    .saturating_sub(ByteSize::mib(256 * running as u64)),
                // fake running attempts must reference real stage/task
                // slots — schedulers inspect them (e.g. the GPU-race path
                // reads the task's demand from the application)
                running: (0..running)
                    .map(|i| rupam_exec::scheduler::RunningTaskView {
                        task: TaskRef {
                            stage: StageId(0),
                            index: i,
                        },
                        speculative: false,
                        elapsed: rupam_simcore::SimDuration::from_secs(1),
                        peak_mem: ByteSize::mib(256),
                        on_gpu: false,
                    })
                    .collect(),
                cpu_util: (running as f64 / spec.cores as f64).min(1.0),
                net_util: 0.0,
                disk_util: 0.0,
                gpus_idle: spec.gpus,
                blocked: false,
                heartbeat_age: rupam_simcore::SimDuration::ZERO,
                dead: false,
                suspect: false,
                tier: rupam_cluster::NodeTier::OnDemand,
                draining: false,
                preempt_risk: 0.0,
            }
        })
        .collect()
}

fn pending_views(app: &Application, stage: StageId, n: usize) -> Vec<PendingTaskView> {
    (0..n)
        .map(|i| PendingTaskView {
            task: TaskRef { stage, index: i },
            job: rupam_dag::app::JobId(0),
            template_key: app.stage(stage).template_key,
            stage_kind: app.stage(stage).kind,
            attempt_no: 0,
            peak_mem_hint: ByteSize::ZERO,
            gpu_capable: false,
            process_nodes: vec![],
            node_local: vec![],
        })
        .collect()
}

fn check_commands(
    cmds: &[Command],
    cluster: &ClusterSpec,
    pending: &[PendingTaskView],
) -> Result<(), TestCaseError> {
    let mut launched: Vec<TaskRef> = Vec::new();
    for c in cmds {
        match c {
            Command::Launch {
                task,
                node,
                speculative,
                ..
            } => {
                prop_assert!(node.index() < cluster.len(), "node out of range");
                if !speculative {
                    prop_assert!(
                        pending.iter().any(|p| p.task == *task),
                        "launched a task that was not pending: {task}"
                    );
                    prop_assert!(
                        !launched.contains(task),
                        "task {task} launched twice in one round"
                    );
                    launched.push(*task);
                }
            }
            Command::KillAndRequeue { node, .. } => {
                prop_assert!(node.index() < cluster.len());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// One offer round never double-launches a task, never targets an
    /// unknown node, and never launches more tasks than are pending.
    #[test]
    fn prop_offer_round_commands_are_valid(
        n_pending in 0usize..60,
        busy in proptest::collection::vec(0usize..12, 12),
        rupam_not_spark in any::<bool>(),
    ) {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app(1, 60);
        let stage = StageId(0);
        let pending = pending_views(&app, stage, n_pending);
        let input = OfferInput {
            now: SimTime::from_secs_f64(10.0),
            cluster: &cluster,
            app: &app,
            nodes: node_views(&cluster, &busy),
            pending: pending.clone(),
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: pending.iter().map(|p| p.task).collect(),
        };
        let cmds = if rupam_not_spark {
            let mut s = RupamScheduler::with_defaults();
            s.on_app_start(&app, &cluster);
            s.on_stage_ready(app.stage(stage), SimTime::ZERO);
            s.offer_round(&input)
        } else {
            let mut s = SparkScheduler::with_defaults();
            s.on_app_start(&app, &cluster);
            s.on_stage_ready(app.stage(stage), SimTime::ZERO);
            s.offer_round(&input)
        };
        check_commands(&cmds, &cluster, &pending)?;
        let regular = cmds
            .iter()
            .filter(|c| matches!(c, Command::Launch { speculative: false, .. }))
            .count();
        prop_assert!(regular <= n_pending);
    }

    /// Stock Spark never exceeds one task per core on any node.
    #[test]
    fn prop_spark_respects_slots(
        n_pending in 0usize..400,
        busy in proptest::collection::vec(0usize..40, 12),
    ) {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app(1, 400);
        let stage = StageId(0);
        let pending = pending_views(&app, stage, n_pending);
        let input = OfferInput {
            now: SimTime::from_secs_f64(10.0),
            cluster: &cluster,
            app: &app,
            nodes: node_views(&cluster, &busy),
            pending_fresh: pending.iter().map(|p| p.task).collect(),
            pending,
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
        };
        let mut s = SparkScheduler::with_defaults();
        s.on_app_start(&app, &cluster);
        s.on_stage_ready(app.stage(stage), SimTime::ZERO);
        let cmds = s.offer_round(&input);
        let mut per_node = busy.clone();
        for c in &cmds {
            if let Command::Launch { node, .. } = c {
                per_node[node.index()] += 1;
            }
        }
        for (i, &n) in per_node.iter().enumerate() {
            let cores = cluster.node(NodeId(i)).cores as usize;
            // nodes that started over-subscribed (busy > cores) must not
            // receive anything new
            if busy[i] >= cores {
                prop_assert_eq!(n, busy[i], "node {} was full but got more work", i);
            } else {
                prop_assert!(n <= cores, "node {} exceeded its {} slots: {}", i, cores, n);
            }
        }
    }

    /// RUPAM stays within its overcommit envelope on every node.
    #[test]
    fn prop_rupam_respects_overcommit(
        n_pending in 0usize..400,
        overcommit in 1.0f64..2.0,
    ) {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app(1, 400);
        let stage = StageId(0);
        let pending = pending_views(&app, stage, n_pending);
        let input = OfferInput {
            now: SimTime::from_secs_f64(10.0),
            cluster: &cluster,
            app: &app,
            nodes: node_views(&cluster, &[]),
            pending_fresh: pending.iter().map(|p| p.task).collect(),
            pending,
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
        };
        let cfg = RupamConfig { overcommit_factor: overcommit, ..RupamConfig::default() };
        let mut s = RupamScheduler::new(cfg);
        s.on_app_start(&app, &cluster);
        s.on_stage_ready(app.stage(stage), SimTime::ZERO);
        let cmds = s.offer_round(&input);
        let mut per_node = vec![0usize; cluster.len()];
        for c in &cmds {
            if let Command::Launch { node, .. } = c {
                per_node[node.index()] += 1;
            }
        }
        for (i, &n) in per_node.iter().enumerate() {
            let cap = (cluster.node(NodeId(i)).cores as f64 * overcommit).ceil() as usize;
            prop_assert!(
                n <= cap,
                "node {i} got {n} > overcommit cap {cap}"
            );
        }
    }

    /// Offer rounds are idempotent on an empty pending set.
    #[test]
    fn prop_empty_pending_yields_no_regular_launches(busy in proptest::collection::vec(0usize..8, 12)) {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app(1, 4);
        let input = OfferInput {
            now: SimTime::from_secs_f64(5.0),
            cluster: &cluster,
            app: &app,
            nodes: node_views(&cluster, &busy),
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        for rupam in [false, true] {
            let cmds = if rupam {
                let mut s = RupamScheduler::with_defaults();
                s.on_app_start(&app, &cluster);
                s.offer_round(&input)
            } else {
                let mut s = SparkScheduler::with_defaults();
                s.on_app_start(&app, &cluster);
                s.offer_round(&input)
            };
            let regular = cmds
                .iter()
                .filter(|c| matches!(c, Command::Launch { speculative: false, .. }))
                .count();
            prop_assert_eq!(regular, 0);
        }
    }
}
