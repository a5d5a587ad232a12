//! Engine behavior tests, driven through the shared fixtures in
//! [`crate::testutil`].

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{AppBuilder, JobId, StageId, StageKind};
use rupam_dag::data::DataLayout;
use rupam_dag::task::{CacheKey, InputSource, TaskDemand};
use rupam_dag::{Locality, TaskRef};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::report::RunReport;
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;
use rupam_simcore::RngFactory;

use crate::config::SimConfig;
use crate::control::ControlPlane;
use crate::scheduler::{Command, OfferInput, Scheduler};
use crate::testutil::{FifoScheduler, GpuFifo, SpecFifo};

use super::driver::Event;
use super::{assemble, simulate, simulate_stream, EngineError, EventBus, SimInput, StreamInput};

fn tiny_app(tasks_per_stage: usize, compute: f64) -> (rupam_dag::app::Application, DataLayout) {
    let mut b = AppBuilder::new("tiny");
    let j = b.begin_job();
    let mk = |n: usize, c: f64, sw: u64, sr: u64| {
        (0..n)
            .map(|i| rupam_dag::task::TaskTemplate {
                index: i,
                input: if sr > 0 {
                    InputSource::Shuffle
                } else {
                    InputSource::Generated
                },
                demand: TaskDemand {
                    compute: c,
                    shuffle_write: ByteSize::mib(sw),
                    shuffle_read: ByteSize::mib(sr),
                    peak_mem: ByteSize::mib(512),
                    ..TaskDemand::default()
                },
            })
            .collect::<Vec<_>>()
    };
    let m = b.add_stage(
        j,
        "map",
        "tiny/map",
        StageKind::ShuffleMap,
        vec![],
        mk(tasks_per_stage, compute, 16, 0),
    );
    b.add_stage(
        j,
        "reduce",
        "tiny/reduce",
        StageKind::Result,
        vec![m],
        mk(2, compute / 2.0, 0, 16),
    );
    (b.build(), DataLayout::new())
}

fn run_tiny(seed: u64) -> RunReport {
    let cluster = ClusterSpec::two_node_motivation();
    let (app, layout) = tiny_app(8, 4.0);
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed,
    };
    let mut sched = FifoScheduler::new();
    simulate(&input, &mut sched)
}

#[test]
fn completes_all_tasks() {
    let report = run_tiny(1);
    assert!(report.completed);
    let successes = report
        .records
        .iter()
        .filter(|r| r.outcome.is_success())
        .count();
    assert_eq!(successes, 10);
    assert!(report.makespan > SimDuration::ZERO);
}

#[test]
fn deterministic_across_runs() {
    let a = run_tiny(42);
    let b = run_tiny(42);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(x.task, y.task);
        assert_eq!(x.node, y.node);
        assert_eq!(x.finished_at, y.finished_at);
    }
}

#[test]
fn respects_ideal_lower_bound() {
    let cluster = ClusterSpec::two_node_motivation();
    let (app, layout) = tiny_app(8, 4.0);
    let lb = rupam_dag::lineage::ideal_lower_bound(&app, &cluster);
    let report = run_tiny(7);
    assert!(
        report.makespan >= lb,
        "makespan {} beats the ideal lower bound {}",
        report.makespan,
        lb
    );
    let _ = layout;
}

#[test]
fn reduce_waits_for_map() {
    let report = run_tiny(3);
    let map_finish = report
        .records
        .iter()
        .filter(|r| r.template_key == "tiny/map" && r.outcome.is_success())
        .map(|r| r.finished_at)
        .max()
        .unwrap();
    let reduce_start = report
        .records
        .iter()
        .filter(|r| r.template_key == "tiny/reduce")
        .map(|r| r.launched_at)
        .min()
        .unwrap();
    assert!(reduce_start >= map_finish, "shuffle dependency violated");
}

#[test]
fn contention_slows_execution() {
    // 1 task vs 32 tasks on a 16-core node: per-task time must grow
    let cluster = ClusterSpec::two_node_motivation();
    let cfg = SimConfig::default();
    let run = |n: usize| {
        let mut b = AppBuilder::new("contend");
        let j = b.begin_job();
        let tasks = (0..n)
            .map(|i| rupam_dag::task::TaskTemplate {
                index: i,
                input: InputSource::Generated,
                demand: TaskDemand {
                    compute: 24.0,
                    peak_mem: ByteSize::mib(64),
                    ..TaskDemand::default()
                },
            })
            .collect();
        b.add_stage(j, "r", "c/r", StageKind::Result, vec![], tasks);
        let app = b.build();
        let layout = DataLayout::new();
        let input = SimInput {
            cluster: &cluster,
            app: &app,
            layout: &layout,
            config: &cfg,
            seed: 5,
        };
        let mut sched = FifoScheduler::new();
        simulate(&input, &mut sched).makespan
    };
    let t1 = run(1);
    let t64 = run(64);
    // 64 tasks over 32 cores (two nodes) => at least 2 waves
    assert!(t64 > t1 * 1.8, "t1={t1} t64={t64}");
}

#[test]
fn oom_fires_on_overcommit() {
    // one node, tasks that together exceed executor memory
    let cluster = ClusterSpec::homogeneous(1);
    let mut cfg = SimConfig::default();
    cfg.mem.oom_prob_slope = 100.0; // make the OOM certain
    let mut b = AppBuilder::new("oom");
    let j = b.begin_job();
    let tasks = (0..8)
        .map(|i| rupam_dag::task::TaskTemplate {
            index: i,
            input: InputSource::Generated,
            demand: TaskDemand {
                compute: 120.0,
                peak_mem: ByteSize::gib(7), // 8 × 7 = 56 > 46 GiB executor
                ..TaskDemand::default()
            },
        })
        .collect();
    b.add_stage(j, "r", "oom/r", StageKind::Result, vec![], tasks);
    let app = b.build();
    let layout = DataLayout::new();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 11,
    };
    let mut sched = FifoScheduler::new();
    let report = simulate(&input, &mut sched);
    assert!(
        report.oom_failures > 0 || report.executor_losses > 0,
        "expected memory failures, got none"
    );
    assert!(report.completed, "should eventually recover and finish");
}

#[test]
fn speculation_rescues_straggler_node() {
    // cluster with one crippled node: tasks stuck there get copies
    let mut nodes = Vec::new();
    for i in 0..3 {
        nodes.push(rupam_cluster::NodeSpec {
            name: format!("n{i}"),
            class: "fast".into(),
            // cripple node 0, and give it only 2 cores so ≥ 75 % of
            // the stage can still finish (Spark's speculation quantile)
            cores: if i == 0 { 2 } else { 4 },
            cpu_ghz: if i == 0 { 0.05 } else { 3.0 },
            mem: ByteSize::gib(32),
            net_bw: 1.25e9,
            disk: rupam_cluster::DiskSpec::sata_ssd(),
            gpus: 0,
            gpu_gcps: 0.0,
            rack: 0,
        });
    }
    let cluster = ClusterSpec::new(nodes);
    let cfg = SimConfig::default();
    let mut b = AppBuilder::new("spec");
    let j = b.begin_job();
    let tasks = (0..12)
        .map(|i| rupam_dag::task::TaskTemplate {
            index: i,
            input: InputSource::Generated,
            demand: TaskDemand {
                compute: 30.0,
                peak_mem: ByteSize::mib(128),
                ..TaskDemand::default()
            },
        })
        .collect();
    b.add_stage(j, "r", "spec/r", StageKind::Result, vec![], tasks);
    let app = b.build();
    let layout = DataLayout::new();

    // FIFO launches 4 tasks onto the crippled node; speculation must
    // eventually re-run them elsewhere (SpecFifo copies onto node 2).
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 2,
    };
    let mut sched = SpecFifo(FifoScheduler::new());
    let report = simulate(&input, &mut sched);
    assert!(report.completed);
    assert!(
        report.speculative_launched > 0,
        "no speculative copies launched"
    );
    assert!(
        report.speculative_wins > 0,
        "copies on fast nodes should win"
    );
    // every task succeeded exactly once
    let mut winners: Vec<TaskRef> = report
        .records
        .iter()
        .filter(|r| r.outcome.is_success())
        .map(|r| r.task)
        .collect();
    winners.sort();
    winners.dedup();
    assert_eq!(winners.len(), 12);
}

#[test]
fn utilization_recorded() {
    let report = run_tiny(9);
    let hist = report
        .monitor
        .history(NodeId(0), rupam_cluster::monitor::MetricKey::CpuUtil);
    assert!(!hist.is_empty(), "cpu history empty");
    // at some point utilisation was positive
    assert!(hist.points().iter().any(|p| p.1 > 0.0));
}

#[test]
fn gpu_task_uses_gpu_when_asked() {
    let mut nodes = vec![rupam_cluster::NodeSpec {
        name: "g0".into(),
        class: "gpu".into(),
        cores: 4,
        cpu_ghz: 1.0,
        mem: ByteSize::gib(32),
        net_bw: 1.25e9,
        disk: rupam_cluster::DiskSpec::sata_ssd(),
        gpus: 1,
        gpu_gcps: 20.0,
        rack: 0,
    }];
    nodes.push(nodes[0].clone());
    nodes[1].name = "g1".into();
    let cluster = ClusterSpec::new(nodes);
    let cfg = SimConfig::default();
    let mut b = AppBuilder::new("gpu");
    let j = b.begin_job();
    b.add_stage(
        j,
        "r",
        "gpu/r",
        StageKind::Result,
        vec![],
        vec![rupam_dag::task::TaskTemplate {
            index: 0,
            input: InputSource::Generated,
            demand: TaskDemand {
                compute: 40.0,
                gpu_kernels: 40.0,
                peak_mem: ByteSize::mib(128),
                ..TaskDemand::default()
            },
        }],
    );
    let app = b.build();
    let layout = DataLayout::new();

    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 1,
    };
    let mut sched = GpuFifo;
    let report = simulate(&input, &mut sched);
    assert!(report.completed);
    assert_eq!(report.gpu_task_count(), 1);
    // 40 Gcycles at 20 Gc/s on GPU ≈ 2 s; on the 1 GHz CPU it would be 40 s
    assert!(
        report.makespan < SimDuration::from_secs(10),
        "GPU not used: {}",
        report.makespan
    );
}

#[test]
fn stream_jobs_wait_for_arrival_and_report_jcts() {
    let cluster = ClusterSpec::two_node_motivation();
    let cfg = SimConfig::default();
    let mut stream = rupam_dag::JobStream::new();
    for (i, arrival) in [0.0f64, 30.0].into_iter().enumerate() {
        let (app, layout) = tiny_app(4, 4.0);
        stream.push(
            format!("tenant-{i}"),
            app,
            layout,
            SimTime::from_secs_f64(arrival),
        );
    }
    let merged = stream.merge();
    let input = StreamInput {
        cluster: &cluster,
        stream: &merged,
        config: &cfg,
        seed: 21,
    };
    let mut sched = FifoScheduler::new();
    let report = simulate_stream(&input, &mut sched);
    assert!(report.completed);
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.jobs[1].submitted_at, SimTime::from_secs_f64(30.0));
    for j in &report.jobs {
        assert!(j.completed_at.is_some(), "job {:?} never finished", j.job);
    }
    // nothing of the late tenant may launch before it arrives
    let early = report
        .records
        .iter()
        .filter(|r| r.job == JobId(1))
        .map(|r| r.launched_at)
        .min()
        .unwrap();
    assert!(early >= SimTime::from_secs_f64(30.0));
    // JCTs are per job, not makespan: job 0 finished long before t=30
    let jct0 = report.jobs[0].jct().unwrap();
    assert!(jct0 < SimDuration::from_secs(30), "jct0 = {jct0}");
    assert!(report.jct_mean() > 0.0);
}

#[test]
fn single_app_run_reports_one_job() {
    let report = run_tiny(6);
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.jobs[0].submitted_at, SimTime::ZERO);
    assert_eq!(
        report.jobs[0].completed_at,
        Some(SimTime::ZERO + report.makespan)
    );
    assert!(report.records.iter().all(|r| r.job == JobId(0)));
}

/// A scheduler that refuses every placement — the degenerate policy the
/// calendar-exhaustion path needs.
struct RefuseAll;

impl Scheduler for RefuseAll {
    fn name(&self) -> &str {
        "refuse-all"
    }
    fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
        c.node(n).mem
    }
    fn offer_round(&mut self, _input: &OfferInput<'_>) -> Vec<Command> {
        Vec::new()
    }
}

#[test]
fn exhausted_calendar_is_a_typed_error_not_a_panic() {
    // nothing running (the scheduler refuses all offers), calendar
    // force-drained, stages incomplete: the loop must return the typed
    // error instead of panicking on the empty pop
    let cluster = ClusterSpec::two_node_motivation();
    let (app, layout) = tiny_app(4, 4.0);
    let cfg = SimConfig::with_faults(rupam_faults::FaultScript::one_node_crash(
        NodeId(0),
        1.0,
        None,
    ));
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 13,
    };
    let mut sched = RefuseAll;
    let mut sim = assemble(&input, None, &mut sched, EventBus::new());
    sim.prologue();
    sim.source.clear();
    let err = sim
        .main_loop()
        .expect_err("an empty calendar with pending stages cannot succeed");
    let EngineError::CalendarExhausted { at } = err else {
        panic!("expected CalendarExhausted, got {err}");
    };
    assert_eq!(at, SimTime::ZERO);
    assert!(!err.to_string().is_empty());
}

#[test]
fn engine_errors_propagate_through_thread_and_channel_boundaries() {
    // serve mode moves `EngineError`s between threads as boxed
    // `std::error::Error`s; pin the trait bounds that make that legal
    fn assert_send_sync_error<E: std::error::Error + Send + Sync + 'static>(_: &E) {}
    let err = EngineError::SourceDisconnected { at: SimTime(7) };
    assert_send_sync_error(&err);
    let (tx, rx) = std::sync::mpsc::channel::<Box<dyn std::error::Error + Send + Sync>>();
    std::thread::spawn(move || tx.send(Box::new(err) as _).unwrap())
        .join()
        .unwrap();
    let boxed = rx.recv().unwrap();
    assert!(boxed.to_string().contains("disconnected"));
    let concrete = boxed
        .downcast_ref::<EngineError>()
        .expect("downcast back to EngineError");
    assert_eq!(
        *concrete,
        EngineError::SourceDisconnected { at: SimTime(7) }
    );
}

#[test]
fn run_with_refusing_scheduler_ends_gracefully() {
    // the full public path: a scheduler that never places anything hits
    // the livelock guard and the run reports `completed: false` — no
    // panic anywhere between the first offer and the final report
    let cluster = ClusterSpec::two_node_motivation();
    let (app, layout) = tiny_app(4, 4.0);
    let cfg = SimConfig::with_faults(rupam_faults::FaultScript::one_node_crash(
        NodeId(0),
        1.0,
        None,
    ));
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 17,
    };
    let mut sched = RefuseAll;
    let report = simulate(&input, &mut sched);
    assert!(!report.completed);
    assert!(report.records.iter().all(|r| !r.outcome.is_success()));
}

#[test]
fn cache_hit_upgrades_locality() {
    let cluster = ClusterSpec::homogeneous(2);
    let cfg = SimConfig::default();
    let mut rng = RngFactory::new(4).stream("layout");
    let mut layout = DataLayout::new();
    let blocks = layout.place_blocks(&cluster, &[ByteSize::mib(128); 2], 1, &mut rng);
    let mut b = AppBuilder::new("cache");
    let mk_tasks = |blocks: &[rupam_dag::BlockId]| {
        blocks
            .iter()
            .enumerate()
            .map(|(i, blk)| rupam_dag::task::TaskTemplate {
                index: i,
                input: InputSource::CachedOrHdfs {
                    key: CacheKey::new("cache/data", i),
                    fallback: *blk,
                },
                demand: TaskDemand {
                    compute: 2.0,
                    input_bytes: ByteSize::mib(128),
                    peak_mem: ByteSize::mib(256),
                    cached_bytes: ByteSize::mib(160),
                    ..TaskDemand::default()
                },
            })
            .collect::<Vec<_>>()
    };
    // two identical jobs over the same cacheable RDD
    for _ in 0..2 {
        let j = b.begin_job();
        b.add_stage(
            j,
            "scan",
            "cache/data",
            StageKind::Result,
            vec![],
            mk_tasks(&blocks),
        );
    }
    let app = b.build();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 8,
    };
    let mut sched = FifoScheduler::new();
    let report = simulate(&input, &mut sched);
    assert!(report.completed);
    let first_job: Vec<&TaskRecord> = report
        .records
        .iter()
        .filter(|r| r.task.stage == StageId(0) && r.outcome.is_success())
        .collect();
    let second_job: Vec<&TaskRecord> = report
        .records
        .iter()
        .filter(|r| r.task.stage == StageId(1) && r.outcome.is_success())
        .collect();
    assert!(first_job
        .iter()
        .all(|r| r.locality != Locality::ProcessLocal));
    // FIFO places tasks deterministically on node 0 first; the cached
    // copies live where the first job ran, so at least one second-job
    // task should hit the cache.
    assert!(
        second_job
            .iter()
            .any(|r| r.locality == Locality::ProcessLocal),
        "no cache hits in second job: {:?}",
        second_job.iter().map(|r| r.locality).collect::<Vec<_>>()
    );
}

/// Runs one task at a time per node: task `i` of every stage on node
/// `i % 2`, any retry on node 0. Everything else waits pending.
struct Trickle;

impl Scheduler for Trickle {
    fn name(&self) -> &str {
        "trickle"
    }
    fn executor_memory(&self, _: &ClusterSpec, n: NodeId) -> ByteSize {
        // a small executor on node 1: its cache holds one partition,
        // and an oversized task there kills the whole executor
        [ByteSize::gib(40), ByteSize::gib(8)][n.index()]
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let mut busy: Vec<bool> = (input.nodes.iter())
            .map(|v| v.blocked || !v.running.is_empty())
            .collect();
        let mut cmds = Vec::new();
        for p in &input.pending {
            let n = if p.attempt_no > 0 {
                0
            } else {
                p.task.index % 2
            };
            if !busy[n] {
                busy[n] = true;
                cmds.push(Command::Launch {
                    task: p.task,
                    node: NodeId(n),
                    use_gpu: false,
                    speculative: false,
                    reason: rupam_metrics::trace::LaunchReason::FifoSlot,
                });
            }
        }
        cmds
    }
}

/// Executor-cache changes reach the views of pending tasks that read the
/// changed partitions: a producer stage caches partitions while a reader
/// stage waits pending, node 1's one-partition cache evicts on every
/// insert, an oversized producer kills node 1's executor, and a crash
/// wipes node 0. In debug builds every offer round checks each pending
/// view's `process_nodes` against the caches.
#[test]
fn cache_changes_refresh_pending_readers() {
    let cluster = ClusterSpec::homogeneous(2);
    let mut rng = RngFactory::new(4).stream("layout");
    let mut layout = DataLayout::new();
    let blocks = layout.place_blocks(&cluster, &[ByteSize::mib(128); 6], 1, &mut rng);
    let demand = |peak_gib: u64, cached_gib: u64| TaskDemand {
        compute: 2.0 * peak_gib as f64,
        input_bytes: ByteSize::mib(128),
        peak_mem: ByteSize::gib(peak_gib),
        cached_bytes: ByteSize::gib(cached_gib),
        ..TaskDemand::default()
    };
    let mut b = AppBuilder::new("cache-churn");
    let j = b.begin_job();
    // producers: each caches a 3 GiB partition; the last one (node 1)
    // needs 12 GiB and kills the 8 GiB executor there
    let produce = (0..6)
        .map(|i| rupam_dag::task::TaskTemplate {
            index: i,
            input: InputSource::Generated,
            demand: demand(if i == 5 { 12 } else { 1 }, 3),
        })
        .collect();
    b.add_stage(
        j,
        "produce",
        "cache/data",
        StageKind::ShuffleMap,
        vec![],
        produce,
    );
    // readers of those partitions, released at the start alongside
    let read = (blocks.iter().enumerate())
        .map(|(i, blk)| rupam_dag::task::TaskTemplate {
            index: i,
            input: InputSource::CachedOrHdfs {
                key: CacheKey::new("cache/data", i),
                fallback: *blk,
            },
            demand: demand(1, 0),
        })
        .collect();
    b.add_stage(j, "read", "cache/read", StageKind::Result, vec![], read);
    let app = b.build();
    let script = rupam_faults::FaultScript::parse_toml(
        "[[fault]]\nat = 5\nnode = 0\nkind = \"crash\"\n\n\
         [[fault]]\nat = 6\nnode = 0\nkind = \"restart\"\n",
    )
    .expect("script parses");
    let cfg = SimConfig::with_faults(script);
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 3,
    };
    let report = simulate(&input, &mut Trickle);
    assert!(report.completed);
    assert!(report.executor_losses > 0);
    assert_eq!(report.faults.crashes, 1);
}

/// Launches every pending task on the last node and, in the same round,
/// a speculative copy of it on node 0: on identical nodes the two
/// attempts finish in the same microsecond.
struct CopyOnFirstNode;

impl Scheduler for CopyOnFirstNode {
    fn name(&self) -> &str {
        "copy-on-first-node"
    }
    fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
        c.node(n).mem
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let last = NodeId(input.nodes.len() - 1);
        let launch = |task, node, speculative| Command::Launch {
            task,
            node,
            use_gpu: false,
            speculative,
            reason: rupam_metrics::trace::LaunchReason::FifoSlot,
        };
        (input.pending.iter())
            .flat_map(|p| [launch(p.task, last, false), launch(p.task, NodeId(0), true)])
            .collect()
    }
}

/// Same-instant completions resolve in attempt-id (launch) order, not
/// node order: the original (lower attempt id, higher node index) wins
/// and its copy on node 0 is recorded `LostRace`.
#[test]
fn same_instant_race_resolves_in_launch_order() {
    let cluster = ClusterSpec::homogeneous(2);
    let mut b = AppBuilder::new("race");
    let j = b.begin_job();
    let task = rupam_dag::task::TaskTemplate {
        index: 0,
        input: InputSource::Generated,
        demand: TaskDemand {
            compute: 4.0,
            peak_mem: ByteSize::mib(256),
            ..TaskDemand::default()
        },
    };
    b.add_stage(j, "r", "race/r", StageKind::Result, vec![], vec![task]);
    let app = b.build();
    let layout = DataLayout::new();
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 2,
    };
    let report = simulate(&input, &mut CopyOnFirstNode);
    assert!(report.completed);
    let [original, copy] = [false, true].map(|spec| {
        (report.records.iter())
            .find(|r| r.speculative == spec)
            .expect("both attempts are recorded")
    });
    assert_eq!(
        original.finished_at, copy.finished_at,
        "the fixture must produce a same-instant finish"
    );
    assert_eq!(original.node, NodeId(1));
    assert_eq!(copy.node, NodeId(0));
    assert_eq!(original.outcome, AttemptOutcome::Success);
    assert_eq!(copy.outcome, AttemptOutcome::LostRace);
}

/// [`FifoScheduler`] that records the peak hint of every pending view
/// past its task's first attempt.
struct HintFifo(FifoScheduler, Vec<ByteSize>);

impl Scheduler for HintFifo {
    fn name(&self) -> &str {
        "hint-fifo"
    }
    fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
        self.0.executor_memory(c, n)
    }
    fn on_app_start(&mut self, a: &rupam_dag::app::Application, c: &ClusterSpec) {
        self.0.on_app_start(a, c);
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let retried = input.pending.iter().filter(|p| p.attempt_no > 0);
        self.1.extend(retried.map(|p| p.peak_mem_hint));
        self.0.offer_round(input)
    }
}

#[test]
fn crash_recovery_resolves_every_kill_and_keeps_peak_hints() {
    // one crash, no restart, while the reducers run (the maps are done
    // and node 0 holds their outputs): every attempt it kills and every
    // map task whose output it takes owes a recovery, which the
    // completed run resolves once each; every task offered again carries
    // the peak its last attempt reached, whether that attempt was killed
    // or had won
    let cluster = ClusterSpec::homogeneous(4);
    let (app, layout) = tiny_app(12, 8.0);
    let cfg = SimConfig::with_faults(rupam_faults::FaultScript::one_node_crash(
        NodeId(0),
        7.5,
        None,
    ));
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 3,
    };
    let mut sched = HintFifo(FifoScheduler::new(), Vec::new());
    let report = simulate(&input, &mut sched);
    assert!(report.completed);
    let f = &report.faults;
    assert!(f.tasks_killed > 0 && f.map_outputs_recomputed > 0, "{f:?}");
    assert_eq!(
        f.recoveries,
        f.tasks_killed + f.map_outputs_recomputed,
        "{f:?}"
    );
    assert!(!sched.1.is_empty());
    assert!(
        sched.1.iter().all(|&h| h == ByteSize::mib(512)),
        "{:?}",
        sched.1
    );
}

/// A drain notice cancelled by node loss does not reclaim the node when
/// its old deadline comes, even once the node is back; a notice reissued
/// after the node came back reclaims it once, at the new deadline. Both
/// nodes are noticed at 1 s (2 s window), crash at 2 s and restart at
/// 2.5 s; node 1 is noticed again then (4 s window). The stale timers
/// pop at 3 s, node 1's live one at 6.5 s.
#[test]
fn a_reissued_drain_notice_reclaims_once_at_its_own_deadline() {
    let cluster = ClusterSpec::homogeneous(2);
    let (app, layout) = tiny_app(2, 4.0);
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 5,
    };
    let mut sched = RefuseAll;
    let mut sim = assemble(&input, None, &mut sched, EventBus::new());
    let nodes = [NodeId(0), NodeId(1)];
    let at = |secs| SimTime::from_secs_f64(secs);
    sim.now = at(1.0);
    for node in nodes {
        ControlPlane::drain_notice(&mut sim, node, 2.0);
    }
    sim.now = at(2.0);
    for node in nodes {
        sim.state.nodes[node.index()].crashed = true;
        ControlPlane::node_lost(&mut sim, node);
    }
    sim.now = at(2.5);
    for node in nodes {
        sim.state.nodes[node.index()].crashed = false;
    }
    ControlPlane::drain_notice(&mut sim, NodeId(1), 4.0);
    let mut reclaimed = Vec::new();
    while let Some((t, ev)) = sim.source.pop() {
        sim.now = t;
        if let Event::PreemptFire { node } = ev {
            sim.preempt_fire(node);
            // an on-demand node's reclaim leaves it crashed
            if std::mem::take(&mut sim.state.nodes[node.index()].crashed) {
                reclaimed.push((node, t));
            }
        }
    }
    assert_eq!(reclaimed, vec![(NodeId(1), at(6.5))]);
    assert!(nodes.iter().all(|&n| !sim.ctl.fleet().draining(n)));
}

/// A spot node the controller provisions joins the fleet at once but is
/// blocked to the scheduler until its provisioning latency has passed.
/// The first check (t = 0, backlog from a scheduler that launches
/// nothing) provisions spot node 1 with a 5 s latency.
#[test]
fn a_provisioned_node_accepts_work_after_its_latency() {
    use crate::offer_state::OfferHost;
    use rupam_elastic::{ElasticConfig, SpotPolicy};

    let cluster = ClusterSpec::homogeneous(2);
    let (app, layout) = tiny_app(2, 4.0);
    let mut elastic = ElasticConfig::spot_tail(2, 1, SpotPolicy::Greedy);
    elastic.scale_up_backlog = 0.0;
    elastic.provision_secs = 5.0;
    elastic.pools[0].preempt_base = 0.0;
    elastic.pools[0].preempt_slope = 0.0;
    let cfg = SimConfig {
        elastic,
        ..SimConfig::default()
    };
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 5,
    };
    let mut sched = RefuseAll;
    let mut sim = assemble(&input, None, &mut sched, EventBus::new());
    sim.prologue();
    let spot = NodeId(1);
    assert!(OfferHost::node_view(&sim, spot).blocked);
    ControlPlane::controller_check(&mut sim);
    assert!(sim.ctl.fleet().provisioned(spot));
    let blocked_at = |sim: &mut super::driver::Engine<'_, '_>, secs| {
        sim.now = SimTime::from_secs_f64(secs);
        OfferHost::node_view(&*sim, spot).blocked
    };
    assert!(blocked_at(&mut sim, 0.0));
    assert!(blocked_at(&mut sim, 4.9));
    assert!(!blocked_at(&mut sim, 5.0));
}

/// A drain notice served to a node that is already down (a scripted
/// preemption of a crashed node) still reclaims it when due, so the node
/// is back in service once a restart revives it.
#[test]
fn a_drain_notice_on_a_crashed_node_does_not_outlive_its_restart() {
    let cluster = ClusterSpec::homogeneous(2);
    let (app, layout) = tiny_app(2, 4.0);
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 5,
    };
    let mut sched = RefuseAll;
    let mut sim = assemble(&input, None, &mut sched, EventBus::new());
    let node = NodeId(1);
    sim.now = SimTime::from_secs_f64(1.0);
    sim.state.nodes[1].crashed = true;
    ControlPlane::node_lost(&mut sim, node);
    sim.now = SimTime::from_secs_f64(1.5);
    ControlPlane::drain_notice(&mut sim, node, 1.0);
    let (t, ev) = sim.source.pop().expect("the notice's timer");
    assert_eq!(t, SimTime::from_secs_f64(2.5));
    let Event::PreemptFire { node } = ev else {
        panic!("expected a PreemptFire, got {ev:?}");
    };
    sim.now = t;
    sim.preempt_fire(node);
    sim.now = SimTime::from_secs_f64(3.0);
    sim.state.nodes[1].crashed = false;
    assert!(!sim.ctl.fleet().draining(node));
    assert!(!crate::offer_state::OfferHost::node_view(&sim, node).blocked);
}
