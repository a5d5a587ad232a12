//! The control rules serve shares with the sim engine: the
//! `KillReason → AttemptOutcome` map, the retry-exhaustion test,
//! node-loss requeues counting against the retry limit, a failed
//! attempt's peak feeding the task's hint, node loss cancelling a
//! preemption notice, a job being submitted once, and the shared offer
//! state's dirty marks: price steps refresh every provisioned spot
//! node's view, and worker reports refresh idle nodes' views. One test
//! pins the fleet paths — detector transitions and re-admission, the
//! lineage re-pend, spot provisioning, idle scale-down and drain
//! reclaims — to a single replay digest.
//!
//! All but one test drive the serve driver through [`replay`] over a
//! hand-written input log and a stub scheduler, so every decision is
//! exact; the retry test runs live worker agents under an all-OOM fault
//! script and compares against the sim engine on the same limit.

use std::sync::Arc;
use std::time::Duration;

use rupam::{RupamConfig, RupamScheduler};
use rupam_cluster::{ClusterSpec, NodeId, NodeTier};
use rupam_dag::app::{JobId, StageId};
use rupam_dag::TaskRef;
use rupam_elastic::{ElasticConfig, SpotPolicy};
use rupam_exec::scheduler::{Command, KillReason, OfferInput, Scheduler};
use rupam_exec::{simulate_stream, SimConfig, StreamInput};
use rupam_faults::FaultScript;
use rupam_metrics::record::AttemptOutcome;
use rupam_metrics::trace::{AbortCause, LaunchReason};
use rupam_serve::proto::Frame;
use rupam_serve::testbed::{build_fleet, pressure_stream};
use rupam_serve::{
    replay, server, ClientRequest, ServeConfig, ServeEvent, TaskFailure, WorkerMsg, WorkerReport,
};
use rupam_simcore::time::SimDuration;
use rupam_simcore::units::ByteSize;
use rupam_simcore::SimTime;

/// Launches every pending task on the first unblocked node and, when
/// `kill` is set, kills the first running attempt it sees once, for
/// that reason. Records every failure outcome it is told about.
struct Stub {
    kill: Option<KillReason>,
    failures: Vec<AttemptOutcome>,
}

impl Stub {
    fn new(kill: Option<KillReason>) -> Self {
        Stub {
            kill,
            failures: Vec::new(),
        }
    }
}

impl Scheduler for Stub {
    fn name(&self) -> &str {
        "stub"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn on_task_failed(
        &mut self,
        _task: TaskRef,
        _node: NodeId,
        outcome: AttemptOutcome,
        _now: SimTime,
    ) {
        self.failures.push(outcome);
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        if let Some(reason) = self.kill {
            if let Some(view) = input.nodes.iter().find(|v| !v.running.is_empty()) {
                self.kill = None;
                return vec![Command::KillAndRequeue {
                    task: view.running[0].task,
                    node: view.node,
                    reason,
                }];
            }
        }
        let Some(node) = input.nodes.iter().find(|v| !v.blocked) else {
            return Vec::new();
        };
        input
            .pending
            .iter()
            .map(|p| Command::Launch {
                task: p.task,
                node: node.node,
                use_gpu: false,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            })
            .collect()
    }
}

const TASK: TaskRef = TaskRef {
    stage: rupam_dag::app::StageId(0),
    index: 0,
};

fn worker(at: u64, node: usize, body: WorkerReport) -> (SimTime, ServeEvent) {
    (
        SimTime(at),
        ServeEvent::Worker(WorkerMsg {
            worker: NodeId(node),
            frame: Frame { seq: at, body },
        }),
    )
}

fn client(at: u64, body: ClientRequest) -> (SimTime, ServeEvent) {
    (SimTime(at), ServeEvent::Client(Frame { seq: at, body }))
}

/// A quota kill reaches the scheduler as `QuotaPreempted`, not as a
/// memory-straggler kill (which would feed the TM's memory-failure
/// statistics).
#[test]
fn quota_kill_is_reported_as_quota_preempted() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);
    let cfg = ServeConfig::default();
    // times are µs: registration, submit (round at 2 ms launches the
    // task on node 0), a second registration whose round issues the
    // kill, the worker's confirmation, then the relaunch completes
    let log = vec![
        worker(0, 0, WorkerReport::Register),
        client(10, ClientRequest::Submit { job: JobId(0) }),
        worker(5_000, 1, WorkerReport::Register),
        worker(
            6_000,
            0,
            WorkerReport::Failed {
                task: TASK,
                attempt: 0,
                reason: TaskFailure::Preempted,
            },
        ),
        worker(
            8_000,
            0,
            WorkerReport::Completed {
                task: TASK,
                attempt: 1,
            },
        ),
        client(9_000, ClientRequest::Drain),
    ];
    let mut stub = Stub::new(Some(KillReason::QuotaPreempt));
    let report = replay(&cluster, &catalog, &mut stub, &cfg, &log).expect("replay runs");
    assert_eq!(stub.failures, vec![AttemptOutcome::QuotaPreempted]);
    assert!(report.clean, "{report:?}");
}

/// With `max_retries = 0`, losing the node a task runs on exhausts the
/// task's retries, exactly as a node-fault kill does in the engine.
#[test]
fn node_loss_requeue_counts_against_the_retry_limit() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);
    let mut cfg = ServeConfig::default();
    cfg.sim.mem.max_retries = 0;
    cfg.sim.faults.suspect_after = SimDuration(1_000);
    cfg.sim.faults.dead_after = SimDuration(3_000);
    // node 0 runs the task and falls silent; node 1 keeps beaconing, so
    // the first tick (20 ms) declares only node 0 dead
    let log = vec![
        worker(0, 0, WorkerReport::Register),
        worker(0, 1, WorkerReport::Register),
        client(10, ClientRequest::Submit { job: JobId(0) }),
        worker(
            19_000,
            1,
            WorkerReport::Heartbeat {
                net_util: 0.0,
                disk_util: 0.0,
            },
        ),
        client(19_500, ClientRequest::Drain),
    ];
    let mut stub = Stub::new(None);
    let report = replay(&cluster, &catalog, &mut stub, &cfg, &log).expect("replay runs");
    assert_eq!(stub.failures, vec![AttemptOutcome::NodeFaulted]);
    assert_eq!(
        report.abort,
        Some(AbortCause::RetriesExhausted),
        "{report:?}"
    );
    assert_eq!(report.failed, 1);
}

/// Launches every pending task on node 0 and records the
/// `(attempt_no, peak_mem_hint)` every round shows for each pending
/// task.
#[derive(Default)]
struct HintProbe(Vec<(u32, ByteSize)>);

impl Scheduler for HintProbe {
    fn name(&self) -> &str {
        "hint-probe"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        (self.0).extend(
            input
                .pending
                .iter()
                .map(|p| (p.attempt_no, p.peak_mem_hint)),
        );
        (input.pending.iter())
            .map(|p| Command::Launch {
                task: p.task,
                node: NodeId(0),
                use_gpu: false,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            })
            .collect()
    }
}

/// A task whose first attempt OOMs before any attempt finished is
/// re-offered with the failed attempt's peak as its hint, as the engine
/// does: the failure path records the peak, not only the win path. Its
/// dispatch latencies run from its stage's release and from its re-pend.
#[test]
fn failed_attempt_feeds_the_peak_hint() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);
    let cfg = ServeConfig::default();
    // the round at 2 ms launches attempt 0, which OOMs at 3 ms; the
    // round at 4 ms relaunches the task as attempt 1, which completes
    let log = vec![
        worker(0, 0, WorkerReport::Register),
        client(10, ClientRequest::Submit { job: JobId(0) }),
        worker(
            3_000,
            0,
            WorkerReport::Failed {
                task: TASK,
                attempt: 0,
                reason: TaskFailure::Oom,
            },
        ),
        worker(
            8_000,
            0,
            WorkerReport::Completed {
                task: TASK,
                attempt: 1,
            },
        ),
        client(9_000, ClientRequest::Drain),
    ];
    let mut probe = HintProbe::default();
    let report = replay(&cluster, &catalog, &mut probe, &cfg, &log).expect("replay runs");
    assert!(report.clean, "{report:?}");
    let peak = catalog.app.stages[0].tasks[0].demand.peak_mem;
    assert!(peak > ByteSize::ZERO);
    assert_eq!(probe.0, vec![(0, ByteSize::ZERO), (1, peak)]);
    // released at 10 µs, launched at 2 ms; re-pended at 3 ms, launched
    // at 4 ms: latencies 1,990 and 1,000 µs
    assert_eq!(
        (report.dispatch_p50_us, report.dispatch_p99_us),
        (1_495, 1_980)
    );
}

/// A draining spot node that the failure detector declares dead is lost
/// once: node loss cancels its preemption notice (as the engine's does),
/// so the notice's deadline reclaims nothing. Spot node 7 is provisioned
/// and served a notice at the first check (1 ms, 20 ms window), falls
/// silent after registering, and is declared dead at 4 ms.
#[test]
fn node_loss_cancels_a_preemption_notice() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);
    let mut elastic = ElasticConfig::spot_tail(8, 1, SpotPolicy::Greedy);
    elastic.check_secs = 1.0;
    elastic.scale_up_backlog = 0.0;
    elastic.scale_down_idle_secs = 1e5;
    elastic.pools[0].preempt_base = 1.0;
    elastic.pools[0].preempt_slope = 0.0;
    elastic.pools[0].notice_secs = 20.0;
    let mut cfg = ServeConfig {
        tick: Duration::from_millis(1),
        max_wall: Some(Duration::from_millis(30)),
        ..ServeConfig::default()
    };
    cfg.sim.elastic = elastic;
    cfg.sim.faults.suspect_after = SimDuration(2_000);
    cfg.sim.faults.dead_after = SimDuration(4_000);
    let mut log: Vec<(SimTime, ServeEvent)> = (0..8)
        .map(|n| worker(0, n, WorkerReport::Register))
        .collect();
    log.push(client(10, ClientRequest::Submit { job: JobId(0) }));
    for at in (500..30_000).step_by(500) {
        for node in 0..7 {
            log.push(worker(
                at,
                node,
                WorkerReport::Heartbeat {
                    net_util: 0.0,
                    disk_util: 0.0,
                },
            ));
        }
    }
    log.sort_by_key(|(at, _)| *at);
    let mut stub = Stub::new(None);
    let report = replay(&cluster, &catalog, &mut stub, &cfg, &log).expect("replay runs");
    assert_eq!(report.provisions, 1, "{report:?}");
    assert_eq!(report.preemptions, 0, "{report:?}");
}

/// An OOM on every attempt: serve and the engine both give up after
/// `max_retries + 1` failed attempts.
#[test]
fn retry_limit_matches_the_engine() {
    const MAX_RETRIES: u32 = 2;
    let script = FaultScript::parse_toml(
        &(0..8)
            .map(|n| {
                format!(
                    "[[fault]]\nat = 0\nnode = {n}\nkind = \"flaky-oom\"\nsecs = 100000\nprob = 1.0\n"
                )
            })
            .collect::<String>(),
    )
    .expect("script parses");
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);

    let mut sim_cfg = SimConfig::with_faults(script.clone());
    sim_cfg.mem.max_retries = MAX_RETRIES;
    let mut sched = RupamScheduler::new(RupamConfig::default());
    let sim = simulate_stream(
        &StreamInput {
            cluster: &cluster,
            stream: &catalog,
            config: &sim_cfg,
            seed: 7,
        },
        &mut sched,
    );
    let sim_failed = sim
        .records
        .iter()
        .filter(|r| r.outcome == AttemptOutcome::OomFailure)
        .count();
    assert!(!sim.completed);
    assert_eq!(sim_failed, MAX_RETRIES as usize + 1);

    let mut cfg = ServeConfig {
        time_scale: 0.002,
        max_wall: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    };
    cfg.sim.mem.max_retries = MAX_RETRIES;
    let handle = server::start(
        Arc::new(cluster),
        Arc::new(catalog),
        Box::new(RupamScheduler::new(RupamConfig::default())),
        cfg,
        &script,
    );
    let mut c = handle.client.clone();
    c.submit(JobId(0)).expect("submit");
    c.drain().expect("drain");
    drop(c);
    let out = handle.wait().expect("serve run");
    assert_eq!(
        out.report.abort,
        Some(AbortCause::RetriesExhausted),
        "{:?}",
        out.report
    );
    assert_eq!(out.report.failed as usize, sim_failed);
}

/// Counts the job submissions the scheduler hears of; launches nothing.
#[derive(Default)]
struct SubmitProbe(Vec<JobId>);

impl Scheduler for SubmitProbe {
    fn name(&self) -> &str {
        "submit-probe"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn on_job_submitted(&mut self, job: JobId, _stages: &[StageId], _now: SimTime) {
        self.0.push(job);
    }

    fn offer_round(&mut self, _input: &OfferInput<'_>) -> Vec<Command> {
        Vec::new()
    }
}

/// A job is submitted once: a repeated submission (and one naming a job
/// the catalog lacks) is ignored like a malformed RPC.
#[test]
fn repeated_submission_is_ignored() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(2, 1);
    let cfg = ServeConfig::default();
    let log = vec![
        worker(0, 0, WorkerReport::Register),
        client(10, ClientRequest::Submit { job: JobId(1) }),
        client(20, ClientRequest::Submit { job: JobId(1) }),
        client(30, ClientRequest::Submit { job: JobId(7) }),
        client(40, ClientRequest::Drain),
    ];
    let mut probe = SubmitProbe::default();
    let report = replay(&cluster, &catalog, &mut probe, &cfg, &log).expect("replay runs");
    assert_eq!(probe.0, vec![JobId(1)]);
    assert_eq!(report.jobs_submitted, 1);
}

/// Launches one task on `busy` once it is unblocked and nothing else,
/// and records the `preempt_risk` every round shows for each unblocked
/// spot node.
struct RiskProbe {
    busy: NodeId,
    launched: bool,
    /// Per round: `(node, preempt_risk)` of every unblocked spot node.
    rounds: Vec<Vec<(NodeId, f64)>>,
}

impl Scheduler for RiskProbe {
    fn name(&self) -> &str {
        "risk-probe"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        self.rounds.push(
            (input.nodes.iter())
                .filter(|v| v.tier == NodeTier::Spot && !v.blocked)
                .map(|v| (v.node, v.preempt_risk))
                .collect(),
        );
        match input.pending.first() {
            Some(p) if !self.launched && !input.nodes[self.busy.index()].blocked => {
                self.launched = true;
                vec![Command::Launch {
                    task: p.task,
                    node: self.busy,
                    use_gpu: false,
                    speculative: false,
                    reason: LaunchReason::FifoSlot,
                }]
            }
            _ => Vec::new(),
        }
    }
}

/// A controller price step moves the preemption risk of every
/// provisioned spot node, idle ones included, so every round shows one
/// risk for all unblocked nodes of the pool. The spot tail (nodes 8–11)
/// is provisioned on backlog; node 11 runs a task that never finishes
/// (its view is rebuilt every round), nodes 8–10 sit idle, and a
/// re-registering on-demand worker triggers a round every 500 µs.
#[test]
fn price_steps_refresh_idle_spot_views() {
    let cluster = build_fleet(12);
    let catalog = pressure_stream(8, 30);
    let mut elastic = ElasticConfig::spot_tail(12, 4, SpotPolicy::Greedy);
    elastic.check_secs = 0.5;
    elastic.scale_up_backlog = 0.0;
    elastic.scale_down_idle_secs = 1e5;
    elastic.pools[0].preempt_base = 0.0;
    elastic.pools[0].preempt_slope = 0.02;
    elastic.pools[0].volatility = 0.5;
    // a check (and a price step) every 1 ms tick
    let mut cfg = ServeConfig {
        tick: Duration::from_millis(1),
        time_scale: 0.002,
        max_wall: Some(Duration::from_millis(60)),
        ..ServeConfig::default()
    };
    cfg.sim.elastic = elastic;
    let mut log: Vec<(SimTime, ServeEvent)> = (0..12)
        .map(|n| worker(0, n, WorkerReport::Register))
        .collect();
    log.extend((0..8).map(|j| {
        client(
            10 + j,
            ClientRequest::Submit {
                job: JobId(j as usize),
            },
        )
    }));
    log.extend((1..100).map(|i| worker(i * 500 + 250, 0, WorkerReport::Register)));
    let mut probe = RiskProbe {
        busy: NodeId(11),
        launched: false,
        rounds: Vec::new(),
    };
    replay(&cluster, &catalog, &mut probe, &cfg, &log).expect("replay runs");

    assert!(probe.launched, "the spot tail was never provisioned");
    let mut risks: Vec<u64> = Vec::new();
    for (round, seen) in probe.rounds.iter().enumerate() {
        if let Some(&(_, first)) = seen.first() {
            assert!(
                seen.iter().all(|&(_, r)| r == first),
                "round {round}: one pool, different risks: {seen:?}"
            );
            risks.push(first.to_bits());
        }
    }
    risks.dedup();
    assert!(
        risks.len() > 2,
        "the price walk should move the pool's risk: {risks:?}"
    );
}

/// Records node 1's NIC utilisation as every round shows it.
struct NetProbe(Vec<f64>);

impl Scheduler for NetProbe {
    fn name(&self) -> &str {
        "net-probe"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        self.0.push(input.nodes[1].net_util);
        Vec::new()
    }
}

/// An idle node's view follows its worker's reports: a heartbeat whose
/// utilisation moved, and a re-registration that resets it, both reach
/// the next round (each triggered by a re-registering node 0).
#[test]
fn idle_node_views_follow_heartbeats_and_reregistration() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);
    let cfg = ServeConfig::default();
    let beat = |at, net_util| {
        worker(
            at,
            1,
            WorkerReport::Heartbeat {
                net_util,
                disk_util: 0.0,
            },
        )
    };
    let log = vec![
        worker(0, 0, WorkerReport::Register),
        worker(0, 1, WorkerReport::Register),
        beat(3_000, 0.5),
        worker(5_000, 0, WorkerReport::Register),
        worker(8_000, 1, WorkerReport::Register),
        worker(11_000, 0, WorkerReport::Register),
        client(14_000, ClientRequest::Drain),
    ];
    let mut probe = NetProbe(Vec::new());
    replay(&cluster, &catalog, &mut probe, &cfg, &log).expect("replay runs");
    assert_eq!(probe.0, vec![0.0, 0.5, 0.0, 0.0]);
}

/// One job: a two-task map stage whose tasks each write half the
/// shuffle, and a two-task reduce stage reading it.
fn map_reduce() -> rupam_dag::MergedStream {
    use rupam_dag::app::{AppBuilder, StageKind};
    use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
    let tasks = |input: InputSource, write| {
        (0..2)
            .map(|index| TaskTemplate {
                index,
                input: input.clone(),
                demand: TaskDemand {
                    compute: 1.0,
                    shuffle_write: ByteSize::mib(write),
                    ..TaskDemand::default()
                },
            })
            .collect()
    };
    let mut b = AppBuilder::new("mr");
    let job = b.begin_job();
    let map = b.add_stage(
        job,
        "map",
        "mr/map",
        StageKind::ShuffleMap,
        vec![],
        tasks(InputSource::Generated, 64),
    );
    b.add_stage(
        job,
        "reduce",
        "mr/reduce",
        StageKind::Result,
        vec![map],
        tasks(InputSource::Shuffle, 0),
    );
    let mut stream = rupam_dag::JobStream::new();
    stream.push("mr", b.build(), rupam_dag::DataLayout::new(), SimTime::ZERO);
    stream.merge()
}

/// Runs map task `i` on node `i`, a re-run on node 2, and never a
/// reduce task. Records, per round, the reducers' shuffle preferences
/// and node 1's `(suspect, dead)` flags.
#[derive(Default)]
struct ShuffleProbe {
    node_local: Vec<Vec<NodeId>>,
    node1: Vec<(bool, bool)>,
}

impl Scheduler for ShuffleProbe {
    fn name(&self) -> &str {
        "shuffle-probe"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let v = &input.nodes[1];
        self.node1.push((v.suspect, v.dead));
        let (maps, reduces): (Vec<_>, Vec<_>) = input
            .pending
            .iter()
            .partition(|p| p.task.stage.index() == 0);
        if let Some(r) = reduces.first() {
            self.node_local.push(r.node_local.clone());
        }
        (maps.iter())
            .map(|p| Command::Launch {
                task: p.task,
                node: NodeId(if p.attempt_no == 0 { p.task.index } else { 2 }),
                use_gpu: false,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            })
            .collect()
    }
}

/// Node 1 falls silent after running map task 1: it turns suspect,
/// then dead, its map output is lost and re-run on node 2. Each step
/// reaches the next round's views — the detector flags of the idle
/// node, and the pending reducers' preferences as the output leaves
/// node 1 and lands on node 2.
#[test]
fn lost_map_output_and_detector_flags_reach_pending_views() {
    let cluster = build_fleet(8);
    let catalog = map_reduce();
    let mut cfg = ServeConfig {
        tick: Duration::from_millis(1),
        max_wall: Some(Duration::from_millis(14)),
        ..ServeConfig::default()
    };
    cfg.sim.faults.suspect_after = SimDuration(4_000);
    cfg.sim.faults.dead_after = SimDuration(6_000);
    let done = |at, node, index, attempt| {
        let task = TaskRef {
            stage: rupam_dag::app::StageId(0),
            index,
        };
        worker(at, node, WorkerReport::Completed { task, attempt })
    };
    let mut log = vec![
        worker(0, 0, WorkerReport::Register),
        worker(0, 1, WorkerReport::Register),
        worker(0, 2, WorkerReport::Register),
        client(10, ClientRequest::Submit { job: JobId(0) }),
        done(3_000, 0, 0, 0),
        done(3_500, 1, 1, 0),
        done(9_500, 2, 1, 1),
    ];
    for at in (500..14_000).step_by(500) {
        for node in [0, 2] {
            log.push(worker(
                at,
                node,
                WorkerReport::Heartbeat {
                    net_util: 0.0,
                    disk_util: 0.0,
                },
            ));
        }
    }
    log.sort_by_key(|(at, _)| *at);
    let mut probe = ShuffleProbe::default();
    replay(&cluster, &catalog, &mut probe, &cfg, &log).expect("replay runs");

    probe.node_local.dedup();
    assert_eq!(
        probe.node_local,
        vec![
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(0)],
            vec![NodeId(0), NodeId(2)]
        ]
    );
    probe.node1.dedup();
    assert_eq!(
        probe.node1,
        vec![(false, false), (true, false), (false, true)]
    );
}

/// Runs map task `i` on node `i` and a map re-run on node 2, holds the
/// reducers until 14 ms and then runs them on node 0. Records, per
/// round, node 1's `(suspect, dead)` flags and which spot nodes are
/// unblocked, and every map re-run it launches.
#[derive(Default)]
struct FleetProbe {
    node1: Vec<(bool, bool)>,
    spot_open: Vec<Vec<NodeId>>,
    reruns: Vec<(TaskRef, u32)>,
}

impl Scheduler for FleetProbe {
    fn name(&self) -> &str {
        "fleet-probe"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let v = &input.nodes[1];
        self.node1.push((v.suspect, v.dead));
        self.spot_open.push(
            (input.nodes.iter())
                .filter(|v| v.tier == NodeTier::Spot && !v.blocked)
                .map(|v| v.node)
                .collect(),
        );
        let mut commands = Vec::new();
        for p in &input.pending {
            let node = match (p.task.stage.index(), p.attempt_no) {
                (0, 0) => p.task.index,
                (0, _) => {
                    self.reruns.push((p.task, p.attempt_no));
                    2
                }
                _ if input.now >= SimTime(14_000) => 0,
                _ => continue,
            };
            commands.push(Command::Launch {
                task: p.task,
                node: NodeId(node),
                use_gpu: false,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            });
        }
        commands
    }
}

/// Pins serve's fleet paths end to end with one digest: a worker turns
/// suspect, is declared dead and is re-admitted when its heartbeats
/// resume; its lost map output is re-pended through the lineage and
/// re-runs to completion; a calm spot pool (node 6) is provisioned on
/// backlog and decommissioned once idle; a hot pool (node 7, preempted
/// at every check it is live) is served drain notices that ticks
/// reclaim. Times are µs; one tick and one controller check per ms.
#[test]
fn fleet_paths_replay_to_a_pinned_digest() {
    let cluster = build_fleet(8);
    let catalog = map_reduce();
    let mut elastic = ElasticConfig::spot_tail(8, 2, SpotPolicy::Greedy);
    elastic.check_secs = 1.0;
    elastic.scale_up_backlog = 0.0;
    elastic.scale_down_idle_secs = 2.0;
    let mut hot = elastic.pools[0].clone();
    elastic.pools[0].nodes = vec![NodeId(6)];
    elastic.pools[0].preempt_base = 0.0;
    elastic.pools[0].preempt_slope = 0.0;
    hot.name = "hot".into();
    hot.nodes = vec![NodeId(7)];
    hot.preempt_base = 1.0;
    hot.preempt_slope = 0.0;
    hot.notice_secs = 3.0;
    elastic.pools.push(hot);
    let mut cfg = ServeConfig {
        tick: Duration::from_millis(1),
        max_wall: Some(Duration::from_millis(30)),
        ..ServeConfig::default()
    };
    cfg.sim.elastic = elastic;
    cfg.sim.faults.suspect_after = SimDuration(2_000);
    cfg.sim.faults.dead_after = SimDuration(4_000);

    let done = |at, node, task: TaskRef, attempt| {
        worker(at, node, WorkerReport::Completed { task, attempt })
    };
    let map = |index| TaskRef {
        stage: StageId(0),
        index,
    };
    let reduce = |index| TaskRef {
        stage: StageId(1),
        index,
    };
    let mut log: Vec<(SimTime, ServeEvent)> = (0..8)
        .map(|n| worker(0, n, WorkerReport::Register))
        .collect();
    log.extend([
        client(10, ClientRequest::Submit { job: JobId(0) }),
        done(3_000, 0, map(0), 0),
        done(3_500, 1, map(1), 0),
        done(12_500, 2, map(1), 1),
        done(20_000, 0, reduce(0), 0),
        done(20_500, 0, reduce(1), 0),
        client(21_000, ClientRequest::Drain),
    ]);
    // node 1 falls silent from 4 ms to 14 ms: suspect at the 6 ms tick,
    // dead at the 8 ms one, re-admitted by its 14 ms heartbeat
    for at in (500..25_000).step_by(500) {
        for node in 0..8 {
            if node != 1 || !(4_000..14_000).contains(&at) {
                log.push(worker(
                    at,
                    node,
                    WorkerReport::Heartbeat {
                        net_util: 0.0,
                        disk_util: 0.0,
                    },
                ));
            }
        }
    }
    log.sort_by_key(|(at, _)| *at);
    let mut probe = FleetProbe::default();
    let report = replay(&cluster, &catalog, &mut probe, &cfg, &log).expect("replay runs");
    assert!(report.clean, "{report:?}");
    assert_eq!(report.lost_tasks, 0);
    assert_eq!(probe.reruns, vec![(map(1), 1)]);
    probe.node1.dedup();
    assert_eq!(
        probe.node1,
        vec![(false, false), (true, false), (false, true), (false, false)]
    );
    probe.spot_open.dedup();
    // node 6 is decommissioned idle at 3 ms, while the maps run, and
    // again once the reducers run; node 7 never opens
    let six = vec![NodeId(6)];
    assert_eq!(
        probe.spot_open,
        vec![vec![], six.clone(), vec![], six, vec![]]
    );
    assert_eq!(
        (report.provisions, report.decommissions, report.preemptions),
        (7, 2, 5),
        "{report:?}"
    );
    assert_eq!(report.digest, 7_706_493_926_339_792_603, "{report:?}");
}

/// Provisioning a spot node wakes an offer round: with only spot node 7
/// registered, the task submitted at 3.5 ms finds no node in its round;
/// the 4 ms controller check provisions node 7, and the task launches in
/// the round that provision triggers (coalesced to 5.5 ms) — no other
/// event would run one.
#[test]
fn provisioning_a_spot_node_wakes_a_round() {
    let cluster = build_fleet(8);
    let catalog = pressure_stream(1, 1);
    let mut elastic = ElasticConfig::spot_tail(8, 1, SpotPolicy::Greedy);
    elastic.check_secs = 1.0;
    elastic.scale_up_backlog = 0.0;
    elastic.pools[0].preempt_base = 0.0;
    elastic.pools[0].preempt_slope = 0.0;
    let mut cfg = ServeConfig {
        tick: Duration::from_millis(1),
        max_wall: Some(Duration::from_millis(30)),
        ..ServeConfig::default()
    };
    cfg.sim.elastic = elastic;
    let log = vec![
        worker(0, 7, WorkerReport::Register),
        client(3_500, ClientRequest::Submit { job: JobId(0) }),
        worker(
            8_000,
            7,
            WorkerReport::Completed {
                task: TASK,
                attempt: 0,
            },
        ),
        client(9_000, ClientRequest::Drain),
    ];
    let mut stub = Stub::new(None);
    let report = replay(&cluster, &catalog, &mut stub, &cfg, &log).expect("replay runs");
    assert!(report.clean, "{report:?}");
    assert_eq!(report.provisions, 1);
    // released at 3.5 ms, launched at 5.5 ms
    assert_eq!(report.dispatch_p50_us, 2_000);
}
