//! The control rules serve shares with the sim engine: the
//! `KillReason → AttemptOutcome` map, the retry-exhaustion test, and
//! node-loss requeues counting against the retry limit.
//!
//! Two tests drive the serve driver through [`replay`] over a
//! hand-written input log and a stub scheduler, so every decision is
//! exact; the retry test runs live worker agents under an all-OOM fault
//! script and compares against the sim engine on the same limit.

use std::sync::Arc;
use std::time::Duration;

use rupam::{RupamConfig, RupamScheduler};
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::JobId;
use rupam_dag::TaskRef;
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
