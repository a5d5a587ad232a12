//! The serve driver: the engine's offer loop re-hosted on a live
//! [`EventSource`].
//!
//! The driver owns the authoritative scheduling state (pending/running
//! tasks, stage lineage, per-node memory, failure detector) exactly like
//! the sim engine's `ClusterState`, but *time and execution* live
//! elsewhere: task execution happens in worker agents, and "what fires
//! next" comes from the event source — a [`WallClockSource`] in live
//! mode, a [`Calendar`] in replay mode. Because every state transition
//! is driven by a popped `(SimTime, ServeEvent)` and nothing else, the
//! trace digest of a live run is a pure function of its input log: the
//! replay harness re-runs this same driver over the logged events and
//! must produce a byte-identical digest.
//!
//! The control rules both hosts run have one definition, shared with
//! the sim engine:
//!
//! * the capacity controller ([`rupam_elastic::Controller`]): spot price
//!   steps, idle tracking, per-pool scaling targets and price-correlated
//!   preemption draws;
//! * the map-output ledger ([`MapOutputLedger`]): where shuffle outputs
//!   live, the 20 % reducer-preference rule, and the lineage-recompute
//!   walk on node loss;
//! * the retry limit ([`rupam_exec::config::MemConfig::retries_exhausted`]),
//!   against which every failed attempt counts — node-loss requeues
//!   included;
//! * the kill outcome ([`KillReason::outcome`]) reported to the
//!   scheduler for a `KillAndRequeue`;
//! * the offer state ([`OfferState`]): persistent node views and pending
//!   list, the per-stage shuffle-preference memo, and the `changed` and
//!   `pending_fresh` deltas every offer round hands the scheduler. The
//!   driver builds single views of its tables ([`OfferHost`]) and marks
//!   what each event touches.
//!
//! What stays serve-specific is how those rules meet real time and real
//! workers: wall-time scaling of sim-second tunables, firing preemption
//! drains on ticks, worker registration as the join path (no
//! provisioning latency), and the estimated task durations workers hold
//! their slots for.
//!
//! [`WallClockSource`]: rupam_simcore::source::WallClockSource
//! [`Calendar`]: rupam_simcore::Calendar

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rupam_cluster::{ClusterSpec, NodeId, NodeTier};
use rupam_dag::app::{JobId, StageId};
use rupam_dag::lineage::StageTracker;
use rupam_dag::task::InputSource;
use rupam_dag::{Locality, MergedStream, TaskRef};
use rupam_elastic::{Controller, FleetNode, ScalingAction};
use rupam_exec::config::SimConfig;
use rupam_exec::offer_state::{OfferHost, OfferState, ShufflePrefs};
use rupam_exec::scheduler::{
    Command, KillReason, NodeView, OfferInput, PendingTaskView, RunningTaskView, Scheduler,
};
use rupam_exec::shuffle::MapOutputLedger;
use rupam_exec::EngineError;
use rupam_faults::{FailureDetector, NodeHealth};
use rupam_metrics::breakdown::{BreakdownCategory, TaskBreakdown};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::{AbortCause, TraceBuffer, TraceEvent, TraceEventKind};
use rupam_simcore::source::EventSource;
use rupam_simcore::stats::quantile;
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use crate::estimate::estimate;
use crate::proto::{ClientRequest, ServeEvent, TaskFailure, WorkerCommand, WorkerReport};

/// Tunables of the live service.
#[derive(Clone)]
pub struct ServeConfig {
    /// Server tick period (detector evaluation + offer round cadence) —
    /// the live analogue of `EngineConfig::heartbeat`.
    pub tick: Duration,
    /// Worker heartbeat period.
    pub worker_heartbeat: Duration,
    /// Wall seconds per simulated second of estimated task duration
    /// (`0.001` = tasks run 1000× faster than their sim estimate).
    /// Fault-script times are scaled by the same factor.
    pub time_scale: f64,
    /// Bound of the server's input channel; producers block when the
    /// driver falls behind (backpressure).
    pub channel_capacity: usize,
    /// Abort the run if the wall clock passes this point (livelock
    /// safety net; checked on ticks, deterministic under replay because
    /// tick stamps are part of the event order).
    pub max_wall: Option<Duration>,
    /// Coalescing guard for event-driven offer rounds: when dispatchable
    /// state changes, the next round is scheduled no sooner than this
    /// long after the previous one, so a burst of completions (or a
    /// heartbeat storm) is absorbed by one round instead of thrashing.
    pub offer_min_interval: Duration,
    /// Sim tunables reused by the live mode: memory sizing/clamps
    /// (`mem`), retry budget, the failure-detector thresholds
    /// (`faults.suspect_after` / `faults.dead_after`, interpreted as
    /// *wall* durations here), and the elastic spot tier
    /// (`elastic` — pool membership, prices and the scaling policy;
    /// elastic durations are authored in sim seconds and scaled by
    /// `time_scale` like fault-script times). Serve has no provisioning
    /// latency: a provisioned spot node accepts work as soon as its
    /// worker is registered (registration is the join path), so
    /// `elastic.provision_secs` has no effect here.
    pub sim: SimConfig,
    /// Seed of the serve-side spot-price / preemption RNG. Elastic
    /// stepping happens on driver ticks — internal timer events never
    /// logged — so live and replay runs draw the identical sequence.
    pub elastic_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tick: Duration::from_millis(20),
            worker_heartbeat: Duration::from_millis(20),
            time_scale: 0.001,
            channel_capacity: 4096,
            max_wall: Some(Duration::from_secs(120)),
            offer_min_interval: Duration::from_millis(2),
            sim: SimConfig::default(),
            elastic_seed: 0x0E1A_571C,
        }
    }
}

/// Where launch/preempt/shutdown commands go: real worker inboxes in
/// live mode, nowhere in replay (the logged reports already tell the
/// replay driver everything the workers did).
pub(crate) enum Outbox {
    /// One unbounded command channel per worker, indexed by node id.
    Live(Vec<Sender<WorkerCommand>>),
    /// Replay: commands are decisions already reflected in the log.
    Replay,
}

impl Outbox {
    fn send(&self, worker: NodeId, cmd: WorkerCommand) {
        if let Outbox::Live(txs) = self {
            // a worker that already exited just misses the command — the
            // same as a lost RPC to a dead node
            let _ = txs[worker.index()].send(cmd);
        }
    }
}

struct RunningSt {
    task: TaskRef,
    attempt: u32,
    launched_at: SimTime,
    peak_mem: ByteSize,
    use_gpu: bool,
    locality: Locality,
    breakdown: TaskBreakdown,
    /// Why the driver asked the worker to kill this attempt, if it did.
    kill: Option<KillReason>,
}

enum TaskSt {
    Pending { attempt_no: u32, since: SimTime },
    Running { node: NodeId, attempt: u32 },
    Done,
}

struct StageSt {
    released: bool,
    tasks: Vec<TaskSt>,
}

struct NodeSt {
    registered: bool,
    executor_mem: ByteSize,
    mem_in_use: ByteSize,
    running: Vec<RunningSt>,
    /// NIC occupancy from the worker's last heartbeat payload.
    net_util: f64,
    /// Disk occupancy from the worker's last heartbeat payload.
    disk_util: f64,
    /// Part of the fleet. On-demand nodes always are; spot nodes start
    /// deprovisioned (their agents register but stay blocked) and churn
    /// under the capacity controller.
    provisioned: bool,
    /// Preemption drain deadline, when a notice is outstanding.
    drain_deadline: Option<SimTime>,
}

struct JobSt {
    submitted: Option<SimTime>,
    completed: Option<SimTime>,
}

/// Sim seconds → wall duration under the serve time scale, floored at
/// one microsecond so intervals never collapse to zero.
fn wall_secs(secs: f64, time_scale: f64) -> SimDuration {
    SimDuration(((secs * time_scale * 1e6) as u64).max(1))
}

/// Aggregate outcome of one serve run (live or replay).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Decision-trace digest — the replay-equivalence oracle value.
    pub digest: u64,
    /// Total trace events recorded into the digest.
    pub events_recorded: u64,
    /// Jobs the client submitted.
    pub jobs_submitted: usize,
    /// Submitted jobs that ran to completion.
    pub jobs_completed: usize,
    /// Launch commands applied.
    pub launched: u64,
    /// Attempts completed successfully.
    pub completed: u64,
    /// Attempts that failed (fault kills, OOMs, preemptions).
    pub failed: u64,
    /// Tasks killed by recovery whose re-execution never completed —
    /// must be zero on a clean drain.
    pub lost_tasks: usize,
    /// Highest number of concurrently pending tasks seen at an offer
    /// round.
    pub max_pending: usize,
    /// Median dispatch latency (stage release / re-queue → launch), µs.
    pub dispatch_p50_us: u64,
    /// p99 dispatch latency, µs.
    pub dispatch_p99_us: u64,
    /// Offer rounds run.
    pub offer_rounds: u64,
    /// Median driver-side offer-round wall time (snapshot + scheduler +
    /// command application), µs. Meaningful in live mode only.
    pub offer_p50_us: u64,
    /// p95 offer-round wall time, µs.
    pub offer_p95_us: u64,
    /// Launch commands dropped because the task was no longer pending
    /// when the command was applied (the decision raced a completion or
    /// recovery re-queue).
    pub stale_launch_drops: u64,
    /// Launch commands dropped because the target node was unregistered
    /// or declared dead — the live analogue of a lost RPC.
    pub dead_launch_drops: u64,
    /// Launch commands dropped because the autoscaler had deprovisioned
    /// the target node by the time the command was applied.
    pub autoscale_launch_drops: u64,
    /// Launch commands dropped because the target node was draining
    /// under an outstanding preemption notice.
    pub preempt_launch_drops: u64,
    /// Spot nodes reclaimed after their drain notice expired.
    pub preemptions: u64,
    /// Autoscaler scale-up transitions applied.
    pub provisions: u64,
    /// Autoscaler scale-down transitions applied.
    pub decommissions: u64,
    /// Why the run aborted, if it did.
    pub abort: Option<AbortCause>,
    /// Timestamp of the last handled event (wall µs since server start
    /// in live mode).
    pub makespan: SimDuration,
    /// True iff the run drained without aborting and every submitted
    /// job completed.
    pub clean: bool,
}

/// The serve-mode scheduling loop over any [`EventSource`].
pub(crate) struct ServeDriver<'a, S: EventSource<ServeEvent>> {
    catalog: &'a MergedStream,
    cluster: &'a ClusterSpec,
    cfg: &'a ServeConfig,
    sched: &'a mut (dyn Scheduler + Send),
    pub(crate) source: S,
    outbox: Outbox,
    now: SimTime,
    nodes: Vec<NodeSt>,
    stages: Vec<StageSt>,
    jobs: Vec<JobSt>,
    tracker: StageTracker,
    outputs: MapOutputLedger,
    detector: FailureDetector,
    trace: TraceBuffer,
    round: u64,
    draining: bool,
    abort: Option<AbortCause>,
    kill_pending: HashMap<TaskRef, SimTime>,
    observed_peak: HashMap<(StageId, usize), ByteSize>,
    dispatch_us: Vec<u64>,
    max_pending: usize,
    launched: u64,
    completed: u64,
    failed: u64,
    /// The persistent node views and pending list offer rounds are
    /// built from (shared with the sim engine), kept current by the
    /// dirty marks event application leaves.
    offers: OfferState,
    // ---- event-driven offer scheduling ----
    /// Stamp of the already-scheduled [`ServeEvent::Offer`], if any.
    offer_due: Option<SimTime>,
    last_offer_at: Option<SimTime>,
    // ---- elastic spot tier (absent without spot pools) ----
    /// The shared capacity controller, hosted on driver ticks. It draws
    /// from a dedicated seeded RNG only while handling popped events, so
    /// a replay of the input log reproduces the identical churn.
    elastic: Option<Controller>,
    /// The next controller check is due at this stamp.
    next_check: SimTime,
    // ---- instrumentation ----
    offer_us: Vec<u64>,
    stale_drops: u64,
    dead_drops: u64,
    autoscale_drops: u64,
    preempt_drops: u64,
    preemptions: u64,
    provisions: u64,
    decommissions: u64,
}

impl<'a, S: EventSource<ServeEvent>> ServeDriver<'a, S> {
    pub(crate) fn new(
        cluster: &'a ClusterSpec,
        catalog: &'a MergedStream,
        cfg: &'a ServeConfig,
        sched: &'a mut (dyn Scheduler + Send),
        source: S,
        outbox: Outbox,
    ) -> Self {
        sched.on_app_start(&catalog.app, cluster);
        let nodes = cluster
            .iter()
            .map(|(id, spec)| {
                let requested = sched.executor_memory(cluster, id);
                let ceiling = spec.mem.saturating_sub(cfg.sim.mem.os_reserved);
                NodeSt {
                    registered: false,
                    executor_mem: requested.min(ceiling),
                    mem_in_use: ByteSize::ZERO,
                    running: Vec::new(),
                    net_util: 0.0,
                    disk_util: 0.0,
                    provisioned: cfg.sim.elastic.tier(id) == NodeTier::OnDemand,
                    drain_deadline: None,
                }
            })
            .collect();
        let stages = catalog
            .app
            .stages
            .iter()
            .map(|s| StageSt {
                released: false,
                tasks: (0..s.tasks.len())
                    .map(|_| TaskSt::Pending {
                        attempt_no: 0,
                        since: SimTime::ZERO,
                    })
                    .collect(),
            })
            .collect();
        let chains: Vec<std::ops::Range<usize>> =
            catalog.jobs.iter().map(|j| j.app_jobs.clone()).collect();
        let n_nodes = cluster.len();
        ServeDriver {
            cluster,
            catalog,
            cfg,
            sched,
            source,
            outbox,
            now: SimTime::ZERO,
            nodes,
            stages,
            jobs: catalog
                .jobs
                .iter()
                .map(|_| JobSt {
                    submitted: None,
                    completed: None,
                })
                .collect(),
            tracker: StageTracker::new_stream(&catalog.app, &chains),
            outputs: MapOutputLedger::new(&catalog.app, n_nodes),
            detector: FailureDetector::new(cluster.len(), &cfg.sim.faults, SimTime::ZERO),
            trace: TraceBuffer::new(rupam_metrics::trace::DEFAULT_TRACE_CAPACITY),
            round: 0,
            draining: false,
            abort: None,
            kill_pending: HashMap::new(),
            observed_peak: HashMap::new(),
            dispatch_us: Vec::new(),
            max_pending: 0,
            launched: 0,
            completed: 0,
            failed: 0,
            offers: OfferState::new(&catalog.app, n_nodes),
            offer_due: None,
            last_offer_at: None,
            elastic: (!cfg.sim.elastic.is_empty()).then(|| {
                let rng = StdRng::seed_from_u64(cfg.elastic_seed);
                Controller::new(&cfg.sim.elastic, cluster, rng)
            }),
            next_check: SimTime::ZERO + wall_secs(cfg.sim.elastic.check_secs, cfg.time_scale),
            offer_us: Vec::new(),
            stale_drops: 0,
            dead_drops: 0,
            autoscale_drops: 0,
            preempt_drops: 0,
            preemptions: 0,
            provisions: 0,
            decommissions: 0,
        }
    }

    fn record(&mut self, kind: TraceEventKind) {
        self.trace.record(TraceEvent {
            at: self.now,
            round: self.round,
            kind,
        });
    }

    /// End the run with `cause`, blaming `task` if one is at fault.
    fn abort(&mut self, cause: AbortCause, task: Option<TaskRef>) {
        self.record(TraceEventKind::Aborted { cause, task });
        self.abort = Some(cause);
    }

    fn finished(&self) -> bool {
        if self.abort.is_some() {
            return true;
        }
        let submitted_done = self
            .jobs
            .iter()
            .all(|j| j.submitted.is_none() || j.completed.is_some());
        let all_submitted = self.jobs.iter().all(|j| j.submitted.is_some());
        submitted_done
            && (self.draining || all_submitted)
            && (self.draining || !self.jobs.is_empty())
    }

    /// Run to drain (or abort). [`EngineError::SourceDisconnected`] means
    /// every producer hung up while submitted work was incomplete.
    pub(crate) fn run(&mut self) -> Result<(), EngineError> {
        let tick = SimDuration((self.cfg.tick.as_micros() as u64).max(1));
        self.source.schedule(self.now + tick, ServeEvent::Tick);
        while !self.finished() {
            let Some((t, ev)) = self.source.pop() else {
                self.abort(AbortCause::SourceDisconnected, None);
                self.shutdown_workers();
                return Err(EngineError::SourceDisconnected { at: self.now });
            };
            self.now = t;
            match ev {
                ServeEvent::Tick => {
                    self.sched.on_heartbeat(self.now);
                    self.evaluate_detector();
                    self.elastic_tick();
                    if let Some(max) = self.cfg.max_wall {
                        if self.now >= SimTime(max.as_micros() as u64) && !self.finished() {
                            self.abort(AbortCause::Livelock, None);
                            break;
                        }
                    }
                    self.source.schedule(self.now + tick, ServeEvent::Tick);
                }
                // offers are event-driven: any state change that could
                // make a task dispatchable schedules one coalesced round
                // (min-interval apart), so dispatch latency is bounded by
                // the coalescing window instead of the tick period, and
                // quiet stretches run no rounds at all
                ServeEvent::Offer => {
                    self.offer_due = None;
                    if self.abort.is_none() {
                        self.last_offer_at = Some(self.now);
                        self.offer_round();
                    }
                }
                ServeEvent::Client(frame) => self.handle_client(frame.body),
                ServeEvent::Worker(msg) => self.handle_worker(msg.worker, msg.frame.body),
            }
        }
        self.shutdown_workers();
        Ok(())
    }

    fn shutdown_workers(&self) {
        for i in 0..self.nodes.len() {
            self.outbox.send(NodeId(i), WorkerCommand::Shutdown);
        }
    }

    // ---- external inputs ------------------------------------------------

    fn handle_client(&mut self, req: ClientRequest) {
        match req {
            ClientRequest::Submit { job } => self.submit_job(job),
            ClientRequest::Drain => self.draining = true,
        }
    }

    fn submit_job(&mut self, job: JobId) {
        let Some(j) = self.jobs.get_mut(job.index()) else {
            return; // unknown job id: ignore like a malformed RPC
        };
        if j.submitted.is_some() {
            return; // duplicate submission
        }
        j.submitted = Some(self.now);
        self.record(TraceEventKind::JobSubmitted {
            job,
            tenant: self.catalog.tenant_of(job),
        });
        let stages: Vec<StageId> = (0..self.stages.len())
            .map(StageId)
            .filter(|s| self.catalog.stage_jobs[s.index()] == job)
            .collect();
        self.sched.on_job_submitted(job, &stages, self.now);
        self.tracker.arrive(job.index());
        self.release_ready();
        self.request_offers();
    }

    fn handle_worker(&mut self, worker: NodeId, report: WorkerReport) {
        if worker.index() >= self.nodes.len() {
            return;
        }
        match report {
            WorkerReport::Register => {
                let fresh = !self.nodes[worker.index()].registered;
                self.nodes[worker.index()].registered = true;
                if fresh {
                    let mem = self.nodes[worker.index()].executor_mem;
                    self.record(TraceEventKind::ExecutorSized { node: worker, mem });
                }
                // a re-registering worker starts with an empty slot set
                let nst = &mut self.nodes[worker.index()];
                nst.net_util = 0.0;
                nst.disk_util = 0.0;
                self.offers.node_dirty(worker);
                self.observe_liveness(worker);
                self.request_offers();
            }
            WorkerReport::Heartbeat {
                net_util,
                disk_util,
            } => {
                self.observe_liveness(worker);
                let nst = &mut self.nodes[worker.index()];
                if nst.net_util != net_util || nst.disk_util != disk_util {
                    nst.net_util = net_util;
                    nst.disk_util = disk_util;
                    // utilisation drift alone creates no dispatchable
                    // work — mark the view stale but let the next
                    // triggered round pick it up (no offer request, so
                    // heartbeat storms cannot thrash rounds)
                    self.offers.node_dirty(worker);
                }
            }
            WorkerReport::Completed { task, attempt } => self.on_completed(worker, task, attempt),
            WorkerReport::Failed {
                task,
                attempt,
                reason,
            } => self.on_failed(worker, task, attempt, reason),
        }
    }

    /// Feed the failure detector; a beacon from a declared-dead node
    /// re-admits it (the sim engine's re-admission path). The dead view
    /// was blocked, so it is rebuilt next round without a mark.
    fn observe_liveness(&mut self, worker: NodeId) {
        if self.detector.is_dead(worker) {
            self.detector.revive(worker, self.now);
            self.record(TraceEventKind::NodeRecovered { node: worker });
            self.request_offers();
        } else {
            self.detector.observe(worker, self.now);
        }
    }

    fn take_running(&mut self, worker: NodeId, task: TaskRef, attempt: u32) -> Option<RunningSt> {
        let node = &mut self.nodes[worker.index()];
        let pos = node
            .running
            .iter()
            .position(|r| r.task == task && r.attempt == attempt)?;
        let entry = node.running.remove(pos);
        debug_assert!(matches!(
            self.stages[task.stage.index()].tasks[task.index],
            TaskSt::Running { node: n, attempt: a } if n == worker && a == attempt
        ));
        node.mem_in_use = node.mem_in_use.saturating_sub(entry.peak_mem);
        Some(entry)
    }

    fn on_completed(&mut self, worker: NodeId, task: TaskRef, attempt: u32) {
        // a report for an attempt the server no longer tracks (node was
        // declared dead and the task re-queued, or a preempt raced a
        // completion) is stale — drop it, the authoritative copy wins
        let Some(entry) = self.take_running(worker, task, attempt) else {
            return;
        };
        let sidx = task.stage.index();
        self.stages[sidx].tasks[task.index] = TaskSt::Done;
        if self
            .outputs
            .record_win(&self.catalog.app, task, worker, attempt)
        {
            self.offers.outputs_moved(task.stage);
        }
        let stage = self.catalog.app.stage(task.stage);
        self.kill_pending.remove(&task);
        self.observed_peak
            .insert((task.stage, task.index), entry.peak_mem);
        self.completed += 1;
        let record = TaskRecord {
            task,
            job: self.catalog.stage_jobs[sidx],
            template_key: stage.template_key,
            attempt,
            node: worker,
            speculative: false,
            locality: entry.locality,
            launched_at: entry.launched_at,
            finished_at: self.now,
            outcome: AttemptOutcome::Success,
            breakdown: entry.breakdown,
            peak_mem: entry.peak_mem,
            used_gpu: entry.use_gpu,
        };
        self.sched.on_task_finished(&record, self.now);

        for ready in self.tracker.task_finished(&self.catalog.app, task.stage) {
            self.release_stage(ready);
        }
        let job = self.catalog.stage_jobs[sidx];
        if self.jobs[job.index()].completed.is_none() && self.tracker.chain_done(job.index()) {
            self.jobs[job.index()].completed = Some(self.now);
            self.record(TraceEventKind::JobCompleted {
                job,
                tenant: self.catalog.tenant_of(job),
            });
        }
        self.request_offers();
    }

    fn on_failed(&mut self, worker: NodeId, task: TaskRef, attempt: u32, reason: TaskFailure) {
        let Some(entry) = self.take_running(worker, task, attempt) else {
            return; // stale, same as completions
        };
        let outcome = match reason {
            TaskFailure::Oom => {
                let node = &self.nodes[worker.index()];
                let pressure_pct = (node.mem_in_use.as_f64() + entry.peak_mem.as_f64())
                    / node.executor_mem.as_f64().max(1.0)
                    * 100.0;
                self.record(TraceEventKind::OomTaskKill {
                    task,
                    node: worker,
                    pressure_pct: pressure_pct as u32,
                });
                AttemptOutcome::OomFailure
            }
            // workers preempt only on the driver's command; a kill the
            // driver did not order is the node reclaiming its slot
            TaskFailure::Preempted => entry
                .kill
                .map_or(AttemptOutcome::NodeFaulted, KillReason::outcome),
        };
        self.fail_attempt(worker, task, attempt, outcome);
    }

    /// A running attempt failed: tell the scheduler, then re-pend the
    /// task — or abort the run once its retries are exhausted.
    fn fail_attempt(
        &mut self,
        worker: NodeId,
        task: TaskRef,
        attempt: u32,
        outcome: AttemptOutcome,
    ) {
        self.failed += 1;
        self.sched.on_task_failed(task, worker, outcome, self.now);
        let next = attempt + 1;
        if self.cfg.sim.mem.retries_exhausted(next) {
            self.abort(AbortCause::RetriesExhausted, Some(task));
            return;
        }
        self.repend(task, next);
    }

    /// Put `task` back into the pending set as attempt `attempt_no`.
    fn repend(&mut self, task: TaskRef, attempt_no: u32) {
        self.stages[task.stage.index()].tasks[task.index] = TaskSt::Pending {
            attempt_no,
            since: self.now,
        };
        self.offers.task_dirty(task);
        self.request_offers();
    }

    // ---- failure detection & recovery -----------------------------------

    fn evaluate_detector(&mut self) {
        for tr in self.detector.evaluate(self.now) {
            // every health transition changes the node's view (suspect /
            // dead / blocked flags) and can change what is dispatchable
            self.offers.node_dirty(tr.node);
            match tr.to {
                NodeHealth::Suspect => {
                    self.record(TraceEventKind::NodeSuspect {
                        node: tr.node,
                        age: tr.age,
                    });
                    self.request_offers();
                }
                NodeHealth::Dead => {
                    self.record(TraceEventKind::NodeDead {
                        node: tr.node,
                        age: tr.age,
                    });
                    self.node_lost(tr.node);
                }
                NodeHealth::Alive => {
                    self.record(TraceEventKind::NodeRecovered { node: tr.node });
                    self.request_offers();
                }
            }
        }
    }

    /// A node was declared dead: kill-and-requeue its running attempts
    /// and re-pend finished map tasks whose winning output lived there
    /// (the shared lineage walk; serve workers hold no executor cache to
    /// wipe).
    fn node_lost(&mut self, node_id: NodeId) {
        let victims: Vec<RunningSt> = std::mem::take(&mut self.nodes[node_id.index()].running);
        for v in victims {
            self.kill_pending.entry(v.task).or_insert(self.now);
            self.fail_attempt(node_id, v.task, v.attempt, AttemptOutcome::NodeFaulted);
        }
        let nst = &mut self.nodes[node_id.index()];
        nst.mem_in_use = ByteSize::ZERO;
        nst.net_util = 0.0;
        nst.disk_util = 0.0;
        let lost = self
            .outputs
            .lose_node(&self.catalog.app, &mut self.tracker, node_id);
        for (stage, tasks) in lost {
            for &(index, attempt_no) in &tasks {
                let task = TaskRef { stage, index };
                self.kill_pending.entry(task).or_insert(self.now);
                self.repend(task, attempt_no);
            }
            self.record(TraceEventKind::LineageRecompute {
                stage,
                node: node_id,
                tasks: tasks.len(),
            });
            self.offers.outputs_moved(stage);
        }
        self.request_offers();
    }

    // ---- elastic spot tier ----------------------------------------------

    /// The capacity controller, hosted on every driver tick: fire due
    /// preemption drains, and — at the (scaled) check cadence — run the
    /// shared controller check and apply its actions. Pure function of
    /// the popped event order plus the dedicated seeded RNG, so replay
    /// reproduces the identical churn.
    fn elastic_tick(&mut self) {
        let Some(mut ctl) = self.elastic.take() else {
            return;
        };
        let cfg = self.cfg;
        let ecfg = &cfg.sim.elastic;

        // fire preemption drains whose notice window expired: reclaim
        // the node through the same loss path a dead declaration takes
        for i in 0..self.nodes.len() {
            let nst = &mut self.nodes[i];
            let due = nst.drain_deadline.is_some_and(|d| d <= self.now);
            if !due {
                continue;
            }
            nst.drain_deadline = None;
            nst.provisioned = false;
            self.preemptions += 1;
            let node = NodeId(i);
            // free the worker's slots; its failure reports arrive as
            // stale (the authoritative attempts are requeued below)
            let held: Vec<TaskRef> = self.nodes[i].running.iter().map(|r| r.task).collect();
            for task in held {
                self.outbox.send(node, WorkerCommand::Preempt { task });
            }
            self.node_lost(node);
        }

        if self.now >= self.next_check && self.abort.is_none() {
            self.next_check = self.now + wall_secs(ecfg.check_secs, cfg.time_scale);
            let fleet: Vec<FleetNode> = (self.nodes.iter().enumerate())
                .map(|(i, n)| FleetNode {
                    provisioned: n.provisioned,
                    down: self.detector.is_dead(NodeId(i)),
                    draining: n.drain_deadline.is_some(),
                    busy: !n.running.is_empty(),
                })
                .collect();
            // the flushed persistent list is the released pending set
            let mut offers = std::mem::take(&mut self.offers);
            let backlog = offers.backlog(&*self);
            self.offers = offers;
            let grace = ecfg.scale_down_idle_secs * cfg.time_scale;
            let actions = ctl.check(ecfg, self.now, grace, &fleet, backlog);
            // the actions need no view marks: an unprovisioned view was
            // blocked, so it is rebuilt next round, and the price step
            // marked every provisioned spot node
            self.offers.prices_stepped(&ctl, &fleet);
            for action in actions {
                match action {
                    ScalingAction::Provision(node) => {
                        self.nodes[node.index()].provisioned = true;
                        self.provisions += 1;
                        self.record(TraceEventKind::NodeProvisioned { node });
                        self.request_offers();
                    }
                    ScalingAction::Decommission(node) => {
                        self.nodes[node.index()].provisioned = false;
                        self.decommissions += 1;
                        self.record(TraceEventKind::NodeDecommissioned { node });
                        // map outputs leave with the node: same loss
                        // path as a crash, lineage recompute included
                        self.node_lost(node);
                    }
                    ScalingAction::Preempt { node, notice_secs } => {
                        let notice = wall_secs(notice_secs, cfg.time_scale);
                        self.nodes[node.index()].drain_deadline = Some(self.now + notice);
                        self.record(TraceEventKind::PreemptionNotice { node, notice });
                        self.request_offers();
                    }
                }
            }
        }
        self.elastic = Some(ctl);
    }

    // ---- stage release & offers -----------------------------------------

    fn release_ready(&mut self) {
        for s in self.tracker.take_ready(&self.catalog.app) {
            self.release_stage(s);
        }
    }

    fn release_stage(&mut self, stage: StageId) {
        let now = self.now;
        let st = &mut self.stages[stage.index()];
        if st.released {
            return;
        }
        st.released = true;
        for t in st.tasks.iter_mut() {
            if let TaskSt::Pending { since, .. } = t {
                *since = now;
            }
        }
        self.offers.stage_released(stage);
        self.sched
            .on_stage_ready(self.catalog.app.stage(stage), self.now);
    }

    /// The view of `task` as attempt `attempt_no`. Placement preferences
    /// are the sim engine's without the executor-cache tier (serve
    /// workers hold no partition cache): static HDFS replica lists, and
    /// the ledger's shuffle `NODE_LOCAL` rule through the per-stage memo.
    fn task_view(
        &self,
        task: TaskRef,
        attempt_no: u32,
        prefs: &mut ShufflePrefs,
    ) -> PendingTaskView {
        let stage = self.catalog.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        let node_local = match &template.input {
            InputSource::Hdfs(block)
            | InputSource::CachedOrHdfs {
                fallback: block, ..
            } => self.catalog.layout.block(*block).replicas.clone(),
            InputSource::Shuffle => prefs.node_local(&self.outputs, &self.catalog.app, task.stage),
            InputSource::Generated => Vec::new(),
        };
        PendingTaskView {
            task,
            job: self.catalog.stage_jobs[task.stage.index()],
            template_key: stage.template_key,
            stage_kind: stage.kind,
            attempt_no,
            peak_mem_hint: self
                .observed_peak
                .get(&(task.stage, task.index))
                .copied()
                .unwrap_or(ByteSize::ZERO),
            gpu_capable: template.demand.is_gpu_capable(),
            process_nodes: Vec::new(),
            node_local,
        }
    }

    /// Schedule a coalesced offer round: immediately if the coalescing
    /// window since the last round has passed, else at the window's end.
    /// A no-op while one is already scheduled. The `Offer` event is an
    /// internal timer — never logged — so replay re-derives the exact
    /// same schedule from the logged externals (the trigger sites are
    /// pure functions of popped events).
    fn request_offers(&mut self) {
        if self.offer_due.is_some() || self.abort.is_some() {
            return;
        }
        let min = SimDuration((self.cfg.offer_min_interval.as_micros() as u64).max(1));
        let due = match self.last_offer_at {
            Some(last) => std::cmp::max(last + min, self.now),
            None => self.now,
        };
        self.offer_due = Some(due);
        self.source.schedule(due, ServeEvent::Offer);
    }

    fn offer_round(&mut self) {
        let started = Instant::now();
        self.round += 1;
        let mut offers = std::mem::take(&mut self.offers);
        let views = offers.round(&*self);
        let running_total: usize = views.nodes.iter().map(|v| v.running.len()).sum();
        let blocked_count = views.nodes.iter().filter(|v| v.blocked).count();
        self.max_pending = self.max_pending.max(views.pending.len());

        let job_arrivals: Vec<SimTime> = self
            .jobs
            .iter()
            .map(|j| j.submitted.unwrap_or(SimTime(u64::MAX)))
            .collect();
        // the persistent structures ride into the snapshot and come
        // straight back — no per-round reconstruction, no copies
        let input = OfferInput {
            now: self.now,
            cluster: self.cluster,
            app: &self.catalog.app,
            nodes: views.nodes,
            pending: views.pending,
            speculatable: Vec::new(),
            job_arrivals,
            job_tenants: self.catalog.job_tenants(),
            changed: views.changed,
            pending_fresh: views.pending_fresh,
        };
        let commands = self.sched.offer_round(&input);
        self.record(TraceEventKind::OfferRound {
            pending: input.pending.len(),
            running: running_total,
            blocked: blocked_count,
            commands: commands.len(),
        });
        offers.settle(input.nodes, input.pending, &commands);
        self.offers = offers;
        for cmd in commands {
            self.apply_command(cmd);
        }
        self.offer_us.push(started.elapsed().as_micros() as u64);
    }

    fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::Launch {
                task,
                node,
                use_gpu,
                speculative,
                reason,
            } => {
                if speculative {
                    return; // serve mode offers no speculatable set
                }
                let TaskSt::Pending { attempt_no, since } =
                    self.stages[task.stage.index()].tasks[task.index]
                else {
                    // stale command: already launched or done
                    self.stale_drops += 1;
                    return;
                };
                // a launch to a dead node is a lost RPC; the task stays
                // pending, and the offer state lists it fresh next round
                let health = self.detector.health(node);
                if !self.nodes[node.index()].registered || health == NodeHealth::Dead {
                    self.dead_drops += 1;
                    return;
                }
                // elastic races mirror the dead-node race: the view the
                // scheduler placed against went stale mid-round
                if !self.nodes[node.index()].provisioned {
                    self.autoscale_drops += 1;
                    return;
                }
                if self.nodes[node.index()].drain_deadline.is_some() {
                    self.preempt_drops += 1;
                    return;
                }
                let stage = self.catalog.app.stage(task.stage);
                let demand = &stage.tasks[task.index].demand;
                let spec = self.cluster.node(node);
                let gpu = use_gpu && spec.gpus > 0 && demand.is_gpu_capable();
                let (dur, breakdown) = estimate(demand, spec, gpu);
                let locality = self
                    .task_view(task, attempt_no, &mut ShufflePrefs::default())
                    .locality(self.cluster, node);
                let nst = &mut self.nodes[node.index()];
                nst.mem_in_use += demand.peak_mem;
                nst.running.push(RunningSt {
                    task,
                    attempt: attempt_no,
                    launched_at: self.now,
                    peak_mem: demand.peak_mem,
                    use_gpu: gpu,
                    locality,
                    breakdown,
                    kill: None,
                });
                self.stages[task.stage.index()].tasks[task.index] = TaskSt::Running {
                    node,
                    attempt: attempt_no,
                };
                self.dispatch_us.push(self.now.since(since).0);
                self.launched += 1;
                let launch_job = self.catalog.stage_jobs[task.stage.index()];
                self.record(TraceEventKind::Launch {
                    task,
                    job: launch_job,
                    tenant: self.catalog.tenant_of(launch_job),
                    node,
                    attempt: attempt_no,
                    speculative: false,
                    use_gpu: gpu,
                    locality,
                    reason,
                });
                let hold = Duration::from_secs_f64(dur.as_secs_f64() * self.cfg.time_scale);
                // estimated resource shares ride along so the agent's
                // heartbeats can report real NIC/disk occupancy back
                let total = dur.as_secs_f64();
                let frac = |secs: f64| {
                    if total > 0.0 {
                        (secs / total).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                };
                let net_frac = frac(
                    breakdown.get(BreakdownCategory::ShuffleNet).as_secs_f64()
                        + breakdown
                            .get(BreakdownCategory::Serialization)
                            .as_secs_f64(),
                );
                let disk_frac = frac(
                    breakdown.get(BreakdownCategory::HdfsDisk).as_secs_f64()
                        + breakdown.get(BreakdownCategory::ShuffleWrite).as_secs_f64(),
                );
                self.outbox.send(
                    node,
                    WorkerCommand::Launch {
                        task,
                        attempt: attempt_no,
                        use_gpu: gpu,
                        hold,
                        net_frac,
                        disk_frac,
                    },
                );
            }
            Command::KillAndRequeue { task, node, reason } => {
                let running = &mut self.nodes[node.index()].running;
                let Some(attempt) = running.iter_mut().find(|r| r.task == task) else {
                    return; // stale view: finished or moved since the offer
                };
                attempt.kill = Some(reason);
                self.record(TraceEventKind::KillRequeue { task, node });
                // the attempt stays "running" until the worker confirms
                // with Failed { Preempted } — the confirmation is an
                // external event, so replay sees the same ordering
                self.outbox.send(node, WorkerCommand::Preempt { task });
            }
        }
    }

    // ---- reporting -------------------------------------------------------

    pub(crate) fn report(&self) -> ServeReport {
        let pct = |xs: &[f64], q| {
            if xs.is_empty() {
                0
            } else {
                quantile(xs, q) as u64
            }
        };
        let lat: Vec<f64> = self.dispatch_us.iter().map(|&us| us as f64).collect();
        let offer: Vec<f64> = self.offer_us.iter().map(|&us| us as f64).collect();
        let jobs_submitted = self.jobs.iter().filter(|j| j.submitted.is_some()).count();
        let jobs_completed = self.jobs.iter().filter(|j| j.completed.is_some()).count();
        let lost_tasks = self
            .kill_pending
            .keys()
            .filter(|t| !matches!(self.stages[t.stage.index()].tasks[t.index], TaskSt::Done))
            .count();
        ServeReport {
            digest: self.trace.digest(),
            events_recorded: self.trace.recorded(),
            jobs_submitted,
            jobs_completed,
            launched: self.launched,
            completed: self.completed,
            failed: self.failed,
            lost_tasks,
            max_pending: self.max_pending,
            dispatch_p50_us: pct(&lat, 0.50),
            dispatch_p99_us: pct(&lat, 0.99),
            offer_rounds: self.round,
            offer_p50_us: pct(&offer, 0.50),
            offer_p95_us: pct(&offer, 0.95),
            stale_launch_drops: self.stale_drops,
            dead_launch_drops: self.dead_drops,
            autoscale_launch_drops: self.autoscale_drops,
            preempt_launch_drops: self.preempt_drops,
            preemptions: self.preemptions,
            provisions: self.provisions,
            decommissions: self.decommissions,
            abort: self.abort,
            makespan: SimDuration(self.now.0),
            clean: self.abort.is_none() && jobs_submitted == jobs_completed,
        }
    }
}

/// The serve driver builds its views from the same tables event
/// application mutates.
impl<S: EventSource<ServeEvent>> OfferHost for ServeDriver<'_, S> {
    fn node_view(&self, id: NodeId) -> NodeView {
        let st = &self.nodes[id.index()];
        let spec = self.cluster.node(id);
        let health = self.detector.health(id);
        let dead = health == NodeHealth::Dead;
        let now = self.now;
        let running: Vec<RunningTaskView> = st
            .running
            .iter()
            .map(|r| RunningTaskView {
                task: r.task,
                speculative: false,
                elapsed: now.since(r.launched_at),
                peak_mem: r.peak_mem,
                on_gpu: r.use_gpu,
            })
            .collect();
        let gpus_busy = st.running.iter().filter(|r| r.use_gpu).count() as u32;
        let draining = st.drain_deadline.is_some();
        let (tier, preempt_risk) = match &self.elastic {
            Some(ctl) if st.provisioned => (ctl.tier_of(id), ctl.risk_of(id)),
            Some(ctl) => (ctl.tier_of(id), 0.0),
            None => (NodeTier::OnDemand, 0.0),
        };
        NodeView {
            node: id,
            executor_mem: st.executor_mem,
            mem_in_use: st.mem_in_use,
            free_mem: st.executor_mem.saturating_sub(st.mem_in_use),
            cpu_util: (st.running.len() as f64 / spec.cores as f64).min(1.0),
            net_util: st.net_util,
            disk_util: st.disk_util,
            gpus_idle: spec.gpus.saturating_sub(gpus_busy),
            running,
            blocked: !st.registered || dead || !st.provisioned || draining,
            heartbeat_age: self.heartbeat_age(id),
            dead,
            suspect: health == NodeHealth::Suspect,
            tier,
            draining,
            preempt_risk,
        }
    }

    fn heartbeat_age(&self, node: NodeId) -> SimDuration {
        self.detector.age(node, self.now)
    }

    fn pending_view(&self, task: TaskRef, prefs: &mut ShufflePrefs) -> Option<PendingTaskView> {
        let stage = &self.stages[task.stage.index()];
        match stage.tasks[task.index] {
            TaskSt::Pending { attempt_no, .. } if stage.released => {
                Some(self.task_view(task, attempt_no, prefs))
            }
            _ => None,
        }
    }
}
