//! The serve driver: the engine's control loop re-hosted on a live
//! [`EventSource`].
//!
//! Time and execution live outside the driver: task execution happens
//! in worker agents, and "what fires next" comes from the event source —
//! a [`WallClockSource`] in live mode, a [`Calendar`] in replay mode.
//! Because every state transition is driven by a popped
//! `(SimTime, ServeEvent)` and nothing else, the trace digest of a live
//! run is a pure function of its input log: the replay harness re-runs
//! this same driver over the logged events and must produce a
//! byte-identical digest.
//!
//! The control layer is the sim engine's own. The driver owns a
//! [`ControlPlane`] and calls it for every task-level transition: job
//! submission and stage release, a won attempt, a failed one (the retry
//! limit and the task's peak-memory hint included), the lineage re-pend
//! after node loss through the map-output ledger, the pending views and
//! the offer state every round's input comes from, and the attempt table:
//! launch admission (the drop counters' reasons), each node's running
//! attempts, memory and heap, the attempts a kill stops, the records. The
//! fleet is the
//! control plane's too: worker beacons feed its failure detector, ticks
//! run its detector round and capacity-controller check, and node loss,
//! drain notices and their reclaim, and the fleet fields of each node
//! view are its rules. Both hosts publish [`EngineEvent`]s; the driver
//! records their trace projection into its [`TraceBuffer`]. The kill
//! outcome ([`KillReason::outcome`]) is shared too.
//!
//! What stays with the driver:
//!
//! * how an attempt runs: the worker outbox with the estimated durations
//!   workers hold their slots for and the kill each attempt was sent; the
//!   launch rules (no copies, the pending view's locality, a GPU only
//!   when asked for);
//! * the host's part of each node view ([`ControlHost`]): registration,
//!   slots and the NIC/disk utilisation workers report; serve workers
//!   hold no executor cache, so no pending view has `process_nodes`;
//! * the fleet rules' hooks: a lost node's attempts fail and its
//!   utilisation resets, detector-dead is down, registration is the join
//!   path (no provisioning latency), ticks scan for due drains, and
//!   sim-second tunables scale to wall time.
//!
//! [`WallClockSource`]: rupam_simcore::source::WallClockSource
//! [`Calendar`]: rupam_simcore::Calendar

use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::{MergedStream, TaskRef};
use rupam_exec::config::SimConfig;
use rupam_exec::control::{
    Attempt, AttemptId, ControlHost, ControlPlane, Fleet, Io, LaunchDrop, TaskState,
};
use rupam_exec::engine::{EngineEvent, EventCtx};
use rupam_exec::offer_state::ShufflePrefs;
use rupam_exec::scheduler::{Command, KillReason, NodeView, Scheduler};
use rupam_exec::EngineError;
use rupam_metrics::breakdown::BreakdownCategory;
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::{AbortCause, TraceBuffer};
use rupam_simcore::source::EventSource;
use rupam_simcore::stats::quantile;
use rupam_simcore::time::{SimDuration, SimTime};

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

#[derive(Clone, Default)]
struct NodeSt {
    registered: bool,
    /// NIC occupancy from the worker's last heartbeat payload.
    net_util: f64,
    /// Disk occupancy from the worker's last heartbeat payload.
    disk_util: f64,
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
    /// Speculative launch commands dropped: serve runs no copies, so
    /// RUPAM's GPU-race and relocation copies end here.
    pub copy_launch_drops: u64,
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
    /// Task, stage and job bookkeeping, the offer state and the fleet,
    /// shared with the sim engine. Spot workers register but stay
    /// blocked until the capacity controller provisions them.
    ctl: ControlPlane<'a>,
    trace: TraceBuffer,
    round: u64,
    draining: bool,
    abort: Option<AbortCause>,
    dispatch_us: Vec<u64>,
    max_pending: usize,
    /// Per attempt: why the driver asked its worker to kill it, if it did.
    kills: Vec<Option<KillReason>>,
    completed: u64,
    failed: u64,
    // ---- event-driven offer scheduling ----
    /// Stamp of the already-scheduled [`ServeEvent::Offer`], if any.
    offer_due: Option<SimTime>,
    last_offer_at: Option<SimTime>,
    /// The next capacity-controller check is due at this stamp.
    next_check: SimTime,
    // ---- instrumentation ----
    offer_us: Vec<u64>,
    /// Dropped launch commands, per [`LaunchDrop`] reason.
    launch_drops: [u64; 5],
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
        // the detector is always armed; the capacity controller draws
        // from a dedicated seeded RNG only while handling popped events,
        // so a replay of the input log reproduces its churn
        let ctl = ControlPlane::new(
            cluster,
            &cfg.sim,
            &catalog.app,
            &catalog.layout,
            Some(catalog),
            Fleet::new(
                cluster,
                &cfg.sim,
                true,
                StdRng::seed_from_u64(cfg.elastic_seed),
            ),
            &mut *sched,
        );
        ServeDriver {
            cluster,
            catalog,
            cfg,
            sched,
            source,
            outbox,
            now: SimTime::ZERO,
            nodes: vec![NodeSt::default(); cluster.len()],
            ctl,
            trace: TraceBuffer::new(rupam_metrics::trace::DEFAULT_TRACE_CAPACITY),
            round: 0,
            draining: false,
            abort: None,
            dispatch_us: Vec::new(),
            max_pending: 0,
            kills: Vec::new(),
            completed: 0,
            failed: 0,
            offer_due: None,
            last_offer_at: None,
            next_check: SimTime::ZERO + wall_secs(cfg.sim.elastic.check_secs, cfg.time_scale),
            offer_us: Vec::new(),
            launch_drops: [0; 5],
        }
    }

    /// Record `event`'s trace projection.
    fn publish(&mut self, event: EngineEvent) {
        self.io().1.publish(event);
    }

    /// End the run with `cause`.
    fn abort(&mut self, cause: AbortCause) {
        self.publish(EngineEvent::Aborted { cause, task: None });
        self.abort = Some(cause);
    }

    fn finished(&self) -> bool {
        let jobs = self.ctl.jobs();
        let submitted_done = (jobs.iter()).all(|j| !j.submitted || j.completed_at.is_some());
        let all_submitted = !jobs.is_empty() && jobs.iter().all(|j| j.submitted);
        self.abort.is_some() || (submitted_done && (self.draining || all_submitted))
    }

    /// Run to drain (or abort). [`EngineError::SourceDisconnected`] means
    /// every producer hung up while submitted work was incomplete.
    pub(crate) fn run(&mut self) -> Result<(), EngineError> {
        let tick = SimDuration((self.cfg.tick.as_micros() as u64).max(1));
        self.source.schedule(self.now + tick, ServeEvent::Tick);
        while !self.finished() {
            let Some((t, ev)) = self.source.pop() else {
                self.abort(AbortCause::SourceDisconnected);
                self.shutdown_workers();
                return Err(EngineError::SourceDisconnected { at: self.now });
            };
            self.now = t;
            debug_assert!(
                self.ctl.attempts_consistent(),
                "the running lists must hold exactly the live attempts, each once"
            );
            match ev {
                ServeEvent::Tick => {
                    self.sched.on_heartbeat(self.now);
                    ControlPlane::detector_round(self);
                    self.elastic_tick();
                    if let Some(max) = self.cfg.max_wall {
                        if self.now >= SimTime(max.as_micros() as u64) && !self.finished() {
                            self.abort(AbortCause::Livelock);
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
            ClientRequest::Submit { job } => {
                // an unknown or duplicate job id is ignored like a
                // malformed RPC
                let (ctl, mut io) = self.io();
                if ctl.submit_job(job, &mut io) {
                    self.request_offers();
                }
            }
            ClientRequest::Drain => self.draining = true,
        }
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
                    let mem = self.ctl.executor_mem(worker);
                    self.publish(EngineEvent::ExecutorSized { node: worker, mem });
                }
                // a re-registering worker starts with an empty slot set
                let nst = &mut self.nodes[worker.index()];
                nst.net_util = 0.0;
                nst.disk_util = 0.0;
                self.ctl.offers().node_dirty(worker);
                ControlPlane::beacon(self, worker);
                self.request_offers();
            }
            WorkerReport::Heartbeat {
                net_util,
                disk_util,
            } => {
                ControlPlane::beacon(self, worker);
                let nst = &mut self.nodes[worker.index()];
                if nst.net_util != net_util || nst.disk_util != disk_util {
                    nst.net_util = net_util;
                    nst.disk_util = disk_util;
                    // utilisation drift alone creates no dispatchable
                    // work — mark the view stale but let the next
                    // triggered round pick it up (no offer request, so
                    // heartbeat storms cannot thrash rounds)
                    self.ctl.offers().node_dirty(worker);
                }
            }
            WorkerReport::Completed { task, attempt } => {
                self.attempt_ended(worker, task, attempt, None)
            }
            WorkerReport::Failed {
                task,
                attempt,
                reason,
            } => self.attempt_ended(worker, task, attempt, Some(reason)),
        }
    }

    /// `worker` reports that an attempt completed, or failed.
    fn attempt_ended(
        &mut self,
        worker: NodeId,
        task: TaskRef,
        attempt: u32,
        failure: Option<TaskFailure>,
    ) {
        // a report for an attempt the server no longer tracks (node was
        // declared dead and the task re-queued, or a preempt raced a
        // completion) is stale — drop it, the authoritative copy wins
        let ctl = &self.ctl;
        let Some(id) = (ctl.running(worker).iter().copied()).find(|&id| {
            let a = ctl.attempt(id);
            (a.task, a.attempt_no) == (task, attempt)
        }) else {
            return;
        };
        debug_assert!(matches!(
            ctl.task(task),
            TaskState::Running { attempts } if attempts == &[id]
        ));
        let outcome = match failure {
            None => {
                self.completed += 1;
                let record = self.end_attempt(id, AttemptOutcome::Success);
                let (ctl, mut io) = self.io();
                ctl.attempt_finished(&record, &mut io);
                self.request_offers();
                return;
            }
            Some(TaskFailure::Oom) => {
                let pressure_pct = ctl.pressure_pct(worker);
                self.publish(EngineEvent::OomTaskKill {
                    task,
                    node: worker,
                    pressure_pct,
                });
                AttemptOutcome::OomFailure
            }
            // workers preempt only on the driver's command; a kill the
            // driver did not order is the node reclaiming its slot
            Some(TaskFailure::Preempted) => {
                (self.kills[id]).map_or(AttemptOutcome::NodeFaulted, KillReason::outcome)
            }
        };
        self.fail_attempt(id, outcome);
    }

    /// Attempt `id` ends as `outcome`; its breakdown is the estimate its
    /// worker held the slot for.
    fn end_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) -> TaskRecord {
        let a = self.ctl.attempt(id);
        let demand = &self.catalog.app.stage(a.task.stage).tasks[a.task.index].demand;
        let (_, breakdown) = estimate(demand, self.cluster.node(a.node), a.used_gpu);
        self.ctl.end_attempt(id, outcome, self.now, breakdown)
    }

    /// A running attempt failed: the control plane re-pends its task, or
    /// aborts the run once its retries are exhausted.
    fn fail_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) {
        self.failed += 1;
        let record = self.end_attempt(id, outcome);
        let (ctl, mut io) = self.io();
        if ctl.attempt_failed(id, &record, &mut io) {
            self.abort = Some(AbortCause::RetriesExhausted);
        }
        self.request_offers();
    }

    /// The capacity controller's side of a tick: reclaim nodes whose
    /// drain notice is due, and — at the (scaled) check cadence — run
    /// the control plane's controller check. Pure function of the popped
    /// event order, so replay reproduces the identical churn.
    fn elastic_tick(&mut self) {
        if !self.ctl.fleet().scaling() {
            return;
        }
        for i in 0..self.nodes.len() {
            let node = NodeId(i);
            if !self.ctl.fleet().drain_due(node, self.now) {
                continue;
            }
            // free the worker's slots; its failure reports arrive as
            // stale (the reclaim fails the authoritative attempts)
            for &id in self.ctl.running(node) {
                let task = self.ctl.attempt(id).task;
                self.outbox.send(node, WorkerCommand::Preempt { task });
            }
            ControlPlane::reclaim(self, node);
        }
        if self.now >= self.next_check && self.abort.is_none() {
            let ecfg = &self.cfg.sim.elastic;
            self.next_check = self.now + wall_secs(ecfg.check_secs, self.cfg.time_scale);
            ControlPlane::controller_check(self);
        }
    }

    // ---- offers ----------------------------------------------------------

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
        let now = self.now;
        let input = ControlPlane::offer_input(self, now);
        let running_total: usize = input.nodes.iter().map(|v| v.running.len()).sum();
        let blocked_count = input.nodes.iter().filter(|v| v.blocked).count();
        self.max_pending = self.max_pending.max(input.pending.len());
        let commands = self.sched.offer_round(&input);
        self.publish(EngineEvent::OfferRound {
            pending: input.pending.len(),
            running: running_total,
            blocked: blocked_count,
            commands: commands.len(),
        });
        self.ctl.settle(input, &commands);
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
                // serve mode offers no speculatable set and runs no copies
                let nodes = &self.nodes;
                let admitted = match speculative {
                    true => Err(LaunchDrop::Copy),
                    false => (self.ctl).admit(task, node, false, |n| nodes[n.index()].registered),
                };
                // a launch the cluster's state went past is a lost RPC;
                // the task stays pending, and the offer state lists it
                // fresh next round
                let attempt_no = match admitted {
                    Ok(attempt_no) => attempt_no,
                    Err(drop) => return self.launch_drops[drop as usize] += 1,
                };
                let TaskState::Pending { since, .. } = *self.ctl.task(task) else {
                    unreachable!("an admitted original is pending");
                };
                let demand = &self.catalog.app.stage(task.stage).tasks[task.index].demand;
                let spec = self.cluster.node(node);
                let gpu = use_gpu && spec.gpus > 0 && demand.is_gpu_capable();
                let (dur, breakdown) = estimate(demand, spec, gpu);
                let locality = (self.ctl)
                    .task_view(self, task, attempt_no, &mut ShufflePrefs::default())
                    .locality(self.cluster, node);
                let attempt = Attempt {
                    task,
                    attempt_no,
                    node,
                    speculative: false,
                    locality,
                    launched_at: self.now,
                    peak_mem: demand.peak_mem,
                    used_gpu: gpu,
                    alive: true,
                };
                let (ctl, mut io) = self.io();
                ctl.register(attempt, reason, &mut io);
                self.kills.push(None);
                self.dispatch_us.push(self.now.since(since).0);
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
            // the attempt stays running until the worker confirms with
            // Failed { Preempted } — the confirmation is an external
            // event, so replay sees the same ordering
            Command::KillAndRequeue { task, node, reason } => {
                let (ctl, mut io) = self.io();
                for id in ctl.kill_requeue(task, node, &mut io) {
                    self.kills[id] = Some(reason);
                    self.outbox.send(node, WorkerCommand::Preempt { task });
                }
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
        let jobs = self.ctl.jobs();
        let jobs_submitted = jobs.iter().filter(|j| j.submitted).count();
        let jobs_completed = jobs.iter().filter(|j| j.completed_at.is_some()).count();
        let cost = self.ctl.fleet().cost();
        ServeReport {
            digest: self.trace.digest(),
            events_recorded: self.trace.recorded(),
            jobs_submitted,
            jobs_completed,
            launched: self.ctl.launches() as u64,
            completed: self.completed,
            failed: self.failed,
            lost_tasks: self.ctl.lost_tasks().len(),
            max_pending: self.max_pending,
            dispatch_p50_us: pct(&lat, 0.50),
            dispatch_p99_us: pct(&lat, 0.99),
            offer_rounds: self.round,
            offer_p50_us: pct(&offer, 0.50),
            offer_p95_us: pct(&offer, 0.95),
            stale_launch_drops: self.launch_drops[LaunchDrop::Stale as usize],
            dead_launch_drops: self.launch_drops[LaunchDrop::Dead as usize],
            autoscale_launch_drops: self.launch_drops[LaunchDrop::Autoscale as usize],
            preempt_launch_drops: self.launch_drops[LaunchDrop::Preempt as usize],
            copy_launch_drops: self.launch_drops[LaunchDrop::Copy as usize],
            preemptions: cost.preemptions as u64,
            provisions: cost.provisions as u64,
            decommissions: cost.decommissions as u64,
            abort: self.abort,
            makespan: SimDuration(self.now.0),
            clean: self.abort.is_none() && jobs_submitted == jobs_completed,
        }
    }
}

/// The serve driver lends the control plane its worker table, the worker
/// outbox and its wall clock.
impl<'a, S: EventSource<ServeEvent>> ControlHost<'a> for ServeDriver<'a, S> {
    fn control(&self) -> &ControlPlane<'a> {
        &self.ctl
    }

    fn control_mut(&mut self) -> &mut ControlPlane<'a> {
        &mut self.ctl
    }

    fn io(&mut self) -> (&mut ControlPlane<'a>, Io<'_>) {
        let ctx = EventCtx {
            at: self.now,
            round: self.round,
        };
        let (sched, sink) = (&mut *self.sched, &mut self.trace);
        (&mut self.ctl, Io { ctx, sched, sink })
    }

    fn now(&self) -> SimTime {
        self.now
    }

    /// Busy cores and GPUs from the running attempts, NIC and disk from
    /// the worker's heartbeats; blocked until the node's worker registers.
    fn host_view(&self, view: &mut NodeView) {
        let st = &self.nodes[view.node.index()];
        let spec = self.cluster.node(view.node);
        let gpus_busy = view.running.iter().filter(|r| r.on_gpu).count() as u32;
        view.cpu_util = (view.running.len() as f64 / spec.cores as f64).min(1.0);
        view.net_util = st.net_util;
        view.disk_util = st.disk_util;
        view.gpus_idle = spec.gpus.saturating_sub(gpus_busy);
        view.blocked = !st.registered;
    }

    fn stop_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) {
        self.fail_attempt(id, outcome);
    }

    /// The worker's reported utilisation resets with its slots.
    fn wipe(&mut self, node: NodeId) {
        let nst = &mut self.nodes[node.index()];
        nst.net_util = 0.0;
        nst.disk_util = 0.0;
    }

    fn host_duration(&self, secs: f64) -> SimDuration {
        wall_secs(secs, self.cfg.time_scale)
    }

    fn host_secs(&self, secs: f64) -> f64 {
        secs * self.cfg.time_scale
    }

    fn wake(&mut self) {
        self.request_offers();
    }
}

#[cfg(test)]
mod tests {
    use rupam_exec::testutil::FifoScheduler;
    use rupam_metrics::trace::TraceEventKind;
    use rupam_simcore::Calendar;

    use super::*;
    use crate::proto::{Frame, WorkerMsg};
    use crate::testbed::{build_fleet, pressure_stream};

    /// A suspect node whose heartbeats catch up before the dead threshold
    /// never left the rankings: serve records its `NodeSuspect` but, like
    /// the engine, no `NodeRecovered`. Of eight beaconing workers, node 1
    /// sends none between 0.5 ms and 5 ms (suspect at the 3 ms tick,
    /// alive again at the 5 ms one).
    #[test]
    fn suspect_that_catches_up_is_not_recorded_as_recovered() {
        let cluster = build_fleet(8);
        let catalog = pressure_stream(1, 1);
        let mut cfg = ServeConfig {
            tick: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        cfg.sim.faults.suspect_after = SimDuration(2_000);
        cfg.sim.faults.dead_after = SimDuration(10_000);
        let mut cal = Calendar::new();
        let mut report = |at: u64, node: usize, body| {
            let frame = Frame { seq: at, body };
            let msg = WorkerMsg {
                worker: NodeId(node),
                frame,
            };
            cal.schedule(SimTime(at), ServeEvent::Worker(msg));
        };
        for node in 0..8 {
            report(0, node, WorkerReport::Register);
        }
        for at in (500..8_000).step_by(500) {
            for node in 0..8 {
                if node != 1 || !(1_000..5_000).contains(&at) {
                    let (net_util, disk_util) = (0.0, 0.0);
                    report(
                        at,
                        node,
                        WorkerReport::Heartbeat {
                            net_util,
                            disk_util,
                        },
                    );
                }
            }
        }
        let drain = Frame {
            seq: 0,
            body: ClientRequest::Drain,
        };
        cal.schedule(SimTime(8_000), ServeEvent::Client(drain));
        let mut sched = FifoScheduler::new();
        let mut drv = ServeDriver::new(&cluster, &catalog, &cfg, &mut sched, cal, Outbox::Replay);
        drv.run().expect("replay runs");
        let health: Vec<TraceEventKind> = (drv.trace.iter())
            .map(|e| e.kind.clone())
            .filter(|k| {
                matches!(
                    k,
                    TraceEventKind::NodeSuspect { .. } | TraceEventKind::NodeRecovered { .. }
                )
            })
            .collect();
        assert_eq!(
            health,
            vec![TraceEventKind::NodeSuspect {
                node: NodeId(1),
                age: SimDuration(2_500),
            }]
        );
    }
}
