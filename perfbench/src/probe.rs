//! Instruments attached at the public layer boundaries: a scheduler
//! wrapper that times every callback into `core`, a subscriber that
//! counts engine events, and a subscriber wrapper that times the
//! built-in trace and audit subscribers. None of them changes what the
//! wrapped component decides.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, JobId, Stage, StageId};
use rupam_dag::TaskRef;
use rupam_exec::audit::Violation;
use rupam_exec::{
    BusStage, Command, EngineEvent, EventCtx, KillReason, OfferInput, Scheduler, Subscriber,
};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::report::FaultSummary;
use rupam_metrics::trace::{AbortCause, TraceBuffer};
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

/// Host time spent in one callback, with one sample per call.
#[derive(Clone, Debug, Default)]
pub struct Callback {
    pub samples_ns: Vec<u64>,
}

impl Callback {
    fn add(&mut self, started: Instant) {
        self.samples_ns.push(started.elapsed().as_nanos() as u64);
    }

    pub fn calls(&self) -> u64 {
        self.samples_ns.len() as u64
    }

    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }

    /// Samples in microseconds, for percentiles.
    pub fn samples_us(&self) -> Vec<f64> {
        self.samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    }
}

/// What the scheduler boundary saw over one run.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub offer_round: Callback,
    pub on_task_finished: Callback,
    pub on_task_failed: Callback,
    pub on_stage_ready: Callback,
    pub on_heartbeat: Callback,
    /// Set-up and bookkeeping callbacks (`on_app_start`,
    /// `executor_memory`, `on_job_submitted`).
    pub other: Callback,
    /// The scheduler's self-audit, run for the invariant auditor.
    pub audit_round: Callback,
    /// Offer-input shape, summed over rounds.
    pub nodes_sum: u64,
    pub changed_sum: u64,
    pub pending_sum: u64,
    pub pending_max: u64,
    pub launches: u64,
    pub empty_rounds: u64,
    pub kills_quota_preempt: u64,
    pub kills_memory_straggler: u64,
}

impl CallStats {
    /// Add another run's figures to these.
    pub fn merge(&mut self, other: &CallStats) {
        for (into, from) in [
            (&mut self.offer_round, &other.offer_round),
            (&mut self.on_task_finished, &other.on_task_finished),
            (&mut self.on_task_failed, &other.on_task_failed),
            (&mut self.on_stage_ready, &other.on_stage_ready),
            (&mut self.on_heartbeat, &other.on_heartbeat),
            (&mut self.other, &other.other),
            (&mut self.audit_round, &other.audit_round),
        ] {
            into.samples_ns.extend_from_slice(&from.samples_ns);
        }
        self.nodes_sum += other.nodes_sum;
        self.changed_sum += other.changed_sum;
        self.pending_sum += other.pending_sum;
        self.pending_max = self.pending_max.max(other.pending_max);
        self.launches += other.launches;
        self.empty_rounds += other.empty_rounds;
        self.kills_quota_preempt += other.kills_quota_preempt;
        self.kills_memory_straggler += other.kills_memory_straggler;
    }

    /// Host time inside the scheduler's own callbacks (audit excluded).
    pub fn scheduler_ns(&self) -> u64 {
        [
            &self.offer_round,
            &self.on_task_finished,
            &self.on_task_failed,
            &self.on_stage_ready,
            &self.on_heartbeat,
            &self.other,
        ]
        .iter()
        .map(|c| c.total_ns())
        .sum()
    }
}

/// Wraps a scheduler and times each callback into it.
pub struct TimedScheduler<S> {
    inner: S,
    stats: Arc<Mutex<CallStats>>,
}

impl<S: Scheduler> TimedScheduler<S> {
    pub fn new(inner: S) -> (Self, Arc<Mutex<CallStats>>) {
        let stats = Arc::new(Mutex::new(CallStats::default()));
        let wrapper = TimedScheduler {
            inner,
            stats: Arc::clone(&stats),
        };
        (wrapper, stats)
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn timed<R>(
        &mut self,
        pick: fn(&mut CallStats) -> &mut Callback,
        f: impl FnOnce(&mut S) -> R,
    ) -> R {
        let started = Instant::now();
        let out = f(&mut self.inner);
        pick(&mut self.stats.lock().expect("stats lock poisoned")).add(started);
        out
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        let started = Instant::now();
        let out = self.inner.executor_memory(cluster, node);
        self.stats
            .lock()
            .expect("stats lock poisoned")
            .other
            .add(started);
        out
    }

    fn decision_cost(&self) -> SimDuration {
        self.inner.decision_cost()
    }

    fn on_app_start(&mut self, app: &Application, cluster: &ClusterSpec) {
        self.timed(|s| &mut s.other, |i| i.on_app_start(app, cluster))
    }

    fn on_job_submitted(&mut self, job: JobId, stages: &[StageId], now: SimTime) {
        self.timed(|s| &mut s.other, |i| i.on_job_submitted(job, stages, now))
    }

    fn on_stage_ready(&mut self, stage: &Stage, now: SimTime) {
        self.timed(|s| &mut s.on_stage_ready, |i| i.on_stage_ready(stage, now))
    }

    fn on_task_finished(&mut self, record: &TaskRecord, now: SimTime) {
        self.timed(
            |s| &mut s.on_task_finished,
            |i| i.on_task_finished(record, now),
        )
    }

    fn on_task_failed(
        &mut self,
        task: TaskRef,
        node: NodeId,
        outcome: AttemptOutcome,
        now: SimTime,
    ) {
        self.timed(
            |s| &mut s.on_task_failed,
            |i| i.on_task_failed(task, node, outcome, now),
        )
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let commands = self.timed(|s| &mut s.offer_round, |i| i.offer_round(input));
        let mut st = self.stats.lock().expect("stats lock poisoned");
        let nodes = input.nodes.len() as u64;
        st.nodes_sum += nodes;
        st.changed_sum += input.changed.as_ref().map_or(nodes, |c| c.len() as u64);
        st.pending_sum += input.pending.len() as u64;
        st.pending_max = st.pending_max.max(input.pending.len() as u64);
        if commands.is_empty() {
            st.empty_rounds += 1;
        }
        for cmd in &commands {
            match cmd {
                Command::Launch { .. } => st.launches += 1,
                Command::KillAndRequeue { reason, .. } => match reason {
                    KillReason::QuotaPreempt => st.kills_quota_preempt += 1,
                    KillReason::MemoryStraggler => st.kills_memory_straggler += 1,
                },
            }
        }
        commands
    }

    fn audit_round(&self, input: &OfferInput<'_>) -> Vec<String> {
        let started = Instant::now();
        let out = self.inner.audit_round(input);
        self.stats
            .lock()
            .expect("stats lock poisoned")
            .audit_round
            .add(started);
        out
    }

    fn on_heartbeat(&mut self, now: SimTime) {
        self.timed(|s| &mut s.on_heartbeat, |i| i.on_heartbeat(now))
    }
}

/// Engine events by kind, as the bus delivered them.
#[derive(Clone, Debug, Default)]
pub struct EventCounts {
    pub launch: u64,
    pub kill_requeue: u64,
    pub oom_task_kill: u64,
    pub executor_lost: u64,
    pub speculation_flagged: u64,
    /// Cause of the first abort, if the run aborted.
    pub abort_cause: Option<AbortCause>,
    pub lost_task: u64,
}

/// Counts every event on the engine bus.
pub struct CountingSubscriber {
    counts: Rc<RefCell<EventCounts>>,
}

impl CountingSubscriber {
    pub fn new() -> (Self, Rc<RefCell<EventCounts>>) {
        let counts = Rc::new(RefCell::new(EventCounts::default()));
        (
            CountingSubscriber {
                counts: Rc::clone(&counts),
            },
            counts,
        )
    }
}

impl Subscriber for CountingSubscriber {
    fn name(&self) -> &'static str {
        "perfbench-count"
    }

    fn stage(&self) -> BusStage {
        BusStage::Statistics
    }

    fn on_event(&mut self, _ctx: &EventCtx, event: &EngineEvent) {
        let mut c = self.counts.borrow_mut();
        match event {
            EngineEvent::Launch { .. } => c.launch += 1,
            EngineEvent::KillRequeue { .. } => c.kill_requeue += 1,
            EngineEvent::OomTaskKill { .. } => c.oom_task_kill += 1,
            EngineEvent::ExecutorLost { .. } => c.executor_lost += 1,
            EngineEvent::SpeculationFlagged { .. } => c.speculation_flagged += 1,
            EngineEvent::Aborted { cause, .. } => {
                c.abort_cause.get_or_insert(*cause);
            }
            EngineEvent::LostTask { .. } => c.lost_task += 1,
            _ => {}
        }
    }
}

/// Times a subscriber's event handling and audit hook; everything else
/// passes straight through.
pub struct TimedSubscriber<T> {
    inner: T,
    busy_ns: Rc<Cell<u64>>,
}

impl<T: Subscriber> TimedSubscriber<T> {
    /// The wrapper plus a shared total of nanoseconds spent inside it.
    pub fn new(inner: T, busy_ns: Rc<Cell<u64>>) -> Self {
        TimedSubscriber { inner, busy_ns }
    }

    fn charge(&self, started: Instant) {
        self.busy_ns
            .set(self.busy_ns.get() + started.elapsed().as_nanos() as u64);
    }
}

impl<T: Subscriber> Subscriber for TimedSubscriber<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stage(&self) -> BusStage {
        self.inner.stage()
    }

    fn on_event(&mut self, ctx: &EventCtx, event: &EngineEvent) {
        let started = Instant::now();
        self.inner.on_event(ctx, event);
        self.charge(started);
    }

    fn is_trace_sink(&self) -> bool {
        self.inner.is_trace_sink()
    }

    fn is_audit_sink(&self) -> bool {
        self.inner.is_audit_sink()
    }

    fn on_offer_audit(
        &mut self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        findings: &[String],
    ) -> Vec<Violation> {
        let started = Instant::now();
        let out = self.inner.on_offer_audit(round, input, commands, findings);
        self.charge(started);
        out
    }

    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.inner.take_trace()
    }

    fn take_violations(&mut self) -> Vec<Violation> {
        self.inner.take_violations()
    }

    fn take_faults(&mut self) -> Option<FaultSummary> {
        self.inner.take_faults()
    }
}
