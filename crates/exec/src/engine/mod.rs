//! The simulation driver, as a staged event-bus architecture.
//!
//! A deterministic discrete-event simulation of a Spark-like cluster
//! engine with a *fluid* contention model: every running task attempt is
//! a queue of resource phases (see [`crate::costmodel`]); tasks in the
//! same phase class on a node share that resource equally; after every
//! event the engine advances every live attempt's remaining work exactly
//! and recomputes completion times, so rate changes never go stale.
//!
//! The engine owns physics (execution rates, memory, OOM, executor loss,
//! race resolution, which nodes are physically up); *policy* lives
//! entirely in the [`Scheduler`] implementation it drives, and
//! bookkeeping in the [`ControlPlane`] it shares with the serve driver:
//! tasks, stages and jobs (submission, stage release, a won or failed
//! attempt, the lineage re-pend after node loss, the pending views and
//! the offer state), the attempts (launch admission, each node's running
//! list and memory, the records) and the fleet (the failure detector,
//! node loss, the capacity controller, drain notices and reclaims).
//! Structurally the engine is split around two seams:
//!
//! * **`state`** — one `ClusterState` (how each attempt runs, the nodes'
//!   caches and physical faults) owned by the core loop (`driver`)
//!   beside the control plane, and mutated only by the subsystem modules:
//!   `lifecycle` (launch/finish/fail/race), `heartbeat` (detector
//!   beacons + livelock guard), `recovery` (chaos faults, drain
//!   reclaims, OOM), `speculation` (straggler flagging), `caching`
//!   (cache scoping + the cache's dirty marks) and `offers` (the
//!   engine's [`ControlHost`](crate::control::ControlHost) side + round).
//! * **[`events`]** — a typed, deterministically-ordered
//!   [`EngineEvent`] bus through which everything that *observes* the
//!   simulation hangs off: trace emission, fault statistics and the
//!   invariant auditor ([`emit`]), plus any caller-supplied
//!   [`Subscriber`] (see [`simulate_observed_with`]).
//!
//! Subscribers cannot mutate simulation state, so observability never
//! perturbs a run: the report of a traced/audited run is identical to an
//! untraced run of the same inputs, and the decision-trace digest is a
//! pure function of `(code, cluster, workload, seed)`.

mod caching;
mod driver;
pub mod emit;
pub mod events;
mod heartbeat;
mod lifecycle;
mod offers;
mod recovery;
mod speculation;
mod state;
#[cfg(test)]
mod tests;

use std::collections::HashMap;

use rupam_cluster::monitor::NodeMetrics;
use rupam_cluster::{ClusterSpec, NodeId, ResourceMonitor};
use rupam_dag::app::{Application, JobId};
use rupam_dag::data::DataLayout;
use rupam_dag::stream::MergedStream;
use rupam_metrics::report::{JobOutcome, RunReport};
use rupam_metrics::trace::{AbortCause, TraceBuffer, DEFAULT_TRACE_CAPACITY};
use rupam_simcore::calendar::Calendar;
use rupam_simcore::rng::RngFactory;
use rupam_simcore::time::SimTime;

use crate::audit::{AuditConfig, Violation};
use crate::cache::ExecutorCache;
use crate::config::SimConfig;
use crate::control::{ControlPlane, Fleet};
use crate::scheduler::Scheduler;
use crate::speculation::SpeculationSet;

use driver::Engine;
use state::{ClusterState, NodeRt};

pub use emit::{AuditRelay, FaultStats, TraceEmitter};
pub use events::{
    lost_task_detail, BusStage, EngineEvent, EventBus, EventCtx, EventSink, Subscriber,
};

/// Work below this is considered complete (unit-scale epsilon).
pub(crate) const WORK_EPS: f64 = 1e-7;

/// Typed failures of the core loop. These are *graceful* ends: callers
/// (`run_sim`) convert them into an aborted [`RunReport`] instead of
/// panicking mid-simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Nothing running and nothing on the calendar while stages remain
    /// incomplete — progress is impossible (e.g. a fault script crashed
    /// every node and recovery has nowhere to go).
    CalendarExhausted {
        /// Simulation time at which the calendar ran dry.
        at: SimTime,
    },
    /// The event source's input channel disconnected while work was
    /// still outstanding (serve mode: every producer hung up before the
    /// stream drained). Never produced by the deterministic calendar.
    SourceDisconnected {
        /// Time of the last successfully popped event.
        at: SimTime,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CalendarExhausted { at } => {
                write!(f, "event calendar exhausted at {at} with stages incomplete")
            }
            EngineError::SourceDisconnected { at } => {
                write!(f, "event source disconnected at {at} with work outstanding")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Everything a single-application run needs.
pub struct SimInput<'a> {
    /// The cluster to run on.
    pub cluster: &'a ClusterSpec,
    /// The application to execute.
    pub app: &'a Application,
    /// HDFS block placement for the application's input.
    pub layout: &'a DataLayout,
    /// Simulation tunables.
    pub config: &'a SimConfig,
    /// Experiment seed (failure-model draws derive from it).
    pub seed: u64,
}

/// Everything a multi-tenant run needs: a [`MergedStream`] (built by
/// [`rupam_dag::JobStream::merge`]) carries the merged application, the
/// combined HDFS layout and the per-job arrival times.
pub struct StreamInput<'a> {
    /// The cluster to run on.
    pub cluster: &'a ClusterSpec,
    /// The merged job stream to execute.
    pub stream: &'a MergedStream,
    /// Simulation tunables.
    pub config: &'a SimConfig,
    /// Experiment seed (failure-model draws derive from it).
    pub seed: u64,
}

/// Observability switches for a run. [`Default`] turns everything off —
/// the plain [`simulate`] path pays no tracing or auditing cost.
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Record decision traces into a ring of this capacity (`Some(0)` is
    /// digest-only: nothing retained, every event still hashed). `None`
    /// disables tracing entirely.
    pub trace_capacity: Option<usize>,
    /// Run the [`crate::audit::InvariantAuditor`] after every offer
    /// round.
    pub audit: Option<AuditConfig>,
}

impl SimOptions {
    /// Tracing at the default ring capacity, no auditing.
    pub fn traced() -> Self {
        SimOptions {
            trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
            audit: None,
        }
    }

    /// Tracing plus auditing at default settings.
    pub fn audited() -> Self {
        SimOptions {
            trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
            audit: Some(AuditConfig::default()),
        }
    }
}

/// What a traced/audited run observed, alongside its [`RunReport`].
#[derive(Debug, Default)]
pub struct SimObservation {
    /// The decision trace, when tracing was enabled.
    pub trace: Option<TraceBuffer>,
    /// Invariant violations, when auditing was enabled.
    pub violations: Vec<Violation>,
}

/// Run `app` on `cluster` under `scheduler`; returns the full report.
pub fn simulate(input: &SimInput<'_>, scheduler: &mut dyn Scheduler) -> RunReport {
    simulate_observed(input, scheduler, &SimOptions::default()).0
}

/// Like [`simulate`], but with decision tracing and/or invariant
/// auditing per `opts`. The report is identical to an untraced run of
/// the same inputs — observability never perturbs the simulation.
pub fn simulate_observed(
    input: &SimInput<'_>,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> (RunReport, SimObservation) {
    run_sim(input, None, scheduler, opts, Vec::new())
}

/// Like [`simulate_observed`], with additional caller-supplied bus
/// subscribers attached for the duration of the run. Subscribers see
/// every published [`EngineEvent`] in the bus's canonical dispatch
/// order, which is independent of the order of `subscribers`.
pub fn simulate_observed_with(
    input: &SimInput<'_>,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    subscribers: Vec<Box<dyn Subscriber>>,
) -> (RunReport, SimObservation) {
    run_sim(input, None, scheduler, opts, subscribers)
}

/// Run a stream of jobs arriving over time against one long-lived
/// scheduler instance; [`simulate`] is the 1-job special case. Each
/// stream job's chain of app-jobs stays gated until its arrival; the
/// report carries per-job completion times ([`RunReport::jobs`]).
pub fn simulate_stream(input: &StreamInput<'_>, scheduler: &mut dyn Scheduler) -> RunReport {
    simulate_stream_observed(input, scheduler, &SimOptions::default()).0
}

/// Like [`simulate_stream`], but with decision tracing and/or invariant
/// auditing per `opts`.
pub fn simulate_stream_observed(
    input: &StreamInput<'_>,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> (RunReport, SimObservation) {
    simulate_stream_observed_with(input, scheduler, opts, Vec::new())
}

/// Like [`simulate_stream_observed`], with additional caller-supplied
/// bus subscribers (see [`simulate_observed_with`]).
pub fn simulate_stream_observed_with(
    input: &StreamInput<'_>,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    subscribers: Vec<Box<dyn Subscriber>>,
) -> (RunReport, SimObservation) {
    let sim_input = SimInput {
        cluster: input.cluster,
        app: &input.stream.app,
        layout: &input.stream.layout,
        config: input.config,
        seed: input.seed,
    };
    run_sim(&sim_input, Some(input.stream), scheduler, opts, subscribers)
}

/// Build a ready-to-run [`Engine`] from the inputs: the control plane
/// with its fleet and executor heaps, runtime state, and the RNG
/// streams. Split from
/// [`run_sim`] so engine unit tests can drive the loop directly.
pub(crate) fn assemble<'a, 's>(
    input: &'a SimInput<'a>,
    stream: Option<&MergedStream>,
    scheduler: &'s mut dyn Scheduler,
    bus: EventBus,
) -> Engine<'a, 's> {
    let cluster = input.cluster;
    let cfg = input.config;
    // the detector is armed only by a chaos script, and the capacity
    // controller's draws come from their own `engine/elastic` stream,
    // so an empty script leaves every other stream byte-identical
    let ctl = ControlPlane::new(
        cluster,
        cfg,
        input.app,
        input.layout,
        stream,
        Fleet::new(
            cluster,
            cfg,
            !cfg.faults.script.is_empty(),
            RngFactory::new(input.seed).stream("engine/elastic"),
        ),
        scheduler,
    );
    let nodes: Vec<NodeRt> = cluster
        .iter()
        .map(|(id, spec)| {
            let executor_mem = ctl.executor_mem(id);
            NodeRt {
                cache: ExecutorCache::new(executor_mem.scale(cfg.mem.storage_fraction)),
                blocked_until: SimTime::ZERO,
                oom_epoch: 0,
                oom_scheduled: false,
                last_metrics: NodeMetrics {
                    free_mem: executor_mem,
                    gpus_idle: spec.gpus,
                    ..NodeMetrics::default()
                },
                crashed: false,
                slow_factor: 1.0,
                slow_epoch: 0,
                flaky_epoch: 0,
                hb_dropout_until: SimTime::ZERO,
                flaky_until: SimTime::ZERO,
                flaky_prob: 0.0,
            }
        })
        .collect();

    let mut engine = Engine {
        input,
        sched: scheduler,
        source: Calendar::new(),
        now: SimTime::ZERO,
        state: ClusterState {
            attempts: Vec::new(),
            nodes,
            finished_secs: vec![Vec::new(); input.app.stages.len()],
            spec_set: SpeculationSet::new(),
        },
        ctl,
        monitor: ResourceMonitor::new(cluster),
        records: Vec::new(),
        rng_fail: RngFactory::new(input.seed).stream("engine/failures"),
        rng_faults: RngFactory::new(input.seed).stream("engine/faults"),
        oom_failures: 0,
        executor_losses: 0,
        speculative_launched: 0,
        speculative_wins: 0,
        aborted: false,
        need_offers: true,
        idle_heartbeats: 0,
        bus,
        round: 0,
        cache_readers: HashMap::new(),
        hb_scratch: Vec::new(),
    };
    engine.cache_readers = engine.cache_reader_index();
    engine
}

fn run_sim(
    input: &SimInput<'_>,
    stream: Option<&MergedStream>,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    extra: Vec<Box<dyn Subscriber>>,
) -> (RunReport, SimObservation) {
    // assemble the bus: statistics always, trace/audit per options, then
    // whatever the caller brought — registration order is irrelevant by
    // construction (the bus dispatches in canonical (stage, name) order)
    let mut bus = EventBus::new();
    bus.register(Box::new(FaultStats::new()));
    if let Some(cap) = opts.trace_capacity {
        bus.register(Box::new(TraceEmitter::new(cap)));
    }
    if let Some(audit_cfg) = opts.audit.clone() {
        bus.register(Box::new(AuditRelay::new(audit_cfg)));
    }
    for sub in extra {
        bus.register(sub);
    }

    let mut sim = assemble(input, stream, scheduler, bus);
    for i in 0..sim.state.nodes.len() {
        let node = NodeId(i);
        let mem = sim.ctl.executor_mem(node);
        sim.publish(EngineEvent::ExecutorSized { node, mem });
    }
    if let Err(err) = sim.run() {
        sim.aborted = true;
        sim.publish(EngineEvent::Aborted {
            cause: match err {
                EngineError::CalendarExhausted { .. } => AbortCause::CalendarExhausted,
                EngineError::SourceDisconnected { .. } => AbortCause::SourceDisconnected,
            },
            task: None,
        });
    }

    // recovery invariant: every fault-killed task and lineage re-pend
    // must have been re-run to completion by the end of a completed run;
    // leftovers are permanently lost tasks.
    if !sim.aborted {
        for (task, killed_at) in sim.ctl.lost_tasks() {
            sim.publish(EngineEvent::LostTask { task, killed_at });
        }
    }

    let makespan = sim.now.since(SimTime::ZERO);
    let jobs: Vec<JobOutcome> = (sim.ctl.jobs().iter().enumerate())
        .map(|(i, j)| JobOutcome {
            job: JobId(i),
            tenant: j.tenant,
            name: stream.map_or(&input.app.name, |s| &s.jobs[i].name).clone(),
            submitted_at: j.arrival,
            completed_at: j.completed_at,
        })
        .collect();
    let faults = sim.bus.take_faults().unwrap_or_default();
    let cost = sim.ctl.cost_to(sim.now);
    let report = RunReport {
        app_name: input.app.name.clone(),
        scheduler_name: sim.sched.name().to_string(),
        seed: input.seed,
        makespan,
        completed: !sim.aborted,
        jobs,
        records: sim.records,
        monitor: sim.monitor,
        oom_failures: sim.oom_failures,
        executor_losses: sim.executor_losses,
        speculative_launched: sim.speculative_launched,
        speculative_wins: sim.speculative_wins,
        faults,
        cost,
    };
    let observation = SimObservation {
        trace: sim.bus.take_trace(),
        violations: sim.bus.take_violations(),
    };
    (report, observation)
}
