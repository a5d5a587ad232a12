//! The simulation driver, as a staged event-bus architecture.
//!
//! A deterministic discrete-event simulation of a Spark-like cluster
//! engine with a *fluid* contention model: every running task attempt is
//! a queue of resource phases (see [`crate::costmodel`]); tasks in the
//! same phase class on a node share that resource equally; after every
//! event the engine advances all attempts' remaining work exactly and
//! recomputes completion times, so rate changes never go stale.
//!
//! The engine owns physics (execution rates, memory, OOM, executor loss,
//! race resolution) and the offer protocol; *policy* lives entirely in
//! the [`Scheduler`] implementation it drives. Structurally the engine
//! is split around two seams:
//!
//! * **[`state`]** — one authoritative `ClusterState` (nodes, executors,
//!   in-flight attempts, stage/job bookkeeping) owned by the core loop
//!   ([`driver`]) and mutated only by the subsystem modules:
//!   [`lifecycle`] (launch/finish/fail/race), [`heartbeat`] (detector +
//!   livelock guard), [`recovery`] (chaos faults, lineage recompute,
//!   OOM), [`speculation`] (straggler flagging), [`caching`] (cache
//!   scoping + locality preferences) and [`offers`] (snapshot + round).
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
mod elastic;
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
use rupam_dag::lineage::StageTracker;
use rupam_dag::stream::MergedStream;
use rupam_dag::TaskRef;
use rupam_faults::FailureDetector;
use rupam_metrics::report::{JobOutcome, RunReport};
use rupam_metrics::trace::{AbortCause, TraceBuffer, DEFAULT_TRACE_CAPACITY};
use rupam_simcore::calendar::Calendar;
use rupam_simcore::rng::RngFactory;
use rupam_simcore::time::SimTime;
use rupam_simcore::units::ByteSize;

use crate::audit::{AuditConfig, Violation};
use crate::cache::ExecutorCache;
use crate::config::SimConfig;
use crate::offer_state::OfferState;
use crate::scheduler::Scheduler;
use crate::shuffle::MapOutputLedger;
use crate::speculation::SpeculationSet;

use driver::Engine;
use state::{ClusterState, JobRt, NodeRt, StageRt, TaskState};

pub use emit::{AuditRelay, FaultStats, TraceEmitter};
pub use events::{lost_task_detail, BusStage, EngineEvent, EventBus, EventCtx, Subscriber};

/// Work below this is considered complete (unit-scale epsilon).
pub(crate) const WORK_EPS: f64 = 1e-7;

/// Typed failures of the core loop. These are *graceful* ends: callers
/// ([`run_sim`]) convert them into an aborted [`RunReport`] instead of
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

/// Build a ready-to-run [`Engine`] from the inputs: runtime state,
/// stream bookkeeping, RNG streams and the detector. Split from
/// [`run_sim`] so engine unit tests can drive the loop directly.
pub(crate) fn assemble<'a, 's>(
    input: &'a SimInput<'a>,
    stream: Option<&MergedStream>,
    scheduler: &'s mut dyn Scheduler,
    bus: EventBus,
) -> Engine<'a, 's> {
    let cluster = input.cluster;
    let cfg = input.config;
    scheduler.on_app_start(input.app, cluster);

    let nodes: Vec<NodeRt> = cluster
        .iter()
        .map(|(id, spec)| {
            let requested = scheduler.executor_memory(cluster, id);
            let ceiling = spec.mem.saturating_sub(cfg.mem.os_reserved);
            let executor_mem = requested.min(ceiling);
            NodeRt {
                executor_mem,
                mem_in_use: ByteSize::ZERO,
                running: Vec::new(),
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
                // spot-pool nodes join the fleet only when the
                // controller provisions them; everything else is the
                // always-on on-demand fleet
                provisioned: cfg.elastic.tier(id) == rupam_cluster::NodeTier::OnDemand,
                drain_deadline: None,
                elastic_epoch: 0,
            }
        })
        .collect();

    let stages: Vec<StageRt> = input
        .app
        .stages
        .iter()
        .map(|s| StageRt {
            released: false,
            tasks: vec![TaskState::Pending { attempt_no: 0 }; s.num_tasks()],
            finished_secs: Vec::new(),
        })
        .collect();

    // stream metadata; a plain application is a 1-job stream at t = 0
    let (jobs, chains, stage_jobs) = match stream {
        Some(ms) => (
            ms.jobs
                .iter()
                .map(|j| JobRt {
                    name: j.name.clone(),
                    tenant: j.tenant,
                    arrival: j.arrival,
                    completed_at: None,
                })
                .collect::<Vec<_>>(),
            ms.jobs
                .iter()
                .map(|j| j.app_jobs.clone())
                .collect::<Vec<_>>(),
            ms.stage_jobs.clone(),
        ),
        None => (
            vec![JobRt {
                name: input.app.name.clone(),
                tenant: rupam_dag::TenantId(0),
                arrival: SimTime::ZERO,
                completed_at: None,
            }],
            std::iter::once(0..input.app.jobs.len()).collect(),
            vec![JobId(0); input.app.stages.len()],
        ),
    };

    let mut engine = Engine {
        input,
        sched: scheduler,
        source: Calendar::new(),
        now: SimTime::ZERO,
        state: ClusterState {
            attempts: Vec::new(),
            nodes,
            stages,
            jobs,
            stage_jobs,
            tracker: StageTracker::new_stream(input.app, &chains),
            outputs: MapOutputLedger::new(input.app, cluster.len()),
            spec_set: SpeculationSet::new(),
            observed_peak: HashMap::new(),
            kill_pending: HashMap::new(),
        },
        monitor: ResourceMonitor::new(cluster),
        records: Vec::new(),
        rng_fail: RngFactory::new(input.seed).stream("engine/failures"),
        rng_faults: RngFactory::new(input.seed).stream("engine/faults"),
        detector: (!cfg.faults.script.is_empty())
            .then(|| FailureDetector::new(cluster.len(), &cfg.faults, SimTime::ZERO)),
        elastic: (!cfg.elastic.is_empty()).then(|| {
            let rng = RngFactory::new(input.seed).stream("engine/elastic");
            elastic::ElasticRt::new(&cfg.elastic, cluster, rng)
        }),
        oom_failures: 0,
        executor_losses: 0,
        speculative_launched: 0,
        speculative_wins: 0,
        aborted: false,
        need_offers: true,
        idle_heartbeats: 0,
        bus,
        round: 0,
        offers: OfferState::new(input.app, cluster.len()),
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
        let mem = sim.state.nodes[i].executor_mem;
        sim.publish(EngineEvent::ExecutorSized {
            node: NodeId(i),
            mem,
        });
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
    if !sim.aborted && !sim.state.kill_pending.is_empty() {
        let mut lost: Vec<(TaskRef, SimTime)> = sim
            .state
            .kill_pending
            .iter()
            .map(|(&t, &at)| (t, at))
            .collect();
        lost.sort();
        for (task, killed_at) in lost {
            sim.publish(EngineEvent::LostTask { task, killed_at });
        }
    }

    let makespan = sim.now.since(SimTime::ZERO);
    let jobs: Vec<JobOutcome> = sim
        .state
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| JobOutcome {
            job: JobId(i),
            tenant: j.tenant,
            name: j.name.clone(),
            submitted_at: j.arrival,
            completed_at: j.completed_at,
        })
        .collect();
    let faults = sim.bus.take_faults().unwrap_or_default();
    let cost = sim.elastic_settle();
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
