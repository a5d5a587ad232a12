//! The core loop: calendar, clock, and the fluid contention physics.
//!
//! [`Engine`] owns the one [`ClusterState`], the [`ControlPlane`] it
//! shares with the serve driver, the event calendar and the
//! [`super::events::EventBus`]; the subsystem modules (`lifecycle`,
//! `heartbeat`, `recovery`, `speculation`, `caching`, `offers`) are
//! `impl Engine` extensions that mutate that state and publish
//! [`EngineEvent`]s. This file contains only time and physics: advancing
//! the clock, recomputing contention rates, finding the next completion
//! and dispatching calendar events (the capacity controller's checks
//! run the control plane's [`ControlPlane::controller_check`]).

use std::collections::HashMap;

use rand::rngs::StdRng;

use rupam_cluster::monitor::HeartbeatSnapshot;
use rupam_cluster::{NodeId, ResourceMonitor};
use rupam_dag::app::JobId;
use rupam_dag::task::CacheKey;
use rupam_dag::TaskRef;
use rupam_metrics::record::TaskRecord;
use rupam_simcore::calendar::Calendar;
use rupam_simcore::source::EventSource;
use rupam_simcore::time::{SimDuration, SimTime};

use crate::costmodel::PhaseResource;
use crate::scheduler::Scheduler;

use super::events::{EngineEvent, EventBus};
use super::state::{AttemptId, ClusterState};
use super::{EngineError, SimInput, WORK_EPS};
use crate::control::{ControlHost, ControlPlane};

/// Calendar events the engine schedules for itself.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    Heartbeat,
    SpeculationCheck,
    OomCheck { node: NodeId, epoch: u64 },
    ExecutorRestored { node: NodeId },
    JobSubmitted { job: JobId },
    Fault { index: usize },
    SlowdownEnd { node: NodeId, epoch: u64 },
    FlakyCheck { node: NodeId, epoch: u64 },
    ElasticCheck,
    PreemptFire { node: NodeId },
}

/// The simulation engine: core loop, clock and physics. Policy lives in
/// the [`Scheduler`] it drives; observation lives on the bus. Time lives
/// behind the [`EventSource`] type parameter: the default deterministic
/// [`Calendar`] for sim mode, or any other source (e.g. a wall-clock
/// one) that honours the same pop/schedule contract.
pub(crate) struct Engine<'a, 's, S: EventSource<Event> = Calendar<Event>> {
    pub(crate) input: &'a SimInput<'a>,
    pub(crate) sched: &'s mut dyn Scheduler,
    pub(crate) source: S,
    pub(crate) now: SimTime,
    /// The single authoritative cluster state.
    pub(crate) state: ClusterState,
    /// Task, stage and job bookkeeping, the offer state and the fleet,
    /// shared with the serve driver.
    pub(crate) ctl: ControlPlane<'a>,
    pub(crate) monitor: ResourceMonitor,
    pub(crate) records: Vec<TaskRecord>,
    pub(crate) rng_fail: StdRng,
    /// Fault-subsystem draws (flaky-OOM coin flips) come from their own
    /// stream so healthy-path draws from `rng_fail` are untouched.
    pub(crate) rng_faults: StdRng,
    pub(crate) oom_failures: usize,
    pub(crate) executor_losses: usize,
    pub(crate) speculative_launched: usize,
    pub(crate) speculative_wins: usize,
    pub(crate) aborted: bool,
    pub(crate) need_offers: bool,
    pub(crate) idle_heartbeats: u32,
    /// The typed event bus every observer hangs off.
    pub(crate) bus: EventBus,
    pub(crate) round: u64,
    /// Executor-cache key → the tasks reading it through
    /// `InputSource::CachedOrHdfs` (whose `PROCESS_LOCAL` list a cache
    /// change moves).
    pub(crate) cache_readers: HashMap<CacheKey, Vec<TaskRef>>,
    /// Reusable buffer for one round's heartbeat batch (storm batching:
    /// the monitor is patched once per round, not once per node).
    pub(crate) hb_scratch: Vec<HeartbeatSnapshot>,
}

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Publish one event stamped with the current time and round.
    pub(crate) fn publish(&mut self, event: EngineEvent) {
        self.io().1.publish(event);
    }

    /// Run the simulation to completion (or graceful abort). The only
    /// error case is [`EngineError::CalendarExhausted`]: nothing running,
    /// nothing scheduled, stages incomplete — progress is impossible, so
    /// the run ends instead of panicking.
    pub(crate) fn run(&mut self) -> Result<(), EngineError> {
        self.prologue();
        self.main_loop()
    }

    /// Startup work before the first loop iteration: job submissions,
    /// the first heartbeat, the chaos script and the initial offer round.
    pub(crate) fn prologue(&mut self) {
        let cfg = self.input.config;
        // submit every stream job already arrived at t = 0; later
        // arrivals become calendar events (the multi-tenant case)
        for j in 0..self.ctl.jobs().len() {
            let arrival = self.ctl.jobs()[j].arrival;
            if arrival <= self.now {
                self.submit_job(JobId(j));
            } else {
                self.source
                    .schedule(arrival, Event::JobSubmitted { job: JobId(j) });
            }
        }
        self.source
            .schedule(self.now + cfg.engine.heartbeat, Event::Heartbeat);
        // inject the chaos script (no-op for the empty default)
        for (i, spec) in cfg.faults.script.events().iter().enumerate() {
            self.source.schedule(spec.at, Event::Fault { index: i });
        }
        if cfg.speculation.enabled {
            self.source
                .schedule(self.now + cfg.speculation.interval, Event::SpeculationCheck);
        }
        // arm the capacity controller (absent without spot pools)
        if self.ctl.fleet().scaling() {
            self.source.schedule(
                self.now + SimDuration::from_secs_f64(cfg.elastic.check_secs),
                Event::ElasticCheck,
            );
        }
        // initial offer round at t = 0 — waiting for the first heartbeat
        // would idle the whole cluster for one period at startup
        if self.need_offers {
            self.need_offers = false;
            self.offer_round();
        }
    }

    /// The core event loop (see [`Engine::run`]).
    pub(crate) fn main_loop(&mut self) -> Result<(), EngineError> {
        let cfg = self.input.config;
        let mut events: u64 = 0;
        while !self.ctl.all_done() && !self.aborted {
            events += 1;
            assert!(
                events <= cfg.engine.max_events,
                "engine exceeded max_events = {} (deadlock or runaway?)",
                cfg.engine.max_events
            );

            debug_assert!(
                self.state.live_lists_consistent(),
                "the nodes' running lists must hold exactly the alive attempts, each once"
            );
            self.recompute_rates();
            self.record_utilization();

            let next_completion = self.next_completion();
            let next_event = self.source.peek_time();
            let target = match (next_completion, next_event) {
                (Some(tc), Some(te)) => tc.min(te),
                (Some(tc), None) => tc,
                (None, Some(te)) => te,
                (None, None) => {
                    // no running attempts and no pending events while
                    // stages are incomplete: the calendar drained (e.g. a
                    // fault script crashed everything before arrival) —
                    // end the run gracefully with a typed error
                    return Err(EngineError::CalendarExhausted { at: self.now });
                }
            };

            self.advance_to(target);

            // complete all phases that just hit zero, in attempt-id order
            // so same-instant completions (a race's winner and its
            // `LostRace` sibling) resolve by launch order, not node order
            let mut finished: Vec<AttemptId> = (self.state.live())
                .filter(|&id| {
                    (self.state.attempts[id].current_phase()).is_some_and(|p| p.work <= WORK_EPS)
                })
                .collect();
            finished.sort_unstable();
            for id in finished {
                // completing an attempt may kill its race siblings; a
                // sibling that was due to finish at this very instant is
                // already dead and must be skipped
                if self.state.attempts[id].alive {
                    self.phase_complete(id);
                }
            }

            // drain calendar events scheduled at or before `now`
            while self
                .source
                .peek_time()
                .map(|t| t <= self.now)
                .unwrap_or(false)
            {
                let Some((_, ev)) = self.source.pop() else {
                    break;
                };
                self.handle_event(ev);
            }

            if self.need_offers {
                self.need_offers = false;
                self.offer_round();
            }
        }
        // flush final utilisation sample
        self.recompute_rates();
        self.record_utilization();
        Ok(())
    }

    // ---- time & physics -------------------------------------------------

    fn advance_to(&mut self, target: SimTime) {
        debug_assert!(target >= self.now);
        let dt = target.since(self.now);
        if !dt.is_zero() {
            let secs = dt.as_secs_f64();
            let ClusterState {
                nodes, attempts, ..
            } = &mut self.state;
            for &id in nodes.iter().flat_map(|n| &n.running) {
                let a = &mut attempts[id];
                if let Some(phase) = a.phases.front_mut() {
                    phase.work = (phase.work - a.rate * secs).max(0.0);
                    a.breakdown.add(phase.category, dt);
                }
            }
        }
        self.now = target;
        // events strictly before `now` must already have been handled;
        // finding one here would mean the driver skipped it — a logic
        // error worth failing loudly on
        if let Some(t) = self.source.peek_time() {
            assert!(t >= self.now, "unprocessed event at {t} < now {}", self.now);
        }
    }

    /// Recompute every alive attempt's current rate from node contention.
    fn recompute_rates(&mut self) {
        // per node: count users per phase class
        for (node_idx, node) in self.state.nodes.iter().enumerate() {
            let spec = self.input.cluster.node(NodeId(node_idx));
            let mut n_cpu = 0u32;
            let mut n_gpu = 0u32;
            let mut n_net = 0u32;
            let mut n_disk = 0u32;
            for &aid in &node.running {
                match self.state.attempts[aid].current_phase().map(|p| p.resource) {
                    Some(PhaseResource::Cpu) => n_cpu += 1,
                    Some(PhaseResource::Gpu) => n_gpu += 1,
                    Some(PhaseResource::Net) => n_net += 1,
                    Some(PhaseResource::DiskRead) | Some(PhaseResource::DiskWrite) => n_disk += 1,
                    Some(PhaseResource::Wait) | None => {}
                }
            }
            for &aid in &node.running {
                let rate = match self.state.attempts[aid].current_phase().map(|p| p.resource) {
                    Some(PhaseResource::Cpu) => {
                        spec.cpu_ghz * (spec.cores as f64 / n_cpu as f64).min(1.0)
                    }
                    Some(PhaseResource::Gpu) => {
                        spec.gpu_gcps * (spec.gpus as f64 / n_gpu as f64).min(1.0)
                    }
                    Some(PhaseResource::Net) => spec.net_bw / n_net as f64,
                    Some(PhaseResource::DiskRead) => spec.disk.read_bw / n_disk as f64,
                    Some(PhaseResource::DiskWrite) => spec.disk.write_bw / n_disk as f64,
                    Some(PhaseResource::Wait) => 1.0,
                    None => 0.0,
                };
                // scripted slowdowns stretch every phase on the node
                let rate = if node.slow_factor != 1.0 {
                    rate / node.slow_factor
                } else {
                    rate
                };
                debug_assert!(rate > 0.0 || self.state.attempts[aid].phases.is_empty());
                self.state.attempts[aid].rate = rate;
            }
        }
    }

    /// The earliest instant any live attempt finishes its current phase.
    fn next_completion(&self) -> Option<SimTime> {
        (self.state.live())
            .filter_map(|id| {
                let a = &self.state.attempts[id];
                let p = a.current_phase()?;
                // round UP to the next microsecond: rounding down would
                // leave sub-µs work remainders that never complete
                Some(if p.work <= WORK_EPS {
                    self.now
                } else {
                    let micros = (p.work / a.rate * 1e6).ceil() as u64;
                    self.now + SimDuration(micros.max(1))
                })
            })
            .min()
    }

    /// Sample every node's metrics and feed the monitor *one batch* for
    /// the whole round — a heartbeat storm (many nodes reporting at the
    /// same instant) patches the monitor once, not once per node.
    pub(crate) fn record_utilization(&mut self) {
        let mut batch = std::mem::take(&mut self.hb_scratch);
        batch.clear();
        for i in 0..self.state.nodes.len() {
            let m = self.node_metrics(i);
            if m != self.state.nodes[i].last_metrics {
                self.state.nodes[i].last_metrics = m;
                batch.push(HeartbeatSnapshot {
                    node: NodeId(i),
                    at: self.now,
                    metrics: m,
                });
            }
        }
        self.monitor.ingest_batch(&batch);
        self.hb_scratch = batch;
    }

    // ---- calendar dispatch ----------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Heartbeat => self.on_heartbeat(),
            Event::SpeculationCheck => {
                self.speculation_check();
                if !self.ctl.all_done() && !self.aborted {
                    self.source.schedule(
                        self.now + self.input.config.speculation.interval,
                        Event::SpeculationCheck,
                    );
                }
            }
            Event::OomCheck { node, epoch } => self.oom_check(node, epoch),
            Event::ExecutorRestored { node } => {
                // nothing to restore explicitly; blocked_until gates offers
                let _ = node;
                self.need_offers = true;
            }
            Event::JobSubmitted { job } => self.submit_job(job),
            Event::Fault { index } => self.apply_fault(index),
            Event::SlowdownEnd { node, epoch } => {
                let n = &mut self.state.nodes[node.index()];
                if n.slow_epoch == epoch {
                    n.slow_factor = 1.0;
                }
            }
            Event::FlakyCheck { node, epoch } => self.flaky_check(node, epoch),
            Event::ElasticCheck => {
                ControlPlane::controller_check(self);
                if !self.ctl.all_done() && !self.aborted {
                    let period = SimDuration::from_secs_f64(self.input.config.elastic.check_secs);
                    self.source.schedule(self.now + period, Event::ElasticCheck);
                }
            }
            Event::PreemptFire { node } => self.preempt_fire(node),
        }
    }
}
