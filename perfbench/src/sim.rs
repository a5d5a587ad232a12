//! The `sim-deep` workload: 12-node Hydra, a deep backlog, two
//! weighted-fair tenants with a quota, and a fault script.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use rand::Rng;
use rupam::{AllocationPolicy, RupamConfig, RupamScheduler, TenantSpec};
use rupam_cluster::ClusterSpec;
use rupam_dag::{JobStream, MergedStream, TenantId};
use rupam_exec::engine::{AuditRelay, TraceEmitter};
use rupam_exec::{
    simulate_stream_observed_with, AuditConfig, SimConfig, SimOptions, StreamInput, Subscriber,
};
use rupam_faults::FaultScript;
use rupam_metrics::report::RunReport;
use rupam_metrics::trace::DEFAULT_TRACE_CAPACITY;
use rupam_simcore::time::SimTime;
use rupam_simcore::RngFactory;
use rupam_workloads::Workload;

use crate::gauge::Gauge;
use crate::layers::{emit_attempts, emit_core, emit_serve_absent};
use crate::output::{peak_rss_mib, Output};
use crate::probe::{CallStats, CountingSubscriber, EventCounts, TimedScheduler, TimedSubscriber};
use crate::stats::{self, median};

/// The fault script injected into the workload: a fixed copy of the
/// repository's chaos smoke script, so the workload does not drift
/// when that script is edited.
const CHAOS_SMOKE: &str = include_str!("../chaos-smoke.toml");

/// Jobs per stream, cycling through all seven suite workloads.
const JOBS: usize = 24;
/// Mean gap between job arrivals, simulated seconds.
const MEAN_GAP_SECS: f64 = 10.0;
/// Tenant names and weights; a job's tenant is drawn by weight.
const TENANTS: [(&str, f64); 2] = [("a", 3.0), ("b", 1.0)];
/// Streams in the fixed corpus every invocation times: seeds `0..CORPUS`.
/// Each stream either aborts early or runs long, depending chaotically on
/// its seed, so runs that drew their own streams would not be comparable.
const CORPUS: u64 = 3;
/// Builds of each corpus stream timed for `setup_s`, at the start and
/// again in every later pass of the timed runs.
const SETUP_BUILDS: usize = 4;

/// The simulator workload: cluster, engine and scheduler configuration.
struct SimWorkload {
    cluster: ClusterSpec,
    config: SimConfig,
    rupam: RupamConfig,
}

impl SimWorkload {
    /// 12-node Hydra; tenants `a:3@0.4,b:1` under weighted-fair
    /// allocation; the chaos smoke fault script.
    fn new() -> Self {
        let script = FaultScript::parse_toml(CHAOS_SMOKE).expect("chaos smoke script parses");
        SimWorkload {
            cluster: ClusterSpec::hydra(),
            config: SimConfig::with_faults(script),
            rupam: RupamConfig {
                allocation: AllocationPolicy::WeightedFair,
                tenants: vec![
                    TenantSpec {
                        weight: 3.0,
                        quota: Some(0.4),
                    },
                    TenantSpec {
                        weight: 1.0,
                        quota: None,
                    },
                ],
                ..RupamConfig::default()
            },
        }
    }

    /// The job stream of `seed`: Poisson arrivals in simulated time (an
    /// open loop), each job attributed to a tenant drawn by weight.
    fn build_stream(&self, seed: u64) -> MergedStream {
        let total: f64 = TENANTS.iter().map(|t| t.1).sum();
        let mut arrivals = RngFactory::new(seed).stream("stream-arrivals");
        let mut picks = RngFactory::new(seed).stream("tenant-picks");
        let mut stream = JobStream::new();
        let mut t = 0.0f64;
        for i in 0..JOBS {
            let w = Workload::ALL[i % Workload::ALL.len()];
            let (app, layout) =
                w.build(&self.cluster, &RngFactory::new(seed.wrapping_add(i as u64)));
            let mut draw: f64 = picks.gen_range(0.0..total);
            let mut tenant = TENANTS.len() - 1;
            for (j, (_, weight)) in TENANTS.iter().enumerate() {
                if draw < *weight {
                    tenant = j;
                    break;
                }
                draw -= weight;
            }
            stream.push_as(
                format!("{}/{}#{i}", TENANTS[tenant].0, w.short()),
                app,
                layout,
                SimTime::from_secs_f64(t),
                TenantId(tenant),
            );
            let u: f64 = arrivals.gen_range(0.0..1.0);
            t += -MEAN_GAP_SECS * (1.0 - u).ln();
        }
        stream.merge()
    }

    /// The stream an invocation with seed `seed` checks for correctness:
    /// a fresh one from the seed, outside the timed corpus `0..corpus`.
    fn checked_seed(&self, seed: u64) -> u64 {
        seed.wrapping_add(CORPUS)
    }

    /// Build every stream of the corpus; each one [`SETUP_BUILDS`] times,
    /// so the set-up time is a median over many builds.
    fn build_corpus(&self) -> (Vec<MergedStream>, Vec<f64>) {
        let mut setup = Vec::new();
        let streams = (0..CORPUS)
            .map(|s| {
                let mut stream = None;
                for _ in 0..SETUP_BUILDS {
                    let started = Instant::now();
                    stream = Some(self.build_stream(s));
                    setup.push(started.elapsed().as_secs_f64());
                }
                stream.expect("at least one build")
            })
            .collect();
        (streams, setup)
    }

    fn scheduler(&self) -> RupamScheduler {
        RupamScheduler::new(self.rupam.clone())
    }

    /// Simulate `stream`, returning the report, its decision-trace digest
    /// when a trace was kept, and the host seconds taken.
    fn simulate(
        &self,
        stream: &MergedStream,
        seed: u64,
        sched: &mut dyn rupam_exec::Scheduler,
        opts: &SimOptions,
        subscribers: Vec<Box<dyn Subscriber>>,
    ) -> Simulated {
        let input = StreamInput {
            cluster: &self.cluster,
            stream,
            config: &self.config,
            seed,
        };
        let started = Instant::now();
        let (report, obs) = simulate_stream_observed_with(&input, sched, opts, subscribers);
        let host_s = started.elapsed().as_secs_f64();
        let trace = obs.trace.as_ref();
        Simulated {
            digest: trace.map(|t| t.digest()),
            trace_events: trace.map_or(0, |t| t.recorded()),
            violations: obs.violations.len(),
            report,
            host_s,
        }
    }

    /// A run with a digest-only trace and an event counter.
    fn digest_run(&self, stream: &MergedStream, seed: u64) -> (Simulated, EventCounts) {
        let opts = SimOptions {
            trace_capacity: Some(0),
            audit: None,
        };
        let (counter, counts) = CountingSubscriber::new();
        let run = self.simulate(
            stream,
            seed,
            &mut self.scheduler(),
            &opts,
            vec![Box::new(counter)],
        );
        let counts = counts.borrow().clone();
        (run, counts)
    }

    /// A run with nothing attached: what the end-to-end metrics time.
    fn untraced_run(&self, stream: &MergedStream, seed: u64) -> Simulated {
        let mut sched = self.scheduler();
        self.simulate(stream, seed, &mut sched, &SimOptions::default(), Vec::new())
    }
}

struct Simulated {
    report: RunReport,
    digest: Option<u64>,
    trace_events: u64,
    violations: usize,
    host_s: f64,
}

/// Whether a run ended the way every run must: completed, or aborted
/// with a typed cause; no audit violations and no lost tasks.
fn check_ending(out: &mut Output, what: &str, run: &Simulated, counts: &EventCounts) {
    if run.report.completed == counts.abort_cause.is_some() {
        out.fail(format!(
            "{what}: completed {} but abort cause {:?}",
            run.report.completed, counts.abort_cause
        ));
    }
    if run.violations > 0 {
        out.fail(format!("{what}: {} invariant violations", run.violations));
    }
    if counts.lost_task > 0 {
        out.fail(format!("{what}: {} tasks lost", counts.lost_task));
    }
}

/// Tracing off: the end-to-end metrics, then the determinism check.
pub fn end_to_end(seed: u64, seconds: f64, out: &mut Output) {
    let wl = &SimWorkload::new();
    let (streams, mut setup) = wl.build_corpus();

    // whole passes over the corpus, at least two, until `seconds` of runs
    // are measured. The figures are means over the whole run, and the
    // gauge is read after every run: host seconds are reported at the
    // gauge's nominal machine speed. Each pass also rebuilds every stream
    // [`SETUP_BUILDS`] times, so the set-up samples span the run as well.
    let mut gauge = Gauge::default();
    let mut first_pass: Vec<RunReport> = Vec::new();
    let (mut measured, mut passes) = (0.0, 0usize);
    while measured < seconds || passes < 2 {
        for (i, stream) in streams.iter().enumerate() {
            if passes > 0 {
                for _ in 0..SETUP_BUILDS {
                    let started = Instant::now();
                    drop(wl.build_stream(i as u64));
                    setup.push(started.elapsed().as_secs_f64());
                }
            }
            let run = wl.untraced_run(stream, i as u64);
            measured += run.host_s;
            gauge.read();
            match first_pass.get(i) {
                None => first_pass.push(run.report),
                Some(first) if !same_decisions(first, &run.report) => out.fail(format!(
                    "two untraced runs of corpus stream {i} decided differently"
                )),
                Some(_) => {}
            }
        }
        passes += 1;
    }
    let rss = peak_rss_mib();
    let ok_attempts: u64 = first_pass.iter().map(stats::successful_attempts).sum();
    let (done, submitted) = first_pass
        .iter()
        .map(stats::job_counts)
        .fold((0, 0), |(d, n), (d1, n1)| (d + d1, n + n1));
    let nominal = gauge.to_nominal();
    let host_makespan_s = measured / passes as f64;
    let tasks_per_host_s = stats::tasks_per_s(ok_attempts * passes as u64, measured);
    out.attempted = (passes * streams.len()) as u64;
    out.metric("tasks_per_s", tasks_per_host_s / nominal, "1/s");
    out.metric(
        "jobs_completed_frac",
        done as f64 / submitted as f64,
        "ratio",
    );
    out.metric("makespan_s", host_makespan_s * nominal, "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("setup_s", median(&setup) * nominal, "s");
    out.note("host_tasks_per_s", tasks_per_host_s, "1/s");
    out.note("host_makespan_s", host_makespan_s, "s");
    out.note("host_setup_s", median(&setup), "s");
    out.note("gauge_s", gauge.mean_s(), "s");
    out.note("passes", passes as f64, "count");
    out.note(
        "job_fail_frac",
        stats::job_fail_frac(done, submitted),
        "ratio",
    );
    out.note("jobs_submitted", submitted as f64, "count");
    let aborted = first_pass.iter().filter(|r| !r.completed).count();
    out.note("aborted_streams", aborted as f64, "count");

    // determinism on a fresh stream from the seed: two digest-only runs
    // agree on the digest and on every decision, and end typed
    let s = wl.checked_seed(seed);
    let stream = wl.build_stream(s);
    let (a, counts) = wl.digest_run(&stream, s);
    let (b, _) = wl.digest_run(&stream, s);
    check_ending(out, "digest run", &a, &counts);
    if a.digest != b.digest || !same_decisions(&a.report, &b.report) {
        out.fail(format!(
            "two runs of stream {s} decided differently: digests {:?} vs {:?}",
            a.digest, b.digest
        ));
    }
    report_checked(out, s, &a, &counts);
}

fn report_checked(out: &mut Output, seed: u64, run: &Simulated, counts: &EventCounts) {
    let (done, submitted) = stats::job_counts(&run.report);
    let ending = match counts.abort_cause {
        Some(cause) => format!("aborted: {cause:?}"),
        None => "completed".to_string(),
    };
    out.text(format!(
        "checked stream {seed}: {ending}, {done}/{submitted} jobs, digest {:016x}",
        run.digest.unwrap_or(0)
    ));
}

/// Whether two runs of one stream made the same decisions, judged by
/// their reports.
fn same_decisions(a: &RunReport, b: &RunReport) -> bool {
    a.makespan == b.makespan
        && a.records.len() == b.records.len()
        && a.records.iter().zip(&b.records).all(|(x, y)| {
            (
                x.task,
                x.node,
                x.attempt,
                x.launched_at,
                x.finished_at,
                x.outcome,
            ) == (
                y.task,
                y.node,
                y.attempt,
                y.launched_at,
                y.finished_at,
                y.outcome,
            )
        })
}

/// Tracing on: alternates untraced and traced runs of each stream and
/// reports the per-layer metrics of the traced ones.
pub fn per_layer(seed: u64, seconds: f64, out: &mut Output) {
    let wl = &SimWorkload::new();
    let (streams, setup) = wl.build_corpus();

    // correctness on a fresh stream from the seed: the traced run gives
    // the digest-only run's digest and runs audit-clean
    let s = wl.checked_seed(seed);
    let stream = wl.build_stream(s);
    let (reference, _) = wl.digest_run(&stream, s);
    let (traced, counts) = traced_run(wl, &stream, s);
    check_ending(out, "traced run", &traced.run, &counts);
    if traced.run.digest != reference.digest {
        out.fail("the traced run's digest differs from the digest-only run's".into());
    }
    report_checked(out, s, &traced.run, &counts);
    drop(stream);

    // untraced and traced runs of each corpus stream in turn
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut agg = LayerAgg::default();
    let mut runs = 0usize;
    while untraced_s + traced_s < seconds || runs < streams.len() {
        let i = runs % streams.len();
        untraced_s += wl.untraced_run(&streams[i], i as u64).host_s;
        let (traced, counts) = traced_run(wl, &streams[i], i as u64);
        check_ending(out, "traced run", &traced.run, &counts);
        traced_s += traced.run.host_s;
        agg.add(&traced, &counts);
        runs += 1;
    }
    out.attempted = runs as u64;
    agg.emit(out, runs);
    out.metric("metrics.trace_overhead", traced_s / untraced_s, "ratio");
    out.metric("workloads.build_ms", median(&setup) * 1e3, "ms");
    // the serve layer does not run in the simulator
    emit_serve_absent(out);
}

/// A traced run and what the instruments at the layer boundaries saw.
struct Traced {
    run: Simulated,
    calls: CallStats,
    subscriber_ns: u64,
    db_entries: usize,
}

/// Run `stream` with every instrument attached: the timed scheduler, the
/// event counter, and the full trace and audit subscribers, timed.
fn traced_run(wl: &SimWorkload, stream: &MergedStream, seed: u64) -> (Traced, EventCounts) {
    let (mut sched, calls) = TimedScheduler::new(wl.scheduler());
    let (counter, counts) = CountingSubscriber::new();
    let sub_ns = Rc::new(Cell::new(0u64));
    let subs: Vec<Box<dyn Subscriber>> = vec![
        Box::new(TimedSubscriber::new(counter, Rc::clone(&sub_ns))),
        Box::new(TimedSubscriber::new(
            TraceEmitter::new(DEFAULT_TRACE_CAPACITY),
            Rc::clone(&sub_ns),
        )),
        Box::new(TimedSubscriber::new(
            AuditRelay::new(AuditConfig::default()),
            Rc::clone(&sub_ns),
        )),
    ];
    let run = wl.simulate(stream, seed, &mut sched, &SimOptions::default(), subs);
    let traced = Traced {
        run,
        calls: calls.lock().expect("stats lock poisoned").clone(),
        subscriber_ns: sub_ns.get(),
        db_entries: sched.inner().tm().db().len(),
    };
    let counts = counts.borrow().clone();
    (traced, counts)
}

/// Per-layer figures summed over the traced runs of one invocation.
#[derive(Default)]
struct LayerAgg {
    host_ns: f64,
    calls: CallStats,
    events: EventCounts,
    outcomes: [u64; 7],
    subscriber_ns: u64,
    db_entries: usize,
    faults_killed: usize,
    faults_recoveries: usize,
    faults_recomputed: usize,
    trace_events: u64,
}

impl LayerAgg {
    fn add(&mut self, traced: &Traced, events: &EventCounts) {
        let report = &traced.run.report;
        self.host_ns += traced.run.host_s * 1e9;
        self.calls.merge(&traced.calls);
        let e = &mut self.events;
        e.launch += events.launch;
        e.kill_requeue += events.kill_requeue;
        e.oom_task_kill += events.oom_task_kill;
        e.executor_lost += events.executor_lost;
        e.speculation_flagged += events.speculation_flagged;
        for (into, from) in self
            .outcomes
            .iter_mut()
            .zip(stats::attempts_by_outcome(report))
        {
            *into += from;
        }
        self.subscriber_ns += traced.subscriber_ns;
        self.db_entries += traced.db_entries;
        self.faults_killed += report.faults.tasks_killed;
        self.faults_recoveries += report.faults.recoveries;
        self.faults_recomputed += report.faults.map_outputs_recomputed;
        self.trace_events += traced.run.trace_events;
    }

    /// Print every per-layer metric the simulator produces; counts are
    /// per-run means.
    fn emit(&self, out: &mut Output, runs: usize) {
        let per_run = |x: f64| x / runs as f64;
        let c = &self.calls;
        let rounds = c.offer_round.calls().max(1) as f64;
        let callbacks_ns = c.scheduler_ns() + c.audit_round.total_ns();
        let self_ns = self.host_ns - callbacks_ns as f64 - self.subscriber_ns as f64;
        out.note("exec.self_ms", per_run(self_ns) / 1e6, "ms");
        out.metric("exec.self_share", self_ns / self.host_ns, "ratio");
        out.metric(
            "exec.offer_rounds",
            per_run(c.offer_round.calls() as f64),
            "count",
        );
        out.metric("exec.nodes_per_round", c.nodes_sum as f64 / rounds, "count");
        out.metric(
            "exec.changed_per_round",
            c.changed_sum as f64 / rounds,
            "count",
        );
        let changed_frac = c.changed_sum as f64 / c.nodes_sum.max(1) as f64;
        out.metric("exec.changed_frac", changed_frac, "ratio");
        let e = &self.events;
        for (name, v) in [
            ("launch", e.launch),
            ("kill_requeue", e.kill_requeue),
            ("oom_task_kill", e.oom_task_kill),
            ("executor_lost", e.executor_lost),
            ("speculation_flagged", e.speculation_flagged),
        ] {
            out.metric(&format!("exec.events.{name}"), per_run(v as f64), "count");
        }
        emit_attempts(out, &self.outcomes, 0, runs);
        emit_core(out, c, self.host_ns, self.db_entries as f64, runs);
        out.metric(
            "faults.tasks_killed",
            per_run(self.faults_killed as f64),
            "count",
        );
        out.metric(
            "faults.recoveries",
            per_run(self.faults_recoveries as f64),
            "count",
        );
        let recomputed = per_run(self.faults_recomputed as f64);
        out.metric("faults.map_outputs_recomputed", recomputed, "count");
        out.metric(
            "metrics.trace_events",
            per_run(self.trace_events as f64),
            "count",
        );
        let subscriber_share = self.subscriber_ns as f64 / self.host_ns;
        out.metric("metrics.subscriber_share", subscriber_share, "ratio");
    }
}
