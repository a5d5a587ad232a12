//! The `serve-backlog` workload: an in-process `rupam-serve` with a
//! 64-worker fleet, one client that submits the whole catalog at t=0
//! and then drains.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use rupam::{RupamConfig, RupamScheduler};
use rupam_cluster::ClusterSpec;
use rupam_dag::app::JobId;
use rupam_dag::MergedStream;
use rupam_exec::Scheduler;
use rupam_faults::FaultScript;
use rupam_serve::testbed::{build_fleet, pressure_stream_sized};
use rupam_serve::{replay, server, ServeConfig, ServeOutcome, ServerHandle};
use rupam_simcore::units::ByteSize;
use rupam_simcore::RngFactory;

use crate::layers::{emit_attempts, emit_core, emit_exec_absent};
use crate::output::{peak_rss_mib, Output};
use crate::probe::{CallStats, TimedScheduler};
use crate::stats::{self, median, percentile};

const WORKERS: usize = 64;
const JOBS: usize = 256;
const TASKS_PER_JOB: usize = 48;
/// Gigacycles per task: about 20 ms of wall time at the 1/1000 scale.
const COMPUTE: f64 = 60.0;
/// Live runs a serve invocation measures before it stops.
const MIN_RUNS: usize = 3;
/// Idle servers started and drained to time `setup_s`.
const SETUP_STARTS: usize = 8;

fn serve_config() -> ServeConfig {
    ServeConfig {
        tick: Duration::from_millis(10),
        worker_heartbeat: Duration::from_millis(10),
        time_scale: 0.001,
        max_wall: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    }
}

fn scheduler() -> RupamScheduler {
    RupamScheduler::new(RupamConfig::default())
}

/// The catalog's jobs in the order the client submits them: a seeded
/// shuffle, the only input the seed changes.
fn submit_order(seed: u64) -> Vec<JobId> {
    let mut rng = RngFactory::new(seed).stream("submit-order");
    let mut order: Vec<JobId> = (0..JOBS).map(JobId).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// The fleet and the catalog every run serves. Both are deterministic,
/// so each caller builds its own.
fn inputs() -> (Arc<ClusterSpec>, Arc<MergedStream>) {
    let catalog = pressure_stream_sized(JOBS, TASKS_PER_JOB, COMPUTE, ByteSize::mib(6 * 1024));
    (Arc::new(build_fleet(WORKERS)), Arc::new(catalog))
}

/// The serve capacity lower bound of the catalog on the fleet, seconds.
fn capacity_bound() -> f64 {
    let (cluster, catalog) = inputs();
    let cfg = serve_config();
    let sched = scheduler();
    let executor_mem: Vec<ByteSize> = cluster
        .iter()
        .map(|(id, spec)| {
            sched
                .executor_memory(&cluster, id)
                .min(spec.mem.saturating_sub(cfg.sim.mem.os_reserved))
        })
        .collect();
    let demands: Vec<_> = catalog
        .app
        .stages
        .iter()
        .flat_map(|s| s.tasks.iter().map(|t| t.demand.clone()))
        .collect();
    stats::capacity_bound_s(&cluster, &executor_mem, &demands, cfg.time_scale)
}

/// A started server, and how long building its inputs and starting it
/// took.
struct Started {
    handle: ServerHandle,
    build_s: f64,
    start_s: f64,
}

fn start(sched: Box<dyn Scheduler + Send>) -> Started {
    let t0 = Instant::now();
    let (cluster, catalog) = inputs();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let handle = server::start(
        cluster,
        catalog,
        sched,
        serve_config(),
        &FaultScript::empty(),
    );
    Started {
        handle,
        build_s,
        start_s: t1.elapsed().as_secs_f64(),
    }
}

/// Set-up times (input build, server start) of `n` servers drained as
/// soon as they are up; this also warms thread creation before timing.
fn idle_setups(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| {
            let started = start(Box::new(scheduler()));
            let mut client = started.handle.client.clone();
            client.drain().expect("drain");
            drop(client);
            started.handle.wait().expect("idle serve run");
            (started.build_s, started.start_s)
        })
        .collect()
}

/// One live run, from building the inputs to the drained outcome.
struct LiveRun {
    build_s: f64,
    start_s: f64,
    makespan_s: f64,
    submit_s: f64,
    outcome: ServeOutcome,
}

/// Start a server, submit the whole catalog in `order`, drain, and wait
/// for every thread to end.
fn live_run(sched: Box<dyn Scheduler + Send>, order: &[JobId]) -> LiveRun {
    let Started {
        handle,
        build_s,
        start_s,
    } = start(sched);
    let t = Instant::now();
    let mut client = handle.client.clone();
    let mut submit_s = 0.0;
    for &job in order {
        let ts = Instant::now();
        client.submit(job).expect("submit");
        submit_s += ts.elapsed().as_secs_f64();
    }
    client.drain().expect("drain");
    drop(client);
    let outcome = handle.wait().expect("serve run");
    LiveRun {
        build_s,
        start_s,
        makespan_s: t.elapsed().as_secs_f64(),
        submit_s,
        outcome,
    }
}

/// A live run's input log replayed through the calendar driver.
struct Replayed {
    wall_s: f64,
    /// The replay reproduced the live run's digest.
    matches: bool,
    /// Task-characteristics DB entries the replaying scheduler banked,
    /// the same as the live scheduler's since both decide alike.
    db_entries: usize,
}

fn replay_run(outcome: &ServeOutcome) -> Replayed {
    let (cluster, catalog) = inputs();
    let mut oracle = scheduler();
    let t = Instant::now();
    let replayed = replay(
        &cluster,
        &catalog,
        &mut oracle,
        &serve_config(),
        &outcome.log,
    );
    Replayed {
        wall_s: t.elapsed().as_secs_f64(),
        matches: replayed.is_ok_and(|r| r.digest == outcome.report.digest),
        db_entries: oracle.tm().db().len(),
    }
}

/// The checks every live run must pass.
fn check_live(out: &mut Output, run: &LiveRun, bound_s: f64) {
    let r = &run.outcome.report;
    if !r.clean {
        out.fail(format!(
            "serve run did not drain cleanly: {} of {} jobs completed",
            r.jobs_completed, r.jobs_submitted
        ));
    }
    if r.lost_tasks != 0 {
        out.fail(format!("serve run lost {} tasks", r.lost_tasks));
    }
    if bound_s / run.makespan_s > 1.0 {
        out.fail(format!(
            "control_plane_efficiency {} > 1: the capacity bound {bound_s}s is wrong",
            bound_s / run.makespan_s
        ));
    }
}

/// Tracing off: the end-to-end metrics, then the replay check.
pub fn end_to_end(seed: u64, seconds: f64, out: &mut Output) {
    let order = submit_order(seed);
    let bound_s = capacity_bound();
    let mut setup: Vec<f64> = idle_setups(SETUP_STARTS)
        .iter()
        .map(|(b, s)| b + s)
        .collect();
    let mut makespans = Vec::new();
    let mut dispatch_p99_ms = Vec::new();
    let (mut ok_attempts, mut done, mut submitted) = (0u64, 0usize, 0usize);
    let mut first = None;
    let mut measured = 0.0;
    while measured < seconds || makespans.len() < MIN_RUNS {
        let run = live_run(Box::new(scheduler()), &order);
        check_live(out, &run, bound_s);
        let r = &run.outcome.report;
        setup.push(run.build_s + run.start_s);
        makespans.push(run.makespan_s);
        measured += run.makespan_s;
        dispatch_p99_ms.push(r.dispatch_p99_us as f64 / 1e3);
        ok_attempts += r.completed;
        done += r.jobs_completed;
        submitted += r.jobs_submitted;
        first.get_or_insert(run);
    }
    let rss = peak_rss_mib();
    let runs = makespans.len();
    out.attempted = runs as u64;
    out.metric(
        "tasks_per_s",
        stats::tasks_per_s(ok_attempts, measured),
        "1/s",
    );
    out.metric(
        "jobs_completed_frac",
        done as f64 / submitted as f64,
        "ratio",
    );
    out.metric("makespan_s", median(&makespans), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("setup_s", median(&setup), "s");
    out.note("runs", runs as f64, "count");
    out.note(
        "job_fail_frac",
        stats::job_fail_frac(done, submitted),
        "ratio",
    );
    out.note("dispatch_p99_ms", median(&dispatch_p99_ms), "ms");
    let run = first.expect("at least one run");
    out.note(
        "dispatch_samples",
        run.outcome.report.launched as f64,
        "count",
    );
    out.note("capacity_bound_s", bound_s, "s");
    let efficiency = bound_s / median(&makespans);
    out.note("control_plane_efficiency", efficiency, "ratio");

    if !replay_run(&run.outcome).matches {
        out.fail("the replayed input log does not reproduce the live digest".into());
    }
    out.text(format!(
        "first run digest {:016x}",
        run.outcome.report.digest
    ));
}

/// Tracing on: alternates untraced and traced live runs; each traced
/// run is replayed through the calendar driver.
pub fn per_layer(seed: u64, seconds: f64, out: &mut Output) {
    let order = submit_order(seed);
    let bound_s = capacity_bound();
    let setups = idle_setups(SETUP_STARTS);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut agg = ServeAgg::default();
    let mut runs = 0usize;
    while untraced_s + traced_s < seconds || runs < 2 {
        let plain = live_run(Box::new(scheduler()), &order);
        untraced_s += plain.makespan_s;

        let (timed, calls) = TimedScheduler::new(scheduler());
        let run = live_run(Box::new(timed), &order);
        check_live(out, &plain, bound_s);
        check_live(out, &run, bound_s);
        traced_s += run.makespan_s;
        let replayed = replay_run(&run.outcome);
        if !replayed.matches {
            out.fail("the replayed input log does not reproduce the live digest".into());
        }
        let calls = calls.lock().expect("stats lock poisoned").clone();
        agg.add(&run, &calls, &replayed, bound_s / plain.makespan_s);
        runs += 1;
    }
    out.attempted = runs as u64;
    agg.emit(out, runs);
    out.metric("metrics.trace_overhead", traced_s / untraced_s, "ratio");
    let build: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let start: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let setup: Vec<f64> = setups.iter().map(|s| s.0 + s.1).collect();
    out.metric("workloads.build_ms", median(&build) * 1e3, "ms");
    out.note("serve.start_ms", median(&start) * 1e3, "ms");
    out.metric("serve.start_frac", median(&start) / median(&setup), "ratio");
}

/// Serve per-layer figures summed over the traced runs.
#[derive(Default)]
struct ServeAgg {
    calls: CallStats,
    makespan_s: f64,
    replay_s: f64,
    submit_s: f64,
    db_entries: usize,
    driver_p50_us: Vec<f64>,
    driver_p95_us: Vec<f64>,
    driver_overhead_us: Vec<f64>,
    serve_rounds: u64,
    dropped: u64,
    launched: u64,
    completed: u64,
    failed: u64,
    trace_events: u64,
    efficiency: Vec<f64>,
}

impl ServeAgg {
    fn add(&mut self, run: &LiveRun, calls: &CallStats, replayed: &Replayed, efficiency: f64) {
        let r = &run.outcome.report;
        // the driver's round wraps the scheduler's offer round
        let sched_p50 = percentile(&calls.offer_round.samples_us(), 0.5).value;
        self.calls.merge(calls);
        self.makespan_s += run.makespan_s;
        self.replay_s += replayed.wall_s;
        self.submit_s += run.submit_s;
        self.db_entries += replayed.db_entries;
        self.driver_p50_us.push(r.offer_p50_us as f64);
        self.driver_p95_us.push(r.offer_p95_us as f64);
        self.driver_overhead_us
            .push(r.offer_p50_us as f64 - sched_p50);
        self.serve_rounds += r.offer_rounds;
        self.dropped += r.stale_launch_drops
            + r.dead_launch_drops
            + r.autoscale_launch_drops
            + r.preempt_launch_drops;
        self.launched += r.launched;
        self.completed += r.completed;
        self.failed += r.failed;
        self.trace_events += r.events_recorded;
        self.efficiency.push(efficiency);
    }

    fn emit(&self, out: &mut Output, runs: usize) {
        let per_run = |x: f64| x / runs as f64;
        let wall_ns = self.makespan_s * 1e9;
        let c = &self.calls;
        let rounds = c.offer_round.calls().max(1) as f64;
        // the simulator engine does not run in serve mode; its offer-input
        // figures are the serve driver's here
        emit_exec_absent(out);
        out.note(
            "serve.nodes_per_round",
            c.nodes_sum as f64 / rounds,
            "count",
        );
        out.note(
            "serve.changed_per_round",
            c.changed_sum as f64 / rounds,
            "count",
        );
        // serve reports attempts as completed or failed only
        let mut outcomes = [0u64; 7];
        outcomes[0] = self.completed;
        emit_attempts(out, &outcomes, self.failed, runs);
        emit_core(out, c, wall_ns, self.db_entries as f64, runs);
        // no fault script in this workload
        for name in ["tasks_killed", "recoveries", "map_outputs_recomputed"] {
            out.metric(&format!("faults.{name}"), 0.0, "count");
        }
        out.metric(
            "metrics.trace_events",
            per_run(self.trace_events as f64),
            "count",
        );
        out.metric("metrics.subscriber_share", 0.0, "ratio");

        let driver_p50 = median(&self.driver_p50_us);
        let overhead = median(&self.driver_overhead_us);
        out.note("serve.driver_round_p50_us", driver_p50, "us");
        out.note(
            "serve.driver_round_p95_us",
            median(&self.driver_p95_us),
            "us",
        );
        out.note("serve.driver_overhead_us", overhead, "us");
        out.note("serve.replay_ms", per_run(self.replay_s) * 1e3, "ms");
        out.note("serve.client_submit_ms", per_run(self.submit_s) * 1e3, "ms");
        out.metric(
            "serve.offer_rounds",
            per_run(self.serve_rounds as f64),
            "count",
        );
        out.metric(
            "serve.driver_overhead_frac",
            overhead / driver_p50.max(1.0),
            "ratio",
        );
        let busy = self.replay_s / self.makespan_s;
        out.metric("serve.control_plane_busy_frac", busy, "ratio");
        out.metric(
            "serve.client_blocked_frac",
            self.submit_s / self.makespan_s,
            "ratio",
        );
        let drops = self.dropped as f64 / self.launched.max(1) as f64;
        out.metric("serve.launch_drop_frac", drops, "ratio");
        out.metric(
            "serve.control_plane_efficiency",
            median(&self.efficiency),
            "ratio",
        );
    }
}
