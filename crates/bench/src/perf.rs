//! Wall-clock microbenchmarks of the scheduler hot path
//! (`rupam-bench perf`).
//!
//! Three measurements, at up to five cluster sizes:
//!
//! * **offer rounds** — p50/p95 latency and total wall-clock of
//!   `Scheduler::offer_round` over an 8-tenant job stream;
//! * **end-to-end stream** — wall-clock of the whole `--jobs 8`
//!   simulation;
//! * **DB lookups** — `DB_task_char` read throughput, single-threaded
//!   and with 4 concurrent readers over the sharded store.
//!
//! Results land in `BENCH_scheduler.json`. The regression gate compares
//! *dimensionless ratios* measured within one run on one machine — the
//! share of the stream's wall-clock spent in offer rounds, DB thread
//! scaling, offer-latency scaling across cluster sizes — so the
//! committed baseline stays meaningful across hardware.

use std::fmt::Write as _;
use std::time::Instant;

use rupam::config::RupamConfig;
use rupam::db::{TaskCharDb, TaskKey};
use rupam::RupamScheduler;
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, JobId, Stage, StageId};
use rupam_exec::scheduler::{Command, OfferInput, Scheduler};
use rupam_exec::{simulate_stream, SimConfig, StreamInput};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use crate::multitenant::{build_stream, MEAN_GAP_SECS, TENANTS};

/// Maximum tolerated drop of any gate ratio vs the committed baseline.
pub const GATE_TOLERANCE: f64 = 0.25;

/// Maximum tolerated rise of an `e2e_round_us_*` row (end-to-end
/// wall-clock per offer round) vs the committed baseline: it may at most
/// double. The row is absolute wall-clock, so the band is wide enough
/// for host-to-host and run-to-run noise; it exists because a slower
/// engine *lowers* `offer_share_*`, so the share gate alone cannot see
/// an engine regression.
pub const E2E_TOLERANCE: f64 = 1.0;

/// Absolute ceiling for `engine_event_overhead`: attaching bus
/// subscribers may add at most 5% to the end-to-end stream wall-clock
/// (which bounds the per-offer-round overhead as well). Unlike the
/// ratio keys, overhead gates on *this run's* absolute value — higher
/// is worse, and the committed baseline is irrelevant.
pub const ENGINE_OVERHEAD_CEILING: f64 = 1.05;

/// Absolute ceiling for `offer_scaling_256_over_64`: quadrupling the
/// cluster (hydra64 → hydra256) may at most double the median
/// offer-round latency. This is the scalability
/// contract of the sharded node-queue cache — O(changed) refreshes and
/// bound-pruned shard scans, not O(nodes) rebuilds. Gates on this run's
/// absolute value, like [`ENGINE_OVERHEAD_CEILING`].
pub const OFFER_SCALING_CEILING: f64 = 2.0;

/// Absolute ceiling for `serve_dispatch_p99_us_hydra64`: with
/// event-driven offers and the persistent offer state, a dispatchable
/// task on the 64-worker fleet launches within the coalescing window
/// plus one execution wave — p99 stays well under half a second.
pub const SERVE_DISPATCH_CEILING_HYDRA64_US: f64 = 500_000.0;

/// Absolute ceiling for `serve_dispatch_p99_us_hydra256` (and the
/// fallback for unrecognised shapes): the saturated 12.8k-task backlog
/// still queues tasks behind executor memory, but the incremental serve
/// path must keep p99 under two seconds absolute — the pre-incremental
/// driver sat at ~46 s here, and an actual livelock pins p99 at the
/// 300 s `max_wall` abort. Gates on this run's absolute value; like the
/// other wall-clock serve rows it is absent from `--quick` runs.
pub const SERVE_DISPATCH_CEILING_HYDRA256_US: f64 = 2_000_000.0;

/// Absolute floor for `fairness_jain_weighted`: Jain's index over
/// per-tenant slowdowns under the weighted-fair policy on the skewed
/// two-tenant stream (see [`crate::fairness`]). Simulated-time and
/// deterministic, so gate-able across machines. The FIFO baseline sits
/// near 0.81 on the same stream, so holding the floor also certifies
/// the allocation order is actually engaged, not silently bypassed.
pub const FAIRNESS_JAIN_FLOOR: f64 = 0.85;

/// The dispatch-latency ceiling for a `serve_dispatch_p99_us_*` gate
/// key, selected by fleet-shape suffix.
pub fn serve_dispatch_ceiling_us(key: &str) -> f64 {
    if key.ends_with("_hydra64") {
        SERVE_DISPATCH_CEILING_HYDRA64_US
    } else {
        SERVE_DISPATCH_CEILING_HYDRA256_US
    }
}

/// Wraps a scheduler and records the wall-clock cost of every offer
/// round.
struct TimingScheduler<S> {
    inner: S,
    rounds_us: Vec<u64>,
}

impl<S: Scheduler> TimingScheduler<S> {
    fn new(inner: S) -> Self {
        TimingScheduler {
            inner,
            rounds_us: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for TimingScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        self.inner.executor_memory(cluster, node)
    }

    fn decision_cost(&self) -> SimDuration {
        self.inner.decision_cost()
    }

    fn on_app_start(&mut self, app: &Application, cluster: &ClusterSpec) {
        self.inner.on_app_start(app, cluster);
    }

    fn on_job_submitted(&mut self, job: JobId, stages: &[StageId], now: SimTime) {
        self.inner.on_job_submitted(job, stages, now);
    }

    fn on_stage_ready(&mut self, stage: &Stage, now: SimTime) {
        self.inner.on_stage_ready(stage, now);
    }

    fn on_task_finished(&mut self, record: &TaskRecord, now: SimTime) {
        self.inner.on_task_finished(record, now);
    }

    fn on_task_failed(
        &mut self,
        task: rupam_dag::TaskRef,
        node: NodeId,
        outcome: AttemptOutcome,
        now: SimTime,
    ) {
        self.inner.on_task_failed(task, node, outcome, now);
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let t = Instant::now();
        let out = self.inner.offer_round(input);
        self.rounds_us.push(t.elapsed().as_micros() as u64);
        out
    }

    fn audit_round(&self, input: &OfferInput<'_>) -> Vec<String> {
        self.inner.audit_round(input)
    }

    fn on_heartbeat(&mut self, now: SimTime) {
        self.inner.on_heartbeat(now);
    }
}

/// The stream's timing on one cluster.
#[derive(Clone, Copy, Debug)]
pub struct PathTiming {
    /// End-to-end stream simulation wall-clock, milliseconds.
    pub e2e_ms: f64,
    /// Median offer-round latency, microseconds.
    pub offer_p50_us: f64,
    /// 95th-percentile offer-round latency, microseconds.
    pub offer_p95_us: f64,
    /// Total scheduler wall-clock across all offer rounds, milliseconds.
    pub offer_total_ms: f64,
    /// Offer rounds executed.
    pub rounds: usize,
    /// Simulated makespan (determinism check across repeats), seconds.
    pub makespan_secs: f64,
}

/// The stream's timing on one cluster shape.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Label used in the JSON (`hydra12`, …).
    pub label: String,
    /// Node count.
    pub nodes: usize,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Best-of-[`REPEATS`] timing.
    pub timing: PathTiming,
}

impl ClusterResult {
    /// Share of the stream's end-to-end wall-clock spent in offer
    /// rounds (lower is better): the dispatch path's cost relative to
    /// the engine physics (task execution, event calendar) the same run
    /// pays, so the ratio is comparable across machines.
    pub fn offer_share(&self) -> f64 {
        self.timing.offer_total_ms / self.timing.e2e_ms
    }

    /// End-to-end wall-clock per offer round, microseconds (lower is
    /// better). Round counts are deterministic, so this tracks the
    /// whole run's cost — engine and scheduler — in absolute time.
    pub fn e2e_round_us(&self) -> f64 {
        self.timing.e2e_ms * 1e3 / self.timing.rounds.max(1) as f64
    }
}

/// DB lookup throughput.
#[derive(Clone, Copy, Debug)]
pub struct DbThroughput {
    /// Single-threaded reads per second.
    pub ops_per_sec_1t: f64,
    /// Aggregate reads per second across 4 concurrent readers.
    pub ops_per_sec_4t: f64,
}

/// Everything `rupam-bench perf` measures.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Per-cluster stream timings.
    pub clusters: Vec<ClusterResult>,
    /// Sharded-store read throughput.
    pub db: DbThroughput,
    /// RUPAM resilience ratios per chaos scenario: healthy over
    /// degraded mean makespan (simulated time — deterministic, so
    /// gate-able across machines). `(scenario label, ratio)`.
    pub degraded: Vec<(String, f64)>,
    /// Event-bus dispatch overhead: loaded-over-plain e2e wall-clock
    /// ratio (see [`bench_event_overhead`]); gated against
    /// [`ENGINE_OVERHEAD_CEILING`].
    pub event_overhead: f64,
    /// Live-service sustained-load results (empty on `--quick` runs —
    /// wall-clock serve rows are too noisy for CI smoke machines, and
    /// [`regressions`] tolerates their absence).
    pub serve: Vec<crate::serve::ServeBenchResult>,
    /// Spot-tier Pareto ratios (`(label, ratio)` — see
    /// [`crate::spot::spot_gate`]): simulated-time, deterministic,
    /// gate-able across machines like the degraded rows.
    pub spot: Vec<(String, f64)>,
    /// Jain's index over per-tenant slowdowns under weighted-fair
    /// allocation (see [`crate::fairness::jain_weighted_gate`]); gated
    /// against [`FAIRNESS_JAIN_FLOOR`].
    pub fairness_jain: f64,
    /// Gang-admission no-op certificate: 1.0 iff enabling
    /// `gang_admission` on a gang-free workload leaves the decision
    /// trace digest unchanged (see [`bench_gang_noop`]).
    pub gang_noop: f64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

fn time_stream(cluster: &ClusterSpec, jobs: usize, seed: u64) -> PathTiming {
    // 8 tenants = the 4-workload tenant mix, twice
    let tenants: Vec<_> = TENANTS.iter().cycle().take(jobs).copied().collect();
    let stream = build_stream(cluster, &tenants, MEAN_GAP_SECS, seed);
    let config = SimConfig::default();
    let input = StreamInput {
        cluster,
        stream: &stream,
        config: &config,
        seed,
    };
    let mut sched = TimingScheduler::new(RupamScheduler::new(RupamConfig::default()));
    let t = Instant::now();
    let report = simulate_stream(&input, &mut sched);
    let e2e_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(report.completed, "perf stream must complete");
    let mut rounds = sched.rounds_us;
    let total_us: u64 = rounds.iter().sum();
    rounds.sort_unstable();
    PathTiming {
        e2e_ms,
        offer_p50_us: percentile(&rounds, 50.0),
        offer_p95_us: percentile(&rounds, 95.0),
        offer_total_ms: total_us as f64 / 1e3,
        rounds: rounds.len(),
        makespan_secs: report.makespan.as_secs_f64(),
    }
}

/// Wall-clock repeats per shape; the fastest run is reported. Min-of-N
/// is the standard low-noise estimator for wall-clock microbenchmarks —
/// scheduling decisions are deterministic, so repeats only differ in
/// timer noise, and the gate ratios stay stable across runs.
const REPEATS: usize = 3;

fn best_of(cluster: &ClusterSpec, jobs: usize, seed: u64) -> PathTiming {
    let mut best = time_stream(cluster, jobs, seed);
    for _ in 1..REPEATS {
        let t = time_stream(cluster, jobs, seed);
        assert_eq!(
            t.makespan_secs, best.makespan_secs,
            "repeat diverged — the simulation must be deterministic"
        );
        if t.offer_total_ms < best.offer_total_ms {
            let e2e = best.e2e_ms;
            best = t;
            best.e2e_ms = e2e.min(t.e2e_ms);
        } else {
            best.e2e_ms = best.e2e_ms.min(t.e2e_ms);
        }
    }
    best
}

/// A subscriber that does nothing; its only job is to make the bus
/// dispatch loop do real work per published event.
struct NoopSub(&'static str);

impl rupam_exec::Subscriber for NoopSub {
    fn name(&self) -> &'static str {
        self.0
    }
    fn stage(&self) -> rupam_exec::BusStage {
        rupam_exec::BusStage::Statistics
    }
    fn on_event(&mut self, _ctx: &rupam_exec::EventCtx, _event: &rupam_exec::EngineEvent) {}
}

/// Measure the event-bus dispatch overhead: best-of-[`REPEATS`]
/// end-to-end wall-clock of the same job stream, with four extra no-op
/// subscribers attached versus plain, as a ratio (1.0 = free).
pub fn bench_event_overhead(cluster: &ClusterSpec, jobs: usize, seed: u64) -> f64 {
    let tenants: Vec<_> = TENANTS.iter().cycle().take(jobs).copied().collect();
    let stream = build_stream(cluster, &tenants, MEAN_GAP_SECS, seed);
    let config = SimConfig::default();
    let run = |with_subs: bool| -> f64 {
        let input = StreamInput {
            cluster,
            stream: &stream,
            config: &config,
            seed,
        };
        let subs: Vec<Box<dyn rupam_exec::Subscriber>> = if with_subs {
            ["ovh-a", "ovh-b", "ovh-c", "ovh-d"]
                .into_iter()
                .map(|n| Box::new(NoopSub(n)) as Box<dyn rupam_exec::Subscriber>)
                .collect()
        } else {
            Vec::new()
        };
        let mut sched = RupamScheduler::new(RupamConfig::default());
        let t = Instant::now();
        let (report, _) = rupam_exec::simulate_stream_observed_with(
            &input,
            &mut sched,
            &rupam_exec::SimOptions::default(),
            subs,
        );
        assert!(report.completed, "overhead stream must complete");
        t.elapsed().as_secs_f64() * 1e3
    };
    // interleave the repeats so slow-machine drift hits both sides alike
    let mut plain = f64::INFINITY;
    let mut loaded = f64::INFINITY;
    for _ in 0..REPEATS {
        plain = plain.min(run(false));
        loaded = loaded.min(run(true));
    }
    loaded / plain
}

/// The `gang_admission_noop` gate value: enabling gang admission on a
/// workload with no `gang: true` stages must leave the decision trace
/// byte-identical to the default configuration — the all-or-nothing
/// machinery may only act when a stage asks for it. Binary and
/// machine-independent (simulated-time digests), like the serve replay
/// oracle: 1.0 on digest equality, 0.0 otherwise.
pub fn bench_gang_noop() -> f64 {
    let cluster = ClusterSpec::hydra();
    let opts = rupam_exec::SimOptions {
        trace_capacity: Some(0),
        audit: None,
    };
    let config = SimConfig::default();
    let gang_cfg = RupamConfig {
        gang_admission: true,
        ..RupamConfig::default()
    };
    let seed = 707;
    let w = rupam_workloads::Workload::TeraSort;
    let (_, gang) = crate::harness::run_workload_observed_cfg(
        &cluster,
        w,
        &crate::harness::Sched::RupamWith(gang_cfg),
        seed,
        &opts,
        &config,
    );
    let (_, plain) = crate::harness::run_workload_observed_cfg(
        &cluster,
        w,
        &crate::harness::Sched::Rupam,
        seed,
        &opts,
        &config,
    );
    let d = |o: rupam_exec::SimObservation| o.trace.expect("digest-only trace requested").digest();
    if d(gang) == d(plain) {
        1.0
    } else {
        0.0
    }
}

/// Time the job stream on one cluster shape.
pub fn bench_cluster(label: &str, cluster: ClusterSpec, jobs: usize, seed: u64) -> ClusterResult {
    ClusterResult {
        label: label.to_string(),
        nodes: cluster.len(),
        jobs,
        timing: best_of(&cluster, jobs, seed),
    }
}

/// Measure `DB_task_char` read throughput over a populated store.
pub fn bench_db(ops: usize) -> DbThroughput {
    let db = TaskCharDb::new();
    let keys: Vec<TaskKey> = (0..1024)
        .map(|i| TaskKey::new(format!("perf/t{}", i % 64), i))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        db.update(*k, |c| {
            c.runs = i as u32;
            c.peak_mem = ByteSize::mib(64 + (i as u64 % 512));
        });
    }
    db.flush();

    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..ops {
        if db.read(&keys[i % keys.len()]).is_some() {
            hits += 1;
        }
    }
    let ops_per_sec_1t = ops as f64 / t.elapsed().as_secs_f64();
    assert_eq!(hits, ops, "populated keys must all hit");

    let t = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..4 {
            let db = &db;
            let keys = &keys;
            scope.spawn(move || {
                for i in 0..ops / 4 {
                    std::hint::black_box(db.read(&keys[(w * 7 + i * 13) % keys.len()]));
                }
            });
        }
    });
    let ops_per_sec_4t = (ops / 4 * 4) as f64 / t.elapsed().as_secs_f64();

    DbThroughput {
        ops_per_sec_1t,
        ops_per_sec_4t,
    }
}

/// Run the full suite. `quick` trims the mid-size cluster and the DB
/// op count for CI smoke runs.
pub fn run(quick: bool) -> PerfReport {
    let mut shapes = vec![("hydra12", ClusterSpec::hydra())];
    if !quick {
        shapes.push(("hydra32", ClusterSpec::hydra_mix(16, 8, 8)));
    }
    shapes.push(("hydra64", ClusterSpec::hydra_mix(48, 8, 8)));
    // hydra256 runs even in --quick: it feeds the offer_scaling gate row
    shapes.push(("hydra256", ClusterSpec::hydra_mix(192, 32, 32)));
    if !quick {
        shapes.push(("hydra1k", ClusterSpec::hydra_mix(768, 128, 128)));
    }

    let clusters = shapes
        .into_iter()
        .map(|(label, cluster)| {
            eprintln!("perf: {label} ({} nodes, 8 jobs) …", cluster.len());
            bench_cluster(label, cluster, 8, 42)
        })
        .collect();
    let db_ops = if quick { 200_000 } else { 1_000_000 };
    eprintln!("perf: DB lookup throughput ({db_ops} ops) …");
    let db = bench_db(db_ops);
    eprintln!("perf: degraded resilience (chaos scenarios) …");
    let degraded = crate::degraded::rupam_resilience(
        &ClusterSpec::hydra(),
        rupam_workloads::Workload::TeraSort,
        &[42],
    );
    eprintln!("perf: event-bus dispatch overhead …");
    let event_overhead = bench_event_overhead(&ClusterSpec::hydra(), 8, 42);
    eprintln!("perf: spot-tier cost/JCT ratios …");
    // two seeds: single-seed spot ratios are dominated by one price
    // path's preemption luck
    let spot = crate::spot::spot_gate(&ClusterSpec::hydra(), &crate::harness::SEEDS[..2]);
    eprintln!("perf: tenant fairness (weighted-fair Jain) …");
    let f_seeds = if quick {
        &crate::harness::SEEDS[..1]
    } else {
        &crate::harness::SEEDS[..3]
    };
    let fairness_jain =
        crate::fairness::jain_weighted_gate(&crate::fairness::contended_cluster(), f_seeds);
    eprintln!("perf: gang-admission no-op digest …");
    let gang_noop = bench_gang_noop();
    let serve = if quick {
        Vec::new()
    } else {
        crate::serve::run()
    };
    PerfReport {
        clusters,
        db,
        degraded,
        event_overhead,
        serve,
        spot,
        fairness_jain,
        gang_noop,
    }
}

/// Render the report as the committed `BENCH_scheduler.json` document.
/// Hand-rolled (the workspace carries no JSON dependency); gate keys are
/// globally unique so the checker can scan for them textually.
pub fn to_json(r: &PerfReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"scheduler\",");
    let _ = writeln!(s, "  \"tool\": \"rupam-bench perf\",");
    let _ = writeln!(s, "  \"clusters\": {{");
    for (i, c) in r.clusters.iter().enumerate() {
        let comma = if i + 1 < r.clusters.len() { "," } else { "" };
        let p = &c.timing;
        let _ = writeln!(
            s,
            "    \"{}\": {{\"nodes\": {}, \"jobs\": {}, \"e2e_ms\": {:.2}, \"offer_p50_us\": {:.1}, \"offer_p95_us\": {:.1}, \"offer_total_ms\": {:.2}, \"rounds\": {}, \"makespan_secs\": {:.3}}}{comma}",
            c.label, c.nodes, c.jobs, p.e2e_ms, p.offer_p50_us, p.offer_p95_us, p.offer_total_ms, p.rounds, p.makespan_secs
        );
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"db\": {{");
    let _ = writeln!(
        s,
        "    \"lookup_ops_per_sec_1t\": {:.0},",
        r.db.ops_per_sec_1t
    );
    let _ = writeln!(
        s,
        "    \"lookup_ops_per_sec_4t\": {:.0}",
        r.db.ops_per_sec_4t
    );
    let _ = writeln!(s, "  }},");
    if !r.serve.is_empty() {
        let _ = writeln!(s, "  \"serve\": {{");
        for (i, sv) in r.serve.iter().enumerate() {
            let comma = if i + 1 < r.serve.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    \"{}\": {{\"workers\": {}, \"tasks\": {}, \"jobs_per_sec\": {:.2}, \"dispatch_p50_us\": {}, \"dispatch_p99_us\": {}, \"max_pending\": {}, \"offer_rounds\": {}, \"offer_p50_us\": {}, \"offer_p95_us\": {}, \"stale_launch_drops\": {}, \"dead_launch_drops\": {}, \"lost\": {}, \"clean\": {}}}{comma}",
                sv.label, sv.workers, sv.tasks, sv.jobs_per_sec, sv.dispatch_p50_us,
                sv.dispatch_p99_us, sv.max_pending, sv.offer_rounds, sv.offer_p50_us,
                sv.offer_p95_us, sv.stale_launch_drops, sv.dead_launch_drops, sv.lost, sv.clean
            );
        }
        let _ = writeln!(s, "  }},");
    }
    let _ = writeln!(s, "  \"gate\": {{");
    for c in &r.clusters {
        let _ = writeln!(
            s,
            "    \"offer_share_{}\": {:.3},",
            c.label,
            c.offer_share()
        );
        let _ = writeln!(
            s,
            "    \"e2e_round_us_{}\": {:.1},",
            c.label,
            c.e2e_round_us()
        );
    }
    for (label, ratio) in &r.degraded {
        let _ = writeln!(s, "    \"degraded_resilience_{label}\": {ratio:.3},");
    }
    for (label, ratio) in &r.spot {
        let _ = writeln!(s, "    \"spot_{label}\": {ratio:.3},");
    }
    // near-constant offer latency across a 4× node-count jump is the
    // sharded cache's scalability contract; only emitted when the run
    // measured both shapes
    let p50 = |label: &str| {
        r.clusters
            .iter()
            .find(|c| c.label == label)
            .map(|c| c.timing.offer_p50_us)
    };
    if let (Some(big), Some(small)) = (p50("hydra256"), p50("hydra64")) {
        if small > 0.0 {
            let _ = writeln!(s, "    \"offer_scaling_256_over_64\": {:.3},", big / small);
        }
    }
    for sv in &r.serve {
        let _ = writeln!(
            s,
            "    \"serve_replay_digest_match_{}\": {:.1},",
            sv.label,
            if sv.replay_match && sv.clean && sv.lost == 0 {
                1.0
            } else {
                0.0
            }
        );
        let _ = writeln!(
            s,
            "    \"serve_dispatch_p99_us_{}\": {:.0},",
            sv.label, sv.dispatch_p99_us as f64
        );
    }
    if let Some(big) = r.serve.iter().find(|sv| sv.label == "hydra256") {
        let _ = writeln!(
            s,
            "    \"serve_max_pending_hydra256\": {:.0},",
            big.max_pending as f64
        );
        // throughput floor under the deepest backlog — ratio-gated
        // against the committed baseline like the DB scaling row
        let _ = writeln!(
            s,
            "    \"serve_jobs_per_sec_hydra256\": {:.2},",
            big.jobs_per_sec
        );
    }
    let _ = writeln!(s, "    \"fairness_jain_weighted\": {:.3},", r.fairness_jain);
    let _ = writeln!(s, "    \"gang_admission_noop\": {:.1},", r.gang_noop);
    let _ = writeln!(s, "    \"engine_event_overhead\": {:.3},", r.event_overhead);
    let _ = writeln!(
        s,
        "    \"db_4t_over_1t\": {:.3}",
        r.db.ops_per_sec_4t / r.db.ops_per_sec_1t
    );
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

/// Extract the number following `"key":` anywhere in `json`. Gate keys
/// are globally unique in the document, so a textual scan suffices.
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = json.find(&pat)? + pat.len();
    let rest = json[i..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The gate keys present in a report document (everything under
/// `"gate"` whose name starts with a known gate prefix).
pub fn gate_keys(json: &str) -> Vec<String> {
    let Some(gate) = json.find("\"gate\"") else {
        return Vec::new();
    };
    json[gate..]
        .split('"')
        .filter(|k| {
            k.starts_with("offer_share_")
                || k.starts_with("e2e_round_us_")
                || k.starts_with("db_")
                || k.starts_with("degraded_")
                || k.starts_with("engine_")
                || k.starts_with("offer_scaling_")
                || k.starts_with("serve_")
                || k.starts_with("spot_")
                || k.starts_with("fairness_")
                || k.starts_with("gang_")
        })
        .map(|k| k.to_string())
        .collect()
}

/// Compare a fresh report against the committed baseline. Returns the
/// regressions (key, fresh, baseline) exceeding [`GATE_TOLERANCE`]:
/// higher-is-better ratios may drop by at most the tolerance, the
/// lower-is-better `offer_share_*` rows may rise by at most it, and the
/// `e2e_round_us_*` rows may rise by at most [`E2E_TOLERANCE`].
/// Only keys present in *both* documents are compared, so a `--quick`
/// run checks cleanly against a full baseline.
pub fn regressions(fresh: &str, baseline: &str) -> Vec<(String, f64, f64)> {
    let mut bad = Vec::new();
    for key in gate_keys(fresh) {
        // overhead keys gate on an absolute ceiling: higher is worse,
        // and this run's value alone decides (the baseline column
        // reports the ceiling so the failure message stays readable)
        if key.starts_with("engine_") {
            if let Some(f) = extract_number(fresh, &key) {
                if f > ENGINE_OVERHEAD_CEILING {
                    bad.push((key, f, ENGINE_OVERHEAD_CEILING));
                }
            }
            continue;
        }
        if key.starts_with("offer_scaling_") {
            if let Some(f) = extract_number(fresh, &key) {
                if f > OFFER_SCALING_CEILING {
                    bad.push((key, f, OFFER_SCALING_CEILING));
                }
            }
            continue;
        }
        // serve wall-clock latency gates on an absolute ceiling; the
        // remaining serve_ rows (digest match, max pending) fall through
        // to the ratio gate. All serve rows are simply absent on --quick
        // runs, which the per-key iteration over `fresh` skips cleanly.
        if key.starts_with("serve_dispatch_") {
            if let Some(f) = extract_number(fresh, &key) {
                let ceiling = serve_dispatch_ceiling_us(&key);
                if f > ceiling {
                    bad.push((key, f, ceiling));
                }
            }
            continue;
        }
        // fairness gates on an absolute floor: weighted-fair must keep
        // Jain's slowdown index above the floor on the skewed stream,
        // regardless of the committed baseline (higher is better, and
        // the value is deterministic simulated time)
        if key.starts_with("fairness_") {
            if let Some(f) = extract_number(fresh, &key) {
                if f < FAIRNESS_JAIN_FLOOR {
                    bad.push((key, f, FAIRNESS_JAIN_FLOOR));
                }
            }
            continue;
        }
        // gang admission must be a decision no-op on gang-free
        // workloads — binary and machine-independent, like the serve
        // replay oracle below
        if key.starts_with("gang_") {
            if let Some(f) = extract_number(fresh, &key) {
                if f < 1.0 {
                    bad.push((key, f, 1.0));
                }
            }
            continue;
        }
        // offer share is lower-is-better: flag a rise of more than the
        // tolerance over the committed baseline
        if key.starts_with("offer_share_") {
            if let (Some(f), Some(b)) =
                (extract_number(fresh, &key), extract_number(baseline, &key))
            {
                if f > b * (1.0 + GATE_TOLERANCE) {
                    bad.push((key, f, b));
                }
            }
            continue;
        }
        // end-to-end time per round is lower-is-better absolute
        // wall-clock: flag only a rise beyond the wide band
        if key.starts_with("e2e_round_us_") {
            if let (Some(f), Some(b)) =
                (extract_number(fresh, &key), extract_number(baseline, &key))
            {
                if f > b * (1.0 + E2E_TOLERANCE) {
                    bad.push((key, f, b));
                }
            }
            continue;
        }
        // the replay oracle is binary and machine-independent: anything
        // but 1.0 means the live run's decisions were not reproducible,
        // regardless of what the baseline says
        if key.starts_with("serve_replay_") {
            if let Some(f) = extract_number(fresh, &key) {
                if f < 1.0 {
                    bad.push((key, f, 1.0));
                }
            }
            continue;
        }
        let (Some(f), Some(b)) = (extract_number(fresh, &key), extract_number(baseline, &key))
        else {
            continue;
        };
        if f < b * (1.0 - GATE_TOLERANCE) {
            bad.push((key, f, b));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_scans_json() {
        let doc =
            "{\n  \"gate\": {\n    \"offer_share_hydra64\": 0.205,\n    \"db_4t_over_1t\": 3.1\n  }\n}";
        assert_eq!(extract_number(doc, "offer_share_hydra64"), Some(0.205));
        assert_eq!(extract_number(doc, "db_4t_over_1t"), Some(3.1));
        assert_eq!(extract_number(doc, "missing"), None);
        assert_eq!(
            gate_keys(doc),
            vec![
                "offer_share_hydra64".to_string(),
                "db_4t_over_1t".to_string()
            ]
        );
    }

    #[test]
    fn gate_flags_only_real_regressions() {
        let baseline = "{\"gate\": {\"offer_share_hydra64\": 0.200, \"db_4t_over_1t\": 3.0}}";
        let ok = "{\"gate\": {\"offer_share_hydra64\": 0.240, \"db_4t_over_1t\": 2.4}}";
        assert!(
            regressions(ok, baseline).is_empty(),
            "a 25% rise in offer share and a 25% drop in a ratio are tolerated"
        );
        let bad = "{\"gate\": {\"offer_share_hydra64\": 0.260, \"db_4t_over_1t\": 3.0}}";
        let r = regressions(bad, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "offer_share_hydra64");
        let slow_db = "{\"gate\": {\"offer_share_hydra64\": 0.100, \"db_4t_over_1t\": 2.1}}";
        let r = regressions(slow_db, baseline);
        assert_eq!(r.len(), 1, "a falling offer share is an improvement");
        assert_eq!(r[0].0, "db_4t_over_1t");
        // a quick run missing a key is not a regression
        let partial = "{\"gate\": {\"db_4t_over_1t\": 2.9}}";
        assert!(regressions(partial, baseline).is_empty());
    }

    #[test]
    fn e2e_rows_catch_an_engine_slowdown_the_share_hides() {
        let baseline =
            "{\"gate\": {\"offer_share_hydra12\": 0.150, \"e2e_round_us_hydra12\": 60.0}}";
        let noisy = "{\"gate\": {\"offer_share_hydra12\": 0.150, \"e2e_round_us_hydra12\": 110.0}}";
        assert!(
            regressions(noisy, baseline).is_empty(),
            "host noise below 2x is tolerated"
        );
        // the engine tripled its cost: the share fell, the e2e row trips
        let slow = "{\"gate\": {\"offer_share_hydra12\": 0.050, \"e2e_round_us_hydra12\": 180.0}}";
        let r = regressions(slow, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "e2e_round_us_hydra12");
    }

    #[test]
    fn db_bench_reads_back_all_keys() {
        let t = bench_db(5_000);
        assert!(t.ops_per_sec_1t > 0.0 && t.ops_per_sec_4t > 0.0);
    }

    #[test]
    fn report_serialises_with_gate_block() {
        let path = PathTiming {
            e2e_ms: 100.0,
            offer_p50_us: 10.0,
            offer_p95_us: 25.0,
            offer_total_ms: 20.0,
            rounds: 1000,
            makespan_secs: 500.0,
        };
        let r = PerfReport {
            clusters: vec![ClusterResult {
                label: "hydra12".into(),
                nodes: 12,
                jobs: 8,
                timing: path,
            }],
            db: DbThroughput {
                ops_per_sec_1t: 1e6,
                ops_per_sec_4t: 3e6,
            },
            degraded: vec![("crash1".into(), 0.875)],
            event_overhead: 1.012,
            serve: vec![crate::serve::ServeBenchResult {
                label: "hydra64".into(),
                workers: 64,
                tasks: 3072,
                jobs_per_sec: 120.0,
                dispatch_p50_us: 9_000,
                dispatch_p99_us: 210_000,
                max_pending: 2_400,
                offer_rounds: 5_000,
                offer_p50_us: 80,
                offer_p95_us: 400,
                stale_launch_drops: 2,
                dead_launch_drops: 1,
                replay_match: true,
                lost: 0,
                clean: true,
            }],
            spot: vec![("resilience".into(), 1.08), ("cost_ratio".into(), 1.02)],
            fairness_jain: 0.917,
            gang_noop: 1.0,
        };
        let json = to_json(&r);
        assert_eq!(extract_number(&json, "offer_share_hydra12"), Some(0.2));
        assert!(gate_keys(&json).contains(&"offer_share_hydra12".to_string()));
        assert_eq!(extract_number(&json, "e2e_round_us_hydra12"), Some(100.0));
        assert!(gate_keys(&json).contains(&"e2e_round_us_hydra12".to_string()));
        assert_eq!(extract_number(&json, "fairness_jain_weighted"), Some(0.917));
        assert_eq!(extract_number(&json, "gang_admission_noop"), Some(1.0));
        assert!(gate_keys(&json).contains(&"fairness_jain_weighted".to_string()));
        assert!(gate_keys(&json).contains(&"gang_admission_noop".to_string()));
        assert_eq!(extract_number(&json, "lookup_ops_per_sec_1t"), Some(1e6));
        assert_eq!(
            extract_number(&json, "degraded_resilience_crash1"),
            Some(0.875)
        );
        assert!(gate_keys(&json).contains(&"degraded_resilience_crash1".to_string()));
        assert_eq!(extract_number(&json, "engine_event_overhead"), Some(1.012));
        assert!(gate_keys(&json).contains(&"engine_event_overhead".to_string()));
        assert_eq!(extract_number(&json, "spot_resilience"), Some(1.08));
        assert_eq!(extract_number(&json, "spot_cost_ratio"), Some(1.02));
        assert!(gate_keys(&json).contains(&"spot_resilience".to_string()));
        assert!(gate_keys(&json).contains(&"spot_cost_ratio".to_string()));
        assert_eq!(
            extract_number(&json, "serve_replay_digest_match_hydra64"),
            Some(1.0)
        );
        assert_eq!(
            extract_number(&json, "serve_dispatch_p99_us_hydra64"),
            Some(210_000.0)
        );
        assert!(gate_keys(&json).contains(&"serve_replay_digest_match_hydra64".to_string()));
        assert_eq!(extract_number(&json, "offer_rounds"), Some(5000.0));
        assert_eq!(extract_number(&json, "stale_launch_drops"), Some(2.0));
        assert_eq!(extract_number(&json, "dead_launch_drops"), Some(1.0));
        // no hydra256 entry → no max-pending / jobs-per-sec rows
        assert_eq!(extract_number(&json, "serve_max_pending_hydra256"), None);
        assert_eq!(extract_number(&json, "serve_jobs_per_sec_hydra256"), None);
    }

    #[test]
    fn serve_rows_gate_correctly_and_tolerate_absence() {
        let baseline = "{\"gate\": {\"serve_replay_digest_match_hydra64\": 1.0, \
                        \"serve_dispatch_p99_us_hydra64\": 100000, \
                        \"serve_jobs_per_sec_hydra256\": 14.0, \
                        \"serve_max_pending_hydra256\": 11000}}";
        // a --quick run carries no serve rows at all → clean
        let quick = "{\"gate\": {\"offer_share_hydra64\": 0.1}}";
        assert!(regressions(quick, baseline).is_empty());
        // digest match is absolute: 0.0 fails even against an empty baseline
        let broken = "{\"gate\": {\"serve_replay_digest_match_hydra64\": 0.0}}";
        let r = regressions(broken, "{\"gate\": {}}");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, 1.0);
        // dispatch gates on the per-shape absolute ceiling, not the baseline
        let slow = "{\"gate\": {\"serve_dispatch_p99_us_hydra64\": 600000}}";
        let r = regressions(slow, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, SERVE_DISPATCH_CEILING_HYDRA64_US);
        let ok64 = "{\"gate\": {\"serve_dispatch_p99_us_hydra64\": 120000}}";
        assert!(regressions(ok64, baseline).is_empty());
        // the big fleet gets the looser 2 s bound — a value past the
        // hydra64 ceiling but under 2 s is fine on hydra256
        let ok256 = "{\"gate\": {\"serve_dispatch_p99_us_hydra256\": 1500000}}";
        assert!(regressions(ok256, baseline).is_empty());
        let slow256 = "{\"gate\": {\"serve_dispatch_p99_us_hydra256\": 46000000}}";
        let r = regressions(slow256, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, SERVE_DISPATCH_CEILING_HYDRA256_US);
        // throughput is a ratio row: a real collapse is flagged
        let slow_jobs = "{\"gate\": {\"serve_jobs_per_sec_hydra256\": 1.4}}";
        let r = regressions(slow_jobs, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "serve_jobs_per_sec_hydra256");
        // max-pending is a ratio row: a real collapse is flagged
        let shallow = "{\"gate\": {\"serve_max_pending_hydra256\": 4000}}";
        let r = regressions(shallow, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "serve_max_pending_hydra256");
    }

    #[test]
    fn offer_scaling_row_emitted_when_both_shapes_present() {
        let path = |p50: f64| PathTiming {
            e2e_ms: 100.0,
            offer_p50_us: p50,
            offer_p95_us: p50 * 2.0,
            offer_total_ms: 20.0,
            rounds: 1000,
            makespan_secs: 500.0,
        };
        let cluster = |label: &str, nodes: usize, p50: f64| ClusterResult {
            label: label.into(),
            nodes,
            jobs: 8,
            timing: path(p50),
        };
        let mut r = PerfReport {
            clusters: vec![cluster("hydra64", 64, 4.0), cluster("hydra256", 256, 6.0)],
            db: DbThroughput {
                ops_per_sec_1t: 1e6,
                ops_per_sec_4t: 3e6,
            },
            degraded: Vec::new(),
            event_overhead: 1.0,
            serve: Vec::new(),
            spot: Vec::new(),
            fairness_jain: 0.9,
            gang_noop: 1.0,
        };
        let json = to_json(&r);
        assert_eq!(
            extract_number(&json, "offer_scaling_256_over_64"),
            Some(1.5)
        );
        assert!(gate_keys(&json).contains(&"offer_scaling_256_over_64".to_string()));
        // a run without hydra256 (e.g. a trimmed local loop) omits the row
        r.clusters.pop();
        let json = to_json(&r);
        assert_eq!(extract_number(&json, "offer_scaling_256_over_64"), None);
    }

    #[test]
    fn offer_scaling_gates_on_absolute_ceiling() {
        let baseline = "{\"gate\": {}}";
        let ok = "{\"gate\": {\"offer_scaling_256_over_64\": 1.7}}";
        assert!(regressions(ok, baseline).is_empty());
        let bad = "{\"gate\": {\"offer_scaling_256_over_64\": 2.3}}";
        let r = regressions(bad, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "offer_scaling_256_over_64");
        assert_eq!(r[0].2, OFFER_SCALING_CEILING);
    }

    #[test]
    fn fairness_gates_on_absolute_floor() {
        let baseline = "{\"gate\": {\"fairness_jain_weighted\": 0.950}}";
        // below the committed baseline but above the floor → fine
        let ok = "{\"gate\": {\"fairness_jain_weighted\": 0.880}}";
        assert!(regressions(ok, baseline).is_empty());
        // under the floor → flagged even against an empty baseline
        let bad = "{\"gate\": {\"fairness_jain_weighted\": 0.800}}";
        let r = regressions(bad, "{\"gate\": {}}");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "fairness_jain_weighted");
        assert_eq!(r[0].2, FAIRNESS_JAIN_FLOOR);
    }

    #[test]
    fn gang_noop_gate_is_binary() {
        let baseline = "{\"gate\": {}}";
        let ok = "{\"gate\": {\"gang_admission_noop\": 1.0}}";
        assert!(regressions(ok, baseline).is_empty());
        let bad = "{\"gate\": {\"gang_admission_noop\": 0.0}}";
        let r = regressions(bad, baseline);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "gang_admission_noop");
        assert_eq!(r[0].2, 1.0);
    }

    #[test]
    fn gang_admission_is_a_decision_noop_without_gang_stages() {
        assert_eq!(bench_gang_noop(), 1.0);
    }

    #[test]
    fn overhead_gates_on_absolute_ceiling_not_baseline() {
        let baseline = "{\"gate\": {\"engine_event_overhead\": 1.000}}";
        // worse than baseline but under the ceiling → fine
        let ok = "{\"gate\": {\"engine_event_overhead\": 1.040}}";
        assert!(regressions(ok, baseline).is_empty());
        // over the ceiling → flagged even if the baseline were worse
        let bad = "{\"gate\": {\"engine_event_overhead\": 1.081}}";
        let r = regressions(bad, "{\"gate\": {\"engine_event_overhead\": 2.000}}");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "engine_event_overhead");
        assert_eq!(r[0].2, ENGINE_OVERHEAD_CEILING);
        // absolute gate works even with no baseline entry at all
        let r = regressions(bad, "{\"gate\": {}}");
        assert_eq!(r.len(), 1);
    }
}
