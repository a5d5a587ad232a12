//! `rupam-sim` — run one scheduling scenario from the command line.
//!
//! ```text
//! rupam-sim [--cluster hydra|two-node|uniform:<n>|mix:<thor>,<hulk>,<stack>]
//!           [--workload LR|SQL|TeraSort|PR|TC|GM|KMeans]
//!           [--scheduler spark|rupam|fifo]
//!           [--seed <n>] [--jobs <n>] [--arrival-secs <s>]
//!           [--tenants a:3,b:1]
//!           [--faults <script.toml>] [--elastic <script.toml>]
//!           [--timeline] [--census] [--compare]
//!           [--trace <path>] [--audit]
//! ```
//!
//! Examples:
//!
//! ```text
//! rupam-sim --workload PR --compare --timeline
//! rupam-sim --cluster mix:9,3,0 --workload LR --scheduler rupam --census
//! rupam-sim --workload SQL --audit --trace /tmp/sql-trace
//! rupam-sim --jobs 4 --arrival-secs 30 --compare
//! rupam-sim --workload TeraSort --faults chaos-smoke.toml --audit
//! ```
//!
//! `--faults <script.toml>` injects the chaos script (see the README
//! for the `[[fault]]` TOML format) into every run; the report then
//! carries fault/recovery counters.
//!
//! `--elastic <script.toml>` arms the spot tier: the script names spot
//! pools (`[[pool]]`) and controller tunables (`[elastic]`), the cluster
//! churns under seeded price-correlated preemptions and autoscaling, and
//! the report carries a cost ledger. Composes with `--faults`.
//!
//! `--audit` replays every offer round through the invariant auditor and
//! reports violations (exit code 1 if any fire); `--trace <path>` writes
//! the full decision trace as CSV, one file per scheduler.
//!
//! `--jobs N` (N > 1) switches to a multi-tenant stream: N suite
//! workloads, cycling [`Workload::ALL`] starting at `--workload`, arrive
//! online with seeded exponential inter-arrival gaps of mean
//! `--arrival-secs` (default 30). One long-lived scheduler serves the
//! whole stream and per-job completion times are reported.
//!
//! `--tenants a:3,b:1` names the stream's tenants and weights their
//! arrival shares: each of the `--jobs` submissions is attributed to a
//! tenant drawn (seeded) proportionally to its weight, instead of every
//! job being its own tenant. With `--scheduler rupam` the same weights
//! arm weighted-fair allocation, so tenant `a` is also *entitled* to 3x
//! tenant `b`'s share of each offer round; other schedulers use the
//! weights for arrival attribution only.

use std::env;
use std::process::exit;

use rupam::{AllocationPolicy, RupamConfig, TenantSpec};
use rupam_bench::multitenant::{self, build_stream};
use rupam_bench::{
    placement_census, run_stream_cfg, run_stream_observed_cfg, run_workload_cfg,
    run_workload_observed_cfg, Sched,
};
use rupam_cluster::ClusterSpec;
use rupam_dag::MergedStream;
use rupam_elastic::ElasticConfig;
use rupam_exec::{AuditConfig, SimConfig, SimOptions};
use rupam_faults::FaultScript;
use rupam_metrics::timeline;
use rupam_metrics::trace::DEFAULT_TRACE_CAPACITY;
use rupam_workloads::Workload;

struct Options {
    cluster: ClusterSpec,
    cluster_label: String,
    workload: Workload,
    scheduler: Sched,
    seed: u64,
    jobs: usize,
    arrival_secs: f64,
    tenants: Vec<TenantArg>,
    timeline: bool,
    census: bool,
    compare: bool,
    csv: Option<String>,
    trace: Option<String>,
    audit: bool,
    config: SimConfig,
    faults_label: Option<String>,
    elastic_label: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rupam-sim [--cluster hydra|two-node|uniform:<n>|mix:<t>,<h>,<s>]\n\
         \x20                [--workload LR|SQL|TeraSort|PR|TC|GM|KMeans]\n\
         \x20                [--scheduler spark|rupam|fifo] [--seed <n>]\n\
         \x20                [--jobs <n>] [--arrival-secs <s>] [--tenants a:3,b:1]\n\
         \x20                [--faults <script.toml>] [--elastic <script.toml>]\n\
         \x20                [--timeline] [--census] [--compare] [--csv <path>]\n\
         \x20                [--trace <path>] [--audit]"
    );
    exit(2)
}

fn parse_cluster(spec: &str) -> Option<(ClusterSpec, String)> {
    if spec == "hydra" {
        return Some((
            ClusterSpec::hydra(),
            "hydra (6 thor / 4 hulk / 2 stack)".into(),
        ));
    }
    if spec == "two-node" {
        return Some((
            ClusterSpec::two_node_motivation(),
            "two-node motivation".into(),
        ));
    }
    if let Some(n) = spec.strip_prefix("uniform:") {
        let n: usize = n.parse().ok().filter(|&n| n > 0)?;
        return Some((ClusterSpec::homogeneous(n), format!("{n} uniform nodes")));
    }
    if let Some(mix) = spec.strip_prefix("mix:") {
        let parts: Vec<usize> = mix
            .split(',')
            .map(|p| p.parse().ok())
            .collect::<Option<_>>()?;
        if parts.len() != 3 || parts.iter().sum::<usize>() == 0 {
            return None;
        }
        return Some((
            ClusterSpec::hydra_mix(parts[0], parts[1], parts[2]),
            format!("{} thor / {} hulk / {} stack", parts[0], parts[1], parts[2]),
        ));
    }
    None
}

/// One named tenant from `--tenants`.
struct TenantArg {
    name: String,
    weight: f64,
    /// Optional dominant-share quota ceiling (`name:weight@quota`).
    quota: Option<f64>,
}

/// Parse `a:3,b:1` (or `a:3@0.4,b:1` to cap tenant `a` at 40 % of the
/// cluster's dominant resource) into named tenant weights. Names must
/// be unique and non-empty; weights must be finite and positive;
/// quotas must lie in `(0, 1]`.
fn parse_tenants(spec: &str) -> Option<Vec<TenantArg>> {
    let mut tenants: Vec<TenantArg> = Vec::new();
    for part in spec.split(',') {
        let (name, rest) = part.split_once(':')?;
        let (weight, quota) = match rest.split_once('@') {
            Some((w, q)) => {
                let q: f64 = q.parse().ok()?;
                if !q.is_finite() || q <= 0.0 || q > 1.0 {
                    return None;
                }
                (w, Some(q))
            }
            None => (rest, None),
        };
        let weight: f64 = weight.parse().ok()?;
        if name.is_empty() || !weight.is_finite() || weight <= 0.0 {
            return None;
        }
        if tenants.iter().any(|t| t.name == name) {
            return None;
        }
        tenants.push(TenantArg {
            name: name.to_string(),
            weight,
            quota,
        });
    }
    if tenants.is_empty() {
        return None;
    }
    Some(tenants)
}

fn parse_args() -> Options {
    let mut opts = Options {
        cluster: ClusterSpec::hydra(),
        cluster_label: "hydra (6 thor / 4 hulk / 2 stack)".into(),
        workload: Workload::LogisticRegression,
        scheduler: Sched::Rupam,
        seed: 101,
        jobs: 1,
        arrival_secs: 30.0,
        tenants: Vec::new(),
        timeline: false,
        census: false,
        compare: false,
        csv: None,
        trace: None,
        audit: false,
        config: SimConfig::default(),
        faults_label: None,
        elastic_label: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cluster" => {
                let v = args.next().unwrap_or_else(|| usage());
                match parse_cluster(&v) {
                    Some((c, label)) => {
                        opts.cluster = c;
                        opts.cluster_label = label;
                    }
                    None => {
                        eprintln!("unknown cluster spec {v:?}");
                        usage()
                    }
                }
            }
            "--workload" => {
                let v = args.next().unwrap_or_else(|| usage());
                match Workload::ALL
                    .iter()
                    .find(|w| w.short().eq_ignore_ascii_case(&v))
                {
                    Some(w) => opts.workload = *w,
                    None => {
                        eprintln!("unknown workload {v:?}");
                        usage()
                    }
                }
            }
            "--scheduler" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.scheduler = match v.to_ascii_lowercase().as_str() {
                    "spark" => Sched::Spark,
                    "rupam" => Sched::Rupam,
                    "fifo" => Sched::Fifo,
                    _ => {
                        eprintln!("unknown scheduler {v:?}");
                        usage()
                    }
                };
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.jobs = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage());
            }
            "--arrival-secs" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.arrival_secs = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--tenants" => {
                let v = args.next().unwrap_or_else(|| usage());
                match parse_tenants(&v) {
                    Some(t) => opts.tenants = t,
                    None => {
                        eprintln!(
                            "bad tenant spec {v:?} (expected name:weight[,name:weight...] \
                             with unique names and positive weights)"
                        );
                        usage()
                    }
                }
            }
            "--faults" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read fault script {path}: {e}");
                    exit(2)
                });
                let script = FaultScript::parse_toml(&text).unwrap_or_else(|e| {
                    eprintln!("bad fault script {path}: {e}");
                    exit(2)
                });
                opts.faults_label = Some(format!("{path} ({} events)", script.len()));
                opts.config.faults.script = script;
            }
            "--elastic" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read elasticity script {path}: {e}");
                    exit(2)
                });
                let elastic = ElasticConfig::parse_toml(&text).unwrap_or_else(|e| {
                    eprintln!("bad elasticity script {path}: {e}");
                    exit(2)
                });
                opts.elastic_label = Some(format!(
                    "{path} ({} pools, policy {})",
                    elastic.pools.len(),
                    elastic.policy.code()
                ));
                opts.config.elastic = elastic;
            }
            "--csv" => opts.csv = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--audit" => opts.audit = true,
            "--timeline" => opts.timeline = true,
            "--census" => opts.census = true,
            "--compare" => opts.compare = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if !opts.tenants.is_empty() && opts.jobs <= 1 {
        eprintln!("--tenants needs a stream: pass --jobs <n> with n > 1");
        usage()
    }
    opts
}

/// The stream tenants for `--jobs N`: the suite cycled starting at the
/// `--workload` selection.
fn stream_tenants(opts: &Options) -> Vec<Workload> {
    let start = Workload::ALL
        .iter()
        .position(|&w| w == opts.workload)
        .unwrap_or(0);
    (0..opts.jobs)
        .map(|i| Workload::ALL[(start + i) % Workload::ALL.len()])
        .collect()
}

/// Build the `--tenants` stream: the same cycled workloads and seeded
/// exponential arrival gaps as [`build_stream`], each submission
/// attributed to a named tenant drawn by weight.
fn build_weighted_stream(opts: &Options) -> MergedStream {
    let tenants: Vec<(&str, f64)> = (opts.tenants.iter())
        .map(|t| (t.name.as_str(), t.weight))
        .collect();
    multitenant::build_weighted_stream(
        &opts.cluster,
        &stream_tenants(opts),
        opts.arrival_secs,
        opts.seed,
        &tenants,
    )
}

/// With `--tenants`, the RUPAM scheduler inherits the tenant weights as
/// weighted-fair shares (and any `@quota` caps as preemption-armed
/// ceilings); every other scheduler (and every run without the flag) is
/// passed through unchanged.
fn effective_sched(opts: &Options, sched: &Sched) -> Sched {
    if opts.tenants.is_empty() || !matches!(sched, Sched::Rupam) {
        return sched.clone();
    }
    Sched::RupamWith(RupamConfig {
        allocation: AllocationPolicy::WeightedFair,
        tenants: opts
            .tenants
            .iter()
            .map(|t| TenantSpec {
                weight: t.weight,
                quota: t.quota,
            })
            .collect(),
        ..RupamConfig::default()
    })
}

fn run_one(opts: &Options, sched: &Sched) -> bool {
    let sched = &effective_sched(opts, sched);
    let observe = opts.trace.is_some() || opts.audit;
    let sim_opts = SimOptions {
        trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
        audit: opts.audit.then(AuditConfig::default),
    };
    let (report, observation) = if opts.jobs > 1 {
        let stream = if opts.tenants.is_empty() {
            build_stream(
                &opts.cluster,
                &stream_tenants(opts),
                opts.arrival_secs,
                opts.seed,
            )
        } else {
            build_weighted_stream(opts)
        };
        if observe {
            let (report, obs) = run_stream_observed_cfg(
                &opts.cluster,
                &stream,
                sched,
                opts.seed,
                &sim_opts,
                &opts.config,
            );
            (report, Some(obs))
        } else {
            (
                run_stream_cfg(&opts.cluster, &stream, sched, opts.seed, &opts.config),
                None,
            )
        }
    } else if observe {
        let (report, obs) = run_workload_observed_cfg(
            &opts.cluster,
            opts.workload,
            sched,
            opts.seed,
            &sim_opts,
            &opts.config,
        );
        (report, Some(obs))
    } else {
        (
            run_workload_cfg(&opts.cluster, opts.workload, sched, opts.seed, &opts.config),
            None,
        )
    };
    let waste = timeline::waste(&report);
    println!(
        "{:<6} | makespan {:>9} | completed {} | oom {} | exec-lost {} | spec {} (wins {}) \
         | gpu tasks {} | wasted {:.1}s",
        sched.label(),
        format!("{}", report.makespan),
        report.completed,
        report.oom_failures,
        report.executor_losses,
        report.speculative_launched,
        report.speculative_wins,
        report.gpu_task_count(),
        (waste.failed_secs + waste.race_secs).max(0.0),
    );
    if opts.faults_label.is_some() {
        let f = &report.faults;
        println!(
            "  faults: {} crash / {} restart / {} slowdown / {} dropout / {} flaky | \
             suspects {} deaths {} readmissions {} | killed {} recovered {} \
             (mean {:.1}s) | map outs recomputed {}",
            f.crashes,
            f.restarts,
            f.slowdowns,
            f.dropouts,
            f.flaky_windows,
            f.suspects,
            f.deaths,
            f.readmissions,
            f.tasks_killed,
            f.recoveries,
            f.mean_recovery_secs(),
            f.map_outputs_recomputed,
        );
    }
    if opts.elastic_label.is_some() {
        let c = &report.cost;
        println!(
            "  cost: ${:.4} (on-demand ${:.4} / spot ${:.4}) over {:.0} node-s | \
             provisions {} decommissions {} preemptions {}",
            c.total_cost(),
            c.on_demand_cost,
            c.spot_cost,
            c.total_node_secs(),
            c.provisions,
            c.decommissions,
            c.preemptions,
        );
    }
    if opts.jobs > 1 {
        for j in &report.jobs {
            match j.jct() {
                Some(jct) => println!(
                    "  job {:>2} {:<12} arrived {:>9} | jct {}",
                    j.job.index(),
                    j.name,
                    format!("{}", j.submitted_at),
                    jct
                ),
                None => println!(
                    "  job {:>2} {:<12} arrived {:>9} | unfinished",
                    j.job.index(),
                    j.name,
                    format!("{}", j.submitted_at)
                ),
            }
        }
        // JCT figures average over the jobs that finished; say so when
        // an aborted run left some unfinished
        let finished = report.jobs.iter().filter(|j| j.jct().is_some()).count();
        let total = report.jobs.len();
        let survivors = if finished < total {
            " (finished jobs only)"
        } else {
            ""
        };
        println!(
            "  JCT mean {:.1}s | p95 {:.1}s over {finished}/{total} finished jobs",
            report.jct_mean(),
            report.jct_p95(),
        );
        if !opts.tenants.is_empty() {
            for (tenant, mean) in report.tenant_jct_means() {
                let t = &opts.tenants[tenant.index()];
                println!(
                    "  tenant {:<8} (weight {:.1}) mean JCT {mean:.1}s{survivors}",
                    t.name, t.weight
                );
            }
            println!(
                "  Jain index over per-tenant mean JCTs: {:.3}{survivors}",
                report.tenant_jain_jct()
            );
        }
    }
    if opts.census {
        print!("{}", placement_census(&opts.cluster, &report));
    }
    if opts.timeline {
        let names: Vec<String> = opts.cluster.iter().map(|(_, n)| n.name.clone()).collect();
        print!("{}", timeline::render(&report, &names, 72));
    }
    if let Some(path) = &opts.csv {
        let csv = rupam_metrics::export::records_csv(&report);
        let file = format!("{path}.{}.csv", sched.label().to_lowercase());
        match std::fs::write(&file, csv) {
            Ok(()) => println!("wrote task records to {file}"),
            Err(e) => eprintln!("could not write {file}: {e}"),
        }
    }
    let mut clean = true;
    if let Some(obs) = observation {
        if let (Some(path), Some(trace)) = (&opts.trace, obs.trace.as_ref()) {
            let file = format!("{path}.{}.csv", sched.label().to_lowercase());
            match std::fs::write(&file, rupam_metrics::export::trace_csv(trace)) {
                Ok(()) => println!(
                    "wrote {} trace events to {file} (digest {:016x}, {} dropped)",
                    trace.len(),
                    trace.digest(),
                    trace.dropped()
                ),
                Err(e) => eprintln!("could not write {file}: {e}"),
            }
        }
        if opts.audit {
            if obs.violations.is_empty() {
                println!("audit: every offer round satisfied the launch invariants");
            } else {
                clean = false;
                println!("audit: {} violations", obs.violations.len());
                for v in &obs.violations {
                    println!("  round {:>5} [{}] {}", v.round, v.check, v.detail);
                }
            }
        }
    }
    clean
}

fn main() {
    let opts = parse_args();
    if opts.jobs > 1 {
        let tenants: Vec<&str> = stream_tenants(&opts).iter().map(|w| w.short()).collect();
        println!(
            "cluster: {} | stream: {} (mean gap {:.0}s) | seed {}",
            opts.cluster_label,
            tenants.join("+"),
            opts.arrival_secs,
            opts.seed
        );
        if !opts.tenants.is_empty() {
            let mix: Vec<String> = opts
                .tenants
                .iter()
                .map(|t| match t.quota {
                    Some(q) => format!("{}:{:.0}@{q}", t.name, t.weight),
                    None => format!("{}:{:.0}", t.name, t.weight),
                })
                .collect();
            println!("tenants: {} (weighted arrival shares)", mix.join(", "));
        }
    } else {
        println!(
            "cluster: {} | workload: {} ({}) | seed {}",
            opts.cluster_label,
            opts.workload.name(),
            opts.workload.input_description(),
            opts.seed
        );
    }
    if let Some(label) = &opts.faults_label {
        println!("faults: {label}");
    }
    if let Some(label) = &opts.elastic_label {
        println!("elastic: {label}");
    }
    let mut clean = true;
    if opts.compare {
        for sched in [Sched::Fifo, Sched::Spark, Sched::Rupam] {
            clean &= run_one(&opts, &sched);
        }
    } else {
        clean = run_one(&opts, &opts.scheduler.clone());
    }
    if !clean {
        exit(1);
    }
}
