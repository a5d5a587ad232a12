//! Cross-version trace-digest equivalence gate (`rupam-bench digests`).
//!
//! Replays a fixed scenario matrix — the full workload suite on two
//! cluster shapes under all three schedulers, the multi-tenant stream,
//! and the chaos-smoke fault script — and records each run's decision-
//! trace digest. A second block pins RUPAM configurations that take
//! dedicated dispatcher paths: tenant-scoped allocation (weighted-fair,
//! DRF, and weighted-fair with a quota under the fault script), gang
//! admission, a homogeneous cluster, the 64- and 256-node mixes whose
//! long tie classes exercise the node ranking's bound-pruned pick, and
//! a second chaos seed across three workloads. A third block pins the
//! elastic spot tier: CI's elastic smoke stream with and without the
//! fault script, the contended spot-tail burst under the `greedy`
//! and `on-demand-fallback` policies, and the elastic-chaos smoke over
//! the cache-reading KMeans and LR streams, once with tenants and a
//! quota. The committed golden file
//! (`tests/golden_trace_digests.txt`) pins the decision stream of the
//! tenant-aware engine (`v2`: trace events carry tenants); any refactor
//! of the engine, bus, or schedulers that changes a single decision (or
//! the order decisions are recorded in) flips a digest and fails the
//! gate loudly, instead of drifting silently.
//!
//! Digests are pure functions of `(code, cluster, workload, seed)` —
//! no wall-clock, no host randomness, integer-only event payloads — so
//! the golden file is portable across machines.

use std::fmt::Write as _;

use rupam::{AllocationPolicy, RupamConfig, TenantSpec};
use rupam_cluster::ClusterSpec;
use rupam_elastic::{ElasticConfig, SpotPolicy};
use rupam_exec::{SimConfig, SimOptions};
use rupam_faults::FaultScript;
use rupam_workloads::Workload;

use crate::harness::{
    run_stream_observed, run_stream_observed_cfg, run_workload_observed_cfg, Sched,
};
use crate::multitenant::{build_stream, build_weighted_stream, MEAN_GAP_SECS, TENANTS};
use crate::spot;

/// The chaos script shipped at the repository root, embedded so the
/// gate needs no working-directory assumptions.
const CHAOS_SMOKE_TOML: &str = include_str!("../../../chaos-smoke.toml");
/// The elasticity script shipped at the repository root.
const SPOT_SMOKE_TOML: &str = include_str!("../../../spot-smoke.toml");

/// Seed for the per-workload suite runs (matches
/// `tests/incremental_equivalence.rs`).
const SUITE_SEED: u64 = 707;
/// Seed for the multi-tenant stream scenario.
const STREAM_SEED: u64 = 909;
/// Seed for the chaos-script scenario.
const CHAOS_SEED: u64 = 42;
/// Seed for the gang-admission scenario (matches
/// `tests/tenant_scheduling.rs`).
const GANG_SEED: u64 = 101;
/// Seed for the multi-workload chaos scenarios (matches
/// `tests/fault_recovery.rs`).
const FAULT_SEED: u64 = 303;
/// Seed of CI's elastic smoke (`rupam-sim`'s default seed).
const ELASTIC_SMOKE_SEED: u64 = 101;
/// Seed for the contended spot-tail burst (matches
/// `tests/elastic_capacity.rs`).
const SPOT_SEED: u64 = 404;

/// Digest-only observation: every event hashed, nothing retained.
fn digest_opts() -> SimOptions {
    SimOptions {
        trace_capacity: Some(0),
        audit: None,
    }
}

/// Compute the full scenario matrix. Returns `(scenario name, digest)`
/// pairs in a stable order.
pub fn compute() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let shapes = [
        ("hydra", ClusterSpec::hydra()),
        ("mix211", ClusterSpec::hydra_mix(2, 1, 1)),
    ];
    let scheds = [Sched::Fifo, Sched::Spark, Sched::Rupam];
    let config = SimConfig::default();
    for (shape, cluster) in &shapes {
        for w in Workload::ALL {
            for sched in &scheds {
                let (_, obs) = run_workload_observed_cfg(
                    cluster,
                    w,
                    sched,
                    SUITE_SEED,
                    &digest_opts(),
                    &config,
                );
                out.push((
                    format!("suite/{shape}/{}/{}", w.short(), sched.label()),
                    obs.trace.expect("digest-only trace requested").digest(),
                ));
            }
        }
    }
    let cluster = ClusterSpec::hydra();
    let stream = build_stream(&cluster, &TENANTS, MEAN_GAP_SECS, STREAM_SEED);
    for sched in &scheds {
        let (_, obs) = run_stream_observed(&cluster, &stream, sched, STREAM_SEED, &digest_opts());
        out.push((
            format!("stream/hydra/{}", sched.label()),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    let script = FaultScript::parse_toml(CHAOS_SMOKE_TOML).expect("committed chaos script parses");
    let chaos_cfg = SimConfig::with_faults(script);
    for sched in [Sched::Spark, Sched::Rupam] {
        let (_, obs) = run_workload_observed_cfg(
            &cluster,
            Workload::TeraSort,
            &sched,
            CHAOS_SEED,
            &digest_opts(),
            &chaos_cfg,
        );
        out.push((
            format!("chaos/hydra/TeraSort/{}", sched.label()),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    out.extend(compute_rupam_paths(&stream, &chaos_cfg));
    out.extend(compute_elastic_paths(&chaos_cfg));
    out
}

/// The elastic spot tier: CI's elastic smoke (`rupam-sim --jobs 4
/// --arrival-secs 5 --workload TeraSort --elastic spot-smoke.toml`,
/// with and without `--faults chaos-smoke.toml`), the contended
/// spot-tail burst under two procurement policies, and the same
/// elastic-chaos smoke from KMeans and LR (KMeans once more with
/// `--tenants a:3@0.4,b:1`).
fn compute_elastic_paths(chaos_cfg: &SimConfig) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let cluster = ClusterSpec::hydra();
    let elastic = ElasticConfig::parse_toml(SPOT_SMOKE_TOML).expect("committed spot script parses");
    let smoke = build_stream(
        &cluster,
        &smoke4(Workload::TeraSort),
        5.0,
        ELASTIC_SMOKE_SEED,
    );
    for (name, faults) in [
        ("elastic", SimConfig::default()),
        ("elastic-chaos", chaos_cfg.clone()),
    ] {
        let config = SimConfig {
            elastic: elastic.clone(),
            ..faults
        };
        let (_, obs) = run_stream_observed_cfg(
            &cluster,
            &smoke,
            &Sched::Rupam,
            ELASTIC_SMOKE_SEED,
            &digest_opts(),
            &config,
        );
        out.push((
            format!("{name}/hydra/smoke4/RUPAM"),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    let stream = spot::burst(&cluster, SPOT_SEED);
    for policy in [SpotPolicy::Greedy, SpotPolicy::OnDemandFallback] {
        let (_, obs) = run_stream_observed_cfg(
            &cluster,
            &stream,
            &Sched::Rupam,
            SPOT_SEED,
            &digest_opts(),
            &spot::churn_config(policy),
        );
        out.push((
            format!(
                "elastic/hydra/spot-tail/{}/RUPAM/s{SPOT_SEED}",
                policy.code()
            ),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    // the elastic-chaos smoke over cache-reading workloads, and with the
    // benchmark's tenants (`--tenants a:3@0.4,b:1`)
    let elastic_chaos = SimConfig {
        elastic,
        ..chaos_cfg.clone()
    };
    let tenants = [("a", 3.0), ("b", 1.0)];
    for (first, sched, weighted) in [
        (Workload::KMeans, Sched::Rupam, false),
        (Workload::LogisticRegression, Sched::Rupam, false),
        (Workload::KMeans, Sched::RupamWith(deep_tenants()), true),
    ] {
        let stream = if weighted {
            build_weighted_stream(&cluster, &smoke4(first), 5.0, ELASTIC_SMOKE_SEED, &tenants)
        } else {
            build_stream(&cluster, &smoke4(first), 5.0, ELASTIC_SMOKE_SEED)
        };
        let (_, obs) = run_stream_observed_cfg(
            &cluster,
            &stream,
            &sched,
            ELASTIC_SMOKE_SEED,
            &digest_opts(),
            &elastic_chaos,
        );
        out.push((
            format!(
                "elastic-chaos/hydra/{}/smoke4/{}",
                first.short(),
                sched.label()
            ),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    out
}

/// `rupam-sim --jobs 4 --workload <first>`: four jobs cycling the suite
/// from `first`.
fn smoke4(first: Workload) -> Vec<Workload> {
    let start = Workload::ALL
        .iter()
        .position(|&w| w == first)
        .expect("every workload is in the suite");
    (0..4)
        .map(|i| Workload::ALL[(start + i) % Workload::ALL.len()])
        .collect()
}

/// The benchmark's sim-deep scheduler: weighted-fair, a quota on the
/// heavy tenant (`a:3@0.4,b:1`).
fn deep_tenants() -> RupamConfig {
    RupamConfig {
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
    }
}

/// The RUPAM configurations beyond the default: tenant scopes, gang
/// admission, a homogeneous cluster, multi-rack clusters, and chaos
/// across workloads.
fn compute_rupam_paths(
    stream: &rupam_dag::MergedStream,
    chaos_cfg: &SimConfig,
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let digest =
        |obs: rupam_exec::SimObservation| obs.trace.expect("digest-only trace requested").digest();
    let cluster = ClusterSpec::hydra();
    let config = SimConfig::default();
    let policy = |allocation| RupamConfig {
        allocation,
        ..RupamConfig::default()
    };
    // the benchmark's sim-deep scheduler runs under the fault script
    for (prefix, cfg, sim_cfg) in [
        ("stream", policy(AllocationPolicy::WeightedFair), &config),
        ("stream", policy(AllocationPolicy::Drf), &config),
        ("chaos-stream", deep_tenants(), chaos_cfg),
    ] {
        let sched = Sched::RupamWith(cfg);
        let (_, obs) = run_stream_observed_cfg(
            &cluster,
            stream,
            &sched,
            STREAM_SEED,
            &digest_opts(),
            sim_cfg,
        );
        out.push((format!("{prefix}/hydra/{}", sched.label()), digest(obs)));
    }
    let gang = Sched::RupamWith(RupamConfig {
        gang_admission: true,
        ..RupamConfig::default()
    });
    let (_, obs) = run_workload_observed_cfg(
        &cluster,
        Workload::GramianMatrix,
        &gang,
        GANG_SEED,
        &digest_opts(),
        &config,
    );
    out.push((
        format!("gang/hydra/GM/{}/s{GANG_SEED}", gang.label()),
        digest(obs),
    ));
    let homogeneous = ClusterSpec::homogeneous(8);
    for w in Workload::ALL {
        let (_, obs) = run_workload_observed_cfg(
            &homogeneous,
            w,
            &Sched::Rupam,
            SUITE_SEED,
            &digest_opts(),
            &config,
        );
        out.push((format!("suite/homo8/{}/RUPAM", w.short()), digest(obs)));
    }
    // the large mixes: every workload on 64 nodes, the two
    // shuffle-heavy ones on 256
    for (shape, racked, workloads) in [
        (
            "hydra64",
            ClusterSpec::hydra_mix(48, 8, 8),
            &Workload::ALL[..],
        ),
        (
            "hydra256",
            ClusterSpec::hydra_mix(192, 32, 32),
            &[Workload::TeraSort, Workload::PageRank][..],
        ),
    ] {
        for &w in workloads {
            let (_, obs) = run_workload_observed_cfg(
                &racked,
                w,
                &Sched::Rupam,
                SUITE_SEED,
                &digest_opts(),
                &config,
            );
            out.push((format!("suite/{shape}/{}/RUPAM", w.short()), digest(obs)));
        }
    }
    for w in [Workload::TeraSort, Workload::PageRank, Workload::Sql] {
        let (_, obs) = run_workload_observed_cfg(
            &cluster,
            w,
            &Sched::Rupam,
            FAULT_SEED,
            &digest_opts(),
            chaos_cfg,
        );
        out.push((
            format!("chaos/hydra/{}/RUPAM/s{FAULT_SEED}", w.short()),
            digest(obs),
        ));
    }
    out
}

/// The committed golden document, embedded so tests can compare a run
/// against its pin without working-directory assumptions.
pub const GOLDEN: &str = include_str!("../../../tests/golden_trace_digests.txt");

/// The pinned digest of scenario `name` in [`GOLDEN`].
pub fn pinned(name: &str) -> Option<u64> {
    parse(GOLDEN)?
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, d)| d)
}

/// Render digests as the committed golden document: one
/// `name digest-hex` line per scenario, plus a schema header so format
/// drift fails loudly (same convention as the trace CSV export).
pub fn render(digests: &[(String, u64)]) -> String {
    let mut s = String::from("# rupam-trace-digests v2\n");
    for (name, d) in digests {
        let _ = writeln!(s, "{name} {d:016x}");
    }
    s
}

/// Parse a golden document back into `(name, digest)` pairs.
/// Returns `None` on a missing/unknown schema header or a bad line.
pub fn parse(doc: &str) -> Option<Vec<(String, u64)>> {
    let mut lines = doc.lines();
    if lines.next()?.trim() != "# rupam-trace-digests v2" {
        return None;
    }
    let mut out = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.rsplit_once(' ')?;
        out.push((name.trim().to_string(), u64::from_str_radix(hex, 16).ok()?));
    }
    Some(out)
}

/// Compare fresh digests against a committed golden document. Returns
/// human-readable mismatch descriptions (empty = equivalent). A
/// scenario present on only one side is a mismatch too: silently
/// shrinking the matrix must not pass the gate.
pub fn compare(fresh: &[(String, u64)], golden: &[(String, u64)]) -> Vec<String> {
    let mut bad = Vec::new();
    let fresh_map: std::collections::BTreeMap<&str, u64> =
        fresh.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let golden_map: std::collections::BTreeMap<&str, u64> =
        golden.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    for (name, g) in &golden_map {
        match fresh_map.get(name) {
            Some(f) if f == g => {}
            Some(f) => bad.push(format!(
                "{name}: digest {f:016x} != golden {g:016x} — decisions diverged from the \
                 committed reference"
            )),
            None => bad.push(format!("{name}: scenario missing from the fresh matrix")),
        }
    }
    for name in fresh_map.keys() {
        if !golden_map.contains_key(name) {
            bad.push(format!(
                "{name}: scenario not in the golden file — regenerate it"
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let digests = vec![
            ("suite/hydra/LR/RUPAM".to_string(), 0x0123_4567_89ab_cdef),
            ("stream/hydra/Spark".to_string(), u64::MAX),
        ];
        let doc = render(&digests);
        assert!(doc.starts_with("# rupam-trace-digests v2\n"));
        assert_eq!(parse(&doc).unwrap(), digests);
    }

    #[test]
    fn golden_file_parses_and_pins_by_name() {
        let all = parse(GOLDEN).expect("committed golden file parses");
        assert!(all.len() >= 77);
        let (name, d) = &all[0];
        assert_eq!(pinned(name), Some(*d));
        assert_eq!(pinned("no/such/scenario"), None);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(parse("suite/hydra/LR/RUPAM 0123456789abcdef").is_none());
        assert!(parse("# rupam-trace-digests v1\na 1").is_none());
    }

    #[test]
    fn compare_flags_divergence_and_missing() {
        let golden = vec![("a".to_string(), 1u64), ("b".to_string(), 2u64)];
        assert!(compare(&golden, &golden).is_empty());
        let fresh = vec![("a".to_string(), 1u64), ("b".to_string(), 3u64)];
        let bad = compare(&fresh, &golden);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("diverged"));
        let fresh = vec![("a".to_string(), 1u64)];
        assert_eq!(compare(&fresh, &golden).len(), 1);
        let fresh = vec![
            ("a".to_string(), 1u64),
            ("b".to_string(), 2u64),
            ("c".to_string(), 9u64),
        ];
        assert_eq!(compare(&fresh, &golden).len(), 1);
    }
}
