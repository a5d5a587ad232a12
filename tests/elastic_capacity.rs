//! Elastic-capacity integration tests: the spot tier's no-op guarantee,
//! deterministic churn, cost accounting, and scripted preemptions.
//!
//! The central promises under test:
//!
//! * An **empty elasticity script is a strict no-op** — no controller
//!   event is scheduled, no RNG stream is drawn from, and decision
//!   traces are byte-identical to a run built without the elastic
//!   layer (the same guarantee the faults subsystem makes).
//! * **Churn loses no tasks**: provisioning, idle decommissions and
//!   price-correlated preemption drains all route node loss through the
//!   lineage-recompute recovery path, so every run completes.
//! * **Same seed ⇒ same churn**: the price path and preemption draws
//!   live on a dedicated RNG stream keyed by the run seed.

use rupam::config::RupamConfig;
use rupam_bench::spot::{burst, churn_config};
use rupam_bench::{
    run_stream_observed_cfg, run_workload_cfg, run_workload_observed, run_workload_observed_cfg,
    Sched,
};
use rupam_cluster::ClusterSpec;
use rupam_elastic::{ElasticConfig, SpotPolicy};
use rupam_exec::{SimConfig, SimOptions};
use rupam_faults::FaultScript;
use rupam_workloads::Workload;

fn digest(obs: &rupam_exec::SimObservation) -> u64 {
    obs.trace.as_ref().expect("trace enabled").digest()
}

/// The committed CI elasticity script must keep parsing — it is both
/// the chaos-smoke input and the README's documented TOML dialect.
#[test]
fn committed_smoke_script_parses() {
    let cfg = ElasticConfig::parse_toml(include_str!("../spot-smoke.toml"))
        .expect("spot-smoke.toml parses");
    assert_eq!(cfg.pools.len(), 1);
    let members: Vec<usize> = cfg.pools[0].nodes.iter().map(|n| n.index()).collect();
    assert_eq!(members, vec![8, 9, 10, 11]);
    assert!(!cfg.is_empty());
}

/// Empty script ⇒ the elastic layer never constructs a controller,
/// never schedules a check, never draws from its RNG stream:
/// byte-identical decisions to the default configuration, across the
/// whole suite.
#[test]
fn empty_elastic_script_is_a_strict_noop() {
    let cluster = ClusterSpec::hydra();
    let empty =
        SimConfig::with_elastic(ElasticConfig::parse_toml("").expect("empty script parses"));
    assert!(empty.elastic.is_empty());
    for w in Workload::ALL {
        let (plain_rep, plain) =
            run_workload_observed(&cluster, w, &Sched::Rupam, 707, &SimOptions::audited());
        let (empty_rep, empty_obs) = run_workload_observed_cfg(
            &cluster,
            w,
            &Sched::Rupam,
            707,
            &SimOptions::audited(),
            &empty,
        );
        assert_eq!(
            digest(&plain),
            digest(&empty_obs),
            "{w:?}: empty elasticity script changed the decision trace"
        );
        assert_eq!(plain_rep.makespan, empty_rep.makespan);
        assert_eq!(
            empty_rep.cost,
            Default::default(),
            "{w:?}: spurious cost ledger"
        );
    }
}

/// The risk discount is driven entirely by the published per-node risk,
/// which is 0.0 without an elastic tier — so any `spot_risk_penalty`
/// value leaves a non-elastic run's decisions byte-identical.
#[test]
fn risk_penalty_is_a_noop_without_spot_pools() {
    let cluster = ClusterSpec::hydra();
    let blind = RupamConfig {
        spot_risk_penalty: 0.0,
        ..RupamConfig::default()
    };
    let paranoid = RupamConfig {
        spot_risk_penalty: 25.0,
        ..RupamConfig::default()
    };
    let (_, base) = run_workload_observed(
        &cluster,
        Workload::TeraSort,
        &Sched::Rupam,
        707,
        &SimOptions::audited(),
    );
    for cfg in [blind, paranoid] {
        let (_, obs) = run_workload_observed(
            &cluster,
            Workload::TeraSort,
            &Sched::RupamWith(cfg),
            707,
            &SimOptions::audited(),
        );
        assert_eq!(
            digest(&base),
            digest(&obs),
            "risk penalty must not perturb a fixed-fleet run"
        );
    }
}

/// Same seed + same elasticity script ⇒ identical decision traces and
/// identical cost ledgers, with the churn actually firing; a different
/// seed walks a different price path.
#[test]
fn elastic_churn_is_seed_deterministic() {
    let cluster = ClusterSpec::hydra();
    // a contended spot-tail burst: jobs arriving ~2 s apart, the four
    // weakest nodes in a cheap churning pool that scales up on any backlog
    let config = churn_config(SpotPolicy::Greedy);
    let stream = burst(&cluster, 404);
    let run = |seed: u64| {
        run_stream_observed_cfg(
            &cluster,
            &stream,
            &Sched::Rupam,
            seed,
            &SimOptions::audited(),
            &config,
        )
    };
    let (rep_a, obs_a) = run(404);
    let (rep_b, obs_b) = run(404);
    assert_eq!(digest(&obs_a), digest(&obs_b), "same seed, same churn");
    assert_eq!(rep_a.cost, rep_b.cost, "same seed, same ledger");
    assert!(rep_a.completed, "churn must not stall the stream");
    assert!(
        rep_a.cost.provisions > 0,
        "contended stream must scale into the spot pool: {:?}",
        rep_a.cost
    );
    assert!(rep_a.cost.spot_cost > 0.0, "spot node-seconds must bill");
    let (_, obs_c) = run(405);
    assert_ne!(
        digest(&obs_a),
        digest(&obs_c),
        "a different seed must walk a different price path"
    );
}

/// Every task survives the churn: preemption drains kill running
/// attempts and drop finished map outputs, and all of it must be
/// re-executed to completion (the sim's `completed` flag covers every
/// job of the stream).
#[test]
fn preemption_churn_loses_no_tasks() {
    let cluster = ClusterSpec::hydra();
    let mut config = churn_config(SpotPolicy::Greedy);
    // push preemptions hard: every check preempts ~each active spot
    // node with 20 % probability
    config.elastic.pools[0].preempt_base = 0.2;
    config.elastic.pools[0].notice_secs = 2.0;
    let stream = burst(&cluster, 505);
    let (report, _) = run_stream_observed_cfg(
        &cluster,
        &stream,
        &Sched::Rupam,
        505,
        &SimOptions::audited(),
        &config,
    );
    assert!(report.completed, "every job must finish despite churn");
    assert!(
        report.cost.preemptions > 0,
        "the aggressive pool must actually preempt: {:?}",
        report.cost
    );
    assert_eq!(
        report.faults.preemptions, report.cost.preemptions,
        "fault statistics and the cost ledger count the same drains"
    );
}

/// A scripted `preempt` fault on a fixed-fleet node: drain notice, then
/// the node goes down the crash path and the run still completes (the
/// engine treats capacity reclaim exactly like a crash at fire time).
#[test]
fn scripted_preemption_drains_then_reclaims() {
    let cluster = ClusterSpec::hydra();
    let script =
        FaultScript::parse_toml("[[fault]]\nat = 5.0\nnode = 3\nkind = \"preempt\"\nnotice = 4.0")
            .expect("scripted preempt parses");
    let config = SimConfig::with_faults(script);
    let report = run_workload_cfg(&cluster, Workload::TeraSort, &Sched::Rupam, 101, &config);
    assert!(report.completed, "reclaim must not sink the run");
    assert_eq!(report.faults.preemptions, 1, "exactly one notice fired");
}
