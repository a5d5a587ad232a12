//! Equivalence gate for the sharded node-queue cache: splitting the
//! per-kind rankings across rack (or fixed-size) shards, scoring shards
//! independently and merging winners with the cross-shard suffix-max
//! comparison must take *exactly* the decisions of the unsharded path —
//! on every workload, from the 12-node paper cluster up to 256 nodes,
//! under the auditor — and the decisions pinned in
//! `tests/golden_trace_digests.txt`. The pins were taken from the
//! flat-scan rebuild reference before it left production, so a
//! bound-pruning bug shared by every shard count still fails here.
//! Trace digests cover every event ever recorded, so equal digests mean
//! byte-identical decision sequences.

use rupam::config::RupamConfig;
use rupam_bench::digestgate::pinned;
use rupam_bench::multitenant::{build_stream, MEAN_GAP_SECS, TENANTS};
use rupam_bench::{run_stream_observed, run_workload_observed, Sched};
use rupam_cluster::ClusterSpec;
use rupam_exec::SimOptions;
use rupam_workloads::Workload;

/// Unsharded incremental reference: one shard holds every node, so the
/// cross-shard merge degenerates to the single global scan.
fn single_shard() -> Sched {
    Sched::RupamWith(RupamConfig {
        shard_count: 1,
        ..RupamConfig::default()
    })
}

/// A deliberately awkward shard count: does not divide the node count
/// and ignores rack boundaries, so winners regularly straddle shards.
fn seven_shards() -> Sched {
    Sched::RupamWith(RupamConfig {
        shard_count: 7,
        ..RupamConfig::default()
    })
}

/// `(label, digest-gate shape name, cluster)`.
fn shapes() -> Vec<(&'static str, &'static str, ClusterSpec)> {
    vec![
        ("hydra12", "hydra", ClusterSpec::hydra()),
        ("hydra64", "hydra64", ClusterSpec::hydra_mix(48, 8, 8)),
        ("hydra256", "hydra256", ClusterSpec::hydra_mix(192, 32, 32)),
    ]
}

/// Which workloads run on which shape: every workload exercises the
/// small and mid clusters; hydra256 runs the two shuffle-heavy suite
/// members (the offer-round stress cases) to keep the gate's runtime
/// within CI budget.
fn workloads_for(shape: &str) -> Vec<Workload> {
    match shape {
        "hydra256" => vec![Workload::TeraSort, Workload::PageRank],
        _ => Workload::ALL.to_vec(),
    }
}

/// Sharded (rack-auto default) vs single-shard: byte-identical decision
/// traces, identical outcomes, zero audit violations on every path, and
/// the pinned digests on every shape. The audited runs also
/// cross-check the sharded rankings against a rebuild inside
/// `audit_round` every round.
#[test]
fn sharded_path_is_decision_identical_across_suite() {
    for (shape, pin_shape, cluster) in shapes() {
        for w in workloads_for(shape) {
            let (auto, obs_auto) =
                run_workload_observed(&cluster, w, &Sched::Rupam, 707, &SimOptions::audited());
            let (one, obs_one) =
                run_workload_observed(&cluster, w, &single_shard(), 707, &SimOptions::audited());
            for (path, obs) in [("auto-sharded", &obs_auto), ("single-shard", &obs_one)] {
                assert!(
                    obs.violations.is_empty(),
                    "{shape}/{w:?} {path}: {:?}",
                    obs.violations
                );
            }
            let d_auto = obs_auto.trace.as_ref().unwrap().digest();
            assert_eq!(
                d_auto,
                obs_one.trace.as_ref().unwrap().digest(),
                "{shape}/{w:?}: sharded vs single-shard traces diverged"
            );
            assert_eq!(
                Some(d_auto),
                pinned(&format!("suite/{pin_shape}/{}/RUPAM", w.short())),
                "{shape}/{w:?}: sharded trace diverged from its pin"
            );
            assert_eq!(auto.makespan, one.makespan, "{shape}/{w:?}");
            assert_eq!(auto.records.len(), one.records.len());
            assert_eq!(auto.oom_failures, one.oom_failures);
            assert_eq!(auto.speculative_launched, one.speculative_launched);
        }
    }
}

/// A shard count that cuts across racks and leaves uneven partitions
/// must still be invisible in the decisions (multi-tenant stream, the
/// heaviest round count in the suite).
#[test]
fn awkward_shard_count_is_decision_identical_on_stream() {
    let cluster = ClusterSpec::hydra();
    let stream = build_stream(&cluster, &TENANTS, MEAN_GAP_SECS, 909);
    let (auto, obs_auto) = run_stream_observed(
        &cluster,
        &stream,
        &Sched::Rupam,
        909,
        &SimOptions::audited(),
    );
    let (odd, obs_odd) = run_stream_observed(
        &cluster,
        &stream,
        &seven_shards(),
        909,
        &SimOptions::audited(),
    );
    assert!(obs_auto.violations.is_empty(), "{:?}", obs_auto.violations);
    assert!(obs_odd.violations.is_empty(), "{:?}", obs_odd.violations);
    assert_eq!(
        obs_auto.trace.as_ref().unwrap().digest(),
        obs_odd.trace.as_ref().unwrap().digest(),
        "stream decision traces diverged across shard counts"
    );
    assert_eq!(auto.makespan, odd.makespan);
    assert_eq!(
        auto.jobs.iter().map(|j| j.completed_at).collect::<Vec<_>>(),
        odd.jobs.iter().map(|j| j.completed_at).collect::<Vec<_>>()
    );
}
