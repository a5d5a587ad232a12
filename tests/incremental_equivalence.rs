//! Equivalence gate for the scheduler's persistent state: the `O(log n)`
//! dispatch path (persistent node rankings, persistent per-tenant task
//! queues fed by the engine's fresh list, memoised DB lookups,
//! early-exit node picks) must take *exactly* the decisions pinned in
//! `tests/golden_trace_digests.txt` — recorded while a from-scratch
//! rebuild reference still ran beside it and matched it — on every
//! workload, across cluster shapes, under the auditor and (in debug
//! builds) the fresh-list warranty check. Trace digests cover every
//! event ever recorded, so equal digests mean byte-identical decision
//! sequences.

use rupam_bench::digestgate::pinned;
use rupam_bench::multitenant::{build_stream, MEAN_GAP_SECS, TENANTS};
use rupam_bench::{run_stream_observed, run_workload_observed, Sched};
use rupam_cluster::ClusterSpec;
use rupam_exec::SimOptions;
use rupam_workloads::Workload;

fn pin(name: &str) -> u64 {
    pinned(name).unwrap_or_else(|| panic!("{name} is not pinned in the golden file"))
}

fn shapes() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        ("hydra", ClusterSpec::hydra()),
        ("homo8", ClusterSpec::homogeneous(8)),
        ("mix211", ClusterSpec::hydra_mix(2, 1, 1)),
    ]
}

/// Full workload suite × 3 cluster shapes: byte-identical decision
/// traces to the pins and zero audit violations (the audited run also
/// cross-checks its rankings against a rebuild inside `audit_round`
/// every round).
#[test]
fn incremental_path_is_decision_identical_across_suite() {
    for (shape, cluster) in shapes() {
        for w in Workload::ALL {
            let (report, obs) =
                run_workload_observed(&cluster, w, &Sched::Rupam, 707, &SimOptions::audited());
            assert!(report.completed, "{shape}/{w:?} did not complete");
            assert!(
                obs.violations.is_empty(),
                "{shape}/{w:?}: {:?}",
                obs.violations
            );
            assert_eq!(
                obs.trace.as_ref().unwrap().digest(),
                pin(&format!("suite/{shape}/{}/RUPAM", w.short())),
                "{shape}/{w:?}: decision trace diverged from its pin"
            );
        }
    }
}

/// The multi-tenant stream (merged applications, cross-job DB reuse,
/// thousands of rounds) is the configuration the persistent state
/// targets — it must stay decision-identical too.
#[test]
fn incremental_stream_is_decision_identical() {
    let cluster = ClusterSpec::hydra();
    let stream = build_stream(&cluster, &TENANTS, MEAN_GAP_SECS, 909);
    let (report, obs) = run_stream_observed(
        &cluster,
        &stream,
        &Sched::Rupam,
        909,
        &SimOptions::audited(),
    );
    assert!(report.completed);
    assert!(obs.violations.is_empty(), "{:?}", obs.violations);
    assert_eq!(
        obs.trace.as_ref().unwrap().digest(),
        pin("stream/hydra/RUPAM"),
        "stream decision trace diverged from its pin"
    );
    assert!(report.jobs.iter().all(|j| j.completed_at.is_some()));
}
