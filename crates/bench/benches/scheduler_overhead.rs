//! Microbenchmarks of the scheduler decision path itself — the paper's
//! §IV-D observation that RUPAM's extra bookkeeping keeps scheduler
//! delay "moderate" relative to stock Spark.

use criterion::{criterion_group, criterion_main, Criterion};
use rupam::db::{TaskChar, TaskCharDb, TaskKey};
use rupam_bench::SEEDS;
use rupam_cluster::resources::ResourceKind;
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_simcore::units::ByteSize;

fn bench(c: &mut Criterion) {
    let cluster = ClusterSpec::hydra();

    // end-to-end simulated scheduler-delay comparison
    for (name, sched) in [
        ("spark", rupam_bench::Sched::Spark),
        ("rupam", rupam_bench::Sched::Rupam),
    ] {
        let report = rupam_bench::run_workload(
            &cluster,
            rupam_workloads::Workload::TeraSort,
            &sched,
            SEEDS[0],
        );
        let total = report.breakdown_totals();
        println!(
            "{name}: total scheduler delay {} across {} attempts",
            total.get(rupam_metrics::breakdown::BreakdownCategory::SchedulerDelay),
            report.records.len()
        );
    }

    c.bench_function("overhead/db_write_read", |b| {
        let mut db = TaskCharDb::new();
        let mut i = 0u64;
        b.iter(|| {
            let key = TaskKey::new("bench/stage", (i % 64) as usize);
            db.update(key, |c| {
                c.observe(ResourceKind::Cpu, NodeId(0), 1.0, ByteSize::mib(64), false)
            });
            i += 1;
            db.read(&key).map(|c: TaskChar| c.runs)
        })
    });

    c.bench_function("overhead/full_offer_round_sim", |b| {
        b.iter(|| {
            rupam_bench::run_workload(
                &cluster,
                rupam_workloads::Workload::GramianMatrix,
                &rupam_bench::Sched::Rupam,
                SEEDS[0],
            )
            .makespan
        })
    });

    // upper bound on the decision-trace subsystem's cost: the same run
    // with the trace ring *and* the invariant auditor on every offer
    // round — the disabled path (a `None` check) is strictly cheaper
    c.bench_function("overhead/full_offer_round_sim_audited", |b| {
        b.iter(|| {
            rupam_bench::run_workload_observed(
                &cluster,
                rupam_workloads::Workload::GramianMatrix,
                &rupam_bench::Sched::Rupam,
                SEEDS[0],
                &rupam_exec::SimOptions::audited(),
            )
            .0
            .makespan
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
