//! The benchmark's own arithmetic: percentiles with their sample
//! counts, goodput and job-failure shares from a run report, and the
//! serve capacity lower bound.

use rupam_cluster::ClusterSpec;
use rupam_dag::task::TaskDemand;
use rupam_metrics::record::AttemptOutcome;
use rupam_metrics::report::RunReport;
use rupam_serve::estimate::estimate;
use rupam_simcore::units::ByteSize;

/// A percentile together with the number of samples it was taken over,
/// so a reader can tell how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 over no samples.
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    };
    Percentile {
        value,
        samples: values.len(),
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).value
}

/// Attempts by outcome, in [`OUTCOMES`] order.
pub const OUTCOMES: [(AttemptOutcome, &str); 7] = [
    (AttemptOutcome::Success, "success"),
    (AttemptOutcome::OomFailure, "oom_failure"),
    (AttemptOutcome::ExecutorLost, "executor_lost"),
    (
        AttemptOutcome::MemoryStragglerKilled,
        "memory_straggler_killed",
    ),
    (AttemptOutcome::LostRace, "lost_race"),
    (AttemptOutcome::NodeFaulted, "node_faulted"),
    (AttemptOutcome::QuotaPreempted, "quota_preempted"),
];

/// Count the report's attempts per outcome, in [`OUTCOMES`] order.
pub fn attempts_by_outcome(report: &RunReport) -> [u64; 7] {
    let mut counts = [0u64; 7];
    for r in &report.records {
        let slot = OUTCOMES
            .iter()
            .position(|(o, _)| *o == r.outcome)
            .expect("every outcome is listed");
        counts[slot] += 1;
    }
    counts
}

/// Successful attempts in a run: the only attempts that count as
/// goodput. Killed, failed and lost-race attempts count for nothing.
pub fn successful_attempts(report: &RunReport) -> u64 {
    report
        .records
        .iter()
        .filter(|r| r.outcome.is_success())
        .count() as u64
}

/// Goodput: successful attempts per second of `secs`.
pub fn tasks_per_s(successful: u64, secs: f64) -> f64 {
    successful as f64 / secs.max(1e-9)
}

/// Jobs of a run that completed, and jobs submitted. An aborted run
/// counts every job without a completion time as not completed.
pub fn job_counts(report: &RunReport) -> (usize, usize) {
    let done = report
        .jobs
        .iter()
        .filter(|j| j.completed_at.is_some())
        .count();
    (done, report.jobs.len())
}

/// Share of submitted jobs that did not complete (0 when none were
/// submitted).
pub fn job_fail_frac(completed: usize, submitted: usize) -> f64 {
    if submitted == 0 {
        0.0
    } else {
        (submitted - completed) as f64 / submitted as f64
    }
}

/// Concurrent task slots of a fleet when executor memory bounds
/// concurrency: `floor(executor_mem / peak_mem)` per node, summed.
pub fn memory_slots(executor_mem: &[ByteSize], peak_mem: ByteSize) -> u64 {
    executor_mem
        .iter()
        .map(|m| m.as_f64() / peak_mem.as_f64().max(1.0))
        .map(|slots| slots.floor() as u64)
        .sum()
}

/// Lower bound on the wall time a serve fleet needs for `tasks`, in
/// seconds:
///
/// `Σ_task min_node estimate(task, node).hold × time_scale / slots`
///
/// where a task's hold time is [`estimate`] on its best node (on the
/// GPU where the node has one and the task has kernels) and `slots` is
/// [`memory_slots`] for the tasks' peak memory. Ignores every control
/// plane delay, so a measured makespan below it means the bound is
/// wrong. All tasks must share one peak memory.
pub fn capacity_bound_s(
    cluster: &ClusterSpec,
    executor_mem: &[ByteSize],
    tasks: &[TaskDemand],
    time_scale: f64,
) -> f64 {
    let Some(first) = tasks.first() else {
        return 0.0;
    };
    assert!(
        tasks.iter().all(|t| t.peak_mem == first.peak_mem),
        "the slot count assumes one peak memory for every task"
    );
    let slots = memory_slots(executor_mem, first.peak_mem);
    assert!(slots > 0, "no node can hold a task");
    let work: f64 = tasks
        .iter()
        .map(|demand| {
            cluster
                .iter()
                .map(|(_, spec)| {
                    let gpu = spec.gpus > 0 && demand.is_gpu_capable();
                    estimate(demand, spec, gpu).0.as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    work * time_scale / slots as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_cluster::node::{DiskSpec, NodeSpec};
    use rupam_cluster::NodeId;
    use rupam_dag::app::JobId;
    use rupam_dag::{Locality, StageId, TaskRef, TenantId};
    use rupam_metrics::breakdown::TaskBreakdown;
    use rupam_metrics::record::TaskRecord;
    use rupam_metrics::report::JobOutcome;
    use rupam_simcore::time::{SimDuration, SimTime};

    #[test]
    fn percentile_interpolates_and_keeps_its_sample_count() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&values, 0.99);
        assert_eq!(p99.samples, 100);
        assert!((p99.value - 99.01).abs() < 1e-9, "{p99:?}");
        assert_eq!(percentile(&values, 0.5).value, 50.5);
        assert_eq!(
            percentile(&[7.0], 0.99),
            Percentile {
                value: 7.0,
                samples: 1
            }
        );
        assert_eq!(
            percentile(&[], 0.99),
            Percentile {
                value: 0.0,
                samples: 0
            }
        );
        // order of the input does not matter
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), p99);
    }

    fn record(index: usize, outcome: AttemptOutcome) -> TaskRecord {
        TaskRecord {
            task: TaskRef {
                stage: StageId(0),
                index,
            },
            job: JobId(0),
            template_key: "t".into(),
            attempt: 0,
            node: NodeId(0),
            speculative: false,
            locality: Locality::Any,
            launched_at: SimTime::ZERO,
            finished_at: SimTime::from_secs_f64(1.0),
            outcome,
            breakdown: TaskBreakdown::new(),
            peak_mem: ByteSize::mib(256),
            used_gpu: false,
        }
    }

    fn job(i: usize, completed: bool) -> JobOutcome {
        JobOutcome {
            job: JobId(i),
            tenant: TenantId(0),
            name: format!("j{i}"),
            submitted_at: SimTime::ZERO,
            completed_at: completed.then(|| SimTime::from_secs_f64(5.0)),
        }
    }

    fn report(records: Vec<TaskRecord>, jobs: Vec<JobOutcome>, completed: bool) -> RunReport {
        RunReport {
            app_name: "a".into(),
            scheduler_name: "s".into(),
            seed: 0,
            makespan: SimDuration::from_secs_f64(10.0),
            completed,
            jobs,
            records,
            monitor: rupam_cluster::ResourceMonitor::new(&ClusterSpec::homogeneous(2)),
            oom_failures: 0,
            executor_losses: 0,
            speculative_launched: 0,
            speculative_wins: 0,
            faults: Default::default(),
            cost: Default::default(),
        }
    }

    #[test]
    fn goodput_counts_only_successful_attempts() {
        let r = report(
            vec![
                record(0, AttemptOutcome::Success),
                record(1, AttemptOutcome::QuotaPreempted),
                record(1, AttemptOutcome::QuotaPreempted),
                record(1, AttemptOutcome::Success),
                record(2, AttemptOutcome::LostRace),
            ],
            vec![job(0, true)],
            true,
        );
        assert_eq!(successful_attempts(&r), 2);
        assert_eq!(tasks_per_s(successful_attempts(&r), 0.5), 4.0);
        let by = attempts_by_outcome(&r);
        assert_eq!(by[0], 2);
        assert_eq!(by[4], 1, "lost race");
        assert_eq!(by[6], 2, "quota preempted");
        assert_eq!(by.iter().sum::<u64>(), 5);
    }

    #[test]
    fn aborted_run_counts_every_unfinished_job_as_failed() {
        let r = report(
            vec![record(0, AttemptOutcome::Success)],
            vec![job(0, true), job(1, false), job(2, true), job(3, false)],
            false,
        );
        let (done, submitted) = job_counts(&r);
        assert_eq!((done, submitted), (2, 4));
        assert_eq!(job_fail_frac(done, submitted), 0.5);
        assert_eq!(job_fail_frac(0, 0), 0.0);
    }

    fn node(name: &str, gpus: u32) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            class: name.into(),
            cores: 8,
            cpu_ghz: 2.0,
            mem: ByteSize::gib(32),
            net_bw: 1e9,
            disk: DiskSpec {
                is_ssd: true,
                read_bw: 5e8,
                write_bw: 5e8,
            },
            gpus,
            gpu_gcps: if gpus > 0 { 100.0 } else { 0.0 },
            rack: 0,
        }
    }

    fn demand(compute: f64, gpu_kernels: f64) -> TaskDemand {
        TaskDemand {
            compute,
            gpu_kernels,
            input_bytes: ByteSize::ZERO,
            shuffle_read: ByteSize::ZERO,
            shuffle_write: ByteSize::ZERO,
            output_bytes: ByteSize::ZERO,
            peak_mem: ByteSize::gib(4),
            cached_bytes: ByteSize::ZERO,
        }
    }

    #[test]
    fn capacity_bound_on_a_two_node_fleet() {
        // a CPU node and a GPU node, both 2.0 GHz per core
        let cluster = ClusterSpec::new(vec![node("cpu", 0), node("gpu", 1)]);
        // 12 GiB executor → 3 slots of 4 GiB; 8 GiB → 2 slots
        let mem = [ByteSize::gib(12), ByteSize::gib(8)];
        assert_eq!(memory_slots(&mem, ByteSize::gib(4)), 5);
        // a CPU task: 20 gigacycles / 2 GHz = 10 s anywhere; a GPU task:
        // 20 / 2 + 200 / 100 = 12 s on the GPU node (vs 110 s on CPU)
        let tasks = [demand(20.0, 0.0), demand(20.0, 200.0)];
        let bound = capacity_bound_s(&cluster, &mem, &tasks, 0.5);
        assert!((bound - (10.0 + 12.0) * 0.5 / 5.0).abs() < 1e-9, "{bound}");
        assert_eq!(capacity_bound_s(&cluster, &mem, &[], 1.0), 0.0);
    }
}
