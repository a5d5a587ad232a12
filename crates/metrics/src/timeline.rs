//! Per-node execution timelines.
//!
//! Renders a run's [`TaskRecord`](crate::record::TaskRecord)s as an ASCII Gantt view: one row per
//! node, time bucketed across the terminal width, each cell showing the
//! number of concurrently running attempts (`.` idle, `1`-`9`, then `+`).
//! Failures leave marks (`x` = memory failure, `!` = executor loss
//! window), making the §III-C3 straggler stories visible at a glance.

use std::fmt::Write as _;

use rupam_simcore::time::SimTime;

use crate::record::AttemptOutcome;
use crate::report::RunReport;

/// Occupancy of one node over `buckets` equal time slices.
pub fn node_occupancy(report: &RunReport, node: usize, buckets: usize) -> Vec<(usize, bool)> {
    assert!(buckets >= 1);
    let span = report.makespan.as_micros().max(1);
    let bucket_of = |t: SimTime| -> usize {
        ((t.as_micros() as u128 * buckets as u128) / span as u128).min(buckets as u128 - 1) as usize
    };
    let mut occupancy = vec![(0usize, false); buckets];
    for r in report.records.iter().filter(|r| r.node.index() == node) {
        let lo = bucket_of(r.launched_at);
        let hi = bucket_of(r.finished_at);
        for slot in occupancy.iter_mut().take(hi + 1).skip(lo) {
            slot.0 += 1;
        }
        if r.outcome.is_failure() {
            occupancy[hi].1 = true;
        }
    }
    occupancy
}

fn cell(count: usize, failed: bool) -> char {
    if failed {
        return 'x';
    }
    match count {
        0 => '.',
        1..=9 => char::from_digit(count as u32, 10).unwrap(),
        _ => '+',
    }
}

/// Render the whole cluster's timeline. `node_names` supplies row labels
/// (one per monitored node).
pub fn render(report: &RunReport, node_names: &[String], buckets: usize) -> String {
    assert_eq!(
        node_names.len(),
        report.monitor.len(),
        "one name per monitored node"
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- timeline: {} under {} ({}; {} attempts) --",
        report.app_name,
        report.scheduler_name,
        report.makespan,
        report.records.len()
    );
    let label_w = node_names.iter().map(|n| n.len()).max().unwrap_or(4);
    for (i, name) in node_names.iter().enumerate() {
        let row: String = node_occupancy(report, i, buckets)
            .into_iter()
            .map(|(c, f)| cell(c, f))
            .collect();
        let _ = writeln!(out, "{name:>label_w$} |{row}|");
    }
    let _ = writeln!(
        out,
        "{:>label_w$}  0{}{}",
        "",
        " ".repeat(buckets.saturating_sub(2)),
        report.makespan
    );
    let _ = writeln!(
        out,
        "{:>label_w$}  (cells: concurrent attempts; x = failure)",
        ""
    );
    out
}

/// Count concurrent attempts at a specific instant on one node (exact,
/// not bucketed) — used by tests and capacity analyses.
pub fn concurrency_at(report: &RunReport, node: usize, at: SimTime) -> usize {
    report
        .records
        .iter()
        .filter(|r| r.node.index() == node && r.launched_at <= at && r.finished_at > at)
        .count()
}

/// Total attempt-seconds wasted on failed attempts (`OomFailure`,
/// `ExecutorLost`, `MemoryStragglerKilled`) — the price of bad placement.
pub fn wasted_seconds(report: &RunReport) -> f64 {
    report
        .records
        .iter()
        .filter(|r| r.outcome.is_failure())
        .map(|r| r.duration().as_secs_f64())
        .sum()
}

/// Attempt-seconds lost to race losers (aborted duplicates) — the price
/// of speculation.
pub fn speculation_overhead_seconds(report: &RunReport) -> f64 {
    report
        .records
        .iter()
        .filter(|r| r.outcome == AttemptOutcome::LostRace)
        .map(|r| r.duration().as_secs_f64())
        .sum()
}

/// A convenience bundle: headline numbers about failures and duplicated
/// work for one run.
#[derive(Clone, Copy, Debug)]
pub struct WasteSummary {
    /// Seconds burnt by failed attempts.
    pub failed_secs: f64,
    /// Seconds burnt by losing race copies.
    pub race_secs: f64,
    /// Failed attempt count.
    pub failed_attempts: usize,
}

/// Compute the waste summary of a run.
pub fn waste(report: &RunReport) -> WasteSummary {
    WasteSummary {
        failed_secs: wasted_seconds(report),
        race_secs: speculation_overhead_seconds(report),
        failed_attempts: report
            .records
            .iter()
            .filter(|r| r.outcome.is_failure())
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::TaskBreakdown;
    use crate::record::TaskRecord;
    use rupam_cluster::{ClusterSpec, NodeId, ResourceMonitor};
    use rupam_dag::{JobId, Locality, StageId, TaskRef};
    use rupam_simcore::time::SimDuration;
    use rupam_simcore::units::ByteSize;

    fn record(node: usize, start: f64, end: f64, outcome: AttemptOutcome) -> TaskRecord {
        TaskRecord {
            task: TaskRef {
                stage: StageId(0),
                index: 0,
            },
            job: JobId(0),
            template_key: "t".into(),
            attempt: 0,
            node: NodeId(node),
            speculative: false,
            locality: Locality::Any,
            launched_at: SimTime::from_secs_f64(start),
            finished_at: SimTime::from_secs_f64(end),
            outcome,
            breakdown: TaskBreakdown::new(),
            peak_mem: ByteSize::mib(10),
            used_gpu: false,
        }
    }

    fn report(records: Vec<TaskRecord>) -> RunReport {
        RunReport {
            app_name: "t".into(),
            scheduler_name: "s".into(),
            seed: 0,
            makespan: SimDuration::from_secs(10),
            completed: true,
            jobs: Vec::new(),
            records,
            monitor: ResourceMonitor::new(&ClusterSpec::two_node_motivation()),
            oom_failures: 0,
            executor_losses: 0,
            speculative_launched: 0,
            speculative_wins: 0,
            faults: crate::report::FaultSummary::default(),
            cost: crate::report::CostSummary::default(),
        }
    }

    #[test]
    fn occupancy_counts_overlaps() {
        let rep = report(vec![
            record(0, 0.0, 5.0, AttemptOutcome::Success),
            record(0, 2.0, 8.0, AttemptOutcome::Success),
            record(1, 0.0, 1.0, AttemptOutcome::Success),
        ]);
        let occ = node_occupancy(&rep, 0, 10);
        assert_eq!(occ[0].0, 1, "only the first task at t≈0");
        assert_eq!(occ[3].0, 2, "overlap window");
        assert_eq!(occ[9].0, 0, "idle tail");
        assert_eq!(node_occupancy(&rep, 1, 10)[5].0, 0);
    }

    #[test]
    fn failures_are_marked() {
        let rep = report(vec![record(0, 0.0, 4.0, AttemptOutcome::OomFailure)]);
        let occ = node_occupancy(&rep, 0, 10);
        assert!(
            occ[4].1,
            "failure bucket flagged (task ends at t=4s of 10s)"
        );
        let rendered = render(&rep, &["node-1".into(), "node-2".into()], 10);
        assert!(
            rendered.contains('x'),
            "render should show the failure: {rendered}"
        );
    }

    #[test]
    fn render_has_one_row_per_node() {
        let rep = report(vec![record(0, 0.0, 10.0, AttemptOutcome::Success)]);
        let s = render(&rep, &["a".into(), "b".into()], 20);
        assert_eq!(s.lines().filter(|l| l.contains('|')).count(), 2);
    }

    #[test]
    fn concurrency_exact() {
        let rep = report(vec![
            record(0, 0.0, 5.0, AttemptOutcome::Success),
            record(0, 2.0, 8.0, AttemptOutcome::Success),
        ]);
        assert_eq!(concurrency_at(&rep, 0, SimTime::from_secs_f64(1.0)), 1);
        assert_eq!(concurrency_at(&rep, 0, SimTime::from_secs_f64(3.0)), 2);
        assert_eq!(concurrency_at(&rep, 0, SimTime::from_secs_f64(9.0)), 0);
    }

    #[test]
    fn waste_accounting() {
        let rep = report(vec![
            record(0, 0.0, 4.0, AttemptOutcome::OomFailure),
            record(0, 0.0, 3.0, AttemptOutcome::LostRace),
            record(0, 0.0, 5.0, AttemptOutcome::Success),
        ]);
        let w = waste(&rep);
        assert!((w.failed_secs - 4.0).abs() < 1e-9);
        assert!((w.race_secs - 3.0).abs() < 1e-9);
        assert_eq!(w.failed_attempts, 1);
    }

    #[test]
    fn cell_symbols() {
        assert_eq!(cell(0, false), '.');
        assert_eq!(cell(7, false), '7');
        assert_eq!(cell(15, false), '+');
        assert_eq!(cell(3, true), 'x');
    }
}
