//! Spark's speculative-execution policy (§III-C3).
//!
//! Once `quantile` of a stage's tasks have finished, any still-running
//! first copy whose elapsed time exceeds `multiplier ×` the median
//! successful duration is marked *speculatable*; the scheduler may then
//! launch one extra copy, and whichever attempt finishes first wins
//! (the engine aborts the loser). The paper enables this for both stock
//! Spark and RUPAM, and RUPAM layers its resource/memory straggler logic
//! on top.

use std::collections::BTreeSet;

use rupam_simcore::stats;
use rupam_simcore::time::{SimDuration, SimTime};

use rupam_dag::TaskRef;

use crate::config::SpeculationConfig;

/// Snapshot of one stage fed to the policy.
pub struct StageProgress<'a> {
    /// Total tasks in the stage.
    pub total_tasks: usize,
    /// Durations (seconds) of successful first-result completions.
    pub finished_secs: &'a [f64],
    /// Currently running attempts: `(task, launched_at, has_copy)`.
    pub running: &'a [(TaskRef, SimTime, bool)],
}

/// Stateless evaluation of Spark's speculation rule for one stage.
/// Returns the tasks that should receive a speculative copy.
pub fn find_speculatable(
    cfg: &SpeculationConfig,
    now: SimTime,
    stage: &StageProgress<'_>,
) -> Vec<TaskRef> {
    if !cfg.enabled || stage.finished_secs.is_empty() || stage.total_tasks == 0 {
        return Vec::new();
    }
    // only an original without a copy can be flagged: with none running
    // (a finished stage, say) skip the median's copy and sort
    if stage.running.iter().all(|(_, _, has_copy)| *has_copy) {
        return Vec::new();
    }
    let done_fraction = stage.finished_secs.len() as f64 / stage.total_tasks as f64;
    if done_fraction < cfg.quantile {
        return Vec::new();
    }
    let threshold_secs = stats::median(stage.finished_secs) * cfg.multiplier;
    let threshold = SimDuration::from_secs_f64(threshold_secs.max(0.1));
    stage
        .running
        .iter()
        .filter(|(_, launched, has_copy)| !has_copy && now.since(*launched) > threshold)
        .map(|(task, _, _)| *task)
        .collect()
}

/// Tracks the set of currently speculatable tasks across stages, with
/// deterministic iteration order.
#[derive(Debug, Default)]
pub struct SpeculationSet {
    tasks: BTreeSet<TaskRef>,
}

impl SpeculationSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark a task speculatable. Returns true if newly added.
    pub fn mark(&mut self, task: TaskRef) -> bool {
        self.tasks.insert(task)
    }

    /// Remove a task (it finished, or its copy launched).
    pub fn remove(&mut self, task: &TaskRef) -> bool {
        self.tasks.remove(task)
    }

    /// Whether a task is currently speculatable.
    pub fn contains(&self, task: &TaskRef) -> bool {
        self.tasks.contains(task)
    }

    /// Snapshot in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &TaskRef> {
        self.tasks.iter()
    }

    /// Number of speculatable tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_dag::StageId;

    fn cfg() -> SpeculationConfig {
        SpeculationConfig::default()
    }

    fn task(i: usize) -> TaskRef {
        TaskRef {
            stage: StageId(0),
            index: i,
        }
    }

    #[test]
    fn below_quantile_no_speculation() {
        let finished = [10.0, 10.0];
        let running = [(task(2), SimTime::ZERO, false)];
        let stage = StageProgress {
            total_tasks: 4,
            finished_secs: &finished,
            running: &running,
        };
        // 2/4 = 50% < 75%
        assert!(find_speculatable(&cfg(), SimTime::from_secs_f64(1000.0), &stage).is_empty());
    }

    #[test]
    fn slow_task_marked_after_quantile() {
        let finished = [10.0, 10.0, 10.0];
        let running = [(task(3), SimTime::ZERO, false)];
        let stage = StageProgress {
            total_tasks: 4,
            finished_secs: &finished,
            running: &running,
        };
        // threshold = 15 s; at t=20 the task qualifies
        let out = find_speculatable(&cfg(), SimTime::from_secs_f64(20.0), &stage);
        assert_eq!(out, vec![task(3)]);
        // at t=12 it does not
        assert!(find_speculatable(&cfg(), SimTime::from_secs_f64(12.0), &stage).is_empty());
    }

    #[test]
    fn tasks_with_copy_skipped() {
        let finished = [10.0, 10.0, 10.0];
        let running = [(task(3), SimTime::ZERO, true)];
        let stage = StageProgress {
            total_tasks: 4,
            finished_secs: &finished,
            running: &running,
        };
        assert!(find_speculatable(&cfg(), SimTime::from_secs_f64(100.0), &stage).is_empty());
    }

    #[test]
    fn copyless_original_flagged_beside_copied_ones() {
        let finished = [10.0; 6];
        let running = [
            (task(6), SimTime::ZERO, true),
            (task(7), SimTime::ZERO, false),
        ];
        let stage = StageProgress {
            total_tasks: 8,
            finished_secs: &finished,
            running: &running,
        };
        let out = find_speculatable(&cfg(), SimTime::from_secs_f64(100.0), &stage);
        assert_eq!(out, vec![task(7)]);
    }

    #[test]
    fn disabled_switch() {
        let c = SpeculationConfig {
            enabled: false,
            ..cfg()
        };
        let finished = [10.0, 10.0, 10.0];
        let running = [(task(3), SimTime::ZERO, false)];
        let stage = StageProgress {
            total_tasks: 4,
            finished_secs: &finished,
            running: &running,
        };
        assert!(find_speculatable(&c, SimTime::from_secs_f64(100.0), &stage).is_empty());
    }

    #[test]
    fn set_semantics() {
        let mut s = SpeculationSet::new();
        assert!(s.mark(task(1)));
        assert!(!s.mark(task(1)), "double-mark is idempotent");
        assert!(s.contains(&task(1)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(&task(1)));
        assert!(s.is_empty());
        assert!(!s.remove(&task(1)));
    }

    #[test]
    fn set_iterates_deterministically() {
        let mut s = SpeculationSet::new();
        s.mark(task(5));
        s.mark(task(1));
        s.mark(task(3));
        let order: Vec<usize> = s.iter().map(|t| t.index).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }
}
