//! Immutable per-attempt records.
//!
//! Every launched task attempt — regular, retried, or speculative —
//! yields exactly one [`TaskRecord`] when it leaves the system. The
//! record carries everything the paper's figures need and everything
//! RUPAM's Task Manager records into `DB_task_char` (Table I, right).

use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use rupam_cluster::NodeId;
use rupam_dag::{JobId, Locality, TaskRef};

use crate::breakdown::TaskBreakdown;

/// How an attempt left the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttemptOutcome {
    /// Finished its work.
    Success,
    /// Failed with an out-of-memory error (stock Spark's failure mode on
    /// overcommitted executors).
    OomFailure,
    /// Killed because its executor died (worker JVM OOM).
    ExecutorLost,
    /// Pre-emptively killed by RUPAM's memory-straggler relocation and
    /// requeued elsewhere.
    MemoryStragglerKilled,
    /// Aborted because another attempt of the same task won the race
    /// (speculation or RUPAM's GPU/CPU racing).
    LostRace,
    /// Killed because its node crashed or was declared dead by the
    /// heartbeat failure detector; the task is re-queued.
    NodeFaulted,
    /// Killed because its tenant ran over quota and the allocator chose
    /// it as the preemption victim; the task is re-queued through the
    /// lineage-recovery path. Unlike [`AttemptOutcome::OomFailure`] this
    /// says nothing about the task's memory behaviour.
    QuotaPreempted,
}

impl AttemptOutcome {
    /// Whether the attempt's work counted towards stage completion.
    pub fn is_success(self) -> bool {
        matches!(self, AttemptOutcome::Success)
    }

    /// Whether the attempt failed and its task had to be relaunched.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            AttemptOutcome::OomFailure
                | AttemptOutcome::ExecutorLost
                | AttemptOutcome::MemoryStragglerKilled
                | AttemptOutcome::NodeFaulted
                | AttemptOutcome::QuotaPreempted
        )
    }
}

/// One completed (successfully or not) task attempt.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Which task this attempt ran.
    pub task: TaskRef,
    /// Stream job the task belongs to (`JobId(0)` on single-app runs).
    pub job: JobId,
    /// Template key of the owning stage (the `DB_task_char` key together
    /// with `task.index`).
    pub template_key: Sym,
    /// Attempt number (0 = first attempt).
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: NodeId,
    /// Whether this was a speculative / racing copy.
    pub speculative: bool,
    /// Locality level achieved at launch.
    pub locality: Locality,
    /// Launch time.
    pub launched_at: SimTime,
    /// Completion / termination time.
    pub finished_at: SimTime,
    /// Outcome.
    pub outcome: AttemptOutcome,
    /// Per-category time breakdown.
    pub breakdown: TaskBreakdown,
    /// Peak memory held.
    pub peak_mem: ByteSize,
    /// Whether the attempt executed its kernels on a GPU.
    pub used_gpu: bool,
}

impl TaskRecord {
    /// Wall-clock duration of the attempt.
    pub fn duration(&self) -> SimDuration {
        self.finished_at.since(self.launched_at)
    }

    /// Compute time including GC and serialisation — the paper's
    /// `computetime` task metric ("time the task spent on computation,
    /// including serialization and deserialization").
    pub fn compute_time(&self) -> SimDuration {
        use crate::breakdown::BreakdownCategory as C;
        self.breakdown.get(C::Compute)
            + self.breakdown.get(C::Gc)
            + self.breakdown.get(C::Serialization)
    }

    /// Shuffle-read time (`shuffleread`): network + local-disk fetch.
    pub fn shuffle_read_time(&self) -> SimDuration {
        use crate::breakdown::BreakdownCategory as C;
        self.breakdown.get(C::ShuffleNet) + self.breakdown.get(C::ShuffleDisk)
    }

    /// Shuffle-write time (`shufflewrite`).
    pub fn shuffle_write_time(&self) -> SimDuration {
        self.breakdown
            .get(crate::breakdown::BreakdownCategory::ShuffleWrite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::BreakdownCategory as C;
    use rupam_dag::StageId;

    fn record() -> TaskRecord {
        let mut breakdown = TaskBreakdown::new();
        breakdown.add(C::Compute, SimDuration::from_secs(4));
        breakdown.add(C::Gc, SimDuration::from_secs(1));
        breakdown.add(C::Serialization, SimDuration::from_millis(500));
        breakdown.add(C::ShuffleNet, SimDuration::from_secs(2));
        breakdown.add(C::ShuffleDisk, SimDuration::from_secs(1));
        breakdown.add(C::ShuffleWrite, SimDuration::from_millis(1500));
        TaskRecord {
            task: TaskRef {
                stage: StageId(0),
                index: 3,
            },
            job: JobId(0),
            template_key: "t/m".into(),
            attempt: 0,
            node: NodeId(1),
            speculative: false,
            locality: Locality::NodeLocal,
            launched_at: SimTime::from_secs_f64(10.0),
            finished_at: SimTime::from_secs_f64(20.0),
            outcome: AttemptOutcome::Success,
            breakdown,
            peak_mem: ByteSize::gib(1),
            used_gpu: false,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = record();
        assert_eq!(r.duration(), SimDuration::from_secs(10));
        assert_eq!(r.compute_time(), SimDuration::from_millis(5500));
        assert_eq!(r.shuffle_read_time(), SimDuration::from_secs(3));
        assert_eq!(r.shuffle_write_time(), SimDuration::from_millis(1500));
    }

    #[test]
    fn outcome_predicates() {
        assert!(AttemptOutcome::Success.is_success());
        assert!(!AttemptOutcome::Success.is_failure());
        assert!(AttemptOutcome::OomFailure.is_failure());
        assert!(AttemptOutcome::ExecutorLost.is_failure());
        assert!(AttemptOutcome::MemoryStragglerKilled.is_failure());
        assert!(AttemptOutcome::NodeFaulted.is_failure());
        assert!(!AttemptOutcome::NodeFaulted.is_success());
        assert!(AttemptOutcome::QuotaPreempted.is_failure());
        assert!(!AttemptOutcome::QuotaPreempted.is_success());
        assert!(!AttemptOutcome::LostRace.is_failure());
        assert!(!AttemptOutcome::LostRace.is_success());
    }
}
