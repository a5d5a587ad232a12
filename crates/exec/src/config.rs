//! Simulation tunables.
//!
//! Defaults follow Spark 2.2's shipped configuration where one exists
//! (locality wait 3 s, speculation quantile 0.75 / multiplier 1.5) and the
//! calibration described in `DESIGN.md` otherwise.

use rupam_simcore::time::SimDuration;
use rupam_simcore::units::ByteSize;

/// Spark speculative-execution policy (`spark.speculation.*`).
#[derive(Clone, Debug)]
pub struct SpeculationConfig {
    /// Master switch (`spark.speculation`). The paper enables it for both
    /// schedulers "for a fair comparison".
    pub enabled: bool,
    /// Fraction of a stage's tasks that must have finished before
    /// stragglers are considered (`spark.speculation.quantile`, 0.75).
    pub quantile: f64,
    /// A running task is a straggler once its elapsed time exceeds this
    /// multiple of the median successful duration
    /// (`spark.speculation.multiplier`, 1.5).
    pub multiplier: f64,
    /// How often the engine re-evaluates stragglers.
    pub interval: SimDuration,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            enabled: true,
            quantile: 0.75,
            multiplier: 1.5,
            interval: SimDuration::from_secs(1),
        }
    }
}

/// Cost-model constants (see `DESIGN.md` §4 for the calibration).
#[derive(Clone, Debug)]
pub struct CostConfig {
    /// CPU cycles per byte (de)serialised. 4 cycles/byte ≈ 500 MB/s of
    /// Kryo-style serialisation per 2 GHz core.
    pub ser_cycles_per_byte: f64,
    /// GC cycles per byte of data churned through the heap, scaled by
    /// `(0.25 + pressure²)`.
    pub gc_churn_cycles_per_byte: f64,
    /// GC cycles per byte of *heap* per task, scaled by `pressure²` —
    /// models full-heap scans getting costlier on the bigger executors
    /// RUPAM launches (the paper's §IV-D SQL observation).
    pub gc_heap_cycles_per_byte: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            ser_cycles_per_byte: 4.0,
            gc_churn_cycles_per_byte: 2.0,
            gc_heap_cycles_per_byte: 0.035,
        }
    }
}

/// Memory / failure model.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// Memory reserved for OS + daemons; the executor can use the rest
    /// (the paper's 16 GB thor nodes run 14 GB executors).
    pub os_reserved: ByteSize,
    /// Fraction of executor memory usable as partition cache (Spark's
    /// storage-memory fraction).
    pub storage_fraction: f64,
    /// When the sum of running peaks exceeds executor memory, an OOM
    /// check fires after a uniformly random delay in this range.
    pub oom_check_min: SimDuration,
    /// Upper bound of the OOM-check delay.
    pub oom_check_max: SimDuration,
    /// Probability slope of a task-level OOM per check:
    /// `p = clamp(slope × (ratio − 1), 0.05, 0.95)`.
    pub oom_prob_slope: f64,
    /// Overcommit ratio beyond which the whole executor JVM dies
    /// (worker loss: every running task fails, the cache is wiped).
    pub executor_kill_ratio: f64,
    /// Time to restart a lost executor JVM.
    pub jvm_restart: SimDuration,
    /// Retries per task before the application aborts: a task may run
    /// `max_retries + 1` attempts, and the run aborts when the last of
    /// them fails (see [`MemConfig::retries_exhausted`]).
    /// `spark.task.maxFailures` is 4; we keep runs alive longer so that
    /// "fails and recovers" — the paper's PR-under-Spark behaviour —
    /// dominates over hard aborts.
    pub max_retries: u32,
}

impl MemConfig {
    /// Whether a task whose attempt just failed has used up its retries,
    /// given the attempt number `next` it would run as. The one retry
    /// rule of the sim engine and the serve driver alike.
    pub fn retries_exhausted(&self, next: u32) -> bool {
        next > self.max_retries
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            os_reserved: ByteSize::gib(2),
            storage_fraction: 0.5,
            oom_check_min: SimDuration::from_secs(2),
            oom_check_max: SimDuration::from_secs(8),
            oom_prob_slope: 3.0,
            executor_kill_ratio: 1.35,
            jvm_restart: SimDuration::from_secs(15),
            max_retries: 24,
        }
    }
}

/// Top-level simulation configuration.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Speculation policy.
    pub speculation: SpeculationConfig,
    /// Cost-model constants.
    pub cost: CostConfig,
    /// Memory / failure model.
    pub mem: MemConfig,
    /// Extra knobs.
    pub engine: EngineConfig,
    /// Fault injection: chaos script + failure-detector thresholds. The
    /// default (empty script) disables the whole subsystem.
    pub faults: rupam_faults::FaultsConfig,
    /// Elastic capacity: spot pools, scaling policy and cost accounting.
    /// The default (no pools) disables the whole subsystem.
    pub elastic: rupam_elastic::ElasticConfig,
}

impl SimConfig {
    /// A config running the given chaos script with default detector
    /// thresholds.
    pub fn with_faults(script: rupam_faults::FaultScript) -> Self {
        SimConfig {
            faults: rupam_faults::FaultsConfig {
                script,
                ..rupam_faults::FaultsConfig::default()
            },
            ..SimConfig::default()
        }
    }

    /// A config running under the given elasticity script.
    pub fn with_elastic(elastic: rupam_elastic::ElasticConfig) -> Self {
        SimConfig {
            elastic,
            ..SimConfig::default()
        }
    }
}

/// Engine cadence knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Heartbeat period: the floor on offer-round cadence (offers also
    /// fire on every task completion, like Spark's `reviveOffers`).
    pub heartbeat: SimDuration,
    /// Hard cap on processed events, as a runaway guard.
    pub max_events: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            heartbeat: SimDuration::from_secs(1),
            max_events: 50_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_spark() {
        let c = SimConfig::default();
        assert!(c.speculation.enabled);
        assert_eq!(c.speculation.quantile, 0.75);
        assert_eq!(c.speculation.multiplier, 1.5);
        assert_eq!(c.mem.os_reserved, ByteSize::gib(2));
        assert!(c.mem.executor_kill_ratio > 1.0);
        assert!(c.mem.oom_check_min < c.mem.oom_check_max);
    }

    #[test]
    fn retry_limit_allows_max_retries_plus_one_attempts() {
        let mem = MemConfig {
            max_retries: 2,
            ..MemConfig::default()
        };
        // attempts 0, 1 and 2 may run; failing attempt 2 exhausts
        assert!(!mem.retries_exhausted(1));
        assert!(!mem.retries_exhausted(2));
        assert!(mem.retries_exhausted(3));
    }

    #[test]
    fn cost_constants_positive() {
        let c = CostConfig::default();
        assert!(c.ser_cycles_per_byte > 0.0);
        assert!(c.gc_churn_cycles_per_byte > 0.0);
        assert!(c.gc_heap_cycles_per_byte > 0.0);
    }
}
