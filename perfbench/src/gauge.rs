//! A gauge of the machine's speed, read alongside the simulator's timed
//! runs.
//!
//! The simulator is pure computation, and on a shared host its speed
//! follows the other tenants' load: the same stream's host time drifts
//! by a quarter or more in phases of minutes. The gauge times a fixed
//! reference loop after each timed run. The loop is the benchmark's own
//! code and shares nothing with the program under test, so a change to
//! the program cannot move it. Host times divided by the gauge's reading
//! and multiplied by [`NOMINAL_S`] are host times at one fixed machine
//! speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's host time at the nominal machine speed, seconds.
/// A gauge reading of this much leaves host times as they are.
pub const NOMINAL_S: f64 = 0.05;

/// Inserts into the reference loop's ordered map.
const INSERTS: u64 = 400_000;
/// Entries the map holds before each insert evicts its least key.
const CAPACITY: usize = 50_000;

/// Readings of the reference loop over one invocation.
#[derive(Default)]
pub struct Gauge {
    samples_s: Vec<f64>,
}

impl Gauge {
    /// Run the reference loop once and keep its host time.
    pub fn read(&mut self) {
        let started = Instant::now();
        black_box(reference_loop(black_box(INSERTS)));
        self.samples_s.push(started.elapsed().as_secs_f64());
    }

    /// Mean host time of the reference loop, seconds.
    pub fn mean_s(&self) -> f64 {
        self.samples_s.iter().sum::<f64>() / self.samples_s.len().max(1) as f64
    }

    /// The factor that turns host seconds measured alongside these
    /// readings into seconds at the nominal speed.
    pub fn to_nominal(&self) -> f64 {
        NOMINAL_S / self.mean_s()
    }
}

/// Ordered-map churn: seeded inserts into a map of bounded size, each
/// past the bound evicting the least key. Like the simulator, it spends
/// its time in tree nodes and the allocator.
fn reference_loop(inserts: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for _ in 0..inserts {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        map.insert(x >> 44, x);
        if map.len() > CAPACITY {
            map.pop_first();
        }
    }
    map.values().fold(0, |acc, v| acc ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_is_deterministic_and_bounded() {
        assert_eq!(reference_loop(10_000), reference_loop(10_000));
        let mut g = Gauge::default();
        g.read();
        g.read();
        assert_eq!(g.samples_s.len(), 2);
        assert!(g.mean_s() > 0.0);
        assert!((g.to_nominal() * g.mean_s() - NOMINAL_S).abs() < 1e-12);
    }
}
