//! Time-weighted series recording.
//!
//! The paper's Figures 2, 8 and 9 are built from sampled node utilisation
//! over time. [`TimeSeries`] records piecewise-constant values (a
//! utilisation level holds until the next recording) and supports
//! time-weighted averages, resampling onto a fixed grid, and per-instant
//! alignment across series (for the Fig-9 standard-deviation-across-nodes
//! curves).

use crate::time::{SimDuration, SimTime};

/// A piecewise-constant series of `(time, value)` samples.
///
/// Values are interpreted as holding from their timestamp until the next
/// sample's timestamp.
///
/// ```
/// use rupam_simcore::{SimTime, TimeSeries};
///
/// let mut cpu = TimeSeries::new();
/// cpu.record(SimTime::from_secs_f64(0.0), 0.25);
/// cpu.record(SimTime::from_secs_f64(2.0), 0.75);
/// assert_eq!(cpu.value_at(SimTime::from_secs_f64(1.9)), Some(0.25));
/// let mean = cpu
///     .time_weighted_mean(SimTime::ZERO, SimTime::from_secs_f64(4.0))
///     .unwrap();
/// assert!((mean - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Record that the observed quantity has value `value` from `at`
    /// onwards. Timestamps must be non-decreasing; recording a new value at
    /// an existing timestamp overwrites it.
    pub fn record(&mut self, at: SimTime, value: f64) {
        debug_assert!(value.is_finite(), "non-finite sample {value}");
        if let Some(last) = self.points.last_mut() {
            debug_assert!(at >= last.0, "series timestamps must be monotone");
            if last.0 == at {
                last.1 = value;
                return;
            }
        }
        self.points.push((at, value));
    }

    /// Raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value holding at instant `t` (the last sample at or before `t`),
    /// or `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|p| p.0.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Time-weighted mean over `[start, end)`. Returns `None` for an empty
    /// window or a series with no samples before `end`.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> Option<f64> {
        if end <= start || self.points.is_empty() {
            return None;
        }
        let mut acc = 0.0f64;
        let mut covered = 0.0f64;
        let mut cursor = start;
        // walk segments overlapping the window
        for w in 0..self.points.len() {
            let (t0, v) = self.points[w];
            let t1 = self
                .points
                .get(w + 1)
                .map(|p| p.0)
                .unwrap_or(SimTime::FAR_FUTURE);
            if t1 <= cursor {
                continue;
            }
            if t0 >= end {
                break;
            }
            let seg_start = cursor.max(t0);
            let seg_end = end.min(t1);
            if seg_end > seg_start {
                let w = (seg_end - seg_start).as_secs_f64();
                acc += v * w;
                covered += w;
                cursor = seg_end;
            }
        }
        if covered == 0.0 {
            None
        } else {
            Some(acc / covered)
        }
    }

    /// Resample onto a fixed grid of period `step` covering `[start, end)`;
    /// instants before the first sample yield 0.0. Used to print the
    /// paper's per-second utilisation curves.
    pub fn resample(&self, start: SimTime, end: SimTime, step: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "zero resample step");
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            out.push((t, self.value_at(t).unwrap_or(0.0)));
            t += step;
        }
        out
    }
}

/// For each grid instant, the standard deviation of the values held by
/// `series` at that instant (missing values count as 0.0 — a node that has
/// not reported yet is idle). This is exactly the Fig-9 computation: load
/// balance measured as the spread of per-node utilisation.
pub fn stddev_across(
    series: &[&TimeSeries],
    start: SimTime,
    end: SimTime,
    step: SimDuration,
) -> Vec<(SimTime, f64)> {
    assert!(!step.is_zero());
    let mut out = Vec::new();
    if series.is_empty() {
        return out;
    }
    let mut t = start;
    while t < end {
        let vals: Vec<f64> = series
            .iter()
            .map(|s| s.value_at(t).unwrap_or(0.0))
            .collect();
        out.push((t, crate::stats::stddev(&vals)));
        t += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(pairs: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for (t, v) in pairs {
            s.record(SimTime::from_secs_f64(*t), *v);
        }
        s
    }

    #[test]
    fn value_at_interpolates_stepwise() {
        let s = ts(&[(1.0, 10.0), (3.0, 20.0)]);
        assert_eq!(s.value_at(SimTime::from_secs_f64(0.5)), None);
        assert_eq!(s.value_at(SimTime::from_secs_f64(1.0)), Some(10.0));
        assert_eq!(s.value_at(SimTime::from_secs_f64(2.9)), Some(10.0));
        assert_eq!(s.value_at(SimTime::from_secs_f64(3.0)), Some(20.0));
        assert_eq!(s.value_at(SimTime::from_secs_f64(99.0)), Some(20.0));
    }

    #[test]
    fn record_overwrites_same_instant() {
        let mut s = TimeSeries::new();
        s.record(SimTime(5), 1.0);
        s.record(SimTime(5), 2.0);
        assert_eq!(s.points().len(), 1);
        assert_eq!(s.value_at(SimTime(5)), Some(2.0));
    }

    #[test]
    fn time_weighted_mean_simple() {
        // 10 for 2s, then 20 for 2s => mean 15 over [0,4) if started at 0
        let s = ts(&[(0.0, 10.0), (2.0, 20.0)]);
        let m = s
            .time_weighted_mean(SimTime::ZERO, SimTime::from_secs_f64(4.0))
            .unwrap();
        assert!((m - 15.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_partial_window() {
        let s = ts(&[(0.0, 10.0), (2.0, 20.0)]);
        // window [1,3): 1s at 10, 1s at 20
        let m = s
            .time_weighted_mean(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(3.0))
            .unwrap();
        assert!((m - 15.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_empty_cases() {
        let s = TimeSeries::new();
        assert_eq!(s.time_weighted_mean(SimTime::ZERO, SimTime(10)), None);
        let s = ts(&[(5.0, 1.0)]);
        assert_eq!(
            s.time_weighted_mean(SimTime::ZERO, SimTime::from_secs_f64(2.0)),
            None
        );
    }

    #[test]
    fn resample_grid() {
        let s = ts(&[(1.0, 10.0)]);
        let grid = s.resample(
            SimTime::ZERO,
            SimTime::from_secs_f64(3.0),
            SimDuration::from_secs(1),
        );
        let vals: Vec<f64> = grid.iter().map(|p| p.1).collect();
        assert_eq!(vals, vec![0.0, 10.0, 10.0]);
    }

    #[test]
    fn stddev_across_series() {
        let a = ts(&[(0.0, 10.0)]);
        let b = ts(&[(0.0, 20.0)]);
        let out = stddev_across(
            &[&a, &b],
            SimTime::ZERO,
            SimTime::from_secs_f64(2.0),
            SimDuration::from_secs(1),
        );
        assert_eq!(out.len(), 2);
        for (_, sd) in out {
            assert!((sd - 5.0).abs() < 1e-9);
        }
    }
}
