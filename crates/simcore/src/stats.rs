//! Summary statistics used by the evaluation harness: mean, population
//! standard deviation, sample 95 % confidence intervals (the paper reports
//! "average execution time and 95 % confidence interval" over 5 runs), and
//! percentiles (Spark's speculation policy uses the 75th-percentile
//! completion quantile).

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0.0 for fewer than two values.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Sample standard deviation (n − 1 denominator); 0.0 for fewer than two.
pub fn sample_stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Half-width of the 95 % confidence interval of the mean, using the
/// two-sided Student-t critical value for small n (n ≤ 30) and 1.96 beyond.
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    // t_{0.975, df} for df = 1..=30.
    const T975: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    let df = n - 1;
    let t = if df <= 30 { T975[df - 1] } else { 1.96 };
    t * sample_stddev(xs) / (n as f64).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics. Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over a slice already sorted ascending, without the copy
/// and sort: bit-identical to `quantile` of any permutation of `sorted`.
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (the 0.5-quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of strictly positive values; 0.0 for an empty slice.
/// Used to summarise speed-ups across workloads.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[3.0]), 0.0);
        assert_eq!(sample_stddev(&[3.0]), 0.0);
        assert_eq!(ci95_half_width(&[3.0]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn ci95_for_five_runs() {
        // five identical values => zero CI
        assert_eq!(ci95_half_width(&[7.0; 5]), 0.0);
        // known case: n=5, sd=1 => 2.776/sqrt(5)
        let xs = [
            0.0f64, 1.0, 2.0, 3.0, 4.0, // mean 2, sample sd sqrt(2.5)
        ];
        let expect = 2.776 * (2.5f64).sqrt() / (5.0f64).sqrt();
        assert!((ci95_half_width(&xs) - expect).abs() < 1e-9);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    proptest! {
        #[test]
        fn prop_quantile_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..100), q in 0.0f64..=1.0) {
            let v = quantile(&xs, q);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        #[test]
        fn prop_quantile_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 2..50)) {
            prop_assert!(quantile(&xs, 0.25) <= quantile(&xs, 0.75) + 1e-9);
        }

        #[test]
        fn prop_stddev_nonneg(xs in proptest::collection::vec(-1e3f64..1e3, 0..50)) {
            prop_assert!(stddev(&xs) >= 0.0);
            prop_assert!(sample_stddev(&xs) >= 0.0);
        }

        #[test]
        fn prop_mean_between_extremes(xs in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
            let m = mean(&xs);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
