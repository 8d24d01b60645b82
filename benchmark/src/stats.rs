//! Order statistics used for every reported number: medians over passes
//! inside a run, and quartile spreads over runs in the repeat check.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    sorted
}

/// Median of a non-empty sample set (mean of the two middle values for
/// an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample — both are bugs in the
/// caller, never a property of the measured program.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, because the pipeline that accepts the benchmark computes
/// spreads that way.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let sorted = sorted(samples);
    let m = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// `(Q3 − Q1) ÷ median`: the run-to-run spread a bound is compared with.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// Nearest-rank percentile (`pct` in 1..=100) of a non-empty set.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    let rank = (pct * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 8, 4, 6], n=4) == [3.0, 6.0, 9.0]
        assert_eq!(quartiles(&[10.0, 2.0, 8.0, 4.0, 6.0]), [3.0, 6.0, 9.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), 1.0);
        assert_eq!(quartile_spread(&[5.0; 10]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50), 5.0);
        assert_eq!(percentile(&ten, 99), 10.0);
        assert_eq!(percentile(&ten, 1), 1.0);
    }
}
