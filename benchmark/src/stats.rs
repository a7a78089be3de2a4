//! Order statistics the harness reports: nearest-rank percentiles and
//! medians over small samples, plus the quartile spread the calibration
//! compares against a metric's bound.

/// Sorts a sample ascending (timings are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Nearest-rank percentile of an ascending sample: the element at index
/// `round((n - 1) * p)`. `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Median of a sample in any order: the mean of the two middle elements
/// when the count is even. `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the benchmark contract compares against a metric's bound. `0.0` when
/// fewer than two values or a zero median leave it undefined.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    let med = median(&s);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (quantile(3) - quantile(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sorted((1..=11).map(f64::from).collect());
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 6.0);
        assert_eq!(percentile(&s, 0.9), 10.0);
        assert_eq!(percentile(&s, 1.0), 11.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_odd_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0].
        assert!((quartile_spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
