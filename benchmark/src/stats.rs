//! Order statistics for repeated measurements.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// spread printed here is the spread the driver computes. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Rank k*(n+1)/4 (1-based); like Python, the neighbours are
        // clamped to the sample but the weight is not, so tiny samples
        // extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest of the reported percentiles that still has at least ten
/// samples beyond it, for a sample of `n`: p99 needs 1 000 samples, p95
/// 200, p90 100, p75 40; below that only the median is meaningful.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and supported tail (see [`tail_percentile`]) of a sample of
/// durations; sorts `samples` in place.
pub fn median_and_tail(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (
        percentile_sorted(samples, 50.0),
        percentile_sorted(samples, tail_percentile(samples.len())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates on tiny samples, and so do we.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
        let mut small = vec![9, 1, 5];
        assert_eq!(median_and_tail(&mut small), (5, 5));
    }
}
