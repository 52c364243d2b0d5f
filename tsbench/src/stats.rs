//! Order statistics for latencies and set-up times.

/// One-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
/// smallest value with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when the sample is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_of_one_sample_is_that_sample() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), 7.5);
        }
    }

    #[test]
    fn nearest_rank_of_two_samples_splits_at_the_half() {
        let s = [1.0, 2.0];
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 1.0);
        assert_eq!(percentile(&s, 50.1), 2.0);
        assert_eq!(percentile(&s, 99.0), 2.0);
    }

    #[test]
    fn nearest_rank_of_a_thousand_samples() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 500.0);
        assert_eq!(percentile(&s, 99.0), 990.0);
        assert_eq!(percentile(&s, 99.9), 999.0);
        assert_eq!(percentile(&s, 100.0), 1000.0);
    }

    #[test]
    fn median_ignores_outlying_samples() {
        let samples = [10.0, 11.0, 9.0, 10.5, 1.0, 10.2, 9.8, 50.0, 10.1, 9.9];
        assert_eq!(median(&samples), (10.0 + 10.1) / 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(50), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
