//! Summary statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition. A percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a tail
//! figure is never one or two unlucky samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based rank `ceil(q·n)`, at least 1) of quantile
/// `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly after the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Quantile `q` of ascending `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// The highest of p99.9, p99, p90 and p50 that [`supported`] allows, as
/// `(q, value)`.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|q| supported(sorted, q).map(|v| (q, v)))
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts a sample vector ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(supported(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(supported(&ramp(999), 0.99), None);
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        assert_eq!(highest_supported(&ramp(10_000)), Some((0.999, 9990.0)));
        assert_eq!(highest_supported(&ramp(5_000)), Some((0.99, 4950.0)));
        assert_eq!(highest_supported(&ramp(100)), Some((0.9, 90.0)));
        assert_eq!(highest_supported(&ramp(20)), Some((0.5, 10.0)));
        assert_eq!(highest_supported(&ramp(19)), None);
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
