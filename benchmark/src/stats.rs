//! Sample statistics used for every reported number: median, quartiles and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Median of `values` (mean of the two middle samples for even counts).
/// Panics on an empty slice: every caller reports at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads this harness prints are the ones the acceptance check computes.
/// With fewer than two samples all three equal the single sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Exclusive method: position i*(n+1)/4 on a 1-based scale; like
        // Python, the index is clamped but the weight is not, so tiny
        // samples extrapolate past their ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p <= 100, "percentile {p} out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The percentiles this harness ever reports, lowest first.
const PERCENTILE_LADDER: [u32; 5] = [50, 80, 90, 95, 99];

/// The highest percentile of [`PERCENTILE_LADDER`] that `n` samples support:
/// at least ten samples must lie beyond it (p80 needs 50 samples, p95 needs
/// 200). `None` when not even the median qualifies (fewer than 20 samples).
pub fn supported_tail(n: usize) -> Option<u32> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // Two samples extrapolate, exactly as Python does.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 25.0);
        assert_eq!(percentile(&v, 80), 40.0);
        assert_eq!(percentile(&v, 100), 50.0);
        assert_eq!(percentile(&[9.0], 80), 9.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(49), Some(50));
        assert_eq!(supported_tail(50), Some(80)); // 50 generations -> p80
        assert_eq!(supported_tail(150), Some(90));
        assert_eq!(supported_tail(250), Some(95)); // 250 probe evals -> p95
        assert_eq!(supported_tail(1000), Some(99));
    }
}
