//! Time-series and summary-statistic helpers.

use ccfuzz_netsim::time::{SimDuration, SimTime};

/// Computes throughput over fixed windows from per-packet delivery times.
///
/// Returns one `(window start, bits per second)` entry per window covering
/// `[0, duration)`. Windows with no deliveries have rate 0 — this matters for
/// the paper's "average of the lowest 20 % of windows" score, which exists
/// precisely to reward traces that starve the flow for part of the run.
pub fn windowed_throughput_bps(
    delivery_times: &[SimTime],
    packet_size_bytes: u32,
    window: SimDuration,
    duration: SimDuration,
) -> Vec<(SimTime, f64)> {
    let (mut counts, mut rates) = (Vec::new(), Vec::new());
    windowed_rates_into(
        delivery_times,
        packet_size_bytes,
        window,
        duration,
        &mut counts,
        &mut rates,
    );
    let window_ns = window.as_nanos().max(1);
    let starts = (0..).map(|i: u64| SimTime::from_nanos(i * window_ns));
    starts.zip(rates).collect()
}

/// Scratch-based core of [`windowed_throughput_bps`] for the scoring hot
/// path: fills `counts` with per-window delivery counts and `rates` with the
/// per-window bits-per-second values (the `f64` column of
/// [`windowed_throughput_bps`], in the same order), reusing both buffers so
/// a warm evaluator performs no allocation here.
pub fn windowed_rates_into(
    delivery_times: &[SimTime],
    packet_size_bytes: u32,
    window: SimDuration,
    duration: SimDuration,
    counts: &mut Vec<u64>,
    rates: &mut Vec<f64>,
) {
    let window_ns = window.as_nanos().max(1);
    let total_ns = duration.as_nanos().max(1);
    let n_windows = (total_ns.div_ceil(window_ns) as usize).max(1);
    counts.clear();
    counts.resize(n_windows, 0);
    for t in delivery_times {
        let idx = (t.as_nanos() / window_ns) as usize;
        if idx < counts.len() {
            counts[idx] += 1;
        }
    }
    let window_secs = window.as_secs_f64();
    rates.clear();
    rates.extend(
        counts
            .iter()
            .map(|&c| c as f64 * packet_size_bytes as f64 * 8.0 / window_secs),
    );
}

/// Converts a cumulative `(time, bytes)` step curve into a bucketed rate
/// curve in bits per second (used for the ingress/egress/traffic curves of
/// Figures 4a and 4b).
pub fn rate_curve_bps(
    cumulative: &[(SimTime, u64)],
    window: SimDuration,
    duration: SimDuration,
) -> Vec<(SimTime, f64)> {
    let window_ns = window.as_nanos().max(1);
    let total_ns = duration.as_nanos().max(1);
    let n_windows = total_ns.div_ceil(window_ns) as usize;
    let mut per_window = vec![0u64; n_windows.max(1)];
    let mut prev_total = 0u64;
    for &(t, total) in cumulative {
        let idx = (t.as_nanos() / window_ns) as usize;
        let delta = total.saturating_sub(prev_total);
        prev_total = total;
        if idx < per_window.len() {
            per_window[idx] += delta;
        }
    }
    let window_secs = window.as_secs_f64();
    per_window
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            (
                SimTime::from_nanos(i as u64 * window_ns),
                bytes as f64 * 8.0 / window_secs,
            )
        })
        .collect()
}

/// The mean of the lowest `fraction` of `values` (the paper's low-utilization
/// performance score uses `fraction = 0.2`). Returns 0 for empty input.
pub fn mean_of_lowest_fraction(values: &[f64], fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let k =
        ((sorted.len() as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize).clamp(1, sorted.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// In-place variant of [`mean_of_lowest_fraction`]: sorts `values` itself
/// instead of copying them. Uses an unstable sort (no allocation, ever) —
/// the result is identical because equal values contribute the same sum
/// regardless of their relative order.
pub fn mean_of_lowest_fraction_mut(values: &mut [f64], fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let k =
        ((values.len() as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize).clamp(1, values.len());
    values[..k].iter().sum::<f64>() / k as f64
}

/// Linear-interpolated percentile (`p` in `[0, 100]`). Returns 0 for empty input.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Simple mean. Returns 0 for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_throughput_counts_per_window() {
        // 3 packets in [0,1s), 1 packet in [1,2s), none in [2,3s).
        let times = vec![
            SimTime::from_millis(100),
            SimTime::from_millis(200),
            SimTime::from_millis(900),
            SimTime::from_millis(1_500),
        ];
        let tp = windowed_throughput_bps(
            &times,
            1_000,
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
        );
        assert_eq!(tp.len(), 3);
        assert_eq!(tp[0].1, 24_000.0);
        assert_eq!(tp[1].1, 8_000.0);
        assert_eq!(tp[2].1, 0.0);
    }

    #[test]
    fn windowed_throughput_empty_input() {
        let tp = windowed_throughput_bps(
            &[],
            1500,
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
        );
        assert_eq!(tp.len(), 4);
        assert!(tp.iter().all(|(_, r)| *r == 0.0));
    }

    #[test]
    fn rate_curve_differences_cumulative() {
        let cumulative = vec![
            (SimTime::from_millis(100), 1_000u64),
            (SimTime::from_millis(600), 3_000),
            (SimTime::from_millis(1_100), 6_000),
        ];
        let curve = rate_curve_bps(
            &cumulative,
            SimDuration::from_millis(500),
            SimDuration::from_millis(1_500),
        );
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].1, 1_000.0 * 8.0 / 0.5);
        assert_eq!(curve[1].1, 2_000.0 * 8.0 / 0.5);
        assert_eq!(curve[2].1, 3_000.0 * 8.0 / 0.5);
    }

    #[test]
    fn lowest_fraction_mean() {
        let values = vec![10.0, 1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 7.0, 6.0];
        // Lowest 20% of 10 values = 2 values: 1 and 2 → mean 1.5.
        assert_eq!(mean_of_lowest_fraction(&values, 0.2), 1.5);
        // Whole range.
        assert_eq!(mean_of_lowest_fraction(&values, 1.0), 5.5);
        assert_eq!(mean_of_lowest_fraction(&[], 0.2), 0.0);
        // Tiny fraction still uses at least one value.
        assert_eq!(mean_of_lowest_fraction(&values, 0.0001), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 5.0);
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 10.0), 1.4);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
