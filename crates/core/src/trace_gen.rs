//! Initial trace generation: the `DIST_PACKETS` algorithm (Figure 2 of the
//! paper).
//!
//! `DIST_PACKETS` recursively splits a time interval and a packet budget into
//! two halves at a uniformly random point, constraining (for link traces) the
//! average rate of each half to within a 0.5×–2× band of the parent's rate.
//! Below the aggregation threshold `kAgg` the band check is dropped, so
//! short-term bursts and jitter (packet aggregation) still appear while the
//! long-term rate stays bounded.

use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::{SimDuration, SimTime};

/// Parameters of the packet-distribution algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistPacketsParams {
    /// Aggregation threshold `kAgg`: below this interval length the local
    /// rate constraints are not enforced (the paper uses 50 ms).
    pub k_agg: SimDuration,
    /// Whether the 0.5×–2× local-rate constraints are enforced at all.
    /// Link fuzzing enforces them; traffic fuzzing does not (§3.3), and the
    /// unconstrained variant is also what Figure 5 feeds to the realism
    /// scorer.
    pub enforce_rate_bounds: bool,
}

/// Upper bound on the rejection-sampling attempts per split before the
/// constraints are relaxed for that split (keeps generation total-time
/// bounded on adversarial inputs; the paper's pseudocode loops forever).
const MAX_ATTEMPTS: u32 = 64;

impl Default for DistPacketsParams {
    fn default() -> Self {
        DistPacketsParams {
            k_agg: SimDuration::from_millis(50),
            enforce_rate_bounds: true,
        }
    }
}

/// Distributes `num` packet timestamps over `[start, end)` using
/// `DIST_PACKETS`. The returned timestamps are sorted.
pub fn dist_packets(
    num: usize,
    start: SimTime,
    end: SimTime,
    params: &DistPacketsParams,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    let mut out = Vec::with_capacity(num);
    dist_packets_rec(
        num,
        start.as_nanos(),
        end.as_nanos(),
        params,
        rng,
        &mut out,
        0,
    );
    out.sort_unstable();
    out.into_iter().map(SimTime::from_nanos).collect()
}

/// Minimum interval width we keep recursing into; below this packets are
/// placed evenly (prevents unbounded recursion on degenerate splits).
const MIN_SPAN_NS: u64 = 1_000; // 1 µs

fn dist_packets_rec(
    num: usize,
    start_ns: u64,
    end_ns: u64,
    params: &DistPacketsParams,
    rng: &mut SimRng,
    out: &mut Vec<u64>,
    depth: u32,
) {
    if num == 0 || end_ns <= start_ns {
        return;
    }
    if num == 1 {
        out.push(start_ns + (end_ns - start_ns) / 2);
        return;
    }
    let span = end_ns - start_ns;
    if span <= MIN_SPAN_NS || depth > 64 {
        // Degenerate interval: spread evenly.
        for i in 0..num {
            out.push(start_ns + span * (2 * i as u64 + 1) / (2 * num as u64));
        }
        return;
    }

    // Below the aggregation threshold the constraints are not enforced, and
    // the parent rate they compare against is never needed.
    let rate = (span >= params.k_agg.as_nanos() && params.enforce_rate_bounds)
        .then(|| num as f64 / span as f64);
    let mut attempts = 0u32;
    let (tsplit, numleft) = loop {
        let tsplit = rng.gen_range_u64(start_ns + 1, end_ns);
        let numleft = rng.gen_range_usize(0, num + 1);
        attempts += 1;
        let Some(rate) = rate else {
            break (tsplit, numleft);
        };
        if attempts > MAX_ATTEMPTS {
            // Relax the constraint rather than looping forever; split evenly.
            break (start_ns + span / 2, num / 2);
        }
        let left_span = (tsplit - start_ns) as f64;
        let right_span = (end_ns - tsplit) as f64;
        let lrate = numleft as f64 / left_span.max(1.0);
        let rrate = (num - numleft) as f64 / right_span.max(1.0);
        if lrate > 2.0 * rate || rrate > 2.0 * rate {
            continue;
        }
        if lrate < 0.5 * rate || rrate < 0.5 * rate {
            continue;
        }
        break (tsplit, numleft);
    };
    dist_packets_rec(numleft, start_ns, tsplit, params, rng, out, depth + 1);
    dist_packets_rec(num - numleft, tsplit, end_ns, params, rng, out, depth + 1);
}

/// Convenience: the number of packets a link of `rate_bps` can carry over
/// `duration` with `packet_size`-byte packets (used to pick the packet budget
/// for link traces of a given average bandwidth, e.g. 12 Mbps in the paper).
pub fn packets_for_rate(rate_bps: u64, packet_size: u32, duration: SimDuration) -> usize {
    ((rate_bps as f64 / 8.0) * duration.as_secs_f64() / packet_size as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn produces_exactly_the_requested_count() {
        let mut rng = rng();
        for num in [0usize, 1, 7, 100, 5_000] {
            let ts = dist_packets(
                num,
                SimTime::ZERO,
                SimTime::from_millis(5_000),
                &DistPacketsParams::default(),
                &mut rng,
            );
            assert_eq!(ts.len(), num, "count mismatch for {num}");
        }
    }

    #[test]
    fn timestamps_sorted_and_within_bounds() {
        let mut rng = rng();
        let start = SimTime::from_millis(100);
        let end = SimTime::from_millis(4_000);
        let ts = dist_packets(2_000, start, end, &DistPacketsParams::default(), &mut rng);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert!(ts.iter().all(|&t| t >= start && t <= end));
    }

    #[test]
    fn single_packet_lands_mid_interval() {
        let mut rng = rng();
        let ts = dist_packets(
            1,
            SimTime::from_millis(100),
            SimTime::from_millis(200),
            &DistPacketsParams::default(),
            &mut rng,
        );
        assert_eq!(ts, vec![SimTime::from_millis(150)]);
    }

    #[test]
    fn long_term_rate_stays_within_band_when_enforced() {
        // With the constraints enforced, the packet count in each half of the
        // trace must stay within the 0.5x-2x band of the average (by
        // construction of the first split).
        let mut rng = rng();
        let total = 5_000usize;
        let duration = SimTime::from_millis(5_000);
        for _ in 0..10 {
            let ts = dist_packets(
                total,
                SimTime::ZERO,
                duration,
                &DistPacketsParams::default(),
                &mut rng,
            );
            let half = SimTime::from_millis(2_500);
            let first_half = ts.iter().filter(|&&t| t < half).count() as f64;
            let expected = total as f64 / 2.0;
            assert!(
                first_half >= 0.45 * expected && first_half <= 2.1 * expected,
                "first half has {first_half} packets, expected around {expected}"
            );
        }
    }

    #[test]
    fn unconstrained_mode_is_burstier_than_constrained() {
        // Measure burstiness as the maximum packet count in any 100ms bucket,
        // averaged over several generated traces.
        let bucket_max = |ts: &[SimTime]| {
            let mut buckets = [0u32; 50];
            for t in ts {
                let idx = (t.as_millis() / 100).min(49) as usize;
                buckets[idx] += 1;
            }
            *buckets.iter().max().unwrap() as f64
        };
        let mut rng_a = SimRng::new(7);
        let mut rng_b = SimRng::new(7);
        let constrained = DistPacketsParams::default();
        let unconstrained = DistPacketsParams {
            enforce_rate_bounds: false,
            ..Default::default()
        };
        let mut c_sum = 0.0;
        let mut u_sum = 0.0;
        for _ in 0..20 {
            let c = dist_packets(
                1_000,
                SimTime::ZERO,
                SimTime::from_millis(5_000),
                &constrained,
                &mut rng_a,
            );
            let u = dist_packets(
                1_000,
                SimTime::ZERO,
                SimTime::from_millis(5_000),
                &unconstrained,
                &mut rng_b,
            );
            c_sum += bucket_max(&c);
            u_sum += bucket_max(&u);
        }
        assert!(
            u_sum > c_sum,
            "unconstrained traces should be burstier: constrained {c_sum}, unconstrained {u_sum}"
        );
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let params = DistPacketsParams::default();
        let gen = |seed: u64| {
            let mut rng = SimRng::new(seed);
            dist_packets(
                500,
                SimTime::ZERO,
                SimTime::from_millis(1_000),
                &params,
                &mut rng,
            )
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }

    #[test]
    fn degenerate_interval_does_not_hang_or_lose_packets() {
        let mut rng = rng();
        let ts = dist_packets(
            50,
            SimTime::from_nanos(0),
            SimTime::from_nanos(500),
            &DistPacketsParams::default(),
            &mut rng,
        );
        assert_eq!(ts.len(), 50);
        assert!(ts.iter().all(|t| t.as_nanos() <= 500));
    }

    #[test]
    fn packets_for_rate_matches_bandwidth() {
        // 12 Mbps, 1500-byte packets, 5 s -> 5000 packets.
        assert_eq!(
            packets_for_rate(12_000_000, 1500, SimDuration::from_secs(5)),
            5_000
        );
        assert_eq!(packets_for_rate(0, 1500, SimDuration::from_secs(5)), 0);
    }
}
