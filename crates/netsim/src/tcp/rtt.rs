//! RTT estimation and retransmission timeout computation (RFC 6298).

use crate::time::SimDuration;

/// The RTO floor, RFC 6298 §2.4: 1 s. The paper's §4 findings are timed
/// against it (the §4.3 low-rate pulses arrive once per floor).
pub(crate) const MIN_RTO: SimDuration = SimDuration::from_secs(1);
/// The backoff cap, RFC 6298 §2.5's optional maximum: 60 s.
pub(crate) const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// The RTO before the first RTT sample, RFC 6298 §2.1: 1 s.
pub(crate) const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// Durations below this many nanoseconds take the integer EWMA path of
/// [`scaled`]: `k·x` then stays below 2^53 for every `k ≤ 7`.
const EXACT_EWMA_BELOW_NS: u64 = 1 << 50;

/// `x.mul_f64(k / d)` for `d` a power of two, bit for bit. Below 2^50 ns,
/// `x as f64 · (k/d)` is exact in f64 — `k·x` fits the 53-bit mantissa and
/// dividing by a power of two only shifts the exponent — so its
/// round-half-up is the integer `(k·x + d/2) / d`. Above, the float path
/// stays (an RTT of 13 days is never simulated, but stays defined).
#[inline]
fn scaled(x: SimDuration, k: u64, d: u64) -> SimDuration {
    debug_assert!(d.is_power_of_two() && k <= 7);
    let ns = x.as_nanos();
    if ns < EXACT_EWMA_BELOW_NS {
        SimDuration::from_nanos((k * ns + d / 2) / d)
    } else {
        x.mul_f64(k as f64 / d as f64)
    }
}

/// RFC 6298 smoothed-RTT estimator with the RTO clamped to
/// `[MIN_RTO, MAX_RTO]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: Option<SimDuration>,
}

impl RttEstimator {
    /// Creates an estimator with no sample yet: its RTO is `INITIAL_RTO`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one RTT measurement (callers must respect Karn's rule and never
    /// sample retransmitted packets).
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt.div(2);
            }
            Some(srtt) => {
                // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                //           srtt   = 7/8 srtt + 1/8 rtt
                let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = scaled(self.rttvar, 3, 4) + scaled(diff, 1, 4);
                self.srtt = Some(scaled(srtt, 7, 8) + scaled(rtt, 1, 8));
            }
        }
    }

    /// Smoothed RTT, if at least one sample has been recorded.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The minimum RTT observed.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// The base retransmission timeout (before backoff): `srtt + 4·rttvar`,
    /// clamped to `[MIN_RTO, MAX_RTO]`, or `INITIAL_RTO` before any
    /// sample.
    pub fn rto(&self) -> SimDuration {
        match self.srtt {
            None => INITIAL_RTO,
            Some(srtt) => {
                let raw = srtt + self.rttvar.saturating_mul(4);
                raw.max(MIN_RTO).min(MAX_RTO)
            }
        }
    }

    /// The RTO after `backoff` consecutive expirations (doubles each time,
    /// clamped to `MAX_RTO`).
    pub fn rto_backed_off(&self, backoff: u32) -> SimDuration {
        let base = self.rto();
        let factor = 1u64.checked_shl(backoff.min(32)).unwrap_or(u64::MAX);
        base.saturating_mul(factor).min(MAX_RTO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_before_any_sample_is_the_initial_one() {
        let e = RttEstimator::new();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
        assert_eq!(e.min_rtt(), None);
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(40));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(40)));
        assert_eq!(e.rttvar(), SimDuration::from_millis(20));
        assert_eq!(e.min_rtt(), Some(SimDuration::from_millis(40)));
        // 40ms + 4*20ms = 120ms, but the 1 s minimum dominates (paper setting).
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn rto_floor_enforced() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.on_sample(SimDuration::from_millis(40));
        }
        assert_eq!(
            e.rto(),
            SimDuration::from_secs(1),
            "min-RTO of 1s always applies at 40ms RTT"
        );
    }

    #[test]
    fn large_rtts_raise_rto_above_floor() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(800));
        e.on_sample(SimDuration::from_millis(1200));
        assert!(e.rto() > SimDuration::from_secs(1));
        assert!(e.rto() <= SimDuration::from_secs(60));
    }

    #[test]
    fn smoothing_converges_toward_stable_rtt() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(200));
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(50));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_millis() as i64 - 50).abs() <= 2,
            "srtt should converge to ~50ms, got {srtt}"
        );
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(60));
        e.on_sample(SimDuration::from_millis(45));
        e.on_sample(SimDuration::from_millis(90));
        assert_eq!(e.min_rtt(), Some(SimDuration::from_millis(45)));
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(40));
        assert_eq!(e.rto_backed_off(0), SimDuration::from_secs(1));
        assert_eq!(e.rto_backed_off(1), SimDuration::from_secs(2));
        assert_eq!(e.rto_backed_off(3), SimDuration::from_secs(8));
        assert_eq!(
            e.rto_backed_off(10),
            SimDuration::from_secs(60),
            "capped at MAX_RTO"
        );
        assert_eq!(e.rto_backed_off(63), SimDuration::from_secs(60));
    }

    /// The four RFC 6298 weights as the float expressions `scaled` replaces.
    const WEIGHTS: [(u64, u64, f64); 4] = [
        (3, 4, 0.75),
        (1, 4, 0.25),
        (7, 8, 7.0 / 8.0),
        (1, 8, 1.0 / 8.0),
    ];

    #[test]
    fn integer_ewma_equals_the_float_expressions() {
        let edge = [
            0,
            1,
            2,
            3,
            5,
            7,
            999,
            40_000_001,
            (1 << 50) - 1,
            1 << 50,
            (1 << 50) + 1,
            (1 << 53) + 3,
            u64::MAX / 8,
            u64::MAX,
        ];
        let mut rng = crate::rng::SimRng::new(6298);
        let random = (0..200_000).map(|i| {
            // Uniform over a random bit width, so every magnitude is hit.
            let bits = (i % 64) as u32 + 1;
            rng.next_u64() >> (64 - bits)
        });
        for ns in edge.into_iter().chain(random) {
            let x = SimDuration::from_nanos(ns);
            for (k, d, f) in WEIGHTS {
                assert_eq!(scaled(x, k, d), x.mul_f64(f), "{ns} ns × {k}/{d}");
            }
        }
    }

    #[test]
    fn estimator_matches_a_float_reference_on_a_random_stream() {
        // The RFC 6298 update exactly as it was written with `mul_f64`.
        let mut reference: Option<(SimDuration, SimDuration)> = None;
        let mut e = RttEstimator::new();
        let mut rng = crate::rng::SimRng::new(40);
        for i in 0..50_000u64 {
            let rtt = SimDuration::from_nanos(match i % 5 {
                0 => rng.gen_range_u64(1, 1_000),
                4 if i % 1_000 == 4 => rng.gen_range_u64(1 << 49, 1 << 51),
                _ => rng.gen_range_u64(1_000_000, 2_000_000_000),
            });
            reference = Some(match reference {
                None => (rtt, rtt.div(2)),
                Some((srtt, rttvar)) => {
                    let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                    (
                        srtt.mul_f64(7.0 / 8.0) + rtt.mul_f64(1.0 / 8.0),
                        rttvar.mul_f64(0.75) + diff.mul_f64(0.25),
                    )
                }
            });
            e.on_sample(rtt);
            let (srtt, rttvar) = reference.unwrap();
            assert_eq!((e.srtt(), e.rttvar()), (Some(srtt), rttvar), "sample {i}");
        }
    }
}
