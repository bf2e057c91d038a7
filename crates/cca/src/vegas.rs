//! TCP Vegas — a delay-based congestion control algorithm.
//!
//! Included primarily to diversify the multi-CCA realism scoring of §5 of the
//! paper (a trace is "realistic" if at least a few different algorithms can
//! perform well on it), and as an additional target for fuzzing.

use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use ccfuzz_netsim::time::SimDuration;

/// Minimum congestion window, packets.
pub const MIN_CWND: u64 = 2;
/// Maximum congestion window, packets.
pub const MAX_CWND: u64 = 10_000;
/// Lower bound on the number of "extra" packets buffered in the network.
pub const ALPHA: f64 = 2.0;
/// Upper bound on the number of "extra" packets buffered in the network.
pub const BETA: f64 = 4.0;

/// TCP Vegas.
#[derive(Clone, Debug)]
pub struct Vegas {
    cwnd: f64,
    ssthresh: u64,
    base_rtt: Option<SimDuration>,
    /// Minimum RTT observed during the current adjustment interval.
    interval_min_rtt: Option<SimDuration>,
    /// Packets acknowledged since the last per-RTT adjustment.
    acked_in_interval: u64,
}

impl Vegas {
    /// Creates a Vegas instance with an initial window of `initial_cwnd`
    /// packets.
    pub fn new(initial_cwnd: u64) -> Self {
        Vegas {
            cwnd: initial_cwnd.max(MIN_CWND) as f64,
            ssthresh: u64::MAX,
            base_rtt: None,
            interval_min_rtt: None,
            acked_in_interval: 0,
        }
    }

    /// `true` while in slow start.
    pub fn in_slow_start(&self) -> bool {
        (self.cwnd as u64) < self.ssthresh
    }

    /// The current base (propagation) RTT estimate.
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.base_rtt
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND as f64, MAX_CWND as f64);
    }

    fn per_rtt_adjustment(&mut self) {
        let (Some(base), Some(current)) = (self.base_rtt, self.interval_min_rtt) else {
            return;
        };
        let base_s = base.as_secs_f64().max(1e-9);
        let current_s = current.as_secs_f64().max(base_s);
        // Expected vs actual throughput difference, expressed in packets
        // buffered in the network: diff = cwnd * (1 - base/current).
        let diff = self.cwnd * (1.0 - base_s / current_s);
        if self.in_slow_start() {
            if diff > BETA {
                // Leave slow start when the queue starts building.
                self.ssthresh = (self.cwnd as u64).max(MIN_CWND);
                self.cwnd -= 1.0;
            }
        } else if diff < ALPHA {
            self.cwnd += 1.0;
        } else if diff > BETA {
            self.cwnd -= 1.0;
        }
        self.clamp();
    }
}

impl CongestionControl for Vegas {
    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        if let Some(rtt) = rs.rtt {
            self.base_rtt = Some(match self.base_rtt {
                Some(b) => b.min(rtt),
                None => rtt,
            });
            self.interval_min_rtt = Some(match self.interval_min_rtt {
                Some(m) => m.min(rtt),
                None => rtt,
            });
        }
        if ctx.in_recovery || rs.newly_acked == 0 {
            return;
        }
        if self.in_slow_start() {
            // Vegas doubles every *other* RTT; growing half a packet per
            // acked packet approximates that without per-RTT bookkeeping.
            self.cwnd += rs.newly_acked as f64 * 0.5;
            self.clamp();
        }
        self.acked_in_interval += rs.newly_acked;
        if self.acked_in_interval >= self.cwnd as u64 {
            self.acked_in_interval = 0;
            self.per_rtt_adjustment();
            self.interval_min_rtt = None;
        }
    }

    fn on_congestion(&mut self, _ctx: &CcContext, signal: CongestionSignal) {
        match signal {
            CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                if new_episode {
                    self.ssthresh = ((self.cwnd * 0.75) as u64).max(MIN_CWND);
                    self.cwnd = self.ssthresh as f64;
                }
            }
            CongestionSignal::Rto => {
                self.ssthresh = ((self.cwnd * 0.5) as u64).max(MIN_CWND);
                self.cwnd = MIN_CWND as f64;
            }
        }
        self.clamp();
    }

    fn cwnd(&self) -> u64 {
        (self.cwnd as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::time::SimTime;

    fn ctx() -> CcContext {
        CcContext {
            now: SimTime::ZERO,
            mss: 1448,
            in_flight: 10,
            delivered: 100,
            srtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery: false,
        }
    }

    fn sample(newly_acked: u64, rtt_ms: u64) -> RateSample {
        RateSample {
            prior_delivered: 90,
            interval: SimDuration::from_millis(10),
            delivered_in_interval: 10,
            delivery_rate_bps: 10e6,
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            newly_acked,
            cum_ack_advanced: newly_acked,
            is_retransmitted_sample: false,
            is_app_limited: false,
        }
    }

    #[test]
    fn tracks_base_rtt_as_minimum() {
        let mut v = Vegas::new(10);
        v.on_ack(&ctx(), &sample(1, 60));
        v.on_ack(&ctx(), &sample(1, 40));
        v.on_ack(&ctx(), &sample(1, 80));
        assert_eq!(v.base_rtt(), Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn grows_when_delay_is_low_and_shrinks_when_high() {
        let mut v = Vegas::new(20);
        // Establish base RTT and leave slow start.
        v.on_congestion(
            &ctx(),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let start = v.cwnd();
        // Low delay (RTT == base): grow by ~1 per RTT.
        for _ in 0..start * 3 {
            v.on_ack(&ctx(), &sample(1, 40));
        }
        assert!(v.cwnd() > start, "low delay should grow the window");

        // Now high delay (queue building): shrink.
        let high = v.cwnd();
        for _ in 0..high * 3 {
            v.on_ack(&ctx(), &sample(1, 120));
        }
        assert!(v.cwnd() < high, "high delay should shrink the window");
    }

    #[test]
    fn loss_reduces_window() {
        let mut v = Vegas::new(40);
        v.on_congestion(
            &ctx(),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(v.cwnd(), 30);
        v.on_congestion(&ctx(), CongestionSignal::Rto);
        assert_eq!(v.cwnd(), 2);
    }

    #[test]
    fn slow_start_exits_on_queue_buildup() {
        let mut v = Vegas::new(4);
        assert!(v.in_slow_start());
        // Establish a low base RTT, then feed many ACKs at a much higher RTT
        // (queue building): Vegas should cap the window well before the max.
        v.on_ack(&ctx(), &sample(1, 40));
        for _ in 0..200 {
            v.on_ack(&ctx(), &sample(1, 200));
        }
        assert!(!v.in_slow_start(), "queueing delay should end slow start");
        assert!(v.cwnd() < 100);
    }
}
