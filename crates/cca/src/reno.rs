//! TCP Reno / NewReno.
//!
//! Slow start (one packet of window growth per acknowledged packet until the
//! slow-start threshold), additive increase in congestion avoidance (one
//! packet per window per RTT), multiplicative decrease on loss (halve once
//! per recovery episode), and window collapse to one packet on RTO.

use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use ccfuzz_netsim::time::{SimDuration, SimTime};

/// Minimum congestion window, packets: RFC 5681's `2*SMSS` floor on
/// `ssthresh`.
pub const MIN_CWND: u64 = 2;
/// Maximum congestion window, packets (safety bound).
pub const MAX_CWND: u64 = 10_000;
/// Multiplicative-decrease factor applied to the window on loss: RFC 5681
/// halves.
pub const BETA: f64 = 0.5;

/// TCP Reno / NewReno.
#[derive(Clone, Debug)]
pub struct Reno {
    /// Congestion window in packets, with fractional accumulation for
    /// congestion avoidance.
    cwnd: f64,
    ssthresh: u64,
    /// End of the current ECN-reaction round: further echoes are ignored
    /// until this instant (RFC 3168's once-per-RTT reduction guard).
    ecn_hold_until: Option<SimTime>,
}

/// The smoothed RTT, else the min RTT, else 100 ms: the length of one
/// reaction round for the algorithms that have no RTT model of their own.
pub(crate) fn rtt_or_default(ctx: &CcContext) -> SimDuration {
    ctx.srtt
        .or(ctx.min_rtt)
        .unwrap_or(SimDuration::from_millis(100))
}

impl Reno {
    /// Creates a Reno instance with an initial window of `initial_cwnd`
    /// packets.
    pub fn new(initial_cwnd: u64) -> Self {
        Reno {
            cwnd: initial_cwnd.max(MIN_CWND) as f64,
            ssthresh: u64::MAX,
            ecn_hold_until: None,
        }
    }

    /// `true` while in slow start.
    pub fn in_slow_start(&self) -> bool {
        (self.cwnd as u64) < self.ssthresh
    }

    /// Multiplies the window by `factor` and makes the result the new
    /// slow-start threshold (DCTCP's proportional reduction).
    pub(crate) fn scale_window(&mut self, factor: f64) {
        self.cwnd *= factor;
        self.ssthresh = (self.cwnd as u64).max(MIN_CWND);
        self.clamp();
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND as f64, MAX_CWND as f64);
    }
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        if rs.newly_acked == 0 {
            return;
        }
        // During recovery NewReno does not grow the window.
        if ctx.in_recovery {
            return;
        }
        if self.in_slow_start() {
            // Growth capped so slow start does not overshoot the threshold
            // (the behaviour the NS3 CUBIC bug of §4.2 is missing).
            let headroom = self.ssthresh.saturating_sub(self.cwnd as u64) as f64;
            self.cwnd += (rs.newly_acked as f64).min(headroom.max(0.0));
        } else {
            self.cwnd += rs.newly_acked as f64 / self.cwnd.max(1.0);
        }
        self.clamp();
    }

    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
        match signal {
            CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                if new_episode {
                    self.ssthresh = ((self.cwnd * BETA) as u64).max(MIN_CWND);
                    self.cwnd = self.ssthresh as f64;
                }
            }
            CongestionSignal::Rto => {
                self.ssthresh = ((self.cwnd * BETA) as u64).max(MIN_CWND);
                self.cwnd = 1.0;
            }
        }
        // A loss reduction covers any CE marks from the same congestion
        // event: without this hold, an AQM that both marks and drops in one
        // RTT (e.g. RED straddling max_thresh) would quarter the window.
        self.ecn_hold_until = Some(ctx.now + rtt_or_default(ctx));
    }

    fn on_ecn(&mut self, ctx: &CcContext, _ce_acked: u64) {
        // RFC 3168 §6.1.2: react to ECE exactly as to a single loss — halve
        // once, then ignore further echoes for one RTT (the halved window's
        // worth of marks all describe the same congestion event). While in
        // recovery the loss reduction already happened for this window.
        if ctx.in_recovery {
            return;
        }
        if let Some(until) = self.ecn_hold_until {
            if ctx.now < until {
                return;
            }
        }
        self.ssthresh = ((self.cwnd * BETA) as u64).max(MIN_CWND);
        self.cwnd = self.ssthresh as f64;
        self.ecn_hold_until = Some(ctx.now + rtt_or_default(ctx));
    }

    fn cwnd(&self) -> u64 {
        (self.cwnd as u64).max(1)
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::time::{SimDuration, SimTime};

    fn ctx(in_recovery: bool) -> CcContext {
        CcContext {
            now: SimTime::ZERO,
            mss: 1448,
            in_flight: 10,
            delivered: 100,
            lost: 0,
            srtt: Some(SimDuration::from_millis(40)),
            last_rtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery,
        }
    }

    fn sample(newly_acked: u64) -> RateSample {
        RateSample {
            delivered: 100,
            prior_delivered: 90,
            prior_delivered_time: SimTime::ZERO,
            send_elapsed: SimDuration::from_millis(10),
            ack_elapsed: SimDuration::from_millis(10),
            interval: SimDuration::from_millis(10),
            delivered_in_interval: 10,
            delivery_rate_bps: 10e6,
            rtt: Some(SimDuration::from_millis(40)),
            newly_acked,
            cum_ack_advanced: newly_acked,
            is_retransmitted_sample: false,
            is_app_limited: false,
            in_flight_before: 10,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn slow_start_grows_per_acked_packet() {
        let mut r = Reno::new(10);
        assert!(r.in_slow_start());
        assert_eq!(r.cwnd(), 10);
        r.on_ack(&ctx(false), &sample(5));
        assert_eq!(r.cwnd(), 15);
    }

    #[test]
    fn congestion_avoidance_is_one_packet_per_window() {
        let mut r = Reno::new(10);
        // Leave slow start via a loss.
        r.on_congestion(
            &ctx(false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let w = r.cwnd();
        assert!(!r.in_slow_start());
        // A full window of ACKs grows the window by roughly 1 (harmonic
        // accumulation makes it slightly less than exactly 1).
        for _ in 0..w {
            r.on_ack(&ctx(false), &sample(1));
        }
        assert!(r.cwnd() == w || r.cwnd() == w + 1, "cwnd {}", r.cwnd());
        // Over three windows the growth is clearly linear, not exponential.
        for _ in 0..(3 * w) {
            r.on_ack(&ctx(false), &sample(1));
        }
        assert!((w + 2..=w + 4).contains(&r.cwnd()), "cwnd {}", r.cwnd());
    }

    #[test]
    fn halves_on_new_loss_episode_only() {
        let mut r = Reno::new(40);
        r.on_congestion(
            &ctx(false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(r.cwnd(), 20);
        assert_eq!(r.ssthresh(), 20);
        r.on_congestion(
            &ctx(false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 5,
                new_episode: false,
            },
        );
        assert_eq!(r.cwnd(), 20, "same episode, no further reduction");
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut r = Reno::new(40);
        r.on_congestion(&ctx(false), CongestionSignal::Rto);
        assert_eq!(r.cwnd(), 1);
        assert_eq!(r.ssthresh(), 20);
        assert!(r.in_slow_start());
    }

    #[test]
    fn no_growth_during_recovery() {
        let mut r = Reno::new(10);
        let before = r.cwnd();
        r.on_ack(&ctx(true), &sample(5));
        assert_eq!(r.cwnd(), before);
    }

    #[test]
    fn slow_start_does_not_overshoot_ssthresh() {
        let mut r = Reno::new(2);
        r.on_congestion(&ctx(false), CongestionSignal::Rto); // ssthresh = 1? no: beta*2 = 1 -> min_cwnd 2
                                                             // Set a known threshold: halve from 40.
        let mut r = Reno::new(40);
        r.on_congestion(&ctx(false), CongestionSignal::Rto); // ssthresh = 20, cwnd = 1
                                                             // A huge cumulative ACK in slow start must not blow past ssthresh.
        r.on_ack(&ctx(false), &sample(1000));
        assert_eq!(r.cwnd(), 20, "growth capped at ssthresh");
    }

    #[test]
    fn respects_min_and_max() {
        assert_eq!(Reno::new(1).cwnd(), MIN_CWND);
        let mut r = Reno::new(4);
        r.on_ack(&ctx(false), &sample(2 * MAX_CWND));
        assert_eq!(r.cwnd(), MAX_CWND);
        r.on_congestion(
            &ctx(false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(r.cwnd(), MAX_CWND / 2);
        r.on_congestion(&ctx(false), CongestionSignal::Rto);
        r.on_congestion(&ctx(false), CongestionSignal::Rto);
        assert_eq!(r.cwnd(), 1);
        assert_eq!(r.ssthresh(), MIN_CWND);
    }

    fn ctx_at(now_ms: u64, in_recovery: bool) -> CcContext {
        CcContext {
            now: SimTime::from_millis(now_ms),
            ..ctx(in_recovery)
        }
    }

    #[test]
    fn ecn_halves_once_per_rtt() {
        let mut r = Reno::new(40);
        r.on_ecn(&ctx_at(0, false), 2);
        assert_eq!(r.cwnd(), 20, "first echo halves");
        // Further echoes within the same RTT (srtt = 40 ms) are ignored.
        r.on_ecn(&ctx_at(10, false), 2);
        assert_eq!(r.cwnd(), 20);
        // After an RTT the algorithm may react again.
        r.on_ecn(&ctx_at(50, false), 1);
        assert_eq!(r.cwnd(), 10);
    }

    #[test]
    fn one_reduction_per_congestion_event_with_marks_and_losses() {
        // An AQM that both marks and drops in the same RTT (e.g. RED
        // straddling max_thresh) must cost one halving, not two.
        let mut r = Reno::new(40);
        r.on_congestion(
            &ctx_at(0, false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(r.cwnd(), 20, "loss halves");
        // Echo in the same RTT: covered by the loss reduction.
        r.on_ecn(&ctx_at(10, false), 3);
        assert_eq!(r.cwnd(), 20, "no quartering");
        // Echoes while in recovery are covered regardless of timing.
        r.on_ecn(&ctx_at(100, true), 3);
        assert_eq!(r.cwnd(), 20);
    }

    #[test]
    fn zero_ack_sample_is_ignored() {
        let mut r = Reno::new(10);
        let before = r.cwnd();
        r.on_ack(&ctx(false), &sample(0));
        assert_eq!(r.cwnd(), before);
    }
}
