//! TCP CUBIC (RFC 9438) with a switchable slow-start behaviour.
//!
//! The paper's §4.2 finding is an NS3-specific implementation bug: when a
//! retransmission fills a large hole, the cumulative ACK jumps by hundreds of
//! segments, CUBIC's slow-start increase is called with that huge
//! `segments_acked` value, and — because NS3 does not cap the increase at the
//! slow-start threshold — the congestion window explodes, the sender bursts
//! roughly one RTO's worth of data, and suffers catastrophic losses. The
//! Linux implementation caps the slow-start growth at `ssthresh`.
//!
//! [`SlowStartBehaviour`] selects between the two, so the fuzzer can both
//! rediscover the bug ([`SlowStartBehaviour::Ns3Uncapped`]) and confirm the
//! fixed behaviour ([`SlowStartBehaviour::CappedAtSsthresh`]).

use crate::reno::rtt_or_default;
use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use ccfuzz_netsim::time::SimTime;

/// How the slow-start window increase treats the slow-start threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowStartBehaviour {
    /// Linux-correct: the window never grows past `ssthresh` inside a single
    /// slow-start increase call.
    CappedAtSsthresh,
    /// NS3's buggy behaviour (§4.2 of the paper): the increase uses the full
    /// cumulative-ACK jump with no cap, so a retransmission that fills a big
    /// hole inflates the window catastrophically.
    Ns3Uncapped,
}

/// Minimum congestion window after a reduction, packets.
pub const MIN_CWND: u64 = 2;
/// Maximum congestion window, packets (safety bound).
pub const MAX_CWND: u64 = 20_000;
/// CUBIC `C` constant (window growth scaling), RFC 9438: 0.4.
pub const C: f64 = 0.4;
/// CUBIC multiplicative-decrease factor `beta_cubic`, RFC 9438: 0.7.
pub const BETA: f64 = 0.7;

/// TCP CUBIC, with fast convergence (RFC 9438 §4.7).
#[derive(Clone, Debug)]
pub struct Cubic {
    /// Slow-start behaviour (the §4.2 bug switch).
    slow_start: SlowStartBehaviour,
    cwnd: f64,
    ssthresh: u64,
    /// Window size just before the last reduction (`W_max`).
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time offset at which the cubic function crosses `W_max`.
    k: f64,
    /// Estimated Reno-friendly window for the TCP-friendliness check.
    w_est: f64,
    /// ACK accounting for the TCP-friendly region.
    ack_cnt: f64,
    /// End of the current ECN-reaction round (once-per-RTT guard).
    ecn_hold_until: Option<SimTime>,
}

impl Cubic {
    /// Creates a CUBIC instance with an initial window of `initial_cwnd`
    /// packets and the given slow-start behaviour.
    pub fn new(initial_cwnd: u64, slow_start: SlowStartBehaviour) -> Self {
        Cubic {
            slow_start,
            cwnd: initial_cwnd.max(MIN_CWND) as f64,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            ack_cnt: 0.0,
            ecn_hold_until: None,
        }
    }

    /// `true` while in slow start.
    pub fn in_slow_start(&self) -> bool {
        (self.cwnd as u64) < self.ssthresh
    }

    /// The configured slow-start behaviour.
    pub fn slow_start_behaviour(&self) -> SlowStartBehaviour {
        self.slow_start
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(1.0, MAX_CWND as f64);
    }

    fn reset_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        self.k = if self.w_max > self.cwnd {
            ((self.w_max - self.cwnd) / C).cbrt()
        } else {
            0.0
        };
        self.w_est = self.cwnd;
        self.ack_cnt = 0.0;
    }

    fn cubic_update(&mut self, ctx: &CcContext, newly_acked: u64) {
        let now = ctx.now;
        if self.epoch_start.is_none() {
            self.reset_epoch(now);
        }
        let epoch_start = self.epoch_start.expect("epoch initialised");
        let t = now.saturating_since(epoch_start).as_secs_f64();
        let rtt = ctx.srtt.map(|d| d.as_secs_f64()).unwrap_or(0.1).max(1e-6);

        // Cubic target window one RTT into the future.
        let w_cubic = C * (t + rtt - self.k).powi(3) + self.w_max;

        // TCP-friendly (Reno-equivalent) window estimate.
        self.ack_cnt += newly_acked as f64;
        let reno_slope = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += reno_slope * self.ack_cnt / self.cwnd.max(1.0);
        self.ack_cnt = 0.0;

        let target = w_cubic.max(self.w_est);
        if target > self.cwnd {
            // Approach the target over roughly one RTT's worth of ACKs.
            self.cwnd += (target - self.cwnd) * newly_acked as f64 / self.cwnd.max(1.0);
        } else {
            // Tiny growth to keep probing (as Linux does).
            self.cwnd += 0.01 * newly_acked as f64 / self.cwnd.max(1.0);
        }
        self.clamp();
    }

    fn on_loss_reduction(&mut self) {
        let cwnd = self.cwnd;
        // Fast convergence: if the new W_max is below the previous one, the
        // flow is competing and should release bandwidth faster.
        self.w_max = if cwnd < self.w_max {
            cwnd * (1.0 + BETA) / 2.0
        } else {
            cwnd
        };
        self.ssthresh = ((cwnd * BETA) as u64).max(MIN_CWND);
        self.cwnd = (cwnd * BETA).max(MIN_CWND as f64);
        self.epoch_start = None;
        self.clamp();
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        match self.slow_start {
            SlowStartBehaviour::CappedAtSsthresh => "cubic",
            SlowStartBehaviour::Ns3Uncapped => "cubic-ns3-buggy",
        }
    }

    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        if rs.newly_acked == 0 && rs.cum_ack_advanced == 0 {
            return;
        }
        if ctx.in_recovery {
            return;
        }
        if self.in_slow_start() {
            match self.slow_start {
                SlowStartBehaviour::CappedAtSsthresh => {
                    // Linux: grow by the acked count but never beyond ssthresh
                    // in one step; any remainder is handled by congestion
                    // avoidance on later ACKs.
                    let headroom = (self.ssthresh as f64 - self.cwnd).max(0.0);
                    self.cwnd += (rs.newly_acked as f64).min(headroom);
                }
                SlowStartBehaviour::Ns3Uncapped => {
                    // NS3 bug (§4.2): the increase uses the raw cumulative-ACK
                    // jump ("segments acked") with no ssthresh cap. After a
                    // retransmission fills a large hole this is enormous.
                    self.cwnd += rs.cum_ack_advanced.max(rs.newly_acked) as f64;
                }
            }
            self.clamp();
            return;
        }
        self.cubic_update(ctx, rs.newly_acked.max(1));
    }

    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
        match signal {
            CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                if new_episode {
                    self.on_loss_reduction();
                }
            }
            CongestionSignal::Rto => {
                self.on_loss_reduction();
                self.cwnd = 1.0;
                self.epoch_start = None;
            }
        }
        // A loss reduction covers any CE marks from the same congestion
        // event (see Reno::on_congestion): hold ECN reactions for one RTT.
        self.ecn_hold_until = Some(ctx.now + rtt_or_default(ctx));
    }

    fn on_ecn(&mut self, ctx: &CcContext, _ce_acked: u64) {
        // RFC 3168 + RFC 8312 §4.6: an ECE echo triggers the same beta
        // reduction as a loss, at most once per RTT; while in recovery the
        // loss reduction already happened for this window.
        if ctx.in_recovery {
            return;
        }
        if let Some(until) = self.ecn_hold_until {
            if ctx.now < until {
                return;
            }
        }
        self.on_loss_reduction();
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
    use ccfuzz_netsim::time::SimDuration;

    fn ctx(now_ms: u64, in_recovery: bool) -> CcContext {
        CcContext {
            now: SimTime::from_millis(now_ms),
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

    fn sample(newly_acked: u64, cum_advance: u64) -> RateSample {
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
            cum_ack_advanced: cum_advance,
            is_retransmitted_sample: false,
            is_app_limited: false,
            in_flight_before: 10,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn slow_start_grows_exponentially() {
        let mut c = Cubic::new(10, SlowStartBehaviour::CappedAtSsthresh);
        assert!(c.in_slow_start());
        c.on_ack(&ctx(0, false), &sample(10, 10));
        assert_eq!(c.cwnd(), 20);
    }

    #[test]
    fn loss_reduces_window_by_beta() {
        let mut c = Cubic::new(100, SlowStartBehaviour::CappedAtSsthresh);
        c.on_congestion(
            &ctx(0, false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(c.cwnd(), 70);
        assert_eq!(c.ssthresh(), 70);
        assert!(!c.in_slow_start());
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut c = Cubic::new(100, SlowStartBehaviour::CappedAtSsthresh);
        c.on_congestion(&ctx(0, false), CongestionSignal::Rto);
        assert_eq!(c.cwnd(), 1);
        assert!(c.in_slow_start());
    }

    #[test]
    fn concave_growth_approaches_w_max() {
        let mut c = Cubic::new(100, SlowStartBehaviour::CappedAtSsthresh);
        // Reduce from 100: w_max = 100 (no fast convergence effect on first loss), cwnd = 70.
        c.on_congestion(
            &ctx(0, false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let after_loss = c.cwnd();
        // Feed ACKs over simulated time; the window should grow back toward
        // w_max but not wildly overshoot it quickly.
        let mut now = 40u64;
        for _ in 0..200 {
            c.on_ack(&ctx(now, false), &sample(10, 10));
            now += 40;
        }
        assert!(c.cwnd() > after_loss, "window should recover");
        assert!(
            c.cwnd() < 4 * 100,
            "growth over 8 seconds should stay in a sane range, got {}",
            c.cwnd()
        );
    }

    #[test]
    fn cubic_is_slower_than_slow_start_right_after_loss() {
        let mut c = Cubic::new(100, SlowStartBehaviour::CappedAtSsthresh);
        c.on_congestion(
            &ctx(0, false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let w0 = c.cwnd();
        c.on_ack(&ctx(40, false), &sample(10, 10));
        // In the concave region just after a loss, 10 acked packets must grow
        // the window by much less than 10 (unlike slow start).
        assert!(c.cwnd() < w0 + 10);
    }

    #[test]
    fn ns3_bug_explodes_window_on_large_cumulative_jump() {
        // The §4.2 scenario: after an RTO the flow is in slow start with
        // cwnd=1 and ssthresh=70; the retransmission fills a 500-packet hole.
        let mut buggy = Cubic::new(100, SlowStartBehaviour::Ns3Uncapped);
        buggy.on_congestion(&ctx(0, false), CongestionSignal::Rto);
        assert!(buggy.in_slow_start());
        buggy.on_ack(&ctx(1000, false), &sample(1, 500));
        assert!(
            buggy.cwnd() > 400,
            "buggy CUBIC must blow past ssthresh, got {}",
            buggy.cwnd()
        );

        let mut fixed = Cubic::new(100, SlowStartBehaviour::CappedAtSsthresh);
        fixed.on_congestion(&ctx(0, false), CongestionSignal::Rto);
        let ssthresh = fixed.ssthresh();
        fixed.on_ack(&ctx(1000, false), &sample(1, 500));
        assert!(
            fixed.cwnd() <= ssthresh,
            "fixed CUBIC stays at or below ssthresh ({}), got {}",
            ssthresh,
            fixed.cwnd()
        );
    }

    #[test]
    fn no_growth_during_recovery() {
        let mut c = Cubic::new(10, SlowStartBehaviour::CappedAtSsthresh);
        let before = c.cwnd();
        c.on_ack(&ctx(0, true), &sample(10, 10));
        assert_eq!(c.cwnd(), before);
    }

    #[test]
    fn fast_convergence_lowers_w_max_on_consecutive_losses() {
        let mut c = Cubic::new(100, SlowStartBehaviour::CappedAtSsthresh);
        c.on_congestion(
            &ctx(0, false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let w_max_first = c.w_max;
        // Second loss at a smaller window.
        let cwnd = c.cwnd;
        c.on_congestion(
            &ctx(100, false),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert!(c.w_max < w_max_first, "fast convergence reduces W_max");
        // RFC 9438 §4.7: W_max = cwnd × (1 + β) / 2.
        assert_eq!(c.w_max, cwnd * (1.0 + BETA) / 2.0);
    }

    #[test]
    fn names_reflect_variant() {
        assert_eq!(
            Cubic::new(10, SlowStartBehaviour::CappedAtSsthresh).name(),
            "cubic"
        );
        assert_eq!(
            Cubic::new(10, SlowStartBehaviour::Ns3Uncapped).name(),
            "cubic-ns3-buggy"
        );
    }
}
