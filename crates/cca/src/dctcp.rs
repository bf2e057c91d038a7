//! DCTCP-style fractional ECN responder.
//!
//! Where RFC 3168 algorithms treat any ECE echo as a loss-equivalent and
//! halve, DCTCP (RFC 8257) estimates the *fraction* `alpha` of packets that
//! were CE-marked over each observation window (~1 RTT) and reduces the
//! window proportionally: `cwnd -= cwnd * alpha / 2`. Against a shallow
//! marking threshold this holds the queue short without the sawtooth.
//!
//! The implementation follows the RFC's structure at the simulator's packet
//! granularity: slow start and additive increase as in Reno, the standard
//! `alpha` EWMA with gain `g`, a once-per-window reduction, and loss
//! handling identical to Reno (DCTCP degrades to Reno without marks, so
//! mark-free runs behave like a plain AIMD flow).

use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use ccfuzz_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// DCTCP configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DctcpConfig {
    /// Initial congestion window, packets.
    pub initial_cwnd: u64,
    /// Minimum congestion window, packets.
    pub min_cwnd: u64,
    /// Maximum congestion window, packets (safety bound).
    pub max_cwnd: u64,
    /// EWMA gain `g` for the mark-fraction estimate (RFC 8257: 1/16).
    pub gain: f64,
    /// Initial `alpha` (RFC 8257 recommends 1: conservative until measured).
    pub initial_alpha: f64,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        DctcpConfig {
            initial_cwnd: 10,
            min_cwnd: 2,
            max_cwnd: 10_000,
            gain: 1.0 / 16.0,
            initial_alpha: 1.0,
        }
    }
}

/// The DCTCP congestion controller.
#[derive(Clone, Debug)]
pub struct Dctcp {
    cfg: DctcpConfig,
    cwnd: f64,
    ssthresh: u64,
    /// EWMA of the CE-marked fraction.
    alpha: f64,
    /// Packets acknowledged in the current observation window.
    acked_window: u64,
    /// CE marks echoed in the current observation window.
    marked_window: u64,
    /// End of the current observation window.
    window_end: Option<SimTime>,
    /// Whether a reduction was already applied for this window.
    reduced_this_window: bool,
}

impl Dctcp {
    /// Creates a DCTCP instance.
    pub fn new(cfg: DctcpConfig) -> Self {
        Dctcp {
            cwnd: cfg.initial_cwnd.max(cfg.min_cwnd) as f64,
            ssthresh: u64::MAX,
            alpha: cfg.initial_alpha.clamp(0.0, 1.0),
            acked_window: 0,
            marked_window: 0,
            window_end: None,
            reduced_this_window: false,
            cfg,
        }
    }

    /// `true` while in slow start.
    pub fn in_slow_start(&self) -> bool {
        (self.cwnd as u64) < self.ssthresh
    }

    /// Current mark-fraction estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn clamp(&mut self) {
        self.cwnd = self
            .cwnd
            .clamp(self.cfg.min_cwnd as f64, self.cfg.max_cwnd as f64);
    }

    fn rtt(&self, ctx: &CcContext) -> SimDuration {
        ctx.srtt
            .or(ctx.min_rtt)
            .unwrap_or(SimDuration::from_millis(100))
    }

    /// Rolls the observation window forward if it elapsed, folding the
    /// measured mark fraction into `alpha` and applying the proportional
    /// reduction when the window saw any marks.
    fn maybe_roll_window(&mut self, ctx: &CcContext) {
        let now = ctx.now;
        let Some(end) = self.window_end else {
            self.window_end = Some(now + self.rtt(ctx));
            return;
        };
        if now < end {
            return;
        }
        if self.acked_window > 0 {
            // Clamped defensively: marks and acks are accumulated from the
            // same ACKs (the sender delivers on_ecn before on_ack), but a
            // fraction above 1 must never leak into alpha.
            let fraction = (self.marked_window as f64 / self.acked_window as f64).min(1.0);
            self.alpha = (1.0 - self.cfg.gain) * self.alpha + self.cfg.gain * fraction;
        }
        if self.marked_window > 0 && !self.reduced_this_window {
            self.cwnd *= 1.0 - self.alpha / 2.0;
            self.ssthresh = (self.cwnd as u64).max(self.cfg.min_cwnd);
            self.clamp();
        }
        self.acked_window = 0;
        self.marked_window = 0;
        self.reduced_this_window = false;
        self.window_end = Some(now + self.rtt(ctx));
    }
}

impl CongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        if rs.newly_acked == 0 {
            return;
        }
        self.acked_window += rs.newly_acked;
        self.maybe_roll_window(ctx);
        if ctx.in_recovery {
            return;
        }
        if self.in_slow_start() {
            let headroom = self.ssthresh.saturating_sub(self.cwnd as u64) as f64;
            self.cwnd += (rs.newly_acked as f64).min(headroom.max(0.0));
        } else {
            self.cwnd += rs.newly_acked as f64 / self.cwnd.max(1.0);
        }
        self.clamp();
    }

    fn on_ecn(&mut self, _ctx: &CcContext, ce_acked: u64) {
        // Accumulate only; the window rolls in on_ack, which the sender
        // calls *after* this hook for the same ACK — so an ACK's marks and
        // its acked count always land in the same observation window.
        self.marked_window += ce_acked;
    }

    fn on_congestion(&mut self, _ctx: &CcContext, signal: CongestionSignal) {
        match signal {
            CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                if new_episode {
                    self.ssthresh = ((self.cwnd * 0.5) as u64).max(self.cfg.min_cwnd);
                    self.cwnd = self.ssthresh as f64;
                    self.reduced_this_window = true;
                }
            }
            CongestionSignal::Rto => {
                self.ssthresh = ((self.cwnd * 0.5) as u64).max(self.cfg.min_cwnd);
                self.cwnd = 1.0;
                self.reduced_this_window = true;
            }
        }
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

    fn ctx(now_ms: u64) -> CcContext {
        CcContext {
            now: SimTime::from_millis(now_ms),
            mss: 1448,
            in_flight: 10,
            delivered: 100,
            lost: 0,
            srtt: Some(SimDuration::from_millis(40)),
            last_rtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery: false,
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
    fn mark_free_windows_decay_alpha_and_never_reduce() {
        let mut d = Dctcp::new(DctcpConfig::default());
        let alpha0 = d.alpha();
        // Leave slow start so growth is additive and observable.
        d.on_congestion(
            &ctx(0),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let w = d.cwnd();
        // Several mark-free windows, each spanning > 1 RTT.
        for ms in (0..10).map(|i| i * 50) {
            d.on_ack(&ctx(ms), &sample(5));
        }
        assert!(d.alpha() < alpha0, "alpha decays without marks");
        assert!(d.cwnd() >= w, "no reduction without marks");
    }

    #[test]
    fn fully_marked_windows_converge_to_halving() {
        let mut d = Dctcp::new(DctcpConfig::default());
        d.on_congestion(
            &ctx(0),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        // Every acked packet marked, for many windows: alpha stays near 1
        // and each window costs ~alpha/2 of the window. Marks are fed
        // before the ACK, matching the sender's hook order.
        let before = d.cwnd();
        for ms in (0..20).map(|i| i * 50) {
            d.on_ecn(&ctx(ms), 4);
            d.on_ack(&ctx(ms), &sample(4));
        }
        assert!(d.alpha() > 0.9, "alpha {:.3}", d.alpha());
        assert!(
            d.cwnd() < before,
            "sustained marking must shrink the window"
        );
    }

    #[test]
    fn partial_marking_reduces_less_than_halving() {
        let run = |mark_every: u64| {
            let mut d = Dctcp::new(DctcpConfig {
                initial_alpha: 0.0,
                ..Default::default()
            });
            d.on_congestion(
                &ctx(0),
                CongestionSignal::FastRetransmitLoss {
                    newly_lost: 1,
                    new_episode: true,
                },
            );
            for i in 0..40u64 {
                let ms = i * 50;
                if i % mark_every == 0 {
                    d.on_ecn(&ctx(ms), 1);
                }
                d.on_ack(&ctx(ms), &sample(8));
            }
            d.cwnd()
        };
        // Light marking (1 in 8 windows) must end with a larger window than
        // marking in every window.
        assert!(run(8) > run(1), "{} vs {}", run(8), run(1));
    }

    #[test]
    fn loss_still_halves_like_reno() {
        let mut d = Dctcp::new(DctcpConfig {
            initial_cwnd: 40,
            ..Default::default()
        });
        d.on_congestion(
            &ctx(0),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(d.cwnd(), 20);
        d.on_congestion(&ctx(0), CongestionSignal::Rto);
        assert_eq!(d.cwnd(), 1);
    }
}
