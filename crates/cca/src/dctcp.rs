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

use crate::reno::{rtt_or_default, Reno};
use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use ccfuzz_netsim::time::SimTime;

/// EWMA gain `g` for the mark-fraction estimate (RFC 8257: 1/16).
pub const GAIN: f64 = 1.0 / 16.0;
/// Initial `alpha` (RFC 8257: 1, conservative until measured).
pub const INITIAL_ALPHA: f64 = 1.0;

/// The DCTCP congestion controller: Reno's window, plus the mark-fraction
/// estimate that replaces Reno's reaction to ECN echoes.
#[derive(Clone, Debug)]
pub struct Dctcp {
    reno: Reno,
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
    /// Creates a DCTCP instance with an initial window of `initial_cwnd`
    /// packets.
    pub fn new(initial_cwnd: u64) -> Self {
        Dctcp {
            reno: Reno::new(initial_cwnd),
            alpha: INITIAL_ALPHA,
            acked_window: 0,
            marked_window: 0,
            window_end: None,
            reduced_this_window: false,
        }
    }

    /// `true` while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.reno.in_slow_start()
    }

    /// Current mark-fraction estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Rolls the observation window forward if it elapsed, folding the
    /// measured mark fraction into `alpha` and applying the proportional
    /// reduction when the window saw any marks.
    fn maybe_roll_window(&mut self, ctx: &CcContext) {
        let now = ctx.now;
        let Some(end) = self.window_end else {
            self.window_end = Some(now + rtt_or_default(ctx));
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
            self.alpha = (1.0 - GAIN) * self.alpha + GAIN * fraction;
        }
        if self.marked_window > 0 && !self.reduced_this_window {
            self.reno.scale_window(1.0 - self.alpha / 2.0);
        }
        self.acked_window = 0;
        self.marked_window = 0;
        self.reduced_this_window = false;
        self.window_end = Some(now + rtt_or_default(ctx));
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        if rs.newly_acked == 0 {
            return;
        }
        self.acked_window += rs.newly_acked;
        self.maybe_roll_window(ctx);
        self.reno.on_ack(ctx, rs);
    }

    fn on_ecn(&mut self, _ctx: &CcContext, ce_acked: u64) {
        // Accumulate only; the window rolls in on_ack, which the sender
        // calls *after* this hook for the same ACK — so an ACK's marks and
        // its acked count always land in the same observation window.
        self.marked_window += ce_acked;
    }

    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
        // Reno's loss reaction. Its ECN hold is never read: `on_ecn` above
        // replaces Reno's.
        self.reno.on_congestion(ctx, signal);
        if let CongestionSignal::Rto
        | CongestionSignal::FastRetransmitLoss {
            new_episode: true, ..
        } = signal
        {
            self.reduced_this_window = true;
        }
    }

    fn cwnd(&self) -> u64 {
        self.reno.cwnd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::time::SimDuration;

    fn ctx(now_ms: u64) -> CcContext {
        CcContext {
            now: SimTime::from_millis(now_ms),
            mss: 1448,
            in_flight: 10,
            delivered: 100,
            srtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery: false,
        }
    }

    fn sample(newly_acked: u64) -> RateSample {
        RateSample {
            prior_delivered: 90,
            interval: SimDuration::from_millis(10),
            delivered_in_interval: 10,
            delivery_rate_bps: 10e6,
            rtt: Some(SimDuration::from_millis(40)),
            newly_acked,
            cum_ack_advanced: newly_acked,
            is_retransmitted_sample: false,
            is_app_limited: false,
        }
    }

    #[test]
    fn mark_free_windows_decay_alpha_and_never_reduce() {
        let mut d = Dctcp::new(10);
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
        let mut d = Dctcp::new(10);
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
            let mut d = Dctcp::new(10);
            d.on_congestion(
                &ctx(0),
                CongestionSignal::FastRetransmitLoss {
                    newly_lost: 1,
                    new_episode: true,
                },
            );
            // Mark-free windows first: alpha decays from 1 to near 0, so the
            // marked phase starts from an unbiased estimate.
            for i in 0..100u64 {
                d.on_ack(&ctx(i * 50), &sample(8));
            }
            assert!(d.alpha() < 0.01, "alpha {:.4}", d.alpha());
            for i in 0..40u64 {
                let ms = 5_000 + i * 50;
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

    /// RFC 8257 §3.3, one observation window per row: `(packets acked,
    /// packets CE-marked, a loss reduction inside the window)`.
    const WINDOWS: [(u64, u64, bool); 8] = [
        (10, 0, false),
        (10, 10, false),
        (20, 5, false),
        (8, 8, true),
        (16, 4, false),
        (12, 0, true),
        (12, 3, false),
        (40, 1, false),
    ];

    #[test]
    fn alpha_and_the_window_follow_rfc_8257_per_observation_window() {
        use crate::reno::{BETA, MAX_CWND, MIN_CWND};
        // In recovery Reno never grows, so the window moves only by the
        // reductions under test.
        let recovering = |ms: u64| CcContext {
            in_recovery: true,
            ..ctx(ms)
        };
        let mut d = Dctcp::new(1_000);
        let (mut alpha, mut cwnd) = (INITIAL_ALPHA, 1_000.0f64);
        for (i, &(acked, marked, loss)) in WINDOWS.iter().enumerate() {
            // Window i spans [40i, 40i + 40) ms (srtt is 40 ms): its first
            // `acked - 1` ACKs land 1 ms apart from its start, its last at
            // its end, where it closes. Window 0 opens at the first ACK.
            let start = 40 * i as u64;
            if loss {
                d.on_congestion(
                    &recovering(start),
                    CongestionSignal::FastRetransmitLoss {
                        newly_lost: 1,
                        new_episode: true,
                    },
                );
                cwnd = ((cwnd * BETA) as u64).max(MIN_CWND) as f64;
            }
            for j in 0..acked {
                let (before_alpha, before_cwnd) = (d.alpha(), d.cwnd());
                let at = if j + 1 == acked {
                    start + 40
                } else {
                    start + j
                };
                if j < marked {
                    d.on_ecn(&recovering(at), 1);
                }
                d.on_ack(&recovering(at), &sample(1));
                if j + 1 < acked {
                    assert_eq!(d.alpha().to_bits(), before_alpha.to_bits(), "window {i}");
                    assert_eq!(d.cwnd(), before_cwnd, "window {i}: no cut mid-window");
                }
            }
            let before = (cwnd as u64).max(1);
            alpha = (1.0 - GAIN) * alpha + GAIN * (marked as f64 / acked as f64);
            assert_eq!(d.alpha().to_bits(), alpha.to_bits(), "window {i}: alpha");
            if marked > 0 && !loss {
                cwnd = (cwnd * (1.0 - alpha / 2.0)).clamp(MIN_CWND as f64, MAX_CWND as f64);
                assert!((cwnd as u64) < before, "window {i}: marks cut the window");
            }
            assert_eq!(d.cwnd(), (cwnd as u64).max(1), "window {i}: cwnd");
        }
    }

    #[test]
    fn loss_still_halves_like_reno() {
        let mut d = Dctcp::new(40);
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
