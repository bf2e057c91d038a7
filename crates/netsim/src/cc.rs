//! The congestion control interface.
//!
//! A [`CongestionControl`] implementation is plugged into the TCP-like sender
//! ([`crate::tcp::sender`]) and receives the same signals a Linux/NS3
//! congestion module would: per-ACK delivery-rate samples ([`RateSample`],
//! modelled on Linux `tcp_rate.c`), loss events detected by fast retransmit,
//! and RTO expirations. It exposes a congestion window (in packets) and an
//! optional pacing rate.
//!
//! Concrete algorithms (Reno, CUBIC, BBR, Vegas) live in the `ccfuzz-cca`
//! crate; this module only defines the contract plus a couple of trivial
//! reference implementations used by the simulator's own tests.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A delivery rate sample, generated for every ACK that (cumulatively or
/// selectively) acknowledges at least one packet.
///
/// Field names intentionally mirror Linux's `struct rate_sample` /
/// `tcp_rate.c`, because the BBR finding in §4.1 of the paper hinges on this
/// exact bookkeeping: `prior_delivered` is read from the *per-packet* state
/// stamped at the packet's **most recent** (possibly spurious) transmission.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Total packets delivered at the sender when this ACK was processed
    /// (`tp->delivered`).
    pub delivered: u64,
    /// `tp->delivered` stamped on the acknowledged packet when it was last
    /// transmitted (`skb->tx.delivered`, the "prior delivered" of the paper).
    pub prior_delivered: u64,
    /// Time at which `prior_delivered` was stamped (`skb->tx.delivered_mstamp`).
    pub prior_delivered_time: SimTime,
    /// Time between the first and last transmissions of the sampled
    /// packet's send window (`send_elapsed`).
    pub send_elapsed: SimDuration,
    /// Time between the stamped delivered time and now (`ack_elapsed`).
    pub ack_elapsed: SimDuration,
    /// The sampling interval: `max(send_elapsed, ack_elapsed)`.
    pub interval: SimDuration,
    /// Packets delivered over `interval` (`delivered - prior_delivered`).
    pub delivered_in_interval: u64,
    /// Delivery rate in bits per second (0 when the interval is degenerate).
    pub delivery_rate_bps: f64,
    /// RTT measured from the newest acknowledged packet's last transmission,
    /// `None` when the ACK only covered retransmitted data (Karn's rule).
    pub rtt: Option<SimDuration>,
    /// Packets newly acknowledged (cumulative + SACK) by this ACK.
    pub newly_acked: u64,
    /// Packets the *cumulative* ACK advanced by, regardless of whether they
    /// had already been SACKed. NS3 passes this count ("segments acked") to
    /// the window-increase function, which is how the CUBIC slow-start bug of
    /// §4.2 receives a huge value after a retransmission fills a large hole.
    pub cum_ack_advanced: u64,
    /// Whether the sampled packet had been retransmitted.
    pub is_retransmitted_sample: bool,
    /// Whether the sender was application limited when the packet was sent.
    pub is_app_limited: bool,
    /// Packets in flight just before this ACK was processed.
    pub in_flight_before: u64,
    /// Current time.
    pub now: SimTime,
}

impl RateSample {
    /// `true` when the sample carries a usable delivery-rate estimate.
    pub fn is_valid(&self) -> bool {
        self.interval > SimDuration::ZERO && self.delivered_in_interval > 0
    }
}

/// Snapshot of connection state passed to every congestion-control callback.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcContext {
    /// Current simulation time.
    pub now: SimTime,
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Packets currently in flight (sent, neither acked nor marked lost).
    pub in_flight: u64,
    /// Total packets delivered so far (`tp->delivered`).
    pub delivered: u64,
    /// Total packets marked lost so far.
    pub lost: u64,
    /// Smoothed RTT, if at least one sample exists.
    pub srtt: Option<SimDuration>,
    /// Latest RTT sample, if any.
    pub last_rtt: Option<SimDuration>,
    /// Minimum RTT observed over the connection.
    pub min_rtt: Option<SimDuration>,
    /// `true` while the sender is in fast-recovery.
    pub in_recovery: bool,
}

/// Loss-related congestion signals delivered to the algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestionSignal {
    /// Fast retransmit detected packet loss. `new_episode` is `true` the
    /// first time loss is detected in a recovery episode (a classic
    /// loss-based CCA reacts once per episode).
    FastRetransmitLoss {
        /// Packets newly marked lost.
        newly_lost: u64,
        /// Whether this starts a new recovery episode.
        new_episode: bool,
    },
    /// The retransmission timer expired.
    Rto,
}

/// The congestion control algorithm contract.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Short algorithm name (e.g. `"reno"`, `"cubic"`, `"bbr"`).
    fn name(&self) -> &'static str;

    /// Called once when the flow starts.
    fn init(&mut self, _ctx: &CcContext) {}

    /// Called for every ACK that advances delivery, with the rate sample.
    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample);

    /// Called when loss is signalled (fast retransmit or RTO).
    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal);

    /// Called when an ACK echoes ECN congestion-experienced marks
    /// (`ce_acked` = number of CE-marked packets the ACK reports). RFC 3168
    /// algorithms treat this like a loss signal (window halving, at most
    /// once per RTT); DCTCP reacts proportionally to the mark fraction.
    /// The default ignores marks, so ECN-unaware algorithms are simply
    /// mark-insensitive rather than broken.
    fn on_ecn(&mut self, _ctx: &CcContext, _ce_acked: u64) {}

    /// Called when the sender exits fast recovery.
    fn on_exit_recovery(&mut self, _ctx: &CcContext) {}

    /// Current congestion window, in packets. The sender never lets the
    /// window drop below one packet regardless of what this returns.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold, in packets (`u64::MAX` when unset).
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    /// Pacing rate in bits per second, or `None` for pure window-based
    /// sending (ACK clocking).
    fn pacing_rate_bps(&self) -> Option<f64> {
        None
    }

    /// Drains algorithm-internal events recorded since the last call
    /// (used to build the Figure 4c timeline without coupling the simulator
    /// to any specific algorithm).
    fn take_events(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Tells the algorithm whether its debug events will actually be
    /// consumed. When `false` (the fuzzer's hot path), algorithms should
    /// skip formatting and storing events entirely — the strings would be
    /// allocated and then thrown away millions of times per campaign.
    fn set_event_recording(&mut self, _enabled: bool) {}
}

/// Trivial reference algorithms used by the simulator's own unit tests (the
/// real algorithms live in `ccfuzz-cca`).
pub mod reference_cc {
    use super::*;

    /// A fixed congestion window with no reaction to anything. Useful for
    /// testing transport mechanics in isolation.
    #[derive(Debug, Clone)]
    pub struct FixedWindowCc {
        window: u64,
    }

    impl FixedWindowCc {
        /// Creates a fixed-window algorithm with the given window (packets).
        pub fn new(window: u64) -> Self {
            FixedWindowCc {
                window: window.max(1),
            }
        }
    }

    impl CongestionControl for FixedWindowCc {
        fn name(&self) -> &'static str {
            "fixed-window"
        }
        fn on_ack(&mut self, _ctx: &CcContext, _rs: &RateSample) {}
        fn on_congestion(&mut self, _ctx: &CcContext, _signal: CongestionSignal) {}
        fn cwnd(&self) -> u64 {
            self.window
        }
    }

    /// A minimal AIMD algorithm (slow start + additive increase, halve on
    /// loss) used to exercise recovery paths in transport tests.
    #[derive(Debug, Clone)]
    pub struct MiniAimdCc {
        cwnd: u64,
        ssthresh: u64,
        acked_since_increase: u64,
    }

    impl MiniAimdCc {
        /// Creates the algorithm with an initial window of `initial_cwnd`.
        pub fn new(initial_cwnd: u64) -> Self {
            MiniAimdCc {
                cwnd: initial_cwnd.max(1),
                ssthresh: u64::MAX,
                acked_since_increase: 0,
            }
        }
    }

    impl CongestionControl for MiniAimdCc {
        fn name(&self) -> &'static str {
            "mini-aimd"
        }

        fn on_ack(&mut self, _ctx: &CcContext, rs: &RateSample) {
            if self.cwnd < self.ssthresh {
                self.cwnd += rs.newly_acked;
            } else {
                self.acked_since_increase += rs.newly_acked;
                if self.acked_since_increase >= self.cwnd {
                    self.acked_since_increase = 0;
                    self.cwnd += 1;
                }
            }
        }

        fn on_congestion(&mut self, _ctx: &CcContext, signal: CongestionSignal) {
            match signal {
                CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                    if new_episode {
                        self.ssthresh = (self.cwnd / 2).max(2);
                        self.cwnd = self.ssthresh;
                    }
                }
                CongestionSignal::Rto => {
                    self.ssthresh = (self.cwnd / 2).max(2);
                    self.cwnd = 1;
                }
            }
        }

        fn cwnd(&self) -> u64 {
            self.cwnd
        }

        fn ssthresh(&self) -> u64 {
            self.ssthresh
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference_cc::*;
    use super::*;

    fn ctx() -> CcContext {
        CcContext {
            now: SimTime::ZERO,
            mss: 1448,
            in_flight: 5,
            delivered: 10,
            lost: 0,
            srtt: Some(SimDuration::from_millis(40)),
            last_rtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery: false,
        }
    }

    fn sample(newly_acked: u64) -> RateSample {
        RateSample {
            delivered: 10,
            prior_delivered: 5,
            prior_delivered_time: SimTime::ZERO,
            send_elapsed: SimDuration::from_millis(10),
            ack_elapsed: SimDuration::from_millis(12),
            interval: SimDuration::from_millis(12),
            delivered_in_interval: 5,
            delivery_rate_bps: 5.0 * 1448.0 * 8.0 / 0.012,
            rtt: Some(SimDuration::from_millis(40)),
            newly_acked,
            cum_ack_advanced: newly_acked,
            is_retransmitted_sample: false,
            is_app_limited: false,
            in_flight_before: 6,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn rate_sample_validity() {
        let mut rs = sample(1);
        assert!(rs.is_valid());
        rs.interval = SimDuration::ZERO;
        assert!(!rs.is_valid());
        rs.interval = SimDuration::from_millis(1);
        rs.delivered_in_interval = 0;
        assert!(!rs.is_valid());
    }

    #[test]
    fn fixed_window_never_changes() {
        let mut cc = FixedWindowCc::new(17);
        assert_eq!(cc.cwnd(), 17);
        cc.on_ack(&ctx(), &sample(3));
        cc.on_congestion(&ctx(), CongestionSignal::Rto);
        assert_eq!(cc.cwnd(), 17);
        assert_eq!(cc.name(), "fixed-window");
        assert_eq!(cc.pacing_rate_bps(), None);
    }

    #[test]
    fn fixed_window_minimum_one() {
        assert_eq!(FixedWindowCc::new(0).cwnd(), 1);
    }

    #[test]
    fn mini_aimd_slow_start_doubles() {
        let mut cc = MiniAimdCc::new(2);
        // In slow start every acked packet grows cwnd by one.
        cc.on_ack(&ctx(), &sample(2));
        assert_eq!(cc.cwnd(), 4);
        cc.on_ack(&ctx(), &sample(4));
        assert_eq!(cc.cwnd(), 8);
    }

    #[test]
    fn mini_aimd_reacts_to_loss_once_per_episode() {
        let mut cc = MiniAimdCc::new(16);
        cc.on_congestion(
            &ctx(),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert_eq!(cc.cwnd(), 8);
        // Further losses in the same episode do not halve again.
        cc.on_congestion(
            &ctx(),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 2,
                new_episode: false,
            },
        );
        assert_eq!(cc.cwnd(), 8);
        cc.on_congestion(&ctx(), CongestionSignal::Rto);
        assert_eq!(cc.cwnd(), 1);
        assert_eq!(cc.ssthresh(), 4);
    }

    #[test]
    fn mini_aimd_congestion_avoidance_is_linear() {
        let mut cc = MiniAimdCc::new(4);
        // Force out of slow start.
        cc.on_congestion(
            &ctx(),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let w0 = cc.cwnd();
        // One window's worth of ACKs grows cwnd by exactly 1.
        cc.on_ack(&ctx(), &sample(w0));
        assert_eq!(cc.cwnd(), w0 + 1);
    }
}
