//! The congestion control interface.
//!
//! A [`CongestionControl`] implementation is plugged into the TCP-like sender
//! ([`crate::tcp::sender`]) and receives the same signals a Linux/NS3
//! congestion module would: per-ACK delivery-rate samples ([`RateSample`],
//! modelled on Linux `tcp_rate.c`), loss events detected by fast retransmit,
//! and RTO expirations. It exposes a congestion window (in packets), an
//! optional pacing rate and its transitions as typed [`CcEvent`]s.
//!
//! Concrete algorithms live in the `ccfuzz-cca` crate; this module defines
//! the contract, the events it names and two trivial reference
//! implementations used by the simulator's own tests.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Every flow's initial congestion window, packets: RFC 6928's ten
/// segments. `ccfuzz-cca`'s `CcaKind::build` starts each algorithm at it.
pub const INITIAL_CWND: u64 = 10;

/// A delivery rate sample, generated for every ACK that (cumulatively or
/// selectively) acknowledges at least one packet.
///
/// Field names intentionally mirror Linux's `struct rate_sample` /
/// `tcp_rate.c`, because the BBR finding in §4.1 of the paper hinges on this
/// exact bookkeeping: `prior_delivered` is read from the *per-packet* state
/// stamped at the packet's **most recent** (possibly spurious) transmission.
/// It carries what the algorithms read and nothing more.
#[derive(Clone, Debug, PartialEq)]
pub struct RateSample {
    /// `tp->delivered` stamped on the acknowledged packet when it was last
    /// transmitted (`skb->tx.delivered`, the "prior delivered" of the paper).
    pub prior_delivered: u64,
    /// The sampling interval: the longer of the sampled packet's send
    /// window and the time from its delivered-count stamp to this ACK
    /// (`tcp_rate.c`'s send and ACK phases).
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
}

impl RateSample {
    /// `true` when the sample carries a usable delivery-rate estimate.
    pub fn is_valid(&self) -> bool {
        self.interval > SimDuration::ZERO && self.delivered_in_interval > 0
    }
}

/// Snapshot of connection state passed to every congestion-control callback.
#[derive(Clone, Debug, PartialEq)]
pub struct CcContext {
    /// Current simulation time.
    pub now: SimTime,
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Packets currently in flight (sent, neither acked nor marked lost).
    pub in_flight: u64,
    /// Total packets delivered so far (`tp->delivered`).
    pub delivered: u64,
    /// Smoothed RTT, if at least one sample exists.
    pub srtt: Option<SimDuration>,
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

/// An algorithm-internal event, which the sender drains into the run log
/// for the Figure 4c timeline. Each variant is one of BBR's transitions, a
/// bare `SimTime` is when it happened, and `Display` prints the timeline's
/// text.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CcEvent {
    /// A packet-timed round began.
    RoundStart {
        /// The round's number (the first is 1).
        round: u64,
        /// The `prior_delivered` of the sample that reached the threshold.
        prior_delivered: u64,
        /// Whether that sample was retransmitted: the §4.1 signature.
        retransmitted: bool,
    },
    /// Startup saw three rounds without 25 % growth of this bandwidth
    /// (bits per second).
    PipeFilled(f64),
    /// Startup handed over to Drain.
    EnterDrain(SimTime),
    /// Drain handed over to ProbeBW.
    EnterProbeBw(SimTime),
    /// ProbeRTT began.
    EnterProbeRtt {
        /// When.
        at: SimTime,
        /// An RTO triggered it (the §4.1 mitigation), not an expired
        /// min-RTT estimate.
        on_rto: bool,
    },
    /// ProbeRTT ended.
    ExitProbeRtt {
        /// When.
        at: SimTime,
        /// Back to ProbeBW (the pipe was filled), not to Startup.
        to_probe_bw: bool,
    },
    /// A new fast-retransmit loss episode began packet conservation.
    FastRetransmitLoss(SimTime),
    /// The retransmission timer expired.
    Rto(SimTime),
}

impl fmt::Display for CcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CcEvent::RoundStart {
                round,
                prior_delivered,
                retransmitted: true,
            } => write!(
                f,
                "round {round} started by a RETRANSMITTED sample \
                 (prior_delivered={prior_delivered} >= threshold): \
                 probable spurious-retransmission interaction"
            ),
            CcEvent::RoundStart { round, .. } => write!(f, "round {round} start"),
            CcEvent::PipeFilled(bw) => write!(f, "pipe filled at {:.2} Mbps", bw / 1e6),
            CcEvent::EnterDrain(at) => write!(f, "enter Drain at {at}"),
            CcEvent::EnterProbeBw(at) => write!(f, "enter ProbeBW at {at}"),
            CcEvent::EnterProbeRtt { at, on_rto: false } => {
                write!(f, "enter ProbeRTT at {at} (min_rtt estimate expired)")
            }
            CcEvent::EnterProbeRtt { at, on_rto: true } => {
                write!(f, "enter ProbeRTT at {at} (RTO (mitigation enabled))")
            }
            CcEvent::ExitProbeRtt { at, to_probe_bw } => {
                let to = if to_probe_bw { "ProbeBw" } else { "Startup" };
                write!(f, "exit ProbeRTT to {to} at {at}")
            }
            CcEvent::FastRetransmitLoss(at) => {
                write!(f, "fast-retransmit loss at {at}: packet conservation")
            }
            CcEvent::Rto(at) => write!(f, "RTO at {at}"),
        }
    }
}

/// Capacity of [`CcEvents`]. The sender drains its controller after flow
/// start, after an RTO and after each ACK. BBR, the one algorithm that
/// logs, logs nothing at flow start, at most two events at an RTO (the RTO,
/// then ProbeRTT under the mitigation), and at most four on one ACK: three
/// from `on_ack` (a round start, then either pipe filled and Drain or one
/// other transition; entering ProbeRTT leaves its exit to a later ACK) and
/// one for the fast-retransmit loss episode the same ACK may start.
pub const CC_EVENTS_CAPACITY: usize = 4;

/// The [`CcEvent`]s logged since the last drain, in a fixed inline buffer
/// that never allocates. A fifth event before a drain panics rather than
/// drop one.
#[derive(Clone, Copy, Debug, Default)]
pub struct CcEvents([Option<CcEvent>; CC_EVENTS_CAPACITY]);

impl CcEvents {
    /// Appends `event`.
    #[inline]
    pub fn push(&mut self, event: CcEvent) {
        let slot = self.0.iter_mut().find(|slot| slot.is_none());
        *slot.expect("more CC events than CC_EVENTS_CAPACITY between two drains") = Some(event);
    }

    /// The events in the order they were logged.
    pub fn iter(&self) -> impl Iterator<Item = CcEvent> + '_ {
        self.0.iter().map_while(|slot| *slot)
    }
}

/// The congestion control algorithm contract.
pub trait CongestionControl: std::fmt::Debug + Send {
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

    /// Pacing rate in bits per second, or `None` for pure window-based
    /// sending (ACK clocking).
    fn pacing_rate_bps(&self) -> Option<f64> {
        None
    }

    /// Drains the [`CcEvent`]s logged since the last call. The sender calls
    /// it after every flow start, RTO and ACK (see [`CC_EVENTS_CAPACITY`])
    /// and keeps the events only when it records its log; an algorithm
    /// logs unconditionally into its [`CcEvents`].
    fn take_events(&mut self) -> CcEvents {
        CcEvents::default()
    }
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
        pub(super) ssthresh: u64,
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
            srtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery: false,
        }
    }

    fn sample(newly_acked: u64) -> RateSample {
        RateSample {
            prior_delivered: 5,
            interval: SimDuration::from_millis(12),
            delivered_in_interval: 5,
            delivery_rate_bps: 5.0 * 1448.0 * 8.0 / 0.012,
            rtt: Some(SimDuration::from_millis(40)),
            newly_acked,
            cum_ack_advanced: newly_acked,
            is_retransmitted_sample: false,
            is_app_limited: false,
        }
    }

    /// Each event's text, byte for byte: the Figure 4c timeline and the
    /// `paper` table's RTO timelines print it.
    #[test]
    fn event_display_is_the_timeline_text() {
        let at = SimTime::from_micros(1_234_567);
        let round = |round, retransmitted| CcEvent::RoundStart {
            round,
            prior_delivered: 812,
            retransmitted,
        };
        let cases = [
            (round(7, false), "round 7 start"),
            (
                round(42, true),
                "round 42 started by a RETRANSMITTED sample (prior_delivered=812 >= threshold): \
                 probable spurious-retransmission interaction",
            ),
            (
                CcEvent::PipeFilled(11_586_301.4),
                "pipe filled at 11.59 Mbps",
            ),
            (CcEvent::EnterDrain(at), "enter Drain at 1.234567s"),
            (CcEvent::EnterProbeBw(at), "enter ProbeBW at 1.234567s"),
            (
                CcEvent::EnterProbeRtt { at, on_rto: false },
                "enter ProbeRTT at 1.234567s (min_rtt estimate expired)",
            ),
            (
                CcEvent::EnterProbeRtt { at, on_rto: true },
                "enter ProbeRTT at 1.234567s (RTO (mitigation enabled))",
            ),
            (
                CcEvent::ExitProbeRtt {
                    at,
                    to_probe_bw: true,
                },
                "exit ProbeRTT to ProbeBw at 1.234567s",
            ),
            (
                CcEvent::ExitProbeRtt {
                    at,
                    to_probe_bw: false,
                },
                "exit ProbeRTT to Startup at 1.234567s",
            ),
            (
                CcEvent::FastRetransmitLoss(at),
                "fast-retransmit loss at 1.234567s: packet conservation",
            ),
            (CcEvent::Rto(at), "RTO at 1.234567s"),
        ];
        for (event, text) in cases {
            assert_eq!(event.to_string(), text, "{event:?}");
        }
    }

    #[test]
    #[should_panic(expected = "CC_EVENTS_CAPACITY")]
    fn event_buffer_keeps_order_and_refuses_to_drop() {
        let mut events = CcEvents::default();
        let rtos = (0..CC_EVENTS_CAPACITY as u64).map(|s| CcEvent::Rto(SimTime::from_millis(s)));
        for rto in rtos.clone() {
            events.push(rto);
        }
        assert!(events.iter().eq(rtos));
        events.push(CcEvent::Rto(SimTime::ZERO));
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
        assert_eq!(cc.ssthresh, 4);
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
