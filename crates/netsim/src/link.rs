//! Bottleneck link service models.
//!
//! Two service disciplines, matching the paper's two fuzzing modes (§3.1):
//!
//! * [`LinkService::FixedRate`] — a constant-rate serializer. Used for
//!   *traffic fuzzing*, where the adversarial input is the cross traffic.
//! * [`LinkService::TraceDriven`] — a MahiMahi-style service curve: the link
//!   transmits exactly one packet at each opportunity listed in a
//!   [`LinkTrace`](crate::trace::LinkTrace); opportunities that find an empty
//!   queue are wasted. Used for *link fuzzing*.
//!
//! Both models feed a fixed one-way propagation delay toward the sink, and
//! ACKs return over an uncongested reverse path with the same propagation
//! delay.

use crate::time::{SimDuration, SimTime};
use crate::trace::{Cursor, LinkTrace};
use serde::{Deserialize, Serialize};

/// Configuration of the bottleneck service discipline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LinkModel {
    /// Serialize packets at a constant rate (bits per second).
    FixedRate {
        /// Link rate in bits per second.
        rate_bps: u64,
    },
    /// Transmit one packet per opportunity in the given service curve.
    TraceDriven {
        /// The service curve.
        trace: LinkTrace,
    },
}

impl LinkModel {
    /// A human-readable label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            LinkModel::FixedRate { .. } => "fixed-rate",
            LinkModel::TraceDriven { .. } => "trace-driven",
        }
    }
}

/// Runtime state of the bottleneck link.
#[derive(Clone, Debug)]
pub struct LinkService {
    model: LinkModel,
    /// For `TraceDriven`: the next unused opportunity, read in place from
    /// the trace's packed bytes.
    next_opportunity: Cursor,
    /// For `FixedRate`: whether a packet is currently being serialized.
    busy_until: Option<SimTime>,
}

/// What the link should do next, as computed by [`LinkService::next_action`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkAction {
    /// The link can transmit a packet right now (the caller should dequeue
    /// and then call [`LinkService::on_transmit`]).
    TransmitNow,
    /// The link cannot transmit until the given time; the caller should
    /// schedule a `LinkReady` event for then.
    WaitUntil(SimTime),
    /// The link will never transmit again (trace exhausted).
    Exhausted,
}

impl LinkService {
    /// Creates the link service for a model.
    pub fn new(model: LinkModel) -> Self {
        let next_opportunity = match &model {
            LinkModel::FixedRate { .. } => Cursor::default(),
            LinkModel::TraceDriven { trace } => Cursor::new(trace.times()),
        };
        LinkService {
            model,
            next_opportunity,
            busy_until: None,
        }
    }

    /// The configured model.
    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// Decides what the link can do at `now`, given whether the queue has a
    /// packet waiting (`queue_nonempty`).
    pub fn next_action(&mut self, now: SimTime, queue_nonempty: bool) -> LinkAction {
        match &self.model {
            LinkModel::FixedRate { .. } => {
                if let Some(busy_until) = self.busy_until {
                    if now < busy_until {
                        return LinkAction::WaitUntil(busy_until);
                    }
                    self.busy_until = None;
                }
                if queue_nonempty {
                    LinkAction::TransmitNow
                } else {
                    // Nothing to send; the caller re-polls when a packet arrives.
                    LinkAction::WaitUntil(SimTime::MAX)
                }
            }
            LinkModel::TraceDriven { trace } => loop {
                match self.next_opportunity.peek() {
                    None => return LinkAction::Exhausted,
                    Some(t) if t > now => return LinkAction::WaitUntil(t),
                    // An opportunity is due now (or was missed while we were
                    // idle). Use it if there is a packet, otherwise it is
                    // wasted (MahiMahi semantics).
                    Some(_) if queue_nonempty => return LinkAction::TransmitNow,
                    Some(_) => self.next_opportunity.advance(trace.times()),
                }
            },
        }
    }

    /// Records that a packet of `size` bytes started transmission at `now`,
    /// and returns the time at which it fully crosses the bottleneck (i.e.
    /// when it should be handed to the propagation-delay stage).
    pub fn on_transmit(&mut self, now: SimTime, size: u32) -> SimTime {
        match &self.model {
            LinkModel::FixedRate { rate_bps } => {
                let tx_time = SimDuration::transmission_time(size as u64, *rate_bps);
                let done = now + tx_time;
                self.busy_until = Some(done);
                done
            }
            LinkModel::TraceDriven { trace } => {
                // One whole packet per opportunity; the packet leaves the
                // bottleneck at the opportunity instant.
                self.next_opportunity.advance(trace.times());
                now
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_serializes_back_to_back() {
        let mut link = LinkService::new(LinkModel::FixedRate {
            rate_bps: 12_000_000,
        });
        let t0 = SimTime::ZERO;
        assert_eq!(link.next_action(t0, true), LinkAction::TransmitNow);
        let done = link.on_transmit(t0, 1500);
        assert_eq!(done.as_micros(), 1000); // 1500B at 12Mbps = 1ms
                                            // While busy, must wait.
        assert_eq!(
            link.next_action(SimTime::from_micros(500), true),
            LinkAction::WaitUntil(done)
        );
        // At completion, ready again.
        assert_eq!(link.next_action(done, true), LinkAction::TransmitNow);
    }

    #[test]
    fn fixed_rate_idle_when_queue_empty() {
        let mut link = LinkService::new(LinkModel::FixedRate {
            rate_bps: 12_000_000,
        });
        assert_eq!(
            link.next_action(SimTime::ZERO, false),
            LinkAction::WaitUntil(SimTime::MAX)
        );
    }

    #[test]
    fn trace_driven_follows_opportunities() {
        let trace = LinkTrace::new(
            vec![
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30),
            ],
            SimDuration::from_millis(100),
        );
        let mut link = LinkService::new(LinkModel::TraceDriven { trace });
        // Before the first opportunity: wait.
        assert_eq!(
            link.next_action(SimTime::from_millis(5), true),
            LinkAction::WaitUntil(SimTime::from_millis(10))
        );
        // At the opportunity with a packet: transmit, packet leaves immediately.
        assert_eq!(
            link.next_action(SimTime::from_millis(10), true),
            LinkAction::TransmitNow
        );
        let done = link.on_transmit(SimTime::from_millis(10), 1500);
        assert_eq!(done, SimTime::from_millis(10));
        // Next opportunity at 20ms.
        assert_eq!(
            link.next_action(SimTime::from_millis(10), true),
            LinkAction::WaitUntil(SimTime::from_millis(20))
        );
    }

    #[test]
    fn trace_driven_wastes_opportunities_on_empty_queue() {
        let trace = LinkTrace::new(
            vec![SimTime::from_millis(10), SimTime::from_millis(20)],
            SimDuration::from_millis(100),
        );
        let mut link = LinkService::new(LinkModel::TraceDriven { trace });
        // A due opportunity at an empty queue is skipped: the next one is
        // what the link waits for, and a packet arriving before it waits too.
        assert_eq!(
            link.next_action(SimTime::from_millis(10), false),
            LinkAction::WaitUntil(SimTime::from_millis(20))
        );
        assert_eq!(
            link.next_action(SimTime::from_millis(15), true),
            LinkAction::WaitUntil(SimTime::from_millis(20))
        );
        // At 25ms with an empty queue the remaining past opportunity is
        // wasted too, and a packet arriving afterwards finds nothing left.
        assert_eq!(
            link.next_action(SimTime::from_millis(25), false),
            LinkAction::Exhausted
        );
        assert_eq!(
            link.next_action(SimTime::from_millis(25), true),
            LinkAction::Exhausted
        );
    }

    #[test]
    fn trace_driven_missed_opportunity_used_late() {
        // If a packet arrives after an opportunity has passed but the link was
        // never polled in between, the stale opportunity is consumed (wasted)
        // and the packet waits for the next one.
        let trace = LinkTrace::new(
            vec![SimTime::from_millis(10), SimTime::from_millis(40)],
            SimDuration::from_millis(100),
        );
        let mut link = LinkService::new(LinkModel::TraceDriven { trace });
        assert_eq!(
            link.next_action(SimTime::from_millis(10), true),
            LinkAction::TransmitNow
        );
        link.on_transmit(SimTime::from_millis(10), 1500);
        assert_eq!(
            link.next_action(SimTime::from_millis(12), true),
            LinkAction::WaitUntil(SimTime::from_millis(40))
        );
    }

    #[test]
    fn trace_driven_exhausts() {
        let trace = LinkTrace::new(vec![SimTime::from_millis(10)], SimDuration::from_millis(50));
        let mut link = LinkService::new(LinkModel::TraceDriven { trace });
        assert_eq!(
            link.next_action(SimTime::from_millis(10), true),
            LinkAction::TransmitNow
        );
        link.on_transmit(SimTime::from_millis(10), 1500);
        assert_eq!(
            link.next_action(SimTime::from_millis(11), true),
            LinkAction::Exhausted
        );
    }

    #[test]
    fn model_kind_labels() {
        assert_eq!(LinkModel::FixedRate { rate_bps: 1 }.kind(), "fixed-rate");
        assert_eq!(
            LinkModel::TraceDriven {
                trace: LinkTrace::default()
            }
            .kind(),
            "trace-driven"
        );
    }
}
