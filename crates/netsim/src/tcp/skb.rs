//! Per-packet sender state (the simulator's equivalent of a Linux SKB).

use crate::time::SimTime;

/// State the sender keeps for every transmitted-but-unacknowledged packet.
///
/// The `tx_*` fields are re-stamped on **every** transmission of the packet,
/// including retransmissions — mirroring Linux `tcp_rate_skb_sent()`. The
/// paper's BBR finding (§4.1) arises precisely because a *spurious*
/// retransmission refreshes `tx_delivered` right before the SACK for the
/// original copy arrives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Skb {
    /// Packet-level sequence number.
    pub seq: u64,
    /// Number of times this packet has been transmitted.
    pub transmissions: u32,
    /// Time of the most recent transmission.
    pub last_tx: SimTime,
    /// `tp->delivered` stamped at the most recent transmission
    /// ("prior delivered").
    pub tx_delivered: u64,
    /// `tp->delivered_mstamp` stamped at the most recent transmission.
    pub tx_delivered_time: SimTime,
    /// `tp->first_tx_mstamp` stamped at the most recent transmission (start
    /// of the send window used for `send_elapsed`).
    pub tx_first_sent_time: SimTime,
    /// Whether the sender was application-limited at the last transmission.
    pub tx_app_limited: bool,
    /// The packet has been selectively acknowledged.
    pub sacked: bool,
    /// The packet is currently marked lost (awaiting retransmission).
    pub lost: bool,
    /// A copy of the packet is currently in the network and unacknowledged.
    pub outstanding: bool,
}

impl Skb {
    /// Creates the SKB for a packet about to be transmitted for the first time.
    pub fn new(seq: u64) -> Self {
        Skb {
            seq,
            transmissions: 0,
            last_tx: SimTime::ZERO,
            tx_delivered: 0,
            tx_delivered_time: SimTime::ZERO,
            tx_first_sent_time: SimTime::ZERO,
            tx_app_limited: false,
            sacked: false,
            lost: false,
            outstanding: false,
        }
    }

    /// Stamps the SKB for a transmission at `now` (mirrors
    /// `tcp_rate_skb_sent`): records the connection-level delivery state so a
    /// later ACK of this packet can form a rate sample.
    pub fn stamp_transmission(
        &mut self,
        now: SimTime,
        delivered: u64,
        delivered_time: SimTime,
        first_sent_time: SimTime,
        app_limited: bool,
    ) {
        self.transmissions += 1;
        self.last_tx = now;
        self.tx_delivered = delivered;
        self.tx_delivered_time = delivered_time;
        self.tx_first_sent_time = first_sent_time;
        self.tx_app_limited = app_limited;
        self.lost = false;
        self.outstanding = true;
    }

    /// `true` if this packet has been retransmitted at least once.
    pub fn retransmitted(&self) -> bool {
        self.transmissions > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_transmission_stamps_delivery_state() {
        let mut skb = Skb::new(5);
        assert_eq!(skb.transmissions, 0);
        skb.stamp_transmission(
            SimTime::from_millis(10),
            3,
            SimTime::from_millis(9),
            SimTime::from_millis(8),
            false,
        );
        assert_eq!(skb.transmissions, 1);
        assert_eq!(skb.last_tx, SimTime::from_millis(10));
        assert_eq!(skb.tx_delivered, 3);
        assert!(skb.outstanding);
        assert!(!skb.retransmitted());
    }

    #[test]
    fn retransmission_restamps_delivery_state() {
        // This is the mechanism behind the paper's BBR finding: the second
        // (spurious) transmission refreshes tx_delivered to the *current*
        // delivered count.
        let mut skb = Skb::new(7);
        skb.stamp_transmission(
            SimTime::from_millis(10),
            3,
            SimTime::from_millis(9),
            SimTime::from_millis(8),
            false,
        );
        skb.lost = true;
        skb.outstanding = false;
        skb.stamp_transmission(
            SimTime::from_millis(1200),
            57,
            SimTime::from_millis(1190),
            SimTime::from_millis(1195),
            false,
        );
        assert_eq!(skb.transmissions, 2);
        assert!(skb.retransmitted());
        assert_eq!(skb.last_tx, SimTime::from_millis(1200));
        assert_eq!(
            skb.tx_delivered, 57,
            "prior delivered refreshed by retransmission"
        );
        assert!(!skb.lost, "retransmission clears the lost mark");
        assert!(skb.outstanding);
    }
}
