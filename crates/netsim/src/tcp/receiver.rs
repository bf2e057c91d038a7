//! The receiving endpoint of the CCA flow.
//!
//! Tracks which packet sequences have arrived, generates cumulative ACKs and
//! SACK blocks, and implements delayed ACKs (ACK every n-th in-order packet
//! or when the delayed-ACK timer fires; out-of-order arrivals and duplicates
//! are acknowledged immediately, as in Linux/NS3).
//!
//! The out-of-order scoreboard is incremental: the duplicate check and the
//! range insertion share one binary search over the sorted ranges, and the
//! out-of-order packet count is kept running — per-packet cost does not
//! grow with the number of holes.

use crate::packet::{AckPacket, DataPacket, SackBlock, SackList, MAX_SACK_BLOCKS};
use crate::tcp::count_visit;
use crate::time::{SimDuration, SimTime};

/// With delayed ACKs, an ACK goes out after this many unacknowledged
/// in-order packets (RFC 1122 §4.2.3.2 / RFC 5681 §4.2: every second one).
pub(crate) const DELAYED_ACK_COUNT: u32 = 2;
/// With delayed ACKs, a lone in-order packet is acknowledged after this
/// long (the Linux and ns-3 default).
pub(crate) const DELAYED_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(200);

/// What the receiver wants the network to do after processing a packet or a
/// timer: send this ACK now (at most one per data packet), and (re)arm or
/// disarm the delayed-ACK timer. The output is `Copy`, so the per-packet
/// receive path is allocation-free.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReceiverOutput {
    /// Whether this arrival was new data (in order or not) rather than a
    /// duplicate — i.e. whether the count of distinct packets received,
    /// `cum_ack + ooo_packets`, grew by one.
    pub new_data: bool,
    /// ACK to send immediately, if any.
    pub ack: Option<AckPacket>,
    /// If set, the delayed-ACK timer should fire at this time with the given
    /// generation. A `None` leaves any previously armed timer in place.
    pub arm_delack: Option<(SimTime, u64)>,
}

/// The receiver state machine. SACK is always on: every ACK carries up to
/// [`MAX_SACK_BLOCKS`] blocks.
#[derive(Clone, Debug)]
pub struct TcpReceiver {
    /// Delay ACKs (`DELAYED_ACK_COUNT`, `DELAYED_ACK_TIMEOUT`); without,
    /// every packet is acknowledged at once.
    delayed_ack: bool,
    /// All packets below this sequence have been received.
    cum_ack: u64,
    /// Received out-of-order ranges above `cum_ack`: sorted, disjoint and
    /// non-adjacent (touching ranges are merged on insertion).
    ooo_ranges: Vec<SackBlock>,
    /// Packets held in `ooo_ranges` (the sum of their lengths), kept running.
    ooo_count: u64,
    /// Index into `ooo_ranges` of the most recently updated range (reported
    /// first in SACK blocks, as real receivers do).
    last_updated_range: Option<usize>,
    /// In-order packets received since the last ACK was sent.
    unacked_count: u32,
    /// Delayed-ACK timer generation (incremented on every arm/disarm).
    delack_generation: u64,
    delack_armed: bool,
    /// Total data packets received (including duplicates).
    total_received: u64,
    /// Duplicate data packets received.
    duplicates: u64,
    /// CE-marked data packets received (every wire arrival counts: a marked
    /// duplicate is still a congestion signal from the network).
    ce_received: u64,
    /// CE marks not yet echoed in an ACK.
    pending_ece: u64,
    /// CE marks echoed into generated ACKs so far. Every received mark is
    /// echoed exactly once, so after the network drains
    /// `ce_received == ece_echoed` — the conservation law the ECN property
    /// test pins.
    ece_echoed: u64,
}

impl TcpReceiver {
    /// Creates a receiver, delaying its ACKs if `delayed_ack`.
    pub fn new(delayed_ack: bool) -> Self {
        TcpReceiver {
            delayed_ack,
            cum_ack: 0,
            ooo_ranges: Vec::new(),
            ooo_count: 0,
            last_updated_range: None,
            unacked_count: 0,
            delack_generation: 0,
            delack_armed: false,
            total_received: 0,
            duplicates: 0,
            ce_received: 0,
            pending_ece: 0,
            ece_echoed: 0,
        }
    }

    /// Reinitializes this receiver in place for a fresh flow, keeping the
    /// out-of-order range buffer. Equivalent to
    /// `*self = TcpReceiver::new(delayed_ack)` apart from recycled capacity.
    pub fn reset_reusing(&mut self, delayed_ack: bool) {
        let mut fresh = TcpReceiver::new(delayed_ack);
        fresh.ooo_ranges = std::mem::take(&mut self.ooo_ranges);
        fresh.ooo_ranges.clear();
        *self = fresh;
    }

    /// Current cumulative ACK (first sequence not yet received in order).
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Total data packets received, including duplicates.
    pub fn total_received(&self) -> u64 {
        self.total_received
    }

    /// Duplicate data packets received.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// CE-marked data packets received (including marked duplicates).
    pub fn ce_received(&self) -> u64 {
        self.ce_received
    }

    /// CE marks echoed into generated ACKs so far.
    pub fn ece_echoed(&self) -> u64 {
        self.ece_echoed
    }

    /// Number of distinct packets received out of order (currently above the
    /// cumulative ACK).
    pub fn ooo_packets(&self) -> u64 {
        self.ooo_count
    }

    /// Inserts `seq` (above `cum_ack`) into the out-of-order ranges.
    /// Returns `false`, changing nothing, if it was already there.
    fn insert_ooo(&mut self, seq: u64) -> bool {
        // First range that holds, or could be extended by, `seq`.
        let i = self.ooo_ranges.partition_point(|r| {
            count_visit();
            r.end < seq
        });
        if i < self.ooo_ranges.len() && self.ooo_ranges[i].contains(seq) {
            return false; // duplicate
        }
        self.ooo_count += 1;
        // Can we extend the range at i (seq == range.start - 1 is not possible
        // since ranges are [start,end); extend when seq == end) or the one
        // before it?
        let extends_prev = i < self.ooo_ranges.len() && self.ooo_ranges[i].start == seq + 1;
        let extends_next_end = i < self.ooo_ranges.len() && self.ooo_ranges[i].end == seq;
        match (extends_next_end, extends_prev) {
            (true, _) => {
                self.ooo_ranges[i].end += 1;
                // May now touch the following range; merge.
                if i + 1 < self.ooo_ranges.len()
                    && self.ooo_ranges[i].end == self.ooo_ranges[i + 1].start
                {
                    self.ooo_ranges[i].end = self.ooo_ranges[i + 1].end;
                    self.ooo_ranges.remove(i + 1);
                }
                self.last_updated_range = Some(i);
            }
            (false, true) => {
                self.ooo_ranges[i].start = seq;
                self.last_updated_range = Some(i);
            }
            (false, false) => {
                self.ooo_ranges.insert(
                    i,
                    SackBlock {
                        start: seq,
                        end: seq + 1,
                    },
                );
                self.last_updated_range = Some(i);
            }
        }
        true
    }

    /// Advances the cumulative ACK through the out-of-order range it now
    /// touches, if any (ranges are non-adjacent, so at most the first).
    fn advance_cum_ack(&mut self) {
        if let Some(first) = self.ooo_ranges.first() {
            if first.start <= self.cum_ack {
                self.cum_ack = self.cum_ack.max(first.end);
                self.ooo_count -= first.len();
                self.ooo_ranges.remove(0);
                self.last_updated_range = None;
            }
        }
    }

    /// The ACK's SACK blocks: the most recently updated range first, then
    /// the others in ascending order, up to [`MAX_SACK_BLOCKS`].
    fn sack_blocks(&self) -> SackList {
        let mut blocks = SackList::new();
        if let Some(idx) = self.last_updated_range {
            if let Some(b) = self.ooo_ranges.get(idx) {
                blocks.push(*b);
            }
        }
        for (i, b) in self.ooo_ranges.iter().enumerate() {
            if blocks.len() >= MAX_SACK_BLOCKS {
                break;
            }
            if Some(i) != self.last_updated_range {
                blocks.push(*b);
            }
        }
        blocks
    }

    fn make_ack(&mut self) -> AckPacket {
        self.unacked_count = 0;
        let ece_marks = self.pending_ece;
        self.pending_ece = 0;
        self.ece_echoed += ece_marks;
        AckPacket {
            cum_ack: self.cum_ack,
            sack_blocks: self.sack_blocks(),
            ece_marks,
        }
    }

    fn disarm_delack(&mut self) {
        if self.delack_armed {
            self.delack_armed = false;
            self.delack_generation += 1;
        }
    }

    /// Processes an arriving data packet and returns the ACKs to send plus
    /// any delayed-ACK timer request.
    pub fn on_data(&mut self, pkt: &DataPacket, now: SimTime) -> ReceiverOutput {
        self.total_received += 1;
        if pkt.ce {
            self.ce_received += 1;
            self.pending_ece += 1;
        }
        let mut out = ReceiverOutput::default();

        // An out-of-order arrival is looked up and recorded in one step.
        let is_duplicate =
            pkt.seq < self.cum_ack || (pkt.seq > self.cum_ack && !self.insert_ooo(pkt.seq));
        if is_duplicate {
            self.duplicates += 1;
            // Duplicate data: acknowledge immediately (flushes anything pending).
            self.disarm_delack();
            out.ack = Some(self.make_ack());
            return out;
        }
        out.new_data = true;

        if pkt.seq == self.cum_ack {
            // In-order arrival.
            self.cum_ack += 1;
            self.advance_cum_ack();
            // If this arrival filled a gap (there were out-of-order packets),
            // acknowledge immediately so the sender learns promptly.
            let filled_gap = self.cum_ack > pkt.seq + 1 || !self.ooo_ranges.is_empty();
            self.unacked_count += 1;
            if filled_gap || !self.delayed_ack || self.unacked_count >= DELAYED_ACK_COUNT {
                self.disarm_delack();
                out.ack = Some(self.make_ack());
            } else {
                // Arm (or re-arm) the delayed-ACK timer.
                self.delack_armed = true;
                self.delack_generation += 1;
                out.arm_delack = Some((now + DELAYED_ACK_TIMEOUT, self.delack_generation));
            }
        } else {
            // Out of order (recorded above): ACK immediately (duplicate ACK
            // with SACK).
            self.disarm_delack();
            out.ack = Some(self.make_ack());
        }
        out
    }

    /// Handles a delayed-ACK timer expiry for `generation`. Returns an ACK if
    /// the timer is still valid and data is pending acknowledgement.
    pub fn on_delack_timer(&mut self, generation: u64) -> Option<AckPacket> {
        if !self.delack_armed || generation != self.delack_generation {
            return None;
        }
        self.delack_armed = false;
        if self.unacked_count == 0 {
            return None;
        }
        Some(self.make_ack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::DEFAULT_MSS;

    fn pkt(seq: u64) -> DataPacket {
        DataPacket::cca(seq, DEFAULT_MSS)
    }

    #[test]
    fn in_order_without_delayed_ack_acks_every_packet() {
        let mut r = TcpReceiver::new(false);
        for i in 0..5 {
            let out = r.on_data(&pkt(i), SimTime::from_millis(i));
            let ack = out.ack.expect("immediate ack");
            assert_eq!(ack.cum_ack, i + 1);
            assert!(ack.sack_blocks.is_empty());
        }
        assert_eq!(r.cum_ack(), 5);
    }

    #[test]
    fn delayed_ack_coalesces_two_packets() {
        let mut r = TcpReceiver::new(true);
        let out0 = r.on_data(&pkt(0), SimTime::from_millis(0));
        assert!(out0.ack.is_none(), "first in-order packet is delayed");
        assert!(out0.arm_delack.is_some());
        let out1 = r.on_data(&pkt(1), SimTime::from_millis(1));
        let ack1 = out1.ack.expect("coalesced ack");
        assert_eq!(ack1.cum_ack, 2);
    }

    #[test]
    fn delayed_ack_timer_flushes_pending() {
        let mut r = TcpReceiver::new(true);
        let out = r.on_data(&pkt(0), SimTime::from_millis(0));
        let (deadline, generation) = out.arm_delack.unwrap();
        assert_eq!(deadline, SimTime::from_millis(200));
        // A stale generation does nothing.
        assert!(r.on_delack_timer(generation + 5).is_none());
        let ack = r.on_delack_timer(generation).unwrap();
        assert_eq!(ack.cum_ack, 1);
        // Timer is one-shot.
        assert!(r.on_delack_timer(generation).is_none());
    }

    #[test]
    fn out_of_order_generates_immediate_sack() {
        let mut r = TcpReceiver::new(true);
        r.on_data(&pkt(0), SimTime::ZERO);
        r.on_data(&pkt(1), SimTime::ZERO);
        // Packet 2 is missing; 3 and 4 arrive.
        let out3 = r.on_data(&pkt(3), SimTime::from_millis(3));
        let ack3 = out3.ack.expect("out-of-order data is ACKed immediately");
        assert_eq!(ack3.cum_ack, 2);
        assert_eq!(
            ack3.sack_blocks.as_slice(),
            [SackBlock { start: 3, end: 4 }]
        );
        let out4 = r.on_data(&pkt(4), SimTime::from_millis(4));
        assert_eq!(
            out4.ack.unwrap().sack_blocks.as_slice(),
            [SackBlock { start: 3, end: 5 }]
        );
        assert_eq!(r.ooo_packets(), 2);
        // The retransmitted packet 2 fills the gap; cum ack jumps to 5.
        let out2 = r.on_data(&pkt(2), SimTime::from_millis(10));
        let ack2 = out2.ack.expect("gap fill is ACKed immediately");
        assert_eq!(ack2.cum_ack, 5);
        assert!(ack2.sack_blocks.is_empty());
        assert_eq!(r.ooo_packets(), 0);
    }

    #[test]
    fn multiple_gaps_produce_multiple_sack_blocks_most_recent_first() {
        let mut r = TcpReceiver::new(false);
        r.on_data(&pkt(0), SimTime::ZERO);
        // Gaps at 1, 3, 5: receive 2, 4, 6.
        r.on_data(&pkt(2), SimTime::ZERO);
        r.on_data(&pkt(4), SimTime::ZERO);
        let out = r.on_data(&pkt(6), SimTime::ZERO);
        let ack = out.ack.unwrap();
        let blocks = &ack.sack_blocks;
        assert_eq!(blocks.len(), 3);
        assert_eq!(
            blocks[0],
            SackBlock { start: 6, end: 7 },
            "most recently updated first"
        );
        assert!(blocks.contains(&SackBlock { start: 2, end: 3 }));
        assert!(blocks.contains(&SackBlock { start: 4, end: 5 }));
    }

    #[test]
    fn sack_blocks_capped() {
        let mut r = TcpReceiver::new(false);
        // Six disjoint ranges: 1, 3, .., 11 received, the even ones missing.
        let mut out = ReceiverOutput::default();
        for seq in [1u64, 3, 5, 7, 9, 11] {
            out = r.on_data(&pkt(seq), SimTime::ZERO);
        }
        // The newest range first, then the lowest ones, four in all.
        let blocks: Vec<u64> = out
            .ack
            .unwrap()
            .sack_blocks
            .iter()
            .map(|b| b.start)
            .collect();
        assert_eq!(MAX_SACK_BLOCKS, 4);
        assert_eq!(blocks, [11, 1, 3, 5]);
    }

    #[test]
    fn duplicates_are_acked_immediately_and_counted() {
        let mut r = TcpReceiver::new(true);
        r.on_data(&pkt(0), SimTime::ZERO);
        r.on_data(&pkt(1), SimTime::ZERO);
        let out = r.on_data(&pkt(0), SimTime::from_millis(5));
        assert_eq!(out.ack.unwrap().cum_ack, 2);
        assert_eq!(r.duplicates(), 1);
        // Duplicate of an out-of-order packet.
        r.on_data(&pkt(5), SimTime::from_millis(6));
        let out = r.on_data(&pkt(5), SimTime::from_millis(7));
        assert!(out.ack.is_some());
        assert_eq!(r.duplicates(), 2);
    }

    #[test]
    fn ce_marks_are_echoed_exactly_once() {
        let mut r = TcpReceiver::new(false);
        let ce = |seq: u64| {
            let mut p = pkt(seq);
            p.ce = true;
            p
        };
        // Unmarked packet: no echo.
        let out = r.on_data(&pkt(0), SimTime::ZERO);
        assert_eq!(out.ack.unwrap().ece_marks, 0);
        // Marked packet: echoed on the very next ACK.
        let out = r.on_data(&ce(1), SimTime::ZERO);
        assert_eq!(out.ack.unwrap().ece_marks, 1);
        assert_eq!(r.ce_received(), 1);
        assert_eq!(r.ece_echoed(), 1);
        // Echo is one-shot: the following ACK carries nothing.
        let out = r.on_data(&pkt(2), SimTime::ZERO);
        assert_eq!(out.ack.unwrap().ece_marks, 0);
        // A marked duplicate still signals congestion.
        let out = r.on_data(&ce(1), SimTime::from_millis(1));
        assert_eq!(out.ack.unwrap().ece_marks, 1);
        assert_eq!(r.ce_received(), 2);
        assert_eq!(r.ece_echoed(), 2);
    }

    #[test]
    fn ce_marks_coalesce_under_delayed_acks() {
        let mut r = TcpReceiver::new(true);
        let ce = |seq: u64| {
            let mut p = pkt(seq);
            p.ce = true;
            p
        };
        // First marked in-order packet is held by the delayed-ACK timer...
        let out = r.on_data(&ce(0), SimTime::ZERO);
        assert!(out.ack.is_none());
        // ...and both marks ride the coalesced ACK.
        let out = r.on_data(&ce(1), SimTime::from_millis(1));
        let ack = out.ack.expect("second packet flushes the delayed ACK");
        assert_eq!(ack.ece_marks, 2);
        assert_eq!(r.ece_echoed(), 2);
        // A mark pending when the delack timer fires is echoed by it.
        let out = r.on_data(&ce(2), SimTime::from_millis(2));
        let (_, generation) = out.arm_delack.unwrap();
        let ack = r.on_delack_timer(generation).unwrap();
        assert_eq!(ack.ece_marks, 1);
        assert_eq!(r.ce_received(), 3);
        assert_eq!(r.ece_echoed(), 3);
    }

    #[test]
    fn gap_fill_merges_ranges() {
        let mut r = TcpReceiver::new(false);
        r.on_data(&pkt(0), SimTime::ZERO);
        r.on_data(&pkt(2), SimTime::ZERO);
        r.on_data(&pkt(4), SimTime::ZERO);
        // 3 arrives: ranges [2,3) and [4,5) must merge into [2,5).
        let out = r.on_data(&pkt(3), SimTime::ZERO);
        let ack = out.ack.unwrap();
        let blocks = &ack.sack_blocks;
        assert!(blocks.contains(&SackBlock { start: 2, end: 5 }));
        assert_eq!(r.ooo_packets(), 3);
    }
    /// Out-of-order range comparisons per data packet while a `window`-packet
    /// flight with `holes` evenly spaced drops arrives, every tenth survivor
    /// duplicated.
    fn visits_per_packet(window: u64, holes: u64) -> f64 {
        let mut r = TcpReceiver::new(false);
        let stride = window / holes;
        let mut packets = 0u64;
        crate::tcp::take_visits();
        for seq in (0..window).filter(|seq| seq % stride != 0) {
            for _ in 0..1 + u64::from(seq % 10 == 0) {
                r.on_data(&pkt(seq), SimTime::ZERO);
                packets += 1;
            }
        }
        assert_eq!(r.ooo_packets(), window - holes);
        assert_eq!(r.ooo_packets(), r.ooo_ranges.iter().map(|b| b.len()).sum());
        crate::tcp::take_visits() as f64 / packets as f64
    }

    #[test]
    fn per_packet_work_is_independent_of_hole_count() {
        // 8x the holes: the linear duplicate check + insertion scan this
        // replaced did ~8x the comparisons per packet; one binary search
        // pays log2(8) = 3 more.
        let small = visits_per_packet(256, 16);
        let large = visits_per_packet(2048, 128);
        assert!(
            large <= 2.0 * small,
            "per-packet range comparisons grew {small:.1} -> {large:.1}"
        );
        assert!(large < 10.0, "one binary search per packet: {large:.1}");
    }
}
