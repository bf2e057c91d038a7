//! The sending endpoint of the CCA flow.
//!
//! Owns the retransmission queue (per-packet [`Skb`]s), the SACK scoreboard,
//! loss detection (SACK-based and dup-ACK based), fast retransmit / recovery,
//! the RTO state machine with exponential backoff, Linux-style delivery-rate
//! sampling, and the plugged-in [`CongestionControl`] algorithm.
//!
//! The sender is deliberately written as a passive state machine: the
//! simulator polls it for transmissions ([`TcpSender::poll_send`]) and feeds
//! it ACKs and timer expirations. This keeps it trivially testable without a
//! network.
//!
//! ## Hot-path design
//!
//! The sender sits on the per-ACK critical path of every fuzzer evaluation,
//! so its data structures are chosen for that loop:
//!
//! * The retransmission queue is a dense `VecDeque<Skb>` indexed by
//!   `seq - cum_ack` — sequences are contiguous in `[cum_ack, next_seq)`
//!   because packets are sent in order and only removed from the front when
//!   cumulatively acknowledged. This replaces a `BTreeMap` (pointer-chasing,
//!   per-node allocation) with O(1) indexed access and cache-linear scans.
//! * `in_flight` and retransmit-pending counts are maintained
//!   incrementally instead of recomputed by scanning the queue.
//! * The SACK scoreboard is incremental: `sack_cache` holds exactly the
//!   SACKed sequences as sorted ranges (binary-searched; a repeated block
//!   costs one lookup), and dupthresh loss marking reads the third-highest
//!   SACKed sequence off its top and visits only the sequences between the
//!   previous threshold and the new one — per-ACK cost follows what the
//!   ACK newly covers, not the window size or the hole count.
//! * The congestion controller is a generic parameter with no default:
//!   campaigns use `ccfuzz-cca`'s enum-dispatched `CcaDispatch`, tests a
//!   concrete reference controller, so no ACK pays a virtual call.

use crate::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use crate::packet::{AckPacket, DataPacket};
use crate::stats::{TransportEvent, TransportRecord};
use crate::tcp::count_visit;
use crate::tcp::rtt::RttEstimator;
use crate::tcp::skb::Skb;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Number of SACKed packets above an un-SACKed packet that marks it lost
/// (the classic dupthresh of 3).
pub const LOSS_REORDER_THRESHOLD: u64 = 3;

/// Sender configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SenderConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Whether the sender processes SACK blocks.
    pub sack_enabled: bool,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout.
    pub max_rto: SimDuration,
    /// RTO before the first RTT sample.
    pub initial_rto: SimDuration,
    /// Initial congestion window (packets); also the floor applied on top of
    /// whatever the CCA requests is 1 packet.
    pub initial_cwnd: u64,
    /// Maximum packets the application will ever provide (bulk transfer:
    /// effectively unlimited).
    pub buffer_packets: u64,
    /// Record the transport event log. The fuzzer's inner loop turns this
    /// off: the log is only consumed by figure/timeline tooling, and
    /// appending per-ACK records would be the last remaining per-packet
    /// allocation on the hot path.
    pub record_log: bool,
    /// ECN negotiated: data packets go out ECT (markable at an AQM gateway)
    /// and echoed CE marks are fed to the congestion controller.
    pub ecn_enabled: bool,
}

impl SenderConfig {
    /// Paper-default sender parameters (1 s min RTO, SACK enabled).
    pub fn paper_default() -> Self {
        SenderConfig {
            mss: crate::packet::DEFAULT_MSS,
            sack_enabled: true,
            min_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            initial_cwnd: 10,
            buffer_packets: u64::MAX / 4,
            record_log: true,
            ecn_enabled: false,
        }
    }
}

/// Merges the non-empty `[start, end)` into a sorted list of disjoint,
/// non-adjacent ranges (the sender's SACK scoreboard).
fn insert_sack_range(cache: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    debug_assert!(start < end);
    // First range that overlaps or is adjacent to the new one.
    let i = cache.partition_point(|r| {
        count_visit();
        r.1 < start
    });
    // Absorb every range overlapping or adjacent to [start, end): the
    // first one is widened in place, the rest are removed.
    let mut j = i;
    while j < cache.len() && cache[j].0 <= end {
        count_visit();
        j += 1;
    }
    if j == i {
        cache.insert(i, (start, end));
    } else {
        cache[i] = (start.min(cache[i].0), end.max(cache[j - 1].1));
        cache.drain(i + 1..j);
    }
}

/// Result of polling the sender for a transmission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SendPoll {
    /// Transmit this packet now.
    Packet(DataPacket),
    /// Nothing may be sent before this time (pacing gate); poll again then.
    Wait(SimTime),
    /// The sender is window-limited or has nothing to send; poll again after
    /// the next ACK or timer.
    Blocked,
}

/// The sender state machine, generic over its (statically dispatched)
/// congestion controller.
pub struct TcpSender<C: CongestionControl> {
    cfg: SenderConfig,
    cc: C,

    /// Next never-sent sequence number.
    next_seq: u64,
    /// First unacknowledged sequence (snd_una).
    cum_ack: u64,
    /// Retransmission queue: every sent-but-not-cumulatively-acked packet,
    /// dense by sequence — `skbs[i]` is the SKB for `cum_ack + i`.
    skbs: VecDeque<Skb>,
    /// Packets currently outstanding (`outstanding == true`), maintained
    /// incrementally.
    outstanding_count: u64,
    /// Lost packets awaiting retransmission (`lost && !outstanding`),
    /// maintained incrementally (lets `poll_send` skip the retransmit scan).
    rtx_pending: u64,
    /// Every sequence below this has had its dupthresh verdict: no SKB
    /// below it is still a marking candidate (`!lost && !sacked &&
    /// transmissions == 1`). It is the highest dupthresh threshold (the
    /// third-highest SACKed sequence) a loss pass has processed; each pass
    /// visits only `[loss_floor, threshold)` and raises the floor.
    loss_floor: u64,
    /// Lowest index in `skbs` that can hold a retransmit-pending packet.
    /// The retransmit scan in `next_to_send` starts here instead of at the
    /// queue head; maintained on marks (min), transmissions (found index)
    /// and cumulative ACKs (shift left with the queue).
    rtx_search_from: usize,
    /// The SACK scoreboard: sorted, disjoint, non-adjacent ranges holding
    /// exactly the queued sequences that are SACKed (a SACKed packet never
    /// becomes un-SACKed while it remains in the queue, and the ranges are
    /// clipped on every cumulative advance). Receivers repeat their SACK
    /// blocks on every ACK; clipping each block against the scoreboard
    /// leaves only newly SACKed sequences to walk, and a block already
    /// inside one range — three of the four on almost every ACK — costs a
    /// single binary search.
    sack_cache: Vec<(u64, u64)>,

    // --- Delivery accounting (Linux tcp_rate.c style) ---
    /// Total packets delivered (cumulatively or selectively acknowledged).
    delivered: u64,
    /// Time of the most recent delivery.
    delivered_time: SimTime,
    /// Start of the current send window (for send_elapsed).
    first_sent_time: SimTime,
    /// Total packets ever marked lost.
    lost_total: u64,

    // --- RTT / RTO ---
    rtt: RttEstimator,
    rto_backoff: u32,
    rto_deadline: Option<SimTime>,
    rto_generation: u64,

    // --- Recovery state ---
    in_recovery: bool,
    /// When in recovery: exit once `cum_ack` reaches this sequence.
    recovery_high: u64,
    /// Dup-ACK counter used when SACK is disabled.
    dup_acks: u64,

    // --- Pacing ---
    earliest_next_send: SimTime,
    /// The last pacing rate's bits and the inter-packet gap it gives; the
    /// gap's float→integer rounding runs only when the rate changes.
    pace_rate_bits: u64,
    pace_gap: SimDuration,

    // --- Flow lifecycle ---
    started: bool,

    // --- Logging / counters ---
    log: Vec<TransportRecord>,
    transmissions: u64,
    retransmissions: u64,
    rto_count: u64,
    recovery_episodes: u64,
    /// CE echoes processed from arriving ACKs (ECN only).
    ece_acked: u64,
}

impl<C: CongestionControl> std::fmt::Debug for TcpSender<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("cc", &self.cc.name())
            .field("next_seq", &self.next_seq)
            .field("cum_ack", &self.cum_ack)
            .field("delivered", &self.delivered)
            .field("in_flight", &self.in_flight())
            .field("in_recovery", &self.in_recovery)
            .finish()
    }
}

impl<C: CongestionControl> TcpSender<C> {
    /// Creates a sender with the given configuration and congestion control.
    pub fn new(cfg: SenderConfig, mut cc: C) -> Self {
        cc.set_event_recording(cfg.record_log);
        TcpSender {
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto, cfg.initial_rto),
            cfg,
            cc,
            next_seq: 0,
            cum_ack: 0,
            skbs: VecDeque::new(),
            outstanding_count: 0,
            rtx_pending: 0,
            loss_floor: 0,
            rtx_search_from: 0,
            sack_cache: Vec::new(),
            delivered: 0,
            delivered_time: SimTime::ZERO,
            first_sent_time: SimTime::ZERO,
            lost_total: 0,
            rto_backoff: 0,
            rto_deadline: None,
            rto_generation: 0,
            in_recovery: false,
            recovery_high: 0,
            dup_acks: 0,
            earliest_next_send: SimTime::ZERO,
            // A zero rate never paces, so this key matches no real rate.
            pace_rate_bits: 0.0f64.to_bits(),
            pace_gap: SimDuration::ZERO,
            started: false,
            log: Vec::new(),
            transmissions: 0,
            retransmissions: 0,
            rto_count: 0,
            recovery_episodes: 0,
            ece_acked: 0,
        }
    }

    /// Reinitializes this sender in place for a fresh flow, keeping the
    /// retransmission queue, SACK-cache and log allocations. Equivalent to
    /// `*self = TcpSender::new(cfg, cc)` except that heap storage is
    /// recycled — a batch evaluator resets pooled senders between runs
    /// instead of reallocating them.
    pub fn reset_reusing(&mut self, cfg: SenderConfig, cc: C) {
        let mut fresh = TcpSender::new(cfg, cc);
        fresh.skbs = std::mem::take(&mut self.skbs);
        fresh.skbs.clear();
        fresh.sack_cache = std::mem::take(&mut self.sack_cache);
        fresh.sack_cache.clear();
        fresh.log = std::mem::take(&mut self.log);
        fresh.log.clear();
        *self = fresh;
    }

    // ----------------------------------------------------------------------
    // Accessors
    // ----------------------------------------------------------------------

    /// Packets currently outstanding in the network.
    pub fn in_flight(&self) -> u64 {
        self.outstanding_count
    }

    /// Total packets delivered (`tp->delivered`).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// First unacknowledged sequence.
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Next new sequence to be sent.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the sender is currently in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// The congestion control algorithm (for state inspection).
    pub fn cc(&self) -> &C {
        &self.cc
    }

    /// Current congestion window in packets (never below 1).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd().max(1)
    }

    /// Current RTO deadline and its generation, if a timer is armed.
    pub fn rto_deadline(&self) -> Option<(SimTime, u64)> {
        self.rto_deadline.map(|d| (d, self.rto_generation))
    }

    /// RTT estimator (read only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Total transmissions including retransmissions.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Retransmissions only.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Number of RTO expirations.
    pub fn rto_count(&self) -> u64 {
        self.rto_count
    }

    /// Number of fast-recovery episodes entered.
    pub fn recovery_episodes(&self) -> u64 {
        self.recovery_episodes
    }

    /// Total packets marked lost.
    pub fn lost_total(&self) -> u64 {
        self.lost_total
    }

    /// CE echoes processed from arriving ACKs.
    pub fn ece_acked(&self) -> u64 {
        self.ece_acked
    }

    /// Drains the transport records logged since the last call (the
    /// simulation moves them into its run log after every sender call).
    pub fn drain_log(&mut self) -> std::vec::Drain<'_, TransportRecord> {
        self.log.drain(..)
    }

    #[inline]
    fn log_event(&mut self, at: SimTime, event: TransportEvent) {
        if self.cfg.record_log {
            self.log.push(TransportRecord { at, event });
        }
    }

    /// SKB for `seq`, which must lie in `[cum_ack, next_seq)`.
    #[inline]
    fn skb_mut(&mut self, seq: u64) -> &mut Skb {
        let idx = (seq - self.cum_ack) as usize;
        &mut self.skbs[idx]
    }

    fn ctx(&self, now: SimTime) -> CcContext {
        CcContext {
            now,
            mss: self.cfg.mss,
            in_flight: self.outstanding_count,
            delivered: self.delivered,
            lost: self.lost_total,
            srtt: self.rtt.srtt(),
            last_rtt: self.rtt.latest(),
            min_rtt: self.rtt.min_rtt(),
            in_recovery: self.in_recovery,
        }
    }

    fn drain_cc_events(&mut self, now: SimTime) {
        if !self.cfg.record_log {
            // Still drain (and discard) so an algorithm that ignores the
            // recording hint cannot accumulate events unread all run long.
            self.cc.take_events();
            return;
        }
        for detail in self.cc.take_events() {
            self.log.push(TransportRecord {
                at: now,
                event: TransportEvent::Cc { detail },
            });
        }
    }

    // ----------------------------------------------------------------------
    // Flow start
    // ----------------------------------------------------------------------

    /// Starts the flow at `now`.
    pub fn on_flow_start(&mut self, now: SimTime) {
        if self.started {
            return;
        }
        self.started = true;
        self.delivered_time = now;
        self.first_sent_time = now;
        let ctx = self.ctx(now);
        self.cc.init(&ctx);
        self.drain_cc_events(now);
    }

    // ----------------------------------------------------------------------
    // Transmission path
    // ----------------------------------------------------------------------

    /// Sequence number of the next packet that would be (re)transmitted, or
    /// `None` if there is nothing to send.
    fn next_to_send(&self) -> Option<(u64, bool)> {
        // Retransmissions of lost packets take priority (lowest sequence
        // first); the scan is skipped entirely unless something is pending,
        // and starts at the maintained lower bound rather than the head.
        if self.rtx_pending > 0 {
            if let Some(pos) = self
                .skbs
                .range(self.rtx_search_from..)
                .position(|skb| skb.lost && !skb.sacked && !skb.outstanding)
            {
                let idx = self.rtx_search_from + pos;
                return Some((self.cum_ack + idx as u64, true));
            }
        }
        if self.next_seq < self.cfg.buffer_packets {
            return Some((self.next_seq, false));
        }
        None
    }

    /// Polls the sender for the next transmission at `now`.
    pub fn poll_send(&mut self, now: SimTime) -> SendPoll {
        if !self.started {
            return SendPoll::Blocked;
        }
        // Pacing gate.
        if self.cc.pacing_rate_bps().is_some() && now < self.earliest_next_send {
            return SendPoll::Wait(self.earliest_next_send);
        }
        // Window gate.
        if self.outstanding_count >= self.cwnd() {
            return SendPoll::Blocked;
        }
        let Some((seq, is_retransmission)) = self.next_to_send() else {
            return SendPoll::Blocked;
        };

        // Stamp connection-level rate-sampling state into the packet's SKB
        // (tcp_rate_skb_sent). When nothing is in flight, restart the send
        // window so send_elapsed doesn't span idle periods.
        if self.outstanding_count == 0 {
            self.first_sent_time = now;
            self.delivered_time = now;
        }
        let (delivered, delivered_time, first_sent_time) =
            (self.delivered, self.delivered_time, self.first_sent_time);

        if !is_retransmission && seq == self.cum_ack + self.skbs.len() as u64 {
            self.skbs.push_back(Skb::new(seq, self.cfg.mss));
        }
        let cum_ack = self.cum_ack;
        let skb = self.skb_mut(seq);
        let was_rtx_pending = skb.lost && !skb.sacked && !skb.outstanding;
        skb.stamp_transmission(now, delivered, delivered_time, first_sent_time, false);
        let delivered_stamp = skb.tx_delivered;
        self.outstanding_count += 1;
        if was_rtx_pending {
            self.rtx_pending -= 1;
            // This was the lowest pending index; the next pending one (if
            // any) lies strictly above it.
            self.rtx_search_from = (seq - cum_ack) as usize + 1;
        }

        self.transmissions += 1;
        if is_retransmission {
            self.retransmissions += 1;
        } else {
            debug_assert_eq!(seq, self.next_seq);
            self.next_seq += 1;
        }

        // Pacing: space the next transmission according to the CCA's rate.
        if let Some(rate_bps) = self.cc.pacing_rate_bps() {
            if rate_bps > 0.0 {
                if rate_bps.to_bits() != self.pace_rate_bits {
                    self.pace_rate_bits = rate_bps.to_bits();
                    self.pace_gap =
                        SimDuration::from_secs_f64(self.cfg.mss as f64 * 8.0 / rate_bps);
                }
                let base = self.earliest_next_send.max(now);
                self.earliest_next_send = base + self.pace_gap;
            }
        }

        // Arm the RTO if not already armed.
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }

        self.log_event(
            now,
            TransportEvent::Sent {
                seq,
                retransmission: is_retransmission,
                delivered_stamp,
            },
        );

        let mut pkt = DataPacket::cca(seq, self.cfg.mss, is_retransmission, now);
        pkt.ect = self.cfg.ecn_enabled;
        SendPoll::Packet(pkt)
    }

    // ----------------------------------------------------------------------
    // RTO management
    // ----------------------------------------------------------------------

    fn arm_rto(&mut self, now: SimTime) {
        let timeout = self.rtt.rto_backed_off(self.rto_backoff);
        self.rto_deadline = Some(now + timeout);
        self.rto_generation += 1;
    }

    fn disarm_rto(&mut self) {
        self.rto_deadline = None;
        self.rto_generation += 1;
    }

    /// Handles an RTO timer expiry for `generation` at `now`.
    ///
    /// Returns `true` if the timer was valid and a timeout was processed.
    pub fn on_rto_timer(&mut self, generation: u64, now: SimTime) -> bool {
        let valid = self.rto_deadline.is_some()
            && generation == self.rto_generation
            && self.rto_deadline.map(|d| now >= d).unwrap_or(false);
        if !valid {
            return false;
        }
        // Nothing outstanding and nothing queued: nothing to do.
        if self.skbs.is_empty() {
            self.disarm_rto();
            return false;
        }

        self.rto_count += 1;
        self.log_event(
            now,
            TransportEvent::RtoFired {
                backoff: self.rto_backoff,
            },
        );
        self.rto_backoff = (self.rto_backoff + 1).min(16);

        // tcp_enter_loss: every un-SACKed packet below next_seq is marked
        // lost and will be retransmitted, head first. Packets whose ACKs are
        // still in flight become *spurious* retransmissions — the trigger for
        // the paper's BBR finding.
        let mut newly_lost = 0u64;
        for skb in self.skbs.iter_mut() {
            if !skb.sacked && !skb.lost {
                skb.lost = true;
                skb.outstanding = false;
                newly_lost += 1;
            } else if skb.outstanding && !skb.sacked {
                skb.outstanding = false;
            }
        }
        // Every un-SACKed packet is now lost-and-pending; SACKed packets are
        // never outstanding.
        self.lost_total += newly_lost;
        self.rtx_pending += newly_lost;
        self.outstanding_count = 0;
        self.rtx_search_from = 0;
        // No dupthresh candidate is left anywhere in the queue.
        self.loss_floor = self.next_seq;
        if self.cfg.record_log {
            let lost_seqs: Vec<u64> = self.skbs.iter().filter(|s| s.lost).map(|s| s.seq).collect();
            for seq in lost_seqs {
                self.log_event(now, TransportEvent::MarkedLost { seq });
            }
        }

        // Leave fast recovery (RTO recovery supersedes it) and reset pacing
        // so the retransmission goes out immediately.
        self.in_recovery = false;
        self.recovery_high = self.next_seq;
        self.earliest_next_send = now;

        let ctx = self.ctx(now);
        self.cc.on_congestion(&ctx, CongestionSignal::Rto);
        self.drain_cc_events(now);

        // Re-arm with backoff for the retransmission we are about to send.
        self.arm_rto(now);
        true
    }

    // ----------------------------------------------------------------------
    // ACK path
    // ----------------------------------------------------------------------

    /// Processes an arriving ACK at `now`.
    pub fn on_ack(&mut self, ack: &AckPacket, now: SimTime) {
        let in_flight_before = self.outstanding_count;
        let prior_cum_ack = self.cum_ack;
        let mut newly_acked = 0u64;
        // The rate sample is taken from the newly acknowledged packet that
        // was transmitted most recently (largest tx_delivered), mirroring
        // tcp_rate_skb_delivered. `Skb` is `Copy`, so snapshotting the
        // candidate is a register move, not an allocation.
        let mut sample_skb: Option<Skb> = None;
        let mut rtt_candidate: Option<(SimTime, bool)> = None; // (last_tx, retransmitted)

        let consider_sample = |skb: &Skb, sample_skb: &mut Option<Skb>| {
            let better = match sample_skb {
                None => true,
                Some(cur) => {
                    skb.tx_delivered > cur.tx_delivered
                        || (skb.tx_delivered == cur.tx_delivered && skb.last_tx > cur.last_tx)
                }
            };
            if better {
                *sample_skb = Some(*skb);
            }
        };

        // --- Cumulative ACK ---
        // Clamp a (protocol-violating) ACK beyond the highest sent sequence:
        // the paired simulator receiver never produces one, but the sender
        // is public API and the dense `seq - cum_ack` indexing must not be
        // poisoned by an out-of-range cum_ack. Everything below reads the
        // clamped value, never `ack.cum_ack`.
        let cum_ack = ack.cum_ack.min(self.next_seq);
        let cum_ack_advanced = cum_ack.saturating_sub(prior_cum_ack);
        if cum_ack_advanced > 0 {
            while self.cum_ack < cum_ack {
                let Some(skb) = self.skbs.pop_front() else {
                    break;
                };
                self.rtx_search_from = self.rtx_search_from.saturating_sub(1);
                if skb.outstanding {
                    self.outstanding_count -= 1;
                }
                if !skb.sacked {
                    if skb.lost {
                        self.rtx_pending -= 1;
                    }
                    // Newly delivered by this cumulative ACK.
                    self.delivered += 1;
                    self.delivered_time = now;
                    newly_acked += 1;
                    consider_sample(&skb, &mut sample_skb);
                    // RTT sample per Karn's rule: only from never-retransmitted
                    // packets; take the newest.
                    if !skb.retransmitted() {
                        match rtt_candidate {
                            Some((t, _)) if t >= skb.last_tx => {}
                            _ => rtt_candidate = Some((skb.last_tx, false)),
                        }
                    }
                }
                self.cum_ack += 1;
            }
            self.cum_ack = cum_ack;
            self.dup_acks = 0;
            self.log_event(now, TransportEvent::CumAckAdvanced { cum_ack });
        }

        // --- SACK blocks ---
        let mut newly_sacked = 0u64;
        if self.cfg.sack_enabled {
            let queue_end = self.cum_ack + self.skbs.len() as u64;
            // Drop scoreboard ranges the cumulative ACK has passed (the
            // queue no longer holds those sequences) and clip the one it
            // landed inside.
            if cum_ack_advanced > 0 && !self.sack_cache.is_empty() {
                let passed = self.sack_cache.partition_point(|r| r.1 <= cum_ack);
                self.sack_cache.drain(..passed);
                if let Some(first) = self.sack_cache.first_mut() {
                    first.0 = first.0.max(cum_ack);
                }
            }
            for block in ack.sack_blocks.iter() {
                let start = block.start.max(self.cum_ack);
                let end = block.end.min(queue_end);
                if start >= end {
                    continue;
                }
                // First scoreboard range ending above `start`. When it holds
                // the whole block — a repeat of an earlier ACK's block —
                // nothing is newly SACKed and the scoreboard is unchanged.
                let mut cache_idx = self.sack_cache.partition_point(|r| {
                    count_visit();
                    r.1 <= start
                });
                if let Some(&(rs, re)) = self.sack_cache.get(cache_idx) {
                    if rs <= start && end <= re {
                        continue;
                    }
                }
                // Walk only the sub-ranges the scoreboard does not cover:
                // covered sequences are already SACKed.
                let mut cursor = start;
                while cursor < end {
                    // Skip scoreboard ranges entirely below the cursor.
                    while cache_idx < self.sack_cache.len()
                        && self.sack_cache[cache_idx].1 <= cursor
                    {
                        count_visit();
                        cache_idx += 1;
                    }
                    let (gap_end, resume) = match self.sack_cache.get(cache_idx) {
                        Some(&(rs, re)) if rs < end => (rs.min(end).max(cursor), re),
                        _ => (end, end),
                    };
                    for seq in cursor..gap_end {
                        count_visit();
                        let idx = (seq - self.cum_ack) as usize;
                        let skb = &mut self.skbs[idx];
                        debug_assert!(!skb.sacked, "scoreboard gap holds SACKed seq {seq}");
                        skb.sacked = true;
                        if skb.outstanding {
                            self.outstanding_count -= 1;
                        }
                        skb.outstanding = false;
                        let was_lost = skb.lost;
                        skb.lost = false;
                        newly_sacked += 1;
                        self.delivered += 1;
                        self.delivered_time = now;
                        newly_acked += 1;
                        let skb_snapshot = *skb;
                        consider_sample(&skb_snapshot, &mut sample_skb);
                        if !skb_snapshot.retransmitted() {
                            match rtt_candidate {
                                Some((t, _)) if t >= skb_snapshot.last_tx => {}
                                _ => rtt_candidate = Some((skb_snapshot.last_tx, false)),
                            }
                        }
                        if was_lost {
                            // The packet had been marked lost but the original
                            // copy arrived after all; undo the loss accounting.
                            self.lost_total = self.lost_total.saturating_sub(1);
                            self.rtx_pending -= 1;
                        }
                        self.log_event(now, TransportEvent::Sacked { seq });
                    }
                    cursor = resume.max(gap_end);
                }
                insert_sack_range(&mut self.sack_cache, start, end);
            }
        }

        // --- Dup-ACK counting (only meaningful when nothing new was acked) ---
        if cum_ack == prior_cum_ack && newly_acked == 0 && in_flight_before > 0 {
            self.dup_acks += 1;
        }

        // --- RTT / RTO updates ---
        if let Some((last_tx, _)) = rtt_candidate {
            let rtt = now.saturating_since(last_tx);
            if rtt > SimDuration::ZERO {
                self.rtt.on_sample(rtt);
            }
        }
        if cum_ack_advanced > 0 {
            // Progress: reset backoff and restart the timer.
            self.rto_backoff = 0;
        }
        if self.skbs.is_empty() {
            self.disarm_rto();
        } else if cum_ack_advanced > 0 {
            // RFC 6298: restart the timer when new data is *cumulatively*
            // acknowledged. Pure-SACK ACKs do not push the timer back, which
            // is what lets the RTO for a lost head (and its lost fast
            // retransmission) fire roughly min-RTO after the loss even though
            // SACKs keep arriving — the timing the paper's §4.1 scenario
            // depends on.
            self.arm_rto(now);
        }

        // --- Rate sample ---
        // Linux `tcp_rate_skb_delivered` re-anchors the send-window start
        // (`tp->first_tx_mstamp`) to the send time of the most recently ACKed
        // packet, so the next packets' send_elapsed measures just their own
        // send window rather than time since the connection started.
        if let Some(skb) = &sample_skb {
            if skb.last_tx > self.first_sent_time {
                self.first_sent_time = skb.last_tx;
            }
        }
        let rate_sample = sample_skb.map(|skb| {
            let send_elapsed = skb.last_tx.saturating_since(skb.tx_first_sent_time);
            let ack_elapsed = self.delivered_time.saturating_since(skb.tx_delivered_time);
            let interval = send_elapsed.max(ack_elapsed);
            let delivered_in_interval = self.delivered.saturating_sub(skb.tx_delivered);
            let delivery_rate_bps = if interval > SimDuration::ZERO {
                delivered_in_interval as f64 * self.cfg.mss as f64 * 8.0 / interval.as_secs_f64()
            } else {
                0.0
            };
            RateSample {
                delivered: self.delivered,
                prior_delivered: skb.tx_delivered,
                prior_delivered_time: skb.tx_delivered_time,
                send_elapsed,
                ack_elapsed,
                interval,
                delivered_in_interval,
                delivery_rate_bps,
                rtt: if skb.retransmitted() {
                    None
                } else {
                    Some(now.saturating_since(skb.last_tx))
                },
                newly_acked,
                cum_ack_advanced,
                is_retransmitted_sample: skb.retransmitted(),
                is_app_limited: skb.tx_app_limited,
                in_flight_before,
                now,
            }
        });

        // --- Loss detection ---
        let newly_lost = self.detect_losses(now, newly_sacked);

        // --- Recovery exit ---
        if self.in_recovery && self.cum_ack >= self.recovery_high {
            self.in_recovery = false;
            self.log_event(now, TransportEvent::ExitRecovery);
            let ctx = self.ctx(now);
            self.cc.on_exit_recovery(&ctx);
        }

        // --- Feed the congestion controller ---
        // ECN echoes first (mirroring Linux, where in_ack_event sees the
        // ECE flag before the cong_control hooks run): an algorithm that
        // windows its mark statistics (DCTCP) must receive this ACK's marks
        // before on_ack can close the observation window, or the marks
        // would be misattributed to the next window. Off-path when ECN was
        // never negotiated.
        if self.cfg.ecn_enabled && ack.ece_marks > 0 {
            self.ece_acked += ack.ece_marks;
            let ctx = self.ctx(now);
            self.cc.on_ecn(&ctx, ack.ece_marks);
        }
        if let Some(rs) = rate_sample {
            let ctx = self.ctx(now);
            self.cc.on_ack(&ctx, &rs);
        }
        if newly_lost > 0 {
            let new_episode = !self.in_recovery;
            if new_episode {
                self.in_recovery = true;
                self.recovery_high = self.next_seq;
                self.recovery_episodes += 1;
                self.log_event(now, TransportEvent::EnterRecovery);
            }
            let ctx = self.ctx(now);
            self.cc.on_congestion(
                &ctx,
                CongestionSignal::FastRetransmitLoss {
                    newly_lost,
                    new_episode,
                },
            );
        }
        self.drain_cc_events(now);
    }

    /// The dupthresh threshold: the [`LOSS_REORDER_THRESHOLD`]-th highest
    /// SACKed sequence, read off the top of the scoreboard. An un-SACKed
    /// packet has at least that many SACKed packets above it exactly when
    /// its sequence is below this. `None` while fewer are SACKed.
    fn dupthresh_seq(&self) -> Option<u64> {
        let mut need = LOSS_REORDER_THRESHOLD;
        for &(start, end) in self.sack_cache.iter().rev() {
            count_visit();
            let len = end - start;
            if len >= need {
                return Some(end - need);
            }
            need -= len;
        }
        None
    }

    /// SACK-based (and dup-ACK based) loss detection. Returns the number of
    /// packets newly marked lost.
    fn detect_losses(&mut self, now: SimTime, newly_sacked: u64) -> u64 {
        let mut newly_lost = 0u64;
        if self.cfg.sack_enabled {
            // A packet is deemed lost when at least LOSS_REORDER_THRESHOLD
            // packets with higher sequence numbers have been SACKed
            // (simplified RFC 6675), i.e. when it lies below
            // `dupthresh_seq`. Packets that have already been retransmitted
            // are exempt while their retransmission is outstanding: a lost
            // retransmission is recovered by the RTO, not by dupthresh
            // (otherwise every ACK would re-mark and re-send the same holes,
            // a retransmission storm real stacks avoid).
            //
            // Only `[loss_floor, threshold)` is visited. Every candidate
            // below an earlier threshold was marked by that pass; first
            // transmissions only append above every SACKed sequence; and an
            // SKB that stopped being a candidate (SACKed, marked,
            // retransmitted) never becomes one again — so nothing below the
            // floor is markable, and the threshold itself only moves when a
            // SACK flag is set (an ACK that SACKed nothing new has nothing
            // to mark).
            if newly_sacked == 0 {
                return 0;
            }
            let Some(threshold) = self.dupthresh_seq() else {
                return 0;
            };
            let from = self.loss_floor.max(self.cum_ack);
            if threshold <= from {
                return 0;
            }
            self.loss_floor = threshold;
            let lo = (from - self.cum_ack) as usize;
            let hi = (threshold - self.cum_ack) as usize;
            let mut marked = 0u64;
            for (idx, skb) in self.skbs.range_mut(lo..hi).enumerate() {
                count_visit();
                if skb.sacked || skb.lost || skb.transmissions != 1 {
                    continue;
                }
                skb.lost = true;
                if skb.outstanding {
                    self.outstanding_count -= 1;
                }
                skb.outstanding = false;
                if marked == 0 {
                    self.rtx_search_from = self.rtx_search_from.min(lo + idx);
                }
                marked += 1;
                if self.cfg.record_log {
                    self.log.push(TransportRecord {
                        at: now,
                        event: TransportEvent::MarkedLost { seq: skb.seq },
                    });
                }
            }
            self.lost_total += marked;
            self.rtx_pending += marked;
            newly_lost += marked;
        } else if self.dup_acks >= LOSS_REORDER_THRESHOLD {
            // Classic fast retransmit: mark the head lost once per dup-ACK burst.
            if let Some(skb) = self.skbs.front_mut() {
                if !skb.lost && !skb.sacked && skb.transmissions > 0 {
                    skb.lost = true;
                    if skb.outstanding {
                        self.outstanding_count -= 1;
                    }
                    skb.outstanding = false;
                    self.lost_total += 1;
                    self.rtx_pending += 1;
                    self.rtx_search_from = 0;
                    newly_lost += 1;
                    self.log_event(now, TransportEvent::MarkedLost { seq: self.cum_ack });
                }
            }
            self.dup_acks = 0;
        }
        newly_lost
    }

    /// Builds the summary statistics for this sender.
    pub fn summary(&self) -> crate::stats::FlowSummary {
        crate::stats::FlowSummary {
            delivered_packets: self.delivered,
            delivered_bytes: self.delivered * self.cfg.mss as u64,
            transmissions: self.transmissions,
            retransmissions: self.retransmissions,
            marked_lost: self.lost_total,
            queue_drops: 0, // filled in by the simulator
            rto_count: self.rto_count,
            recovery_episodes: self.recovery_episodes,
            final_srtt_us: self.rtt.srtt().map(|d| d.as_micros()).unwrap_or(0),
            min_rtt_us: self.rtt.min_rtt().map(|d| d.as_micros()).unwrap_or(0),
            highest_sent: self.next_seq,
            final_cum_ack: self.cum_ack,
            ce_marked: 0,   // filled in by the simulator
            ce_received: 0, // filled in by the simulator
            ece_echoed: 0,  // filled in by the simulator
            ece_acked: self.ece_acked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::reference_cc::{FixedWindowCc, MiniAimdCc};
    use crate::packet::{SackBlock, SackList};

    fn sender_with_window(window: u64) -> TcpSender<FixedWindowCc> {
        let mut s = TcpSender::new(SenderConfig::paper_default(), FixedWindowCc::new(window));
        s.on_flow_start(SimTime::ZERO);
        s
    }

    fn ack(cum: u64, blocks: Vec<SackBlock>, now: SimTime) -> AckPacket {
        AckPacket {
            cum_ack: cum,
            sack_blocks: blocks.into_iter().collect::<SackList>(),
            acked_now: 1,
            generated_at: now,
            echo_sent_at: now,
            for_seq: cum.saturating_sub(1),
            for_retransmission: false,
            ece_marks: 0,
        }
    }

    fn drain_packets<C: CongestionControl>(s: &mut TcpSender<C>, now: SimTime) -> Vec<DataPacket> {
        let mut out = Vec::new();
        while let SendPoll::Packet(p) = s.poll_send(now) {
            out.push(p);
        }
        out
    }

    #[test]
    fn sends_up_to_cwnd_then_blocks() {
        let mut s = sender_with_window(4);
        let pkts = drain_packets(&mut s, SimTime::ZERO);
        assert_eq!(pkts.len(), 4);
        assert_eq!(
            pkts.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(s.in_flight(), 4);
        assert_eq!(s.poll_send(SimTime::ZERO), SendPoll::Blocked);
        assert!(
            s.rto_deadline().is_some(),
            "RTO armed after first transmission"
        );
    }

    #[test]
    fn does_not_send_before_flow_start() {
        let mut s = TcpSender::new(SenderConfig::paper_default(), FixedWindowCc::new(4));
        assert_eq!(s.poll_send(SimTime::ZERO), SendPoll::Blocked);
    }

    #[test]
    fn cumulative_ack_frees_window_and_updates_delivery() {
        let mut s = sender_with_window(4);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(2, vec![], now), now);
        assert_eq!(s.cum_ack(), 2);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.in_flight(), 2);
        // Two more packets may now be sent.
        let pkts = drain_packets(&mut s, now);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].seq, 4);
    }

    #[test]
    fn rtt_estimated_from_acks() {
        let mut s = sender_with_window(2);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(1, vec![], now), now);
        assert_eq!(s.rtt().latest(), Some(SimDuration::from_millis(40)));
        assert_eq!(s.rtt().srtt(), Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn sack_marks_packets_and_detects_loss_after_three() {
        let mut s = sender_with_window(10);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        // Packet 0 missing; 1, 2, 3 SACKed one at a time.
        s.on_ack(&ack(0, vec![SackBlock { start: 1, end: 2 }], now), now);
        assert_eq!(s.lost_total(), 0);
        s.on_ack(&ack(0, vec![SackBlock { start: 1, end: 3 }], now), now);
        assert_eq!(s.lost_total(), 0);
        s.on_ack(&ack(0, vec![SackBlock { start: 1, end: 4 }], now), now);
        assert_eq!(
            s.lost_total(),
            1,
            "3 SACKed packets above seq 0 mark it lost"
        );
        assert!(s.in_recovery());
        assert_eq!(s.delivered(), 3);
        // The retransmission goes out next.
        let next = drain_packets(&mut s, now);
        assert!(!next.is_empty());
        assert_eq!(next[0].seq, 0);
        assert!(next[0].is_retransmission);
        assert_eq!(s.retransmissions(), 1);
    }

    #[test]
    fn recovery_exits_when_cum_ack_passes_recovery_high() {
        let mut s = TcpSender::new(SenderConfig::paper_default(), MiniAimdCc::new(10));
        s.on_flow_start(SimTime::ZERO);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(0, vec![SackBlock { start: 1, end: 5 }], now), now);
        assert!(s.in_recovery());
        let recovery_high = s.next_seq();
        // Retransmit and then cumulative ACK beyond recovery_high.
        drain_packets(&mut s, now);
        let later = SimTime::from_millis(120);
        s.on_ack(&ack(recovery_high, vec![], later), later);
        assert!(
            !s.in_recovery(),
            "recovery exits once cum_ack reaches recovery point"
        );
    }

    #[test]
    fn dup_ack_fast_retransmit_without_sack() {
        let mut cfg = SenderConfig::paper_default();
        cfg.sack_enabled = false;
        let mut s = TcpSender::new(cfg, FixedWindowCc::new(10));
        s.on_flow_start(SimTime::ZERO);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        // First ACK advances to 1; then three duplicate ACKs for 1.
        s.on_ack(&ack(1, vec![], now), now);
        for _ in 0..3 {
            s.on_ack(&ack(1, vec![], now), now);
        }
        assert_eq!(s.lost_total(), 1);
        let pkts = drain_packets(&mut s, now);
        assert_eq!(pkts[0].seq, 1);
        assert!(pkts[0].is_retransmission);
    }

    #[test]
    fn rto_marks_everything_lost_and_retransmits_head_first() {
        let mut s = sender_with_window(5);
        drain_packets(&mut s, SimTime::ZERO);
        let (deadline, generation) = s.rto_deadline().unwrap();
        assert_eq!(
            deadline,
            SimTime::from_secs_f64(1.0),
            "initial RTO is 1s (min-RTO)"
        );
        assert!(s.on_rto_timer(generation, deadline));
        assert_eq!(s.rto_count(), 1);
        assert_eq!(s.lost_total(), 5);
        assert_eq!(s.in_flight(), 0, "nothing considered in flight after RTO");
        let pkts = drain_packets(&mut s, deadline);
        assert_eq!(pkts[0].seq, 0, "head retransmitted first");
        assert!(pkts[0].is_retransmission);
        // Stale generation is ignored.
        assert!(!s.on_rto_timer(generation, deadline + SimDuration::from_secs(5)));
    }

    #[test]
    fn rto_backoff_doubles_deadline() {
        let mut s = sender_with_window(1);
        drain_packets(&mut s, SimTime::ZERO);
        let (d1, g1) = s.rto_deadline().unwrap();
        assert!(s.on_rto_timer(g1, d1));
        // After the retransmission the timer uses the backed-off RTO (2s).
        drain_packets(&mut s, d1);
        let (d2, g2) = s.rto_deadline().unwrap();
        assert!(d2.saturating_since(d1) >= SimDuration::from_secs(2));
        assert!(s.on_rto_timer(g2, d2));
        drain_packets(&mut s, d2);
        let (d3, _) = s.rto_deadline().unwrap();
        assert!(d3.saturating_since(d2) >= SimDuration::from_secs(4));
    }

    #[test]
    fn spurious_retransmission_restamps_prior_delivered() {
        // Reproduces the core mechanism of the paper's §4.1 finding at the
        // sender level: after an RTO, a packet whose original copy was
        // actually delivered is retransmitted; the retransmission refreshes
        // tx_delivered, so the SACK that then arrives yields a rate sample
        // with a large prior_delivered.
        let mut s = sender_with_window(10);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        // Packets 1..8 SACKed (packet 0 lost): delivered = 8.
        s.on_ack(&ack(0, vec![SackBlock { start: 1, end: 9 }], now), now);
        assert_eq!(s.delivered(), 8);
        // RTO fires (the retransmission of 0 was also lost, say).
        let (deadline, generation) = s.rto_deadline().unwrap();
        assert!(s.on_rto_timer(generation, deadline.max(now)));
        // Head (0) and then 9 (never SACKed) get retransmitted; 9's original
        // SACK is still "in the network".
        let pkts = drain_packets(&mut s, deadline);
        assert!(
            pkts.iter().any(|p| p.seq == 9 && p.is_retransmission),
            "packet 9 spuriously retransmitted after RTO: {pkts:?}"
        );
        // Now the SACK for the *original* transmission of 9 arrives.
        let later = deadline + SimDuration::from_millis(5);
        s.on_ack(&ack(0, vec![SackBlock { start: 9, end: 10 }], later), later);
        // The rate sample's prior_delivered must reflect the freshly stamped
        // (post-RTO) value, not the value at 9's original transmission (0).
        let stamped: Vec<u64> = s
            .drain_log()
            .filter_map(|r| match r.event {
                TransportEvent::Sent {
                    seq: 9,
                    retransmission: true,
                    delivered_stamp,
                } => Some(delivered_stamp),
                _ => None,
            })
            .collect();
        assert_eq!(
            stamped,
            vec![8],
            "spurious retransmission stamped with current delivered"
        );
    }

    #[test]
    fn sacked_then_cum_acked_not_double_counted() {
        let mut s = sender_with_window(5);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(0, vec![SackBlock { start: 1, end: 3 }], now), now);
        assert_eq!(s.delivered(), 2);
        // Cumulative ACK now covers 0..3; only packet 0 is newly delivered.
        let later = SimTime::from_millis(45);
        s.on_ack(&ack(3, vec![], later), later);
        assert_eq!(s.delivered(), 3);
        assert_eq!(s.cum_ack(), 3);
    }

    #[test]
    fn rto_disarmed_when_everything_acked() {
        let mut s = sender_with_window(2);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(2, vec![], now), now);
        assert!(
            s.rto_deadline().is_none(),
            "no data outstanding, no RTO armed"
        );
    }

    #[test]
    fn pacing_gate_respected() {
        #[derive(Debug)]
        struct PacedCc;
        impl CongestionControl for PacedCc {
            fn name(&self) -> &'static str {
                "paced"
            }
            fn on_ack(&mut self, _: &CcContext, _: &RateSample) {}
            fn on_congestion(&mut self, _: &CcContext, _: CongestionSignal) {}
            fn cwnd(&self) -> u64 {
                100
            }
            fn pacing_rate_bps(&self) -> Option<f64> {
                Some(1_448.0 * 8.0 * 100.0) // 100 packets per second
            }
        }
        let mut s = TcpSender::new(SenderConfig::paper_default(), PacedCc);
        s.on_flow_start(SimTime::ZERO);
        // First packet goes out immediately; second must wait ~10ms.
        assert!(matches!(s.poll_send(SimTime::ZERO), SendPoll::Packet(_)));
        match s.poll_send(SimTime::ZERO) {
            SendPoll::Wait(t) => assert_eq!(t.as_millis(), 10),
            other => panic!("expected pacing wait, got {other:?}"),
        }
        // At the pacing deadline the next packet is released.
        assert!(matches!(
            s.poll_send(SimTime::from_millis(10)),
            SendPoll::Packet(_)
        ));
    }

    #[test]
    fn memoized_pacing_gap_follows_every_rate_change() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        /// Paces at whatever rate the test last stored.
        #[derive(Debug)]
        struct SteeredCc(Arc<AtomicU64>);
        impl CongestionControl for SteeredCc {
            fn name(&self) -> &'static str {
                "steered"
            }
            fn on_ack(&mut self, _: &CcContext, _: &RateSample) {}
            fn on_congestion(&mut self, _: &CcContext, _: CongestionSignal) {}
            fn cwnd(&self) -> u64 {
                u64::MAX / 2
            }
            fn pacing_rate_bps(&self) -> Option<f64> {
                Some(f64::from_bits(self.0.load(Ordering::Relaxed)))
            }
        }
        let rate = Arc::new(AtomicU64::new(0));
        let cfg = SenderConfig::paper_default();
        let mut s = TcpSender::new(cfg, SteeredCc(Arc::clone(&rate)));
        s.on_flow_start(SimTime::ZERO);
        // Repeats, alternations, a zero rate (never paces) and random rates.
        let fixed = [12e6, 12e6, 0.7e6, 12e6, 0.0, 12e6, 33.3e6, 1_000.0, 1_000.0];
        let mut rng = crate::rng::SimRng::new(500);
        let mut now = SimTime::ZERO;
        let mut expected = SimTime::ZERO;
        for i in 0..4_000 {
            let r = if i % 2 == 0 {
                fixed[(i / 2) % fixed.len()]
            } else {
                rng.gen_range_f64(1e3, 1e9)
            };
            rate.store(r.to_bits(), Ordering::Relaxed);
            assert!(matches!(s.poll_send(now), SendPoll::Packet(_)), "send {i}");
            if r > 0.0 {
                // The gap as computed before it was memoized.
                let gap = SimDuration::from_secs_f64(cfg.mss as f64 * 8.0 / r);
                expected = expected.max(now) + gap;
            }
            assert_eq!(s.earliest_next_send, expected, "send {i} at {r} bps");
            // Sometimes send late, so the `max(now)` base is exercised too.
            now = expected + SimDuration::from_nanos(rng.gen_range_u64(0, 3) * 1_000);
        }
    }

    #[test]
    fn summary_reflects_counters() {
        let mut s = sender_with_window(3);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(3, vec![], now), now);
        let summary = s.summary();
        assert_eq!(summary.delivered_packets, 3);
        assert_eq!(summary.transmissions, 3);
        assert_eq!(summary.retransmissions, 0);
        assert_eq!(summary.highest_sent, 3);
        assert_eq!(summary.final_cum_ack, 3);
        assert_eq!(summary.min_rtt_us, 40_000);
    }

    #[test]
    fn log_recording_can_be_disabled() {
        let mut cfg = SenderConfig::paper_default();
        cfg.record_log = false;
        let mut s = TcpSender::new(cfg, FixedWindowCc::new(4));
        s.on_flow_start(SimTime::ZERO);
        drain_packets(&mut s, SimTime::ZERO);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(2, vec![], now), now);
        assert_eq!(s.drain_log().count(), 0, "no log entries when disabled");
        // Counters are unaffected by the logging switch.
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.transmissions(), 4);
    }

    #[test]
    fn ack_beyond_highest_sent_is_clamped() {
        // A protocol-violating cumulative ACK above next_seq must not
        // poison the dense retransmission-queue indexing (the old BTreeMap
        // implementation tolerated it; the dense queue must too) — and the
        // clamp applies to everything derived from it: the advance reported
        // to the CCA, the log record and the "progress" test behind the RTO
        // backoff reset.
        #[derive(Debug, Default)]
        struct AdvanceProbe {
            advances: Vec<u64>,
        }
        impl CongestionControl for AdvanceProbe {
            fn name(&self) -> &'static str {
                "advance-probe"
            }
            fn on_ack(&mut self, _: &CcContext, rs: &RateSample) {
                self.advances.push(rs.cum_ack_advanced);
            }
            fn on_congestion(&mut self, _: &CcContext, _: CongestionSignal) {}
            fn cwnd(&self) -> u64 {
                4
            }
        }
        let cum_ack_records = |s: &mut TcpSender<AdvanceProbe>| -> Vec<u64> {
            s.drain_log()
                .filter_map(|r| match r.event {
                    TransportEvent::CumAckAdvanced { cum_ack } => Some(cum_ack),
                    _ => None,
                })
                .collect()
        };
        let mut s = TcpSender::new(SenderConfig::paper_default(), AdvanceProbe::default());
        s.on_flow_start(SimTime::ZERO);
        drain_packets(&mut s, SimTime::ZERO);
        // Back the timer off once so the reset below is visible.
        let (deadline, generation) = s.rto_deadline().unwrap();
        assert!(s.on_rto_timer(generation, deadline));
        assert_eq!(s.rto_backoff, 1);
        let now = deadline + SimDuration::from_millis(40);
        s.on_ack(&ack(100, vec![], now), now);
        assert_eq!(s.cum_ack(), 4, "clamped to highest sent");
        assert_eq!(s.delivered(), 4);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.cc().advances, vec![4], "the CCA sees the clamped advance");
        assert_eq!(cum_ack_records(&mut s), vec![4], "so does the log");
        assert_eq!(s.rto_backoff, 0, "four packets acknowledged is progress");

        // The same bogus ACK again acknowledges nothing: no advance record,
        // no rate sample, no dup-ACK, no timer.
        s.on_ack(&ack(100, vec![], now), now);
        assert_eq!(s.cum_ack(), 4);
        assert_eq!(s.cc().advances, vec![4]);
        assert!(cum_ack_records(&mut s).is_empty(), "nothing advanced");
        assert_eq!(s.dup_acks, 0);
        assert!(s.rto_deadline().is_none());

        // The sender keeps working: new packets pick up from next_seq.
        let pkts = drain_packets(&mut s, now);
        assert_eq!(pkts.first().map(|p| p.seq), Some(4));
    }

    #[test]
    fn maintained_counters_match_queue_scan() {
        // Drive the sender through sends, SACKs, losses and an RTO, checking
        // the incrementally maintained counters against a full scan at every
        // step (the scan was the previous implementation's source of truth).
        let mut s = sender_with_window(12);
        let check = |s: &TcpSender<FixedWindowCc>| {
            let outstanding = s.skbs.iter().filter(|k| k.outstanding).count() as u64;
            let pending = s
                .skbs
                .iter()
                .filter(|k| k.lost && !k.sacked && !k.outstanding)
                .count() as u64;
            assert_eq!(s.outstanding_count, outstanding, "outstanding");
            assert_eq!(s.rtx_pending, pending, "rtx pending");
            // No dupthresh candidate may hide below the loss floor.
            for k in s.skbs.iter().filter(|k| k.seq < s.loss_floor) {
                assert!(
                    k.lost || k.sacked || k.transmissions != 1,
                    "candidate seq {} below floor {}",
                    k.seq,
                    s.loss_floor
                );
            }
            // No retransmit-pending SKB may hide below the scan hint.
            let first_pending = s
                .skbs
                .iter()
                .position(|k| k.lost && !k.sacked && !k.outstanding);
            if let Some(idx) = first_pending {
                assert!(
                    s.rtx_search_from <= idx,
                    "rtx hint {} skips pending at {idx}",
                    s.rtx_search_from
                );
            }
            // The scoreboard holds exactly the SACKed sequences, as
            // sorted non-adjacent ranges inside the queue.
            let from_flags: Vec<u64> = s.skbs.iter().filter(|k| k.sacked).map(|k| k.seq).collect();
            let from_ranges: Vec<u64> = s.sack_cache.iter().flat_map(|&(rs, re)| rs..re).collect();
            assert_eq!(from_ranges, from_flags, "scoreboard vs SACK flags");
            assert!(s.sack_cache.windows(2).all(|w| w[0].1 < w[1].0));
        };
        drain_packets(&mut s, SimTime::ZERO);
        check(&s);
        let now = SimTime::from_millis(40);
        s.on_ack(&ack(2, vec![SackBlock { start: 5, end: 9 }], now), now);
        check(&s);
        s.on_ack(&ack(2, vec![SackBlock { start: 5, end: 11 }], now), now);
        check(&s);
        drain_packets(&mut s, now);
        check(&s);
        let (deadline, generation) = s.rto_deadline().unwrap();
        s.on_rto_timer(generation, deadline);
        check(&s);
        drain_packets(&mut s, deadline);
        check(&s);
        let later = deadline + SimDuration::from_millis(50);
        s.on_ack(&ack(9, vec![], later), later);
        check(&s);
    }
    /// Scoreboard work (SKBs touched plus scoreboard ranges compared) per
    /// ACK over one loss episode: a `window`-packet flight with `holes`
    /// evenly spaced drops is ACKed by a real receiver, then the
    /// retransmissions fill the holes lowest first.
    fn visits_per_ack(window: u64, holes: u64) -> f64 {
        use crate::tcp::receiver::{ReceiverConfig, TcpReceiver};
        use crate::tcp::take_visits;
        let mut cfg = SenderConfig::paper_default();
        cfg.record_log = false;
        let mut s = TcpSender::new(cfg, FixedWindowCc::new(window));
        s.on_flow_start(SimTime::ZERO);
        let mut r = TcpReceiver::new(ReceiverConfig {
            delayed_ack: false,
            ..ReceiverConfig::paper_default()
        });
        let stride = window / holes;
        let now = SimTime::from_millis(40);
        let (mut acks, mut visits) = (0u64, 0u64);
        let mut flight = drain_packets(&mut s, SimTime::ZERO);
        flight.retain(|p| p.seq % stride != 0);
        // Popped from the back: lowest sequence first.
        flight.reverse();
        // First the surviving originals, then — once — the retransmissions
        // they triggered (the window is still full of SACKed packets, so
        // each filled hole releases the next retransmission).
        while let Some(pkt) = flight.pop() {
            if let Some(ack) = r.on_data(&pkt, now).ack {
                // The receiver's own share of the counter is pinned by its
                // test; only the sender's is measured here.
                take_visits();
                s.on_ack(&ack, now);
                visits += take_visits();
                acks += 1;
            }
            if flight.is_empty() {
                flight = drain_packets(&mut s, now);
                flight.retain(|p| p.is_retransmission);
                flight.reverse();
            }
        }
        assert_eq!(s.lost_total(), holes, "every hole was marked exactly once");
        assert_eq!(s.cum_ack(), window, "and every one was repaired");
        visits as f64 / acks as f64
    }

    #[test]
    fn per_ack_work_is_independent_of_window_and_hole_count() {
        // 8x the window and 8x the holes: the scanning scoreboard this
        // replaced did ~8x the work per ACK; the incremental one may only
        // pay the binary searches' extra log2(8) = 3 comparisons.
        let small = visits_per_ack(256, 16);
        let large = visits_per_ack(2048, 128);
        assert!(
            large <= 2.0 * small,
            "per-ACK scoreboard work grew {small:.1} -> {large:.1}"
        );
        assert!(
            large < 48.0,
            "per-ACK work is a few dozen steps: {large:.1}"
        );
    }
}
