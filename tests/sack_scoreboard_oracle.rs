//! Independent oracle for the SACK scoreboards on both endpoints.
//!
//! `TcpSender` and `TcpReceiver` keep their scoreboards incrementally
//! (binary-searched range lists, a dupthresh threshold read off the top of
//! the SACKed set, a loss floor, running counters). This file re-states
//! what those structures must compute in the most naive way available —
//! a `BTreeMap<u64, flags>` whose "SACKed above" count is recomputed by a
//! full scan on every ACK, and a `BTreeSet<u64>` of received sequences —
//! and drives real and reference endpoints in lockstep through random
//! interleavings of sends, drops, reordering, duplicates, forged ACKs
//! (repeated / overlapping / inverted / out-of-range SACK blocks, stale and
//! beyond-the-window cumulative ACKs), RTO and delayed-ACK timer fires,
//! with and without SACK. After every step the counters, every packet
//! `poll_send` hands out, every emitted `AckPacket` (blocks and their order
//! included) and the full transport log must be equal.
//!
//! Run with `CCFUZZ_PROPTEST_CASES=1000` (the CI property job does) for the
//! raised-case-count sweep; the vendored proptest derives every case's seed
//! from the test name, so runs are fully reproducible.

use cc_fuzz::netsim::cc::reference_cc::{FixedWindowCc, MiniAimdCc};
use cc_fuzz::netsim::cc::CongestionControl;
use cc_fuzz::netsim::packet::{AckPacket, DataPacket, SackBlock, SackList};
use cc_fuzz::netsim::stats::{TransportEvent, TransportRecord};
use cc_fuzz::netsim::tcp::{ReceiverConfig, SendPoll, SenderConfig, TcpReceiver, TcpSender};
use cc_fuzz::netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The classic dupthresh, restated rather than imported: this many SACKed
/// packets above an un-SACKed one (or this many duplicate ACKs) mark it lost.
const DUPTHRESH: u64 = 3;

fn cases(default: u32) -> ProptestConfig {
    let n = std::env::var("CCFUZZ_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(n)
}

// ---------------------------------------------------------------------------
// Reference sender: a map of flags, rescanned from scratch on every ACK.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct Flags {
    sacked: bool,
    lost: bool,
    outstanding: bool,
    transmissions: u32,
}

#[derive(Default)]
struct RefSender {
    sack_enabled: bool,
    buffer_packets: u64,
    queue: BTreeMap<u64, Flags>,
    next_seq: u64,
    cum_ack: u64,
    delivered: u64,
    lost_total: u64,
    retransmissions: u64,
    rto_backoff: u32,
    dup_acks: u64,
    in_recovery: bool,
    recovery_high: u64,
    log: Vec<TransportRecord>,
}

impl RefSender {
    fn in_flight(&self) -> u64 {
        self.queue.values().filter(|f| f.outstanding).count() as u64
    }

    fn record(&mut self, at: SimTime, event: TransportEvent) {
        self.log.push(TransportRecord { at, event });
    }

    /// The packet the sender must hand out next under window `cwnd`.
    fn poll_send(&mut self, now: SimTime, cwnd: u64) -> Option<(u64, bool)> {
        if self.in_flight() >= cwnd {
            return None;
        }
        let pending = self
            .queue
            .iter()
            .find(|(_, f)| f.lost && !f.sacked && !f.outstanding)
            .map(|(&seq, _)| seq);
        let (seq, retransmission) = match pending {
            Some(seq) => (seq, true),
            None if self.next_seq < self.buffer_packets => (self.next_seq, false),
            None => return None,
        };
        let flags = self.queue.entry(seq).or_default();
        flags.outstanding = true;
        flags.lost = false; // a retransmission in flight is no longer "lost"
        flags.transmissions += 1;
        if retransmission {
            self.retransmissions += 1;
        } else {
            self.next_seq += 1;
        }
        let delivered_stamp = self.delivered;
        self.record(
            now,
            TransportEvent::Sent {
                seq,
                retransmission,
                delivered_stamp,
            },
        );
        Some((seq, retransmission))
    }

    fn on_ack(&mut self, ack: &AckPacket, now: SimTime) {
        let in_flight_before = self.in_flight();
        let prior = self.cum_ack;
        let mut newly_acked = 0u64;
        let cum = ack.cum_ack.min(self.next_seq);
        if cum > prior {
            let kept = self.queue.split_off(&cum);
            let acked = std::mem::replace(&mut self.queue, kept);
            newly_acked += acked.values().filter(|f| !f.sacked).count() as u64;
            self.cum_ack = cum;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            self.record(now, TransportEvent::CumAckAdvanced { cum_ack: cum });
        }
        if self.sack_enabled {
            for block in ack.sack_blocks.iter() {
                for seq in block.start.max(self.cum_ack)..block.end.min(self.next_seq) {
                    let flags = self.queue.get_mut(&seq).expect("queue is dense");
                    if flags.sacked {
                        continue;
                    }
                    flags.sacked = true;
                    flags.outstanding = false;
                    if std::mem::take(&mut flags.lost) {
                        self.lost_total -= 1;
                    }
                    newly_acked += 1;
                    self.record(now, TransportEvent::Sacked { seq });
                }
            }
        }
        self.delivered += newly_acked;
        if cum == prior && newly_acked == 0 && in_flight_before > 0 {
            self.dup_acks += 1;
        }

        // Loss detection, the slow way: a pass over the whole queue on every
        // ACK, counting the SACKed packets above each one.
        let mut newly_lost = Vec::new();
        if self.sack_enabled {
            let mut sacked_above = 0u64;
            for (&seq, flags) in self.queue.iter().rev() {
                if flags.sacked {
                    sacked_above += 1;
                } else if !flags.lost && flags.transmissions == 1 && sacked_above >= DUPTHRESH {
                    newly_lost.push(seq);
                }
            }
            newly_lost.reverse();
        } else if self.dup_acks >= DUPTHRESH {
            self.dup_acks = 0;
            if let Some((&seq, flags)) = self.queue.iter().next() {
                if !flags.lost && !flags.sacked {
                    newly_lost.push(seq);
                }
            }
        }
        for &seq in &newly_lost {
            let flags = self.queue.get_mut(&seq).expect("just seen");
            flags.lost = true;
            flags.outstanding = false;
            self.lost_total += 1;
            self.record(now, TransportEvent::MarkedLost { seq });
        }

        if self.in_recovery && self.cum_ack >= self.recovery_high {
            self.in_recovery = false;
            self.record(now, TransportEvent::ExitRecovery);
        }
        if !newly_lost.is_empty() && !self.in_recovery {
            self.in_recovery = true;
            self.recovery_high = self.next_seq;
            self.record(now, TransportEvent::EnterRecovery);
        }
    }

    /// A valid RTO expiry; returns whether there was anything to time out.
    fn on_rto(&mut self, now: SimTime) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        self.record(
            now,
            TransportEvent::RtoFired {
                backoff: self.rto_backoff,
            },
        );
        self.rto_backoff = (self.rto_backoff + 1).min(16);
        let mut lost = Vec::new();
        for (&seq, flags) in self.queue.iter_mut().filter(|(_, f)| !f.sacked) {
            if !flags.lost {
                flags.lost = true;
                self.lost_total += 1;
            }
            flags.outstanding = false;
            lost.push(seq);
        }
        for seq in lost {
            self.record(now, TransportEvent::MarkedLost { seq });
        }
        self.in_recovery = false;
        self.recovery_high = self.next_seq;
        true
    }
}

// ---------------------------------------------------------------------------
// Reference receiver: the set of sequences received above the cumulative ACK.
// ---------------------------------------------------------------------------

struct RefReceiver {
    cfg: ReceiverConfig,
    cum_ack: u64,
    above: BTreeSet<u64>,
    /// A sequence inside the most recently grown out-of-order run (cleared
    /// when the cumulative ACK swallows a run).
    last_touched: Option<u64>,
    unacked: u32,
    newest: (u64, SimTime, bool),
    delack_armed: bool,
    delack_generation: u64,
    pending_ece: u64,
}

impl RefReceiver {
    fn new(cfg: ReceiverConfig) -> Self {
        RefReceiver {
            cfg,
            cum_ack: 0,
            above: BTreeSet::new(),
            last_touched: None,
            unacked: 0,
            newest: (0, SimTime::ZERO, false),
            delack_armed: false,
            delack_generation: 0,
            pending_ece: 0,
        }
    }

    /// Maximal runs of consecutive received sequences, ascending.
    fn runs(&self) -> Vec<SackBlock> {
        let mut runs: Vec<SackBlock> = Vec::new();
        for &seq in &self.above {
            match runs.last_mut() {
                Some(run) if run.end == seq => run.end += 1,
                _ => runs.push(SackBlock {
                    start: seq,
                    end: seq + 1,
                }),
            }
        }
        runs
    }

    fn make_ack(&mut self, now: SimTime, acked_now: u64) -> AckPacket {
        self.unacked = 0;
        let mut blocks = Vec::new();
        if self.cfg.sack_enabled {
            let runs = self.runs();
            let first = self
                .last_touched
                .and_then(|seq| runs.iter().find(|r| r.contains(seq)).copied());
            blocks.extend(first);
            blocks.extend(runs.into_iter().filter(|r| Some(*r) != first));
            blocks.truncate(self.cfg.max_sack_blocks);
        }
        AckPacket {
            cum_ack: self.cum_ack,
            sack_blocks: blocks.into_iter().collect::<SackList>(),
            acked_now,
            generated_at: now,
            echo_sent_at: self.newest.1,
            for_seq: self.newest.0,
            for_retransmission: self.newest.2,
            ece_marks: std::mem::take(&mut self.pending_ece),
        }
    }

    fn disarm(&mut self) {
        if std::mem::take(&mut self.delack_armed) {
            self.delack_generation += 1;
        }
    }

    /// Returns (new data?, immediate ACK, delayed-ACK timer request).
    fn on_data(
        &mut self,
        pkt: &DataPacket,
        now: SimTime,
    ) -> (bool, Option<AckPacket>, Option<(SimTime, u64)>) {
        self.pending_ece += u64::from(pkt.ce);
        self.newest = (pkt.seq, pkt.sent_at, pkt.is_retransmission);
        if pkt.seq < self.cum_ack || self.above.contains(&pkt.seq) {
            self.disarm();
            return (false, Some(self.make_ack(now, 0)), None);
        }
        if pkt.seq > self.cum_ack {
            self.above.insert(pkt.seq);
            self.last_touched = Some(pkt.seq);
            let pending = self.unacked as u64;
            self.disarm();
            return (true, Some(self.make_ack(now, pending)), None);
        }
        self.cum_ack += 1;
        while self.above.remove(&self.cum_ack) {
            self.cum_ack += 1;
            self.last_touched = None;
        }
        let filled_gap = self.cum_ack > pkt.seq + 1 || !self.above.is_empty();
        self.unacked += 1;
        if filled_gap || !self.cfg.delayed_ack || self.unacked >= self.cfg.delayed_ack_count {
            let acked = self.unacked as u64;
            self.disarm();
            (true, Some(self.make_ack(now, acked)), None)
        } else {
            self.delack_armed = true;
            self.delack_generation += 1;
            let deadline = now + self.cfg.delayed_ack_timeout;
            (true, None, Some((deadline, self.delack_generation)))
        }
    }

    fn on_delack_timer(&mut self, generation: u64, now: SimTime) -> Option<AckPacket> {
        if !self.delack_armed || generation != self.delack_generation {
            return None;
        }
        self.delack_armed = false;
        if self.unacked == 0 {
            return None;
        }
        let acked = self.unacked as u64;
        Some(self.make_ack(now, acked))
    }
}

// ---------------------------------------------------------------------------
// Lockstep driver
// ---------------------------------------------------------------------------

struct Setup {
    sack_enabled: bool,
    delayed_ack: bool,
    max_sack_blocks: usize,
    window: u64,
    buffer_packets: u64,
}

/// A forged ACK: any cumulative value around the window (stale, current,
/// jumping, beyond `next_seq`) and up to four arbitrary blocks — repeated,
/// overlapping, empty, inverted, below the cumulative ACK, beyond the queue.
fn forged_ack(raw: u64, cum_ack: u64, next_seq: u64, now: SimTime) -> AckPacket {
    let span = next_seq - cum_ack + 8;
    let pick = |shift: u32| (cum_ack + (raw >> shift) % span).saturating_sub(4);
    let first = SackBlock {
        start: pick(8),
        end: pick(14),
    };
    let blocks = [
        first,
        SackBlock {
            start: pick(20),
            end: pick(20) + (raw >> 26) % 6,
        },
        first,
        SackBlock {
            start: pick(32),
            end: pick(38),
        },
    ];
    let cum = match raw % 4 {
        0 => pick(44),
        1 => next_seq + (raw >> 44) % 3,
        _ => cum_ack,
    };
    AckPacket {
        cum_ack: cum,
        sack_blocks: blocks.into_iter().take((raw >> 50) as usize % 5).collect(),
        acked_now: 1,
        generated_at: now,
        echo_sent_at: now,
        for_seq: cum.saturating_sub(1),
        for_retransmission: false,
        ece_marks: 0,
    }
}

fn run_lockstep<C: CongestionControl>(setup: &Setup, cc: C, raws: &[u64]) {
    let sender_cfg = SenderConfig {
        sack_enabled: setup.sack_enabled,
        buffer_packets: setup.buffer_packets,
        record_log: true,
        ..SenderConfig::paper_default()
    };
    let receiver_cfg = ReceiverConfig {
        sack_enabled: setup.sack_enabled,
        delayed_ack: setup.delayed_ack,
        max_sack_blocks: setup.max_sack_blocks,
        ..ReceiverConfig::paper_default()
    };
    let mut sender = TcpSender::new(sender_cfg, cc);
    let mut ref_sender = RefSender {
        sack_enabled: setup.sack_enabled,
        buffer_packets: setup.buffer_packets,
        ..RefSender::default()
    };
    let mut receiver = TcpReceiver::new(receiver_cfg);
    let mut ref_receiver = RefReceiver::new(receiver_cfg);
    let mut data_net: Vec<DataPacket> = Vec::new();
    let mut ack_net: Vec<AckPacket> = Vec::new();
    let mut delack: Option<(SimTime, u64)> = None;
    let mut now = SimTime::ZERO;
    sender.on_flow_start(now);

    for (step, &raw) in raws.iter().enumerate() {
        now += SimDuration::from_micros(1 + (raw >> 56));
        let pick = |len: usize| (raw >> 8) as usize % len;
        match raw % 16 {
            // Send a burst (weighted: the window has to fill for anything
            // interesting to happen).
            0..=3 => {
                for _ in 0..1 + (raw >> 8) % 8 {
                    let expected = ref_sender.poll_send(now, sender.cwnd());
                    match sender.poll_send(now) {
                        SendPoll::Packet(pkt) => {
                            assert_eq!(
                                Some((pkt.seq, pkt.is_retransmission)),
                                expected,
                                "step {step}: poll_send"
                            );
                            data_net.push(pkt);
                        }
                        SendPoll::Blocked => {
                            assert_eq!(None, expected, "step {step}: poll_send blocked");
                            break;
                        }
                        SendPoll::Wait(_) => unreachable!("reference CCs do not pace"),
                    }
                }
            }
            // Deliver a data packet — the oldest (in order), or any
            // (reordering) — possibly leaving a copy behind (duplication),
            // possibly CE-marked.
            4..=8 if !data_net.is_empty() => {
                let idx = if raw & 0x100_0000 == 0 {
                    0
                } else {
                    pick(data_net.len())
                };
                let mut pkt = data_net[idx];
                if (raw >> 32) % 8 != 0 {
                    data_net.remove(idx);
                }
                pkt.ce = (raw >> 36) % 8 == 0;
                let out = receiver.on_data(&pkt, now);
                let (new_data, ack, arm) = ref_receiver.on_data(&pkt, now);
                assert_eq!(out.ack, ack, "step {step}: ACK for seq {}", pkt.seq);
                assert_eq!(out.new_data, new_data, "step {step}: new_data");
                assert_eq!(out.arm_delack, arm, "step {step}: delack request");
                ack_net.extend(out.ack);
                delack = out.arm_delack.or(delack);
            }
            // Drop a data packet.
            9 if !data_net.is_empty() => {
                data_net.remove(pick(data_net.len()));
            }
            // Deliver an ACK: the oldest, or any (ACK reordering makes stale
            // ACKs and cumulative jumps), possibly leaving a copy behind.
            10..=12 if !ack_net.is_empty() => {
                let idx = if raw & 0x100_0000 == 0 {
                    0
                } else {
                    pick(ack_net.len())
                };
                let ack = ack_net[idx];
                if (raw >> 32) % 8 != 0 {
                    ack_net.remove(idx);
                }
                sender.on_ack(&ack, now);
                ref_sender.on_ack(&ack, now);
            }
            // Drop an ACK.
            13 if !ack_net.is_empty() => {
                ack_net.remove(pick(ack_net.len()));
            }
            // Deliver a forged ACK.
            14 => {
                let ack = forged_ack(raw, sender.cum_ack(), sender.next_seq(), now);
                sender.on_ack(&ack, now);
                ref_sender.on_ack(&ack, now);
            }
            // Fire a timer: the retransmission timer at its deadline, or
            // the last requested delayed-ACK timer (possibly stale).
            15 => {
                if raw & 0x100 == 0 {
                    if let Some((deadline, generation)) = sender.rto_deadline() {
                        now = now.max(deadline);
                        let fired = sender.on_rto_timer(generation, now);
                        assert_eq!(fired, ref_sender.on_rto(now), "step {step}: RTO");
                    }
                } else if let Some((deadline, generation)) = delack {
                    now = now.max(deadline);
                    let ack = receiver.on_delack_timer(generation, now);
                    let expected = ref_receiver.on_delack_timer(generation, now);
                    assert_eq!(ack, expected, "step {step}: delayed ACK");
                    ack_net.extend(ack);
                }
            }
            _ => {}
        }

        assert_eq!(sender.cum_ack(), ref_sender.cum_ack, "step {step}: cum_ack");
        assert_eq!(
            sender.next_seq(),
            ref_sender.next_seq,
            "step {step}: next_seq"
        );
        assert_eq!(
            sender.in_flight(),
            ref_sender.in_flight(),
            "step {step}: in_flight"
        );
        assert_eq!(
            sender.delivered(),
            ref_sender.delivered,
            "step {step}: delivered"
        );
        assert_eq!(
            sender.lost_total(),
            ref_sender.lost_total,
            "step {step}: lost_total"
        );
        assert_eq!(
            sender.retransmissions(),
            ref_sender.retransmissions,
            "step {step}: retransmissions"
        );
        assert_eq!(
            sender.in_recovery(),
            ref_sender.in_recovery,
            "step {step}: in_recovery"
        );
        assert_eq!(
            sender.drain_log().collect::<Vec<_>>(),
            std::mem::take(&mut ref_sender.log),
            "step {step}: transport log"
        );
        assert_eq!(
            receiver.cum_ack(),
            ref_receiver.cum_ack,
            "step {step}: receiver cum_ack"
        );
        assert_eq!(
            receiver.ooo_packets(),
            ref_receiver.above.len() as u64,
            "step {step}: ooo_packets"
        );
    }
}

proptest! {
    #![proptest_config(cases(200))]

    #[test]
    fn endpoints_match_the_naive_scoreboards(
        raws in collection::vec(any::<u64>(), 50..600),
        sack_enabled in any::<bool>(),
        delayed_ack in any::<bool>(),
        adaptive_window in any::<bool>(),
        max_sack_blocks in 1usize..5,
        window in 2u64..48,
        buffer_packets in 20u64..400,
    ) {
        let setup = Setup { sack_enabled, delayed_ack, max_sack_blocks, window, buffer_packets };
        if adaptive_window {
            // The window shrinks on loss: in_flight can exceed it.
            run_lockstep(&setup, MiniAimdCc::new(setup.window), &raws);
        } else {
            run_lockstep(&setup, FixedWindowCc::new(setup.window), &raws);
        }
    }

    /// Long drop-tail style loss episodes: a big window, one drop in eight,
    /// in-order delivery otherwise — the shape (many holes, thousands of
    /// repeated blocks) the incremental scoreboards were built for.
    #[test]
    fn many_hole_episodes_match_the_naive_scoreboards(
        seeds in collection::vec(any::<u64>(), 400..1500),
        window in 64u64..256,
    ) {
        // Only sends, in-order deliveries, drops (1 in 8 data packets) and
        // RTO fires (rare); no forging, no reordering bit.
        let raws: Vec<u64> = seeds
            .iter()
            .map(|&s| {
                let op = match (s >> 40) % 32 {
                    0..=9 => 0,          // send burst
                    10..=19 => 4,        // deliver oldest data
                    20..=21 => 9,        // drop data
                    22..=30 => 10,       // deliver oldest ACK
                    _ => 15,             // timer
                };
                // Keep the burst-size bits, clear the "pick any" bit, never
                // duplicate (bits 32..35 non-zero), never CE-mark.
                (s & 0xFF00_0000_0000_FF00) | (1 << 32) | (1 << 36) | op
            })
            .collect();
        let setup = Setup {
            sack_enabled: true,
            delayed_ack: false,
            max_sack_blocks: 4,
            window,
            buffer_packets: u64::MAX / 4,
        };
        run_lockstep(&setup, FixedWindowCc::new(window), &raws);
    }
}
