//! Bottleneck gateway queue disciplines.
//!
//! The paper's topology uses a single fixed-size drop-tail FIFO queue at the
//! gateway (§3.1). The queue is sized in packets (as in the paper's NS3
//! setup); a byte-based limit is also supported for completeness.
//!
//! The gateway is pluggable: a [`Qdisc`] configuration selects between
//! classic drop-tail, RED (random early detection, marking or dropping
//! before the tail based on occupancy) and CoDel (controlled delay, marking
//! or dropping at the head based on sojourn time). The runtime queue is one
//! [`GatewayQueue`] struct: a FIFO ring with its byte and counter
//! bookkeeping, plus the discipline's own state, which it consults only
//! where the discipline acts (RED at enqueue, CoDel at dequeue) — no
//! virtual calls on the per-packet path. ECN-capable packets (`ect`) are
//! CE-marked instead of dropped wherever the discipline allows; the
//! receiver echoes marks back to the sender (see [`crate::tcp::receiver`]),
//! closing the RFC 3168 feedback loop.

use crate::packet::{DataPacket, FlowId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Queue capacity specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueCapacity {
    /// At most this many packets may be queued.
    Packets(usize),
    /// At most this many bytes may be queued.
    Bytes(u64),
}

impl QueueCapacity {
    /// `true` when a queue currently holding `len` packets / `bytes` bytes
    /// can still admit `pkt` without exceeding the capacity.
    ///
    /// The byte check compares the *post-enqueue* total against the limit:
    /// a packet is admitted iff `bytes + pkt.size <= max`, so the resident
    /// byte total never exceeds the configured capacity (the exact boundary
    /// is pinned by a regression test below).
    pub fn admits(&self, len: usize, bytes: u64, pkt: &DataPacket) -> bool {
        match *self {
            QueueCapacity::Packets(max) => len < max,
            QueueCapacity::Bytes(max) => bytes + pkt.size as u64 <= max,
        }
    }
}

/// Counters describing everything that ever happened to the queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueCounters {
    /// Packets accepted into the queue, per flow.
    pub enqueued_cca: u64,
    /// Cross-traffic packets accepted into the queue.
    pub enqueued_cross: u64,
    /// Packets dropped at the tail, CCA flow.
    pub dropped_cca: u64,
    /// Packets dropped at the tail, cross traffic.
    pub dropped_cross: u64,
    /// Packets dequeued (transmitted on the bottleneck), CCA flow.
    pub dequeued_cca: u64,
    /// Packets dequeued, cross traffic.
    pub dequeued_cross: u64,
    /// CCA packets CE-marked by the queue discipline (RED/CoDel with ECN).
    pub marked_cca: u64,
    /// Cross-traffic packets CE-marked (always 0: cross traffic is not
    /// ECN-capable, kept for symmetry and future sources).
    pub marked_cross: u64,
}

impl QueueCounters {
    /// Total packets that were accepted into the queue.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued_cca + self.enqueued_cross
    }

    /// Total packets dropped at the tail.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_cca + self.dropped_cross
    }

    /// Total packets dequeued onto the link.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued_cca + self.dequeued_cross
    }

    /// Total packets CE-marked by the queue discipline.
    pub fn total_marked(&self) -> u64 {
        self.marked_cca + self.marked_cross
    }

    fn count_drop(&mut self, flow: FlowId) {
        match flow {
            FlowId::Cca(_) => self.dropped_cca += 1,
            FlowId::CrossTraffic => self.dropped_cross += 1,
        }
    }

    fn count_mark(&mut self, flow: FlowId) {
        match flow {
            FlowId::Cca(_) => self.marked_cca += 1,
            FlowId::CrossTraffic => self.marked_cross += 1,
        }
    }

    fn count_dequeue(&mut self, flow: FlowId) {
        match flow {
            FlowId::Cca(_) => self.dequeued_cca += 1,
            FlowId::CrossTraffic => self.dequeued_cross += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Queue disciplines
// ---------------------------------------------------------------------------

/// Configuration of the gateway queue discipline.
///
/// `DropTail` is the paper's original gateway and the default everywhere; the
/// AQM variants are what the `aqm` fuzzing mode evolves. Parameters are the
/// classic ones: RED thresholds are in packets of instantaneous occupancy
/// (a deliberate simplification of the EWMA average — deterministic and easy
/// to reason about in minimized findings), CoDel uses the standard
/// target-sojourn/interval control law.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Qdisc {
    /// Plain drop-tail FIFO (the paper's gateway).
    DropTail,
    /// Random Early Detection: between `min_thresh` and `max_thresh` packets
    /// of occupancy, arriving packets are marked (ECT) or dropped (non-ECT)
    /// with probability ramping from 0 to `mark_probability`; at or beyond
    /// `max_thresh` every arrival is dropped.
    Red {
        /// Occupancy (packets) below which nothing is marked or dropped.
        min_thresh: usize,
        /// Occupancy (packets) at which the drop probability reaches 1.
        max_thresh: usize,
        /// Maximum early mark/drop probability at `max_thresh` occupancy.
        mark_probability: f64,
    },
    /// Controlled Delay: when the head-of-line sojourn time has exceeded
    /// `target` for at least `interval`, packets are marked (ECT) or dropped
    /// (non-ECT) at dequeue, at a rate that increases with the square root
    /// of the drop count (the CoDel control law).
    CoDel {
        /// Acceptable persistent queueing delay.
        target: SimDuration,
        /// Sliding window over which the delay must persist.
        interval: SimDuration,
    },
}

impl Qdisc {
    /// Short name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Qdisc::DropTail => "droptail",
            Qdisc::Red { .. } => "red",
            Qdisc::CoDel { .. } => "codel",
        }
    }

    /// A deterministic human-readable label including the parameters, e.g.
    /// `red(min=20,max=60,p=0.10)`.
    pub fn label(&self) -> String {
        match self {
            Qdisc::DropTail => "droptail".to_string(),
            Qdisc::Red {
                min_thresh,
                max_thresh,
                mark_probability,
            } => format!("red(min={min_thresh},max={max_thresh},p={mark_probability:.2})"),
            Qdisc::CoDel { target, interval } => format!(
                "codel(target={}ms,interval={}ms)",
                target.as_millis(),
                interval.as_millis()
            ),
        }
    }

    /// Classic RED defaults for a queue of `capacity` packets.
    pub fn red_default(capacity: usize) -> Qdisc {
        Qdisc::Red {
            min_thresh: (capacity / 5).max(1),
            max_thresh: (3 * capacity / 5).max(2),
            mark_probability: 0.1,
        }
    }

    /// Standard CoDel parameters (5 ms target, 100 ms interval).
    pub fn codel_default() -> Qdisc {
        Qdisc::CoDel {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        }
    }

    /// Checks parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Qdisc::DropTail => Ok(()),
            Qdisc::Red {
                min_thresh,
                max_thresh,
                mark_probability,
            } => {
                if min_thresh >= max_thresh {
                    return Err(format!(
                        "RED min_thresh {min_thresh} must be below max_thresh {max_thresh}"
                    ));
                }
                if !(*mark_probability > 0.0 && *mark_probability <= 1.0) {
                    return Err(format!(
                        "RED mark_probability {mark_probability} must be in (0, 1]"
                    ));
                }
                Ok(())
            }
            Qdisc::CoDel { target, interval } => {
                if *target == SimDuration::ZERO {
                    return Err("CoDel target must be positive".into());
                }
                if *interval == SimDuration::ZERO {
                    return Err("CoDel interval must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// What happened to a packet offered to the gateway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted unmarked.
    Accepted,
    /// Accepted and CE-marked by the discipline (ECN-capable packet).
    AcceptedMarked,
    /// Dropped (tail overflow or early AQM drop).
    Dropped,
}

impl EnqueueOutcome {
    /// `true` when the packet entered the queue (marked or not).
    pub fn accepted(&self) -> bool {
        !matches!(self, EnqueueOutcome::Dropped)
    }
}

/// The runtime gateway queue: one FIFO ring with its byte and counter
/// bookkeeping, plus the state of its [`Qdisc`]. The discipline branches only
/// where it acts — RED at [`GatewayQueue::enqueue`], CoDel at
/// [`GatewayQueue::dequeue_at`] — so drop-tail pays one discriminant test
/// per enqueue and per dequeue, and no virtual call.
#[derive(Clone, Debug)]
pub struct GatewayQueue {
    qdisc: Qdisc,
    capacity: QueueCapacity,
    queue: VecDeque<DataPacket>,
    bytes: u64,
    counters: QueueCounters,
    /// RED's early-action lottery. Drawn only under [`Qdisc::Red`], so
    /// identical (config, trace, seed) runs remain bit-identical.
    rng: SimRng,
    /// CoDel: when the head sojourn time first exceeded `target`, plus one
    /// `interval` (`None` = not above target).
    first_above_time: Option<SimTime>,
    /// CoDel: whether the queue is in the dropping state.
    dropping: bool,
    /// CoDel: next scheduled mark/drop instant while dropping.
    drop_next: SimTime,
    /// CoDel: marks/drops performed in the current dropping episode.
    count: u64,
    /// CoDel: `count` when the previous dropping episode ended.
    last_count: u64,
}

impl GatewayQueue {
    /// Builds the gateway queue for a discipline. `seed` feeds RED's
    /// deterministic mark lottery (ignored by the other disciplines).
    pub fn new(qdisc: Qdisc, capacity: QueueCapacity, seed: u64) -> Self {
        GatewayQueue::new_with_storage(qdisc, capacity, seed, VecDeque::new())
    }

    /// Like [`GatewayQueue::new`], but adopts a previously used FIFO ring as
    /// the queue's storage so repeated simulation set-ups skip the deque
    /// growth. The storage is cleared first: a recycled queue is
    /// indistinguishable from a fresh one apart from capacity.
    pub fn new_with_storage(
        qdisc: Qdisc,
        capacity: QueueCapacity,
        seed: u64,
        mut storage: VecDeque<DataPacket>,
    ) -> Self {
        storage.clear();
        GatewayQueue {
            qdisc,
            capacity,
            queue: storage,
            bytes: 0,
            counters: QueueCounters::default(),
            // A fixed stream offset keeps the queue's randomness independent
            // of any other consumer of the scenario seed.
            rng: SimRng::new(seed).fork(0x71d5_c0de),
            first_above_time: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
        }
    }

    /// Recovers the FIFO storage for reuse by a later queue (cleared).
    pub fn into_storage(mut self) -> VecDeque<DataPacket> {
        self.queue.clear();
        self.queue
    }

    /// The configured discipline.
    pub fn qdisc(&self) -> Qdisc {
        self.qdisc
    }

    /// Current queue occupancy in packets.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Current queue occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Lifetime counters.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Offers `pkt` to the gateway at `now`. Every discipline drops at the
    /// physical capacity; RED also drops at or beyond `max_thresh` and, above
    /// `min_thresh`, marks (ECT) or drops (non-ECT) by lottery.
    pub fn enqueue(&mut self, mut pkt: DataPacket, now: SimTime) -> EnqueueOutcome {
        let occupancy = self.queue.len();
        if !self.capacity.admits(occupancy, self.bytes, &pkt) {
            self.counters.count_drop(pkt.flow);
            return EnqueueOutcome::Dropped;
        }
        let mut outcome = EnqueueOutcome::Accepted;
        if let Qdisc::Red {
            min_thresh,
            max_thresh,
            mark_probability,
        } = self.qdisc
        {
            if occupancy >= max_thresh {
                self.counters.count_drop(pkt.flow);
                return EnqueueOutcome::Dropped;
            }
            if occupancy >= min_thresh {
                // Linear ramp of the early-action probability over
                // [min_thresh, max_thresh).
                let span = (max_thresh - min_thresh).max(1) as f64;
                let p = mark_probability * (occupancy - min_thresh) as f64 / span;
                if self.rng.gen_bool(p) {
                    if !pkt.ect {
                        self.counters.count_drop(pkt.flow);
                        return EnqueueOutcome::Dropped;
                    }
                    pkt.ce = true;
                    self.counters.count_mark(pkt.flow);
                    outcome = EnqueueOutcome::AcceptedMarked;
                }
            }
        }
        pkt.enqueued_at = now;
        self.bytes += pkt.size as u64;
        match pkt.flow {
            FlowId::Cca(_) => self.counters.enqueued_cca += 1,
            FlowId::CrossTraffic => self.counters.enqueued_cross += 1,
        }
        self.queue.push_back(pkt);
        outcome
    }

    /// Removes the next deliverable packet at `now`; the returned `bool` is
    /// `true` when this dequeue CE-marked the packet (so the caller can
    /// account dequeue-time marks without knowing which discipline marks
    /// where). CoDel may drop (non-ECT) head packets while searching; each
    /// such casualty is reported through `on_drop` before the next candidate
    /// is considered. Drop-tail and RED never drop or mark at dequeue.
    pub fn dequeue_at<F: FnMut(DataPacket)>(
        &mut self,
        now: SimTime,
        mut on_drop: F,
    ) -> Option<(DataPacket, bool)> {
        if let Qdisc::CoDel { target, interval } = self.qdisc {
            // The CoDel control law (RFC 8289, simplified to packet
            // granularity): while dropping, due head packets are CE-marked
            // (ECT) or dropped (non-ECT) at `drop_next` instants.
            loop {
                let act = self.codel_should_act(now, target, interval);
                if self.dropping {
                    if !act {
                        self.dropping = false;
                        break;
                    }
                    if now < self.drop_next {
                        break;
                    }
                    self.count += 1;
                    self.drop_next = self.codel_control_law(self.drop_next, interval);
                } else if act {
                    // Enter the dropping state. Resume from the previous
                    // episode's rate when it ended recently (standard CoDel
                    // hysteresis), otherwise restart from 1.
                    self.dropping = true;
                    self.count =
                        if self.count > self.last_count + 1 && now < self.drop_next + interval {
                            self.count - self.last_count
                        } else {
                            1
                        };
                    self.last_count = self.count;
                    self.drop_next = self.codel_control_law(now, interval);
                } else {
                    break;
                }
                let mut pkt = self.pop()?;
                if pkt.ect {
                    pkt.ce = true;
                    self.counters.count_mark(pkt.flow);
                    self.counters.count_dequeue(pkt.flow);
                    return Some((pkt, true));
                }
                self.counters.count_drop(pkt.flow);
                on_drop(pkt);
            }
        }
        let pkt = self.pop()?;
        self.counters.count_dequeue(pkt.flow);
        Some((pkt, false))
    }

    /// Removes the head-of-line packet without deciding its fate.
    fn pop(&mut self) -> Option<DataPacket> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    /// `interval / sqrt(count)` after `from`, the CoDel control-law spacing.
    fn codel_control_law(&self, from: SimTime, interval: SimDuration) -> SimTime {
        let scaled = interval.as_nanos() as f64 / (self.count.max(1) as f64).sqrt();
        from + SimDuration::from_nanos(scaled as u64)
    }

    /// Whether CoDel should act on the head packet at `now`: its sojourn
    /// time has been at or above `target` for at least `interval`. Resets
    /// the above-target tracking when the sojourn time is back below target
    /// or the queue drained.
    fn codel_should_act(
        &mut self,
        now: SimTime,
        target: SimDuration,
        interval: SimDuration,
    ) -> bool {
        let Some(head) = self.queue.front() else {
            self.first_above_time = None;
            return false;
        };
        if now.saturating_since(head.enqueued_at) < target {
            self.first_above_time = None;
            return false;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now + interval);
                false
            }
            Some(t) => now >= t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::DEFAULT_MSS;

    fn pkt(seq: u64) -> DataPacket {
        DataPacket::cca(seq, DEFAULT_MSS, false, SimTime::ZERO)
    }

    fn drop_tail(capacity: QueueCapacity) -> GatewayQueue {
        GatewayQueue::new(Qdisc::DropTail, capacity, 42)
    }

    /// Offers `pkt` to a drop-tail queue: `true` when accepted. Drop-tail
    /// never marks.
    fn offer(q: &mut GatewayQueue, pkt: DataPacket, now: SimTime) -> bool {
        let outcome = q.enqueue(pkt, now);
        assert_ne!(outcome, EnqueueOutcome::AcceptedMarked);
        outcome.accepted()
    }

    /// Dequeues from a drop-tail queue, which never drops or marks there.
    fn take(q: &mut GatewayQueue) -> Option<DataPacket> {
        let (pkt, marked) = q.dequeue_at(SimTime::ZERO, |_| {
            panic!("drop-tail never drops at dequeue")
        })?;
        assert!(!marked, "drop-tail never marks at dequeue");
        Some(pkt)
    }

    #[test]
    fn fifo_order() {
        let mut q = drop_tail(QueueCapacity::Packets(10));
        for i in 0..5 {
            assert!(offer(&mut q, pkt(i), SimTime::from_millis(i)));
        }
        for i in 0..5 {
            assert_eq!(take(&mut q).unwrap().seq, i);
        }
        assert!(take(&mut q).is_none());
        assert_eq!(q.counters().total_marked(), 0);
    }

    #[test]
    fn drop_tail_on_packet_capacity() {
        let mut q = drop_tail(QueueCapacity::Packets(3));
        assert!(offer(&mut q, pkt(0), SimTime::ZERO));
        assert!(offer(&mut q, pkt(1), SimTime::ZERO));
        assert!(offer(&mut q, pkt(2), SimTime::ZERO));
        assert!(
            !offer(&mut q, pkt(3), SimTime::ZERO),
            "fourth packet must be dropped"
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.counters().dropped_cca, 1);
        // After a dequeue there is room again.
        take(&mut q);
        assert!(offer(&mut q, pkt(4), SimTime::ZERO));
    }

    #[test]
    fn drop_tail_on_byte_capacity() {
        let mut q = drop_tail(QueueCapacity::Bytes(3_000));
        assert!(offer(&mut q, pkt(0), SimTime::ZERO)); // 1448
        assert!(offer(&mut q, pkt(1), SimTime::ZERO)); // 2896
        assert!(!offer(&mut q, pkt(2), SimTime::ZERO)); // would be 4344 > 3000
        assert_eq!(q.bytes(), 2 * DEFAULT_MSS as u64);
    }

    #[test]
    fn byte_capacity_boundary_is_exact() {
        // Regression pin for the byte-capacity admission boundary: the
        // check must compare the *post-enqueue* total against the limit
        // (admit iff bytes + size <= max). Comparing the pre-enqueue total
        // instead would admit one extra packet at the boundary and let the
        // resident bytes exceed the configured capacity.
        let sized = |seq: u64, size: u32| DataPacket::cca(seq, size, false, SimTime::ZERO);

        // Exactly filling the capacity is admitted...
        let mut q = drop_tail(QueueCapacity::Bytes(3 * 1_000));
        assert!(offer(&mut q, sized(0, 1_000), SimTime::ZERO));
        assert!(offer(&mut q, sized(1, 1_000), SimTime::ZERO));
        assert!(
            offer(&mut q, sized(2, 1_000), SimTime::ZERO),
            "a packet that lands exactly on the byte limit is admitted"
        );
        assert_eq!(q.bytes(), 3_000);
        // ...one byte over is not, even though the pre-enqueue total
        // (3000) equals the limit.
        assert!(
            !offer(&mut q, sized(3, 1), SimTime::ZERO),
            "pre-enqueue total == limit must not admit another packet"
        );
        assert_eq!(q.bytes(), 3_000, "resident bytes never exceed capacity");

        // A single packet larger than the whole capacity never fits.
        let mut q = drop_tail(QueueCapacity::Bytes(500));
        assert!(!offer(&mut q, sized(0, 501), SimTime::ZERO));
        assert!(offer(&mut q, sized(1, 500), SimTime::ZERO));

        // Every discipline checks the capacity first, so the boundary is
        // identical behind RED and CoDel.
        for qdisc in [Qdisc::red_default(100), Qdisc::codel_default()] {
            let mut q = GatewayQueue::new(qdisc, QueueCapacity::Bytes(2 * 1_000), 1);
            assert!(q.enqueue(sized(0, 1_000), SimTime::ZERO).accepted());
            assert!(q.enqueue(sized(1, 1_000), SimTime::ZERO).accepted());
            assert!(
                !q.enqueue(sized(2, 1), SimTime::ZERO).accepted(),
                "{}: byte boundary differs from drop-tail",
                qdisc.name()
            );
            assert_eq!(q.bytes(), 2_000);
        }
    }

    // ------------------------------------------------------------------
    // Queue disciplines
    // ------------------------------------------------------------------

    fn ect_pkt(seq: u64) -> DataPacket {
        let mut p = pkt(seq);
        p.ect = true;
        p
    }

    #[test]
    fn qdisc_validation_and_labels() {
        assert!(Qdisc::DropTail.validate().is_ok());
        assert!(Qdisc::red_default(100).validate().is_ok());
        assert!(Qdisc::codel_default().validate().is_ok());
        assert_eq!(Qdisc::DropTail.name(), "droptail");
        assert_eq!(Qdisc::red_default(100).name(), "red");
        assert_eq!(Qdisc::codel_default().name(), "codel");
        assert_eq!(Qdisc::red_default(100).label(), "red(min=20,max=60,p=0.10)");
        assert_eq!(
            Qdisc::codel_default().label(),
            "codel(target=5ms,interval=100ms)"
        );

        let bad = Qdisc::Red {
            min_thresh: 50,
            max_thresh: 50,
            mark_probability: 0.1,
        };
        assert!(bad.validate().is_err());
        let bad = Qdisc::Red {
            min_thresh: 10,
            max_thresh: 50,
            mark_probability: 0.0,
        };
        assert!(bad.validate().is_err());
        let bad = Qdisc::CoDel {
            target: SimDuration::ZERO,
            interval: SimDuration::from_millis(100),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn red_marks_ect_and_drops_nonect_above_min_thresh() {
        let qdisc = Qdisc::Red {
            min_thresh: 2,
            max_thresh: 8,
            mark_probability: 1.0,
        };
        // ECT traffic: above min_thresh every admitted packet is marked
        // (p=1 at full ramp is reached only at max; with p ramping linearly
        // some are marked, none dropped before max_thresh).
        let mut q = GatewayQueue::new(qdisc, QueueCapacity::Packets(100), 7);
        let mut marked = 0;
        let mut dropped = 0;
        for i in 0..100 {
            match q.enqueue(ect_pkt(i), SimTime::ZERO) {
                EnqueueOutcome::AcceptedMarked => marked += 1,
                EnqueueOutcome::Dropped => dropped += 1,
                EnqueueOutcome::Accepted => {}
            }
        }
        assert!(marked > 0, "RED must mark ECT packets above min_thresh");
        assert!(
            dropped > 0,
            "RED must hard-drop at/above max_thresh regardless of ECT"
        );
        assert_eq!(q.counters().marked_cca, marked);
        assert_eq!(q.counters().dropped_cca, dropped);
        // Marked packets carry CE through the queue; RED marks at enqueue,
        // so no dequeue ever reports a fresh mark.
        let mut ce_out = 0;
        while let Some((p, marked_now)) = q.dequeue_at(SimTime::ZERO, |_| {}) {
            assert!(!marked_now, "RED never marks at dequeue");
            if p.ce {
                ce_out += 1;
            }
        }
        assert_eq!(ce_out, marked, "every mark leaves the queue as CE");

        // Non-ECT traffic: same configuration must early-drop instead of
        // marking.
        let mut q = GatewayQueue::new(qdisc, QueueCapacity::Packets(100), 7);
        let mut early_dropped = 0;
        for i in 0..8 {
            if !q.enqueue(pkt(i), SimTime::ZERO).accepted() {
                early_dropped += 1;
            }
        }
        assert!(early_dropped > 0, "non-ECT packets are dropped, not marked");
        assert_eq!(q.counters().total_marked(), 0);
    }

    #[test]
    fn red_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut q =
                GatewayQueue::new(Qdisc::red_default(100), QueueCapacity::Packets(100), seed);
            (0..200u64)
                .map(|i| {
                    if i % 3 == 0 {
                        q.dequeue_at(SimTime::ZERO, |_| {});
                    }
                    q.enqueue(ect_pkt(i), SimTime::ZERO)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed, same lottery");
        assert_ne!(run(5), run(6), "different seeds explore different marks");
    }

    #[test]
    fn codel_marks_after_sojourn_exceeds_target_for_interval() {
        let qdisc = Qdisc::CoDel {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        };
        let mut q = GatewayQueue::new(qdisc, QueueCapacity::Packets(500), 1);
        // Fill at t=0, then dequeue slowly so sojourn stays far above the
        // 5 ms target for much longer than the interval.
        for i in 0..400 {
            assert!(q.enqueue(ect_pkt(i), SimTime::ZERO).accepted());
        }
        let mut marked = 0;
        let mut t = SimTime::ZERO;
        while let Some((p, marked_now)) =
            q.dequeue_at(t, |_| panic!("ECT packets are marked, not dropped"))
        {
            assert_eq!(p.ce, marked_now, "CoDel marks exactly at dequeue");
            if p.ce {
                marked += 1;
            }
            t += SimDuration::from_millis(2);
        }
        assert!(
            marked > 1,
            "persistent queue must trigger repeated CoDel marks, got {marked}"
        );
        assert_eq!(q.counters().marked_cca, marked);
        // A short queue (sojourn below target) is never marked.
        let mut q = GatewayQueue::new(qdisc, QueueCapacity::Packets(500), 1);
        let mut t = SimTime::ZERO;
        for i in 0..50 {
            q.enqueue(ect_pkt(i), t);
            let out = q.dequeue_at(t + SimDuration::from_millis(1), |_| {});
            assert!(matches!(out, Some((p, false)) if !p.ce));
            t += SimDuration::from_millis(2);
        }
        assert_eq!(q.counters().total_marked(), 0);
    }

    #[test]
    fn codel_drops_nonect_at_dequeue_and_reports_them() {
        let qdisc = Qdisc::CoDel {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(50),
        };
        let mut q = GatewayQueue::new(qdisc, QueueCapacity::Packets(500), 1);
        for i in 0..300 {
            assert!(q.enqueue(pkt(i), SimTime::ZERO).accepted());
        }
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut t = SimTime::from_millis(60);
        while let Some((p, marked_now)) = q.dequeue_at(t, |_| dropped += 1) {
            assert!(!p.ce, "non-ECT packets must never carry CE");
            assert!(!marked_now);
            delivered += 1;
            t += SimDuration::from_millis(3);
        }
        assert!(dropped > 0, "persistent non-ECT queue must shed packets");
        assert_eq!(delivered + dropped, 300, "every packet accounted for");
        let c = q.counters();
        assert_eq!(c.dropped_cca, dropped);
        assert_eq!(c.dequeued_cca, delivered);
        assert_eq!(c.total_marked(), 0);
    }

    #[test]
    fn enqueue_timestamps_recorded() {
        let mut q = drop_tail(QueueCapacity::Packets(10));
        let t = SimTime::from_millis(42);
        offer(&mut q, pkt(0), t);
        assert_eq!(take(&mut q).unwrap().enqueued_at, t);
    }

    #[test]
    fn per_flow_counters() {
        let mut q = drop_tail(QueueCapacity::Packets(2));
        offer(&mut q, pkt(0), SimTime::ZERO);
        offer(
            &mut q,
            DataPacket::cross_traffic(0, DEFAULT_MSS, SimTime::ZERO),
            SimTime::ZERO,
        );
        // Queue full; both further arrivals dropped.
        offer(&mut q, pkt(1), SimTime::ZERO);
        offer(
            &mut q,
            DataPacket::cross_traffic(1, DEFAULT_MSS, SimTime::ZERO),
            SimTime::ZERO,
        );
        take(&mut q);
        take(&mut q);
        let c = q.counters();
        assert_eq!(c.enqueued_cca, 1);
        assert_eq!(c.enqueued_cross, 1);
        assert_eq!(c.dropped_cca, 1);
        assert_eq!(c.dropped_cross, 1);
        assert_eq!(c.dequeued_cca, 1);
        assert_eq!(c.dequeued_cross, 1);
        assert_eq!(c.total_enqueued(), 2);
        assert_eq!(c.total_dropped(), 2);
        assert_eq!(c.total_dequeued(), 2);
    }

    #[test]
    fn conservation_invariant() {
        let mut q = drop_tail(QueueCapacity::Packets(5));
        let mut accepted = 0u64;
        for i in 0..20 {
            if offer(&mut q, pkt(i), SimTime::ZERO) {
                accepted += 1;
            }
            if i % 3 == 0 {
                take(&mut q);
            }
        }
        let c = q.counters();
        assert_eq!(c.total_enqueued(), accepted);
        assert_eq!(
            c.total_enqueued(),
            c.total_dequeued() + q.len() as u64,
            "every accepted packet is either dequeued or still resident"
        );
    }
}
