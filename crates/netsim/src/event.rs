//! Discrete-event calendar.
//!
//! A bucketed calendar queue with **stable, deterministic ordering**: events
//! scheduled for the same instant fire in the order they were scheduled.
//! Determinism here is essential — the genetic algorithm assumes that
//! re-evaluating the same trace yields exactly the same score (§3.6 of the
//! paper).
//!
//! ## Why not a binary heap?
//!
//! The original implementation was a `BinaryHeap<ScheduledEvent>` whose
//! entries carried whole packets (~100 bytes with inline SACK state); every
//! push/pop sifted those fat entries through `log n` levels. The calendar
//! queue exploits what a heap cannot: simulation time only moves forward and
//! event timestamps cluster tightly around "now" (serialization times,
//! RTTs). Events land in a ring of fixed-width time buckets. A bucket is an
//! unsorted singly linked list threaded through one node arena shared by all
//! buckets (a free list recycles its slots); when the clock reaches a bucket
//! its nodes move into one `cur` vector that is sorted **once**, so the
//! common case is an O(1) push and an O(1) pop of a 32-byte entry. Storage
//! is the peak number of pending events plus the largest bucket, not the sum
//! of every bucket's largest-ever burst that per-bucket vectors would keep.
//!
//! The small entries alone do not make a heap competitive. A plain
//! `BinaryHeap<ScheduledEvent>` of today's 32-byte handle entries, ordered
//! on the same `(at, seq)` key, printed the same hunt payloads but made a
//! 5 s BBR link hunt (20 islands × 25, 5 generations, two threads) take
//! ×1.42 the calendar's wall time: median 3.68 s against 2.60 s over five
//! alternating pairs on a 2-core x86-64 box.
//!
//! Events at or beyond the ring's horizon (2^32 ns ≈ 4.3 s past the cursor
//! bucket) wait in one overflow `BinaryHeap`, min-first on `(at, seq)`. Real
//! runs put only a few percent of their events there — mostly cross-traffic
//! injections queued at time zero for instants past 4.3 s — so each pays one
//! push and one pop of O(log F) with F in the hundreds. As the ring rotates
//! one bucket, the heap heads that now fall inside the horizon move into the
//! newly exposed bucket; when none do, the rotation costs one `peek`.
//!
//! ## Determinism contract
//!
//! Pops are globally ordered by `(timestamp, schedule sequence)` — exactly
//! the order the binary heap produced:
//! * buckets partition time, so cross-bucket order is automatic;
//! * within a bucket, the sort on entering `cur` orders by `(at, seq)`;
//! * overflow events enter their bucket's list before the cursor reaches it
//!   (a rotation exposes the furthest bucket; a jump migrates, then loads),
//!   so that sort orders them too;
//! * events scheduled into the cursor bucket go straight into `cur` by
//!   binary search on `(at, seq)`, preserving FIFO among equal timestamps
//!   (their sequence numbers are necessarily the largest so far).
//!
//! Payload-carrying events ([`Event::GatewayArrival`], [`Event::SinkArrival`],
//! [`Event::AckArrival`]) reference packets parked in the simulation's
//! [`PacketPool`](crate::packet::PacketPool) by 4-byte handle, which keeps
//! [`Event`] register-sized and clone-free: the hot timer events and the
//! payload events are the same small value type.

use crate::packet::{AckRef, PacketRef};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event in the simulation.
///
/// Per-flow events carry the index of the CCA flow they belong to, so that
/// N concurrent congestion-controlled senders can share one event calendar.
/// The enum is deliberately small (16 bytes): packets are parked in the
/// simulation's packet pool and referenced by handle, and the enum derives
/// neither `Clone` nor `PartialEq` — it is moved, exactly once, from
/// `schedule` to `pop`.
#[derive(Debug)]
pub enum Event {
    /// A CCA flow starts sending.
    FlowStart {
        /// Index of the flow that starts.
        flow: u32,
    },
    /// A data packet arrives at a hop's gateway queue (from any source:
    /// a sender's access link, the previous hop, or cross traffic).
    GatewayArrival {
        /// Index of the hop whose queue the packet reaches (0 in the
        /// paper's single-bottleneck dumbbell).
        hop: u32,
        /// Handle of the parked data packet.
        pkt: PacketRef,
    },
    /// A hop's link finishes serializing / reaches a transmission
    /// opportunity and can pull the next packet from that hop's queue.
    LinkReady {
        /// Index of the hop whose link became ready.
        hop: u32,
    },
    /// A data packet, having crossed the last hop on its path, arrives at
    /// the sink.
    SinkArrival(PacketRef),
    /// An ACK arrives back at a CCA sender.
    AckArrival {
        /// Index of the flow the ACK belongs to.
        flow: u32,
        /// Handle of the parked acknowledgement.
        ack: AckRef,
    },
    /// A sender's retransmission timer fires (armed for this sequence and
    /// this particular arming generation, to invalidate stale timers).
    RtoTimer {
        /// Index of the flow whose timer fires.
        flow: u32,
        /// Timer generation; only the latest armed generation is valid.
        generation: u64,
    },
    /// A receiver's delayed-ACK timer fires.
    DelayedAckTimer {
        /// Index of the flow whose receiver timer fires.
        flow: u32,
        /// Timer generation; only the latest armed generation is valid.
        generation: u64,
    },
    /// A sender's pacing timer fires (used by paced CCAs such as BBR). It
    /// carries no generation: a stale one only polls the sender early, and
    /// the sender answers with its pacing deadline.
    PacingTimer {
        /// Index of the flow whose pacing timer fires.
        flow: u32,
    },
    /// Periodic statistics sampling tick.
    StatsTick,
    /// The workload arrival process fires: spawn one dynamic flow (see
    /// [`crate::workload`]) and draw the next arrival. Only scheduled when
    /// `SimConfig::arrivals` is configured.
    FlowArrival,
}

/// Bucket width: 2^20 ns ≈ 1.05 ms, on the order of one packet serialization
/// time at the paper's 12 Mbps bottleneck, so adjacent events share buckets
/// without piling the whole run into one.
const BUCKET_SHIFT: u32 = 20;
/// Ring size: 4096 buckets ≈ 4.3 s of horizon; almost every event of a
/// typical scenario is schedulable directly into the ring.
const NUM_BUCKETS: usize = 4096;

#[derive(Debug)]
struct ScheduledEvent {
    at: u64,
    seq: u64,
    event: Event,
}

impl ScheduledEvent {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // first-scheduled) event is popped first from the overflow heap, and
        // an ascending sort of `cur` puts the earliest event last.
        other.key().cmp(&self.key())
    }
}

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One arena slot: an event and the next node of its bucket's list (or, once
/// freed, of the free list).
struct Node {
    entry: ScheduledEvent,
    next: u32,
}

/// The future event list.
///
/// `Default` is a *non-allocating* placeholder with no ring storage: an empty
/// [`Simulation`](crate::sim::Simulation) starts from it, so building one
/// pays nothing until its first load. [`EventQueue::reset`] materializes the
/// storage, and every load resets before scheduling.
#[derive(Default)]
pub struct EventQueue {
    /// Head node of each time bucket's list; bucket `(cursor + k) % N`
    /// covers `[cursor_start + k·width, cursor_start + (k+1)·width)`. The
    /// cursor bucket's list is always empty: its events are in `cur`.
    heads: Vec<u32>,
    /// Node arena shared by every bucket list.
    nodes: Vec<Node>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    /// The cursor bucket's pending events, sorted by descending `(at, seq)`
    /// so the next event is `cur.pop()`.
    cur: Vec<ScheduledEvent>,
    cursor: usize,
    /// Bucket-aligned nanosecond timestamp of the cursor bucket's range.
    cursor_start: u64,
    /// Events at or beyond the ring's horizon, min-first on `(at, seq)`.
    far: BinaryHeap<ScheduledEvent>,
    /// Events currently in the ring (bucket lists and `cur`).
    ring_len: usize,
    /// Total pending events (ring + overflow).
    len: usize,
    next_seq: u64,
    now: SimTime,
}

impl EventQueue {
    /// Creates an empty event queue positioned at time zero.
    pub fn new() -> Self {
        let mut q = EventQueue::default();
        q.reset();
        q
    }

    /// Clears the queue back to time zero, keeping every allocation (node
    /// arena, `cur`, overflow heap) for reuse by the next simulation run. On
    /// a placeholder queue (see [`Default`]) this materializes the ring's
    /// list heads.
    pub fn reset(&mut self) {
        self.heads.clear();
        self.heads.resize(NUM_BUCKETS, NIL);
        self.nodes.clear();
        self.free = NIL;
        self.cur.clear();
        self.cursor = 0;
        self.cursor_start = 0;
        self.far.clear();
        self.ring_len = 0;
        self.len = 0;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn horizon_end(&self) -> u64 {
        self.cursor_start + ((NUM_BUCKETS as u64) << BUCKET_SHIFT)
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the simulator; in release
    /// builds the event is clamped to "now" to keep time monotone.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        debug_assert!(
            at >= self.now,
            "scheduling event in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now).as_nanos();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = ScheduledEvent { at, seq, event };

        if at >= self.horizon_end() {
            self.far.push(entry);
            return;
        }
        debug_assert!(at >= self.cursor_start);
        let delta = ((at - self.cursor_start) >> BUCKET_SHIFT) as usize;
        self.ring_len += 1;
        if delta == 0 {
            // The cursor bucket drains from `cur`: keep it sorted. `seq` is
            // the largest so far, so the slot is right after every pending
            // event with `at' > at` (those pop later).
            let slot = self.cur.partition_point(|e| e.at > at);
            self.cur.insert(slot, entry);
        } else {
            self.link((self.cursor + delta) & (NUM_BUCKETS - 1), entry);
        }
    }

    /// Pushes `entry` onto bucket `bucket`'s list in a recycled arena slot.
    fn link(&mut self, bucket: usize, entry: ScheduledEvent) {
        let next = self.heads[bucket];
        let slot = if self.free == NIL {
            self.nodes.push(Node { entry, next });
            self.nodes.len() - 1
        } else {
            let slot = self.free as usize;
            self.free = self.nodes[slot].next;
            self.nodes[slot] = Node { entry, next };
            slot
        };
        self.heads[bucket] = slot as u32;
    }

    /// Pops the next event, advancing the simulation clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.len == 0 {
            return None;
        }
        while self.cur.is_empty() {
            // Cursor bucket exhausted.
            if self.ring_len == 0 {
                // Ring drained: jump the window straight to the earliest
                // pending event instead of rotating bucket by bucket.
                let min_at = self.far.peek().expect("len > 0").at;
                self.cursor = 0;
                self.cursor_start = (min_at >> BUCKET_SHIFT) << BUCKET_SHIFT;
            } else {
                self.cursor = (self.cursor + 1) & (NUM_BUCKETS - 1);
                self.cursor_start += 1 << BUCKET_SHIFT;
            }
            self.migrate_far();
            self.load_cursor_bucket();
        }
        let entry = self.cur.pop().expect("cursor bucket non-empty");
        self.ring_len -= 1;
        self.len -= 1;
        let at = SimTime::from_nanos(entry.at);
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, entry.event))
    }

    /// Moves the cursor bucket's list into `cur`, freeing its nodes, and
    /// sorts it once.
    fn load_cursor_bucket(&mut self) {
        let mut slot = std::mem::replace(&mut self.heads[self.cursor], NIL);
        while slot != NIL {
            let node = &mut self.nodes[slot as usize];
            let event = std::mem::replace(&mut node.entry.event, Event::StatsTick);
            let (at, seq) = node.entry.key();
            self.cur.push(ScheduledEvent { at, seq, event });
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = slot;
            slot = next;
        }
        self.cur.sort_unstable();
    }

    /// Moves overflow events that now fall inside the ring's horizon into
    /// their buckets' lists: after a one-bucket rotation, all into the newly
    /// exposed bucket; after a jump, the cursor bucket's share is loaded
    /// next. When none are due this is one `peek`.
    fn migrate_far(&mut self) {
        let end = self.horizon_end();
        while self.far.peek().is_some_and(|head| head.at < end) {
            let entry = self.far.pop().expect("peeked");
            let delta = ((entry.at - self.cursor_start) >> BUCKET_SHIFT) as usize;
            self.link((self.cursor + delta) & (NUM_BUCKETS - 1), entry);
            self.ring_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), Event::LinkReady { hop: 0 });
        q.schedule(t(10), Event::FlowStart { flow: 0 });
        q.schedule(t(20), Event::StatsTick);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().0, t(10));
        assert_eq!(q.pop().unwrap().0, t(20));
        assert_eq!(q.pop().unwrap().0, t(30));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(
            t(5),
            Event::RtoTimer {
                flow: 0,
                generation: 1,
            },
        );
        q.schedule(
            t(5),
            Event::RtoTimer {
                flow: 0,
                generation: 2,
            },
        );
        q.schedule(
            t(5),
            Event::RtoTimer {
                flow: 0,
                generation: 3,
            },
        );
        let gens: Vec<u64> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                Event::RtoTimer { generation, .. } => generation,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(gens, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Event::FlowStart { flow: 0 });
        q.schedule(t(10) + SimDuration::from_millis(5), Event::StatsTick);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(15));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..100u64 {
                // Lots of identical timestamps to stress tie-breaking.
                q.schedule(
                    t(i % 7),
                    Event::RtoTimer {
                        flow: 0,
                        generation: i,
                    },
                );
            }
            let mut order = Vec::new();
            while let Some((at, Event::RtoTimer { generation, .. })) = q.pop() {
                order.push((at, generation));
            }
            order
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn matches_reference_order_under_interleaved_load() {
        // Exhaustive cross-check against a sorted reference: random-ish
        // schedule times (including far beyond the ring horizon and repeats
        // of "now"), interleaved with pops, must produce the exact global
        // (at, seq) order the binary-heap implementation guaranteed.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        let advance = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        let mut popped: Vec<(u64, u64)> = Vec::new();
        for round in 0..2_000u64 {
            // Schedule 0..3 events at pseudo-random offsets from now, some
            // at now exactly, some dozens of seconds out (overflow).
            for _ in 0..(advance(&mut x) % 4) {
                let r = advance(&mut x);
                let offset_ns = match r % 5 {
                    0 => 0,
                    1 => r % 1_000,                          // sub-microsecond
                    2 => r % 5_000_000,                      // sub-bucket range
                    3 => r % 1_000_000_000,                  // within horizon
                    _ => 5_000_000_000 + r % 30_000_000_000, // beyond horizon
                };
                let at = q.now() + SimDuration::from_nanos(offset_ns);
                reference.push((at.as_nanos(), seq));
                q.schedule(
                    at,
                    Event::RtoTimer {
                        flow: 0,
                        generation: seq,
                    },
                );
                seq += 1;
            }
            if round % 2 == 0 {
                if let Some((at, Event::RtoTimer { generation, .. })) = q.pop() {
                    popped.push((at.as_nanos(), generation));
                }
            }
        }
        while let Some((at, Event::RtoTimer { generation, .. })) = q.pop() {
            popped.push((at.as_nanos(), generation));
        }
        // Interleaving pops with schedules only ever removes the current
        // minimum, so the concatenated pop order must equal the fully
        // sorted reference.
        reference.sort_unstable();
        assert_eq!(popped.len(), reference.len());
        assert_eq!(popped, reference);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = EventQueue::new();
        // Way beyond the ring horizon (~4.3 s): must park in overflow and
        // still pop in order.
        q.schedule(SimTime::from_secs_f64(100.0), Event::StatsTick);
        q.schedule(SimTime::from_secs_f64(50.0), Event::LinkReady { hop: 0 });
        q.schedule(t(1), Event::FlowStart { flow: 0 });
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs_f64(50.0));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs_f64(100.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn minutes_out_events_still_pop_in_order() {
        // Minutes past the ring's horizon: these wait in the overflow heap
        // and must migrate into the ring in exact (at, seq) order.
        let mut q = EventQueue::new();
        let far = [1000.0, 999.0, 280.0, 275.0];
        for (i, secs) in far.iter().enumerate() {
            q.schedule(
                SimTime::from_secs_f64(*secs),
                Event::RtoTimer {
                    flow: i as u32,
                    generation: 0,
                },
            );
        }
        q.schedule(t(1), Event::FlowStart { flow: 9 });
        let mut times = Vec::new();
        while let Some((at, _)) = q.pop() {
            times.push(at);
        }
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), far.len() + 1);
        // Ties in the overflow heap keep insertion order.
        let mut q = EventQueue::new();
        let at = SimTime::from_secs_f64(300.0);
        q.schedule(
            at,
            Event::RtoTimer {
                flow: 0,
                generation: 1,
            },
        );
        q.schedule(
            at,
            Event::RtoTimer {
                flow: 0,
                generation: 2,
            },
        );
        let gens: Vec<u64> = (0..2)
            .map(|_| match q.pop().unwrap().1 {
                Event::RtoTimer { generation, .. } => generation,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(gens, vec![1, 2]);
    }

    #[test]
    fn reset_recycles_the_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Event::StatsTick);
        q.schedule(SimTime::from_secs_f64(60.0), Event::LinkReady { hop: 0 });
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        // Sequence numbers restart, so tie-breaking behaves like a fresh queue.
        q.schedule(t(5), Event::StatsTick);
        q.schedule(t(5), Event::LinkReady { hop: 0 });
        assert!(matches!(q.pop(), Some((_, Event::StatsTick))));
        assert!(matches!(q.pop(), Some((_, Event::LinkReady { hop: 0 }))));
    }

    /// The sizes the module documentation promises: a 16-byte event in a
    /// 32-byte calendar entry.
    #[test]
    fn events_and_entries_keep_their_size() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<ScheduledEvent>(), 32);
    }

    #[test]
    fn storage_tracks_pending_events_not_every_buckets_largest_burst() {
        // Every bucket of the ring takes a 200-event burst in turn, three
        // runs over. Per-bucket vectors would end holding each bucket's
        // largest burst, >= 4096 x 200 slots; the arena holds what is
        // pending and `cur` one bucket.
        const BURST: u64 = 200;
        let width = 1u64 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        let mut peak_pending = 0;
        for _ in 0..3 {
            q.reset();
            for bucket in 1..=NUM_BUCKETS as u64 {
                for i in 0..BURST {
                    let at = bucket * width + i * (width / BURST);
                    q.schedule(SimTime::from_nanos(at), Event::StatsTick);
                }
                peak_pending = peak_pending.max(q.len());
                let mut last = q.now();
                while let Some((at, _)) = q.pop() {
                    assert!(at >= last);
                    last = at;
                }
                assert!(q.nodes.capacity() <= 2 * peak_pending);
                assert!(q.cur.capacity() <= 2 * BURST as usize);
            }
        }
        assert_eq!(peak_pending, BURST as usize);
    }
}
