//! Property test: the bucketed calendar queue pops in byte-identical order
//! to a reference `BinaryHeap` under adversarial (time, seq) schedules.
//!
//! The PR 3 hot-path rewrite replaced the simulator's `BinaryHeap` calendar
//! with a bucket ring + overflow heap whose contract is "pops are globally
//! ordered by (timestamp, schedule sequence), exactly like the heap was".
//! This file is the direct ordering oracle for that contract: every case
//! drives both implementations through the same interleaved schedule/pop
//! workload — including same-instant ties, sub-bucket clustering,
//! bucket-ring wraparound and far-future offsets that spill into (and later
//! migrate out of) the overflow heap — and requires the pop streams to be
//! identical element by element.
//!
//! Run with `CCFUZZ_PROPTEST_CASES=1000` (the CI property job does) for the
//! raised-case-count sweep; the vendored proptest derives every case's seed
//! from the test name, so runs are fully reproducible.

use cc_fuzz::netsim::event::{Event, EventQueue};
use cc_fuzz::netsim::time::SimDuration;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Case count: default suitable for `cargo test`, raised via
/// `CCFUZZ_PROPTEST_CASES` in the CI property job (and locally for deep
/// sweeps).
fn cases(default: u32) -> ProptestConfig {
    let n = std::env::var("CCFUZZ_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(n)
}

/// Maps a raw u64 to an offset (ns from "now") that exercises a specific
/// calendar regime: exact ties, sub-microsecond clusters, within-bucket,
/// within-horizon (forcing ring wraparound as the cursor advances), and
/// far beyond the ~4.3 s horizon (overflow-heap spill + migration).
fn offset_ns(raw: u64) -> u64 {
    match raw % 5 {
        0 => 0,
        1 => raw % 1_000,
        2 => raw % 5_000_000,
        3 => raw % 1_000_000_000,
        _ => 5_000_000_000 + raw % 30_000_000_000,
    }
}

/// Pops one event from each of `calendar` and `reference` and requires the
/// same `(time, seq)`.
fn pop_matches_reference(
    calendar: &mut EventQueue,
    reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
) {
    match (calendar.pop(), reference.pop()) {
        (Some((at, Event::RtoTimer { generation, .. })), Some(Reverse(expect))) => {
            assert_eq!((at.as_nanos(), generation), expect);
        }
        (got, expect) => panic!("stream mismatch: {got:?} vs {expect:?}"),
    }
}

proptest! {
    #![proptest_config(cases(1000))]

    #[test]
    fn calendar_pop_order_matches_binary_heap_reference(
        raws in collection::vec(any::<u64>(), 1..250),
        pop_every in 1usize..4,
        burst in 1usize..4,
    ) {
        let mut calendar = EventQueue::new();
        // The reference oracle: a plain min-heap on (time, seq) — the exact
        // structure (and order contract) the pre-PR3 simulator used.
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;

        let mut raws = raws.into_iter();
        'outer: loop {
            // Schedule a small burst relative to the calendar's current now
            // (scheduling in the past is forbidden by contract).
            for _ in 0..burst {
                let Some(raw) = raws.next() else { break 'outer };
                let at = calendar.now() + SimDuration::from_nanos(offset_ns(raw));
                reference.push(Reverse((at.as_nanos(), seq)));
                calendar.schedule(at, Event::RtoTimer { flow: 0, generation: seq });
                seq += 1;
            }
            // Interleave pops so the cursor bucket is drained mid-fill and
            // late arrivals land in a partially consumed bucket.
            if (seq as usize).is_multiple_of(pop_every) {
                match (calendar.pop(), reference.pop()) {
                    (Some((at, Event::RtoTimer { generation, .. })), Some(Reverse(expect))) => {
                        prop_assert_eq!((at.as_nanos(), generation), expect);
                    }
                    (None, None) => {}
                    (got, expect) => {
                        prop_assert!(false, "stream mismatch: {got:?} vs {expect:?}");
                    }
                }
            }
        }

        // Drain both completely: every remaining event must come out in the
        // exact (time, seq) order of the reference heap.
        prop_assert_eq!(calendar.len(), reference.len());
        while let Some(Reverse(expect)) = reference.pop() {
            let (at, event) = calendar.pop().expect("calendar shorter than reference");
            let Event::RtoTimer { generation, .. } = event else {
                prop_assert!(false, "unexpected event {event:?}");
                unreachable!();
            };
            prop_assert_eq!((at.as_nanos(), generation), expect);
        }
        prop_assert!(calendar.pop().is_none());
        prop_assert!(calendar.is_empty());
    }

    #[test]
    fn one_reused_calendar_matches_the_reference_across_resets(
        runs in collection::vec(collection::vec(any::<u64>(), 1..150), 2..6),
        pop_every in 1usize..4,
    ) {
        // A simulation reuses one calendar for every evaluation of a pass, so
        // reset() must recycle the node arena, its free list, the cursor
        // bucket and the overflow heap without carrying anything over. Each
        // run leaves part of its schedule pending when the next reset comes.
        let mut calendar = EventQueue::new();
        for raws in runs {
            calendar.reset();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            for (seq, raw) in (0u64..).zip(&raws) {
                let at = calendar.now() + SimDuration::from_nanos(offset_ns(*raw));
                reference.push(Reverse((at.as_nanos(), seq)));
                calendar.schedule(at, Event::RtoTimer { flow: 0, generation: seq });
                if (seq as usize + 1).is_multiple_of(pop_every) {
                    pop_matches_reference(&mut calendar, &mut reference);
                }
            }
            let keep = raws[0] as usize % (reference.len() + 1);
            while reference.len() > keep {
                pop_matches_reference(&mut calendar, &mut reference);
            }
            prop_assert_eq!(calendar.len(), keep);
        }
    }

    #[test]
    fn calendar_reset_behaves_like_a_fresh_queue(
        raws in collection::vec(any::<u64>(), 1..60),
        drain in 0usize..30,
    ) {
        // Scratch reuse depends on reset() restoring fresh-queue semantics
        // (sequence numbers restart, cursor back at t=0). Drive a used and
        // a fresh queue through the same post-reset schedule and require
        // identical pop streams.
        let mut used = EventQueue::new();
        for (i, raw) in raws.iter().enumerate() {
            used.schedule(
                used.now() + SimDuration::from_nanos(offset_ns(*raw)),
                Event::RtoTimer { flow: 0, generation: i as u64 },
            );
        }
        for _ in 0..drain.min(raws.len()) {
            used.pop();
        }
        used.reset();

        let mut fresh = EventQueue::new();
        for (i, raw) in raws.iter().enumerate() {
            let at_used = used.now() + SimDuration::from_nanos(offset_ns(*raw));
            let at_fresh = fresh.now() + SimDuration::from_nanos(offset_ns(*raw));
            used.schedule(at_used, Event::RtoTimer { flow: 0, generation: i as u64 });
            fresh.schedule(at_fresh, Event::RtoTimer { flow: 0, generation: i as u64 });
        }
        loop {
            match (used.pop(), fresh.pop()) {
                (None, None) => break,
                (Some((ta, Event::RtoTimer { generation: ga, .. })),
                 Some((tb, Event::RtoTimer { generation: gb, .. }))) => {
                    prop_assert_eq!((ta, ga), (tb, gb));
                }
                (a, b) => prop_assert!(false, "reset queue diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
