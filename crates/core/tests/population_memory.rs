//! Proof of the one-population claim: a campaign holds one copy of its
//! population. Evolution breeds each island in the pool worker it moved
//! into and drops it once its successor exists, and the final snapshot
//! takes the islands instead of cloning them, so live heap over a whole
//! `Fuzzer::run` stays within one population plus the islands in flight.
//!
//! A counting global allocator tracks live and peak live bytes. This lives
//! in its own integration-test binary so the allocator cannot perturb any
//! other test, and the single `#[test]` keeps the measurements apart.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_netsim::time::SimDuration;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allowed on top of the population and the islands in flight: the
/// simulator scratch each pool worker evaluates with, the reports,
/// histories and best-genome copies the generation loop keeps. The peak
/// reads about 0.6 MB above one population plus one island at one thread
/// (5 s BBR link simulations at 12 Mbps); holding a second population, as
/// cloning the final snapshot or breeding every island before dropping any
/// does, reads 3.4 MB above one population.
const SLACK: usize = 1 << 20;

/// Runs a small link campaign at `threads` and returns `(population, peak)`:
/// the live bytes the freshly built fuzzer holds, and the peak live bytes
/// over its `run` above what was live before the build.
fn population_and_peak(threads: usize) -> (usize, usize) {
    let ga = GaParams {
        islands: 8,
        population_per_island: 10,
        generations: 3,
        migration_interval: 2,
        threads,
        ..GaParams::quick()
    };
    let campaign =
        Campaign::paper_standard(FuzzMode::Link, CcaKind::Bbr, SimDuration::from_secs(5), ga);
    let evaluator = campaign.evaluator();
    let before = LIVE.load(Ordering::Relaxed);
    let mut fuzzer = campaign
        .build_link_fuzzer(&evaluator, None, None)
        .expect("fuzzer builds");
    let population = LIVE.load(Ordering::Relaxed) - before;
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let result = fuzzer.run();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(result.history.len(), 3);
    (population, peak)
}

#[test]
fn a_run_holds_one_population_plus_the_islands_in_flight() {
    for threads in [1usize, 2] {
        let (population, peak) = population_and_peak(threads);
        let island = population / 8;
        let bound = population + (threads + 1) * island + SLACK;
        println!(
            "threads {threads}: population {population} B, island {island} B, \
             peak {peak} B, bound {bound} B"
        );
        assert!(
            peak <= bound,
            "threads {threads}: peak live {peak} B exceeds one population ({population} B) \
             + {} islands ({island} B each) + {SLACK} B slack",
            threads + 1
        );
    }
}
