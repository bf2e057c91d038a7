//! Proof of the one-population claim: a campaign holds one copy of its
//! population. Evolution breeds each island in the pool worker it moved
//! into and drops it once its successor exists, and the final snapshot
//! takes the islands instead of cloning them, so live heap over a whole
//! `Fuzzer::run` stays within one population plus the islands in flight.
//!
//! The population itself is small because link genomes hold their
//! timestamps packed: a built population costs at most
//! `MAX_BYTES_PER_TIMESTAMP` per service opportunity, everything else it
//! holds included. The packed bytes are shared, so a checkpoint, which
//! snapshots the islands while the run carries on, copies genome headers
//! and outcomes but no timestamps: a run that checkpoints every generation
//! and streams each snapshot out as pretty JSON stays within the same bound.
//!
//! A counting global allocator tracks live and peak live bytes. This lives
//! in its own integration-test binary so the allocator cannot perturb any
//! other test, and the single `#[test]` keeps the measurements apart.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::fuzzer::{FuzzerSnapshot, GaParams};
use ccfuzz_core::genome::LinkGenome;
use ccfuzz_core::shard::LoopControl;
use ccfuzz_core::trace_gen::packets_for_rate;
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
/// histories and best-genome copies the generation loop keeps. With 16 × 10
/// five-second BBR link genomes at 12 Mbps (a 2.2 MB packed population) the
/// peak reads about 0.6 MB above one population plus one island at one
/// thread and 0.9 MB above one population plus two islands at two. Holding
/// a second population, as cloning the final snapshot or breeding every
/// island before dropping any does, adds the whole 2.2 MB: cloning the
/// final snapshot reads 4.5 MB at one thread, past the 3.6 MB bound. At
/// 8 × 10 the packed population (1.1 MB) is too small next to the scratch
/// for that clone to show.
const SLACK: usize = 1 << 20;

/// Live bytes a built link population may hold per packet timestamp, its
/// outcomes and containers included. Packed, a 12 Mbps service curve's
/// timestamps take about 2.7 bytes each; held as `Vec<SimTime>` they take 8.
const MAX_BYTES_PER_TIMESTAMP: f64 = 3.5;

/// A link campaign of `islands` × 10 five-second BBR genomes, three
/// generations at `threads`.
fn campaign(islands: usize, threads: usize) -> Campaign {
    let ga = GaParams {
        islands,
        population_per_island: 10,
        generations: 3,
        migration_interval: 2,
        threads,
        ..GaParams::quick()
    };
    Campaign::paper_standard(FuzzMode::Link, CcaKind::Bbr, SimDuration::from_secs(5), ga)
}

/// Builds the campaign's fuzzer and returns `(population, timestamps)`: the
/// live bytes the freshly built fuzzer holds and the number of packet
/// timestamps its genomes carry.
fn built_population(campaign: &Campaign) -> (usize, usize) {
    let evaluator = campaign.evaluator();
    let before = LIVE.load(Ordering::Relaxed);
    let fuzzer = campaign
        .build_link_fuzzer(&evaluator, None, None)
        .expect("fuzzer builds");
    let population = LIVE.load(Ordering::Relaxed) - before;
    drop(fuzzer);
    let per_genome = packets_for_rate(campaign.link_rate_bps, campaign.sim.mss, campaign.duration);
    let genomes = campaign.ga.islands * campaign.ga.population_per_island;
    (population, genomes * per_genome)
}

/// Runs the campaign and returns `(population, peak)`: the live bytes the
/// freshly built fuzzer holds, and the peak live bytes over its `run` above
/// what was live before the build.
fn population_and_peak(campaign: &Campaign) -> (usize, usize) {
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

/// Runs the campaign under `Campaign::run_controlled`, checkpointing every
/// generation into a sink that streams the snapshot as pretty JSON (as
/// `ccfuzz hunt --checkpoint` writes it) into `io::sink()`, and returns the
/// peak live bytes over the run above what was live before it, and the
/// number of checkpoints taken.
fn checkpointing_peak(campaign: &Campaign) -> (usize, usize) {
    let ctl = LoopControl {
        checkpoint_every: 1,
        ..LoopControl::default()
    };
    let mut checkpoints = 0;
    let mut sink = |snapshot: FuzzerSnapshot<LinkGenome>| {
        serde_json::to_writer_pretty(std::io::sink(), &snapshot).expect("snapshot streams");
        checkpoints += 1;
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let run = campaign
        .run_controlled(None, &ctl, Some(&mut sink))
        .expect("campaign runs");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(run);
    (peak, checkpoints)
}

#[test]
fn a_run_holds_one_population_plus_the_islands_in_flight() {
    let (population, timestamps) = built_population(&campaign(8, 1));
    let per_timestamp = population as f64 / timestamps as f64;
    println!("8 x 10: population {population} B, {per_timestamp:.2} B per timestamp");
    assert!(
        per_timestamp <= MAX_BYTES_PER_TIMESTAMP,
        "the population holds {per_timestamp:.2} B per timestamp ({population} B for \
         {timestamps}); packed it holds at most {MAX_BYTES_PER_TIMESTAMP}"
    );
    for threads in [1usize, 2] {
        let (population, peak) = population_and_peak(&campaign(16, threads));
        let island = population / 16;
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
        let (peak, checkpoints) = checkpointing_peak(&campaign(16, threads));
        println!("threads {threads}, checkpointing: peak {peak} B, bound {bound} B");
        // One per boundary the run carries on past: after generations 1 and 2.
        assert_eq!(checkpoints, 2);
        assert!(
            peak <= bound,
            "threads {threads}: checkpointing every generation, peak live {peak} B exceeds \
             one population ({population} B) + {} islands ({island} B each) + {SLACK} B slack",
            threads + 1
        );
    }
}
