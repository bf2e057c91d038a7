//! Proof of the generation-arena claim: a *warm* worker evaluates genomes
//! with zero heap traffic. A counting global allocator wraps the system
//! allocator; after two warm-up passes grow every recycled buffer to its
//! steady-state capacity, a third pass over the same genome population must
//! perform no allocation (and no reallocation) in the evaluate phase.
//!
//! This lives in its own integration-test binary so the counting allocator
//! cannot perturb any other test, and the single `#[test]` keeps the
//! counter single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::evaluate::{EvalScratch, Evaluator};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::genome::{LinkGenome, TrafficGenome};
use ccfuzz_core::mode::ModeGenome;
use ccfuzz_core::scenario::ScenarioGenome;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::SimDuration;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Evaluates one island's worth of `campaign`'s genomes through a warm arena
/// and requires the measured pass — and 100 evaluations after it — to leave
/// the allocator and the arena's timestamp pool untouched.
fn assert_warm_evaluations_are_free<G: ModeGenome + PartialEq + std::fmt::Debug>(
    campaign: Campaign,
) {
    let mode = campaign.mode;
    let evaluator = campaign.evaluator();

    // Genomes are generated up front (genome generation is the GA's job and
    // allocates by design; the claim under test is the evaluate phase).
    let mut rng = SimRng::new(7);
    let genomes: Vec<G> = (0..8).map(|_| G::generate(&campaign, &mut rng)).collect();

    let mut scratch = EvalScratch::new();
    // Two warm-up passes: the first grows every arena buffer from empty;
    // the second lets the shared timestamp-buffer free list settle into its
    // steady-state capacity ordering.
    let warm: Vec<_> = genomes
        .iter()
        .map(|g| evaluator.evaluate_reusing(g, &mut scratch))
        .collect();
    for genome in &genomes {
        evaluator.evaluate_reusing(genome, &mut scratch);
    }

    // The measured pass: same population, warm arena.
    let pooled = scratch.sim.pooled_time_bufs();
    let before = allocations();
    let mut outcomes = Vec::with_capacity(genomes.len());
    let reserved = allocations();
    for genome in &genomes {
        outcomes.push(evaluator.evaluate_reusing(genome, &mut scratch));
    }
    let after = allocations();
    assert_eq!(
        after - reserved,
        0,
        "warm {mode:?} evaluate phase must not touch the allocator \
         ({} allocations across {} evaluations)",
        after - reserved,
        genomes.len()
    );
    // Sanity: the pre-reserved outcome vector was the only allocation
    // between the two reads.
    assert!(reserved - before <= 1);

    // Every evaluation returns exactly the timestamp buffers it took: the
    // arena holds a fixed set, not one more per evaluation.
    for genome in genomes.iter().cycle().take(100) {
        evaluator.evaluate_reusing(genome, &mut scratch);
    }
    assert_eq!(allocations(), after, "100 more {mode:?} evaluations");
    assert_eq!(
        scratch.sim.pooled_time_bufs(),
        pooled,
        "{mode:?} timestamp pool grew"
    );

    // Reuse never changes results: the warm outcomes equal both the earlier
    // reused pass and a cold evaluation.
    assert_eq!(warm, outcomes);
    for (genome, outcome) in genomes.iter().zip(&outcomes) {
        assert_eq!(evaluator.evaluate(genome), *outcome);
    }
}

/// The mini-campaign shape on the paper's standard simulation base —
/// exactly what one GA worker evaluates all day.
fn standard(mode: FuzzMode, cca: CcaKind, duration: SimDuration) -> Campaign {
    Campaign::paper_standard(mode, cca, duration, GaParams::quick())
}

#[test]
fn warm_evaluate_phase_allocates_nothing() {
    let three_s = SimDuration::from_secs(3);
    assert_warm_evaluations_are_free::<TrafficGenome>(standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        three_s,
    ));
    // Past the event calendar's ~4.3 s ring horizon: the cross-traffic
    // injections queued at time zero for later instants wait in the
    // calendar's overflow heap, whose storage must be recycled too.
    assert_warm_evaluations_are_free::<TrafficGenome>(standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SimDuration::from_secs(5),
    ));
    // Link mode moves a ~25 KB service curve per genome through the arena:
    // built in a pooled buffer, moved (never cloned) into the hop, returned.
    // BBR, the benchmark's link-mode CCA, keeps its bandwidth filter inline.
    assert_warm_evaluations_are_free::<LinkGenome>(standard(FuzzMode::Link, CcaKind::Bbr, three_s));
    // The benchmark's sixteen-flow fairness campaign, where calendar buckets
    // burst hardest: the node arena and the cursor bucket must be recycled.
    let flows = [CcaKind::Bbr, CcaKind::Reno, CcaKind::Cubic, CcaKind::Vegas].repeat(4);
    assert_warm_evaluations_are_free::<ScenarioGenome>(Campaign::paper_fairness(
        flows,
        three_s,
        GaParams::quick(),
    ));
}
