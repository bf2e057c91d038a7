//! Thread-count invariance of real campaigns, one test per hunt mode.
//!
//! The evaluation pool hands individuals (and, for non-annealed campaigns,
//! islands) to whichever worker is free, so *which* thread simulates what
//! differs run to run. Nothing observable may: the complete resumable state
//! after three generations, serialized exactly as a checkpoint would be, has
//! to be byte-identical for 1, 2, 3 and 8 threads. `GaParams::threads` is
//! the one field of that state that names the thread count, so it is
//! blanked before comparing. The initial population, which `Fuzzer::new`
//! builds island by island on the same pool, is held to the same standard
//! on its own.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::mode::{dispatch, ModeGenome, ModeVisitor};
use ccfuzz_core::scenario::QdiscChoice;
use ccfuzz_core::shard::LoopControl;
use ccfuzz_netsim::time::SimDuration;

/// Three generations over three islands: two evolutions and one migration.
fn small_ga(seed: u64, anneal: bool) -> GaParams {
    GaParams {
        islands: 3,
        population_per_island: 4,
        generations: 3,
        migration_interval: 2,
        anneal,
        seed,
        ..GaParams::quick()
    }
}

/// Runs the campaign to completion and returns its final snapshot as JSON.
struct FinalState(Campaign);

impl ModeVisitor for FinalState {
    type Out = String;

    fn visit<G: ModeGenome>(self) -> String {
        let run = self
            .0
            .run_controlled::<G>(None, &LoopControl::default(), None)
            .expect("campaign starts");
        let mut snapshot = run.final_snapshot;
        assert_eq!(snapshot.next_generation, 3);
        snapshot.params.threads = 0;
        serde_json::to_string(&G::wrap_snapshot(snapshot)).expect("snapshot serializes")
    }
}

/// Builds the campaign's fuzzer and returns its snapshot as JSON before
/// anything is evaluated: the initial population alone.
struct InitialState(Campaign);

impl ModeVisitor for InitialState {
    type Out = String;

    fn visit<G: ModeGenome>(self) -> String {
        let evaluator = self.0.evaluator();
        let fuzzer = self
            .0
            .build_fuzzer::<G>(&evaluator, None, None, 0, self.0.ga.islands)
            .expect("fuzzer builds");
        let mut snapshot = fuzzer.snapshot();
        assert_eq!(snapshot.evaluations, 0);
        snapshot.params.threads = 0;
        serde_json::to_string(&G::wrap_snapshot(snapshot)).expect("snapshot serializes")
    }
}

fn assert_thread_invariant(campaign: Campaign) {
    assert_state_thread_invariant(campaign, FinalState);
}

fn assert_state_thread_invariant<V: ModeVisitor<Out = String>>(
    campaign: Campaign,
    state_of: fn(Campaign) -> V,
) {
    let state = |threads: usize| {
        let mut campaign = campaign.clone();
        campaign.ga.threads = threads;
        dispatch(campaign.mode, state_of(campaign))
    };
    let single = state(1);
    for threads in [2, 3, 8] {
        assert!(
            single == state(threads),
            "{} campaign state differs between 1 and {threads} threads",
            campaign.mode.name()
        );
    }
}

const SIM: SimDuration = SimDuration::from_secs(2);

#[test]
fn link_campaign_with_annealing_is_thread_invariant() {
    // Annealed: evolution stays serial (one sequential annealing stream)
    // while evaluation still steals.
    assert_thread_invariant(Campaign::paper_standard(
        FuzzMode::Link,
        CcaKind::Bbr,
        SIM,
        small_ga(3, true),
    ));
}

#[test]
fn link_campaign_without_annealing_is_thread_invariant() {
    assert_thread_invariant(Campaign::paper_standard(
        FuzzMode::Link,
        CcaKind::Bbr,
        SIM,
        small_ga(3, false),
    ));
}

#[test]
fn traffic_campaign_is_thread_invariant() {
    assert_thread_invariant(Campaign::paper_standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SIM,
        small_ga(5, false),
    ));
}

#[test]
fn fairness_campaign_is_thread_invariant() {
    assert_thread_invariant(Campaign::paper_fairness(
        vec![CcaKind::Bbr, CcaKind::Reno, CcaKind::Cubic],
        SIM,
        small_ga(7, false),
    ));
}

#[test]
fn aqm_campaign_is_thread_invariant() {
    assert_thread_invariant(Campaign::paper_aqm(
        CcaKind::Cubic,
        SIM,
        small_ga(11, false),
        QdiscChoice::Any,
    ));
}

#[test]
fn topology_campaign_is_thread_invariant() {
    assert_thread_invariant(Campaign::paper_topology(
        CcaKind::Reno,
        3,
        SIM,
        small_ga(13, false),
    ));
}

#[test]
fn workload_campaign_is_thread_invariant() {
    assert_thread_invariant(Campaign::paper_workload(
        CcaKind::Reno,
        vec![CcaKind::Reno, CcaKind::Cubic],
        2,
        SIM,
        small_ga(17, false),
    ));
}

#[test]
fn initial_population_is_thread_invariant() {
    // More islands than workers at every thread count but 8, so islands are
    // stolen; the population must not depend on who drew which.
    let ga = GaParams {
        islands: 9,
        population_per_island: 5,
        ..small_ga(19, false)
    };
    for campaign in [
        Campaign::paper_standard(FuzzMode::Link, CcaKind::Bbr, SIM, ga),
        Campaign::paper_standard(FuzzMode::Traffic, CcaKind::Reno, SIM, ga),
        Campaign::paper_workload(
            CcaKind::Reno,
            vec![CcaKind::Reno, CcaKind::Cubic],
            2,
            SIM,
            ga,
        ),
    ] {
        assert_state_thread_invariant(campaign, InitialState);
    }
}
