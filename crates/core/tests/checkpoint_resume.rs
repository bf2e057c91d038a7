//! Kill-and-resume determinism for every hunt mode, in-process.
//!
//! Each test runs a tiny campaign twice: once uninterrupted (the control),
//! and once interrupted at a pseudo-random generation boundary — the
//! shutdown flag is raised from the checkpoint callback, the final snapshot
//! is serialized to JSON, deserialized, and the campaign is resumed from it.
//! The resumed trajectory must match the control bit-for-bit: same best
//! genome, same outcome bits, same history, same evaluation count. This is
//! the in-process half of the crash-safety contract; the CLI tests and the
//! CI crash-smoke job cover the process-level (SIGKILL) half.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::checkpoint::SnapshotPayload;
use ccfuzz_core::fuzzer::{FuzzResult, FuzzerSnapshot, GaParams, StopReason};
use ccfuzz_core::genome::{LinkGenome, TrafficGenome};
use ccfuzz_core::mode::ModeGenome;
use ccfuzz_core::scenario::{QdiscChoice, ScenarioGenome};
use ccfuzz_core::shard::LoopControl;
use ccfuzz_core::topology::TopologyGenome;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::SimDuration;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn tiny_ga(seed: u64) -> GaParams {
    let mut ga = GaParams::quick();
    ga.islands = 2;
    ga.population_per_island = 3;
    ga.generations = 4;
    ga.threads = 2;
    ga.seed = seed;
    ga
}

/// Runs `campaign` under control, interrupting at `kill_after` completed
/// generations, then resumes from a JSON-roundtripped checkpoint and returns
/// the resumed final result.
fn interrupt_and_resume<G: ModeGenome>(campaign: &Campaign, kill_after: u32) -> FuzzResult<G> {
    let shutdown = AtomicBool::new(false);
    let mut generations_seen = 0u32;
    let mut on_checkpoint = |_snapshot: FuzzerSnapshot<G>| {
        generations_seen += 1;
        if generations_seen >= kill_after {
            shutdown.store(true, Ordering::SeqCst);
        }
    };
    let interrupted = campaign
        .run_controlled::<G>(
            None,
            &LoopControl {
                shutdown: Some(&shutdown),
                checkpoint_every: 1,
                ..LoopControl::default()
            },
            Some(&mut on_checkpoint),
        )
        .expect("interrupted leg starts");
    assert_eq!(
        interrupted.stop,
        StopReason::Interrupted,
        "the shutdown flag must stop the run mid-campaign"
    );

    // Serialize → deserialize the checkpoint exactly as the CLI would.
    let payload = G::wrap_snapshot(interrupted.final_snapshot);
    let json = serde_json::to_string(&payload).expect("checkpoint serializes");
    let restored: SnapshotPayload = serde_json::from_str(&json).expect("checkpoint parses");
    assert_eq!(payload, restored);

    let resume = G::unwrap_snapshot(restored).expect("checkpoint holds a G population");
    let resumed = campaign
        .run_controlled::<G>(Some(resume), &LoopControl::default(), None)
        .expect("resumed leg starts");
    assert_eq!(resumed.stop, StopReason::Completed);
    resumed.result
}

fn assert_same_trajectory<G: PartialEq + std::fmt::Debug>(
    control: &FuzzResult<G>,
    resumed: &FuzzResult<G>,
) {
    assert_eq!(control.best_genome, resumed.best_genome);
    assert_eq!(
        control.best_outcome.score.to_bits(),
        resumed.best_outcome.score.to_bits()
    );
    assert_eq!(control.best_outcome, resumed.best_outcome);
    assert_eq!(control.history, resumed.history);
    assert_eq!(control.total_evaluations, resumed.total_evaluations);
}

/// Picks the interruption generation pseudo-randomly (but reproducibly)
/// from the mode seed, exercising a different boundary per mode.
fn random_kill_generation(seed: u64, generations: u32) -> u32 {
    // Boundaries exist after generations 1..generations-1 (the last
    // generation never evolves, so the latest interruptible boundary is
    // generations-1).
    1 + SimRng::new(seed ^ 0xc0ffee).gen_range_usize(0, (generations - 1) as usize) as u32
}

#[test]
fn traffic_kill_and_resume_matches_control() {
    let c = Campaign::paper_standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SimDuration::from_secs(2),
        tiny_ga(42),
    );
    let control = c.run::<TrafficGenome>(None);
    let kill = random_kill_generation(42, c.ga.generations);
    let resumed = interrupt_and_resume::<TrafficGenome>(&c, kill);
    assert_same_trajectory(&control, &resumed);
}

#[test]
fn link_kill_and_resume_matches_control_with_annealing() {
    // Annealing state (the dedicated RNG stream) must survive the
    // checkpoint: this is the mode that would silently diverge if it didn't.
    let mut ga = tiny_ga(7);
    ga.anneal = true;
    let c = Campaign::paper_standard(
        FuzzMode::Link,
        CcaKind::Cubic,
        SimDuration::from_secs(2),
        ga,
    );
    let control = c.run::<LinkGenome>(None);
    let kill = random_kill_generation(7, c.ga.generations);
    let resumed = interrupt_and_resume::<LinkGenome>(&c, kill);
    assert_same_trajectory(&control, &resumed);
}

#[test]
fn fairness_kill_and_resume_matches_control() {
    let c = Campaign::paper_fairness(
        vec![CcaKind::Bbr, CcaKind::Reno],
        SimDuration::from_secs(2),
        tiny_ga(11),
    );
    let control = c.run::<ScenarioGenome>(None);
    let kill = random_kill_generation(11, c.ga.generations);
    let resumed = interrupt_and_resume::<ScenarioGenome>(&c, kill);
    assert_same_trajectory(&control, &resumed);
}

#[test]
fn aqm_kill_and_resume_matches_control() {
    let c = Campaign::paper_aqm(
        CcaKind::Reno,
        SimDuration::from_secs(2),
        tiny_ga(13),
        QdiscChoice::Any,
    );
    let control = c.run::<ScenarioGenome>(None);
    let kill = random_kill_generation(13, c.ga.generations);
    let resumed = interrupt_and_resume::<ScenarioGenome>(&c, kill);
    assert_same_trajectory(&control, &resumed);
}

#[test]
fn topology_kill_and_resume_matches_control() {
    let c = Campaign::paper_topology(CcaKind::Bbr, 3, SimDuration::from_secs(2), tiny_ga(17));
    let control = c.run::<TopologyGenome>(None);
    let kill = random_kill_generation(17, c.ga.generations);
    let resumed = interrupt_and_resume::<TopologyGenome>(&c, kill);
    assert_same_trajectory(&control, &resumed);
}

#[test]
fn resuming_a_completed_checkpoint_reproduces_the_result() {
    // Resume-of-complete is the SIGKILL edge case where the process died
    // after the final checkpoint: the resumed run must re-emit the identical
    // result instead of failing.
    let c = Campaign::paper_standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SimDuration::from_secs(2),
        tiny_ga(42),
    );
    let done = c
        .run_controlled::<TrafficGenome>(None, &LoopControl::default(), None)
        .unwrap();
    let resume = Some(done.final_snapshot);
    let replayed = c
        .run_controlled::<TrafficGenome>(resume, &LoopControl::default(), None)
        .unwrap();
    assert_eq!(replayed.stop, StopReason::Completed);
    assert_same_trajectory(&done.result, &replayed.result);
}

#[test]
fn mismatched_checkpoints_are_rejected() {
    let traffic = Campaign::paper_standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SimDuration::from_secs(1),
        tiny_ga(1),
    );
    let run = traffic
        .run_controlled::<TrafficGenome>(None, &LoopControl::default(), None)
        .unwrap();
    let payload = SnapshotPayload::Traffic(run.final_snapshot.clone());

    // Wrong genome kind: the payload cannot even be unwrapped for a link
    // campaign.
    let err = LinkGenome::unwrap_snapshot(payload).unwrap_err();
    assert!(err.contains("traffic population"), "{err}");

    // Wrong GA parameters.
    let mut other = traffic.clone();
    other.ga.seed = 999;
    let err = other
        .run_controlled::<TrafficGenome>(Some(run.final_snapshot), &LoopControl::default(), None)
        .unwrap_err();
    assert!(err.contains("GA parameters"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint serde roundtrip at an arbitrary boundary: snapshot →
    /// serialize → restore must replay an identical next generation (and
    /// the rest of the campaign) for an arbitrary seed.
    #[test]
    fn traffic_checkpoint_roundtrip_replays_identically(
        seed in 1u64..1_000_000,
        kill_after in 1u32..4,
    ) {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(1),
            tiny_ga(seed),
        );
        let control = c.run::<TrafficGenome>(None);
        let resumed =
            interrupt_and_resume::<TrafficGenome>(&c, kill_after);
        prop_assert_eq!(&control.best_genome, &resumed.best_genome);
        prop_assert_eq!(
            control.best_outcome.score.to_bits(),
            resumed.best_outcome.score.to_bits()
        );
        prop_assert_eq!(&control.history, &resumed.history);
        prop_assert_eq!(control.total_evaluations, resumed.total_evaluations);
    }
}
