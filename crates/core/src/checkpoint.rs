//! Mode-erased campaign checkpoint state and the campaign control plane.
//!
//! A [`crate::fuzzer::FuzzerSnapshot`] is generic over its genome type; a
//! checkpoint file on disk is not. [`SnapshotPayload`] wraps the concrete
//! genome populations behind one serializable enum (mirroring
//! [`crate::mode::GenomePayload`] for findings), and [`CampaignControl`]
//! carries the shutdown flag, checkpoint cadence, panic budget and optional
//! resume state into [`crate::campaign::Campaign::run_controlled`].

use crate::campaign::FuzzMode;
use crate::fuzzer::{FuzzResult, FuzzerSnapshot, StopReason};
use crate::genome::{LinkGenome, TrafficGenome};
use crate::mode::{served_names, ModeGenome};
use crate::scenario::ScenarioGenome;
use crate::topology::TopologyGenome;
use crate::workload::WorkloadGenome;
use serde::{Deserialize, Serialize};
use std::sync::atomic::AtomicBool;

/// The resumable fuzzer state of one campaign, with the genome type erased
/// for persistence. `Scenario` serves both the fairness and AQM modes (they
/// share [`ScenarioGenome`]); the embedding checkpoint's campaign config
/// decides which.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SnapshotPayload {
    /// A traffic-mode population.
    Traffic(FuzzerSnapshot<TrafficGenome>),
    /// A link-mode population.
    Link(FuzzerSnapshot<LinkGenome>),
    /// A fairness- or AQM-mode population.
    Scenario(FuzzerSnapshot<ScenarioGenome>),
    /// A topology-mode population.
    Topology(FuzzerSnapshot<TopologyGenome>),
    /// A workload-mode population.
    Workload(FuzzerSnapshot<WorkloadGenome>),
}

impl SnapshotPayload {
    /// Whether this payload can resume a campaign of the given mode.
    pub fn matches_mode(&self, mode: FuzzMode) -> bool {
        match self {
            SnapshotPayload::Traffic(_) => TrafficGenome::serves(mode),
            SnapshotPayload::Link(_) => LinkGenome::serves(mode),
            SnapshotPayload::Scenario(_) => ScenarioGenome::serves(mode),
            SnapshotPayload::Topology(_) => TopologyGenome::serves(mode),
            SnapshotPayload::Workload(_) => WorkloadGenome::serves(mode),
        }
    }

    /// The error for unwrapping this payload as a `G` population.
    pub(crate) fn mismatch<G: ModeGenome>(&self) -> String {
        format!(
            "checkpoint holds a {} population, cannot resume a {} campaign",
            served_names(|m| self.matches_mode(m)),
            served_names(G::serves)
        )
    }

    /// The generation the resumed fuzzer will evaluate next.
    pub fn next_generation(&self) -> u32 {
        match self {
            SnapshotPayload::Traffic(s) => s.next_generation,
            SnapshotPayload::Link(s) => s.next_generation,
            SnapshotPayload::Scenario(s) => s.next_generation,
            SnapshotPayload::Topology(s) => s.next_generation,
            SnapshotPayload::Workload(s) => s.next_generation,
        }
    }

    /// Evaluations made before the snapshot was taken.
    pub fn evaluations(&self) -> usize {
        match self {
            SnapshotPayload::Traffic(s) => s.evaluations,
            SnapshotPayload::Link(s) => s.evaluations,
            SnapshotPayload::Scenario(s) => s.evaluations,
            SnapshotPayload::Topology(s) => s.evaluations,
            SnapshotPayload::Workload(s) => s.evaluations,
        }
    }

    /// Evaluation panics caught before the snapshot was taken.
    pub fn panics_caught(&self) -> u64 {
        match self {
            SnapshotPayload::Traffic(s) => s.panics.len() as u64,
            SnapshotPayload::Link(s) => s.panics.len() as u64,
            SnapshotPayload::Scenario(s) => s.panics.len() as u64,
            SnapshotPayload::Topology(s) => s.panics.len() as u64,
            SnapshotPayload::Workload(s) => s.panics.len() as u64,
        }
    }

    /// Structural validation of the embedded snapshot (schema, shape,
    /// genome invariants). Run before trusting a payload loaded from disk.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SnapshotPayload::Traffic(s) => s.validate(),
            SnapshotPayload::Link(s) => s.validate(),
            SnapshotPayload::Scenario(s) => s.validate(),
            SnapshotPayload::Topology(s) => s.validate(),
            SnapshotPayload::Workload(s) => s.validate(),
        }
    }

    /// Unwraps a traffic-mode snapshot. This and its three siblings are the
    /// monomorphic names of [`ModeGenome::unwrap_snapshot`] the benchmark
    /// harness compiles against.
    pub fn into_traffic(self) -> Result<FuzzerSnapshot<TrafficGenome>, String> {
        ModeGenome::unwrap_snapshot(self)
    }

    /// Unwraps a link-mode snapshot.
    pub fn into_link(self) -> Result<FuzzerSnapshot<LinkGenome>, String> {
        ModeGenome::unwrap_snapshot(self)
    }

    /// Unwraps a fairness/AQM-mode snapshot.
    pub fn into_scenario(self) -> Result<FuzzerSnapshot<ScenarioGenome>, String> {
        ModeGenome::unwrap_snapshot(self)
    }

    /// Unwraps a workload-mode snapshot.
    pub fn into_workload(self) -> Result<FuzzerSnapshot<WorkloadGenome>, String> {
        ModeGenome::unwrap_snapshot(self)
    }
}

/// External control plane for a campaign run: cooperative shutdown, periodic
/// checkpoints, panic budget, and (optionally) the snapshot to resume from.
/// The default is a plain uncontrolled run.
#[derive(Default)]
pub struct CampaignControl<'c> {
    /// Checked at generation boundaries; raising it stops the run with
    /// [`StopReason::Interrupted`] after the in-flight generation finishes.
    pub shutdown: Option<&'c AtomicBool>,
    /// Emit a checkpoint every this many completed generations (0 = never).
    pub checkpoint_every: u32,
    /// Receives each periodic checkpoint payload.
    pub on_checkpoint: Option<&'c mut dyn FnMut(SnapshotPayload)>,
    /// Caught evaluation panics tolerated before aborting (`None` =
    /// unlimited).
    pub panic_budget: Option<u64>,
    /// Resume from this snapshot instead of generating a fresh population.
    pub resume: Option<SnapshotPayload>,
}

/// Everything a controlled campaign run produced: the classic result, why
/// the run stopped, and the final resumable snapshot (which also carries the
/// accumulated panic log).
#[derive(Clone, Debug)]
pub struct ControlledRun<G> {
    /// Best trace, history and evaluation count — same as [`FuzzResult`]
    /// from an uncontrolled run.
    pub result: FuzzResult<G>,
    /// Why the run returned.
    pub stop: StopReason,
    /// The fuzzer's state at the stop boundary; persisting it makes any
    /// early stop resumable, and its `panics` field is the full panic log.
    pub final_snapshot: FuzzerSnapshot<G>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::fuzzer::GaParams;
    use ccfuzz_cca::CcaKind;
    use ccfuzz_netsim::time::SimDuration;

    fn tiny_ga() -> GaParams {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 3;
        ga.threads = 2;
        ga.seed = 5;
        ga
    }

    #[test]
    fn payload_mode_matching_covers_all_modes() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(1),
            tiny_ga(),
        );
        let run = c
            .run_controlled::<TrafficGenome>(None, CampaignControl::default())
            .unwrap();
        let payload = SnapshotPayload::Traffic(run.final_snapshot);
        assert!(payload.matches_mode(FuzzMode::Traffic));
        assert!(!payload.matches_mode(FuzzMode::Link));
        assert!(!payload.matches_mode(FuzzMode::Fairness));
        assert_eq!(payload.next_generation(), 3);
        assert!(payload.evaluations() >= 6);
        assert_eq!(payload.panics_caught(), 0);
        payload.validate().unwrap();
        let err = payload.into_scenario().unwrap_err();
        assert!(
            err.contains("a traffic population") && err.contains("a fairness/aqm campaign"),
            "{err}"
        );
    }

    #[test]
    fn payload_roundtrips_through_json() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(1),
            tiny_ga(),
        );
        let run = c
            .run_controlled::<TrafficGenome>(None, CampaignControl::default())
            .unwrap();
        let payload = SnapshotPayload::Traffic(run.final_snapshot);
        let json = serde_json::to_string(&payload).unwrap();
        let back: SnapshotPayload = serde_json::from_str(&json).unwrap();
        assert_eq!(payload, back);
    }
}
