//! Mode-erased campaign checkpoint state and the result of a controlled run.
//!
//! A [`crate::fuzzer::FuzzerSnapshot`] is generic over its genome type; a
//! checkpoint file on disk, a worker frame or a daemon reply is not.
//! [`SnapshotPayload`] wraps the concrete genome populations behind one
//! serializable enum (mirroring [`crate::mode::GenomePayload`] for
//! findings). The erasure happens only where bytes leave the process: a
//! controlled run ([`crate::campaign::Campaign::run_controlled`]) takes and
//! hands out typed snapshots, and its caller wraps one when it writes.

use crate::campaign::FuzzMode;
use crate::fuzzer::{FuzzResult, FuzzerSnapshot, StopReason};
use crate::genome::{LinkGenome, TrafficGenome};
use crate::mode::{each_mode, served_names, ModeGenome};
use crate::scenario::ScenarioGenome;
use crate::topology::TopologyGenome;
use crate::workload::WorkloadGenome;
use serde::{Deserialize, Serialize};

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
        each_mode!(SnapshotPayload, self, type G => G::serves(mode))
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
        each_mode!(SnapshotPayload, self, s => s.next_generation)
    }

    /// Evaluations made before the snapshot was taken.
    pub fn evaluations(&self) -> usize {
        each_mode!(SnapshotPayload, self, s => s.evaluations)
    }

    /// Structural validation of the embedded snapshot (schema, shape,
    /// genome invariants). Run before trusting a payload loaded from disk.
    pub fn validate(&self) -> Result<(), String> {
        each_mode!(SnapshotPayload, self, s => s.validate())
    }

    /// [`Self::validate`] for one shard's slice: islands `start..end` full
    /// and valid, every other island empty
    /// ([`FuzzerSnapshot::validate_slice`]).
    pub fn validate_slice(&self, start: usize, end: usize) -> Result<(), String> {
        each_mode!(SnapshotPayload, self, s => s.validate_slice(start, end))
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
    use crate::shard::LoopControl;
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
            .run_controlled::<TrafficGenome>(None, &LoopControl::default(), None)
            .unwrap();
        let payload = SnapshotPayload::Traffic(run.final_snapshot);
        assert!(payload.matches_mode(FuzzMode::Traffic));
        assert!(!payload.matches_mode(FuzzMode::Link));
        assert!(!payload.matches_mode(FuzzMode::Fairness));
        assert_eq!(payload.next_generation(), 3);
        assert!(payload.evaluations() >= 6);
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
            .run_controlled::<TrafficGenome>(None, &LoopControl::default(), None)
            .unwrap();
        let payload = SnapshotPayload::Traffic(run.final_snapshot);
        let json = serde_json::to_string(&payload).unwrap();
        let back: SnapshotPayload = serde_json::from_str(&json).unwrap();
        assert_eq!(payload, back);
    }
}
