//! The one place a fuzzing mode is tied to the genome type it evolves.
//!
//! CC-Fuzz is a single GA loop parameterised by *what is evolved*. Every
//! genome type implements [`ModeGenome`] once — which [`FuzzMode`]s it
//! serves, how a campaign draws an initial individual, how it lowers into a
//! [`SimConfig`] plus flow specs, how a finished run is scored, and how it
//! is type-erased for checkpoints and findings — and everything else
//! (campaigns, the evaluator, hunts, the distributed fleet, replay) is
//! generic over that trait. [`dispatch`] is the only `FuzzMode → genome
//! type` table in the workspace.

use crate::campaign::{Campaign, FuzzMode};
use crate::checkpoint::SnapshotPayload;
use crate::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use crate::fuzzer::{AnnealFn, FuzzerSnapshot};
use crate::genome::{Genome, LinkGenome, TrafficGenome};
use crate::scenario::ScenarioGenome;
use crate::scoring::ScoreScratch;
use crate::topology::TopologyGenome;
use crate::workload::WorkloadGenome;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::SimResult;
use serde::{Deserialize, Serialize};

/// A genome a campaign can evolve end to end.
pub trait ModeGenome: Genome + Serialize + Deserialize {
    /// Whether campaigns of `mode` evolve this genome type.
    fn serves(mode: FuzzMode) -> bool;

    /// Draws one individual of `campaign`'s initial population.
    fn generate(campaign: &Campaign, rng: &mut SimRng) -> Self;

    /// The between-generations annealing hook campaigns attach when
    /// `GaParams::anneal` is set (link service curves only).
    fn annealer() -> Option<Box<AnnealFn<Self>>> {
        None
    }

    /// Lowers the genome into a simulator configuration on top of
    /// `evaluator.base`, filling the arena's flow-spec (and, for dynamic
    /// arrivals, CCA-prototype) buffers from recycled storage.
    fn lower(&self, evaluator: &SimEvaluator, scratch: &mut EvalScratch) -> SimConfig;

    /// Scores a finished simulation of this genome.
    fn score(
        &self,
        evaluator: &SimEvaluator,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome;

    /// Erases the genome type of a fuzzer snapshot for persistence.
    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload;

    /// Recovers the typed snapshot, refusing payloads of another genome type.
    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String>;

    /// Erases the genome type for a finding or panic artifact.
    fn wrap(self) -> GenomePayload;

    /// Replaces the algorithm of the flow under test (replay against
    /// another CCA). Single-flow genomes carry no CCA of their own — the
    /// evaluator's is used — so the default does nothing.
    fn set_primary_cca(&mut self, _cca: CcaKind) {}

    /// The per-flow algorithms, in flow order, for genomes whose runs
    /// surface per-flow statistics (`None` for single-flow genomes).
    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        None
    }
}

/// A computation generic over the genome type, run by [`dispatch`] (Rust
/// has no generic closures, so the callers spell one out as a struct).
pub trait ModeVisitor {
    /// What the computation returns.
    type Out;

    /// Runs the computation for genome type `G`.
    fn visit<G: ModeGenome>(self) -> Self::Out;
}

/// Runs `visitor` with the genome type campaigns of `mode` evolve.
pub fn dispatch<V: ModeVisitor>(mode: FuzzMode, visitor: V) -> V::Out {
    match mode {
        FuzzMode::Link => visitor.visit::<LinkGenome>(),
        FuzzMode::Traffic => visitor.visit::<TrafficGenome>(),
        FuzzMode::Fairness | FuzzMode::Aqm => visitor.visit::<ScenarioGenome>(),
        FuzzMode::Topology => visitor.visit::<TopologyGenome>(),
        FuzzMode::Workload => visitor.visit::<WorkloadGenome>(),
    }
}

/// Evaluates `$body` for whichever variant a mode-erased payload enum
/// holds — [`GenomePayload`] and [`crate::checkpoint::SnapshotPayload`]
/// share their variant names — the payload twin of `ccfuzz_cca`'s
/// `dispatch!`. The `type G` form names the variant's genome type `G`; the
/// plain form binds its value.
macro_rules! each_mode {
    ($payload:ident, $value:expr, type $g:ident => $body:expr) => {
        match $value {
            $payload::Link(_) => {
                type $g = $crate::genome::LinkGenome;
                $body
            }
            $payload::Traffic(_) => {
                type $g = $crate::genome::TrafficGenome;
                $body
            }
            $payload::Scenario(_) => {
                type $g = $crate::scenario::ScenarioGenome;
                $body
            }
            $payload::Topology(_) => {
                type $g = $crate::topology::TopologyGenome;
                $body
            }
            $payload::Workload(_) => {
                type $g = $crate::workload::WorkloadGenome;
                $body
            }
        }
    };
    ($payload:ident, $value:expr, $inner:ident => $body:expr) => {
        match $value {
            $payload::Link($inner) => $body,
            $payload::Traffic($inner) => $body,
            $payload::Scenario($inner) => $body,
            $payload::Topology($inner) => $body,
            $payload::Workload($inner) => $body,
        }
    };
}
pub(crate) use each_mode;

/// `/`-joined names of the modes `serves` accepts (`"fairness/aqm"`), for
/// error messages about a payload or genome type.
pub fn served_names(serves: impl Fn(FuzzMode) -> bool) -> String {
    let names: Vec<&str> = FuzzMode::ALL
        .iter()
        .filter(|m| serves(**m))
        .map(|m| m.name())
        .collect();
    names.join("/")
}

/// The evolved trace/scenario of a finding, in any of the fuzzing modes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GenomePayload {
    /// A bottleneck service curve (link fuzzing).
    Link(LinkGenome),
    /// A cross-traffic injection pattern (traffic fuzzing).
    Traffic(TrafficGenome),
    /// A multi-flow scenario (fairness and AQM fuzzing).
    Scenario(ScenarioGenome),
    /// A multi-hop parking-lot topology (topology fuzzing).
    Topology(TopologyGenome),
    /// A dynamic-arrival workload (workload fuzzing).
    Workload(WorkloadGenome),
}

impl GenomePayload {
    /// `true` when this payload is a legal genome for `mode`.
    pub fn matches_mode(&self, mode: FuzzMode) -> bool {
        each_mode!(GenomePayload, self, type G => G::serves(mode))
    }

    /// Number of packets in the genome (cross-traffic packets for
    /// scenarios and topologies).
    pub fn packet_count(&self) -> usize {
        each_mode!(GenomePayload, self, g => g.packet_count())
    }

    /// Checks the genome's internal invariants.
    pub fn validate(&self) -> Result<(), String> {
        each_mode!(GenomePayload, self, g => g.validate())
    }
}
