//! Per-mode adapters: the handful of mode-specific public functions the
//! traced run calls, behind one trait so the campaign driver and the probes
//! are written once. One zero-sized type per mode a workload uses.

use ccfuzz_core::campaign::Campaign;
use ccfuzz_core::checkpoint::SnapshotPayload;
use ccfuzz_core::evaluate::{EvalOutcome, EvalScratch, Evaluator, SimEvaluator};
use ccfuzz_core::fuzzer::{Fuzzer, FuzzerSnapshot};
use ccfuzz_core::genome::{Genome, LinkGenome, TrafficGenome};
use ccfuzz_core::scenario::ScenarioGenome;
use ccfuzz_core::scoring::{ScoreScratch, TraceScoreInputs};
use ccfuzz_core::workload::WorkloadGenome;
use ccfuzz_corpus::GenomePayload;
use ccfuzz_netsim::SimResult;
use ccfuzz_obs::HuntTelemetry;
use serde::{Deserialize, Serialize};

/// The mode-specific calls of the traced run.
pub trait ModeOps {
    /// The mode's genome type.
    type G: Genome + Serialize + Deserialize + PartialEq;

    /// `Campaign::build_*_fuzzer`, fresh from the campaign seed.
    fn build<'e>(
        campaign: &Campaign,
        evaluator: &'e SimEvaluator,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, Self::G, SimEvaluator>, String>
    where
        SimEvaluator: Evaluator<Self::G>;

    /// `SimEvaluator::simulate_*_reusing`.
    fn simulate(evaluator: &SimEvaluator, genome: &Self::G, scratch: &mut EvalScratch)
        -> SimResult;

    /// `EvalOutcome::from_*_result_reusing`.
    fn score(
        evaluator: &SimEvaluator,
        genome: &Self::G,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome;

    /// Erases the genome type of a snapshot.
    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self::G>) -> SnapshotPayload;

    /// Recovers the typed snapshot.
    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self::G>, String>;

    /// Erases the genome type of a finding's genome.
    fn wrap_genome(genome: Self::G) -> GenomePayload;
}

/// `--mode link`.
pub struct LinkMode;
/// `--mode traffic`.
pub struct TrafficMode;
/// `--mode fairness`.
pub struct FairnessMode;
/// `--mode workload`.
pub struct WorkloadMode;

impl ModeOps for LinkMode {
    type G = LinkGenome;

    fn build<'e>(
        campaign: &Campaign,
        evaluator: &'e SimEvaluator,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, LinkGenome, SimEvaluator>, String> {
        campaign.build_link_fuzzer(evaluator, None, obs)
    }

    fn simulate(
        evaluator: &SimEvaluator,
        genome: &LinkGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        evaluator.simulate_link_reusing(genome, scratch)
    }

    fn score(
        evaluator: &SimEvaluator,
        _genome: &LinkGenome,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        EvalOutcome::from_result_reusing(
            &evaluator.scoring,
            result,
            evaluator.base.mss,
            None,
            scratch,
        )
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<LinkGenome>) -> SnapshotPayload {
        SnapshotPayload::Link(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<LinkGenome>, String> {
        payload.into_link()
    }

    fn wrap_genome(genome: LinkGenome) -> GenomePayload {
        GenomePayload::Link(genome)
    }
}

impl ModeOps for TrafficMode {
    type G = TrafficGenome;

    fn build<'e>(
        campaign: &Campaign,
        evaluator: &'e SimEvaluator,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, TrafficGenome, SimEvaluator>, String> {
        campaign.build_traffic_fuzzer(evaluator, None, obs)
    }

    fn simulate(
        evaluator: &SimEvaluator,
        genome: &TrafficGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        evaluator.simulate_traffic_reusing(genome, scratch)
    }

    fn score(
        evaluator: &SimEvaluator,
        genome: &TrafficGenome,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let inputs = TraceScoreInputs {
            traffic_packets: genome.packet_count(),
            traffic_max_packets: genome.max_packets,
            traffic_dropped: result.stats.cross_dropped,
        };
        EvalOutcome::from_result_reusing(
            &evaluator.scoring,
            result,
            evaluator.base.mss,
            Some(inputs),
            scratch,
        )
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<TrafficGenome>) -> SnapshotPayload {
        SnapshotPayload::Traffic(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<TrafficGenome>, String> {
        payload.into_traffic()
    }

    fn wrap_genome(genome: TrafficGenome) -> GenomePayload {
        GenomePayload::Traffic(genome)
    }
}

impl ModeOps for FairnessMode {
    type G = ScenarioGenome;

    fn build<'e>(
        campaign: &Campaign,
        evaluator: &'e SimEvaluator,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, ScenarioGenome, SimEvaluator>, String> {
        campaign.build_fairness_fuzzer(evaluator, None, obs)
    }

    fn simulate(
        evaluator: &SimEvaluator,
        genome: &ScenarioGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        evaluator.simulate_scenario_reusing(genome, scratch)
    }

    fn score(
        evaluator: &SimEvaluator,
        genome: &ScenarioGenome,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        EvalOutcome::from_scenario_result_reusing(
            &evaluator.scoring,
            result,
            evaluator.base.mss,
            genome,
            scratch,
        )
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<ScenarioGenome>) -> SnapshotPayload {
        SnapshotPayload::Scenario(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<ScenarioGenome>, String> {
        payload.into_scenario()
    }

    fn wrap_genome(genome: ScenarioGenome) -> GenomePayload {
        GenomePayload::Scenario(genome)
    }
}

impl ModeOps for WorkloadMode {
    type G = WorkloadGenome;

    fn build<'e>(
        campaign: &Campaign,
        evaluator: &'e SimEvaluator,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, WorkloadGenome, SimEvaluator>, String> {
        campaign.build_workload_fuzzer(evaluator, None, obs)
    }

    fn simulate(
        evaluator: &SimEvaluator,
        genome: &WorkloadGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        evaluator.simulate_workload_reusing(genome, scratch)
    }

    fn score(
        evaluator: &SimEvaluator,
        genome: &WorkloadGenome,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        EvalOutcome::from_workload_result_reusing(
            &evaluator.scoring,
            result,
            evaluator.base.mss,
            genome,
            scratch,
        )
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<WorkloadGenome>) -> SnapshotPayload {
        SnapshotPayload::Workload(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<WorkloadGenome>, String> {
        payload.into_workload()
    }

    fn wrap_genome(genome: WorkloadGenome) -> GenomePayload {
        GenomePayload::Workload(genome)
    }
}
