//! The [`Finding`]: one self-contained, replayable adversarial scenario.
//!
//! A finding bundles everything needed to re-run a discovered trace against
//! the simulator years later: the genome, the CCA under test, the complete
//! simulation configuration, the scoring configuration, the recorded score
//! breakdown, the behaviour signature used for deduplication, and provenance
//! (seed, generations, whether it has been minimized).

use crate::signature::BehaviorSignature;
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use ccfuzz_core::mode::ModeGenome;
use ccfuzz_core::scoring::{fairness_breakdown, ScoreScratch, ScoringConfig};
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::sim::SimResult;
use serde::{Deserialize, Serialize};

pub use ccfuzz_core::mode::GenomePayload;

/// Recorded per-flow fairness results of a scenario finding, so reports can
/// show the flow split without re-simulating.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FairnessSummary {
    /// CCA name of each flow, in flow order.
    pub per_flow_cca: Vec<String>,
    /// Sink-side goodput of each flow over its active interval, bits/s.
    pub per_flow_goodput_bps: Vec<f64>,
    /// Distinct packets each flow delivered.
    pub per_flow_delivered: Vec<u64>,
    /// Jain's index over the per-flow goodput.
    pub jain_index: f64,
    /// Longest zero-delivery interval of any flow, seconds.
    pub max_starvation_secs: f64,
}

/// Where a finding came from and what has happened to it since.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Master GA seed of the campaign that discovered the finding.
    pub seed: u64,
    /// Generations the campaign ran.
    pub generations: u32,
    /// Evaluations the campaign made (reused outcomes included).
    pub total_evaluations: u64,
    /// Whether the genome has been through trace minimization.
    pub minimized: bool,
    /// The score before minimization (equals the current score otherwise).
    pub original_score: f64,
    /// Packet count before minimization.
    pub original_packets: u64,
}

/// One persistent, replayable finding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Stable identifier: `{cca}-{mode}-{signature key as hex}`.
    pub id: String,
    /// Algorithm under test.
    pub cca: CcaKind,
    /// Fuzzing mode.
    pub mode: FuzzMode,
    /// The adversarial trace.
    pub genome: GenomePayload,
    /// Complete base simulation settings (the evaluator overwrites the link
    /// model / cross-traffic fields from the genome at replay time).
    pub sim: SimConfig,
    /// Scoring configuration the score was computed under.
    pub scoring: ScoringConfig,
    /// Bottleneck rate: fixed rate in traffic mode, average rate in link mode.
    pub link_rate_bps: u64,
    /// Recorded score breakdown at discovery (or after minimization).
    pub outcome: EvalOutcome,
    /// Quantized behaviour fingerprint (the dedup key).
    pub signature: BehaviorSignature,
    /// Full behaviour digest of the recorded run (`RunStats::digest`): the
    /// replay-determinism fingerprint. Replay verifies this, which catches
    /// simulator behaviour changes even when they leave the score intact.
    pub behavior_digest: u64,
    /// Discovery and minimization history.
    pub provenance: Provenance,
    /// Per-flow fairness results (fairness-mode findings only). Omitted when
    /// absent and tolerated when missing, so findings committed before the
    /// multi-flow engine existed deserialize unchanged and re-serialize
    /// byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fairness: Option<FairnessSummary>,
}

/// Formats a finding id from its parts.
pub fn finding_id(cca: CcaKind, mode: FuzzMode, signature: &BehaviorSignature) -> String {
    format!("{}-{}-{:010x}", cca.name(), mode.name(), signature.key())
}

impl Finding {
    /// Wraps a campaign's best genome into a persistent finding.
    pub fn from_campaign(
        campaign: &Campaign,
        genome: GenomePayload,
        outcome: EvalOutcome,
        total_evaluations: u64,
    ) -> Finding {
        let signature = BehaviorSignature::from_outcome(&outcome, campaign.link_rate_bps as f64);
        let mut finding = Finding {
            id: finding_id(campaign.cca, campaign.mode, &signature),
            cca: campaign.cca,
            mode: campaign.mode,
            sim: campaign.sim.clone(),
            scoring: campaign.scoring,
            link_rate_bps: campaign.link_rate_bps,
            outcome,
            signature,
            behavior_digest: 0,
            provenance: Provenance {
                seed: campaign.ga.seed,
                generations: campaign.ga.generations,
                total_evaluations,
                minimized: false,
                original_score: outcome.score,
                original_packets: genome.packet_count() as u64,
            },
            genome,
            fairness: None,
        };
        // One simulation provides both the digest and (for scenarios) the
        // per-flow fairness summary.
        let (_, digest, fairness) = finding.replay_full(None);
        finding.behavior_digest = digest;
        finding.fairness = fairness;
        finding
    }

    /// The simulator-backed evaluator that reproduces this finding's scores.
    pub fn evaluator(&self) -> SimEvaluator {
        SimEvaluator::new(self.sim.clone(), self.cca, self.scoring, self.link_rate_bps)
    }

    /// Re-runs the stored genome through one fresh deterministic simulation,
    /// optionally against a different CCA, returning both the scored outcome
    /// and the run's behaviour digest. One simulation serves both purposes —
    /// this is the hot path of `ccfuzz replay`. For scenario findings the
    /// CCA override replaces the *primary* flow's algorithm; the competing
    /// flows keep theirs.
    pub fn replay_run(&self, cca: Option<CcaKind>) -> (EvalOutcome, u64) {
        let (outcome, digest, _) = self.replay_full(cca);
        (outcome, digest)
    }

    /// Like [`Finding::replay_run`], but the single simulation additionally
    /// yields the per-flow fairness summary for multi-flow findings (`None`
    /// for single-flow genomes). Simulations dominate the cost of creating,
    /// minimizing and replaying findings, so everything that needs both the
    /// digest and the fairness breakdown goes through here.
    pub fn replay_full(&self, cca: Option<CcaKind>) -> (EvalOutcome, u64, Option<FairnessSummary>) {
        let (outcome, fairness, result) = self.replay(cca, false);
        (outcome, result.stats.digest(), fairness)
    }

    /// Like [`Finding::replay_run`], but recording the run log: returns the
    /// scored outcome, the behaviour digest and the recorded run. Recording
    /// is passive, so the digest still matches the stored one — `ccfuzz
    /// trace` checks this and the corpus determinism tests pin it for every
    /// committed fixture.
    pub fn replay_recorded(&self) -> (EvalOutcome, u64, SimResult) {
        let (outcome, _, result) = self.replay(None, true);
        (outcome, result.stats.digest(), result)
    }

    fn replay(
        &self,
        cca: Option<CcaKind>,
        record_events: bool,
    ) -> (EvalOutcome, Option<FairnessSummary>, SimResult) {
        match &self.genome {
            GenomePayload::Link(g) => self.replay_genome(g, cca, record_events),
            GenomePayload::Traffic(g) => self.replay_genome(g, cca, record_events),
            GenomePayload::Scenario(g) => self.replay_genome(g, cca, record_events),
            GenomePayload::Topology(g) => self.replay_genome(g, cca, record_events),
            GenomePayload::Workload(g) => self.replay_genome(g, cca, record_events),
        }
    }

    /// The one replay path of every genome type: a fresh deterministic
    /// simulation scored exactly as the hunt scored it. A CCA override
    /// replaces the evaluator's algorithm and the genome's primary flow; the
    /// competing flows keep theirs.
    fn replay_genome<G: ModeGenome>(
        &self,
        genome: &G,
        cca: Option<CcaKind>,
        record_events: bool,
    ) -> (EvalOutcome, Option<FairnessSummary>, SimResult) {
        let mut evaluator = self.evaluator();
        let overridden = cca.map(|cca| {
            evaluator.cca = cca;
            let mut genome = genome.clone();
            genome.set_primary_cca(cca);
            genome
        });
        let genome = overridden.as_ref().unwrap_or(genome);
        let result = evaluator.simulate(genome, &mut EvalScratch::new(), record_events);
        let outcome = genome.score(&evaluator, &result, &mut ScoreScratch::default());
        // Multi-flow findings keep the per-flow split so reports can show
        // it without re-simulating.
        let fairness = genome.flow_ccas().map(|ccas| {
            let breakdown = fairness_breakdown(&result, evaluator.base.mss);
            FairnessSummary {
                per_flow_cca: ccas.iter().map(|cca| cca.name().to_string()).collect(),
                per_flow_goodput_bps: breakdown.per_flow_goodput_bps,
                per_flow_delivered: breakdown.per_flow_delivered,
                jain_index: breakdown.jain_index,
                max_starvation_secs: breakdown.max_starvation_secs,
            }
        });
        (outcome, fairness, result)
    }

    /// Checks internal consistency (genome invariants, id/signature match,
    /// mode/genome agreement).
    pub fn validate(&self) -> Result<(), String> {
        self.genome.validate()?;
        if !self.genome.matches_mode(self.mode) {
            return Err(format!(
                "finding {} mode {:?} does not match its genome",
                self.id, self.mode
            ));
        }
        let expected = finding_id(self.cca, self.mode, &self.signature);
        if self.id != expected {
            return Err(format!(
                "finding id `{}` does not match signature (`{expected}`)",
                self.id
            ));
        }
        self.sim.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_core::fuzzer::GaParams;
    use ccfuzz_core::genome::TrafficGenome;
    use ccfuzz_netsim::time::SimDuration;

    fn tiny_campaign(mode: FuzzMode) -> Campaign {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        Campaign::paper_standard(mode, CcaKind::Reno, SimDuration::from_secs(2), ga)
    }

    #[test]
    fn finding_from_traffic_campaign_is_valid_and_replayable() {
        let campaign = tiny_campaign(FuzzMode::Traffic);
        let result = campaign.run::<TrafficGenome>(None);
        let finding = Finding::from_campaign(
            &campaign,
            GenomePayload::Traffic(result.best_genome.clone()),
            result.best_outcome,
            result.total_evaluations as u64,
        );
        finding.validate().unwrap();
        assert!(finding.id.starts_with("reno-traffic-"));
        assert!(!finding.provenance.minimized);
        // Replay reproduces the recorded outcome exactly (determinism).
        let (replayed, digest) = finding.replay_run(None);
        assert_eq!(replayed, finding.outcome);
        assert_eq!(finding.behavior_digest, digest);
    }

    #[test]
    fn validate_catches_mode_mismatch_and_bad_id() {
        let campaign = tiny_campaign(FuzzMode::Traffic);
        let result = campaign.run::<TrafficGenome>(None);
        let finding = Finding::from_campaign(
            &campaign,
            GenomePayload::Traffic(result.best_genome.clone()),
            result.best_outcome,
            result.total_evaluations as u64,
        );
        let mut bad = finding.clone();
        bad.mode = FuzzMode::Link;
        assert!(bad.validate().is_err());
        let mut bad = finding.clone();
        bad.id = "nonsense".into();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn replay_against_other_cca_differs_in_general() {
        let campaign = tiny_campaign(FuzzMode::Traffic);
        let result = campaign.run::<TrafficGenome>(None);
        let finding = Finding::from_campaign(
            &campaign,
            GenomePayload::Traffic(result.best_genome.clone()),
            result.best_outcome,
            result.total_evaluations as u64,
        );
        let (as_cubic, _) = finding.replay_run(Some(CcaKind::Cubic));
        // Not asserting inequality of scores (they may coincide), but the
        // call must succeed and produce a finite score.
        assert!(as_cubic.score.is_finite());
    }
}
