//! Deterministic regression replay.
//!
//! Replaying a corpus re-runs every stored finding through a fresh
//! simulation and compares the new score against the stored one. Because
//! simulations are pure functions of (config, trace, seed), drift is exactly
//! zero unless the simulator or a CCA changed behaviour — which makes the
//! replay report a regression oracle: commit the corpus, and any future
//! change that alters what these traces do to the CCAs shows up as non-zero
//! drift.
//!
//! The text report is byte-identical across runs: fixed-precision numbers,
//! stable ordering (findings sorted by id), no timestamps.

use crate::finding::Finding;
use crate::store::{Corpus, CorpusError};
use ccfuzz_analysis::table::text_table;
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::FuzzMode;
use serde::{Deserialize, Serialize};

/// One finding's replay result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayEntry {
    /// Finding id.
    pub id: String,
    /// CCA the replay ran against (differs from the finding's CCA when an
    /// override is used).
    pub cca: String,
    /// Fuzzing mode.
    pub mode: String,
    /// Packets in the stored genome.
    pub packets: u64,
    /// Score recorded in the corpus.
    pub stored_score: f64,
    /// Score measured by this replay.
    pub replayed_score: f64,
    /// `replayed - stored`.
    pub drift: f64,
    /// Replay goodput in bits per second.
    pub replayed_goodput_bps: f64,
    /// Behaviour digest of the replay run (determinism fingerprint).
    pub digest: u64,
    /// Whether the replay digest matches the stored one. `None` when the
    /// replay ran against a different CCA (the stored digest does not apply).
    pub digest_match: Option<bool>,
}

/// A full corpus replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Per-finding results, sorted by finding id.
    pub entries: Vec<ReplayEntry>,
    /// Largest absolute drift across the corpus.
    pub max_abs_drift: f64,
}

fn mode_name(mode: FuzzMode) -> &'static str {
    mode.name()
}

/// Replays a set of findings, optionally forcing a different CCA.
pub fn replay_findings(findings: &[Finding], cca_override: Option<CcaKind>) -> ReplayReport {
    let mut entries: Vec<ReplayEntry> = findings
        .iter()
        .map(|finding| {
            // One simulation yields both the scored outcome and the digest.
            let (outcome, digest) = finding.replay_run(cca_override);
            let digest_match = match cca_override {
                None => Some(digest == finding.behavior_digest),
                Some(_) => None,
            };
            let cca = cca_override.unwrap_or(finding.cca);
            ReplayEntry {
                id: finding.id.clone(),
                cca: cca.name().to_string(),
                mode: mode_name(finding.mode).to_string(),
                packets: finding.genome.packet_count() as u64,
                stored_score: finding.outcome.score,
                replayed_score: outcome.score,
                drift: outcome.score - finding.outcome.score,
                replayed_goodput_bps: outcome.goodput_bps,
                digest,
                digest_match,
            }
        })
        .collect();
    entries.sort_by(|a, b| a.id.cmp(&b.id));
    let max_abs_drift = entries.iter().map(|e| e.drift.abs()).fold(0.0, f64::max);
    ReplayReport {
        entries,
        max_abs_drift,
    }
}

/// Loads and replays an entire corpus.
pub fn replay_corpus(
    corpus: &Corpus,
    cca_override: Option<CcaKind>,
) -> Result<ReplayReport, CorpusError> {
    Ok(replay_findings(&corpus.load_all()?, cca_override))
}

impl ReplayReport {
    /// `true` when every replay reproduced its stored score exactly and
    /// (where applicable) its behaviour digest.
    pub fn is_clean(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.drift == 0.0 && e.digest_match != Some(false))
    }

    /// Renders the deterministic text report.
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|e| {
                vec![
                    e.id.clone(),
                    e.cca.clone(),
                    e.mode.clone(),
                    e.packets.to_string(),
                    format!("{:.6}", e.stored_score),
                    format!("{:.6}", e.replayed_score),
                    format!("{:+.6}", e.drift),
                    format!("{:.3}", e.replayed_goodput_bps / 1e6),
                    format!("{:016x}", e.digest),
                    match e.digest_match {
                        Some(true) => "ok".to_string(),
                        Some(false) => "MISMATCH".to_string(),
                        None => "n/a".to_string(),
                    },
                ]
            })
            .collect();
        let mut out = text_table(
            &[
                "finding",
                "cca",
                "mode",
                "pkts",
                "stored",
                "replayed",
                "drift",
                "mbps",
                "digest",
                "determinism",
            ],
            &rows,
        );
        out.push_str(&format!(
            "{} finding(s), max |drift| = {:.6} -> {}\n",
            self.entries.len(),
            self.max_abs_drift,
            if self.is_clean() {
                "CLEAN"
            } else {
                "DRIFT DETECTED"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::{Finding, GenomePayload};
    use ccfuzz_core::campaign::Campaign;
    use ccfuzz_core::fuzzer::GaParams;
    use ccfuzz_core::genome::TrafficGenome;
    use ccfuzz_netsim::time::SimDuration;

    fn quick_finding() -> Finding {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        let campaign = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            ga,
        );
        let result = campaign.run::<TrafficGenome>(None);
        Finding::from_campaign(
            &campaign,
            GenomePayload::Traffic(result.best_genome.clone()),
            result.best_outcome,
            result.total_evaluations as u64,
        )
    }

    #[test]
    fn replay_of_fresh_finding_is_clean_and_deterministic() {
        let finding = quick_finding();
        let a = replay_findings(std::slice::from_ref(&finding), None);
        assert!(a.is_clean(), "{}", a.to_text());
        assert_eq!(a.max_abs_drift, 0.0);
        // Byte-identical report across runs.
        let b = replay_findings(std::slice::from_ref(&finding), None);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.entries[0].digest, b.entries[0].digest);
    }

    #[test]
    fn replay_against_other_cca_reports_that_cca() {
        let finding = quick_finding();
        let report = replay_findings(std::slice::from_ref(&finding), Some(CcaKind::Vegas));
        assert_eq!(report.entries[0].cca, "vegas");
        // Cross-CCA replay generally drifts; the report must reflect it
        // either way without panicking.
        assert!(report.entries[0].replayed_score.is_finite());
    }

    #[test]
    fn tampered_score_shows_drift() {
        let mut finding = quick_finding();
        finding.outcome.score += 0.25;
        let report = replay_findings(std::slice::from_ref(&finding), None);
        assert!(!report.is_clean());
        assert!((report.max_abs_drift - 0.25).abs() < 1e-12);
        assert!(report.to_text().contains("DRIFT DETECTED"));
    }
}
