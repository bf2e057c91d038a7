//! Corpus round-trip and fixture-regression tests.
//!
//! * Round trip: hunt -> persist -> load -> replay must reproduce scores and
//!   behaviour digests exactly (simulations are deterministic).
//! * Fixtures: the starter corpus committed under `crates/corpus/fixtures/`
//!   must replay cleanly — any simulator/CCA behaviour change that alters
//!   what these traces do shows up here as drift or a digest mismatch.

use cc_fuzz::analysis::traceview;
use cc_fuzz::cca::CcaKind;
use cc_fuzz::corpus::finding::Finding;
use cc_fuzz::corpus::hunt::{hunt, HuntConfig};
use cc_fuzz::corpus::replay::{replay_corpus, replay_findings};
use cc_fuzz::corpus::report::corpus_report;
use cc_fuzz::corpus::store::{Corpus, CorpusConfig, InsertOutcome};
use cc_fuzz::fuzz::campaign::FuzzMode;
use cc_fuzz::netsim::time::SimDuration;
use std::path::PathBuf;

fn temp_corpus(tag: &str) -> (Corpus, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ccfuzz-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (
        Corpus::open_with(&dir, CorpusConfig::default()).unwrap(),
        dir,
    )
}

fn tiny_hunt(cca: CcaKind, seed: u64) -> HuntConfig {
    let mut config = HuntConfig::quick(cca, FuzzMode::Traffic, 2, seed);
    config.ga.islands = 2;
    config.ga.population_per_island = 3;
    config.duration = SimDuration::from_secs(2);
    config
}

#[test]
fn corpus_roundtrip_save_load_replay_identical() {
    let (corpus, dir) = temp_corpus("roundtrip");
    let (finding, decision) = hunt(&corpus, &tiny_hunt(CcaKind::Reno, 5)).unwrap();
    assert_eq!(decision, InsertOutcome::Added);

    // Load back: byte-level JSON round trip must reproduce the finding.
    let loaded = corpus.get(&finding.id).unwrap();
    assert_eq!(loaded, finding);

    // Replay: fresh simulations reproduce score and digest exactly.
    let report = replay_corpus(&corpus, None).unwrap();
    assert_eq!(report.entries.len(), 1);
    assert!(report.is_clean(), "replay drifted:\n{}", report.to_text());
    assert_eq!(report.entries[0].replayed_score, finding.outcome.score);
    assert_eq!(report.entries[0].digest, finding.behavior_digest);

    // The textual report is byte-identical across runs (the acceptance bar
    // for `ccfuzz replay`).
    let again = replay_corpus(&corpus, None).unwrap();
    assert_eq!(report.to_text(), again.to_text());

    // The summary report renders and mentions the finding.
    let summary = corpus_report(&corpus).unwrap();
    assert!(summary.contains(&finding.id));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corpus_accumulates_multiple_ccas() {
    let (corpus, dir) = temp_corpus("multi");
    let (reno, _) = hunt(&corpus, &tiny_hunt(CcaKind::Reno, 7)).unwrap();
    let (cubic, _) = hunt(&corpus, &tiny_hunt(CcaKind::Cubic, 7)).unwrap();
    assert_ne!(reno.id, cubic.id);
    let all = corpus.load_all().unwrap();
    assert_eq!(all.len(), 2);
    let report = replay_corpus(&corpus, None).unwrap();
    assert!(report.is_clean(), "{}", report.to_text());
    let _ = std::fs::remove_dir_all(dir);
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/corpus/fixtures/findings")
}

fn load_fixtures() -> Vec<Finding> {
    let dir = fixtures_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture corpus missing at {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 2,
        "expected at least 2 fixture findings in {}",
        dir.display()
    );
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            let finding: Finding = serde_json::from_str(&text).unwrap();
            finding
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            finding
        })
        .collect()
}

#[test]
fn fixture_files_reserialize_byte_identically() {
    // The multi-flow engine added an optional `fairness` field to findings;
    // fixtures from before that must parse and re-serialize to the exact
    // committed bytes (the field is omitted when absent), and the block's
    // presence must track the hunt mode.
    let dir = fixtures_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let finding: Finding = serde_json::from_str(&text).unwrap();
        assert_eq!(
            finding.fairness.is_some(),
            !matches!(finding.mode, FuzzMode::Traffic | FuzzMode::Link),
            "{}: exactly the multi-flow fixtures carry a fairness block \
             (traffic/link hunts are single-flow)",
            finding.id
        );
        let reserialized = serde_json::to_string_pretty(&finding).unwrap() + "\n";
        assert_eq!(
            reserialized,
            text,
            "{} does not round-trip byte-identically",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 2);
}

#[test]
fn fairness_findings_roundtrip_through_the_corpus() {
    let (corpus, dir) = temp_corpus("fairness");
    let mut config = HuntConfig::quick(CcaKind::Bbr, FuzzMode::Fairness, 2, 23);
    config.ga.islands = 2;
    config.ga.population_per_island = 3;
    config.duration = SimDuration::from_secs(2);
    let (finding, decision) = hunt(&corpus, &config).unwrap();
    assert_eq!(decision, InsertOutcome::Added);
    assert!(finding.id.contains("-fairness-"));

    // The finding carries per-flow goodput + Jain's index and a digest.
    let fairness = finding.fairness.as_ref().expect("fairness summary");
    assert!(fairness.per_flow_goodput_bps.len() >= 2);
    assert!((0.0..=1.0).contains(&fairness.jain_index));
    assert_ne!(finding.behavior_digest, 0);

    // Disk round trip preserves everything, and replay is clean and
    // deterministic (score and digest reproduce exactly).
    let loaded = corpus.get(&finding.id).unwrap();
    assert_eq!(loaded, finding);
    let report = replay_corpus(&corpus, None).unwrap();
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.entries[0].digest, finding.behavior_digest);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn aqm_findings_roundtrip_hunt_minimize_replay() {
    use cc_fuzz::corpus::minimize::{minimize_finding, MinimizeConfig};
    use cc_fuzz::corpus::GenomePayload;

    let (corpus, dir) = temp_corpus("aqm");
    let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Aqm, 2, 31);
    config.ga.islands = 2;
    config.ga.population_per_island = 4;
    config.duration = SimDuration::from_secs(2);
    let (finding, decision) = hunt(&corpus, &config).unwrap();
    assert_eq!(decision, InsertOutcome::Added);
    assert!(finding.id.contains("-aqm-"));
    let GenomePayload::Scenario(scenario) = &finding.genome else {
        panic!("aqm findings carry scenario genomes");
    };
    let gene = scenario.qdisc.expect("aqm genomes carry a qdisc gene");
    gene.discipline.validate().unwrap();

    // Disk round trip preserves the qdisc gene bit for bit.
    let loaded = corpus.get(&finding.id).unwrap();
    assert_eq!(loaded, finding);

    // Minimize: never grows the trace, retains the score threshold, and the
    // result still replays cleanly after the corpus update.
    let cfg = MinimizeConfig {
        retain_fraction: 0.8,
        max_evaluations: 150,
    };
    let (minimized, report) = minimize_finding(&finding, &cfg);
    assert!(report.minimized_packets <= report.original_packets);
    assert!(report.minimized_score >= report.threshold, "{report:?}");
    minimized.validate().unwrap();
    corpus.update(&finding.id, &minimized).unwrap();

    let report = replay_corpus(&corpus, None).unwrap();
    assert!(report.is_clean(), "{}", report.to_text());
    // The corpus report renders the qdisc table for the aqm bucket.
    let summary = corpus_report(&corpus).unwrap();
    assert!(summary.contains("reno / aqm"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn aqm_minimizer_shrinks_qdisc_toward_drop_tail_when_harmless() {
    use cc_fuzz::corpus::minimize::{minimize_finding, MinimizeConfig};
    use cc_fuzz::corpus::GenomePayload;
    use cc_fuzz::fuzz::scenario::{QdiscChoice, QdiscGene, ScenarioGenome};
    use cc_fuzz::netsim::queue::Qdisc;
    use cc_fuzz::netsim::rng::SimRng;

    // Build an AQM finding whose qdisc is irrelevant to its (cross-traffic
    // driven) score: a barely-acting RED. The minimizer's qdisc pass must
    // replace it with plain drop-tail.
    let (corpus, dir) = temp_corpus("aqm-shrink");
    let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Aqm, 1, 13);
    config.ga.islands = 1;
    config.ga.population_per_island = 2;
    config.duration = SimDuration::from_secs(2);
    let (mut finding, _) = hunt(&corpus, &config).unwrap();
    let GenomePayload::Scenario(scenario) = &mut finding.genome else {
        panic!("aqm findings carry scenario genomes");
    };
    // Near-inert RED: thresholds at the buffer's edge, tiny probability.
    scenario.qdisc = Some(QdiscGene {
        discipline: Qdisc::Red {
            min_thresh: 98,
            max_thresh: 99,
            mark_probability: 0.01,
        },
        ecn: false,
        choice: QdiscChoice::Red,
    });
    // Drop the cross traffic so only the qdisc pass has work to do.
    let mut rng = SimRng::new(1);
    let plain = ScenarioGenome::generate_aqm(
        CcaKind::Reno,
        SimDuration::from_secs(2),
        0,
        QdiscChoice::Red,
        &mut rng,
    );
    scenario.traffic = plain.traffic.clone();
    let (outcome, digest, fairness) = finding.replay_full(None);
    finding.outcome = outcome;
    finding.behavior_digest = digest;
    finding.fairness = fairness;

    let cfg = MinimizeConfig {
        retain_fraction: 0.8,
        max_evaluations: 50,
    };
    let (minimized, report) = minimize_finding(&finding, &cfg);
    let GenomePayload::Scenario(min_scenario) = &minimized.genome else {
        panic!("scenario payload");
    };
    assert!(
        min_scenario.qdisc.is_none(),
        "an inert qdisc must shrink to drop-tail: {report:?}"
    );
    assert!(report
        .passes
        .iter()
        .any(|p| p.contains("qdisc->droptail: accepted")));
    assert!(report.minimized_score >= report.threshold);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fixture_corpus_replays_without_drift() {
    let findings = load_fixtures();
    let report = replay_findings(&findings, None);
    assert!(
        report.is_clean(),
        "committed fixtures no longer reproduce their stored scores/digests — \
         the simulator or a CCA changed behaviour:\n{}",
        report.to_text()
    );
    // Determinism of the report itself, byte for byte.
    let again = replay_findings(&findings, None);
    assert_eq!(report.to_text(), again.to_text());
}

/// Recording the run log must be an observer, not a participant: replaying
/// every committed fixture the way `ccfuzz trace` does (recording on) must
/// reproduce the stored golden digest, and the strict replay report must
/// stay byte-identical to one produced without recording in the picture.
#[test]
fn traced_replay_is_passive_on_every_fixture() {
    let findings = load_fixtures();
    let untraced = replay_findings(&findings, None).to_text();
    for finding in &findings {
        let (outcome, digest, result) = finding.replay_recorded();
        assert_eq!(
            digest, finding.behavior_digest,
            "{}: recording perturbed the behaviour digest",
            finding.id
        );
        let (plain_outcome, plain_digest) = finding.replay_run(None);
        assert_eq!(
            digest, plain_digest,
            "{}: recorded vs unrecorded digest",
            finding.id
        );
        assert_eq!(
            outcome.score.to_bits(),
            plain_outcome.score.to_bits(),
            "{}: recorded vs unrecorded score",
            finding.id
        );
        assert!(
            !traceview::events(&result.stats).is_empty(),
            "{}: a replayed fixture must produce trace events",
            finding.id
        );
    }
    // Interleaving recorded replays changed nothing for the strict report.
    let after = replay_findings(&findings, None).to_text();
    assert_eq!(untraced, after);
}

#[test]
fn fixture_corpus_is_minimized_and_adversarial() {
    for finding in load_fixtures() {
        assert!(
            finding.provenance.minimized,
            "{}: starter fixtures are committed post-minimization",
            finding.id
        );
        assert!(
            finding.outcome.score >= 0.8 * finding.provenance.original_score,
            "{}: minimization must retain >= 80% of the original score",
            finding.id
        );
        assert!(
            finding.genome.packet_count() as u64 <= finding.provenance.original_packets,
            "{}: minimization must not grow the trace",
            finding.id
        );
        assert!(
            finding.outcome.performance_score > 0.3,
            "{}: a starter finding should meaningfully hurt its CCA (perf {})",
            finding.id,
            finding.outcome.performance_score
        );
    }
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 of each fixture's minimized finding JSON (as stored) followed
/// by its `MinimizeReport` JSON, at the default `MinimizeConfig`. A
/// deliberate change to what the minimizer keeps re-records these by
/// copying each failure's observed value over the constant.
const MINIMIZED_FIXTURE_DIGESTS: [(&str, u64); 7] = [
    ("cubic-traffic-0303000c0d", 0x0ede6a27e69f7646),
    ("reno-aqm-010100060b", 0xa15b353b157892a6),
    ("reno-fairness-0909030f12", 0x28dac506516e1dd5),
    ("reno-link-0808000e0a", 0xd77e44c76927a360),
    ("reno-topology-0809010d12", 0x62ea584bfe41790f),
    ("reno-traffic-0303000e0d", 0xa831e4ec7278ed1c),
    ("reno-workload-0606011001", 0x8846a47e039ee54a),
];

#[test]
fn fixture_minimization_is_identical_at_one_and_three_workers() {
    // Speculative candidate scans keep exactly what a serial scan keeps,
    // on the real simulator and every mode's passes: the minimized finding
    // (byte for byte, as stored) and its report do not depend on the
    // worker count, and they match the recorded digests.
    use cc_fuzz::corpus::minimize::{minimize_finding_with, MinimizeConfig, MinimizePool};

    let cfg = MinimizeConfig::default();
    let fixtures = load_fixtures();
    assert_eq!(fixtures.len(), 7, "one committed fixture per hunt mode");
    let mut drift = Vec::new();
    for (finding, (id, golden)) in fixtures.iter().zip(MINIMIZED_FIXTURE_DIGESTS) {
        assert_eq!(finding.id, id, "fixture order");
        let (serial, serial_report) =
            minimize_finding_with(finding, &cfg, &mut MinimizePool::new(1));
        let (parallel, parallel_report) =
            minimize_finding_with(finding, &cfg, &mut MinimizePool::new(3));
        assert_eq!(parallel_report, serial_report, "{id}");
        let stored = serde_json::to_string_pretty(&serial).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&parallel).unwrap(),
            stored,
            "{id}"
        );
        let mut bytes = stored.into_bytes();
        bytes.extend(serde_json::to_string(&serial_report).unwrap().bytes());
        let observed = fnv1a(&bytes);
        if observed != golden {
            drift.push(format!(
                "{id}: observed {observed:#018x}, recorded {golden:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "minimizer output drift:\n{}",
        drift.join("\n")
    );
}
