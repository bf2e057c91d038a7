//! Persistent campaign checkpoints and panic artifacts.
//!
//! A [`CampaignCheckpoint`] is the on-disk form of a paused campaign: the
//! full [`HuntConfig`] it must be resumed with (guarded by a digest), the
//! mode-erased fuzzer state, and the telemetry totals accumulated so far.
//! Checkpoints are written atomically (temp + fsync + rename) so a crash
//! mid-checkpoint leaves the previous checkpoint intact, and a resumed
//! campaign replays the exact trajectory the interrupted one would have
//! taken.
//!
//! A [`PanicFinding`] persists one caught evaluation panic — the genome
//! that triggered it plus the panic message — so a crash-inducing input is
//! never lost even though the campaign kept running.

use crate::finding::GenomePayload;
use crate::hunt::HuntConfig;
use crate::store::CorpusError;
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::FuzzMode;
use ccfuzz_core::checkpoint::SnapshotPayload;
use ccfuzz_core::mode::served_names;
use ccfuzz_obs::write_atomic;
use ccfuzz_obs::OperatorSnapshot;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Checkpoint file schema version; bump on breaking layout changes.
pub const CHECKPOINT_SCHEMA: u32 = 1;

/// Panic-artifact file schema version.
pub const PANIC_SCHEMA: u32 = 1;

/// Cumulative telemetry totals embedded in a checkpoint so a resumed
/// campaign's counters continue from the interrupted run instead of
/// restarting at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryCounters {
    /// Fitness evaluations completed.
    pub evaluations: u64,
    /// Offspring per genetic operator.
    pub operators: OperatorSnapshot,
    /// Evaluation panics caught and isolated.
    pub panics_caught: u64,
    /// Checkpoints written so far (including the one embedding this).
    pub checkpoints_written: u64,
    /// Total checkpoint bytes persisted before this checkpoint.
    pub checkpoint_bytes: u64,
    /// Findings accepted by the corpus.
    pub corpus_inserted: u64,
    /// Findings rejected as duplicates / by retention.
    pub corpus_deduplicated: u64,
}

/// One resumable campaign state on disk.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// File schema version ([`CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// The exact hunt configuration the campaign was started with; a resume
    /// re-runs this config, never a caller-supplied variant.
    pub config: HuntConfig,
    /// FNV-1a digest of the canonical JSON of `config`, verified on load so
    /// a hand-edited checkpoint cannot silently resume a different campaign.
    pub config_digest: u64,
    /// Corpus root the campaign was persisting into.
    pub corpus_dir: String,
    /// Checkpoint cadence the campaign was running with.
    pub checkpoint_every: u32,
    /// Panic budget the campaign was running with.
    pub panic_budget: Option<u64>,
    /// Whether the campaign had already run to completion when this
    /// checkpoint was written. Resuming a completed checkpoint re-emits the
    /// identical result (the SIGKILL-after-final-checkpoint edge case).
    pub completed: bool,
    /// Telemetry totals at the checkpoint boundary.
    pub telemetry: TelemetryCounters,
    /// The mode-erased fuzzer state.
    pub state: SnapshotPayload,
}

impl CampaignCheckpoint {
    /// Serializes and atomically writes the checkpoint, returning the bytes
    /// written.
    pub fn write_atomic<P: AsRef<Path>>(&self, path: P) -> Result<u64, CorpusError> {
        let json = serde_json::to_string_pretty(self)?;
        Ok(write_atomic(path.as_ref(), (json + "\n").as_bytes())?)
    }

    /// Loads and fully verifies a checkpoint: schema version, config
    /// digest, structural snapshot validity, and config/state mode
    /// agreement.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<CampaignCheckpoint, CorpusError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| CorpusError(format!("reading checkpoint {}: {e}", path.display())))?;
        let ck: CampaignCheckpoint = serde_json::from_str(&text)?;
        if ck.schema != CHECKPOINT_SCHEMA {
            return Err(CorpusError(format!(
                "checkpoint schema {} is not the supported {CHECKPOINT_SCHEMA}",
                ck.schema
            )));
        }
        let expect = hunt_config_digest(&ck.config);
        if ck.config_digest != expect {
            return Err(CorpusError(format!(
                "checkpoint config digest {:#018x} does not match its config ({expect:#018x}); \
                 the file was modified",
                ck.config_digest
            )));
        }
        ck.state.validate().map_err(CorpusError)?;
        if !ck.state.matches_mode(ck.config.mode) {
            return Err(CorpusError(format!(
                "checkpoint state holds a {} population but its config is {} mode",
                served_names(|m| ck.state.matches_mode(m)),
                ck.config.mode.name()
            )));
        }
        Ok(ck)
    }
}

/// FNV-1a over the canonical JSON encoding of a hunt configuration.
pub fn hunt_config_digest(config: &HuntConfig) -> u64 {
    let json = serde_json::to_string(config).expect("HuntConfig always serializes");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One caught evaluation panic, persisted for replay and triage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PanicFinding {
    /// File schema version ([`PANIC_SCHEMA`]).
    pub schema: u32,
    /// 1-based position in the campaign's panic log; doubles as the file
    /// name stem, so re-persisting after a resume is idempotent.
    pub ordinal: u64,
    /// Algorithm under test.
    pub cca: CcaKind,
    /// Fuzzing mode.
    pub mode: FuzzMode,
    /// Generation whose evaluation panicked.
    pub generation: u32,
    /// Island holding the panicking individual.
    pub island: usize,
    /// Index of the individual within its island.
    pub index: usize,
    /// The panic payload (message), when it was a string.
    pub message: String,
    /// The genome whose evaluation panicked.
    pub genome: GenomePayload,
}

impl PanicFinding {
    /// The file name this artifact persists under.
    pub fn file_name(&self) -> String {
        format!("panic-{:04}.json", self.ordinal)
    }

    /// Atomically writes the artifact into `dir` (created if needed).
    pub fn write_into(&self, dir: &Path) -> Result<u64, CorpusError> {
        std::fs::create_dir_all(dir)?;
        let json = serde_json::to_string_pretty(self)?;
        Ok(write_atomic(
            &dir.join(self.file_name()),
            (json + "\n").as_bytes(),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hunt::hunt_controlled;
    use crate::hunt::HuntControl;
    use crate::store::{Corpus, CorpusConfig};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccfuzz-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config() -> HuntConfig {
        let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Traffic, 3, 21);
        config.ga.islands = 2;
        config.ga.population_per_island = 3;
        config.ga.threads = 2;
        config.duration = ccfuzz_netsim::time::SimDuration::from_secs(1);
        config
    }

    #[test]
    fn digest_is_stable_and_config_sensitive() {
        let config = tiny_config();
        assert_eq!(hunt_config_digest(&config), hunt_config_digest(&config));
        let mut other = config.clone();
        other.ga.seed += 1;
        assert_ne!(hunt_config_digest(&config), hunt_config_digest(&other));
    }

    #[test]
    fn checkpoint_roundtrips_and_rejects_tampering() {
        let dir = temp_dir("roundtrip");
        let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();
        let config = tiny_config();
        let path = dir.join("ck.json");
        hunt_controlled(
            &corpus,
            &config,
            None,
            HuntControl {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 1,
                ..HuntControl::default()
            },
        )
        .unwrap();

        let ck = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(ck.schema, CHECKPOINT_SCHEMA);
        assert_eq!(ck.config, config);
        assert!(ck.completed);
        assert_eq!(ck.state.next_generation(), config.ga.generations);
        assert_eq!(ck.telemetry.evaluations, ck.state.evaluations() as u64);

        // Tampering with the embedded config breaks the digest.
        let mut tampered = ck.clone();
        tampered.config.ga.seed += 1;
        let tampered_path = dir.join("tampered.json");
        tampered.write_atomic(&tampered_path).unwrap();
        let err = CampaignCheckpoint::load(&tampered_path).unwrap_err();
        assert!(err.0.contains("digest"), "{err}");

        // An unsupported schema version is refused.
        let mut wrong = ck.clone();
        wrong.schema = 99;
        wrong.config_digest = hunt_config_digest(&wrong.config);
        let wrong_path = dir.join("wrong-schema.json");
        wrong.write_atomic(&wrong_path).unwrap();
        let err = CampaignCheckpoint::load(&wrong_path).unwrap_err();
        assert!(err.0.contains("schema"), "{err}");

        // A truncated checkpoint file fails to load but never panics.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = dir.join("cut.json");
        std::fs::write(&cut, &text[..text.len() / 3]).unwrap();
        assert!(CampaignCheckpoint::load(&cut).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_with_an_empty_topology_cca_pool_is_refused() {
        // Evolution runs outside panic isolation, so a genome an operator
        // cannot breed (a swap from an empty pool) must fail at load time.
        let dir = temp_dir("empty-pool");
        let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();
        let mut config = tiny_config();
        config.mode = FuzzMode::Topology;
        config.ga.generations = 2;
        let path = dir.join("ck.json");
        hunt_controlled(
            &corpus,
            &config,
            None,
            HuntControl {
                checkpoint_path: Some(path.clone()),
                ..HuntControl::default()
            },
        )
        .unwrap();

        let mut ck = CampaignCheckpoint::load(&path).unwrap();
        let SnapshotPayload::Topology(snapshot) = &mut ck.state else {
            panic!("a topology hunt checkpoints a topology population");
        };
        for individual in snapshot.islands.iter_mut().flatten() {
            individual.genome.cca_pool.clear();
        }
        let emptied = dir.join("emptied.json");
        ck.write_atomic(&emptied).unwrap();
        let err = CampaignCheckpoint::load(&emptied).unwrap_err();
        assert!(err.0.contains("empty CCA pool"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
