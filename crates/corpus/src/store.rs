//! The on-disk findings corpus.
//!
//! A corpus is a directory of `findings/<id>.json` files, one per finding.
//! The id embeds the behaviour signature, so deduplication is structural:
//! inserting a finding whose (CCA, mode, signature) already exists either
//! replaces the stored one (if the new score is higher) or is rejected.
//! Each (CCA, mode) bucket retains at most `top_k_per_bucket` findings; the
//! weakest are evicted when the bucket overflows.
//!
//! Everything is plain JSON so fixtures can be committed to git and diffed.
//!
//! Crash safety: every write goes through `ccfuzz_obs::write_atomic`
//! (write-temp + fsync + rename), opening a corpus runs a recovery pass
//! that sweeps stray staging files and quarantines truncated or unparsable
//! finding files, and writers take an exclusive [`CorpusLock`] so two
//! campaigns never clobber one store.

use crate::finding::Finding;
use ccfuzz_cca::CcaKind;
use ccfuzz_obs::write_atomic;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Corpus-wide policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Maximum findings kept per (CCA, mode) bucket.
    pub top_k_per_bucket: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            top_k_per_bucket: 8,
        }
    }
}

/// Error raised by corpus operations.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusError(pub String);

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corpus error: {}", self.0)
    }
}

impl std::error::Error for CorpusError {}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError(format!("io: {e}"))
    }
}

impl From<serde_json::Error> for CorpusError {
    fn from(e: serde_json::Error) -> Self {
        CorpusError(format!("json: {e}"))
    }
}

/// What [`Corpus::insert`] did with a candidate finding.
#[derive(Clone, Debug, PartialEq)]
pub enum InsertOutcome {
    /// The finding was new and stored.
    Added,
    /// A weaker finding with the same signature was replaced.
    ReplacedWeaker {
        /// Score of the replaced finding.
        previous_score: f64,
    },
    /// A finding with the same signature and an equal or better score is
    /// already stored.
    DuplicateRejected {
        /// Score of the finding already in the corpus.
        existing_score: f64,
    },
    /// The (CCA, mode) bucket is full of stronger findings.
    BucketFullRejected {
        /// Weakest stored score in the bucket.
        weakest_kept_score: f64,
    },
}

/// What the startup recovery pass found (and repaired) while opening a
/// corpus that a previous process may have left mid-write.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// File names (not paths) of finding files that failed to parse or
    /// validate and were moved into the corpus's `quarantine/` directory.
    pub quarantined: Vec<String>,
    /// Stray atomic-write staging files (`*.tmp`) swept away.
    pub swept_tmp: usize,
}

impl RecoveryReport {
    /// Whether recovery had nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.swept_tmp == 0
    }

    /// Total files touched by recovery.
    pub fn total(&self) -> u64 {
        (self.quarantined.len() + self.swept_tmp) as u64
    }
}

/// What [`Corpus::merge`] did with the source corpus's findings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeReport {
    /// Findings new to this corpus and stored.
    pub added: u64,
    /// Findings that replaced a weaker same-signature incumbent.
    pub replaced: u64,
    /// Findings rejected because an equal-or-stronger same-signature
    /// incumbent exists.
    pub duplicates: u64,
    /// Findings rejected because their (CCA, mode) bucket is full of
    /// stronger findings.
    pub bucket_full: u64,
    /// Source finding files the source corpus's recovery pass had
    /// quarantined (they never became merge candidates).
    pub source_quarantined: u64,
}

impl MergeReport {
    /// Total candidates examined (quarantined source files excluded).
    pub fn candidates(&self) -> u64 {
        self.added + self.replaced + self.duplicates + self.bucket_full
    }
}

/// An exclusive advisory lock on a corpus, preventing two campaigns from
/// interleaving writes into one store. Created by [`Corpus::lock`]; the
/// lock file is removed when the guard drops.
#[derive(Debug)]
pub struct CorpusLock {
    path: PathBuf,
}

impl Drop for CorpusLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A directory-backed findings corpus.
#[derive(Clone, Debug)]
pub struct Corpus {
    root: PathBuf,
    config: CorpusConfig,
    recovery: RecoveryReport,
}

impl Corpus {
    /// Opens (creating if needed) a corpus rooted at `root`.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Corpus, CorpusError> {
        Self::open_with(root, CorpusConfig::default())
    }

    /// Opens a corpus with explicit policy. A `top_k_per_bucket` of 0 would
    /// make every insert impossible, so it is clamped to 1. Opening runs the
    /// startup recovery pass: stray atomic-write staging files are removed
    /// and finding files that no longer parse or validate (e.g. truncated by
    /// a crash predating atomic writes) are quarantined rather than left to
    /// abort every later `load_all`.
    pub fn open_with<P: AsRef<Path>>(
        root: P,
        mut config: CorpusConfig,
    ) -> Result<Corpus, CorpusError> {
        config.top_k_per_bucket = config.top_k_per_bucket.max(1);
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("findings"))?;
        let recovery = recover(&root)?;
        Ok(Corpus {
            root,
            config,
            recovery,
        })
    }

    /// What the startup recovery pass repaired when this corpus was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The corpus root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding the finding JSON files.
    pub fn findings_dir(&self) -> PathBuf {
        self.root.join("findings")
    }

    /// The directory quarantined (corrupt) finding files are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Takes the corpus's exclusive campaign lock. Fails if another live
    /// process holds it; a lock left by a dead process is stolen. The lock
    /// file records `pid:starttime` (procfs field 22), so a dead holder is
    /// recognised even when an unrelated process has recycled its PID — the
    /// recycled process has a different start time. The lock releases when
    /// the returned guard drops.
    pub fn lock(&self) -> Result<CorpusLock, CorpusError> {
        let path = self.root.join("LOCK");
        // Two attempts: the second runs only after a stale lock was swept,
        // so a concurrent stealer winning the race surfaces as "locked by".
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let pid = std::process::id();
                    match proc_starttime(pid) {
                        // `pid:starttime` when procfs can tell us our own
                        // start time; bare `pid` otherwise (the conservative
                        // legacy format).
                        Some(start) => writeln!(file, "{pid}:{start}")?,
                        None => writeln!(file, "{pid}")?,
                    }
                    file.sync_all()?;
                    return Ok(CorpusLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    // Steal only on positive evidence the holder is gone. An
                    // unreadable or mid-write lock file is treated as held.
                    let stale = holder_is_dead(holder.trim());
                    if !stale {
                        return Err(CorpusError(format!(
                            "corpus {} is locked by process {} (remove {} if that process is dead)",
                            self.root.display(),
                            holder.trim(),
                            path.display()
                        )));
                    }
                    std::fs::remove_file(&path)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(CorpusError(format!(
            "corpus {} lock is contended",
            self.root.display()
        )))
    }

    fn path_for(&self, id: &str) -> PathBuf {
        self.findings_dir().join(format!("{id}.json"))
    }

    /// Loads one finding by id.
    pub fn get(&self, id: &str) -> Result<Finding, CorpusError> {
        let path = self.path_for(id);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CorpusError(format!("reading {}: {e}", path.display())))?;
        let finding: Finding = serde_json::from_str(&text)?;
        finding.validate().map_err(CorpusError)?;
        Ok(finding)
    }

    /// Loads every finding, sorted by id (deterministic order).
    pub fn load_all(&self) -> Result<Vec<Finding>, CorpusError> {
        let mut ids = self.ids()?;
        ids.sort();
        ids.iter().map(|id| self.get(id)).collect()
    }

    /// All stored finding ids, unsorted.
    pub fn ids(&self) -> Result<Vec<String>, CorpusError> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(self.findings_dir())? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    ids.push(stem.to_string());
                }
            }
        }
        Ok(ids)
    }

    /// Writes a finding unconditionally (used by minimization to update a
    /// stored finding in place). The write is atomic (temp + fsync +
    /// rename), so a crash mid-save never leaves a truncated finding file.
    pub fn save(&self, finding: &Finding) -> Result<PathBuf, CorpusError> {
        finding.validate().map_err(CorpusError)?;
        let path = self.path_for(&finding.id);
        let json = serde_json::to_string_pretty(finding)?;
        write_atomic(&path, (json + "\n").as_bytes())?;
        Ok(path)
    }

    /// Removes a finding by id.
    pub fn remove(&self, id: &str) -> Result<(), CorpusError> {
        std::fs::remove_file(self.path_for(id))?;
        Ok(())
    }

    /// Inserts a finding with signature-dedup and top-K bucket retention.
    pub fn insert(&self, finding: &Finding) -> Result<InsertOutcome, CorpusError> {
        finding.validate().map_err(CorpusError)?;

        // Signature-level dedup: the id embeds (cca, mode, signature).
        if let Ok(existing) = self.get(&finding.id) {
            if existing.outcome.score >= finding.outcome.score {
                return Ok(InsertOutcome::DuplicateRejected {
                    existing_score: existing.outcome.score,
                });
            }
            self.save(finding)?;
            return Ok(InsertOutcome::ReplacedWeaker {
                previous_score: existing.outcome.score,
            });
        }

        // Bucket retention: keep only the strongest `top_k_per_bucket`
        // findings per (cca, mode).
        let mut bucket: Vec<Finding> = self
            .load_all()?
            .into_iter()
            .filter(|f| f.cca == finding.cca && f.mode == finding.mode)
            .collect();
        if bucket.len() >= self.config.top_k_per_bucket {
            bucket.sort_by(|a, b| {
                a.outcome
                    .score
                    .partial_cmp(&b.outcome.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let weakest = &bucket[0];
            if weakest.outcome.score >= finding.outcome.score {
                return Ok(InsertOutcome::BucketFullRejected {
                    weakest_kept_score: weakest.outcome.score,
                });
            }
            // Evict enough of the weakest to make room.
            let evict = bucket.len() + 1 - self.config.top_k_per_bucket;
            for f in bucket.iter().take(evict) {
                self.remove(&f.id)?;
            }
        }
        self.save(finding)?;
        Ok(InsertOutcome::Added)
    }

    /// Merges every finding from `other` into this corpus through the same
    /// signature dedup and top-K bucket retention as live inserts, so fleet
    /// workers' per-campaign corpora funnel into one store without
    /// duplicates or unbounded growth.
    ///
    /// Candidates are processed in (descending score, id) order, which makes
    /// the result independent of the order the source corpus happened to be
    /// written in: the strongest finding of each signature claims its slot
    /// first and everything weaker is judged against the final incumbents.
    /// Source findings that fail to load were already quarantined by
    /// `other`'s recovery pass and are counted, not fatal.
    pub fn merge(&self, other: &Corpus) -> Result<MergeReport, CorpusError> {
        let mut candidates = other.load_all()?;
        candidates.sort_by(|a, b| {
            b.outcome
                .score
                .partial_cmp(&a.outcome.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        let mut report = MergeReport {
            source_quarantined: other.recovery().quarantined.len() as u64,
            ..MergeReport::default()
        };
        for finding in &candidates {
            match self.insert(finding)? {
                InsertOutcome::Added => report.added += 1,
                InsertOutcome::ReplacedWeaker { .. } => report.replaced += 1,
                InsertOutcome::DuplicateRejected { .. } => report.duplicates += 1,
                InsertOutcome::BucketFullRejected { .. } => report.bucket_full += 1,
            }
        }
        Ok(report)
    }

    /// Findings grouped by (CCA, mode), each group sorted by descending
    /// score — the shape reports want.
    #[allow(clippy::type_complexity)]
    pub fn buckets(&self) -> Result<BTreeMap<(String, String), Vec<Finding>>, CorpusError> {
        let mut out: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
        for finding in self.load_all()? {
            out.entry((
                finding.cca.name().to_string(),
                finding.mode.name().to_string(),
            ))
            .or_default()
            .push(finding);
        }
        for group in out.values_mut() {
            group.sort_by(|a, b| {
                b.outcome
                    .score
                    .partial_cmp(&a.outcome.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.id.cmp(&b.id))
            });
        }
        Ok(out)
    }

    /// Convenience: ids of one CCA's findings (any mode), sorted. Filters on
    /// the stored `cca` field rather than an id prefix — several CCA names
    /// are prefixes of others ("cubic" / "cubic-ns3-buggy").
    pub fn ids_for_cca(&self, cca: CcaKind) -> Result<Vec<String>, CorpusError> {
        let mut ids: Vec<String> = self
            .load_all()?
            .into_iter()
            .filter(|f| f.cca == cca)
            .map(|f| f.id)
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Replaces the stored finding `old_id` with `finding` (the minimization
    /// path). When the id is unchanged this is a plain overwrite; when
    /// minimization moved the finding into another signature bucket, the old
    /// file is removed and the finding goes through [`Corpus::insert`], so a
    /// stronger finding already stored under the new id is never clobbered.
    pub fn update(&self, old_id: &str, finding: &Finding) -> Result<InsertOutcome, CorpusError> {
        if finding.id == old_id {
            self.save(finding)?;
            return Ok(InsertOutcome::Added);
        }
        self.remove(old_id)?;
        self.insert(finding)
    }
}

/// Start time (procfs `stat` field 22, in clock ticks since boot) of the
/// given process, or `None` when the process does not exist or procfs is
/// unavailable. The comm field (2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
fn proc_starttime(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    // `after_comm` starts at field 3 (state); field 22 is the 20th here.
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

/// Whether a LOCK file's `pid[:starttime]` holder is provably dead.
///
/// * `pid:starttime` — dead if the PID is gone, or if it exists with a
///   different start time (the PID was recycled by an unrelated process).
/// * bare `pid` (legacy format, or written without procfs) — dead only if
///   the PID is gone; a live recycled PID cannot be distinguished from the
///   holder, so it conservatively counts as held.
/// * anything else, or no procfs — held.
fn holder_is_dead(holder: &str) -> bool {
    if !Path::new("/proc").is_dir() {
        return false;
    }
    let (pid_text, start_text) = match holder.split_once(':') {
        Some((pid, start)) => (pid, Some(start)),
        None => (holder, None),
    };
    let Ok(pid) = pid_text.parse::<u32>() else {
        return false;
    };
    match proc_starttime(pid) {
        // PID gone (or its stat unreadable, which for our purposes is the
        // same evidence /proc/<pid> existence gave the legacy format).
        None => !Path::new(&format!("/proc/{pid}")).exists(),
        Some(live_start) => match start_text.and_then(|s| s.parse::<u64>().ok()) {
            // Start-time mismatch: the holder died and its PID was recycled.
            Some(recorded) => recorded != live_start,
            // Legacy bare-PID lock naming a live PID: treat as held.
            None => false,
        },
    }
}

/// The startup recovery pass: sweep `*.tmp` staging files and quarantine
/// finding files that fail to parse or validate. Deterministic (paths are
/// sorted) so two recoveries of the same wreckage report identically.
fn recover(root: &Path) -> Result<RecoveryReport, CorpusError> {
    let findings = root.join("findings");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&findings)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    paths.sort();

    let mut report = RecoveryReport::default();
    for path in paths {
        match path.extension().and_then(|e| e.to_str()) {
            Some("tmp") => {
                std::fs::remove_file(&path)?;
                report.swept_tmp += 1;
            }
            Some("json") => {
                let intact = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| serde_json::from_str::<Finding>(&text).ok())
                    .map(|finding| finding.validate().is_ok())
                    .unwrap_or(false);
                if !intact {
                    let name = path
                        .file_name()
                        .expect("a *.json path has a file name")
                        .to_string_lossy()
                        .into_owned();
                    let quarantine = root.join("quarantine");
                    std::fs::create_dir_all(&quarantine)?;
                    std::fs::rename(&path, quarantine.join(&name))?;
                    report.quarantined.push(name);
                }
            }
            _ => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::{finding_id, GenomePayload, Provenance};
    use crate::signature::BehaviorSignature;
    use ccfuzz_core::campaign::paper_sim_base;
    use ccfuzz_core::campaign::FuzzMode;
    use ccfuzz_core::evaluate::EvalOutcome;
    use ccfuzz_core::genome::TrafficGenome;
    use ccfuzz_core::scoring::ScoringConfig;
    use ccfuzz_netsim::time::{SimDuration, SimTime};

    /// A synthetic finding whose outcome (and hence signature) is controlled
    /// by the caller — no simulation involved.
    fn synthetic(cca: CcaKind, score: f64, rto_count: u64) -> Finding {
        let duration = SimDuration::from_secs(2);
        let outcome = EvalOutcome {
            score,
            performance_score: score,
            rto_count,
            goodput_bps: 1e6,
            ..Default::default()
        };
        let signature = BehaviorSignature::from_outcome(&outcome, 12e6);
        let times = [SimTime::from_millis(100), SimTime::from_millis(200)];
        let genome = TrafficGenome::new(&times, duration, 100);
        Finding {
            id: finding_id(cca, FuzzMode::Traffic, &signature),
            cca,
            mode: FuzzMode::Traffic,
            genome: GenomePayload::Traffic(genome),
            sim: paper_sim_base(duration),
            scoring: ScoringConfig::low_throughput_default(12e6),
            link_rate_bps: 12_000_000,
            outcome,
            signature,
            behavior_digest: 0,
            provenance: Provenance {
                seed: 1,
                generations: 1,
                total_evaluations: 1,
                minimized: false,
                original_score: score,
                original_packets: 2,
            },
            fairness: None,
        }
    }

    fn temp_corpus(config: CorpusConfig) -> (Corpus, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "ccfuzz-corpus-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (Corpus::open_with(&dir, config).unwrap(), dir)
    }

    #[test]
    fn save_load_roundtrip_preserves_the_finding() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let finding = synthetic(CcaKind::Reno, 0.9, 4);
        corpus.save(&finding).unwrap();
        let loaded = corpus.get(&finding.id).unwrap();
        assert_eq!(loaded, finding);
        assert_eq!(corpus.load_all().unwrap(), vec![finding]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn insert_dedups_by_signature_keeping_the_stronger() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        // Same signature bucket (scores 0.90 / 0.91 share the 5% bucket 18),
        // different scores.
        let weak = synthetic(CcaKind::Reno, 0.90, 4);
        let strong = synthetic(CcaKind::Reno, 0.912, 4);
        assert_eq!(weak.id, strong.id, "test premise: same signature");

        assert_eq!(corpus.insert(&weak).unwrap(), InsertOutcome::Added);
        assert_eq!(
            corpus.insert(&weak).unwrap(),
            InsertOutcome::DuplicateRejected {
                existing_score: 0.90
            }
        );
        assert_eq!(
            corpus.insert(&strong).unwrap(),
            InsertOutcome::ReplacedWeaker {
                previous_score: 0.90
            }
        );
        assert_eq!(corpus.get(&weak.id).unwrap().outcome.score, 0.912);
        assert_eq!(corpus.load_all().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bucket_retention_evicts_the_weakest() {
        let (corpus, dir) = temp_corpus(CorpusConfig {
            top_k_per_bucket: 2,
        });
        // Three distinct signatures (different rto bands).
        let a = synthetic(CcaKind::Reno, 0.5, 1);
        let b = synthetic(CcaKind::Reno, 0.7, 2);
        let c = synthetic(CcaKind::Reno, 0.9, 4);
        assert_eq!(corpus.insert(&a).unwrap(), InsertOutcome::Added);
        assert_eq!(corpus.insert(&b).unwrap(), InsertOutcome::Added);
        assert_eq!(corpus.insert(&c).unwrap(), InsertOutcome::Added);
        let kept = corpus.load_all().unwrap();
        assert_eq!(kept.len(), 2);
        assert!(
            kept.iter().all(|f| f.outcome.score > 0.6),
            "weakest was evicted"
        );

        // A finding weaker than everything kept is rejected.
        let d = synthetic(CcaKind::Reno, 0.4, 8);
        assert_eq!(
            corpus.insert(&d).unwrap(),
            InsertOutcome::BucketFullRejected {
                weakest_kept_score: 0.7
            }
        );
        // Other buckets (different CCA) are unaffected by retention.
        let e = synthetic(CcaKind::Cubic, 0.2, 1);
        assert_eq!(corpus.insert(&e).unwrap(), InsertOutcome::Added);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn update_never_clobbers_a_stronger_finding_on_id_collision() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        // A and B share neither score bucket nor rto band initially.
        let a = synthetic(CcaKind::Reno, 0.91, 4);
        let b = synthetic(CcaKind::Reno, 0.5, 1);
        corpus.insert(&a).unwrap();
        corpus.insert(&b).unwrap();

        // Minimization moved B into A's signature bucket, but weaker than A.
        let mut b_minimized = synthetic(CcaKind::Reno, 0.905, 4);
        b_minimized.provenance.minimized = true;
        assert_eq!(b_minimized.id, a.id, "test premise: collision with A");

        let outcome = corpus.update(&b.id, &b_minimized).unwrap();
        assert_eq!(
            outcome,
            InsertOutcome::DuplicateRejected {
                existing_score: 0.91
            }
        );
        // A survives untouched; B's old file is gone.
        assert_eq!(corpus.get(&a.id).unwrap().outcome.score, 0.91);
        assert!(corpus.get(&b.id).is_err());

        // Same-id update is a plain overwrite.
        let a_refreshed = synthetic(CcaKind::Reno, 0.91, 4);
        assert_eq!(
            corpus.update(&a.id, &a_refreshed).unwrap(),
            InsertOutcome::Added
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn zero_top_k_is_clamped_not_a_panic() {
        let (corpus, dir) = temp_corpus(CorpusConfig {
            top_k_per_bucket: 0,
        });
        assert_eq!(
            corpus.insert(&synthetic(CcaKind::Reno, 0.9, 4)).unwrap(),
            InsertOutcome::Added
        );
        assert_eq!(corpus.load_all().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ids_for_cca_does_not_conflate_prefix_named_ccas() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        corpus.insert(&synthetic(CcaKind::Cubic, 0.9, 4)).unwrap();
        corpus
            .insert(&synthetic(CcaKind::CubicNs3Buggy, 0.9, 4))
            .unwrap();
        let cubic = corpus.ids_for_cca(CcaKind::Cubic).unwrap();
        assert_eq!(cubic.len(), 1);
        assert!(cubic[0].starts_with("cubic-traffic-"));
        assert_eq!(corpus.ids_for_cca(CcaKind::CubicNs3Buggy).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn buckets_group_and_sort_by_score() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        corpus.insert(&synthetic(CcaKind::Reno, 0.5, 1)).unwrap();
        corpus.insert(&synthetic(CcaKind::Reno, 0.9, 4)).unwrap();
        corpus.insert(&synthetic(CcaKind::Cubic, 0.7, 2)).unwrap();
        let buckets = corpus.buckets().unwrap();
        assert_eq!(buckets.len(), 2);
        let reno = &buckets[&("reno".to_string(), "traffic".to_string())];
        assert_eq!(reno.len(), 2);
        assert!(reno[0].outcome.score > reno[1].outcome.score);
        assert_eq!(corpus.ids_for_cca(CcaKind::Cubic).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_leaves_no_staging_files_behind() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        corpus.save(&synthetic(CcaKind::Reno, 0.9, 4)).unwrap();
        let leftovers = std::fs::read_dir(corpus.findings_dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("tmp")
            })
            .count();
        assert_eq!(leftovers, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reopening_quarantines_corrupt_findings_and_sweeps_tmp_files() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let good = synthetic(CcaKind::Reno, 0.9, 4);
        corpus.save(&good).unwrap();
        assert!(corpus.recovery().is_clean());

        // Simulate a crash predating atomic writes: one truncated finding,
        // one file of garbage, one abandoned staging file.
        let truncated = corpus.findings_dir().join("reno-traffic-truncated.json");
        let full = serde_json::to_string_pretty(&good).unwrap();
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        let garbage = corpus.findings_dir().join("zz-garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        let stray = corpus.findings_dir().join("whatever.json.1234.tmp");
        std::fs::write(&stray, "half a write").unwrap();

        let reopened = Corpus::open(&dir).unwrap();
        let report = reopened.recovery();
        assert_eq!(report.swept_tmp, 1);
        assert_eq!(
            report.quarantined,
            vec![
                "reno-traffic-truncated.json".to_string(),
                "zz-garbage.json".to_string()
            ]
        );
        assert_eq!(report.total(), 3);
        assert!(!stray.exists());
        assert!(reopened.quarantine_dir().join("zz-garbage.json").exists());

        // The surviving corpus is fully usable.
        assert_eq!(reopened.load_all().unwrap(), vec![good]);
        // A second open finds nothing left to repair.
        assert!(Corpus::open(&dir).unwrap().recovery().is_clean());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The simulated transport has one value for each of these
    /// `SimConfig` fields, restated here rather than read from the
    /// simulator so a field that drops out of its table shows up.
    const FIXED_FIELDS: [&str; 12] = [
        "cross_traffic_packet_size",
        "flow_start",
        "sack_enabled",
        "delayed_ack_timeout",
        "delayed_ack_count",
        "min_rto",
        "max_rto",
        "initial_rto",
        "sender_buffer_packets",
        "initial_cwnd",
        "stats_interval",
        "max_events",
    ];

    /// A finding file holding any other value for a fixed field fails
    /// `Finding::validate` by the field's name, so opening the corpus
    /// quarantines it instead of replaying it on a transport it was not
    /// found on (or leaving it for `Simulation::load` to panic on).
    #[test]
    fn a_finding_with_another_fixed_value_is_quarantined_on_open() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let finding = synthetic(CcaKind::Reno, 0.9, 4);
        let text = serde_json::to_string(&finding).unwrap();
        let mut names = Vec::new();
        for field in FIXED_FIELDS {
            // The one occurrence of `"field":value`, and its value bumped:
            // a flag flips, a number grows by one.
            let key = format!("\"{field}\":");
            assert_eq!(text.matches(&key).count(), 1, "{field}");
            let at = text.find(&key).unwrap() + key.len();
            let len = text[at..].find([',', '}']).unwrap();
            let other = match &text[at..at + len] {
                "true" => "false".to_string(),
                n => (n.parse::<u64>().unwrap() + 1).to_string(),
            };
            let changed = format!("{}{other}{}", &text[..at], &text[at + len..]);
            let parsed: Finding = serde_json::from_str(&changed).unwrap();
            let err = parsed.validate().err();
            assert!(
                err.as_ref().is_some_and(|e| e.contains(field)),
                "{field} = {other}: {err:?}"
            );
            let name = format!("fixed-{field}.json");
            std::fs::write(corpus.findings_dir().join(&name), changed).unwrap();
            names.push(name);
        }
        corpus.save(&finding).unwrap();

        let reopened = Corpus::open(&dir).unwrap();
        names.sort();
        assert_eq!(reopened.recovery().quarantined, names);
        for name in &names {
            assert!(reopened.quarantine_dir().join(name).exists());
        }
        assert_eq!(reopened.load_all().unwrap(), vec![finding]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// No campaign hunts for loss: a finding file whose objective names the
    /// loss ratio no longer parses, and opening the corpus quarantines it.
    #[test]
    fn a_finding_with_the_loss_objective_is_quarantined_on_open() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let finding = synthetic(CcaKind::Reno, 0.9, 4);
        let name = format!("{}.json", finding.id);
        let text = serde_json::to_string(&finding).unwrap();
        let objective = serde_json::to_string(&finding.scoring.objective).unwrap();
        let field = format!("\"objective\":{objective}");
        assert!(text.contains(&field), "{text}");
        let loss = text.replace(&field, "\"objective\":\"HighLoss\"");
        std::fs::write(corpus.findings_dir().join(&name), loss).unwrap();

        let reopened = Corpus::open(&dir).unwrap();
        assert_eq!(reopened.recovery().quarantined, vec![name.clone()]);
        assert!(reopened.quarantine_dir().join(&name).exists());
        assert!(reopened.load_all().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The gateway admits by packet count only: a finding file whose queue
    /// capacity names bytes no longer parses, and opening the corpus
    /// quarantines it.
    #[test]
    fn a_finding_with_a_byte_capacity_is_quarantined_on_open() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let finding = synthetic(CcaKind::Reno, 0.9, 4);
        let name = format!("{}.json", finding.id);
        let text = serde_json::to_string_pretty(&finding).unwrap();
        let packets = "\"queue_capacity\": {\n      \"Packets\": 100\n    }";
        assert!(text.contains(packets), "{text}");
        let bytes = text.replace(packets, "\"queue_capacity\": {\"Bytes\": 150000}");
        std::fs::write(corpus.findings_dir().join(&name), bytes).unwrap();

        let reopened = Corpus::open(&dir).unwrap();
        assert_eq!(reopened.recovery().quarantined, vec![name.clone()]);
        assert!(reopened.quarantine_dir().join(&name).exists());
        assert!(reopened.load_all().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn lock_excludes_a_second_holder_and_releases_on_drop() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let guard = corpus.lock().unwrap();
        let err = corpus.lock().unwrap_err();
        assert!(err.0.contains("locked by process"), "{err}");
        drop(guard);
        let reguard = corpus.lock().unwrap();
        drop(reguard);
        assert!(!dir.join("LOCK").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_lock_from_a_dead_pid_is_stolen() {
        if !Path::new("/proc").is_dir() {
            return; // Staleness detection needs procfs.
        }
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        // PID u32::MAX is above every kernel pid_max; no such process.
        std::fs::write(dir.join("LOCK"), format!("{}\n", u32::MAX)).unwrap();
        let guard = corpus.lock().expect("stale lock is stolen");
        drop(guard);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recycled_pid_lock_is_recognised_as_dead_and_stolen() {
        if !Path::new("/proc").is_dir() {
            return; // Staleness detection needs procfs.
        }
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        // The holder PID is this very test process (alive), but the recorded
        // start time cannot match: the "holder" died and its PID was
        // recycled. Start tick 0 belongs to a boot-time kernel task, never
        // to a userspace test runner.
        std::fs::write(dir.join("LOCK"), format!("{}:0\n", std::process::id())).unwrap();
        let guard = corpus.lock().expect("recycled-pid lock is stolen");
        drop(guard);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn matching_pid_and_starttime_is_held() {
        if !Path::new("/proc").is_dir() {
            return;
        }
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        let guard = corpus.lock().unwrap();
        // The lock file records our own pid:starttime; a second claimant
        // must see a live holder.
        let holder = std::fs::read_to_string(dir.join("LOCK")).unwrap();
        assert!(
            holder.trim().contains(':'),
            "lock records pid:starttime, got {holder:?}"
        );
        let err = corpus.lock().unwrap_err();
        assert!(err.0.contains("locked by process"), "{err}");
        drop(guard);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn legacy_bare_pid_lock_of_a_live_process_is_held() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        // Old-format lock naming a live PID: conservatively held, because a
        // bare PID cannot prove the holder died.
        std::fs::write(dir.join("LOCK"), format!("{}\n", std::process::id())).unwrap();
        let err = corpus.lock().unwrap_err();
        assert!(err.0.contains("locked by process"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unreadable_lock_content_is_treated_as_held() {
        let (corpus, dir) = temp_corpus(CorpusConfig::default());
        std::fs::write(dir.join("LOCK"), "definitely not a pid").unwrap();
        let err = corpus.lock().unwrap_err();
        assert!(err.0.contains("locked by process"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn merge_dedups_replaces_weaker_and_respects_retention() {
        let (dst, dst_dir) = temp_corpus(CorpusConfig {
            top_k_per_bucket: 2,
        });
        let src_dir = dst_dir.with_extension("src");
        let _ = std::fs::remove_dir_all(&src_dir);
        let src = Corpus::open_with(
            &src_dir,
            CorpusConfig {
                top_k_per_bucket: 8,
            },
        )
        .unwrap();

        // dst holds a weak and a mid finding (distinct signatures).
        dst.insert(&synthetic(CcaKind::Reno, 0.5, 1)).unwrap();
        dst.insert(&synthetic(CcaKind::Reno, 0.7, 2)).unwrap();
        // src: a stronger same-signature twin of the weak one, an exact
        // duplicate of the mid one, a new strongest finding, and one from a
        // different bucket.
        src.insert(&synthetic(CcaKind::Reno, 0.52, 1)).unwrap();
        src.insert(&synthetic(CcaKind::Reno, 0.7, 2)).unwrap();
        src.insert(&synthetic(CcaKind::Reno, 0.9, 4)).unwrap();
        src.insert(&synthetic(CcaKind::Cubic, 0.3, 1)).unwrap();

        let report = dst.merge(&src).unwrap();
        assert_eq!(report.candidates(), 4);
        assert_eq!(report.added, 2, "{report:?}"); // 0.9 reno + 0.3 cubic
        assert_eq!(report.duplicates, 1, "{report:?}"); // the 0.7 twin
        assert_eq!(report.source_quarantined, 0);
        // The strongest candidate landed first, so the 0.52 twin of the
        // weak incumbent was judged against a full {0.9, 0.7} bucket —
        // replaced or bucket-full, never both kept.
        assert_eq!(report.replaced + report.bucket_full, 1, "{report:?}");

        // Retention holds: the reno bucket keeps its strongest two.
        let buckets = dst.buckets().unwrap();
        let reno = &buckets[&("reno".to_string(), "traffic".to_string())];
        assert_eq!(reno.len(), 2);
        assert_eq!(reno[0].outcome.score, 0.9);
        assert_eq!(reno[1].outcome.score, 0.7);
        // The other bucket is untouched by reno's retention.
        assert_eq!(dst.ids_for_cca(CcaKind::Cubic).unwrap().len(), 1);

        // Merging the same source again is a no-op full of duplicates.
        let again = dst.merge(&src).unwrap();
        assert_eq!(again.added, 0);
        assert_eq!(again.replaced, 0);
        let _ = std::fs::remove_dir_all(dst_dir);
        let _ = std::fs::remove_dir_all(src_dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Merging corpora built from the same findings in ANY insertion
        /// order converges to the same surviving id set: the (descending
        /// score, id) candidate order makes merge outcomes a function of the
        /// finding *set*, not of write history.
        #[test]
        fn merge_result_is_independent_of_source_write_order(
            perm_seed in 0u64..64,
            top_k in 1usize..4,
        ) {
            use proptest::prelude::*;
            // Distinct scores and rto bands → distinct signatures, no ties.
            let mut pool: Vec<Finding> = (0..6)
                .map(|i| synthetic(CcaKind::Reno, 0.3 + 0.1 * i as f64, i))
                .collect();
            // A cheap deterministic permutation of the pool.
            let mut s = perm_seed;
            for i in (1..pool.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                pool.swap(i, (s >> 33) as usize % (i + 1));
            }

            let base = std::env::temp_dir().join(format!(
                "ccfuzz-merge-prop-{}-{:?}-{perm_seed}-{top_k}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&base);
            let src = Corpus::open_with(base.join("src"), CorpusConfig { top_k_per_bucket: 8 }).unwrap();
            for f in &pool {
                src.insert(f).unwrap();
            }
            let dst = Corpus::open_with(base.join("dst"), CorpusConfig { top_k_per_bucket: top_k }).unwrap();
            dst.merge(&src).unwrap();

            // Survivors are exactly the top_k strongest of the pool.
            let mut expected: Vec<&Finding> = pool.iter().collect();
            expected.sort_by(|a, b| b.outcome.score.partial_cmp(&a.outcome.score).unwrap());
            expected.truncate(top_k);
            let mut expected_ids: Vec<String> =
                expected.iter().map(|f| f.id.clone()).collect();
            expected_ids.sort();
            let mut got = dst.ids().unwrap();
            got.sort();
            prop_assert_eq!(got, expected_ids);
            let _ = std::fs::remove_dir_all(base);
        }

        /// A finding file truncated at ANY byte offset must never make the
        /// corpus unusable: reopening either keeps the finding (truncation
        /// only clipped insignificant bytes) or quarantines it, and
        /// `load_all` succeeds either way.
        #[test]
        fn truncated_finding_files_are_quarantined_never_fatal(cut in 0usize..2048) {
            use proptest::prelude::*;
            let (corpus, dir) = temp_corpus(CorpusConfig::default());
            let finding = synthetic(CcaKind::Reno, 0.9, 4);
            let path = corpus.save(&finding).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let cut = cut.min(bytes.len());
            std::fs::write(&path, &bytes[..cut]).unwrap();

            let reopened = Corpus::open(&dir).unwrap();
            let survivors = reopened.load_all().unwrap();
            if reopened.recovery().is_clean() {
                prop_assert_eq!(&survivors, &vec![finding]);
            } else {
                prop_assert_eq!(reopened.recovery().quarantined.len(), 1);
                prop_assert!(survivors.is_empty());
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
