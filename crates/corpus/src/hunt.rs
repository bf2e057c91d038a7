//! The hunt driver: run a fuzzing campaign and persist what it finds.
//!
//! This is the glue between `core::campaign` and the corpus — used by the
//! `ccfuzz hunt` subcommand, the examples and the integration tests.

use crate::checkpoint::{
    hunt_config_digest, CampaignCheckpoint, PanicFinding, TelemetryCounters, CHECKPOINT_SCHEMA,
    PANIC_SCHEMA,
};
use crate::daemon::{run_fleet, DistOptions};
use crate::finding::Finding;
use crate::store::{Corpus, CorpusError, InsertOutcome};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::checkpoint::ControlledRun;
use ccfuzz_core::fuzzer::{FuzzerSnapshot, GaParams, StopReason};
use ccfuzz_core::mode::{dispatch, ModeGenome, ModeVisitor};
use ccfuzz_core::scenario::QdiscChoice;
use ccfuzz_core::shard::LoopControl;
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_obs::{HuntTelemetry, Phase};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

/// Parameters of one hunt. Serializable so a campaign checkpoint can embed
/// the exact configuration it must be resumed with.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HuntConfig {
    /// Algorithm under test (the primary flow's algorithm in fairness mode).
    pub cca: CcaKind,
    /// Fuzzing mode.
    pub mode: FuzzMode,
    /// Scenario duration per simulation.
    pub duration: SimDuration,
    /// GA parameters.
    pub ga: GaParams,
    /// Per-flow algorithms for fairness mode and the CCA pool dynamic
    /// arrivals draw from in workload mode (ignored in the single-flow
    /// modes). Flow 0 is `cca`.
    pub flow_ccas: Vec<CcaKind>,
    /// Disciplines explored by AQM-mode hunts (ignored elsewhere).
    pub qdisc: QdiscChoice,
    /// Initial hop count for topology-mode hunts (ignored elsewhere).
    pub hops: usize,
}

impl HuntConfig {
    /// A quick-scale hunt (the `ccfuzz` CLI default): paper scenario, quick
    /// GA, `generations` generations, explicit seed. Fairness hunts default
    /// to `cca` vs. Reno.
    pub fn quick(cca: CcaKind, mode: FuzzMode, generations: u32, seed: u64) -> Self {
        let mut ga = GaParams::quick();
        ga.generations = generations.max(1);
        ga.seed = seed;
        let flow_ccas = match mode {
            FuzzMode::Fairness | FuzzMode::Workload => vec![cca, CcaKind::Reno],
            _ => vec![cca],
        };
        HuntConfig {
            cca,
            mode,
            duration: SimDuration::from_secs(3),
            ga,
            flow_ccas,
            qdisc: QdiscChoice::Any,
            hops: 3,
        }
    }

    /// The campaign this hunt runs.
    pub fn campaign(&self) -> Campaign {
        match self.mode {
            FuzzMode::Fairness => {
                let mut flow_ccas = self.flow_ccas.clone();
                if flow_ccas.is_empty() {
                    flow_ccas.push(self.cca);
                }
                flow_ccas[0] = self.cca;
                if flow_ccas.len() < 2 {
                    flow_ccas.push(CcaKind::Reno);
                }
                Campaign::paper_fairness(flow_ccas, self.duration, self.ga)
            }
            FuzzMode::Aqm => Campaign::paper_aqm(self.cca, self.duration, self.ga, self.qdisc),
            FuzzMode::Topology => {
                Campaign::paper_topology(self.cca, self.hops, self.duration, self.ga)
            }
            FuzzMode::Workload => {
                let mut pool = self.flow_ccas.clone();
                if pool.is_empty() {
                    pool.push(self.cca);
                }
                Campaign::paper_workload(self.cca, pool, 3, self.duration, self.ga)
            }
            _ => Campaign::paper_standard(self.mode, self.cca, self.duration, self.ga),
        }
    }
}

/// Runs the campaign described by `config` and inserts its best trace into
/// `corpus`. Returns the finding (whether or not the corpus kept it) and the
/// insert decision.
pub fn hunt(corpus: &Corpus, config: &HuntConfig) -> Result<(Finding, InsertOutcome), CorpusError> {
    hunt_with(corpus, config, None)
}

/// [`hunt`] with an optional telemetry observer: the campaign streams
/// per-generation snapshots through it and the corpus insert is recorded
/// (accept/dedup counters, corpus-io phase time).
pub fn hunt_with(
    corpus: &Corpus,
    config: &HuntConfig,
    obs: Option<&HuntTelemetry>,
) -> Result<(Finding, InsertOutcome), CorpusError> {
    match hunt_controlled(corpus, config, obs, HuntControl::default())? {
        HuntOutcome::Completed {
            finding, decision, ..
        } => Ok((*finding, decision)),
        other => Err(CorpusError(format!(
            "uncontrolled hunt stopped early: {other:?}"
        ))),
    }
}

/// External control plane for a hunt: cooperative shutdown, periodic
/// checkpointing, panic budget and resume state. The default is a plain
/// run-to-completion hunt with no checkpointing.
#[derive(Default)]
pub struct HuntControl<'c> {
    /// Raising this stops the campaign at the next generation boundary.
    pub shutdown: Option<&'c AtomicBool>,
    /// Where to write checkpoints. `None` disables checkpointing entirely.
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many completed generations (0 = only
    /// the final checkpoint when the run stops).
    pub checkpoint_every: u32,
    /// Caught evaluation panics tolerated before the campaign aborts
    /// (`None` = unlimited).
    pub panic_budget: Option<u64>,
    /// Resume from this checkpoint instead of starting fresh. Its embedded
    /// config must equal the `config` passed to [`hunt_controlled`].
    pub resume: Option<CampaignCheckpoint>,
}

/// How a controlled hunt ended.
#[derive(Clone, Debug)]
pub enum HuntOutcome {
    /// The campaign ran to completion and its best trace was offered to the
    /// corpus.
    Completed {
        /// The best finding (whether or not the corpus kept it). Boxed so
        /// the early-stop variants do not carry a finding-sized payload.
        finding: Box<Finding>,
        /// What the corpus did with it.
        decision: InsertOutcome,
        /// Caught evaluation panics (each persisted as a panic artifact).
        panics: u64,
    },
    /// The shutdown flag stopped the campaign at a resumable boundary; the
    /// final checkpoint (if a path was configured) resumes it.
    Interrupted {
        /// Generation the resumed campaign will evaluate next.
        next_generation: u32,
        /// Simulations completed before stopping.
        evaluations: u64,
        /// Caught evaluation panics (each persisted as a panic artifact).
        panics: u64,
    },
    /// More evaluation panics were caught than the budget tolerates.
    PanicBudgetExhausted {
        /// Caught panics (each persisted as a panic artifact).
        panics: u64,
        /// Generation the campaign stopped after.
        next_generation: u32,
    },
}

impl HuntOutcome {
    /// Evaluation panics the whole campaign caught, a resumed run's earlier
    /// ones included: the length of the final snapshot's panic log.
    pub fn panics(&self) -> u64 {
        match self {
            HuntOutcome::Completed { panics, .. }
            | HuntOutcome::Interrupted { panics, .. }
            | HuntOutcome::PanicBudgetExhausted { panics, .. } => *panics,
        }
    }
}

/// [`hunt_with`] plus the crash-safety control plane: periodic + final
/// checkpoints (written atomically), resume, graceful shutdown, panic
/// isolation with persisted panic artifacts.
pub fn hunt_controlled(
    corpus: &Corpus,
    config: &HuntConfig,
    obs: Option<&HuntTelemetry>,
    ctl: HuntControl<'_>,
) -> Result<HuntOutcome, CorpusError> {
    let job = HuntJob {
        corpus,
        config,
        obs,
        ctl,
        dist: None,
    };
    dispatch(config.mode, job)
}

/// One hunt, local (`dist: None`) or sharded across a worker fleet: runs
/// the campaign under control, persists checkpoints and panic artifacts,
/// and (on completion) inserts the best finding.
///
/// Both kinds run the same driver (`ccfuzz_core::shard::drive`) — over one
/// in-process lane, or over `crate::daemon`'s TCP fleet under its respawn
/// supervisor — and then this same persistence path: same panic artifacts,
/// same final checkpoint, same finding construction. That is what makes a
/// daemon hunt's payload byte-identical to `ccfuzz hunt`'s.
pub(crate) struct HuntJob<'a, 'c> {
    pub(crate) corpus: &'a Corpus,
    pub(crate) config: &'a HuntConfig,
    pub(crate) obs: Option<&'a HuntTelemetry>,
    pub(crate) ctl: HuntControl<'c>,
    pub(crate) dist: Option<&'a DistOptions<'a>>,
}

impl ModeVisitor for HuntJob<'_, '_> {
    type Out = Result<HuntOutcome, CorpusError>;

    fn visit<G: ModeGenome>(self) -> Self::Out {
        let HuntJob {
            corpus,
            config,
            obs,
            ctl,
            dist,
        } = self;
        let campaign = config.campaign();
        let HuntControl {
            shutdown,
            checkpoint_path,
            checkpoint_every,
            panic_budget,
            resume,
        } = ctl;

        // Resume: unwrap the stored fuzzer state and re-seed telemetry totals
        // so counters continue the interrupted campaign's counts.
        let resume_state = match resume {
            Some(ck) => {
                if &ck.config != config {
                    return Err(CorpusError(
                        "resume checkpoint was recorded for a different hunt configuration".into(),
                    ));
                }
                if dist.is_some() {
                    return Err(CorpusError(
                        "resuming a checkpointed campaign across a distributed fleet is not \
                         supported; resume it single-process with `ccfuzz resume`"
                            .into(),
                    ));
                }
                if let Some(o) = obs {
                    o.metrics.restore_counts(
                        &ck.telemetry.operators,
                        ck.telemetry.corpus_inserted,
                        ck.telemetry.corpus_deduplicated,
                    );
                    o.metrics
                        .checkpoints_written
                        .add(ck.telemetry.checkpoints_written);
                    o.metrics
                        .checkpoint_bytes
                        .add(ck.telemetry.checkpoint_bytes);
                }
                Some(G::unwrap_snapshot(ck.state).map_err(CorpusError)?)
            }
            None => None,
        };

        // The fuzzer state stays typed until it is written: the genome type
        // is erased here, for the file, and nowhere else.
        let corpus_dir = corpus.root().display().to_string();
        let persist = |state: FuzzerSnapshot<G>, completed: bool| -> Result<(), CorpusError> {
            let Some(path) = checkpoint_path.as_deref() else {
                return Ok(());
            };
            let telemetry = TelemetryCounters {
                evaluations: state.evaluations as u64,
                operators: obs
                    .map(|o| o.metrics.operator_snapshot())
                    .unwrap_or_default(),
                panics_caught: state.panics.len() as u64,
                checkpoints_written: obs
                    .map(|o| o.metrics.checkpoints_written.get() + 1)
                    .unwrap_or(0),
                checkpoint_bytes: obs.map(|o| o.metrics.checkpoint_bytes.get()).unwrap_or(0),
                corpus_inserted: obs.map(|o| o.metrics.corpus_inserted.get()).unwrap_or(0),
                corpus_deduplicated: obs
                    .map(|o| o.metrics.corpus_deduplicated.get())
                    .unwrap_or(0),
            };
            let ck = CampaignCheckpoint {
                schema: CHECKPOINT_SCHEMA,
                config: config.clone(),
                config_digest: hunt_config_digest(config),
                corpus_dir: corpus_dir.clone(),
                checkpoint_every,
                panic_budget,
                completed,
                telemetry,
                state: G::wrap_snapshot(state),
            };
            let bytes = ck.write_atomic(path)?;
            if let Some(o) = obs {
                o.metrics.checkpoints_written.inc();
                o.metrics.checkpoint_bytes.add(bytes);
            }
            Ok(())
        };

        // The fuzzer's checkpoint callback cannot return an error, so the first
        // write failure is parked here and surfaced after the run.
        let mut write_error: Option<CorpusError> = None;
        let mut on_checkpoint = |state: FuzzerSnapshot<G>| {
            if write_error.is_none() {
                if let Err(e) = persist(state, false) {
                    write_error = Some(e);
                }
            }
        };
        let control = LoopControl {
            shutdown,
            // One cadence per hunt: a local run hands the sink below a
            // campaign checkpoint on it, a fleet's workers persist theirs.
            checkpoint_every,
            panic_budget,
            obs,
            ..LoopControl::default()
        };
        let out: ControlledRun<G> = match dist {
            None => {
                let sink = checkpoint_path.is_some().then_some(&mut on_checkpoint as _);
                campaign.run_controlled(resume_state, &control, sink)
            }
            Some(dist) => run_fleet(config, &control, dist),
        }
        .map_err(CorpusError)?;
        if let Some(e) = write_error {
            return Err(e);
        }
        let ControlledRun {
            result,
            stop,
            final_snapshot,
        } = out;

        // Persist panic artifacts. Ordinals are positions in the cumulative
        // panic log (which survives checkpoints), so re-persisting after a
        // resume rewrites the same files with the same content.
        if !final_snapshot.panics.is_empty() {
            let dir = corpus.root().join("panics");
            for (pos, record) in final_snapshot.panics.iter().enumerate() {
                PanicFinding {
                    schema: PANIC_SCHEMA,
                    ordinal: pos as u64 + 1,
                    cca: config.cca,
                    mode: config.mode,
                    generation: record.generation,
                    island: record.island,
                    index: record.index,
                    message: record.message.clone(),
                    genome: record.genome.clone().wrap(),
                }
                .write_into(&dir)?;
            }
        }

        // The final checkpoint is written on EVERY stop — completion included —
        // so a crash at any later point (even during the corpus insert below)
        // resumes to an identical end state.
        let panics = final_snapshot.panics.len() as u64;
        let next_generation = final_snapshot.next_generation;
        let evaluations = final_snapshot.evaluations as u64;
        persist(final_snapshot, stop == StopReason::Completed)?;

        match stop {
            StopReason::Completed => {
                let _timer = obs.map(|o| o.profiler.scope(Phase::CorpusIo));
                let finding = Finding::from_campaign(
                    &campaign,
                    result.best_genome.wrap(),
                    result.best_outcome,
                    result.total_evaluations as u64,
                );
                let decision = corpus.insert(&finding)?;
                if let Some(obs) = obs {
                    match decision {
                        InsertOutcome::Added | InsertOutcome::ReplacedWeaker { .. } => {
                            obs.metrics.corpus_inserted.inc()
                        }
                        InsertOutcome::DuplicateRejected { .. }
                        | InsertOutcome::BucketFullRejected { .. } => {
                            obs.metrics.corpus_deduplicated.inc()
                        }
                    }
                }
                Ok(HuntOutcome::Completed {
                    finding: Box::new(finding),
                    decision,
                    panics,
                })
            }
            StopReason::Interrupted => Ok(HuntOutcome::Interrupted {
                next_generation,
                evaluations,
                panics,
            }),
            StopReason::PanicBudgetExhausted => Ok(HuntOutcome::PanicBudgetExhausted {
                panics,
                next_generation,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CorpusConfig;

    #[test]
    fn hunt_persists_a_deduplicated_finding() {
        let dir = std::env::temp_dir().join(format!(
            "ccfuzz-hunt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();

        let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Traffic, 2, 11);
        config.ga.islands = 2;
        config.ga.population_per_island = 3;
        config.duration = SimDuration::from_secs(2);

        let (finding, decision) = hunt(&corpus, &config).unwrap();
        assert_eq!(decision, InsertOutcome::Added);
        assert_eq!(corpus.get(&finding.id).unwrap(), finding);

        // The same hunt again produces the identical finding (determinism)
        // and is rejected as a duplicate.
        let (again, decision) = hunt(&corpus, &config).unwrap();
        assert_eq!(again, finding);
        assert_eq!(
            decision,
            InsertOutcome::DuplicateRejected {
                existing_score: finding.outcome.score
            }
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fairness_hunt_produces_a_scenario_finding_with_per_flow_results() {
        let dir = std::env::temp_dir().join(format!(
            "ccfuzz-fairhunt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();

        let mut config = HuntConfig::quick(CcaKind::Bbr, FuzzMode::Fairness, 2, 7);
        config.flow_ccas = vec![CcaKind::Bbr, CcaKind::Reno];
        config.ga.islands = 2;
        config.ga.population_per_island = 3;
        config.duration = SimDuration::from_secs(2);

        let (finding, decision) = hunt(&corpus, &config).unwrap();
        assert_eq!(decision, InsertOutcome::Added);
        assert!(finding.id.starts_with("bbr-fairness-"));
        let fairness = finding.fairness.as_ref().expect("per-flow summary");
        assert!(fairness.per_flow_goodput_bps.len() >= 2);
        assert_eq!(
            fairness.per_flow_goodput_bps.len(),
            fairness.per_flow_cca.len()
        );
        assert!((0.0..=1.0).contains(&fairness.jain_index));
        assert!(finding.behavior_digest != 0);
        // Round trip through disk preserves the fairness block.
        assert_eq!(corpus.get(&finding.id).unwrap(), finding);
        let _ = std::fs::remove_dir_all(dir);
    }
}
