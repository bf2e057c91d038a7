//! # ccfuzz-corpus
//!
//! The persistence layer that turns one-off fuzzing campaigns into a
//! regression system: a findings corpus, trace minimization and
//! deterministic replay.
//!
//! * [`finding`] — the self-contained, replayable [`Finding`](finding::Finding)
//!   record: genome + CCA + full simulation/scoring config + score breakdown
//!   + behaviour signature + provenance.
//! * [`signature`] — quantized behaviour fingerprints used to deduplicate
//!   near-identical findings.
//! * [`store`] — the on-disk corpus: JSON files, signature dedup, top-K
//!   retention per (CCA, mode) bucket, atomic writes, startup recovery and
//!   an exclusive campaign lock.
//! * [`checkpoint`] — persistent campaign checkpoints (resume an
//!   interrupted hunt to a byte-identical trajectory) and panic artifacts.
//! * [`minimize`] — delta-debugging plus value-level shrinking that keeps a
//!   configurable fraction of the original score.
//! * [`replay`] — deterministic regression replay with a byte-stable report.
//! * [`hunt`] — campaign driver that persists what it finds.
//! * [`report`] — corpus summary tables.
//! * [`proto`] / [`worker`] / [`daemon`] — the distributed orchestration
//!   layer: the length-prefixed JSON frame protocol, the island-shard
//!   worker process, and the coordinator + `ccfuzzd` HTTP daemon that
//!   shards campaigns across supervised worker fleets.
//!
//! The `ccfuzz` binary (`hunt` / `minimize` / `replay` / `report` /
//! `submit` / `status` / `fetch`) is the command-line face of this crate,
//! and `ccfuzzd` is the hunt daemon; see the repository README for a
//! walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod daemon;
pub mod finding;
pub mod hunt;
pub mod minimize;
pub mod proto;
pub mod replay;
pub mod report;
pub mod signature;
pub mod store;
pub mod worker;

pub use checkpoint::{
    hunt_config_digest, CampaignCheckpoint, PanicFinding, TelemetryCounters, CHECKPOINT_SCHEMA,
};
pub use daemon::{
    hunt_distributed, serve, DistOptions, DistProgress, HuntSpec, HuntState, HuntStatus,
};
pub use finding::{Finding, GenomePayload, Provenance};
pub use hunt::{hunt, hunt_controlled, HuntConfig, HuntControl, HuntOutcome};
pub use minimize::{
    minimize_finding, minimize_finding_with, minimize_link, minimize_traffic, MinimizeConfig,
    MinimizePool, MinimizeReport,
};
pub use replay::{replay_corpus, replay_findings, ReplayReport};
pub use report::corpus_report;
pub use signature::BehaviorSignature;
pub use store::{
    Corpus, CorpusConfig, CorpusError, CorpusLock, InsertOutcome, MergeReport, RecoveryReport,
};
pub use worker::run_worker;
