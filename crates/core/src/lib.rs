//! # ccfuzz-core
//!
//! The CC-Fuzz genetic-algorithm fuzzer (the paper's primary contribution):
//! it evolves network traces — bottleneck service curves ("link fuzzing") or
//! cross-traffic injection patterns ("traffic fuzzing") — that make a
//! congestion control algorithm perform poorly, using the simulator in
//! `ccfuzz-netsim` as its fitness oracle.
//!
//! The module layout follows §3 of the paper:
//!
//! * [`trace_gen`] — initial trace generation (`DIST_PACKETS`, Figure 2).
//! * [`genome`] — the two genome types and their mutation / crossover /
//!   annealing operators (§3.2, §3.3).
//! * [`scoring`] — performance and trace scores (§3.4).
//! * [`selection`] — rank-based selection (§3.5).
//! * [`evaluate`] — the simulator-backed fitness function (§3.6).
//! * [`fuzzer`] — the GA over island-isolated populations (Figure 1, §4):
//!   one shard's evaluation, evolution and migration.
//! * [`shard`] — the one generation loop and the cross-island coordinator
//!   every fuzzer holds.
//! * [`pool`] — the work-stealing evaluation pool shared by the generation
//!   loop and the corpus minimizer.
//! * [`realism`] — multi-CCA realism scoring (§5, Figure 5).
//! * [`scenario`] — multi-flow scenario genomes for fairness fuzzing
//!   (flow count, per-flow CCA, start/stop schedule, optional traffic
//!   sub-genome).
//! * [`topology`] — multi-hop topology genomes for parking-lot fuzzing
//!   (per-hop rate/delay/buffer/qdisc genes, per-flow paths, add/remove-hop
//!   and bottleneck-shift mutations).
//! * [`workload`] — dynamic-arrival workload genomes for tail-latency
//!   fuzzing (arrival process, heavy-tailed flow sizes, concurrency cap,
//!   background elephant mix).
//! * [`mode`] — the [`ModeGenome`] trait every genome type implements once
//!   (generate / lower / score / type erasure) and the single
//!   `FuzzMode → genome type` dispatch; campaigns, the evaluator, hunts and
//!   replay are generic over it.
//! * [`campaign`] — ready-made campaigns matching the paper's evaluation,
//!   plus the fairness/aqm/topology/workload campaign presets built on the
//!   multi-flow, multi-hop, dynamic-arrival engine.
//!
//! ## Quick example
//!
//! ```no_run
//! use ccfuzz_core::campaign::{Campaign, FuzzMode};
//! use ccfuzz_core::fuzzer::GaParams;
//! use ccfuzz_core::genome::TrafficGenome;
//! use ccfuzz_cca::CcaKind;
//! use ccfuzz_netsim::time::SimDuration;
//!
//! let campaign = Campaign::paper_standard(
//!     FuzzMode::Traffic,
//!     CcaKind::Bbr,
//!     SimDuration::from_secs(5),
//!     GaParams::quick(),
//! );
//! let result = campaign.run::<TrafficGenome>(None);
//! println!("worst-case goodput found: {:.2} Mbps", result.best_outcome.goodput_bps / 1e6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod evaluate;
pub mod fuzzer;
pub mod genome;
pub mod mode;
pub mod pool;
pub mod realism;
pub mod scenario;
pub mod scoring;
pub mod selection;
pub mod shard;
pub mod topology;
pub mod trace_gen;
pub mod workload;

pub use campaign::{Campaign, FuzzMode};
pub use checkpoint::{ControlledRun, SnapshotPayload};
pub use evaluate::{EvalOutcome, Evaluator, SimEvaluator};
pub use fuzzer::{
    FuzzResult, Fuzzer, FuzzerSnapshot, GaParams, GenerationSummary, PanicRecord, StopReason,
};
pub use genome::{Genome, LinkGenome, TrafficGenome};
pub use mode::{GenomePayload, ModeGenome};
pub use scenario::{FlowGene, ScenarioGenome};
pub use scoring::{FairnessBreakdown, Objective, ScoringConfig};
pub use shard::{
    migration_k, shard_ranges, AbsorbResult, GenerationOutcome, LoopControl, MigrantBatch,
    ShardCoordinator, ShardReport, TopStat,
};
pub use topology::{HopGene, PathedFlowGene, TopologyGenome};
pub use workload::WorkloadGenome;
