//! # ccfuzz-analysis
//!
//! Measurement post-processing for CC-Fuzz: windowed throughput and rate
//! curves, percentile/score helpers, the §4 findings' signatures and RTO
//! timelines, deterministic text tables (used by the corpus replay/report
//! tooling) and the trace explorer's views.
//!
//! Everything here consumes the [`RunStats`](ccfuzz_netsim::stats::RunStats)
//! produced by a simulation run; nothing feeds back into the simulator, so
//! the fuzzer core and the `paper` table can share one implementation of
//! "how do we measure a run".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod table;
pub mod timeseries;
pub mod traceview;

pub use timeseries::{mean_of_lowest_fraction, percentile, windowed_throughput_bps};
