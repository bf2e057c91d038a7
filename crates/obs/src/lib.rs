//! # ccfuzz-obs
//!
//! Observability primitives for the cc-fuzz workspace, kept dependency-light
//! (only the vendored serde shims) so every layer — the simulator, the GA
//! core, the corpus driver and the bench harness — can record into it:
//!
//! * [`fleet`] — worker-tagged counter lanes for distributed hunts
//!   (per-worker evaluations, panics, migrant routing), counting the work
//!   this process saw, respawn repeats included.
//! * [`metrics`] — lock-free counters and 256-bucket log-scale
//!   [`Histogram`]s that any number of threads record into.
//! * [`persist`] — crash-safe [`write_atomic`] (write-temp + fsync +
//!   rename) shared by the corpus store, campaign checkpoints and the
//!   bench reporter.
//! * [`profile`] — a scoped wall-clock [`PhaseProfiler`] for the campaign
//!   loop's generate / evaluate / select / mutate / corpus-io phases.
//! * [`telemetry`] — the per-hunt [`HuntTelemetry`] bundle: the metric
//!   registry, the JSONL [`Snapshot`] progress stream and the stderr
//!   status line. It measures this process; the campaign's totals
//!   (evaluations, best score, caught panics) are the GA coordinator's,
//!   and each snapshot reads them from the generation loop.
//!
//! Design rule: recording must be safe to leave enabled in the hot path
//! (relaxed atomics, no locks, no allocation), and anything heavier —
//! percentile walks, serialization, I/O — happens only at snapshot time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod metrics;
pub mod persist;
pub mod profile;
pub mod telemetry;

pub use fleet::{FleetTelemetry, WorkerLane, WorkerLaneSnapshot};
pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use persist::{write_atomic, write_atomic_from};
pub use profile::{Phase, PhaseProfiler};
pub use telemetry::{CampaignMetrics, HuntTelemetry, LatencyQuantiles, OperatorSnapshot, Snapshot};
