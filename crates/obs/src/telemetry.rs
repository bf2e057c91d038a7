//! Campaign-level telemetry: the hunt's metric registry, the periodic
//! progress [`Snapshot`] stream (JSONL) and the human status line.
//!
//! Telemetry measures the process; the coordinator counts the campaign.
//! The campaign's totals — evaluations, the best score, caught panics —
//! live in `core::shard::ShardCoordinator`, which checkpoints them and rolls
//! them back on a fleet respawn, and each [`Snapshot`] reads them from the
//! generation loop. The registry keeps only what this process saw: eval
//! latency, reused outcomes, operator counts, corpus and checkpoint I/O.
//! Operator counts (like the fleet's worker lanes) therefore include the
//! generations a fleet respawn repeats.
//!
//! A [`HuntTelemetry`] is shared by reference between the campaign driver
//! and the GA worker threads: all recording goes through lock-free
//! [`metrics`](crate::metrics) primitives, and the only lock (around the
//! JSONL sink) is taken once per generation by whichever thread emits the
//! snapshot.

use crate::metrics::{Counter, Histogram};
use crate::profile::PhaseProfiler;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Snapshot schema version, bumped on breaking field changes.
pub const SNAPSHOT_SCHEMA: u32 = 1;

/// How often each GA operator produced an individual.
#[derive(Debug, Default)]
pub struct OperatorCounters {
    /// Individuals carried over unchanged as elites.
    pub elite: Counter,
    /// Individuals bred by crossover.
    pub crossover: Counter,
    /// Individuals produced by mutation.
    pub mutation: Counter,
    /// Mutations routed through the annealing schedule.
    pub anneal: Counter,
    /// Individuals copied between islands by migration.
    pub migrant: Counter,
}

impl OperatorCounters {
    /// Adds every count of `counts`.
    pub fn add(&self, counts: &OperatorSnapshot) {
        self.elite.add(counts.elite);
        self.crossover.add(counts.crossover);
        self.mutation.add(counts.mutation);
        self.anneal.add(counts.anneal);
        self.migrant.add(counts.migrant);
    }
}

/// The hunt's metric registry: fixed, named, lock-free slots for what
/// this process measures. Recording costs a relaxed atomic op; reads
/// happen only when a snapshot is taken.
#[derive(Debug, Default)]
pub struct CampaignMetrics {
    /// Evaluations of a child identical to a scored parent, answered with
    /// that parent's outcome instead of a simulation. Counted by this
    /// process only: never checkpointed, streamed or sent over the wire.
    pub evaluations_reused: Counter,
    /// Wall-clock nanoseconds per simulated fitness evaluation (reused
    /// outcomes are not timed, so the percentiles stay simulation latency).
    pub eval_latency_ns: Histogram,
    /// Per-operator production counts.
    pub operators: OperatorCounters,
    /// Findings accepted by the corpus (new or replacing weaker ones).
    pub corpus_inserted: Counter,
    /// Findings rejected as duplicates or by bucket top-K retention.
    pub corpus_deduplicated: Counter,
    /// Campaign checkpoints written to disk.
    pub checkpoints_written: Counter,
    /// Total bytes of checkpoint payload persisted.
    pub checkpoint_bytes: Counter,
    /// Finding files quarantined or swept by corpus startup recovery.
    pub recovered_files: Counter,
}

impl CampaignMetrics {
    /// Re-seeds the cumulative counters from a resumed campaign's
    /// checkpoint so post-resume telemetry continues the original
    /// campaign's totals instead of restarting from zero. (Evaluations and
    /// caught panics need no re-seeding: the resumed snapshot carries them.)
    pub fn restore_counts(
        &self,
        operators: &OperatorSnapshot,
        corpus_inserted: u64,
        corpus_deduplicated: u64,
    ) {
        self.operators.add(operators);
        self.corpus_inserted.add(corpus_inserted);
        self.corpus_deduplicated.add(corpus_deduplicated);
    }

    /// The operator counters as a plain snapshot (used when embedding
    /// telemetry totals in a checkpoint).
    pub fn operator_snapshot(&self) -> OperatorSnapshot {
        OperatorSnapshot {
            elite: self.operators.elite.get(),
            crossover: self.operators.crossover.get(),
            mutation: self.operators.mutation.get(),
            anneal: self.operators.anneal.get(),
            migrant: self.operators.migrant.get(),
        }
    }
}

/// Per-operator counts as carried by a [`Snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OperatorSnapshot {
    /// Elites carried over.
    pub elite: u64,
    /// Crossover offspring.
    pub crossover: u64,
    /// Mutated offspring.
    pub mutation: u64,
    /// Annealed mutations.
    pub anneal: u64,
    /// Migrated individuals.
    pub migrant: u64,
}

impl OperatorSnapshot {
    /// The counts this cumulative snapshot adds to an `earlier` one
    /// (saturating, so a counter that went backwards adds nothing).
    pub fn since(&self, earlier: &OperatorSnapshot) -> OperatorSnapshot {
        OperatorSnapshot {
            elite: self.elite.saturating_sub(earlier.elite),
            crossover: self.crossover.saturating_sub(earlier.crossover),
            mutation: self.mutation.saturating_sub(earlier.mutation),
            anneal: self.anneal.saturating_sub(earlier.anneal),
            migrant: self.migrant.saturating_sub(earlier.migrant),
        }
    }
}

/// Eval-latency percentiles in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyQuantiles {
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

/// One periodic progress record, emitted per generation as a JSONL line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version ([`SNAPSHOT_SCHEMA`]).
    pub schema: u32,
    /// Generation index (0-based).
    pub generation: u32,
    /// The campaign's fitness evaluations so far (the coordinator's count).
    pub evaluations: u64,
    /// Wall-clock seconds since the hunt started.
    pub elapsed_secs: f64,
    /// Evaluations per wall-clock second so far.
    pub evals_per_sec: f64,
    /// Best score across all islands so far.
    pub best_score: f64,
    /// Mean score of the current population.
    pub mean_score: f64,
    /// Best score per island this generation (the plateau trajectory).
    pub island_best: Vec<f64>,
    /// Operator hit counts so far.
    pub operators: OperatorSnapshot,
    /// Eval-latency percentiles so far.
    pub eval_latency_ns: LatencyQuantiles,
}

/// The live observability bundle for one hunt: metrics + profiler + the
/// optional JSONL sink and stderr status line.
pub struct HuntTelemetry {
    /// The metric registry; workers record into this directly.
    pub metrics: CampaignMetrics,
    /// Wall-time breakdown of the campaign loop.
    pub profiler: PhaseProfiler,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
    status: bool,
    started: Instant,
}

impl Default for HuntTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl HuntTelemetry {
    /// Telemetry with no sink and no status line: pure in-memory metrics.
    pub fn new() -> Self {
        HuntTelemetry {
            metrics: CampaignMetrics::default(),
            profiler: PhaseProfiler::new(),
            sink: Mutex::new(None),
            status: false,
            started: Instant::now(),
        }
    }

    /// Streams one JSONL [`Snapshot`] per generation into `sink`.
    pub fn with_sink(self, sink: Box<dyn Write + Send>) -> Self {
        HuntTelemetry {
            sink: Mutex::new(Some(sink)),
            ..self
        }
    }

    /// Prints a one-line progress summary to stderr per generation.
    pub fn with_status_line(mut self) -> Self {
        self.status = true;
        self
    }

    /// Builds the current [`Snapshot`] for a finished generation: the
    /// campaign's totals as the coordinator counts them, plus this
    /// process's measurements.
    pub fn snapshot(
        &self,
        generation: u32,
        evaluations: u64,
        best_score: f64,
        mean_score: f64,
        island_best: Vec<f64>,
    ) -> Snapshot {
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let latency = self.metrics.eval_latency_ns.snapshot();
        Snapshot {
            schema: SNAPSHOT_SCHEMA,
            generation,
            evaluations,
            elapsed_secs,
            evals_per_sec: evaluations as f64 / elapsed_secs.max(1e-9),
            best_score,
            mean_score,
            island_best,
            operators: self.metrics.operator_snapshot(),
            eval_latency_ns: LatencyQuantiles {
                p50_ns: latency.percentile(50.0),
                p95_ns: latency.percentile(95.0),
                p99_ns: latency.percentile(99.0),
            },
        }
    }

    /// Records a finished generation: appends a JSONL snapshot to the sink
    /// (if any) and prints the status line (if enabled). Sink write errors
    /// are swallowed — telemetry must never abort a hunt.
    pub fn observe_generation(
        &self,
        generation: u32,
        evaluations: u64,
        best_score: f64,
        mean_score: f64,
        island_best: Vec<f64>,
    ) {
        let snap = self.snapshot(generation, evaluations, best_score, mean_score, island_best);
        if let Ok(mut guard) = self.sink.lock() {
            if let Some(sink) = guard.as_mut() {
                let line = serde_json::to_string(&snap).expect("snapshot serializes");
                let _ = writeln!(sink, "{line}");
                let _ = sink.flush();
            }
        }
        if self.status {
            eprintln!(
                "[gen {:>3}] best {:.4} mean {:.4} | {} evals, {:.1}/s | eval p50/p95/p99 {:.2}/{:.2}/{:.2} ms",
                snap.generation,
                snap.best_score,
                snap.mean_score,
                snap.evaluations,
                snap.evals_per_sec,
                snap.eval_latency_ns.p50_ns as f64 / 1e6,
                snap.eval_latency_ns.p95_ns as f64 / 1e6,
                snap.eval_latency_ns.p99_ns as f64 / 1e6,
            );
        }
    }

    /// The profiler's wall-time breakdown plus the share of evaluations
    /// that reused a parent's outcome (printed at campaign end). Both counts
    /// cover this process: every evaluation it ran was either simulated
    /// (and timed) or reused, while a [`Snapshot`]'s `evaluations` also
    /// carries a resumed campaign's earlier work.
    pub fn phase_report(&self) -> String {
        let reused = self.metrics.evaluations_reused.get();
        let ran = self.metrics.eval_latency_ns.snapshot().count + reused;
        format!(
            "{}\n{reused} of {ran} evaluations reused an identical parent's outcome",
            self.profiler.report()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write sink backed by a shared Vec, for asserting on JSONL output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn snapshots_round_trip_and_stream_as_jsonl() {
        let buf = SharedBuf::default();
        let telemetry = HuntTelemetry::new().with_sink(Box::new(buf.clone()));
        telemetry.metrics.eval_latency_ns.record(1_000_000);
        telemetry.metrics.operators.mutation.add(5);
        telemetry.observe_generation(0, 12, 0.75, 0.40, vec![0.75, 0.60]);
        telemetry.observe_generation(1, 24, 0.80, 0.55, vec![0.80, 0.61]);

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Snapshot = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.schema, SNAPSHOT_SCHEMA);
        assert_eq!(first.generation, 0);
        assert_eq!(first.evaluations, 12);
        assert_eq!(first.best_score, 0.75);
        assert_eq!(first.island_best, vec![0.75, 0.60]);
        assert_eq!(first.operators.mutation, 5);
        assert!(first.eval_latency_ns.p50_ns > 0);
        let second: Snapshot = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.generation, 1);
        assert_eq!(second.evaluations, 24);
        assert_eq!(second.best_score, 0.80);
    }

    #[test]
    fn phase_report_counts_this_process_reuse() {
        let telemetry = HuntTelemetry::new();
        // A resumed campaign's earlier evaluations are not this process's
        // work: the snapshot carries them, the report does not.
        telemetry.observe_generation(4, 100, 1.0, 1.0, vec![1.0]);
        for nanos in [1_000, 2_000, 3_000] {
            telemetry.metrics.eval_latency_ns.record(nanos);
        }
        telemetry.metrics.evaluations_reused.add(1);
        let report = telemetry.phase_report();
        assert!(report.starts_with("phase breakdown: "), "{report}");
        assert!(
            report.ends_with("\n1 of 4 evaluations reused an identical parent's outcome"),
            "{report}"
        );
    }

    #[test]
    fn metrics_only_telemetry_needs_no_sink() {
        let telemetry = HuntTelemetry::new();
        telemetry.observe_generation(0, 1, 1.0, 1.0, vec![1.0]);
        let snap = telemetry.snapshot(0, 1, 1.0, 1.0, vec![1.0]);
        assert_eq!(snap.evaluations, 1);
        assert!(snap.evals_per_sec > 0.0);
    }
}
