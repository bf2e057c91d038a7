//! The metric tables (name, unit, direction, bound) and the two JSON shapes
//! the contract fixes: `BENCHMARK.json` and the result line every run prints
//! last.

use serde::value::Value;
use serde::{Deserialize, Serialize};

/// An end-to-end metric: name, unit, better direction, regression bound.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);
/// A per-layer metric: name, unit, better direction.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// What a user of the system sees, per workload, with tracing off. The
/// bound is the share of the parent's median a later change may worsen the
/// metric by. The issue's sixth metric, `fail_ratio`, is zero by design and
/// therefore travels as the `failed` / `attempted` pair of the result line.
pub const END_TO_END: [EndToEnd; 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("hunt_wall_s", "s", "lower", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("triage_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// One number per layer boundary, from the traced run.
pub const PER_LAYER: [PerLayer; 39] = [
    // core::fuzzer
    ("ga.init_ms", "ms", "lower"),
    ("ga.evaluate_ms_p50", "ms", "lower"),
    ("ga.evaluate_ms_p80", "ms", "lower"),
    ("ga.evolve_ms_p50", "ms", "lower"),
    ("ga.evolve_ms_p80", "ms", "lower"),
    ("ga.migrate_ms_p50", "ms", "lower"),
    ("shard.absorb_us_p50", "us", "lower"),
    ("ga.serial_share", "ratio", "lower"),
    ("ga.parallel_efficiency", "ratio", "higher"),
    // core::evaluate + netsim + cca
    ("eval.simulate_us_p50", "us", "lower"),
    ("eval.simulate_us_p95", "us", "lower"),
    ("eval.score_us_p50", "us", "lower"),
    ("eval.score_share", "ratio", "lower"),
    ("eval.cold_over_warm", "ratio", "lower"),
    ("netsim.events_per_eval", "count", "lower"),
    ("netsim.ns_per_event", "ns", "lower"),
    // vendor/serde_json + corpus::checkpoint / worker
    ("serde.snapshot_encode_ms_p50", "ms", "lower"),
    ("serde.snapshot_decode_ms_p50", "ms", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("checkpoint.write_ms_p50", "ms", "lower"),
    ("checkpoint.write_ms_p80", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("worker_ckpt.bytes", "B", "lower"),
    ("worker_ckpt.write_ms_p50", "ms", "lower"),
    // corpus::proto
    ("proto.bytes_per_gen", "B", "lower"),
    ("proto.encode_us_per_gen", "us", "lower"),
    ("proto.decode_us_per_gen", "us", "lower"),
    // corpus::daemon
    ("fleet.control_wall_s", "s", "lower"),
    ("fleet.overhead_ratio", "ratio", "lower"),
    ("fleet.unattributed_s", "s", "lower"),
    ("fleet.restarts", "count", "lower"),
    // corpus::{store, minimize, replay}
    ("corpus.open_ms", "ms", "lower"),
    ("corpus.insert_ms", "ms", "lower"),
    ("corpus.merge_ms", "ms", "lower"),
    ("corpus.minimize_ms", "ms", "lower"),
    ("corpus.minimize_sims", "count", "lower"),
    ("corpus.replay_ms_per_finding", "ms", "lower"),
    // harness
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.0 == name).map(|m| m.3)
}

/// Whether a larger value of an end-to-end metric is the better one.
pub fn higher_is_better(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.0 == name && m.2 == "higher")
}

/// `workloads[]` entry of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// One line on why it exists.
    pub why: String,
}

/// `end_to_end[]` entry of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// `per_layer[]` entry of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerLayerSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
}

/// The whole of `BENCHMARK.json`, keys in file order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Program and arguments of the single command.
    pub command: Vec<String>,
    /// Directories holding the benchmark and nothing else.
    pub paths: Vec<String>,
    /// How long one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// End-to-end metrics.
    pub end_to_end: Vec<EndToEndSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<PerLayerSpec>,
}

/// The spec this harness implements, built from the tables in code.
pub fn benchmark_spec(run_seconds: u64) -> BenchmarkSpec {
    BenchmarkSpec {
        command: vec!["bash".to_string(), "benchmark/run.sh".to_string()],
        paths: vec!["benchmark".to_string()],
        run_seconds,
        workloads: crate::workload::WORKLOADS
            .iter()
            .map(|w| WorkloadSpec {
                name: w.name.to_string(),
                why: w.why.to_string(),
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| EndToEndSpec {
                name: name.to_string(),
                unit: unit.to_string(),
                better: better.to_string(),
                bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|&(name, unit, better)| PerLayerSpec {
                name: name.to_string(),
                unit: unit.to_string(),
                better: better.to_string(),
            })
            .collect(),
    }
}

/// The JSON object a run prints as its last stdout line: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = unit_of(name).expect("every reported metric is in a table");
            let entry = Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::map_get;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::workload::WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
        for (_, unit, better, bound) in END_TO_END {
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(&better));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (_, unit, better) in PER_LAYER {
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(&better));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        let setup_bound = bound_of("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.3 <= setup_bound));
        assert!(crate::workload::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200));
    }

    #[test]
    fn committed_benchmark_json_round_trips_and_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert!(text.len() <= 64 * 1024);
        let spec: BenchmarkSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, benchmark_spec(spec.run_seconds));
        assert!((1..=60).contains(&spec.run_seconds));
        // Exactly the contract's keys, and a lossless round trip.
        let value: Value = serde_json::from_str(&text).unwrap();
        let keys: Vec<&str> = value
            .as_map("spec")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let again: BenchmarkSpec =
            serde_json::from_str(&serde_json::to_string_pretty(&spec).unwrap()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(12, 0, &[("setup_s", 0.8127), ("evals_per_s", 612.5)]);
        assert!(!line.contains('\n'));
        let value: Value = serde_json::from_str(&line).unwrap();
        let map = value.as_map("line").unwrap();
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(map_get(map, "correct").unwrap(), &Value::Bool(true));
        let metrics = map_get(map, "metrics").unwrap().as_map("metrics").unwrap();
        let setup = map_get(metrics, "setup_s").unwrap().as_map("m").unwrap();
        assert_eq!(map_get(setup, "unit").unwrap(), &Value::Str("s".into()));
        assert_eq!(map_get(setup, "value").unwrap(), &Value::F64(0.8127));
        // A failed gate flips `correct`.
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\":false"));
    }
}
