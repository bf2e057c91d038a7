//! What a run leaves behind: recorded fingerprints, the results file, the
//! span dump, the "largest slice first" ledger and the agreement table.

use crate::e2e::Gates;
use crate::metrics::{bound_of, higher_is_better, unit_of, END_TO_END};
use crate::span::Span;
use crate::stats::{median, quartiles, spread};
use crate::traced::{phase_seconds, Traced};
use crate::workload::{eval_threads, Workload, WORKLOADS};
use crate::RunOutcome;
use serde::value::{map_get, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Behaviour fingerprints per `workload/generations/ga_seed`: the FNV-1a of
/// the hunt's stdout payload and the exact `netsim.events_per_eval` of the
/// traced probe. A committed entry that stops matching is a behaviour
/// change, reported as a failed gate and never as a speed-up.
pub struct Fingerprints {
    committed: BTreeMap<String, (Option<u64>, Option<f64>)>,
    observed: BTreeMap<String, (Option<u64>, Option<f64>)>,
}

impl Fingerprints {
    /// The lookup key of one campaign.
    pub fn key(workload: &str, generations: u32, ga_seed: u64) -> String {
        format!("{workload}/{generations}/{ga_seed}")
    }

    /// Loads the committed table (a missing file is an empty table).
    pub fn load(path: &Path) -> Result<Self, String> {
        let mut committed = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            let value: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            for (key, entry) in value.as_map("fingerprints").map_err(|e| e.to_string())? {
                let entry = entry.as_map("fingerprint").map_err(|e| e.to_string())?;
                let payload = match map_get(entry, "payload_fnv") {
                    Ok(Value::Str(hex)) => {
                        u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
                    }
                    _ => None,
                };
                let events = match map_get(entry, "events_per_eval") {
                    Ok(Value::F64(x)) => Some(*x),
                    Ok(Value::U64(n)) => Some(*n as f64),
                    _ => None,
                };
                committed.insert(key.clone(), (payload, events));
            }
        }
        Ok(Fingerprints {
            committed,
            observed: BTreeMap::new(),
        })
    }

    /// Records a payload fingerprint and gates it against the committed one.
    pub fn check_payload(&mut self, key: &str, fnv: u64, gates: &mut Gates) {
        self.observed.entry(key.to_string()).or_default().0 = Some(fnv);
        if let Some((Some(expected), _)) = self.committed.get(key) {
            gates.check(*expected == fnv, || {
                format!("payload FNV of {key} is {fnv:#018x}, committed {expected:#018x}: behaviour changed")
            });
        }
    }

    /// Records an events-per-eval fingerprint and gates it likewise.
    pub fn check_events(&mut self, key: &str, events: f64, gates: &mut Gates) {
        self.observed.entry(key.to_string()).or_default().1 = Some(events);
        if let Some((_, Some(expected))) = self.committed.get(key) {
            gates.check(*expected == events, || {
                format!("netsim.events_per_eval of {key} is {events}, committed {expected}: behaviour changed")
            });
        }
    }

    /// Merges what this run observed into `path` (the copy under `out/`
    /// that is committed as `benchmark/fingerprints.json` when behaviour
    /// changes on purpose).
    pub fn save_observed(&self, path: &Path) -> Result<(), String> {
        let mut all = Fingerprints::load(path)?.committed;
        for (key, &(payload, events)) in &self.observed {
            let slot = all.entry(key.clone()).or_default();
            slot.0 = payload.or(slot.0);
            slot.1 = events.or(slot.1);
        }
        let map = all
            .into_iter()
            .map(|(key, (payload, events))| {
                let mut entry = Vec::new();
                if let Some(fnv) = payload {
                    entry.push((
                        "payload_fnv".to_string(),
                        Value::Str(format!("{fnv:#018x}")),
                    ));
                }
                if let Some(events) = events {
                    entry.push(("events_per_eval".to_string(), Value::F64(events)));
                }
                (key, Value::Map(entry))
            })
            .collect();
        let json = serde_json::to_string_pretty(&Value::Map(map)).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Writes the spans of one traced run to `<out>/trace-<workload>.json`.
pub fn write_trace(out: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = out.join(format!("trace-{workload}.json"));
    let json = serde_json::to_string(&spans.to_vec()).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The traced run's phases, largest slice first, against both the traced
/// wall and the untraced hunt wall it re-drives.
pub fn ledger(workload: &Workload, traced: &Traced, outcome: &RunOutcome) -> String {
    let untraced = median(
        &outcome
            .sessions
            .iter()
            .map(|s| s.hunt_wall_s)
            .collect::<Vec<_>>(),
    );
    let mut out = format!(
        "ledger {} ({} generations): traced wall {:.3} s, untraced hunt wall {:.3} s\n",
        workload.name, outcome.generations, traced.campaign_wall_s, untraced
    );
    for (name, seconds) in &traced.slices {
        out.push_str(&format!(
            "  {name:<22} {seconds:>9.3} s  {:>5.1} % of traced  {:>5.1} % of untraced\n",
            100.0 * seconds / traced.campaign_wall_s,
            100.0 * seconds / untraced
        ));
    }
    if workload.fleet {
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let persistence = phase_seconds(&traced.slices, &["worker_ckpt.write", "checkpoint.write"]);
        let proto = phase_seconds(&traced.slices, &["proto.encode", "proto.decode"]);
        let unattributed = value("fleet.unattributed_s");
        out.push_str(&format!(
            "  of the untraced fleet wall: checkpoint {:.1} % + proto {:.1} % + unattributed \
             (spawn, handshake, sockets, waits) {:.1} % = {:.1} %\n",
            100.0 * persistence / untraced,
            100.0 * proto / untraced,
            100.0 * unattributed / untraced,
            100.0 * (persistence + proto + unattributed) / untraced
        ));
    }
    out
}

/// Every value a set of runs reported, per workload and metric.
pub struct RunRecord {
    seed: u64,
    seconds: u64,
    /// Correctness checks made over the whole set.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    layers: BTreeMap<String, Vec<(String, f64, usize)>>,
}

impl RunRecord {
    /// An empty record of a set started with `--seed` / `--seconds`.
    pub fn new(seed: u64, seconds: u64) -> Self {
        RunRecord {
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Counts a run's correctness checks into the set's totals.
    pub fn add_checks(&mut self, gates: &Gates) {
        self.attempted += gates.attempted;
        self.failed += gates.failed;
    }

    /// Adds one run's end-to-end values.
    pub fn add_end_to_end(&mut self, workload: &str, values: &[(&'static str, f64)]) {
        let slot = self.end_to_end.entry(workload.to_string()).or_default();
        for &(name, value) in values {
            slot.entry(name.to_string()).or_default().push(value);
        }
    }

    /// Sets a workload's per-layer values (the last traced run wins).
    pub fn add_layers(&mut self, workload: &str, traced: &Traced) {
        self.layers.insert(
            workload.to_string(),
            traced
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.samples))
                .collect(),
        );
    }

    fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.end_to_end
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }

    /// Every metric by name with its unit: median, quartiles and sample
    /// count for the end-to-end ones, value and sample count per layer.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "summary: seed {} --seconds {} T={} nproc={} failed {} of {} checks\n",
            self.seed,
            self.seconds,
            eval_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.failed,
            self.attempted
        );
        for workload in &WORKLOADS {
            out.push_str(&format!("{}\n", workload.name));
            for (metric, unit, _, _) in END_TO_END {
                let values = self.values(workload.name, metric);
                if values.is_empty() {
                    continue;
                }
                let [q1, q2, q3] = quartiles(values);
                out.push_str(&format!(
                    "  {metric:<34} {q2:>14.4} {unit:<6} q1 {q1:.4} q3 {q3:.4} spread {:.1} % n={}\n",
                    100.0 * spread(values),
                    values.len()
                ));
            }
            for (metric, value, samples) in self.layers.get(workload.name).into_iter().flatten() {
                let unit = unit_of(metric).unwrap_or("");
                out.push_str(&format!(
                    "  {metric:<34} {value:>14.4} {unit:<6} n={samples}\n"
                ));
            }
        }
        out
    }

    /// The results file: everything in [`Self::summary`], as JSON.
    pub fn to_json(&self) -> String {
        let metric_value = |value: f64, unit: &str, extra: Vec<(String, Value)>| {
            let mut map = vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            map.extend(extra);
            Value::Map(map)
        };
        let workloads = WORKLOADS
            .iter()
            .map(|workload| {
                let mut metrics = Vec::new();
                for (metric, unit, _, _) in END_TO_END {
                    let values = self.values(workload.name, metric);
                    if values.is_empty() {
                        continue;
                    }
                    let [q1, q2, q3] = quartiles(values);
                    let extra = vec![
                        ("q1".to_string(), Value::F64(q1)),
                        ("q3".to_string(), Value::F64(q3)),
                        ("n".to_string(), Value::U64(values.len() as u64)),
                    ];
                    metrics.push((metric.to_string(), metric_value(q2, unit, extra)));
                }
                for (metric, value, samples) in self.layers.get(workload.name).into_iter().flatten()
                {
                    let extra = vec![("n".to_string(), Value::U64(*samples as u64))];
                    let unit = unit_of(metric).unwrap_or("");
                    metrics.push((metric.clone(), metric_value(*value, unit, extra)));
                }
                (workload.name.to_string(), Value::Map(metrics))
            })
            .collect();
        let root = Value::Map(vec![
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::U64(self.seconds)),
            ("threads".to_string(), Value::U64(eval_threads() as u64)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("workloads".to_string(), Value::Map(workloads)),
        ]);
        serde_json::to_string_pretty(&root).expect("a value tree always serializes")
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(metric: &str, first: f64, second: f64) -> f64 {
    let delta = if higher_is_better(metric) {
        first - second
    } else {
        second - first
    };
    delta / first.abs()
}

/// The per-workload table of two sets of the same build, and whether every
/// end-to-end metric of the second set is within its own bound of the first.
pub fn agreement(first: &RunRecord, second: &RunRecord) -> (String, bool) {
    let mut agree = true;
    let mut out = String::from(
        "# Agreement of two back-to-back sets of the same build\n\n\
         Each cell is the median over the set's runs [first quartile, third quartile] (n runs).\n\
         `worse by` is how much worse the second set's median is than the first's, as a share of\n\
         the first; the sets agree when its magnitude stays within the metric's own bound.\n",
    );
    for workload in &WORKLOADS {
        out.push_str(&format!(
            "\n## {}\n\n| metric | unit | set 1 | set 2 | worse by | bound | agrees |\n|---|---|---|---|---|---|---|\n",
            workload.name
        ));
        for (metric, unit, _, _) in END_TO_END {
            let (a, b) = (
                first.values(workload.name, metric),
                second.values(workload.name, metric),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let cell = |values: &[f64]| {
                let [q1, q2, q3] = quartiles(values);
                format!("{q2:.4} [{q1:.4}, {q3:.4}] (n={})", values.len())
            };
            let worse = worsening(metric, median(a), median(b));
            let bound = bound_of(metric).expect("table metric");
            let ok = worse.abs() <= bound;
            agree &= ok;
            out.push_str(&format!(
                "| {metric} | {unit} | {} | {} | {:+.1} % | {:.0} % | {} |\n",
                cell(a),
                cell(b),
                100.0 * worse,
                100.0 * bound,
                if ok { "yes" } else { "NO" }
            ));
        }
    }
    out.push_str(&format!(
        "\nChecks failed: set 1 {} of {}, set 2 {} of {}. Sets {}.\n",
        first.failed,
        first.attempted,
        second.failed,
        second.attempted,
        if agree { "agree" } else { "DISAGREE" }
    ));
    (out, agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_the_better_direction() {
        assert!((worsening("hunt_wall_s", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening("hunt_wall_s", 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening("evals_per_s", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening("evals_per_s", 100.0, 110.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn agreement_flags_a_metric_outside_its_bound() {
        let mut a = RunRecord::new(1, 16);
        let mut b = RunRecord::new(1, 16);
        for v in [10.0, 10.2, 9.9] {
            a.add_end_to_end("hunt_link_bbr", &[("hunt_wall_s", v), ("setup_s", 1.0)]);
        }
        for v in [10.5, 10.4, 10.6] {
            b.add_end_to_end("hunt_link_bbr", &[("hunt_wall_s", v), ("setup_s", 1.2)]);
        }
        let (table, agree) = agreement(&a, &b);
        assert!(agree, "{table}");
        assert!(table.contains("| hunt_wall_s | s | 10.0000 [9.9000, 10.2000] (n=3)"));
        for _ in 0..4 {
            b.add_end_to_end("hunt_link_bbr", &[("setup_s", 9.0)]);
        }
        let (table, agree) = agreement(&a, &b);
        assert!(!agree);
        assert!(table.contains("| NO |"));
    }

    #[test]
    fn fingerprints_round_trip_and_gate_changes() {
        let dir = std::env::temp_dir().join(format!("ccfuzz-benchmark-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fingerprints.json");
        let _ = std::fs::remove_file(&path);
        let key = Fingerprints::key("hunt_link_bbr", 6, 1000);
        let mut gates = Gates::default();
        let mut fp = Fingerprints::load(&path).unwrap();
        fp.check_payload(&key, 0xdead_beef, &mut gates);
        fp.check_events(&key, 1234.5, &mut gates);
        assert_eq!(gates.attempted, 0, "nothing committed, nothing gated");
        fp.save_observed(&path).unwrap();

        let mut fp = Fingerprints::load(&path).unwrap();
        fp.check_payload(&key, 0xdead_beef, &mut gates);
        fp.check_events(&key, 1234.5, &mut gates);
        assert_eq!((gates.attempted, gates.failed), (2, 0));
        fp.check_payload(&key, 0xdead_bee0, &mut gates);
        fp.check_events(&key, 1234.0, &mut gates);
        assert_eq!((gates.attempted, gates.failed), (4, 2));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn results_json_parses_back() {
        let mut record = RunRecord::new(2, 16);
        record.add_end_to_end(
            "fleet_w2_ckpt",
            &[("evals_per_s", 1000.0), ("evals_per_s", 1100.0)],
        );
        let value: Value = serde_json::from_str(&record.to_json()).unwrap();
        let root = value.as_map("results").unwrap();
        assert_eq!(map_get(root, "seed").unwrap(), &Value::U64(2));
        let fleet = map_get(
            map_get(root, "workloads").unwrap().as_map("w").unwrap(),
            "fleet_w2_ckpt",
        )
        .unwrap()
        .as_map("m")
        .unwrap();
        let evals = map_get(fleet, "evals_per_s").unwrap().as_map("e").unwrap();
        assert_eq!(map_get(evals, "n").unwrap(), &Value::U64(2));
        assert_eq!(map_get(evals, "unit").unwrap(), &Value::Str("1/s".into()));
    }
}
