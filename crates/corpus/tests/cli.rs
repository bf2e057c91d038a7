//! End-to-end CLI tests for the `ccfuzz` binary, pinning the stdout
//! contract: stdout carries only the machine-readable payload (so
//! `ccfuzz hunt ... | jq` works), while progress chatter, telemetry status
//! lines and the phase report all go to stderr.

use ccfuzz_corpus::finding::Finding;
use ccfuzz_corpus::minimize::MinimizeConfig;
use ccfuzz_netsim::workload::is_dynamic;
use ccfuzz_obs::Snapshot;
use std::path::PathBuf;
use std::process::Command;

fn ccfuzz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ccfuzz"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccfuzz-cli-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs a tiny deterministic hunt and returns (corpus dir, parsed finding).
fn tiny_hunt(tag: &str, telemetry: Option<&PathBuf>) -> (PathBuf, Finding) {
    let dir = scratch_dir(tag);
    let mut cmd = ccfuzz();
    cmd.args([
        "hunt",
        "--cca",
        "reno",
        "--mode",
        "traffic",
        "--generations",
        "2",
        "--seconds",
        "2",
        "--seed",
        "1",
        "--threads",
        "2",
        "--islands",
        "2",
        "--population",
        "3",
        "--corpus",
    ])
    .arg(&dir);
    if let Some(path) = telemetry {
        cmd.arg("--telemetry").arg(path);
    }
    let out = cmd.output().expect("run ccfuzz hunt");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "hunt failed:\n{stderr}");
    // The whole of stdout must be one JSON document: the finding. A strict
    // deserialize both validates the schema and proves no chatter leaked.
    let finding: Finding = serde_json::from_str(stdout.trim())
        .unwrap_or_else(|e| panic!("hunt stdout is not a single finding JSON: {e}\n---\n{stdout}"));
    assert_eq!(
        stdout.trim().lines().count(),
        1,
        "hunt stdout must be a single line of JSON"
    );
    assert!(
        stderr.contains("hunting:"),
        "progress chatter must go to stderr"
    );
    (dir, finding)
}

#[test]
fn hunt_stdout_is_pure_json_and_telemetry_stream_is_valid() {
    let telemetry_path =
        std::env::temp_dir().join(format!("ccfuzz-cli-telemetry-{}.jsonl", std::process::id()));
    let (_dir, finding) = tiny_hunt("hunt", Some(&telemetry_path));
    assert!(!finding.id.is_empty());
    assert!(finding.outcome.score.is_finite());

    // One snapshot per generation, each a strict-schema JSONL record with
    // monotone generation numbers and live counters.
    let stream = std::fs::read_to_string(&telemetry_path).expect("telemetry stream written");
    let snapshots: Vec<Snapshot> = stream
        .lines()
        .map(|line| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("bad telemetry line: {e}\n---\n{line}"))
        })
        .collect();
    assert_eq!(snapshots.len(), 2, "one snapshot per generation");
    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(snap.schema, ccfuzz_obs::telemetry::SNAPSHOT_SCHEMA);
        assert_eq!(snap.generation, i as u32);
        assert!(snap.evaluations > 0);
        assert!(snap.best_score.is_finite());
        assert_eq!(snap.island_best.len(), 2, "one best-score per island");
    }
    std::fs::remove_file(&telemetry_path).ok();
}

#[test]
fn hunt_phase_report_names_the_reused_share_on_stderr() {
    // Children bred identical to a scored parent take its outcome instead
    // of a simulation; the end-of-hunt report says how many, on stderr.
    // Fixed seed, so the count is deterministic.
    let dir = scratch_dir("reuse");
    let out = ccfuzz()
        .args([
            "hunt",
            "--cca",
            "reno",
            "--mode",
            "workload",
            "--flows",
            "reno,cubic",
            "--generations",
            "3",
            "--seconds",
            "2",
            "--seed",
            "1",
            "--threads",
            "2",
            "--islands",
            "3",
            "--population",
            "4",
            "--corpus",
        ])
        .arg(&dir)
        .output()
        .expect("run ccfuzz hunt");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "hunt failed:\n{stderr}");
    assert_eq!(stdout.lines().count(), 1, "stdout is the finding only");
    let finding: Finding = serde_json::from_str(stdout.trim())
        .unwrap_or_else(|e| panic!("hunt stdout is not a single finding JSON: {e}\n---\n{stdout}"));

    let suffix = " evaluations reused an identical parent's outcome";
    let line = stderr
        .lines()
        .find(|line| line.ends_with(suffix))
        .unwrap_or_else(|| panic!("no reuse line in the phase report:\n{stderr}"));
    let counts: Vec<u64> = line
        .trim_end_matches(suffix)
        .split(" of ")
        .map(|n| n.parse().expect("R of N"))
        .collect();
    let [reused, ran] = counts[..] else {
        panic!("malformed reuse line: {line}");
    };
    assert_eq!(ran, finding.provenance.total_evaluations);
    assert!(reused > 0 && reused < ran, "{line}");
}

#[test]
fn invalid_ga_shapes_are_usage_errors_not_panics() {
    // Building a campaign asserts its GA shape; `hunt` and `submit` refuse
    // a bad one up front with the validation message, as the daemon does.
    for (flag, value, message) in [
        ("--islands", "0", "need at least one island"),
        ("--population", "1", "k_elite must be smaller"),
    ] {
        for subcommand in ["hunt", "submit"] {
            let out = ccfuzz()
                .args([subcommand, "--cca", "reno", flag, value])
                .output()
                .expect("run ccfuzz");
            let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{subcommand} {flag} {value}:\n{stderr}"
            );
            assert!(stderr.contains(message), "{subcommand}:\n{stderr}");
            assert!(!stderr.contains("panicked"), "{subcommand}:\n{stderr}");
        }
    }
}

#[test]
fn workload_usage_errors_exit_2_and_name_the_valid_set() {
    // Unknown mode: exit 2, and the message names every valid mode so the
    // user can self-correct (workload must be in the set).
    let out = ccfuzz()
        .args(["hunt", "--cca", "reno", "--mode", "workloads"])
        .output()
        .expect("run ccfuzz hunt");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2:\n{stderr}");
    for mode in ["traffic", "link", "fairness", "aqm", "topology", "workload"] {
        assert!(
            stderr.contains(mode),
            "usage error must name `{mode}`:\n{stderr}"
        );
    }

    // --flows is only meaningful for fairness and workload hunts.
    let out = ccfuzz()
        .args([
            "hunt", "--cca", "reno", "--mode", "traffic", "--flows", "reno,bbr",
        ])
        .output()
        .expect("run ccfuzz hunt");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2:\n{stderr}");
    assert!(
        stderr.contains("--flows"),
        "error names the flag:\n{stderr}"
    );

    // A bad CCA inside the workload pool names the offender and the full
    // valid set, still on exit 2.
    let out = ccfuzz()
        .args([
            "hunt",
            "--cca",
            "reno",
            "--mode",
            "workload",
            "--flows",
            "reno,tahoe",
        ])
        .output()
        .expect("run ccfuzz hunt");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2:\n{stderr}");
    assert!(
        stderr.contains("unknown CCA `tahoe`"),
        "error names the offender:\n{stderr}"
    );
}

#[test]
fn every_subcommand_refuses_an_argument_it_does_not_take() {
    // A misspelt or misplaced flag used to be ignored: `hunt --generation 1`
    // ran the default five generations and exited 0. Each case exits 2
    // before any work, naming the argument and the subcommand's flags.
    let dir = scratch_dir("unknown-args");
    let corpus = dir.join("corpus");
    let corpus = corpus.to_str().expect("UTF-8 path");
    let cases: [(&[&str], &str, &str); 7] = [
        (
            &["hunt", "--cca", "reno", "--generation", "1"],
            "`--generation`",
            "--generations",
        ),
        (
            &["report", "--corpus", corpus, "--bogus-flag"],
            "`--bogus-flag`",
            "--corpus --top-k",
        ),
        (
            &["report", "--corpus", corpus, "stray"],
            "`stray`",
            "--top-k",
        ),
        (
            &["replay", "--corpus", corpus, "--all"],
            "`--all`",
            "--strict",
        ),
        (
            &["minimize", "--corpus", corpus, "--strict"],
            "`--strict`",
            "--all",
        ),
        (
            &["submit", "--cca", "reno", "--corpus", corpus],
            "`--corpus`",
            "--daemon",
        ),
        (
            &["status", "--daemon", "127.0.0.1:1", "id", "other"],
            "`other`",
            "--daemon",
        ),
    ];
    for (args, offender, flags) in cases {
        let out = ccfuzz().args(args).output().expect("run ccfuzz");
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(offender), "{args:?}:\n{stderr}");
        assert!(stderr.contains(args[0]), "{args:?}:\n{stderr}");
        assert!(stderr.contains(flags), "{args:?}:\n{stderr}");
    }
    assert!(
        !dir.join("corpus").exists(),
        "a refused command opened its corpus"
    );
    // A flag's missing value is named as before.
    let out = ccfuzz()
        .args(["report", "--corpus"])
        .output()
        .expect("run ccfuzz");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corpus requires a value"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn workload_hunt_minimize_replay_report_roundtrip() {
    // The full workload-mode lifecycle through the binary: hunt persists a
    // finding, minimize shrinks it in place, replay --strict verifies the
    // stored digest still reproduces, and report lists the bucket.
    let dir = scratch_dir("workload");
    let out = ccfuzz()
        .args([
            "hunt",
            "--cca",
            "reno",
            "--mode",
            "workload",
            "--flows",
            "reno,cubic",
            "--generations",
            "2",
            "--seconds",
            "2",
            "--seed",
            "1",
            "--threads",
            "2",
            "--islands",
            "2",
            "--population",
            "3",
            "--corpus",
        ])
        .arg(&dir)
        .output()
        .expect("run ccfuzz hunt");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "workload hunt failed:\n{stderr}");
    let finding: Finding = serde_json::from_str(stdout.trim())
        .unwrap_or_else(|e| panic!("hunt stdout is not a single finding JSON: {e}\n---\n{stdout}"));
    assert!(
        stderr.contains("workload:"),
        "workload chatter goes to stderr:\n{stderr}"
    );

    let out = ccfuzz()
        .args([
            "minimize",
            "--id",
            &finding.id,
            "--budget",
            "40",
            "--corpus",
        ])
        .arg(&dir)
        .output()
        .expect("run ccfuzz minimize");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "minimize failed:\n{stderr}");

    let out = ccfuzz()
        .args(["replay", "--strict", "--corpus"])
        .arg(&dir)
        .output()
        .expect("run ccfuzz replay");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(
        out.status.success(),
        "strict replay failed:\n{stdout}\n{stderr}"
    );

    let out = ccfuzz()
        .args(["report", "--corpus"])
        .arg(&dir)
        .output()
        .expect("run ccfuzz report");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(out.status.success(), "report failed");
    assert!(
        stdout.contains("workload"),
        "report lists the workload bucket:\n{stdout}"
    );
}

#[test]
fn usage_states_the_library_minimize_defaults() {
    // `cmd_minimize` reads its defaults from `MinimizeConfig::default()`;
    // the usage text spells them out and must not drift from it.
    let defaults = MinimizeConfig::default();
    let out = ccfuzz().output().expect("run bare ccfuzz");
    assert_eq!(out.status.code(), Some(2), "bare ccfuzz is a usage error");
    let usage = String::from_utf8(out.stdout).expect("usage is UTF-8");
    for (flag, default) in [
        ("--retain", defaults.retain_fraction.to_string()),
        ("--budget", defaults.max_evaluations.to_string()),
    ] {
        let line = usage
            .lines()
            .find(|line| line.trim_start().starts_with(flag))
            .unwrap_or_else(|| panic!("usage names {flag}:\n{usage}"));
        assert!(
            line.ends_with(&format!("(default: {default})")),
            "{flag} must state the library default {default}: {line}"
        );
    }
}

#[test]
fn minimize_cost_line_goes_to_stderr_only() {
    // One line per finding on stderr says what minimization cost — counted
    // simulations, speculative ones discarded, workers, wall time — while
    // stdout keeps only the worker-count-independent summary.
    let (dir, finding) = tiny_hunt("minimize", None);
    let out = ccfuzz()
        .args(["minimize", "--all", "--budget", "30", "--corpus"])
        .arg(&dir)
        .output()
        .expect("run ccfuzz minimize");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "minimize failed:\n{stderr}");
    assert!(
        !stdout.contains("speculative") && !stdout.contains(" worker(s)"),
        "cost line leaked to stdout:\n{stdout}"
    );
    let summary = stdout
        .lines()
        .find(|line| line.starts_with(&format!("{}: ", finding.id)))
        .unwrap_or_else(|| panic!("no summary for {}:\n{stdout}", finding.id));
    let cost: Vec<&str> = stderr
        .lines()
        .filter(|line| line.contains(" speculative discarded, "))
        .collect();
    let [cost] = cost[..] else {
        panic!("expected one cost line for one finding:\n{stderr}");
    };
    let fields: Vec<&str> = cost
        .strip_prefix(&format!("{}: ", finding.id))
        .unwrap_or_else(|| panic!("cost line names the finding: {cost}"))
        .split(", ")
        .collect();
    let [counted, discarded, workers, wall] = fields[..] else {
        panic!("malformed cost line: {cost}");
    };
    let counted = counted
        .strip_suffix(" simulations counted")
        .expect("counted simulations");
    assert!(
        summary.contains(&format!("{counted} evals")),
        "counted simulations match the report: {cost} vs {summary}"
    );
    discarded
        .strip_suffix(" speculative discarded")
        .and_then(|n| n.parse::<u64>().ok())
        .expect("discarded count");
    let workers: usize = workers
        .strip_suffix(" worker(s)")
        .and_then(|n| n.parse().ok())
        .expect("worker count");
    assert!(workers >= 1, "{cost}");
    wall.strip_suffix(" ms")
        .and_then(|n| n.parse::<u128>().ok())
        .expect("wall milliseconds");
}

#[test]
fn trace_subcommand_renders_timeline_and_exports() {
    let (dir, finding) = tiny_hunt("trace", None);
    let json_path = dir.join("trace.jsonl");
    let csv_path = dir.join("trace.csv");
    let out = ccfuzz()
        .args(["trace", &finding.id, "--corpus"])
        .arg(&dir)
        .arg("--json")
        .arg(&json_path)
        .arg("--csv")
        .arg(&csv_path)
        .output()
        .expect("run ccfuzz trace");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "trace failed:\n{stderr}");
    assert!(stdout.contains("timeline:"), "missing timeline:\n{stdout}");
    assert!(
        stdout.contains("per-hop queues:"),
        "missing queue table:\n{stdout}"
    );
    assert!(stderr.contains("replayed"), "replay note goes to stderr");

    let jsonl = std::fs::read_to_string(&json_path).expect("JSONL export written");
    assert!(!jsonl.trim().is_empty());
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"at\":") && line.contains("\"kind\":"),
            "bad JSONL event line: {line}"
        );
    }
    let csv = std::fs::read_to_string(&csv_path).expect("CSV export written");
    assert_eq!(
        csv.lines().next(),
        Some("at,kind,flow,hop,cwnd,in_flight,packets,bytes"),
        "CSV header drifted"
    );
    assert!(csv.lines().count() > 1, "CSV export has no rows");
}

#[test]
fn trace_takes_its_finding_id_after_a_flag() {
    let out = ccfuzz()
        .arg("trace")
        .arg("--corpus")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
        .args(["--buckets", "1", "reno-traffic-0303000e0d"])
        .output()
        .expect("run ccfuzz trace");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "trace failed:\n{stderr}");
    assert!(
        stdout.starts_with("trace reno-traffic-0303000e0d: "),
        "{stdout}"
    );
}

#[test]
fn resume_takes_its_checkpoint_path_after_a_flag() {
    // Resuming a completed checkpoint into another corpus re-emits the
    // hunt's finding; `--corpus` may come before the path, as the usage
    // text lists it.
    let dir = scratch_dir("resume-flag-first");
    let checkpoint = dir.join("ck.json");
    let out = ccfuzz()
        .args([
            "hunt",
            "--cca",
            "reno",
            "--generations",
            "2",
            "--seconds",
            "1",
            "--seed",
            "3",
            "--islands",
            "2",
            "--population",
            "3",
            "--corpus",
        ])
        .arg(dir.join("first"))
        .arg("--checkpoint")
        .arg(&checkpoint)
        .output()
        .expect("run ccfuzz hunt");
    let hunted = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(out.status.success(), "hunt failed");

    let second = dir.join("second");
    let out = ccfuzz()
        .arg("resume")
        .arg("--corpus")
        .arg(&second)
        .arg(&checkpoint)
        .output()
        .expect("run ccfuzz resume");
    let resumed = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "resume failed:\n{stderr}");
    assert_eq!(
        resumed, hunted,
        "a completed checkpoint re-emits its finding"
    );
    assert!(second.join("findings").is_dir(), "--corpus was honoured");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn workload_trace_lists_the_flows_that_appear_not_a_slab_handle() {
    // A workload-mode trace names its dynamic flows by tagged slab handle
    // (top bit set); read as "max index + 1" the committed fixture claimed
    // 2147614733 flows and printed that many timelines.
    let dir = std::env::temp_dir().join(format!("ccfuzz-cli-wltrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let csv_path = dir.join("trace.csv");
    let out = ccfuzz()
        .args(["trace", "reno-workload-0606011001", "--buckets", "3"])
        .arg("--corpus")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
        .arg("--csv")
        .arg(&csv_path)
        .output()
        .expect("run ccfuzz trace");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");

    // Distinct CCA flows in the lossless export (column 3; queue samples
    // leave it empty).
    let csv = std::fs::read_to_string(&csv_path).expect("CSV export written");
    let mut distinct: Vec<&str> = csv
        .lines()
        .skip(1)
        .filter_map(|line| line.split(',').nth(2))
        .filter(|flow| !flow.is_empty() && *flow != "cross")
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() > 100, "the fixture churns through flows");
    // Every row names a flow by its handle: a static flow's index, or a
    // dynamic flow's tagged slab handle — never the flow-table slot a
    // dynamic flow happened to occupy (that split one flow's RTOs from its
    // drops).
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/findings/reno-workload-0606011001.json"
    );
    let finding: Finding =
        serde_json::from_str(&std::fs::read_to_string(fixture).expect("fixture")).unwrap();
    let statics = finding.replay_recorded().2.stats.flows.len() as u32;
    for flow in &distinct {
        let handle: u32 = flow.parse().expect("a CCA flow is named by its handle");
        assert!(
            is_dynamic(handle) || handle < statics,
            "row names flow {handle}, a plain index past the {statics} static flows"
        );
    }

    let header = stdout.lines().next().expect("summary line");
    assert!(
        header.contains(&format!("({} flows, ", distinct.len())),
        "{header} vs {} distinct flows",
        distinct.len()
    );
    let timelines = stdout.lines().filter(|l| l.ends_with(" timeline:")).count();
    assert_eq!(timelines, distinct.len());
    assert!(stdout.contains("\nflow dyn "), "dynamic flows are named");
    // Per flow: blank, title, header, rule and one row per bucket.
    assert!(stdout.lines().count() <= distinct.len() * (4 + 3) + 16);
    let _ = std::fs::remove_dir_all(dir);
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn trace_output_is_pinned_on_the_static_fixtures() {
    // (finding id, FNV-1a of `ccfuzz trace <id>` stdout, FNV-1a of the
    // `--json` export's lines sorted and joined by '\n'). Sorting pins the
    // event multiset, not the order of events that share a timestamp.
    const PINS: [(&str, u64, u64); 6] = [
        (
            "cubic-traffic-0303000c0d",
            0xc11cf546300e9231,
            0x135b781866dfcadd,
        ),
        (
            "reno-aqm-010100060b",
            0x327f5f1f29163c0c,
            0x5f13088042c69166,
        ),
        (
            "reno-fairness-0909030f12",
            0x71ff32f69772f25f,
            0xfec92752be39ca5d,
        ),
        (
            "reno-link-0808000e0a",
            0x71427972247cf800,
            0x49cdff26e09e320a,
        ),
        (
            "reno-topology-0809010d12",
            0xb8a96ea68fae42bb,
            0xa6b02eed4ae27476,
        ),
        (
            "reno-traffic-0303000e0d",
            0x46ca57a2f8a640f5,
            0xd04f8c7f1c5f2465,
        ),
    ];
    let dir = scratch_dir("trace-pins");
    let mut drift = Vec::new();
    for (id, stdout_pin, json_pin) in PINS {
        let json_path = dir.join(format!("{id}.jsonl"));
        let out = ccfuzz()
            .args(["trace", id, "--corpus"])
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
            .arg("--json")
            .arg(&json_path)
            .output()
            .expect("run ccfuzz trace");
        assert!(out.status.success(), "trace {id} failed");
        let jsonl = std::fs::read_to_string(&json_path).expect("JSONL export written");
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.sort_unstable();
        let observed = (fnv1a(&out.stdout), fnv1a(lines.join("\n").as_bytes()));
        if observed != (stdout_pin, json_pin) {
            drift.push(format!(
                "(\"{id}\", {:#018x}, {:#018x}),",
                observed.0, observed.1
            ));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    assert!(
        drift.is_empty(),
        "`ccfuzz trace` output drifted; observed:\n{}",
        drift.join("\n")
    );
}
