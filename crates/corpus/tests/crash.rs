//! Process-level crash-safety tests for the `ccfuzz` binary.
//!
//! These cover the half of the crash-safety contract that in-process tests
//! cannot: a real SIGKILL mid-campaign followed by `ccfuzz resume` must
//! reproduce the uninterrupted hunt byte-for-byte (stdout payload and
//! corpus contents), SIGINT must exit with the distinct graceful-shutdown
//! code after writing a resumable checkpoint, and injected evaluation
//! panics must surface as persisted artifacts.

use ccfuzz_corpus::checkpoint::{CampaignCheckpoint, PanicFinding};
use ccfuzz_corpus::finding::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_ccfuzz");

/// Exit code the CLI uses for a graceful (resumable) shutdown.
const EXIT_INTERRUPTED: i32 = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccfuzz-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic topology hunt sized so a generation takes a noticeable
/// slice of wall time (signals land mid-campaign) without making the test
/// slow.
fn hunt_args(corpus: &Path, generations: u32) -> Vec<String> {
    [
        "hunt",
        "--cca",
        "bbr",
        "--mode",
        "topology",
        "--generations",
        &generations.to_string(),
        "--seconds",
        "5",
        "--islands",
        "2",
        "--population",
        "4",
        "--threads",
        "2",
        "--seed",
        "33",
        "--corpus",
        corpus.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn run(args: &[String]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("CCFUZZ_INJECT_EVAL_PANIC")
        .output()
        .expect("ccfuzz binary runs")
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// File name → bytes for every file in a directory (empty map if absent).
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        out.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            std::fs::read(&path).unwrap(),
        );
    }
    out
}

#[test]
fn sigkill_mid_hunt_then_resume_matches_the_control_byte_for_byte() {
    let dir = temp_dir("sigkill");
    let control_corpus = dir.join("control-corpus");
    let crash_corpus = dir.join("crash-corpus");
    let ck = dir.join("ck.json");

    let control = run(&hunt_args(&control_corpus, 8));
    assert!(control.status.success(), "control hunt fails");
    assert!(!control.stdout.is_empty());

    let mut args = hunt_args(&crash_corpus, 8);
    args.extend(["--checkpoint".into(), ck.to_str().unwrap().to_string()]);
    args.extend(["--checkpoint-every".into(), "1".into()]);
    let mut child = Command::new(BIN)
        .args(&args)
        .env_remove("CCFUZZ_INJECT_EVAL_PANIC")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // SIGKILL as soon as the first checkpoint lands — no graceful path runs.
    wait_until("the first checkpoint", || ck.exists());
    let _ = child.kill();
    let killed = child.wait_with_output().unwrap();

    // The checkpoint on disk is complete and loadable (atomic writes), even
    // though the process died without warning. The dead process also left a
    // stale corpus lock, which resume must steal.
    CampaignCheckpoint::load(&ck).expect("checkpoint survives SIGKILL intact");

    let resumed = run(&["resume".to_string(), ck.to_str().unwrap().to_string()]);
    assert!(
        resumed.status.success(),
        "resume fails: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    // Byte-identical trajectory: the resumed stdout payload is exactly the
    // control's. (If the kill raced past completion, the killed leg already
    // printed it and the resume re-emits the identical payload.)
    assert_eq!(resumed.stdout, control.stdout);
    assert!(
        killed.stdout.is_empty() || killed.stdout == control.stdout,
        "a killed hunt printed a payload that differs from the control"
    );

    // And the corpus contents are identical file-for-file.
    assert_eq!(
        dir_contents(&control_corpus.join("findings")),
        dir_contents(&crash_corpus.join("findings"))
    );
    let final_ck = CampaignCheckpoint::load(&ck).unwrap();
    assert!(final_ck.completed);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigint_exits_with_the_graceful_shutdown_code_and_a_resumable_checkpoint() {
    let dir = temp_dir("sigint");
    let corpus = dir.join("corpus");
    let ck = dir.join("ck.json");

    let mut args = hunt_args(&corpus, 12);
    args.extend(["--checkpoint".into(), ck.to_str().unwrap().to_string()]);
    let child = Command::new(BIN)
        .args(&args)
        .env_remove("CCFUZZ_INJECT_EVAL_PANIC")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_until("the first checkpoint", || ck.exists());
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "sending SIGINT failed");
    let out = child.wait_with_output().unwrap();

    assert_eq!(
        out.status.code(),
        Some(EXIT_INTERRUPTED),
        "SIGINT must exit with the graceful-shutdown code"
    );
    // No payload on an interrupted hunt: stdout stays machine-clean.
    assert!(out.stdout.is_empty());
    // The graceful path released the corpus lock.
    assert!(!corpus.join("LOCK").exists());

    let interrupted = CampaignCheckpoint::load(&ck).expect("final checkpoint written");
    assert!(!interrupted.completed);
    assert!(interrupted.state.next_generation() < 12);

    // The checkpoint resumes to completion.
    let resumed = run(&["resume".to_string(), ck.to_str().unwrap().to_string()]);
    assert!(
        resumed.status.success(),
        "resume fails: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(!resumed.stdout.is_empty());
    assert!(CampaignCheckpoint::load(&ck).unwrap().completed);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn injected_panics_become_artifacts_and_the_budget_aborts_the_campaign() {
    let dir = temp_dir("panic");
    let corpus = dir.join("corpus");

    // Budget 0: the first caught panic aborts the campaign (exit 1), but
    // the panic artifact is persisted first. Single-threaded so the
    // injected panic ordinal is deterministic.
    let mut args = hunt_args(&corpus, 2);
    let t = args.iter().position(|a| a == "--threads").unwrap();
    args[t + 1] = "1".into();
    args.extend(["--panic-budget".into(), "0".into()]);
    let out = Command::new(BIN)
        .args(&args)
        .env("CCFUZZ_INJECT_EVAL_PANIC", "5")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("panic budget exhausted"), "{stderr}");

    let artifact = corpus.join("panics").join("panic-0001.json");
    let text = std::fs::read_to_string(&artifact).expect("panic artifact persisted");
    let parsed: PanicFinding = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed.ordinal, 1);
    assert!(parsed.message.contains("injected evaluation panic"));

    // A generous budget tolerates the same injection and completes.
    let corpus2 = dir.join("corpus2");
    let mut args = hunt_args(&corpus2, 2);
    let t = args.iter().position(|a| a == "--threads").unwrap();
    args[t + 1] = "1".into();
    let out = Command::new(BIN)
        .args(&args)
        .env("CCFUZZ_INJECT_EVAL_PANIC", "5")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
    assert!(corpus2.join("panics").join("panic-0001.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}

/// The first number on the first `stderr` line containing `marker`.
fn number_on_line(stderr: &str, marker: &str) -> u64 {
    stderr
        .lines()
        .find(|line| line.contains(marker))
        .and_then(|line| line.split_whitespace().find_map(|word| word.parse().ok()))
        .unwrap_or_else(|| panic!("no line with `{marker}` and a count in:\n{stderr}"))
}

#[test]
fn the_injection_ordinal_counts_reused_evaluations() {
    // Every Nth evaluation panics, whether it would have simulated or
    // reused an identical parent's outcome, so a completed hunt catches
    // exactly total / N panics.
    let dir = temp_dir("ordinal");
    let every = 3u64;
    let out = Command::new(BIN)
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
            "1",
            "--islands",
            "3",
            "--population",
            "4",
            "--corpus",
        ])
        .arg(dir.join("corpus"))
        .env("CCFUZZ_INJECT_EVAL_PANIC", every.to_string())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let finding: Finding = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let total = finding.provenance.total_evaluations;
    let reused = number_on_line(&stderr, "evaluations reused an identical parent's outcome");
    let caught = number_on_line(&stderr, "evaluation panic(s); artifacts persisted");
    assert_ne!(
        total / every,
        (total - reused) / every,
        "the campaign must reuse enough outcomes to tell the two ordinals apart"
    );
    assert_eq!(caught, total / every, "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_live_lock_holder_blocks_a_second_hunt() {
    let dir = temp_dir("lock");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    // A lock naming THIS (live) test process must not be stolen.
    std::fs::write(corpus.join("LOCK"), format!("{}\n", std::process::id())).unwrap();

    let out = run(&hunt_args(&corpus, 2));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("locked by process"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}
