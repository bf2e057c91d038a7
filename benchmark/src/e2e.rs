//! End-to-end sessions: the real binaries, timed from the outside.
//!
//! One session is the README workflow on a fresh corpus: set-up (scratch
//! directories and an untimed warm-up; for the fleet workload the daemon
//! spawn and the in-process control hunt), the timed hunt, and the timed
//! triage (`minimize --all`, `replay --strict`, `report`). A run is several
//! sessions; every end-to-end metric is the median over them.

use crate::proc::{run_child, sample_peak_rss_kb, spawn_group, terminate, ChildRun};
use crate::workload::{eval_threads, CampaignShape, Workload, FLEET_WORKERS, MINIMIZE_BUDGET};
use ccfuzz_corpus::daemon::{http_request, HuntState, HuntStatus};
use ccfuzz_corpus::Finding;
use serde::value::{map_get, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// How often the driver polls a daemon hunt's status.
const POLL_EVERY: Duration = Duration::from_millis(25);
/// Hard timeout for each triage child and for daemon start-up / drain.
const SHORT_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the binaries and the scratch space live.
pub struct Env {
    /// Directory holding the release `ccfuzz` and `ccfuzzd`.
    pub bin_dir: PathBuf,
    /// Fresh scratch directory of this invocation (removed by `run.sh`).
    pub scratch: PathBuf,
    /// The repo's committed fixture corpus (`crates/corpus/fixtures`).
    pub fixtures: PathBuf,
}

impl Env {
    /// Every child's stderr is appended here; a failed gate prints its tail.
    fn child_log(&self) -> PathBuf {
        self.scratch.join("children.err")
    }

    fn ccfuzz(&self) -> Command {
        let mut cmd = Command::new(self.bin_dir.join("ccfuzz"));
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.child_log());
        cmd.stderr(log.map_or_else(|_| Stdio::null(), Stdio::from));
        cmd
    }

    /// A fresh gate ledger that knows where the children's stderr goes.
    pub fn gates(&self) -> Gates {
        Gates {
            child_log: Some(self.child_log()),
            ..Gates::default()
        }
    }
}

/// Pass/fail bookkeeping of every correctness gate: each child exit, payload
/// comparison and strict replay is one attempt.
#[derive(Default)]
pub struct Gates {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    child_log: Option<PathBuf>,
}

impl Gates {
    /// Records one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("GATE FAILED: {}", what());
            // Children run one at a time, so the log's tail is the stderr of
            // whatever just failed.
            let log = self.child_log.as_deref().map(std::fs::read_to_string);
            if let Some(Ok(log)) = log {
                let lines: Vec<&str> = log.lines().collect();
                for line in &lines[lines.len().saturating_sub(12)..] {
                    eprintln!("    | {line}");
                }
            }
        }
        ok
    }

    fn child_ok(&mut self, run: &ChildRun, what: &str) -> bool {
        self.check(run.ok(), || match run.status {
            Some(status) => format!("{what}: {status}"),
            None => format!("{what}: killed after its hard timeout"),
        })
    }
}

/// What one session measured.
pub struct Session {
    /// GA master seed of this session's campaign.
    pub ga_seed: u64,
    /// Everything before the timed hunt.
    pub setup_s: f64,
    /// Spawn to exit with the payload read (fleet: submit sent to fetch
    /// body complete).
    pub hunt_wall_s: f64,
    /// `provenance.total_evaluations` of the payload.
    pub evaluations: u64,
    /// `minimize --all` + `replay --strict` + `report`, summed.
    pub triage_wall_s: f64,
    /// Largest summed `VmHWM` over the hunt's process tree, kB.
    pub peak_rss_kb: u64,
    /// The exact stdout payload of the hunt.
    pub payload: Vec<u8>,
    /// Fleet respawns the daemon reported (0 for in-process hunts).
    pub restarts: u64,
    /// Wall of the in-process control hunt (fleet sessions only).
    pub control_wall_s: Option<f64>,
    /// The hunt's per-generation telemetry JSONL, when one was streamed.
    pub telemetry: Option<PathBuf>,
}

/// FNV-1a 64 of `bytes` — the payload fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn path_arg(path: &Path) -> String {
    path.display().to_string()
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// How a session's hunt is launched.
pub struct HuntPlan<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Generations, population and GA seed of the timed hunt (its thread
    /// count is the workload's).
    pub shape: CampaignShape,
    /// This session is the untraced reference of a traced run: the timed
    /// in-process hunt streams its per-generation telemetry to a file (the
    /// daemon always does) for the history gate, and the fleet's control
    /// hunt runs with `--checkpoint-every 1`, which is what
    /// `fleet.control_wall_s` is defined on.
    pub traced_reference: bool,
    /// Tamper with a stored score before the strict replay, to prove the
    /// gate fails the command.
    pub corrupt: bool,
}

/// Runs one session in `<scratch>/<tag>`.
pub fn run_session(
    env: &Env,
    plan: &HuntPlan<'_>,
    tag: &str,
    gates: &mut Gates,
) -> Result<Session, String> {
    let dir = env.scratch.join(tag);
    if plan.workload.fleet {
        fleet_session(env, plan, &dir, gates)
    } else {
        hunt_session(env, plan, &dir, gates)
    }
}

fn parse_payload(payload: &[u8], gates: &mut Gates, what: &str) -> u64 {
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str::<Finding>(text).map_err(|e| e.to_string()));
    match parsed {
        Ok(finding) => {
            gates.check(true, String::new);
            finding.provenance.total_evaluations
        }
        Err(e) => {
            gates.check(false, || format!("{what}: payload is not a finding: {e}"));
            0
        }
    }
}

fn hunt_session(
    env: &Env,
    plan: &HuntPlan<'_>,
    dir: &Path,
    gates: &mut Gates,
) -> Result<Session, String> {
    let w = plan.workload;
    let shape = plan.shape;

    // Set-up: a corpus that already holds the committed fixtures (users
    // hunt into a corpus with history, and it gives triage one finding of
    // every mode to chew on) plus one untimed warm-up hunt of the same
    // command at one generation, so binary, page cache and allocator are
    // warm when the clock starts.
    let setup_started = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating session dir", e))?;
    let corpus = dir.join("corpus");
    copy_findings(&env.fixtures, &corpus)?;
    let warm = run_child(
        env.ccfuzz()
            .arg("hunt")
            .args(w.campaign_args(&CampaignShape {
                generations: 1,
                ..shape
            }))
            .args(["--corpus", &path_arg(&dir.join("warmup-corpus"))]),
        w.hunt_timeout(1),
    )
    .map_err(|e| io_err("spawning the warm-up hunt", e))?;
    gates.child_ok(&warm, "warm-up hunt");
    let setup_s = setup_started.elapsed().as_secs_f64();

    let telemetry = plan.traced_reference.then(|| dir.join("telemetry.jsonl"));
    let mut hunt_cmd = env.ccfuzz();
    hunt_cmd
        .arg("hunt")
        .args(w.campaign_args(&shape))
        .args(["--corpus", &path_arg(&corpus)]);
    if let Some(path) = &telemetry {
        hunt_cmd.args(["--telemetry", &path_arg(path)]);
    }
    let hunt = run_child(&mut hunt_cmd, w.hunt_timeout(shape.generations))
        .map_err(|e| io_err("spawning the hunt", e))?;
    gates.child_ok(&hunt, "ccfuzz hunt");
    let evaluations = parse_payload(&hunt.stdout, gates, "ccfuzz hunt");

    let triage_wall_s = triage(env, &corpus, plan.corrupt, gates)?;
    Ok(Session {
        ga_seed: plan.shape.ga_seed,
        setup_s,
        hunt_wall_s: hunt.wall.as_secs_f64(),
        evaluations,
        triage_wall_s,
        peak_rss_kb: hunt.peak_rss_kb,
        payload: hunt.stdout,
        restarts: 0,
        control_wall_s: None,
        telemetry,
    })
}

/// The rest of the README workflow on a hunt's corpus; returns the summed
/// wall of its three spawns.
fn triage(env: &Env, corpus: &Path, corrupt: bool, gates: &mut Gates) -> Result<f64, String> {
    let corpus_arg = path_arg(corpus);
    let minimize = run_child(
        env.ccfuzz()
            .args([
                "minimize",
                "--all",
                "--budget",
                &MINIMIZE_BUDGET.to_string(),
            ])
            .args(["--corpus", &corpus_arg]),
        SHORT_TIMEOUT,
    )
    .map_err(|e| io_err("spawning minimize", e))?;
    gates.child_ok(&minimize, "ccfuzz minimize --all");
    if corrupt {
        corrupt_one_finding(corpus)?;
    }
    let replay = run_child(
        env.ccfuzz()
            .args(["replay", "--strict", "--corpus", &corpus_arg]),
        SHORT_TIMEOUT,
    )
    .map_err(|e| io_err("spawning replay", e))?;
    gates.child_ok(
        &replay,
        "ccfuzz replay --strict (drift on the produced corpus)",
    );
    let report = run_child(
        env.ccfuzz().args(["report", "--corpus", &corpus_arg]),
        SHORT_TIMEOUT,
    )
    .map_err(|e| io_err("spawning report", e))?;
    gates.child_ok(&report, "ccfuzz report");
    Ok((minimize.wall + replay.wall + report.wall).as_secs_f64())
}

/// Nudges the stored score of the first finding in `corpus`, the way a
/// silent behaviour change would.
fn corrupt_one_finding(corpus: &Path) -> Result<(), String> {
    let findings = corpus.join("findings");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&findings)
        .map_err(|e| io_err("listing findings", e))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    let path = files.first().ok_or("no finding to corrupt")?;
    let text = std::fs::read_to_string(path).map_err(|e| io_err("reading finding", e))?;
    let mut finding: Finding = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    finding.outcome.score += 0.125;
    let json = serde_json::to_string_pretty(&finding).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| io_err("writing finding", e))?;
    eprintln!("corrupted the stored score of {}", path.display());
    Ok(())
}

/// `replay --strict` over a scratch copy of the committed fixture corpus.
pub fn replay_fixtures(env: &Env, gates: &mut Gates) -> Result<(), String> {
    let copy = env.scratch.join("fixtures");
    copy_findings(&env.fixtures, &copy)?;
    let replay = run_child(
        env.ccfuzz()
            .args(["replay", "--strict", "--corpus", &path_arg(&copy)]),
        SHORT_TIMEOUT,
    )
    .map_err(|e| io_err("spawning the fixture replay", e))?;
    gates.child_ok(&replay, "ccfuzz replay --strict on crates/corpus/fixtures");
    Ok(())
}

/// Copies `<from>/findings/*.json` into `<to>/findings/`.
pub fn copy_findings(from: &Path, to: &Path) -> Result<(), String> {
    let dst = to.join("findings");
    std::fs::create_dir_all(&dst).map_err(|e| io_err("creating fixture copy", e))?;
    let entries = std::fs::read_dir(from.join("findings"))
        .map_err(|e| io_err("listing the fixture corpus", e))?;
    for entry in entries.flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name()))
            .map_err(|e| io_err("copying a fixture", e))?;
    }
    Ok(())
}

fn fleet_session(
    env: &Env,
    plan: &HuntPlan<'_>,
    dir: &Path,
    gates: &mut Gates,
) -> Result<Session, String> {
    let w = plan.workload;

    // Set-up: daemon up and answering, plus the full in-process control
    // hunt whose payload the fleet's must equal byte for byte.
    let setup_started = Instant::now();
    let root = dir.join("daemon");
    std::fs::create_dir_all(&root).map_err(|e| io_err("creating daemon root", e))?;
    // The daemon merges every finished hunt into this shared corpus; like
    // the in-process sessions' it starts out holding the fixtures.
    copy_findings(&env.fixtures, &root.join("corpus"))?;
    let daemon_log = std::fs::File::create(dir.join("ccfuzzd.err"))
        .map_err(|e| io_err("creating daemon log", e))?;
    let mut daemon = spawn_group(
        Command::new(env.bin_dir.join("ccfuzzd"))
            .args(["--root", &path_arg(&root)])
            .stdout(Stdio::null())
            .stderr(daemon_log),
    )
    .map_err(|e| io_err("spawning ccfuzzd", e))?;
    // From here on every early return must drain the daemon first.
    let outcome = (|| -> Result<Session, String> {
        let addr = await_daemon(&root)?;
        let mut control_cmd = env.ccfuzz();
        control_cmd
            .arg("hunt")
            .args(w.campaign_args(&CampaignShape {
                threads: eval_threads(),
                ..plan.shape
            }))
            .args(["--corpus", &path_arg(&dir.join("control-corpus"))]);
        if plan.traced_reference {
            control_cmd.args([
                "--checkpoint",
                &path_arg(&dir.join("control-checkpoint.json")),
                "--checkpoint-every",
                "1",
            ]);
        }
        let control = run_child(&mut control_cmd, w.hunt_timeout(plan.shape.generations))
            .map_err(|e| io_err("spawning the control hunt", e))?;
        gates.child_ok(&control, "in-process control hunt");
        let setup_s = setup_started.elapsed().as_secs_f64();

        // The timed part: submit request sent to fetch body complete.
        let hunt_started = Instant::now();
        let (rss_stop, rss_rx) = channel::<()>();
        let daemon_pid = daemon.id();
        let (fetched, status, peak_rss_kb) = std::thread::scope(|scope| {
            let sampler = scope.spawn(move || sample_peak_rss_kb(daemon_pid, &rss_rx));
            let fetched = drive_fleet_hunt(env, plan, &root, &addr, gates);
            drop(rss_stop);
            let peak = sampler.join().expect("the sampler does not panic");
            fetched.map(|(payload, status)| (payload, status, peak))
        })?;
        let restarts = status.restarts;
        let hunt_wall_s = hunt_started.elapsed().as_secs_f64();
        gates.check(fetched == control.stdout, || {
            "fleet payload differs from the in-process control".to_string()
        });
        gates.check(restarts == 0, || {
            format!("fleet restarted {restarts} time(s)")
        });
        let evaluations = parse_payload(&fetched, gates, "ccfuzz fetch");
        Ok(Session {
            ga_seed: plan.shape.ga_seed,
            setup_s,
            hunt_wall_s,
            evaluations,
            triage_wall_s: 0.0,
            peak_rss_kb,
            payload: fetched,
            restarts,
            control_wall_s: Some(control.wall.as_secs_f64()),
            telemetry: Some(root.join("hunts").join(&status.id).join("telemetry.jsonl")),
        })
    })();

    // The daemon is always drained with SIGTERM and its exit code checked.
    let drained = terminate(&mut daemon, SHORT_TIMEOUT);
    gates.check(drained.is_some_and(|s| s.success()), || match drained {
        Some(status) => format!("ccfuzzd drain: {status}"),
        None => "ccfuzzd drain: killed after its hard timeout".to_string(),
    });
    let mut session = outcome?;
    session.triage_wall_s = triage(env, &root.join("corpus"), plan.corrupt, gates)?;
    Ok(session)
}

/// Waits until `<root>/daemon.addr` exists and `GET /hunts` answers.
fn await_daemon(root: &Path) -> Result<String, String> {
    let deadline = Instant::now() + SHORT_TIMEOUT;
    loop {
        if let Ok(addr) = std::fs::read_to_string(root.join("daemon.addr")) {
            let addr = addr.trim().to_string();
            if matches!(http_request(&addr, "GET", "/hunts", None), Ok((200, _))) {
                return Ok(addr);
            }
        }
        if Instant::now() > deadline {
            return Err("ccfuzzd did not come up".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `ccfuzz submit`, status polling from this process, `ccfuzz fetch`.
/// Returns the fetched payload and the hunt's final status.
fn drive_fleet_hunt(
    env: &Env,
    plan: &HuntPlan<'_>,
    root: &Path,
    addr: &str,
    gates: &mut Gates,
) -> Result<(Vec<u8>, HuntStatus), String> {
    let w = plan.workload;
    let root_arg = path_arg(root);
    let submit = run_child(
        env.ccfuzz()
            .args(["submit", "--daemon", &root_arg])
            .args(w.campaign_args(&plan.shape))
            .args(["--workers", &FLEET_WORKERS.to_string()]),
        SHORT_TIMEOUT,
    )
    .map_err(|e| io_err("spawning submit", e))?;
    gates.child_ok(&submit, "ccfuzz submit");
    let reply: Value = serde_json::from_str(&String::from_utf8_lossy(&submit.stdout))
        .map_err(|e| io_err("parsing the submit reply", e))?;
    let id = match reply
        .as_map("submit reply")
        .and_then(|m| map_get(m, "id"))
        .map_err(|e| e.to_string())?
    {
        Value::Str(id) => id.clone(),
        other => return Err(format!("submit reply id is not a string: {other:?}")),
    };

    let deadline = Instant::now() + w.hunt_timeout(plan.shape.generations);
    let status_path = format!("/hunts/{id}");
    let status: HuntStatus = loop {
        let (code, body) = http_request(addr, "GET", &status_path, None)?;
        if code != 200 {
            return Err(format!("status poll returned {code}: {}", body.trim()));
        }
        let status: HuntStatus =
            serde_json::from_str(&body).map_err(|e| io_err("parsing hunt status", e))?;
        if !matches!(status.state, HuntState::Queued | HuntState::Running) {
            break status;
        }
        if Instant::now() > deadline {
            return Err(format!("fleet hunt {id} outlived its hard timeout"));
        }
        std::thread::sleep(POLL_EVERY);
    };
    gates.check(status.state == HuntState::Completed, || {
        format!(
            "fleet hunt ended {:?}: {}",
            status.state,
            status.error.clone().unwrap_or_default()
        )
    });

    let fetch = run_child(
        env.ccfuzz().args(["fetch", "--daemon", &root_arg, &id]),
        SHORT_TIMEOUT,
    )
    .map_err(|e| io_err("spawning fetch", e))?;
    gates.child_ok(&fetch, "ccfuzz fetch");
    Ok((fetch.stdout, status))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn gates_count_attempts_and_failures() {
        let mut gates = Gates::default();
        assert!(gates.check(true, || unreachable!()));
        assert!(!gates.check(false, || "broken".to_string()));
        assert_eq!((gates.attempted, gates.failed), (2, 1));
    }
}
