//! Process-level tests for the distributed orchestration layer: a real
//! `ccfuzzd` daemon driven over its HTTP socket, hunts sharded across
//! worker processes (each keeping, checkpointing and shipping only its own
//! islands), a SIGKILL-induced fleet respawn that must resume from the
//! committed checkpoint (and stream the campaign's true evaluation count
//! through it), and the graceful SIGTERM drain.
//!
//! The load-bearing assertion throughout: a daemon hunt's fetched finding
//! payload is byte-identical to what a single-process `ccfuzz hunt` with
//! the same configuration prints to stdout.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::FuzzMode;
use ccfuzz_corpus::daemon::{http_request, HuntSpec, HuntState, HuntStatus};
use ccfuzz_corpus::finding::Finding;
use ccfuzz_corpus::hunt::HuntConfig;
use ccfuzz_corpus::worker::WorkerCheckpoint;
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_obs::Snapshot;
use serde::value::{map_get, Value};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DAEMON_BIN: &str = env!("CARGO_BIN_EXE_ccfuzzd");
const CCFUZZ_BIN: &str = env!("CARGO_BIN_EXE_ccfuzz");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccfuzz-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(180);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A running daemon plus its resolved HTTP address.
struct Daemon {
    child: Child,
    addr: String,
}

/// A daemon the test did not [`drain`] — a failed assertion unwinds past
/// it — is killed and reaped, so no `ccfuzzd` outlives its test.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn start_daemon(root: &Path) -> Daemon {
    let child = Command::new(DAEMON_BIN)
        .arg("--root")
        .arg(root)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("ccfuzzd binary runs");
    let addr_file = root.join("daemon.addr");
    wait_until("the daemon to publish its address", || addr_file.exists());
    let addr = std::fs::read_to_string(&addr_file)
        .unwrap()
        .trim()
        .to_string();
    Daemon { child, addr }
}

/// SIGTERM the daemon and assert the graceful drain: exit code 0 and the
/// address file removed.
fn drain(mut daemon: Daemon, root: &Path) {
    let status = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "sending SIGTERM failed");
    let exit = daemon.child.wait().unwrap();
    assert!(exit.success(), "SIGTERM drain must exit 0, got {exit}");
    assert!(
        !root.join("daemon.addr").exists(),
        "a drained daemon must remove its address file"
    );
}

/// The test campaign: deterministic, two islands, sized (via the scenario
/// duration) so generations take a noticeable slice of wall time in the
/// multi-worker tests.
fn test_spec(
    cca: CcaKind,
    mode: FuzzMode,
    generations: u32,
    seed: u64,
    workers: usize,
) -> HuntSpec {
    let mut config = HuntConfig::quick(cca, mode, generations, seed);
    config.duration = SimDuration::from_secs(if workers > 1 { 5 } else { 1 });
    config.ga.islands = 2;
    config.ga.population_per_island = 4;
    config.ga.threads = 2;
    HuntSpec {
        config,
        workers,
        checkpoint_every: 1,
        panic_budget: Some(100),
    }
}

/// Runs the single-process control hunt for `spec` and returns its exact
/// stdout payload.
fn control_payload(spec: &HuntSpec, corpus: &Path) -> Vec<u8> {
    let output = Command::new(CCFUZZ_BIN)
        .args([
            "hunt",
            "--cca",
            spec.config.cca.name(),
            "--mode",
            spec.config.mode.name(),
            "--generations",
            &spec.config.ga.generations.to_string(),
            "--seconds",
            &(spec.config.duration.as_secs_f64() as u64).to_string(),
            "--seed",
            &spec.config.ga.seed.to_string(),
            "--islands",
            &spec.config.ga.islands.to_string(),
            "--population",
            &spec.config.ga.population_per_island.to_string(),
            "--threads",
            &spec.config.ga.threads.to_string(),
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("ccfuzz binary runs");
    assert!(
        output.status.success(),
        "control hunt failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty());
    output.stdout
}

fn submit(addr: &str, spec: &HuntSpec) -> String {
    let body = serde_json::to_string(spec).unwrap();
    let (code, reply) = http_request(addr, "POST", "/hunts", Some(&body)).unwrap();
    assert_eq!(code, 200, "submit rejected: {reply}");
    let value: Value = serde_json::from_str(reply.trim()).unwrap();
    let map = value.as_map("submit reply").unwrap();
    match map_get(map, "id").unwrap() {
        Value::Str(id) => id.clone(),
        other => panic!("submit reply id is not a string: {other:?}"),
    }
}

fn hunt_status(addr: &str, id: &str) -> HuntStatus {
    let (code, reply) = http_request(addr, "GET", &format!("/hunts/{id}"), None).unwrap();
    assert_eq!(code, 200, "status failed: {reply}");
    serde_json::from_str(reply.trim()).unwrap()
}

fn terminal(state: HuntState) -> bool {
    !matches!(state, HuntState::Queued | HuntState::Running)
}

#[test]
fn single_worker_daemon_hunt_payload_matches_ccfuzz_hunt_byte_for_byte() {
    let dir = temp_dir("single");
    let spec = test_spec(CcaKind::Reno, FuzzMode::Traffic, 3, 7, 1);
    let control = control_payload(&spec, &dir.join("control-corpus"));

    let root = dir.join("daemon");
    let daemon = start_daemon(&root);
    let id = submit(&daemon.addr, &spec);
    wait_until("the hunt to finish", || {
        terminal(hunt_status(&daemon.addr, &id).state)
    });
    let status = hunt_status(&daemon.addr, &id);
    assert_eq!(
        status.state,
        HuntState::Completed,
        "hunt did not complete: {:?}",
        status.error
    );
    assert!(status.evaluations > 0);

    let (code, payload) =
        http_request(&daemon.addr, "GET", &format!("/hunts/{id}/findings"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        payload.as_bytes(),
        &control[..],
        "daemon payload differs from the single-process control"
    );

    // The telemetry stream is live JSONL with one snapshot per generation.
    let (code, stream) =
        http_request(&daemon.addr, "GET", &format!("/hunts/{id}/stream"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(stream.lines().count(), 3);
    assert!(stream.lines().all(|l| l.contains("\"generation\"")));

    // Unknown hunts are 404s, on every per-hunt endpoint.
    for path in ["/hunts/nope", "/hunts/nope/stream", "/hunts/nope/findings"] {
        let (code, _) = http_request(&daemon.addr, "GET", path, None).unwrap();
        assert_eq!(code, 404, "{path} should 404");
    }

    drain(daemon, &root);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigkilled_worker_respawns_from_checkpoint_and_matches_the_control() {
    sigkill_a_worker_and_match_the_control(FuzzMode::Topology, 1);
}

/// Traffic is the mode the benchmark's fleet workload runs: its respawned
/// workers splice their checkpointed island slice into a fresh population.
#[test]
fn sigkilled_traffic_worker_respawns_from_checkpoint_and_matches_the_control() {
    sigkill_a_worker_and_match_the_control(FuzzMode::Traffic, 1);
}

/// With a checkpoint every second boundary, the kill lands after the
/// coordinator absorbed generation 2 but before boundary 4 is committed:
/// the respawn rolls back to boundary 2 and evaluates generation 2 again.
/// The telemetry stream must still end on the campaign's own count.
#[test]
fn a_respawn_that_repeats_an_absorbed_generation_streams_the_campaign_total() {
    sigkill_a_worker_and_match_the_control(FuzzMode::Traffic, 2);
}

fn sigkill_a_worker_and_match_the_control(mode: FuzzMode, checkpoint_every: u32) {
    let dir = temp_dir(&format!("sigkill-{}-every-{checkpoint_every}", mode.name()));
    // Sized so the campaign outlives the kill by a wide margin: children
    // that repeat a parent take its outcome instead of simulating, so a
    // small, quickly converging campaign finishes in a few generations'
    // worth of simulations.
    let mut spec = test_spec(CcaKind::Bbr, mode, 12, 33, 2);
    spec.config.duration = SimDuration::from_secs(20);
    spec.checkpoint_every = checkpoint_every;
    let control = control_payload(&spec, &dir.join("control-corpus"));

    let root = dir.join("daemon");
    let daemon = start_daemon(&root);
    let id = submit(&daemon.addr, &spec);

    // Wait until the fleet has committed a boundary to respawn from, then
    // SIGKILL one worker mid-campaign. The status reports generation `g`
    // once the coordinator absorbed it, which the fleet evaluated from
    // boundary `g`; with `g` a multiple of the cadence, that boundary was
    // checkpointed and the next one is not yet.
    wait_until("the fleet to commit a boundary", || {
        let s = hunt_status(&daemon.addr, &id);
        let committed =
            s.generation >= checkpoint_every && s.generation.is_multiple_of(checkpoint_every);
        (s.worker_pids.len() == 2 && committed) || terminal(s.state)
    });
    let status = hunt_status(&daemon.addr, &id);
    assert!(
        !terminal(status.state),
        "hunt finished before the kill could land; enlarge the campaign"
    );
    let victim = status.worker_pids[0];
    let killed = Command::new("kill")
        .args(["-KILL", &victim.to_string()])
        .status()
        .unwrap();
    assert!(killed.success(), "sending SIGKILL failed");

    wait_until("the hunt to finish after the kill", || {
        terminal(hunt_status(&daemon.addr, &id).state)
    });
    let status = hunt_status(&daemon.addr, &id);
    assert_eq!(
        status.state,
        HuntState::Completed,
        "hunt did not complete after the kill: {:?}",
        status.error
    );
    assert!(
        status.restarts >= 1,
        "the killed worker must have forced at least one fleet respawn"
    );
    // The supervisor respawns the whole fleet, so the hunt counts restarts
    // once: no worker lane of the status JSON carries a count of its own.
    let (code, reply) = http_request(&daemon.addr, "GET", &format!("/hunts/{id}"), None).unwrap();
    assert_eq!(code, 200, "status failed: {reply}");
    let value: Value = serde_json::from_str(reply.trim()).unwrap();
    let workers = map_get(value.as_map("status").unwrap(), "workers").unwrap();
    let workers = workers.as_seq("workers").unwrap();
    assert_eq!(workers.len(), 2, "{reply}");
    for lane in workers {
        let lane = lane.as_map("worker lane").unwrap();
        assert!(lane.iter().all(|(key, _)| key != "restarts"), "{reply}");
    }

    let (code, payload) =
        http_request(&daemon.addr, "GET", &format!("/hunts/{id}/findings"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        payload.as_bytes(),
        &control[..],
        "respawned hunt's payload differs from the single-process control"
    );

    // The telemetry stream counts the campaign as the coordinator does: the
    // generations the respawn evaluated again are not counted twice.
    let finding: Finding = serde_json::from_str(payload.trim()).unwrap();
    let stream =
        std::fs::read_to_string(root.join("hunts").join(&id).join("telemetry.jsonl")).unwrap();
    let last: Snapshot = serde_json::from_str(stream.lines().last().unwrap()).unwrap();
    assert_eq!(
        last.evaluations, finding.provenance.total_evaluations,
        "the last telemetry snapshot disagrees with the finding's provenance"
    );

    drain(daemon, &root);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_uneven_fleet_ships_and_persists_only_its_own_islands() {
    let dir = temp_dir("uneven");
    // Five islands over three workers: a 2/2/1 split.
    let mut spec = test_spec(CcaKind::Reno, FuzzMode::Traffic, 3, 5, 3);
    spec.config.ga.islands = 5;
    let control = control_payload(&spec, &dir.join("control-corpus"));

    let root = dir.join("daemon");
    let daemon = start_daemon(&root);
    let id = submit(&daemon.addr, &spec);
    wait_until("the hunt to finish", || {
        terminal(hunt_status(&daemon.addr, &id).state)
    });
    let status = hunt_status(&daemon.addr, &id);
    assert_eq!(
        status.state,
        HuntState::Completed,
        "hunt did not complete: {:?}",
        status.error
    );
    let (code, payload) =
        http_request(&daemon.addr, "GET", &format!("/hunts/{id}/findings"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        payload.as_bytes(),
        &control[..],
        "2/2/1 fleet payload differs from the single-process control"
    );

    // Every checkpoint a worker left behind is its slice: `load` accepts
    // only its own islands in full and every other island empty.
    let workers = root.join("hunts").join(&id).join("workers");
    let mut files: Vec<String> = std::fs::read_dir(&workers)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let owners: Vec<usize> = files.iter().map(|f| f[7..9].parse().unwrap()).collect();
    assert_eq!(owners, [0, 0, 1, 1, 2, 2], "{files:?}");
    for (file, worker) in files.iter().zip(owners) {
        let generation: u32 = file[14..20].parse().unwrap();
        let loaded =
            WorkerCheckpoint::load(&workers.join(file), worker, 3, &spec.config, generation);
        assert!(loaded.is_ok(), "{file}: {:?}", loaded.err());
    }

    drain(daemon, &root);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_idle_daemon_answers_sequential_requests_without_polling() {
    let dir = temp_dir("idle");
    let root = dir.join("daemon");
    let daemon = start_daemon(&root);
    let list = || {
        let (code, reply) = http_request(&daemon.addr, "GET", "/hunts", None).unwrap();
        assert_eq!((code, reply.trim()), (200, "[]"));
    };
    list();
    // An accept loop that sleeps between polls makes each request wait for
    // the next poll: about 12 ms on average at a 25 ms poll, 0.6 s in all.
    let started = Instant::now();
    for _ in 0..50 {
        list();
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "50 sequential requests took {took:?}"
    );

    drain(daemon, &root);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_fixed_worker_count_replays_a_deterministic_trajectory() {
    let dir = temp_dir("determinism");
    let root = dir.join("daemon");
    let daemon = start_daemon(&root);

    // Same spec twice on one daemon: the payloads must be identical, and
    // the second merge into the shared corpus must dedup, not grow it.
    let spec = test_spec(CcaKind::Reno, FuzzMode::Link, 3, 11, 2);
    let first = submit(&daemon.addr, &spec);
    let second = submit(&daemon.addr, &spec);
    wait_until("both hunts to finish", || {
        terminal(hunt_status(&daemon.addr, &first).state)
            && terminal(hunt_status(&daemon.addr, &second).state)
    });
    for id in [&first, &second] {
        let status = hunt_status(&daemon.addr, id);
        assert_eq!(
            status.state,
            HuntState::Completed,
            "{id} did not complete: {:?}",
            status.error
        );
    }
    let (_, a) = http_request(
        &daemon.addr,
        "GET",
        &format!("/hunts/{first}/findings"),
        None,
    )
    .unwrap();
    let (_, b) = http_request(
        &daemon.addr,
        "GET",
        &format!("/hunts/{second}/findings"),
        None,
    )
    .unwrap();
    assert_eq!(a, b, "same spec, same worker count, different payloads");

    // Signature-level dedup: both hunts merged into the shared corpus, but
    // the identical finding is stored once.
    let findings = std::fs::read_dir(root.join("corpus").join("findings"))
        .unwrap()
        .count();
    assert_eq!(findings, 1, "duplicate findings must dedup on merge");

    drain(daemon, &root);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn specs_failing_ga_validation_get_400_and_later_hunts_still_run() {
    let dir = temp_dir("invalid");
    let root = dir.join("daemon");
    let daemon = start_daemon(&root);

    // Each of these used to be queued and then panic the runner thread when
    // the campaign was built, wedging every hunt behind it.
    let valid = test_spec(CcaKind::Reno, FuzzMode::Traffic, 2, 7, 1);
    let mut no_room_to_breed = valid.clone();
    no_room_to_breed.config.ga.k_elite = valid.config.ga.population_per_island;
    let mut no_generations = valid.clone();
    no_generations.config.ga.generations = 0;
    let mut crossover_above_one = valid.clone();
    crossover_above_one.config.ga.crossover_fraction = 2.0;
    for (what, spec) in [
        ("k_elite", no_room_to_breed),
        ("generation", no_generations),
        ("crossover_fraction", crossover_above_one),
    ] {
        let body = serde_json::to_string(&spec).unwrap();
        let (code, reply) = http_request(&daemon.addr, "POST", "/hunts", Some(&body)).unwrap();
        assert_eq!(code, 400, "{what}: {reply}");
        assert!(reply.contains(what), "{what}: the reply names it: {reply}");
    }

    let id = submit(&daemon.addr, &valid);
    assert_eq!(id, "hunt-0001", "a rejected spec is never queued");
    wait_until("the valid hunt to finish", || {
        terminal(hunt_status(&daemon.addr, &id).state)
    });
    let status = hunt_status(&daemon.addr, &id);
    assert_eq!(
        status.state,
        HuntState::Completed,
        "hunt did not complete: {:?}",
        status.error
    );

    drain(daemon, &root);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ccfuzzd_usage_errors_exit_2_and_name_the_flag() {
    // None of these reaches `serve` or a coordinator connection: a bad
    // invocation is a usage error (2), as it is for `ccfuzz`, not a
    // runtime failure (1).
    let cases: [(&[&str], &str); 7] = [
        (&["--root"], "--root requires a value"),
        (&["--root", "unused", "--bind"], "--bind requires a value"),
        (
            &["--root", "unused", "--bnd", "x"],
            "unexpected argument `--bnd`",
        ),
        (
            &[
                "worker",
                "--connect",
                "127.0.0.1:1",
                "--worker",
                "0",
                "--root",
                "x",
            ],
            "unexpected argument `--root` for worker",
        ),
        (&["worker", "--connect"], "--connect requires a value"),
        (&["worker", "--connect", "127.0.0.1:1"], "--worker K"),
        (
            &["worker", "--connect", "127.0.0.1:1", "--worker", "x"],
            "--worker: invalid value",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(DAEMON_BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // Without `--root` the daemon prints its usage and exits 2 as well.
    let out = Command::new(DAEMON_BIN).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
