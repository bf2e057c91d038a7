//! The distributed-hunt coordinator and the `ccfuzzd` daemon.
//!
//! Two layers live here:
//!
//! * [`hunt_distributed`] — the multi-process twin of
//!   [`crate::hunt::hunt_controlled`]: it shards the campaign's islands
//!   across worker processes (`ccfuzzd worker` children speaking the
//!   [`crate::proto`] frame protocol), supervises them (a dead worker
//!   respawns the whole fleet from the last *committed* checkpoint
//!   boundary, with backoff, restarts counting against the panic budget)
//!   and funnels the result through the same persistence tail as a local
//!   hunt — so a completed distributed hunt emits the byte-identical
//!   finding payload.
//! * [`serve`] — the daemon: a minimal hand-rolled HTTP/1.1 endpoint to
//!   submit hunts, poll status, stream per-generation telemetry JSONL and
//!   fetch finished findings, plus a runner thread that executes queued
//!   hunts one at a time and merges each finished hunt's corpus into the
//!   shared fleet corpus.
//!
//! Determinism: the coordinator is the only actor that decides when a
//! generation is evaluated, when the migration ring runs (batches are
//! routed in canonical island order) and when the campaign stops, so a
//! fixed worker count replays a fixed trajectory. Non-annealed campaigns
//! further match the single-process trajectory for *any* worker count
//! (see `ccfuzz_core::shard`); annealed ones match it at one worker.
//!
//! Checkpoint commits are two-phase: workers persist their boundary
//! snapshots and acknowledge, and only when *every* worker has acknowledged
//! does the coordinator commit the boundary (keeping a clone of its own
//! cross-island state alongside). A crash between those steps rolls the
//! fleet back to the previous committed boundary — never to a torn mix.

use crate::hunt::{HuntConfig, HuntControl, HuntJob, HuntOutcome};
use crate::proto::{
    decode, recv_frame, send_frame, Assign, CheckpointDone, Evaluate, Fatal, Finish, Hello,
    Proceed, ASSIGN, CHECKPOINT_DONE, EVALUATE, FATAL, FINAL, FINISH, HELLO, INBOUND, MIGRANTS,
    PROCEED, REPORT,
};
use crate::store::{Corpus, CorpusError};
use ccfuzz_core::checkpoint::{ControlledRun, SnapshotPayload};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::mode::{dispatch, ModeGenome};
use ccfuzz_core::shard::{
    drive, route_migrants, shard_ranges, LoopControl, MigrantBatch, ShardCoordinator, ShardFinal,
    ShardReport, Shards,
};
use ccfuzz_obs::{
    write_atomic, FleetTelemetry, HuntTelemetry, OperatorSnapshot, WorkerLaneSnapshot,
};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on fleet respawns when no panic budget bounds them; a
/// systematically-crashing worker binary must not loop forever.
const MAX_UNBUDGETED_RESTARTS: u64 = 32;

/// How long the coordinator waits for all workers to connect and say hello.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Distributed coordinator
// ---------------------------------------------------------------------------

/// Options steering a distributed hunt, alongside the usual
/// [`HuntControl`].
pub struct DistOptions<'a> {
    /// Worker processes to shard the islands across (clamped to the island
    /// count).
    pub workers: usize,
    /// The binary to spawn workers from (must understand
    /// `worker --connect ADDR --worker K`; the `ccfuzzd` binary does).
    pub exe: &'a Path,
    /// Directory for worker checkpoint files.
    pub worker_dir: &'a Path,
    /// Per-worker fleet counters to record into, if any.
    pub fleet: Option<&'a FleetTelemetry>,
    /// Called after every absorbed generation and after every (re)spawn.
    pub on_progress: Option<&'a (dyn Fn(DistProgress) + Sync)>,
}

/// One progress observation from the coordinator.
#[derive(Clone, Debug, Default)]
pub struct DistProgress {
    /// Latest generation absorbed (meaningful when `evaluations > 0`).
    pub generation: u32,
    /// Fleet-wide simulations absorbed so far this run attempt.
    pub evaluations: u64,
    /// Best score so far, if anything was evaluated.
    pub best_score: Option<f64>,
    /// Fleet respawns so far.
    pub restarts: u64,
    /// Current worker process IDs, when the fleet was just (re)spawned.
    pub worker_pids: Option<Vec<u32>>,
}

/// [`crate::hunt::hunt_controlled`] with the campaign's islands sharded
/// across worker processes: the same driver (`ccfuzz_core::shard::drive`)
/// over a TCP fleet instead of an in-process lane, then the same
/// persistence — so the same outcomes and the same payload bytes on
/// completion. Workers checkpoint on `ctl.checkpoint_every` (0 = never; the
/// fleet then always restarts from scratch after a death). Resuming from a
/// [`crate::checkpoint::CampaignCheckpoint`]
/// is not supported here — resume interrupted distributed hunts by
/// submitting them again (the daemon keeps hunts independent) or resume
/// the final checkpoint single-process with `ccfuzz resume`.
pub fn hunt_distributed(
    corpus: &Corpus,
    config: &HuntConfig,
    obs: Option<&HuntTelemetry>,
    ctl: HuntControl<'_>,
    dist: &DistOptions<'_>,
) -> Result<HuntOutcome, CorpusError> {
    let job = HuntJob {
        corpus,
        config,
        obs,
        ctl,
        dist: Some(dist),
    };
    dispatch(config.mode, job)
}

/// A worker process plus its coordinator-side socket.
struct FleetLink {
    child: Child,
    stream: TcpStream,
}

/// The TCP [`Shards`] transport: one worker process per island range,
/// spoken to in [`crate::proto`] frames.
struct Fleet<'a, G> {
    links: Vec<FleetLink>,
    ranges: &'a [(usize, usize)],
    ga: &'a GaParams,
    obs: Option<&'a HuntTelemetry>,
    lanes: Option<&'a FleetTelemetry>,
    /// Workers report cumulative operator counters; the coordinator feeds
    /// the per-generation diffs into the hunt telemetry.
    last_operators: Vec<OperatorSnapshot>,
    /// The supervisor's rollback point: the last boundary every worker
    /// durably checkpointed, with the coordinator state at that boundary.
    committed: &'a mut Option<(u32, ShardCoordinator<G>)>,
}

impl<G> Fleet<'_, G> {
    fn pids(&self) -> Vec<u32> {
        self.links.iter().map(|l| l.child.id()).collect()
    }

    /// Reaps workers that were told to finish and exit on their own.
    fn reap(&mut self) {
        for link in &mut self.links {
            let _ = link.child.wait();
        }
    }

    /// Sends one frame to every worker.
    fn broadcast<T: Serialize>(&mut self, kind: &str, body: &T) -> Result<(), FleetError> {
        for (worker, link) in self.links.iter_mut().enumerate() {
            send_frame(&mut link.stream, kind, body)
                .map_err(|e| FleetError::Death(format!("worker {worker} link: {e}")))?;
        }
        Ok(())
    }

    /// Receives one `want` frame from every worker, in worker order.
    fn gather<T: Deserialize>(&mut self, want: &str) -> Result<Vec<T>, FleetError> {
        self.links
            .iter_mut()
            .enumerate()
            .map(|(worker, link)| expect_frame(link, worker, want))
            .collect()
    }
}

/// Hard-stops every worker (used on death or hard failure).
fn kill(links: &mut [FleetLink]) {
    for link in links {
        let _ = link.child.kill();
        let _ = link.child.wait();
    }
}

/// How one fleet run attempt ended, when it did not produce a result.
enum FleetError {
    /// A worker died (EOF / IO error); the supervisor respawns the fleet.
    Death(String),
    /// A protocol or logic error; respawning cannot help.
    Fatal(String),
}

impl From<String> for FleetError {
    fn from(message: String) -> Self {
        FleetError::Fatal(message)
    }
}

/// The supervision loop: (re)spawn the fleet, run the generation loop over
/// it, and on worker death roll back to the last committed boundary and try
/// again. The fleet always starts from scratch and runs under the hunt's
/// `control`, with its own restart count and progress callback; the workers
/// persist their own boundaries.
pub(crate) fn run_fleet<G: ModeGenome>(
    config: &HuntConfig,
    control: &LoopControl<'_, G>,
    dist: &DistOptions<'_>,
) -> Result<ControlledRun<G>, String> {
    let ranges = shard_ranges(config.ga.islands, dist.workers.max(1));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding coordinator socket: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("configuring coordinator socket: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("resolving coordinator socket: {e}"))?
        .to_string();

    let mut committed: Option<(u32, ShardCoordinator<G>)> = None;
    let mut restarts: u64 = 0;
    loop {
        let mut coordinator = match &committed {
            Some((_, state)) => state.clone(),
            None => ShardCoordinator::new(config.ga),
        };
        let resume_generation = committed.as_ref().map(|(g, _)| *g);
        let report = |progress: DistProgress| {
            if let Some(on_progress) = dist.on_progress {
                on_progress(DistProgress {
                    restarts,
                    ..progress
                });
            }
        };
        let on_generation = |c: &ShardCoordinator<G>| {
            report(DistProgress {
                generation: c.history().last().map_or(0, |summary| summary.generation),
                evaluations: c.evaluations() as u64,
                best_score: c.best_score(),
                ..DistProgress::default()
            })
        };
        let spawned = spawn_fleet(
            &listener,
            &addr,
            &ranges,
            config,
            control.checkpoint_every,
            dist,
            resume_generation,
        );
        let attempt = spawned.map_err(FleetError::Death).and_then(|links| {
            let mut fleet = Fleet {
                links,
                ranges: &ranges,
                ga: &config.ga,
                obs: control.obs,
                lanes: dist.fleet,
                last_operators: vec![OperatorSnapshot::default(); ranges.len()],
                committed: &mut committed,
            };
            report(DistProgress {
                worker_pids: Some(fleet.pids()),
                ..DistProgress::default()
            });
            // The respawn charge and entry check live in the driver: with
            // `restarts > 0` and a committed boundary it re-checks shutdown
            // and budget before evaluating anything.
            let run = drive(
                &mut coordinator,
                &mut fleet,
                &LoopControl {
                    restarts,
                    on_generation: Some(&on_generation),
                    ..*control
                },
            );
            match &run {
                Ok(_) => fleet.reap(),
                Err(_) => kill(&mut fleet.links),
            }
            run
        });
        match attempt {
            Ok(run) => return Ok(run),
            Err(FleetError::Fatal(message)) => return Err(message),
            Err(FleetError::Death(message)) => {
                restarts += 1;
                if let Some(fleet) = dist.fleet {
                    // Without knowing which worker died first, charge lane 0;
                    // the fleet restarts as a whole anyway.
                    fleet.lane(0).restarts.inc();
                }
                // Restarts count against the panic budget. When a committed
                // boundary exists, an exhausted budget still respawns once
                // more: the boundary check then stops the resumed fleet
                // gracefully with `PanicBudgetExhausted` and a valid final
                // snapshot. With nothing committed there is no result to
                // assemble, so the hunt fails hard.
                let exhausted_with_nothing_committed = match control.panic_budget {
                    Some(budget) => restarts > budget && committed.is_none(),
                    None => restarts > MAX_UNBUDGETED_RESTARTS,
                };
                if exhausted_with_nothing_committed {
                    return Err(format!(
                        "giving up after {restarts} fleet restarts (last: {message})"
                    ));
                }
                let backoff = Duration::from_millis(100 << restarts.min(4));
                eprintln!(
                    "ccfuzzd: fleet died ({message}); respawning from {} in {backoff:?} \
                     (restart {restarts})",
                    match resume_generation {
                        Some(g) => format!("committed generation {g}"),
                        None => "scratch".to_string(),
                    }
                );
                std::thread::sleep(backoff);
            }
        }
    }
}

/// Spawns the worker processes and completes the hello/assign handshake.
fn spawn_fleet(
    listener: &TcpListener,
    addr: &str,
    ranges: &[(usize, usize)],
    config: &HuntConfig,
    checkpoint_every: u32,
    dist: &DistOptions<'_>,
    resume_generation: Option<u32>,
) -> Result<Vec<FleetLink>, String> {
    let n = ranges.len();
    let mut children: Vec<Child> = Vec::with_capacity(n);
    for worker in 0..n {
        let child = Command::new(dist.exe)
            .arg("worker")
            .arg("--connect")
            .arg(addr)
            .arg("--worker")
            .arg(worker.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| {
                for c in &mut children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                format!("spawning worker {worker} from {}: {e}", dist.exe.display())
            })?;
        children.push(child);
    }
    let kill_all = |children: &mut Vec<Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };

    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut slots: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    let mut pending = n;
    while pending > 0 {
        if Instant::now() > deadline {
            kill_all(&mut children);
            return Err("fleet handshake timed out".into());
        }
        for child in &mut children {
            if let Ok(Some(status)) = child.try_wait() {
                kill_all(&mut children);
                return Err(format!("a worker exited during handshake: {status}"));
            }
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                let hello = (|| -> Result<Hello, String> {
                    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .map_err(|e| e.to_string())?;
                    let (kind, body) = recv_frame(&mut stream).map_err(|e| e.to_string())?;
                    if kind != HELLO {
                        return Err(format!("expected `{HELLO}`, got `{kind}`"));
                    }
                    stream.set_read_timeout(None).map_err(|e| e.to_string())?;
                    decode(&kind, &body)
                })();
                match hello {
                    Ok(Hello { worker }) if worker < n && slots[worker].is_none() => {
                        slots[worker] = Some(stream);
                        pending -= 1;
                    }
                    Ok(Hello { worker }) => {
                        kill_all(&mut children);
                        return Err(format!("unexpected hello from worker {worker}"));
                    }
                    Err(e) => {
                        kill_all(&mut children);
                        return Err(format!("handshake failed: {e}"));
                    }
                }
            }
            // The handshake must keep watching for child exits and its
            // deadline, so it polls; a short poll keeps it off the hunt's
            // critical path.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("accepting worker connection: {e}"));
            }
        }
    }

    // The loop above exits only once every slot holds a stream.
    let Some(streams) = slots.into_iter().collect::<Option<Vec<TcpStream>>>() else {
        kill_all(&mut children);
        return Err("fleet handshake ended with a worker slot unfilled".into());
    };
    let mut links = Vec::with_capacity(n);
    for (worker, (child, stream)) in children.into_iter().zip(streams).enumerate() {
        let (island_start, island_end) = ranges[worker];
        let assign = Assign {
            config: config.clone(),
            worker,
            n_workers: n,
            island_start,
            island_end,
            checkpoint_every,
            checkpoint_dir: dist.worker_dir.display().to_string(),
            resume_generation,
        };
        links.push(FleetLink { child, stream });
        if let Err(e) = send_frame(&mut links[worker].stream, ASSIGN, &assign) {
            kill(&mut links);
            return Err(format!("assigning worker {worker}: {e}"));
        }
    }
    Ok(links)
}

/// Receives one frame from a worker, expecting `want`. EOF/IO errors are
/// deaths; `fatal` frames and protocol violations are hard failures.
fn expect_frame<T: Deserialize>(
    link: &mut FleetLink,
    worker: usize,
    want: &str,
) -> Result<T, FleetError> {
    let (kind, body) = recv_frame(&mut link.stream)
        .map_err(|e| FleetError::Death(format!("worker {worker} link: {e}")))?;
    if kind == FATAL {
        let fatal: Fatal = decode(&kind, &body).unwrap_or(Fatal {
            message: "unreadable fatal frame".into(),
        });
        return Err(FleetError::Fatal(format!(
            "worker {worker} failed: {}",
            fatal.message
        )));
    }
    if kind != want {
        return Err(FleetError::Fatal(format!(
            "expected `{want}` from worker {worker}, got `{kind}`"
        )));
    }
    decode(&kind, &body).map_err(FleetError::Fatal)
}

impl<G: ModeGenome> Shards<G> for Fleet<'_, G> {
    type Error = FleetError;

    fn evaluate(&mut self, generation: u32) -> Result<Vec<ShardReport<G>>, FleetError> {
        self.broadcast(EVALUATE, &Evaluate { generation })?;
        let reports: Vec<ShardReport<G>> = self.gather(REPORT)?;
        for (worker, report) in reports.iter().enumerate() {
            if let Some(fleet_t) = self.lanes {
                fleet_t
                    .lane(worker)
                    .evaluations
                    .add(report.eval_delta as u64);
                fleet_t.lane(worker).panics.add(report.panics.len() as u64);
            }
            if let Some(o) = self.obs {
                o.metrics.evaluations.add(report.eval_delta as u64);
                o.metrics.panics_caught.add(report.panics.len() as u64);
                let last = &self.last_operators[worker];
                o.metrics.operators.add(&report.operators.since(last));
            }
            self.last_operators[worker] = report.operators;
        }
        Ok(reports)
    }

    fn proceed(
        &mut self,
        generation: u32,
        migrate: bool,
        checkpoint: bool,
        coordinator: &ShardCoordinator<G>,
    ) -> Result<(), FleetError> {
        self.broadcast(
            PROCEED,
            &Proceed {
                generation,
                migrate,
                checkpoint,
            },
        )?;
        if migrate {
            let outbound: Vec<Vec<MigrantBatch<G>>> = self.gather(MIGRANTS)?;
            if let Some(fleet_t) = self.lanes {
                for (worker, batches) in outbound.iter().enumerate() {
                    let count: usize = batches.iter().map(|b| b.migrants.len()).sum();
                    fleet_t.lane(worker).migrants_out.add(count as u64);
                }
            }
            let inbound = route_migrants(self.ga, self.ranges, outbound)?;
            for ((worker, link), batches) in self.links.iter_mut().enumerate().zip(inbound) {
                send_frame(&mut link.stream, INBOUND, &batches)
                    .map_err(|e| FleetError::Death(format!("worker {worker} link: {e}")))?;
            }
        }
        if checkpoint {
            let boundary = generation + 1;
            let acks: Vec<CheckpointDone> = self.gather(CHECKPOINT_DONE)?;
            if let Some(worker) = acks.iter().position(|done| done.generation != boundary) {
                return Err(FleetError::Fatal(format!(
                    "worker {worker} checkpointed boundary {} instead of {boundary}",
                    acks[worker].generation
                )));
            }
            // Two-phase commit: every worker has durably persisted this
            // boundary, so it is now safe to resume from.
            *self.committed = Some((boundary, coordinator.clone()));
        }
        Ok(())
    }

    fn finish(&mut self, next_generation: u32) -> Result<Vec<ShardFinal<G>>, FleetError> {
        self.broadcast(FINISH, &Finish { next_generation })?;
        let finals: Vec<SnapshotPayload> = self.gather(FINAL)?;
        finals
            .into_iter()
            .zip(self.ranges)
            .map(|(payload, &(start, end))| Ok((start, end, G::unwrap_snapshot(payload)?)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The ccfuzzd daemon
// ---------------------------------------------------------------------------

/// Upper bound on one HTTP request (head + body) the daemon accepts.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How long a client has to deliver its whole request, and the daemon to
/// deliver its reply. Connections are served on the accept thread, so this
/// bounds how long one client can hold the API (and the shutdown drain).
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A hunt submission: the campaign plus its distribution knobs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HuntSpec {
    /// The campaign to run.
    pub config: HuntConfig,
    /// Worker processes to shard the islands across (clamped to ≥ 1 and to
    /// the island count).
    pub workers: usize,
    /// Checkpoint cadence in generations (0 = only the final checkpoint).
    pub checkpoint_every: u32,
    /// Caught-panic budget, fleet restarts included (`None` = unlimited).
    pub panic_budget: Option<u64>,
}

/// Lifecycle of a submitted hunt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HuntState {
    /// Waiting for the runner thread to pick it up.
    Queued,
    /// Executing right now.
    Running,
    /// Ran to completion; the finding payload is available.
    Completed,
    /// Stopped at a generation boundary by daemon shutdown.
    Interrupted,
    /// Stopped because the panic budget was exhausted.
    PanicBudgetExhausted,
    /// Failed; see `error` in the status.
    Failed,
}

/// A point-in-time status view of one hunt, as served over HTTP.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HuntStatus {
    /// The daemon-assigned hunt identifier (`hunt-0001`, ...).
    pub id: String,
    /// Lifecycle state.
    pub state: HuntState,
    /// Latest generation the coordinator absorbed.
    pub generation: u32,
    /// Fleet-wide evaluations so far.
    pub evaluations: u64,
    /// Best score so far, once anything was evaluated.
    pub best_score: Option<f64>,
    /// Fleet respawns so far.
    pub restarts: u64,
    /// Current worker process IDs.
    pub worker_pids: Vec<u32>,
    /// Per-worker counter lanes.
    pub workers: Vec<WorkerLaneSnapshot>,
    /// The failure message, for `Failed` hunts.
    pub error: Option<String>,
}

/// One hunt the daemon knows about.
struct HuntEntry {
    spec: HuntSpec,
    status: HuntStatus,
    /// The finding payload of a completed hunt — the exact bytes `ccfuzz
    /// hunt` would have printed to stdout (JSON line + newline).
    payload: Option<String>,
}

/// State shared between the HTTP accept loop and the runner thread.
struct DaemonShared<'a> {
    root: PathBuf,
    exe: PathBuf,
    hunts: Mutex<Vec<HuntEntry>>,
    /// Signalled (under the `hunts` lock) when a hunt is queued and on
    /// shutdown; the idle runner waits on it.
    queued: Condvar,
    shutdown: &'a AtomicBool,
}

/// How often the shutdown watcher looks at the flag. Shutdown is raised by
/// a signal handler, which can neither take a lock nor open a socket, so one
/// thread polls for it and then wakes the blocked accept loop and runner.
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// Locks poison-tolerantly: a panicking HTTP handler must not wedge the
/// runner (or vice versa) for the daemon's remaining lifetime.
fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the daemon: binds `bind` (use port 0 for an OS-assigned port — the
/// actual address is published to `<root>/daemon.addr`), serves the HTTP
/// API and executes queued hunts one at a time on a runner thread. Returns
/// after a graceful drain: once `shutdown` is raised, the listener stops
/// accepting, the running hunt (if any) stops at its next generation
/// boundary, and the address file is removed.
pub fn serve(root: &Path, bind: &str, shutdown: &AtomicBool) -> Result<(), String> {
    std::fs::create_dir_all(root.join("hunts"))
        .map_err(|e| format!("creating {}: {e}", root.join("hunts").display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    let listener = TcpListener::bind(bind).map_err(|e| format!("binding {bind}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("resolving listener address: {e}"))?;
    let addr = local.to_string();
    write_atomic(&root.join("daemon.addr"), addr.as_bytes())
        .map_err(|e| format!("publishing daemon.addr: {e}"))?;
    eprintln!("ccfuzzd: listening on {addr} (root {})", root.display());

    let shared = DaemonShared {
        root: root.to_path_buf(),
        exe,
        hunts: Mutex::new(Vec::new()),
        queued: Condvar::new(),
        shutdown,
    };
    std::thread::scope(|scope| {
        scope.spawn(|| runner_loop(&shared));
        scope.spawn(|| watch_shutdown(&shared, local));
        // Blocks in `accept`; the watcher's one wake-up connection is
        // dropped unread.
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(_) if shutdown.load(Ordering::SeqCst) => {}
                Ok((stream, _)) => handle_connection(&shared, stream),
                Err(e) => eprintln!("ccfuzzd: accept failed: {e}"),
            }
        }
        // Scope exit joins the runner, which drains on the same flag.
    });
    let _ = std::fs::remove_file(root.join("daemon.addr"));
    eprintln!("ccfuzzd: drained");
    Ok(())
}

/// Waits for shutdown, then wakes the runner and the accept loop (blocked in
/// `accept`: one connection to the daemon's own address).
fn watch_shutdown(shared: &DaemonShared<'_>, mut local: SocketAddr) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(SHUTDOWN_POLL);
    }
    // Notified under the lock the runner checks the flag under, so the
    // wake-up cannot fall between its check and its wait.
    {
        let _hunts = lock(&shared.hunts);
        shared.queued.notify_all();
    }
    if local.ip().is_unspecified() {
        local.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect(local) {
        eprintln!("ccfuzzd: waking the accept loop at {local}: {e}");
    }
}

/// The runner thread: executes queued hunts in submission order, one at a
/// time, until shutdown. Idle, it waits for `submit_hunt` or the shutdown
/// watcher to signal `queued`.
fn runner_loop(shared: &DaemonShared<'_>) {
    loop {
        let mut hunts = lock(&shared.hunts);
        let idx = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match hunts
                .iter()
                .position(|h| h.status.state == HuntState::Queued)
            {
                Some(idx) => break idx,
                None => hunts = shared.queued.wait(hunts).unwrap_or_else(|e| e.into_inner()),
            }
        };
        drop(hunts);
        run_one_hunt(shared, idx);
    }
}

/// Runs hunt `idx` end to end and records its terminal state.
fn run_one_hunt(shared: &DaemonShared<'_>, idx: usize) {
    let (id, spec) = {
        let mut hunts = lock(&shared.hunts);
        hunts[idx].status.state = HuntState::Running;
        (hunts[idx].status.id.clone(), hunts[idx].spec.clone())
    };
    eprintln!("ccfuzzd: {id}: starting ({} workers)", spec.workers.max(1));
    let hunt_dir = shared.root.join("hunts").join(&id);
    let result = execute_hunt(shared, idx, &id, &hunt_dir, &spec);
    let mut hunts = lock(&shared.hunts);
    let entry = &mut hunts[idx];
    match result {
        Ok((state, payload)) => {
            entry.status.state = state;
            entry.payload = payload;
        }
        Err(e) => {
            eprintln!("ccfuzzd: {id}: failed: {e}");
            entry.status.state = HuntState::Failed;
            entry.status.error = Some(e);
        }
    }
}

/// The body of one hunt: per-hunt corpus + telemetry sink, the distributed
/// run itself, and on completion the merge into the daemon's shared corpus.
fn execute_hunt(
    shared: &DaemonShared<'_>,
    idx: usize,
    id: &str,
    hunt_dir: &Path,
    spec: &HuntSpec,
) -> Result<(HuntState, Option<String>), String> {
    std::fs::create_dir_all(hunt_dir)
        .map_err(|e| format!("creating {}: {e}", hunt_dir.display()))?;
    let corpus = Corpus::open(hunt_dir.join("corpus")).map_err(|e| e.to_string())?;
    let sink = std::fs::File::create(hunt_dir.join("telemetry.jsonl"))
        .map_err(|e| format!("creating telemetry stream: {e}"))?;
    let telemetry = HuntTelemetry::new().with_sink(Box::new(sink));
    let n_workers = shard_ranges(spec.config.ga.islands, spec.workers.max(1)).len();
    let fleet_t = FleetTelemetry::new(n_workers);
    let progress = |p: DistProgress| {
        let mut hunts = lock(&shared.hunts);
        let status = &mut hunts[idx].status;
        if let Some(pids) = p.worker_pids {
            status.worker_pids = pids;
        } else {
            status.generation = p.generation;
            status.evaluations = p.evaluations;
            if p.best_score.is_some() {
                status.best_score = p.best_score;
            }
        }
        status.restarts = p.restarts;
        status.workers = fleet_t.snapshot();
    };
    let worker_dir = hunt_dir.join("workers");
    let dist = DistOptions {
        workers: spec.workers.max(1),
        exe: &shared.exe,
        worker_dir: &worker_dir,
        fleet: Some(&fleet_t),
        on_progress: Some(&progress),
    };
    let ctl = HuntControl {
        shutdown: Some(shared.shutdown),
        checkpoint_path: Some(hunt_dir.join("checkpoint.json")),
        checkpoint_every: spec.checkpoint_every,
        panic_budget: spec.panic_budget,
        resume: None,
    };
    match hunt_distributed(&corpus, &spec.config, Some(&telemetry), ctl, &dist) {
        Ok(HuntOutcome::Completed { finding, decision }) => {
            let json = serde_json::to_string(&*finding).map_err(|e| e.to_string())?;
            // The exact bytes `ccfuzz hunt` prints: JSON line + newline.
            let payload = format!("{json}\n");
            match Corpus::open(shared.root.join("corpus"))
                .and_then(|shared_corpus| shared_corpus.merge(&corpus))
            {
                Ok(report) => eprintln!(
                    "ccfuzzd: {id}: completed ({decision:?}); merged into shared corpus: \
                     {} added, {} replaced, {} duplicates",
                    report.added, report.replaced, report.duplicates
                ),
                Err(e) => eprintln!("ccfuzzd: {id}: corpus merge failed: {e}"),
            }
            Ok((HuntState::Completed, Some(payload)))
        }
        Ok(HuntOutcome::Interrupted {
            next_generation, ..
        }) => {
            eprintln!("ccfuzzd: {id}: interrupted before generation {next_generation}");
            Ok((HuntState::Interrupted, None))
        }
        Ok(HuntOutcome::PanicBudgetExhausted { panics, .. }) => {
            eprintln!("ccfuzzd: {id}: panic budget exhausted after {panics} panics");
            Ok((HuntState::PanicBudgetExhausted, None))
        }
        Err(e) => Err(e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// Serves one connection: parse, route, respond. All failures are reported
/// to the client and/or stderr; none abort the daemon.
fn handle_connection(shared: &DaemonShared<'_>, mut stream: TcpStream) {
    stream.set_write_timeout(Some(REQUEST_DEADLINE)).ok();
    stream.set_nodelay(true).ok();
    match read_request(&mut Deadline::after(&stream, REQUEST_DEADLINE)) {
        Ok((method, path, body)) => {
            let (code, content_type, reply) = route(shared, &method, &path, &body);
            respond(&mut stream, code, content_type, &reply);
        }
        Err(e) => respond(
            &mut stream,
            400,
            "text/plain",
            &format!("bad request: {e}\n"),
        ),
    }
}

/// A socket whose reads share one deadline: each read waits at most for the
/// time left, so a client trickling bytes is cut off when it runs out
/// rather than after one timeout per byte.
struct Deadline<'s> {
    stream: &'s TcpStream,
    at: Instant,
}

impl<'s> Deadline<'s> {
    fn after(stream: &'s TcpStream, budget: Duration) -> Self {
        Deadline {
            stream,
            at: Instant::now() + budget,
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(buf) {
                // A timed-out read reports `WouldBlock` on Unix.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                read => return read,
            }
        }
        Err(std::io::Error::new(
            ErrorKind::TimedOut,
            "request deadline passed",
        ))
    }
}

/// Reads one HTTP/1.1 request as `(method, path, body)`: head until the
/// blank line, then `Content-Length` bytes of body. Both are capped at
/// 64 KiB; anything malformed is an `Err` naming the problem.
pub fn read_request<R: Read>(r: &mut R) -> Result<(String, String, String), String> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err("request head too large".into());
        }
        let n = r
            .read(&mut chunk)
            .map_err(|e| format!("reading request: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-request".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "request head is not UTF-8".to_string())?
        .to_string();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| "request line lacks a path".to_string())?
        .to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "unparseable content-length".to_string())?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err("request body too large".into());
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = r
            .read(&mut chunk)
            .map_err(|e| format!("reading request body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
        .map_err(|_| "request body is not UTF-8".to_string())?;
    Ok((method, path, body))
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Routes one request to its handler.
fn route(
    shared: &DaemonShared<'_>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, &'static str, String) {
    match (method, path) {
        ("POST", "/hunts") => submit_hunt(shared, body),
        ("GET", "/hunts") => {
            let statuses: Vec<HuntStatus> = lock(&shared.hunts)
                .iter()
                .map(|h| h.status.clone())
                .collect();
            json_ok(&statuses)
        }
        ("GET", p) if p.starts_with("/hunts/") => {
            let rest = &p["/hunts/".len()..];
            match rest.split_once('/') {
                None => hunt_status(shared, rest),
                Some((id, "stream")) => hunt_stream(shared, id),
                Some((id, "findings")) => hunt_findings(shared, id),
                Some(_) => not_found("no such endpoint"),
            }
        }
        _ => not_found("no such endpoint"),
    }
}

fn json_ok<T: Serialize>(value: &T) -> (u16, &'static str, String) {
    match serde_json::to_string(value) {
        Ok(mut s) => {
            s.push('\n');
            (200, "application/json", s)
        }
        Err(e) => (500, "text/plain", format!("encoding response: {e}\n")),
    }
}

fn not_found(message: &str) -> (u16, &'static str, String) {
    (404, "text/plain", format!("{message}\n"))
}

/// `POST /hunts`: queue a hunt, reply with its id.
fn submit_hunt(shared: &DaemonShared<'_>, body: &str) -> (u16, &'static str, String) {
    let spec: HuntSpec = match serde_json::from_str(body) {
        Ok(spec) => spec,
        Err(e) => return (400, "text/plain", format!("invalid hunt spec: {e}\n")),
    };
    // The runner builds the campaign from these parameters, and building
    // asserts them: a spec that fails here would panic the runner thread.
    if let Err(e) = spec.config.ga.validate() {
        return (400, "text/plain", format!("invalid hunt spec: {e}\n"));
    }
    let mut hunts = lock(&shared.hunts);
    let id = format!("hunt-{:04}", hunts.len() + 1);
    hunts.push(HuntEntry {
        spec,
        status: HuntStatus {
            id: id.clone(),
            state: HuntState::Queued,
            generation: 0,
            evaluations: 0,
            best_score: None,
            restarts: 0,
            worker_pids: Vec::new(),
            workers: Vec::new(),
            error: None,
        },
        payload: None,
    });
    shared.queued.notify_one();
    let reply = Value::Map(vec![("id".to_string(), Value::Str(id))]);
    json_ok(&reply)
}

/// `GET /hunts/{id}`: one hunt's status.
fn hunt_status(shared: &DaemonShared<'_>, id: &str) -> (u16, &'static str, String) {
    let hunts = lock(&shared.hunts);
    match hunts.iter().find(|h| h.status.id == id) {
        Some(entry) => json_ok(&entry.status),
        None => not_found(&format!("unknown hunt `{id}`")),
    }
}

/// `GET /hunts/{id}/stream`: the hunt's per-generation telemetry JSONL, as
/// written by the campaign so far.
fn hunt_stream(shared: &DaemonShared<'_>, id: &str) -> (u16, &'static str, String) {
    if !lock(&shared.hunts).iter().any(|h| h.status.id == id) {
        return not_found(&format!("unknown hunt `{id}`"));
    }
    let path = shared.root.join("hunts").join(id).join("telemetry.jsonl");
    // Missing file just means no generation finished yet.
    let stream = std::fs::read_to_string(path).unwrap_or_default();
    (200, "application/x-ndjson", stream)
}

/// `GET /hunts/{id}/findings`: the completed hunt's finding payload —
/// byte-identical to what `ccfuzz hunt` prints.
fn hunt_findings(shared: &DaemonShared<'_>, id: &str) -> (u16, &'static str, String) {
    let hunts = lock(&shared.hunts);
    match hunts.iter().find(|h| h.status.id == id) {
        Some(entry) => match &entry.payload {
            Some(payload) => (200, "application/json", payload.clone()),
            None => not_found(&format!("hunt `{id}` has no findings (yet)")),
        },
        None => not_found(&format!("unknown hunt `{id}`")),
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Client helpers (used by the `ccfuzz` submit/status/fetch subcommands)
// ---------------------------------------------------------------------------

/// Performs one blocking HTTP/1.1 request against a daemon and returns the
/// status code and response body.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading response: {e}"))?;
    let (head, resp_body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed status line `{status_line}`"))?;
    Ok((code, resp_body.to_string()))
}

/// Resolves a `--daemon` argument: a bare `host:port` is used directly;
/// anything that names a directory (or contains a path separator) is
/// treated as a daemon root whose `daemon.addr` file holds the address.
pub fn resolve_daemon_addr(value: &str) -> Result<String, String> {
    let path = Path::new(value);
    if path.is_dir() || value.contains('/') {
        let addr_file = path.join("daemon.addr");
        let addr = std::fs::read_to_string(&addr_file).map_err(|e| {
            format!(
                "reading {} (is the daemon running?): {e}",
                addr_file.display()
            )
        })?;
        Ok(addr.trim().to_string())
    } else {
        Ok(value.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_cca::CcaKind;
    use ccfuzz_core::campaign::FuzzMode;
    use std::io::Cursor;

    #[test]
    fn http_requests_parse_with_and_without_bodies() {
        let raw = b"POST /hunts HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let (method, path, body) = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(method, "POST");
        assert_eq!(path, "/hunts");
        assert_eq!(body, "hello world");

        let raw = b"GET /hunts/hunt-0001/findings HTTP/1.1\r\n\r\n";
        let (method, path, body) = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(method, "GET");
        assert_eq!(path, "/hunts/hunt-0001/findings");
        assert!(body.is_empty());

        // A request cut before the blank line is an error, not a hang.
        assert!(read_request(&mut Cursor::new(&b"GET /"[..])).is_err());
    }

    #[test]
    fn a_trickling_client_is_refused_at_the_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One byte every 50 ms, never finishing the head: each read returns
        // well inside any per-read timeout.
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..100 {
                if stream.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let budget = Duration::from_millis(400);
        let started = Instant::now();
        let err = read_request(&mut Deadline::after(&stream, budget)).unwrap_err();
        let took = started.elapsed();
        assert!(
            err.contains("deadline") || err.contains("timed out"),
            "{err}"
        );
        assert!(took >= budget, "refused after {took:?}");
        assert!(took < budget * 5, "refused only after {took:?}");
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn hunt_specs_roundtrip_as_json() {
        let spec = HuntSpec {
            config: HuntConfig::quick(CcaKind::Bbr, FuzzMode::Topology, 4, 33),
            workers: 2,
            checkpoint_every: 1,
            panic_budget: Some(3),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: HuntSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn daemon_addrs_resolve_from_roots_and_literals() {
        assert_eq!(
            resolve_daemon_addr("127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        let dir = std::env::temp_dir().join(format!("ccfuzzd-addr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("daemon.addr"), "127.0.0.1:9999\n").unwrap();
        assert_eq!(
            resolve_daemon_addr(dir.to_str().unwrap()).unwrap(),
            "127.0.0.1:9999"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
