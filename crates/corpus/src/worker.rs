//! The worker-process side of a distributed hunt.
//!
//! A worker is a `ccfuzzd worker --connect ADDR --worker K` process. It
//! connects to the per-hunt coordinator socket, receives its
//! [`Assign`]ment and builds its island range from the campaign seed, or
//! restores it from its checkpoint (island initialisation is a pure
//! per-island fork, so the range is byte-identical to the whole build's);
//! every other island stays empty, because nothing it does reads them. It
//! then reacts — strictly message-driven — to the coordinator's frames:
//! evaluate its island range, evolve past a boundary, exchange migrants
//! through the coordinator, persist a [`WorkerCheckpoint`] on cadence and
//! finally ship its snapshot back. Both the checkpoint and the final
//! snapshot are the worker's slice: its own islands in full and `[]` for
//! every other one; the final one moves the islands, it does not clone them.
//!
//! Checkpoints are kept two-deep per worker: the round in flight plus the
//! previously committed one, because the coordinator only commits a
//! boundary once *every* worker acknowledged it. A respawned worker is
//! therefore always told a generation for which its checkpoint file exists.

use crate::checkpoint::hunt_config_digest;
use crate::hunt::HuntConfig;
use crate::proto::Hello;
use crate::proto::{
    decode, recv_frame, send_frame, Assign, CheckpointDone, Evaluate, Fatal, Finish, Proceed,
    ASSIGN, CHECKPOINT_DONE, EVALUATE, FATAL, FINAL, FINISH, HELLO, INBOUND, MIGRANTS, PROCEED,
    REPORT,
};
use ccfuzz_core::checkpoint::SnapshotPayload;
use ccfuzz_core::mode::{dispatch, ModeGenome, ModeVisitor};
use ccfuzz_core::shard::{shard_ranges, MigrantBatch};
use ccfuzz_obs::{write_atomic, HuntTelemetry};
use serde::{Deserialize, Serialize};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

/// Worker-checkpoint file schema version.
pub const WORKER_CHECKPOINT_SCHEMA: u32 = 1;

/// One worker's resumable state at a committed generation boundary. The
/// embedded snapshot holds the worker's own island range in full and every
/// other island empty ([`SnapshotPayload::validate_slice`]); its
/// cross-island fields are the worker's view, which nothing resumes from
/// (the coordinator owns all cross-island state and keeps its own
/// committed copy).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerCheckpoint {
    /// File schema version ([`WORKER_CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// The worker index that wrote this checkpoint.
    pub worker: usize,
    /// Fleet size the campaign was sharded for.
    pub n_workers: usize,
    /// FNV-1a digest of the hunt config, verified on resume so a worker
    /// never restores state from a different campaign.
    pub config_digest: u64,
    /// The generation boundary this state captures.
    pub generation: u32,
    /// The mode-erased fuzzer state.
    pub state: SnapshotPayload,
}

impl WorkerCheckpoint {
    /// The file name a worker's checkpoint for a boundary persists under.
    pub fn file_name(worker: usize, generation: u32) -> String {
        format!("worker-{worker:02}-gen-{generation:06}.json")
    }

    /// Atomically writes the checkpoint into `dir` (created if needed) and
    /// prunes this worker's older checkpoints down to the last two
    /// boundaries.
    pub fn write_into(&self, dir: &Path) -> Result<u64, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating checkpoint dir {}: {e}", dir.display()))?;
        // Compact: only `load` ever reads this file, and it is pruned two
        // boundaries later.
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        let path = dir.join(Self::file_name(self.worker, self.generation));
        let bytes = write_atomic(&path, (json + "\n").as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        prune_checkpoints(dir, self.worker, self.generation);
        Ok(bytes)
    }

    /// Loads a worker checkpoint and verifies schema, identity, digest and
    /// slice shape: the islands `worker` owns under
    /// [`shard_ranges`]`(islands, n_workers)` full and valid, every other
    /// island empty.
    pub fn load(
        path: &Path,
        worker: usize,
        n_workers: usize,
        config: &HuntConfig,
        generation: u32,
    ) -> Result<WorkerCheckpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading worker checkpoint {}: {e}", path.display()))?;
        let ck: WorkerCheckpoint = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        if ck.schema != WORKER_CHECKPOINT_SCHEMA {
            return Err(format!(
                "worker checkpoint schema {} is not the supported {WORKER_CHECKPOINT_SCHEMA}",
                ck.schema
            ));
        }
        if ck.worker != worker || ck.n_workers != n_workers {
            return Err(format!(
                "worker checkpoint belongs to worker {}/{} but this worker is {worker}/{n_workers}",
                ck.worker, ck.n_workers
            ));
        }
        if ck.config_digest != hunt_config_digest(config) {
            return Err("worker checkpoint was written for a different hunt configuration".into());
        }
        if ck.generation != generation {
            return Err(format!(
                "worker checkpoint captures generation {} but the coordinator committed {generation}",
                ck.generation
            ));
        }
        let (start, end) = owned_range(config, worker, n_workers)?;
        ck.state.validate_slice(start, end)?;
        Ok(ck)
    }
}

/// The islands worker `worker` of `n_workers` owns.
fn owned_range(
    config: &HuntConfig,
    worker: usize,
    n_workers: usize,
) -> Result<(usize, usize), String> {
    (config.ga.islands > 0 && n_workers > 0)
        .then(|| shard_ranges(config.ga.islands, n_workers))
        .and_then(|ranges| ranges.get(worker).copied())
        .ok_or_else(|| {
            format!(
                "worker {worker}/{n_workers} owns no islands of {}",
                config.ga.islands
            )
        })
}

/// Deletes this worker's checkpoint files older than the previous boundary,
/// keeping the newest two. Best-effort: pruning failures never fail a
/// checkpoint round.
fn prune_checkpoints(dir: &Path, worker: usize, newest: u32) {
    let prefix = format!("worker-{worker:02}-gen-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut generations: Vec<(u32, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let gen: u32 = name
                .strip_prefix(&prefix)?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            (gen <= newest).then(|| (gen, entry.path()))
        })
        .collect();
    generations.sort_by_key(|(gen, _)| *gen);
    if generations.len() > 2 {
        for (_, path) in &generations[..generations.len() - 2] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs one worker process to completion: connect, handshake, serve the
/// coordinator until `finish`. On error, a best-effort `fatal` frame is
/// sent before returning so the coordinator can log the cause.
pub fn run_worker(addr: &str, worker: usize) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connecting to coordinator {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let result = serve_coordinator(&mut stream, worker);
    if let Err(message) = &result {
        let _ = send_frame(
            &mut stream,
            FATAL,
            &Fatal {
                message: message.clone(),
            },
        );
    }
    result
}

fn serve_coordinator(stream: &mut TcpStream, worker: usize) -> Result<(), String> {
    send_frame(stream, HELLO, &Hello { worker }).map_err(|e| format!("handshake: {e}"))?;
    let (kind, body) = recv_frame(stream).map_err(|e| format!("awaiting assignment: {e}"))?;
    if kind != ASSIGN {
        return Err(format!("expected `{ASSIGN}` frame, got `{kind}`"));
    }
    let assign: Assign = decode(&kind, &body)?;
    if assign.worker != worker {
        return Err(format!(
            "assigned as worker {} but spawned as {worker}",
            assign.worker
        ));
    }
    dispatch(assign.config.mode, ShardJob { stream, assign })
}

/// Everything a worker does after its assignment: restore or build the
/// shard's fuzzer, then react to the coordinator's frames until `finish`.
struct ShardJob<'a> {
    stream: &'a mut TcpStream,
    assign: Assign,
}

impl ModeVisitor for ShardJob<'_> {
    type Out = Result<(), String>;

    fn visit<G: ModeGenome>(self) -> Self::Out {
        let ShardJob { stream, assign } = self;
        let campaign = assign.config.campaign();
        let telemetry = HuntTelemetry::new();
        let evaluator = campaign.evaluator();
        let (start, end) = (assign.island_start, assign.island_end);
        let owned = owned_range(&assign.config, assign.worker, assign.n_workers)?;
        if owned != (start, end) {
            return Err(format!(
                "assigned islands {start}..{end}, but worker {} of {} owns {}..{}",
                assign.worker, assign.n_workers, owned.0, owned.1
            ));
        }
        // The committed worker checkpoint named by the assignment, if any;
        // `load` checked it holds exactly the slice `start..end`.
        let resume = match assign.resume_generation {
            Some(generation) => {
                let path = Path::new(&assign.checkpoint_dir)
                    .join(WorkerCheckpoint::file_name(assign.worker, generation));
                let ck = WorkerCheckpoint::load(
                    &path,
                    assign.worker,
                    assign.n_workers,
                    &assign.config,
                    generation,
                )?;
                Some(G::unwrap_snapshot(ck.state)?)
            }
            None => None,
        };
        let obs = Some(&telemetry);
        let mut fuzzer = campaign.build_fuzzer::<G>(&evaluator, resume, obs, start, end)?;

        let dir = PathBuf::from(&assign.checkpoint_dir);
        loop {
            let (kind, body) = recv_frame(stream).map_err(|e| format!("coordinator link: {e}"))?;
            match kind.as_str() {
                EVALUATE => {
                    let msg: Evaluate = decode(&kind, &body)?;
                    if msg.generation != fuzzer.next_generation() {
                        return Err(format!(
                            "asked to evaluate generation {} but the local boundary is {}",
                            msg.generation,
                            fuzzer.next_generation()
                        ));
                    }
                    let report = fuzzer.shard_evaluate(start, end);
                    send_frame(stream, REPORT, &report)
                        .map_err(|e| format!("sending report: {e}"))?;
                }
                PROCEED => {
                    let msg: Proceed = decode(&kind, &body)?;
                    fuzzer.shard_evolve(start, end);
                    if msg.migrate {
                        let outbound = fuzzer.shard_collect_migrants(start, end);
                        send_frame(stream, MIGRANTS, &outbound)
                            .map_err(|e| format!("sending migrants: {e}"))?;
                        let (kind, body) =
                            recv_frame(stream).map_err(|e| format!("awaiting migrants: {e}"))?;
                        if kind != INBOUND {
                            return Err(format!("expected `{INBOUND}` frame, got `{kind}`"));
                        }
                        let inbound: Vec<MigrantBatch<G>> = decode(&kind, &body)?;
                        fuzzer.shard_apply_migrants(inbound)?;
                    }
                    let boundary = msg.generation + 1;
                    fuzzer.set_next_generation(boundary);
                    if msg.checkpoint {
                        WorkerCheckpoint {
                            schema: WORKER_CHECKPOINT_SCHEMA,
                            worker: assign.worker,
                            n_workers: assign.n_workers,
                            config_digest: hunt_config_digest(&assign.config),
                            generation: boundary,
                            state: G::wrap_snapshot(fuzzer.snapshot()),
                        }
                        .write_into(&dir)?;
                        send_frame(
                            stream,
                            CHECKPOINT_DONE,
                            &CheckpointDone {
                                generation: boundary,
                            },
                        )
                        .map_err(|e| format!("acknowledging checkpoint: {e}"))?;
                    }
                }
                FINISH => {
                    let msg: Finish = decode(&kind, &body)?;
                    fuzzer.set_next_generation(msg.next_generation);
                    // The worker is done: its islands move into the frame.
                    send_frame(stream, FINAL, &G::wrap_snapshot(fuzzer.take_snapshot()))
                        .map_err(|e| format!("sending final snapshot: {e}"))?;
                    return Ok(());
                }
                other => return Err(format!("unexpected `{other}` frame from coordinator")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_cca::CcaKind;
    use ccfuzz_core::campaign::FuzzMode;
    use ccfuzz_core::fuzzer::FuzzerSnapshot;
    use ccfuzz_core::genome::TrafficGenome;
    use ccfuzz_core::shard::LoopControl;
    use ccfuzz_netsim::time::SimTime;
    use std::net::TcpListener;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccfuzz-worker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config() -> HuntConfig {
        let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Traffic, 3, 5);
        config.ga.islands = 2;
        config.ga.population_per_island = 3;
        config.ga.threads = 2;
        config.duration = ccfuzz_netsim::time::SimDuration::from_secs(1);
        config
    }

    /// Worker 1 of 2's slice of a finished tiny campaign: island 1 in full,
    /// island 0 empty.
    fn slice_for(config: &HuntConfig) -> FuzzerSnapshot<TrafficGenome> {
        let mut snapshot = config
            .campaign()
            .run_controlled(None, &LoopControl::default(), None)
            .unwrap()
            .final_snapshot;
        snapshot.islands[0].clear();
        snapshot
    }

    /// What a worker process ships back when `assign` is finished at once:
    /// the islands it holds. `run_worker` is driven over a real socket.
    fn held_islands(assign: Assign, finish_at: u32) -> FuzzerSnapshot<TrafficGenome> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = assign.worker;
        let process = std::thread::spawn(move || run_worker(&addr, worker));
        let (mut stream, _) = listener.accept().unwrap();
        assert_eq!(recv_frame(&mut stream).unwrap().0, HELLO);
        send_frame(&mut stream, ASSIGN, &assign).unwrap();
        let finish = Finish {
            next_generation: finish_at,
        };
        send_frame(&mut stream, FINISH, &finish).unwrap();
        let (kind, body) = recv_frame(&mut stream).unwrap();
        assert_eq!(kind, FINAL);
        process.join().unwrap().unwrap();
        let payload: SnapshotPayload = decode(&kind, &body).unwrap();
        TrafficGenome::unwrap_snapshot(payload).unwrap()
    }

    /// Every worker of every fleet size holds exactly the whole build's
    /// islands in its range and `[]` elsewhere, both fresh and restored from
    /// a worker checkpoint; the fresh slices assemble into the whole build,
    /// and an owned island shipped short or empty is refused.
    #[test]
    fn a_worker_holds_exactly_its_slice_fresh_and_restored() {
        let mut config = tiny_config();
        config.ga.islands = 20;
        config.ga.population_per_island = 2;
        config.ga.generations = 2;
        let campaign = config.campaign();
        let evaluator = campaign.evaluator();
        let whole = campaign
            .build_fuzzer::<TrafficGenome>(&evaluator, None, None, 0, 20)
            .unwrap();
        let later = campaign
            .run_controlled::<TrafficGenome>(None, &LoopControl::default(), None)
            .unwrap()
            .final_snapshot;
        let dir = temp_dir("slices");
        let slice_of = |of: &FuzzerSnapshot<TrafficGenome>, (start, end): (usize, usize)| {
            let mut slice = of.clone();
            for (island, pop) in slice.islands.iter_mut().enumerate() {
                if !(start..end).contains(&island) {
                    pop.clear();
                }
            }
            slice
        };
        for n_workers in 1..=3 {
            let mut finals = Vec::new();
            for (worker, &range) in shard_ranges(20, n_workers).iter().enumerate() {
                let assign = Assign {
                    config: config.clone(),
                    worker,
                    n_workers,
                    island_start: range.0,
                    island_end: range.1,
                    checkpoint_every: 0,
                    checkpoint_dir: dir.display().to_string(),
                    resume_generation: None,
                };
                let fresh = held_islands(assign.clone(), 0);
                assert_eq!(fresh, slice_of(&whole.snapshot(), range), "{range:?}");
                finals.push((range.0, range.1, fresh));

                let generation = later.next_generation;
                WorkerCheckpoint {
                    schema: WORKER_CHECKPOINT_SCHEMA,
                    worker,
                    n_workers,
                    config_digest: hunt_config_digest(&config),
                    generation,
                    state: TrafficGenome::wrap_snapshot(slice_of(&later, range)),
                }
                .write_into(&dir)
                .unwrap();
                let resumed = Assign {
                    resume_generation: Some(generation),
                    ..assign
                };
                let restored = held_islands(resumed, generation);
                assert_eq!(restored, slice_of(&later, range), "{range:?}");
            }
            let coordinator = whole.coordinator();
            assert_eq!(
                coordinator.assemble_snapshot(&finals).unwrap(),
                whole.snapshot()
            );
            // An owned island one individual short, or shipped empty, is
            // refused.
            let mut short = finals.clone();
            short.last_mut().unwrap().2.islands[19].pop();
            let err = coordinator.assemble(short).unwrap_err();
            assert!(err.contains("island 19"), "{err}");
            let mut empty = finals;
            empty[0].2.islands[0].clear();
            let err = coordinator.assemble(empty).unwrap_err();
            assert!(err.contains("island 0"), "{err}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn worker_checkpoints_roundtrip_verify_and_prune() {
        let dir = temp_dir("roundtrip");
        let config = tiny_config();
        let slice = slice_for(&config);
        let state = TrafficGenome::wrap_snapshot(slice.clone());
        let digest = hunt_config_digest(&config);
        let checkpoint = |generation: u32, state: SnapshotPayload| WorkerCheckpoint {
            schema: WORKER_CHECKPOINT_SCHEMA,
            worker: 1,
            n_workers: 2,
            config_digest: digest,
            generation,
            state,
        };
        for generation in 1..=4u32 {
            checkpoint(generation, state.clone())
                .write_into(&dir)
                .unwrap();
        }
        // Only the newest two boundaries survive pruning.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                WorkerCheckpoint::file_name(1, 3),
                WorkerCheckpoint::file_name(1, 4)
            ]
        );

        let path = dir.join(WorkerCheckpoint::file_name(1, 4));
        let ck = WorkerCheckpoint::load(&path, 1, 2, &config, 4).unwrap();
        assert_eq!(ck.generation, 4);
        assert_eq!(ck.state, state);

        // Identity and config mismatches are refused.
        assert!(WorkerCheckpoint::load(&path, 0, 2, &config, 4).is_err());
        assert!(WorkerCheckpoint::load(&path, 1, 3, &config, 4).is_err());
        assert!(WorkerCheckpoint::load(&path, 1, 2, &config, 3).is_err());
        let mut other = config.clone();
        other.ga.seed += 1;
        let err = WorkerCheckpoint::load(&path, 1, 2, &other, 4).unwrap_err();
        assert!(err.contains("different hunt configuration"), "{err}");

        // So is any other slice shape: a foreign island holding genomes, an
        // owned island one individual short, an owned invalid genome.
        let mut foreign = slice.clone();
        foreign.islands[0] = foreign.islands[1].clone();
        let mut short = slice.clone();
        short.islands[1].pop();
        let mut invalid = slice;
        let genome = &mut invalid.islands[1][0].genome;
        genome.max_packets = genome.timestamps.len();
        genome.timestamps.push(SimTime::ZERO);
        for (what, bad) in [
            ("outside the slice", foreign),
            ("individuals but params say", short),
            ("invalid genome", invalid),
        ] {
            checkpoint(5, TrafficGenome::wrap_snapshot(bad))
                .write_into(&dir)
                .unwrap();
            let path = dir.join(WorkerCheckpoint::file_name(1, 5));
            let err = WorkerCheckpoint::load(&path, 1, 2, &config, 5).unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_worker_refuses_inbound_migrants_bound_for_the_other_worker() {
        let mut config = tiny_config();
        config.ga.migration_interval = 1;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = std::thread::spawn(move || run_worker(&addr, 0));
        let (mut stream, _) = listener.accept().unwrap();
        // A worker that installed the batch would wait for the next frame:
        // fail then instead of hanging.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let (kind, _) = recv_frame(&mut stream).unwrap();
        assert_eq!(kind, HELLO);
        let assign = Assign {
            config,
            worker: 0,
            n_workers: 2,
            island_start: 0,
            island_end: 1,
            checkpoint_every: 0,
            checkpoint_dir: temp_dir("misrouted").display().to_string(),
            resume_generation: None,
        };
        send_frame(&mut stream, ASSIGN, &assign).unwrap();
        send_frame(&mut stream, EVALUATE, &Evaluate { generation: 0 }).unwrap();
        assert_eq!(recv_frame(&mut stream).unwrap().0, REPORT);
        let proceed = Proceed {
            generation: 0,
            migrate: true,
            checkpoint: false,
        };
        send_frame(&mut stream, PROCEED, &proceed).unwrap();
        let (kind, body) = recv_frame(&mut stream).unwrap();
        assert_eq!(kind, MIGRANTS);
        // Worker 0's own batch leaves island 0 for island 1, which worker 1
        // owns: routed back to worker 0, it must be refused, not installed
        // into (or indexed out of) the island worker 0 emptied.
        let outbound: Vec<MigrantBatch<TrafficGenome>> = decode(&kind, &body).unwrap();
        send_frame(&mut stream, INBOUND, &outbound).unwrap();
        let (kind, body) = recv_frame(&mut stream).unwrap();
        assert_eq!(kind, FATAL);
        let fatal: Fatal = decode(&kind, &body).unwrap();
        assert!(fatal.message.contains("island 1"), "{}", fatal.message);
        let err = worker.join().expect("the worker returns, not panics");
        assert_eq!(err, Err(fatal.message));
    }
}
