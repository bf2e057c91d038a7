//! The worker-process side of a distributed hunt.
//!
//! A worker is a `ccfuzzd worker --connect ADDR --worker K` process. It
//! connects to the per-hunt coordinator socket, receives its
//! [`Assign`]ment, builds the *full* fuzzer from the campaign seed (island
//! initialisation is a pure per-island fork, so construction is cheap and
//! byte-identical across the fleet) and then reacts — strictly
//! message-driven — to the coordinator's frames: evaluate its island
//! range, evolve past a boundary, exchange migrants through the
//! coordinator, persist a [`WorkerCheckpoint`] on cadence and finally ship
//! its snapshot back.
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
use ccfuzz_core::shard::MigrantBatch;
use ccfuzz_obs::{write_atomic, HuntTelemetry};
use serde::{Deserialize, Serialize};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

/// Worker-checkpoint file schema version.
pub const WORKER_CHECKPOINT_SCHEMA: u32 = 1;

/// One worker's resumable state at a committed generation boundary. Only
/// the worker's own island range is authoritative; the rest of the
/// embedded snapshot is the stale view the worker stopped advancing (the
/// coordinator owns all cross-island state and keeps its own committed
/// copy).
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

    /// Loads a worker checkpoint and verifies schema, identity and digest.
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
        ck.state.validate()?;
        Ok(ck)
    }
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
        // The committed worker checkpoint named by the assignment, if any.
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
        let mut fuzzer = campaign.build_fuzzer::<G>(&evaluator, resume, Some(&telemetry))?;

        let (start, end) = (assign.island_start, assign.island_end);
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
                    send_frame(stream, FINAL, &G::wrap_snapshot(fuzzer.snapshot()))
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
    use ccfuzz_core::genome::TrafficGenome;
    use ccfuzz_core::shard::LoopControl;

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

    fn snapshot_for(config: &HuntConfig) -> SnapshotPayload {
        let run = config
            .campaign()
            .run_controlled(None, &LoopControl::default(), None)
            .unwrap();
        TrafficGenome::wrap_snapshot(run.final_snapshot)
    }

    #[test]
    fn worker_checkpoints_roundtrip_verify_and_prune() {
        let dir = temp_dir("roundtrip");
        let config = tiny_config();
        let state = snapshot_for(&config);
        let digest = hunt_config_digest(&config);
        for generation in 1..=4u32 {
            WorkerCheckpoint {
                schema: WORKER_CHECKPOINT_SCHEMA,
                worker: 1,
                n_workers: 2,
                config_digest: digest,
                generation,
                state: state.clone(),
            }
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
        let _ = std::fs::remove_dir_all(dir);
    }
}
