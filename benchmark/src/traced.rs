//! The traced run: the same campaign re-driven in-process through public
//! functions only, with a span around each call, followed by the per-layer
//! probes.
//!
//! In-process hunts are one fuzzer driven through the shard API (one shard
//! covering every island, `T` evaluation threads). The fleet workload is
//! re-driven as the daemon drives it minus processes and sockets: one fuzzer
//! per worker lane on its own thread, the real frames through in-memory
//! buffers, a worker checkpoint per lane per generation and the two-phase
//! commit on the coordinator. Every phase is a direct child of the root
//! `campaign` span on the main thread, so the phases' durations are the
//! ledger's slices; lane spans nest under their phase.

use crate::e2e::{copy_findings, Gates};
use crate::modes::ModeOps;
use crate::span::{durations_of, slices_under, Span, SpanId, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{Workload, FLEET_WORKERS, MINIMIZE_BUDGET};
use ccfuzz_core::checkpoint::SnapshotPayload;
use ccfuzz_core::evaluate::{EvalScratch, Evaluator, SimEvaluator};
use ccfuzz_core::fuzzer::{Fuzzer, FuzzerSnapshot};
use ccfuzz_core::scoring::ScoreScratch;
use ccfuzz_core::shard::{
    shard_ranges, GenerationOutcome, MigrantBatch, ShardCoordinator, ShardReport,
};
use ccfuzz_corpus::checkpoint::{hunt_config_digest, TelemetryCounters, CHECKPOINT_SCHEMA};
use ccfuzz_corpus::proto::{
    decode, recv_frame, send_frame, CheckpointDone, Evaluate, Finish, Proceed, CHECKPOINT_DONE,
    EVALUATE, FINAL, FINISH, INBOUND, MIGRANTS, PROCEED, REPORT,
};
use ccfuzz_corpus::worker::{WorkerCheckpoint, WORKER_CHECKPOINT_SCHEMA};
use ccfuzz_corpus::{
    minimize_finding, replay_corpus, CampaignCheckpoint, Corpus, Finding, HuntConfig,
    MinimizeConfig,
};
use ccfuzz_obs::{HuntTelemetry, Snapshot};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The phases whose time `fleet.unattributed_s` subtracts from the fleet's
/// wall: everything the in-process re-drive can attribute to a layer.
const ATTRIBUTED: [&str; 7] = [
    "ga.evaluate",
    "ga.evolve",
    "ga.migrate",
    "proto.encode",
    "proto.decode",
    "worker_ckpt.write",
    "checkpoint.write",
];

/// How much work the probes do.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSizes {
    /// Genomes of the final population the eval probe simulates.
    pub genomes: usize,
    /// Generations of the one-thread slice behind `ga.parallel_efficiency`.
    pub slice_generations: u32,
    /// Time cap of each repeated-write / repeated-encode probe.
    pub cap: Duration,
}

/// What the untraced reference session of this run produced.
pub struct Reference<'a> {
    /// The untraced hunt's stdout payload.
    pub payload: &'a [u8],
    /// Median untraced hunt wall.
    pub hunt_wall_s: f64,
    /// Wall of the checkpointing in-process control (fleet workload).
    pub control_wall_s: Option<f64>,
    /// Per-generation telemetry JSONL the untraced hunt streamed; its
    /// generation history gates the traced run's.
    pub telemetry: &'a Path,
    /// Fleet respawns of the untraced hunt.
    pub restarts: u64,
}

/// One reported per-layer metric.
pub struct LayerMetric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (1 for totals and counts).
    pub samples: usize,
}

/// Everything the traced run produced.
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<LayerMetric>,
    /// All spans (campaign and probes).
    pub spans: Vec<Span>,
    /// Total seconds per phase under the root `campaign` span.
    pub slices: Vec<(String, f64)>,
    /// Duration of the root `campaign` span.
    pub campaign_wall_s: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile of nanosecond samples, still in nanoseconds
/// (0 when there are no samples: a phase that never ran took no time).
fn percentile_ns(ns: &[u64], p: u32) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    percentile(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), p)
}

/// Runs `f` on every worker lane with that lane's input: inline for a
/// single lane, one scoped thread per lane otherwise (the lanes are separate
/// processes in a real fleet, so their work overlaps).
fn each_lane<'f, G, I, R>(
    lanes: &mut [Fuzzer<'f, G, SimEvaluator>],
    inputs: Vec<I>,
    f: impl Fn(&mut Fuzzer<'f, G, SimEvaluator>, I) -> R + Sync,
) -> Vec<R>
where
    G: ccfuzz_core::genome::Genome,
    SimEvaluator: Evaluator<G>,
    I: Send,
    R: Send,
{
    assert_eq!(lanes.len(), inputs.len(), "one input per lane");
    if let [only] = lanes {
        return inputs.into_iter().map(|input| f(only, input)).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(inputs)
            .map(|(fuzzer, input)| {
                let f = &f;
                scope.spawn(move || f(fuzzer, input))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker lane panicked"))
            .collect()
    })
}

fn encode<T: Serialize + ?Sized>(kind: &str, body: &T) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    send_frame(&mut buf, kind, body).map_err(|e| format!("encoding `{kind}`: {e}"))?;
    Ok(buf)
}

fn decode_frame<T: Deserialize>(bytes: &[u8], want: &str) -> Result<T, String> {
    let (kind, body) =
        recv_frame(&mut &bytes[..]).map_err(|e| format!("decoding `{want}`: {e}"))?;
    if kind != want {
        return Err(format!("expected `{want}` frame, got `{kind}`"));
    }
    decode(&kind, &body)
}

/// Ships `items` sender to receiver as `kind` frames when the campaign runs
/// as a fleet: all encoded under one `proto.encode` phase, all decoded under
/// one `proto.decode` phase. An in-process hunt has no wire.
fn through_wire<T: Serialize + Deserialize>(
    tr: &Tracer,
    root: SpanId,
    fleet: bool,
    kind: &str,
    items: Vec<T>,
) -> Result<Vec<T>, String> {
    if !fleet {
        return Ok(items);
    }
    let frames: Vec<Vec<u8>> = tr.span("proto.encode", Some(root), |_| {
        items
            .iter()
            .map(|item| encode(kind, item))
            .collect::<Result<_, _>>()
    })?;
    tr.span("proto.decode", Some(root), |_| {
        frames
            .iter()
            .map(|frame| decode_frame(frame, kind))
            .collect()
    })
}

/// A small control frame through the buffer and back, both sides' work.
fn control_frame<T: Serialize + Deserialize>(
    tr: &Tracer,
    root: SpanId,
    lanes: usize,
    kind: &str,
    body: &T,
) -> Result<(), String> {
    for _ in 0..lanes {
        let frame = tr.span("proto.encode", Some(root), |_| encode(kind, body))?;
        tr.span("proto.decode", Some(root), |_| {
            decode_frame::<T>(&frame, kind)
        })?;
    }
    Ok(())
}

/// One generation as the hunt's telemetry stream reports it.
#[derive(Debug, PartialEq)]
struct Observed {
    generation: u32,
    evaluations: u64,
    best_so_far: f64,
    mean_score: f64,
    island_best: Vec<f64>,
}

/// Reads the generations of a `--telemetry` JSONL stream.
fn read_telemetry(path: &Path) -> Result<Vec<Observed>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let snap: Snapshot = serde_json::from_str(line).map_err(|e| e.to_string())?;
            Ok(Observed {
                generation: snap.generation,
                evaluations: snap.evaluations,
                best_so_far: snap.best_score,
                mean_score: snap.mean_score,
                island_best: snap.island_best,
            })
        })
        .collect()
}

/// What the re-driven campaign produced.
struct CampaignOut<G> {
    root: SpanId,
    finding: Finding,
    payload: Vec<u8>,
    /// The generations in the telemetry stream's terms.
    observed: Vec<Observed>,
    /// Summed `ga.migrate` phases of each migration boundary.
    migrate_ns: Vec<u64>,
    final_snapshot: FuzzerSnapshot<G>,
    /// Evaluations of each generation, for the parallel-efficiency slice.
    eval_deltas: Vec<usize>,
    corpus_dir: PathBuf,
}

/// Re-drives the campaign of `config` under the root span `campaign`.
fn drive_campaign<M: ModeOps>(
    tr: &Tracer,
    config: &HuntConfig,
    fleet: bool,
    dir: &Path,
) -> Result<CampaignOut<M::G>, String>
where
    SimEvaluator: Evaluator<M::G>,
{
    let campaign = config.campaign();
    let evaluator = campaign.evaluator();
    let n_lanes = if fleet { FLEET_WORKERS } else { 1 };
    let ranges = shard_ranges(config.ga.islands, n_lanes);
    let islands = config.ga.islands;
    let telemetry: Vec<HuntTelemetry> = ranges.iter().map(|_| HuntTelemetry::new()).collect();
    let corpus_dir = dir.join("corpus");
    let worker_dir = dir.join("workers");
    let mut eval_deltas = Vec::with_capacity(config.ga.generations as usize);
    let mut observed = Vec::with_capacity(config.ga.generations as usize);
    let mut migrate_ns = Vec::new();
    tr.span("campaign", None, |root| {
        let (corpus, _lock) = tr.span("corpus.open", Some(root), |_| {
            let corpus = Corpus::open(&corpus_dir).map_err(|e| e.to_string())?;
            let lock = corpus.lock().map_err(|e| e.to_string())?;
            Ok::<_, String>((corpus, lock))
        })?;

        let mut lanes: Vec<Fuzzer<'_, M::G, SimEvaluator>> =
            tr.span("ga.init", Some(root), |phase| {
                telemetry
                    .iter()
                    .map(|obs| {
                        tr.span("ga.build_fuzzer", Some(phase), |_| {
                            M::build(&campaign, &evaluator, Some(obs))
                        })
                    })
                    .collect::<Result<_, _>>()
            })?;
        let mut coordinator: ShardCoordinator<M::G> = ShardCoordinator::new(config.ga);

        loop {
            let generation = coordinator.next_generation();
            if fleet {
                let body = Evaluate { generation };
                control_frame(tr, root, n_lanes, EVALUATE, &body)?;
            }
            let reports: Vec<ShardReport<M::G>> = tr.span("ga.evaluate", Some(root), |phase| {
                each_lane(&mut lanes, ranges.clone(), |fuzzer, (start, end)| {
                    tr.span("ga.shard_evaluate", Some(phase), |_| {
                        fuzzer.shard_evaluate(start, end)
                    })
                })
            });
            let reports = through_wire(tr, root, fleet, REPORT, reports)?;
            eval_deltas.push(reports.iter().map(|r| r.eval_delta).sum());
            let absorbed = tr.span("shard.absorb", Some(root), |_| {
                coordinator.absorb_reports(&reports)
            })?;
            observed.push(Observed {
                generation,
                evaluations: coordinator.evaluations() as u64,
                best_so_far: coordinator.best_score().unwrap_or(0.0),
                mean_score: absorbed.summary.mean_score,
                island_best: absorbed.island_best.clone(),
            });
            let migrate = match absorbed.next {
                GenerationOutcome::Completed => break,
                GenerationOutcome::Evolve { migrate } => migrate,
            };
            if fleet {
                let body = Proceed {
                    generation,
                    migrate,
                    checkpoint: true,
                };
                control_frame(tr, root, n_lanes, PROCEED, &body)?;
            }
            tr.span("ga.evolve", Some(root), |phase| {
                each_lane(&mut lanes, ranges.clone(), |fuzzer, (start, end)| {
                    tr.span("ga.shard_evolve", Some(phase), |_| {
                        fuzzer.shard_evolve(start, end)
                    })
                })
            });
            if migrate {
                let migrate_spans_before = tr.total_ns("ga.migrate");
                let outbound: Vec<Vec<MigrantBatch<M::G>>> =
                    tr.span("ga.migrate", Some(root), |phase| {
                        each_lane(&mut lanes, ranges.clone(), |fuzzer, (start, end)| {
                            tr.span("ga.shard_collect_migrants", Some(phase), |_| {
                                fuzzer.shard_collect_migrants(start, end)
                            })
                        })
                    });
                let outbound = through_wire(tr, root, fleet, MIGRANTS, outbound)?;
                // Worker order yields batches in global island order — the
                // canonical exchange sequence of the daemon.
                let inbound: Vec<Vec<MigrantBatch<M::G>>> =
                    tr.span("ga.migrate", Some(root), |_| {
                        let mut inbound: Vec<Vec<MigrantBatch<M::G>>> =
                            ranges.iter().map(|_| Vec::new()).collect();
                        for batch in outbound.into_iter().flatten() {
                            let dst = (batch.src_island + 1) % islands;
                            let owner = ranges
                                .iter()
                                .position(|&(s, e)| dst >= s && dst < e)
                                .expect("every island has an owner");
                            inbound[owner].push(batch);
                        }
                        inbound
                    });
                let inbound = through_wire(tr, root, fleet, INBOUND, inbound)?;
                tr.span("ga.migrate", Some(root), |phase| {
                    each_lane(&mut lanes, inbound, |fuzzer, batches| {
                        tr.span("ga.shard_apply_migrants", Some(phase), |_| {
                            fuzzer.shard_apply_migrants(batches)
                        })
                    })
                });
                migrate_ns.push(tr.total_ns("ga.migrate") - migrate_spans_before);
            }
            let boundary = generation + 1;
            for fuzzer in &mut lanes {
                fuzzer.set_next_generation(boundary);
            }
            if fleet {
                let digest = hunt_config_digest(config);
                let written: Vec<Result<u64, String>> =
                    tr.span("worker_ckpt.write", Some(root), |phase| {
                        each_lane(&mut lanes, (0..n_lanes).collect(), |fuzzer, lane| {
                            tr.span("worker_ckpt.write_into", Some(phase), |_| {
                                WorkerCheckpoint {
                                    schema: WORKER_CHECKPOINT_SCHEMA,
                                    worker: lane,
                                    n_workers: n_lanes,
                                    config_digest: digest,
                                    generation: boundary,
                                    state: M::wrap_snapshot(fuzzer.snapshot()),
                                }
                                .write_into(&worker_dir)
                            })
                        })
                    });
                for result in written {
                    result?;
                }
                let body = CheckpointDone {
                    generation: boundary,
                };
                control_frame(tr, root, n_lanes, CHECKPOINT_DONE, &body)?;
            }
            coordinator.finish_generation();
            if fleet {
                // Two-phase commit: the supervisor keeps a copy of the
                // coordinator at every committed boundary.
                drop(tr.span("shard.commit", Some(root), |_| coordinator.clone()));
            }
        }

        // Stop: align the lanes, collect their final snapshots, assemble the
        // single-process-equivalent one.
        let next_generation = coordinator.next_generation();
        if fleet {
            let body = Finish { next_generation };
            control_frame(tr, root, n_lanes, FINISH, &body)?;
        }
        let finals: Vec<SnapshotPayload> = tr.span("ga.finish", Some(root), |_| {
            lanes
                .iter_mut()
                .map(|fuzzer| {
                    fuzzer.set_next_generation(next_generation);
                    M::wrap_snapshot(fuzzer.snapshot())
                })
                .collect()
        });
        let finals = through_wire(tr, root, fleet, FINAL, finals)?;
        let (result, final_snapshot) = tr.span("ga.finish", Some(root), |_| {
            let finals: Vec<(usize, usize, FuzzerSnapshot<M::G>)> = finals
                .into_iter()
                .zip(&ranges)
                .map(|(payload, &(start, end))| Ok((start, end, M::unwrap_snapshot(payload)?)))
                .collect::<Result<_, String>>()?;
            let snapshot = coordinator.assemble_snapshot(&finals)?;
            Ok::<_, String>((coordinator.result()?, snapshot))
        })?;
        drop(lanes);

        if fleet {
            // The daemon hands the hunt a checkpoint path, so the final
            // checkpoint is written on completion.
            tr.span("checkpoint.write", Some(root), |_| {
                campaign_checkpoint::<M>(config, &corpus_dir, &final_snapshot)
                    .write_atomic(dir.join("checkpoint.json"))
                    .map_err(|e| e.to_string())
            })?;
        }
        let finding = tr.span("corpus.finding", Some(root), |_| {
            Finding::from_campaign(
                &campaign,
                M::wrap_genome(result.best_genome),
                result.best_outcome,
                result.total_evaluations as u64,
            )
        });
        tr.span("corpus.insert", Some(root), |_| {
            corpus.insert(&finding).map_err(|e| e.to_string())
        })?;
        let payload = tr.span("serde.payload", Some(root), |_| {
            serde_json::to_string(&finding).map_err(|e| e.to_string())
        })?;
        if fleet {
            tr.span("corpus.merge", Some(root), |_| {
                Corpus::open(dir.join("shared-corpus"))
                    .and_then(|shared| shared.merge(&corpus))
                    .map_err(|e| e.to_string())
            })?;
        }
        Ok(CampaignOut {
            root,
            finding,
            payload: (payload + "\n").into_bytes(),
            observed,
            migrate_ns,
            final_snapshot,
            eval_deltas,
            corpus_dir: corpus_dir.clone(),
        })
    })
}

/// The checkpoint `ccfuzz hunt --checkpoint` writes for `snapshot`.
fn campaign_checkpoint<M: ModeOps>(
    config: &HuntConfig,
    corpus_dir: &Path,
    snapshot: &FuzzerSnapshot<M::G>,
) -> CampaignCheckpoint {
    CampaignCheckpoint {
        schema: CHECKPOINT_SCHEMA,
        config: config.clone(),
        config_digest: hunt_config_digest(config),
        corpus_dir: corpus_dir.display().to_string(),
        checkpoint_every: 1,
        panic_budget: Some(100),
        completed: true,
        telemetry: TelemetryCounters {
            evaluations: snapshot.evaluations as u64,
            ..TelemetryCounters::default()
        },
        state: M::wrap_snapshot(snapshot.clone()),
    }
}

/// Repeats `f` until `max` samples or the time cap (at least `min` samples)
/// and returns each repetition's nanoseconds.
fn repeat_timed<E>(
    min: usize,
    max: usize,
    cap: Duration,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<Vec<u64>, E> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max && (samples.len() < min || started.elapsed() < cap) {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    Ok(samples)
}

/// Per-genome numbers of the eval probe.
struct EvalProbe {
    simulate_ns: Vec<u64>,
    score_ns: Vec<u64>,
    cold_simulate_ns: u64,
    events: u64,
}

/// Simulates and scores `genomes` on one thread: one untimed pass to warm
/// the scratch, one timed warm pass, one timed pass with a fresh scratch
/// per genome.
fn eval_probe<M: ModeOps>(
    tr: &Tracer,
    parent: SpanId,
    evaluator: &SimEvaluator,
    genomes: &[&M::G],
) -> EvalProbe {
    let mut scratch = EvalScratch::new();
    let mut score_scratch = ScoreScratch::default();
    for genome in genomes {
        let result = M::simulate(evaluator, genome, &mut scratch);
        std::hint::black_box(M::score(evaluator, genome, &result, &mut score_scratch));
        scratch.sim.recycle_stats(result.stats);
    }
    let mut probe = EvalProbe {
        simulate_ns: Vec::with_capacity(genomes.len()),
        score_ns: Vec::with_capacity(genomes.len()),
        cold_simulate_ns: 0,
        events: 0,
    };
    for genome in genomes {
        let t = Instant::now();
        let result = tr.span("eval.simulate", Some(parent), |_| {
            M::simulate(evaluator, genome, &mut scratch)
        });
        probe.simulate_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let outcome = tr.span("eval.score", Some(parent), |_| {
            M::score(evaluator, genome, &result, &mut score_scratch)
        });
        probe.score_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(outcome);
        probe.events += result.stats.events_processed;
        scratch.sim.recycle_stats(result.stats);
    }
    tr.span("eval.simulate_cold", Some(parent), |_| {
        for genome in genomes {
            let mut cold = EvalScratch::new();
            let t = Instant::now();
            let result = M::simulate(evaluator, genome, &mut cold);
            probe.cold_simulate_ns += t.elapsed().as_nanos() as u64;
            std::hint::black_box(result.stats.events_processed);
        }
    });
    probe
}

/// Evaluate-phase seconds of the first `generations` generations of the
/// campaign on one thread, and the evaluations they covered.
fn one_thread_slice<M: ModeOps>(
    tr: &Tracer,
    parent: SpanId,
    config: &HuntConfig,
    generations: u32,
) -> Result<(f64, usize), String>
where
    SimEvaluator: Evaluator<M::G>,
{
    let mut config = config.clone();
    config.ga.threads = 1;
    let campaign = config.campaign();
    let evaluator = campaign.evaluator();
    let obs = HuntTelemetry::new();
    let mut fuzzer = M::build(&campaign, &evaluator, Some(&obs))?;
    let mut coordinator: ShardCoordinator<M::G> = ShardCoordinator::new(config.ga);
    let islands = config.ga.islands;
    let mut evaluate_ns = 0u64;
    let mut evaluations = 0usize;
    for _ in 0..generations {
        let t = Instant::now();
        let report = tr.span("ga.evaluate_1thread", Some(parent), |_| {
            fuzzer.shard_evaluate(0, islands)
        });
        evaluate_ns += t.elapsed().as_nanos() as u64;
        evaluations += report.eval_delta;
        match coordinator.absorb_reports(&[report])?.next {
            GenerationOutcome::Completed => break,
            GenerationOutcome::Evolve { migrate } => {
                fuzzer.shard_evolve(0, islands);
                if migrate {
                    let batches = fuzzer.shard_collect_migrants(0, islands);
                    fuzzer.shard_apply_migrants(batches);
                }
                coordinator.finish_generation();
                fuzzer.set_next_generation(coordinator.next_generation());
            }
        }
    }
    Ok((evaluate_ns as f64 / 1e9, evaluations))
}

/// Bytes and encode/decode nanoseconds of a set of frames.
#[derive(Clone, Copy, Default)]
struct FrameCost {
    bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
}

impl FrameCost {
    /// Frames `body` into an in-memory buffer and reads it back typed.
    fn round_trip<T: Serialize + Deserialize>(
        &mut self,
        kind: &str,
        body: &T,
    ) -> Result<(), String> {
        let t = Instant::now();
        let frame = encode(kind, body)?;
        self.encode_ns += t.elapsed().as_nanos() as u64;
        self.bytes += frame.len() as u64;
        let t = Instant::now();
        std::hint::black_box(decode_frame::<T>(&frame, kind)?);
        self.decode_ns += t.elapsed().as_nanos() as u64;
        Ok(())
    }
}

/// What `proto_probe` measured, per generation.
struct ProtoProbe {
    bytes_per_gen: f64,
    encode_ns_per_gen: Vec<f64>,
    decode_ns_per_gen: Vec<f64>,
}

/// Frames the real per-generation messages of a two-worker fleet into an
/// in-memory buffer and back: `Evaluate`, the two `ShardReport`s, `Proceed`,
/// `CheckpointDone` every generation, the migrant exchange every
/// `migration_interval` generations (charged at that rate).
fn proto_probe<M: ModeOps>(
    evaluator: &SimEvaluator,
    config: &HuntConfig,
    snapshot: &FuzzerSnapshot<M::G>,
    cap: Duration,
) -> Result<ProtoProbe, String>
where
    SimEvaluator: Evaluator<M::G>,
{
    let ranges = shard_ranges(config.ga.islands, FLEET_WORKERS);
    // The final population is fully evaluated, so `shard_evaluate` only
    // assembles the reports.
    let mut fuzzer = Fuzzer::restore(evaluator, snapshot.clone())?;
    let generation = fuzzer.next_generation();
    let reports: Vec<ShardReport<M::G>> = ranges
        .iter()
        .map(|&(start, end)| fuzzer.shard_evaluate(start, end))
        .collect();
    let migrants: Vec<Vec<MigrantBatch<M::G>>> = ranges
        .iter()
        .map(|&(start, end)| fuzzer.shard_collect_migrants(start, end))
        .collect();
    let migrate_share = match config.ga.migration_interval {
        0 => 0.0,
        interval => 1.0 / f64::from(interval),
    };
    let proceed = Proceed {
        generation,
        migrate: false,
        checkpoint: true,
    };
    let done = CheckpointDone {
        generation: generation + 1,
    };

    let mut probe = ProtoProbe {
        bytes_per_gen: 0.0,
        encode_ns_per_gen: Vec::new(),
        decode_ns_per_gen: Vec::new(),
    };
    repeat_timed(5, 30, cap, || {
        let mut every = FrameCost::default();
        let mut exchange = FrameCost::default();
        for (report, batches) in reports.iter().zip(&migrants) {
            every.round_trip(EVALUATE, &Evaluate { generation })?;
            every.round_trip(REPORT, report)?;
            every.round_trip(PROCEED, &proceed)?;
            every.round_trip(CHECKPOINT_DONE, &done)?;
            // Outbound batches, and the same batches routed back inbound.
            exchange.round_trip(MIGRANTS, batches)?;
            exchange.round_trip(INBOUND, batches)?;
        }
        let per_gen = |every: u64, exchange: u64| every as f64 + exchange as f64 * migrate_share;
        probe.bytes_per_gen = per_gen(every.bytes, exchange.bytes);
        probe
            .encode_ns_per_gen
            .push(per_gen(every.encode_ns, exchange.encode_ns));
        probe
            .decode_ns_per_gen
            .push(per_gen(every.decode_ns, exchange.decode_ns));
        Ok::<(), String>(())
    })?;
    Ok(probe)
}

/// Seconds spent in the phases (direct children of the root span) named by
/// `names`.
pub fn phase_seconds(slices: &[(String, f64)], names: &[&str]) -> f64 {
    slices
        .iter()
        .filter(|(name, _)| names.contains(&name.as_str()))
        .map(|(_, s)| s)
        .sum()
}

/// The traced run of `workload` for the campaign `config`.
#[allow(clippy::too_many_arguments)]
pub fn traced_run<M: ModeOps>(
    workload: &Workload,
    config: &HuntConfig,
    reference: &Reference<'_>,
    dir: &Path,
    fixtures: &Path,
    sizes: ProbeSizes,
    gates: &mut Gates,
) -> Result<Traced, String>
where
    SimEvaluator: Evaluator<M::G>,
{
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tr = Tracer::new(&format!("{}/{}", workload.name, config.ga.seed));
    let out = drive_campaign::<M>(&tr, config, workload.fleet, &dir.join("campaign"))?;

    // Gates: the shard path is engineered byte-identical to the single
    // process — the traced payload (best genome, score, evaluations,
    // digest) and every generation's evaluations, best-so-far, mean and
    // per-island bests must equal the untraced run's.
    gates.check(out.payload == reference.payload, || {
        "traced payload differs from the untraced hunt's".to_string()
    });
    match read_telemetry(reference.telemetry) {
        Ok(untraced) => {
            gates.check(untraced == out.observed, || {
                "traced generation history differs from the untraced hunt's telemetry".to_string()
            });
        }
        Err(e) => {
            gates.check(false, || {
                format!("reading the untraced hunt's telemetry: {e}")
            });
        }
    }

    let campaign = config.campaign();
    let evaluator = campaign.evaluator();
    let genomes: Vec<&M::G> = out
        .final_snapshot
        .islands
        .iter()
        .flatten()
        .map(|ind| &ind.genome)
        .take(sizes.genomes)
        .collect();
    let probes_dir = dir.join("probes");
    std::fs::create_dir_all(&probes_dir).map_err(|e| e.to_string())?;

    struct Probes {
        eval: EvalProbe,
        slice_s: f64,
        slice_evals: usize,
        encode_ns: Vec<u64>,
        decode_ns: Vec<u64>,
        ckpt_bytes: u64,
        ckpt_write_ns: Vec<u64>,
        ckpt_load_ns: Vec<u64>,
        worker_bytes: u64,
        worker_write_ns: Vec<u64>,
        proto: ProtoProbe,
        open_ns: Vec<u64>,
        insert_ns: Vec<u64>,
        merge_ns: Vec<u64>,
        minimize_ns: u64,
        minimize_sims: u64,
        replay_ns_per_finding: f64,
    }
    let probes = tr.span("probes", None, |root| -> Result<Probes, String> {
        let eval = tr.span("probe.eval", Some(root), |p| {
            eval_probe::<M>(&tr, p, &evaluator, &genomes)
        });
        let slice_generations = sizes.slice_generations.min(config.ga.generations);
        let (slice_s, slice_evals) = tr.span("probe.one_thread_slice", Some(root), |p| {
            one_thread_slice::<M>(&tr, p, config, slice_generations)
        })?;

        // vendor/serde_json on one island of the campaign's own snapshot
        // (a twentieth of the population): the parser is superlinear in
        // document size, so the whole snapshot cannot be decoded within a
        // run on every workload.
        let mut one_island = out.final_snapshot.clone();
        one_island.params.islands = 1;
        one_island.islands.truncate(1);
        let mut one_island_config = config.clone();
        one_island_config.ga.islands = 1;
        let payload = M::wrap_snapshot(one_island.clone());
        let mut text = String::new();
        let encode_ns = tr.span("probe.serde", Some(root), |_| {
            repeat_timed(3, 9, sizes.cap, || {
                text = serde_json::to_string_pretty(&payload)?;
                Ok::<(), serde_json::Error>(())
            })
        });
        let encode_ns = encode_ns.map_err(|e| e.to_string())?;
        let decode_ns = tr.span("probe.serde", Some(root), |_| {
            repeat_timed(1, 9, sizes.cap, || {
                std::hint::black_box(serde_json::from_str::<SnapshotPayload>(&text)?);
                Ok::<(), serde_json::Error>(())
            })
        });
        let decode_ns = decode_ns.map_err(|e| e.to_string())?;
        drop(text);

        // corpus::checkpoint and corpus::worker persistence.
        let checkpoint = campaign_checkpoint::<M>(config, &out.corpus_dir, &out.final_snapshot);
        let ckpt_path = probes_dir.join("checkpoint.json");
        let mut ckpt_bytes = 0;
        let ckpt_write_ns = tr.span("probe.checkpoint", Some(root), |_| {
            repeat_timed(5, 50, sizes.cap * 2, || {
                ckpt_bytes = checkpoint.write_atomic(&ckpt_path)?;
                Ok::<(), ccfuzz_corpus::CorpusError>(())
            })
        });
        let ckpt_write_ns = ckpt_write_ns.map_err(|e| e.to_string())?;
        let one_island_path = probes_dir.join("checkpoint-one-island.json");
        campaign_checkpoint::<M>(&one_island_config, &out.corpus_dir, &one_island)
            .write_atomic(&one_island_path)
            .map_err(|e| e.to_string())?;
        let ckpt_load_ns = tr.span("probe.checkpoint", Some(root), |_| {
            repeat_timed(1, 3, sizes.cap, || {
                CampaignCheckpoint::load(&one_island_path).map(drop)
            })
        });
        let ckpt_load_ns = ckpt_load_ns.map_err(|e| e.to_string())?;
        drop(one_island);
        let worker_ckpt = WorkerCheckpoint {
            schema: WORKER_CHECKPOINT_SCHEMA,
            worker: 0,
            n_workers: FLEET_WORKERS,
            config_digest: hunt_config_digest(config),
            generation: out.final_snapshot.next_generation,
            state: checkpoint.state.clone(),
        };
        let worker_dir = probes_dir.join("workers");
        let mut worker_bytes = 0;
        let worker_write_ns = tr.span("probe.worker_ckpt", Some(root), |_| {
            repeat_timed(5, 20, sizes.cap, || {
                worker_bytes = worker_ckpt.write_into(&worker_dir)?;
                Ok::<(), String>(())
            })
        })?;
        drop(worker_ckpt);
        drop(checkpoint);

        let proto = tr.span("probe.proto", Some(root), |_| {
            proto_probe::<M>(&evaluator, config, &out.final_snapshot, sizes.cap)
        })?;

        // corpus::{store, minimize, replay}.
        let corpus_err = |e: ccfuzz_corpus::CorpusError| e.to_string();
        let open_ns = tr.span("probe.corpus", Some(root), |_| {
            repeat_timed(5, 5, sizes.cap, || {
                let corpus = Corpus::open(&out.corpus_dir)?;
                let _lock = corpus.lock()?;
                Ok::<(), ccfuzz_corpus::CorpusError>(())
            })
        });
        let open_ns = open_ns.map_err(corpus_err)?;
        let fixture_copy = probes_dir.join("fixtures");
        copy_findings(fixtures, &fixture_copy)?;
        let fixture_corpus = Corpus::open(&fixture_copy).map_err(corpus_err)?;
        let mut insert_ns = Vec::new();
        let mut merge_ns = Vec::new();
        let mut merged = None;
        for i in 0..5 {
            let target =
                Corpus::open(probes_dir.join(format!("target-{i}"))).map_err(corpus_err)?;
            let t = Instant::now();
            tr.span("corpus.insert", Some(root), |_| target.insert(&out.finding))
                .map_err(corpus_err)?;
            insert_ns.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            tr.span("corpus.merge", Some(root), |_| {
                target.merge(&fixture_corpus)
            })
            .map_err(corpus_err)?;
            merge_ns.push(t.elapsed().as_nanos() as u64);
            merged = Some(target);
        }
        let merged = merged.expect("five targets were merged");
        let t = Instant::now();
        let report = tr.span("corpus.replay", Some(root), |_| {
            replay_corpus(&merged, None)
        });
        let replay_ns = t.elapsed().as_nanos() as u64;
        let report = report.map_err(corpus_err)?;
        gates.check(report.is_clean(), || {
            "in-process replay of the merged corpus drifted".to_string()
        });
        let t = Instant::now();
        let (_, minimized) = tr.span("corpus.minimize", Some(root), |_| {
            minimize_finding(
                &out.finding,
                &MinimizeConfig {
                    max_evaluations: MINIMIZE_BUDGET,
                    ..MinimizeConfig::default()
                },
            )
        });
        let minimize_ns = t.elapsed().as_nanos() as u64;

        Ok(Probes {
            eval,
            slice_s,
            slice_evals,
            encode_ns,
            decode_ns,
            ckpt_bytes,
            ckpt_write_ns,
            ckpt_load_ns,
            worker_bytes,
            worker_write_ns,
            proto,
            open_ns,
            insert_ns,
            merge_ns,
            minimize_ns,
            minimize_sims: minimized.evaluations,
            replay_ns_per_finding: replay_ns as f64 / report.entries.len().max(1) as f64,
        })
    })?;

    let root = out.root;
    let spans = tr.finish();
    let campaign_ns = spans[root].duration_ns();
    let campaign_wall_s = campaign_ns as f64 / 1e9;
    let mut slices: Vec<(String, f64)> = slices_under(&spans, root)
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e9))
        .collect();
    slices.sort_by(|a, b| b.1.total_cmp(&a.1));
    let unattributed_root_s = phase_seconds(&slices, &["(unattributed)"]);

    // GA layer.
    let evaluate = durations_of(&spans, "ga.evaluate");
    let evolve = durations_of(&spans, "ga.evolve");
    let absorb = durations_of(&spans, "shard.absorb");
    let serial_s = phase_seconds(&slices, &["ga.evolve", "ga.migrate", "shard.absorb"]);
    let slice_len = out.eval_deltas.len().min(sizes.slice_generations as usize);
    let slice_evals_t: usize = out.eval_deltas[..slice_len].iter().sum();
    let slice_s_t: f64 = evaluate[..slice_len].iter().sum::<u64>() as f64 / 1e9;
    let parallelism = if workload.fleet {
        FLEET_WORKERS
    } else {
        config.ga.threads
    };
    let rate_t = slice_evals_t as f64 / slice_s_t;
    let rate_1 = probes.slice_evals as f64 / probes.slice_s;
    let opt_ms = |ns: &[u64], p: u32| percentile_ns(ns, p) / 1e6;
    let pct_us = |ns: &[u64], p: u32| percentile_ns(ns, p) / 1e3;

    // Eval layer.
    let simulate_total: u64 = probes.eval.simulate_ns.iter().sum();
    let score_total: u64 = probes.eval.score_ns.iter().sum();
    let n_eval = probes.eval.simulate_ns.len();

    // Fleet layer.
    let attributed_s = phase_seconds(&slices, &ATTRIBUTED);
    let control_wall_s = reference.control_wall_s.unwrap_or(reference.hunt_wall_s);

    let m = |name: &'static str, value: f64, samples: usize| LayerMetric {
        name,
        value,
        samples,
    };
    let metrics = vec![
        m(
            "ga.init_ms",
            ms(durations_of(&spans, "ga.init").iter().sum()),
            1,
        ),
        m("ga.evaluate_ms_p50", opt_ms(&evaluate, 50), evaluate.len()),
        m("ga.evaluate_ms_p80", opt_ms(&evaluate, 80), evaluate.len()),
        m("ga.evolve_ms_p50", opt_ms(&evolve, 50), evolve.len()),
        m("ga.evolve_ms_p80", opt_ms(&evolve, 80), evolve.len()),
        m(
            "ga.migrate_ms_p50",
            opt_ms(&out.migrate_ns, 50),
            out.migrate_ns.len(),
        ),
        m("shard.absorb_us_p50", pct_us(&absorb, 50), absorb.len()),
        m("ga.serial_share", serial_s / campaign_wall_s, 1),
        m(
            "ga.parallel_efficiency",
            rate_t / (parallelism as f64 * rate_1),
            slice_len,
        ),
        m(
            "eval.simulate_us_p50",
            pct_us(&probes.eval.simulate_ns, 50),
            n_eval,
        ),
        m(
            "eval.simulate_us_p95",
            pct_us(&probes.eval.simulate_ns, 95),
            n_eval,
        ),
        m(
            "eval.score_us_p50",
            pct_us(&probes.eval.score_ns, 50),
            n_eval,
        ),
        m(
            "eval.score_share",
            score_total as f64 / (simulate_total + score_total) as f64,
            n_eval,
        ),
        m(
            "eval.cold_over_warm",
            probes.eval.cold_simulate_ns as f64 / simulate_total as f64,
            n_eval,
        ),
        m(
            "netsim.events_per_eval",
            probes.eval.events as f64 / n_eval as f64,
            n_eval,
        ),
        m(
            "netsim.ns_per_event",
            simulate_total as f64 / probes.eval.events as f64,
            n_eval,
        ),
        m(
            "serde.snapshot_encode_ms_p50",
            opt_ms(&probes.encode_ns, 50),
            probes.encode_ns.len(),
        ),
        m(
            "serde.snapshot_decode_ms_p50",
            opt_ms(&probes.decode_ns, 50),
            probes.decode_ns.len(),
        ),
        m("checkpoint.bytes", probes.ckpt_bytes as f64, 1),
        m(
            "checkpoint.write_ms_p50",
            opt_ms(&probes.ckpt_write_ns, 50),
            probes.ckpt_write_ns.len(),
        ),
        m(
            "checkpoint.write_ms_p80",
            opt_ms(&probes.ckpt_write_ns, 80),
            probes.ckpt_write_ns.len(),
        ),
        m(
            "checkpoint.load_ms",
            opt_ms(&probes.ckpt_load_ns, 50),
            probes.ckpt_load_ns.len(),
        ),
        m("worker_ckpt.bytes", probes.worker_bytes as f64, 1),
        m(
            "worker_ckpt.write_ms_p50",
            opt_ms(&probes.worker_write_ns, 50),
            probes.worker_write_ns.len(),
        ),
        m("proto.bytes_per_gen", probes.proto.bytes_per_gen, 1),
        m(
            "proto.encode_us_per_gen",
            median(&probes.proto.encode_ns_per_gen) / 1e3,
            probes.proto.encode_ns_per_gen.len(),
        ),
        m(
            "proto.decode_us_per_gen",
            median(&probes.proto.decode_ns_per_gen) / 1e3,
            probes.proto.decode_ns_per_gen.len(),
        ),
        m("fleet.control_wall_s", control_wall_s, 1),
        m(
            "fleet.overhead_ratio",
            reference.hunt_wall_s / control_wall_s,
            1,
        ),
        m(
            "fleet.unattributed_s",
            reference.hunt_wall_s - attributed_s,
            1,
        ),
        m("fleet.restarts", reference.restarts as f64, 1),
        m(
            "corpus.open_ms",
            opt_ms(&probes.open_ns, 50),
            probes.open_ns.len(),
        ),
        m(
            "corpus.insert_ms",
            opt_ms(&probes.insert_ns, 50),
            probes.insert_ns.len(),
        ),
        m(
            "corpus.merge_ms",
            opt_ms(&probes.merge_ns, 50),
            probes.merge_ns.len(),
        ),
        m("corpus.minimize_ms", ms(probes.minimize_ns), 1),
        m("corpus.minimize_sims", probes.minimize_sims as f64, 1),
        m(
            "corpus.replay_ms_per_finding",
            probes.replay_ns_per_finding / 1e6,
            1,
        ),
        m(
            "trace.overhead_ratio",
            campaign_wall_s / reference.hunt_wall_s,
            1,
        ),
        m(
            "trace.coverage",
            1.0 - unattributed_root_s / campaign_wall_s,
            1,
        ),
    ];
    Ok(Traced {
        metrics,
        spans,
        slices,
        campaign_wall_s,
    })
}
