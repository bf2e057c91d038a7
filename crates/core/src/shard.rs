//! The generation loop, and the island sharding it runs over.
//!
//! Every campaign — `ccfuzz hunt` in one process, a daemon hunt across
//! worker processes — is [`drive`]n by the same loop over a
//! [`ShardCoordinator`] and a [`Shards`] transport. A shard is a fuzzer
//! built from the campaign seed that only ever advances its own contiguous
//! island range (a worker process holds nothing else; see
//! [`Campaign::build_fuzzer`](crate::campaign::Campaign::build_fuzzer)):
//! island initialisation and evolution draw from pure per-island forks of
//! the master RNG, so the per-island trajectories are the same under any
//! split. A single-process run is the one-shard case
//! ([`Lanes`] over one fuzzer); a fleet puts each shard in a worker process
//! (`ccfuzz_corpus::daemon`). The coordinator owns every piece of
//! cross-island state (global best, stall counter, generation history,
//! panic log) and rebuilds it from the [`ShardReport`] each shard sends
//! after evaluating a generation.
//!
//! The merge does not depend on the split, byte for byte:
//!
//! * the global best scan walks reports in island order with a strict `>`,
//!   so ties resolve to the first individual in flatten order;
//! * each shard reports its individuals in locally-sorted order, and the
//!   coordinator stable-merges those runs (earliest island range wins ties)
//!   — a stable sort of a concatenation equals a stable merge of
//!   stably-sorted parts, so every mean is summed in the identical order;
//! * panic records arrive pre-sorted per shard and are appended in island
//!   order, the canonical (island, index) order of the log.
//!
//! The one sharding-visible deviation: annealing draws from one sequential
//! RNG stream shared by all islands, so annealed campaigns are deterministic
//! for a *fixed* shard count but only match the one-shard trajectory at one
//! shard. Non-annealed campaigns match at any shard count.

use crate::checkpoint::ControlledRun;
use crate::evaluate::{EvalOutcome, Evaluator};
use crate::fuzzer::{
    rank_key, FuzzResult, Fuzzer, FuzzerSnapshot, GaParams, GenerationSummary, Individual,
    PanicRecord, StopReason, FUZZER_SNAPSHOT_SCHEMA,
};
use crate::genome::Genome;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_obs::{HuntTelemetry, OperatorSnapshot, Phase};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// Splits `n_islands` islands into at most `n_workers` contiguous,
/// near-equal ranges, earlier ranges taking the remainder. Returns fewer
/// ranges than workers when there are fewer islands than workers.
pub fn shard_ranges(n_islands: usize, n_workers: usize) -> Vec<(usize, usize)> {
    assert!(n_islands > 0, "need at least one island");
    assert!(n_workers > 0, "need at least one worker");
    let workers = n_workers.min(n_islands);
    let base = n_islands / workers;
    let extra = n_islands % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Number of individuals each island contributes to a migration round.
pub fn migration_k(params: &GaParams) -> usize {
    ((params.population_per_island as f64 * params.migration_fraction).round() as usize)
        .clamp(1, params.population_per_island / 2 + 1)
}

/// Score and packet counters of one individual, in the worker's sorted
/// order. The coordinator merges these runs to reproduce the global
/// population ordering without shipping genomes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopStat {
    /// Evaluated score.
    pub score: f64,
    /// Packets delivered by the flow under test.
    pub delivered: u64,
    /// Packets sent (including retransmissions).
    pub sent: u64,
}

/// What one worker reports after evaluating one generation of its islands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardReport<G> {
    /// Generation these islands just evaluated.
    pub generation: u32,
    /// First global island index this worker owns.
    pub island_start: usize,
    /// Evaluations this round added (reused outcomes included).
    pub eval_delta: usize,
    /// Best evaluated score of each owned island, in island order.
    pub island_best: Vec<f64>,
    /// Every owned individual's stats in locally-sorted (stable, score
    /// descending) order; the coordinator stable-merges these runs.
    pub stats: Vec<TopStat>,
    /// The worker's best-candidate genome (first strict maximum in the
    /// owned flatten order), if anything was evaluated.
    pub best_genome: Option<G>,
    /// Outcome of the best candidate.
    pub best_outcome: Option<EvalOutcome>,
    /// Evaluation panics this round, pre-sorted by (island, index).
    pub panics: Vec<PanicRecord<G>>,
    /// Cumulative operator counters of the worker's local telemetry; the
    /// coordinator diffs consecutive reports into fleet-wide counters.
    pub operators: OperatorSnapshot,
}

/// The top-`k` individuals one island sends around the migration ring,
/// tagged with the global index of the island they left.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigrantBatch<G> {
    /// Global index of the source island.
    pub src_island: usize,
    /// Its best individuals, cached outcomes included.
    pub migrants: Vec<Individual<G>>,
}

/// One shard's final snapshot with the island range `start..end` it owns
/// (the snapshot's other islands are empty for a fleet worker and the
/// stale view it never advanced for an in-process lane).
pub type ShardFinal<G> = (usize, usize, FuzzerSnapshot<G>);

/// What the fleet should do after a generation's reports were absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenerationOutcome {
    /// Evolve the next generation (and run ring migration first when
    /// `migrate` is set).
    Evolve {
        /// Whether this boundary is a migration boundary.
        migrate: bool,
    },
    /// The campaign is over (final generation reached or stall limit hit);
    /// do not evolve.
    Completed,
}

/// Everything a caller needs to observe one absorbed generation.
#[derive(Clone, Debug)]
pub struct AbsorbResult {
    /// The merged per-generation summary (already pushed to history).
    pub summary: GenerationSummary,
    /// Best evaluated score of every island, in global island order.
    pub island_best: Vec<f64>,
    /// Whether the global best improved this generation.
    pub improved: bool,
    /// What the fleet should do next.
    pub next: GenerationOutcome,
}

/// The cross-island state of a campaign — the one implementation of the
/// GA's per-generation bookkeeping (best scan, summary, stall rule,
/// migration cadence), fed by [`ShardReport`]s; see the module docs for why
/// the result does not depend on how the islands are split. Every
/// [`Fuzzer`] holds one (its shard's view); [`drive`] advances a copy.
/// `Clone` supports checkpoint/rollback: a fleet supervisor keeps the
/// coordinator state captured at the last committed checkpoint and restores
/// it when the fleet is respawned.
#[derive(Clone, Debug)]
pub struct ShardCoordinator<G> {
    pub(crate) params: GaParams,
    pub(crate) evaluations: usize,
    pub(crate) next_generation: u32,
    pub(crate) stall: u32,
    pub(crate) best: Option<(G, EvalOutcome)>,
    pub(crate) history: Vec<GenerationSummary>,
    pub(crate) panics: Vec<PanicRecord<G>>,
}

impl<G: Genome> ShardCoordinator<G> {
    /// A fresh coordinator for a campaign with the given parameters.
    pub fn new(params: GaParams) -> Self {
        assert!(
            params.validate().is_ok(),
            "invalid GaParams: {:?}",
            params.validate()
        );
        ShardCoordinator {
            params,
            evaluations: 0,
            next_generation: 0,
            stall: 0,
            best: None,
            history: Vec::with_capacity(params.generations as usize),
            panics: Vec::new(),
        }
    }

    /// The generation the fleet evaluates next.
    pub fn next_generation(&self) -> u32 {
        self.next_generation
    }

    /// Evaluations so far across the fleet (reused outcomes included).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Best score so far, if anything was evaluated.
    pub fn best_score(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, o)| o.score)
    }

    /// Per-generation history accumulated so far.
    pub fn history(&self) -> &[GenerationSummary] {
        &self.history
    }

    /// Merges one generation's shard reports and applies the generation's
    /// bookkeeping: best scan, summary + history, stall detection and the
    /// end-of-campaign checks. Reports must arrive in island order and
    /// cover every island exactly once.
    pub fn absorb_reports(&mut self, reports: &[ShardReport<G>]) -> Result<AbsorbResult, String> {
        let generation = self.next_generation;
        if reports.is_empty() {
            return Err("no shard reports to absorb".into());
        }
        let mut covered = 0usize;
        for (w, report) in reports.iter().enumerate() {
            if report.generation != generation {
                return Err(format!(
                    "report {w} is for generation {} but the fleet is at {generation}",
                    report.generation
                ));
            }
            if report.island_start != covered {
                return Err(format!(
                    "report {w} starts at island {} but islands up to {covered} are covered",
                    report.island_start
                ));
            }
            covered += report.island_best.len();
        }
        if covered != self.params.islands {
            return Err(format!(
                "reports cover {covered} islands but the campaign has {}",
                self.params.islands
            ));
        }

        // Global best scan: walking reports in island order with a strict
        // comparison makes the first occurrence in flatten order win ties,
        // however the islands are split.
        let mut improved = false;
        for report in reports {
            if let (Some(genome), Some(outcome)) = (&report.best_genome, &report.best_outcome) {
                if self
                    .best
                    .as_ref()
                    .map(|(_, b)| rank_key(Some(outcome.score)) > rank_key(Some(b.score)))
                    .unwrap_or(true)
                {
                    self.best = Some((genome.clone(), *outcome));
                    improved = true;
                }
            }
        }

        self.evaluations += reports.iter().map(|r| r.eval_delta).sum::<usize>();
        for report in reports {
            self.panics.extend(report.panics.iter().cloned());
        }

        let merged = merge_sorted_stats(reports);
        let scores: Vec<f64> = merged.iter().map(|s| s.score).collect();
        let k = self
            .params
            .report_top_k
            .clamp(1, self.params.total_population());
        let mean = |values: &[f64]| {
            if values.is_empty() {
                0.0
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            }
        };
        let top_k = &merged[..k.min(merged.len())];
        let summary = GenerationSummary {
            generation,
            best_score: scores.first().copied().unwrap_or(0.0),
            mean_score: mean(&scores),
            top_k_mean_delivered: mean(
                &top_k.iter().map(|s| s.delivered as f64).collect::<Vec<_>>(),
            ),
            top_k_mean_sent: mean(&top_k.iter().map(|s| s.sent as f64).collect::<Vec<_>>()),
            evaluations: self.evaluations,
        };
        self.history.push(summary);
        let island_best: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.island_best.iter().copied())
            .collect();

        if improved {
            self.stall = 0;
        } else {
            self.stall += 1;
        }
        let stalled = !improved
            && self
                .params
                .stall_generations
                .is_some_and(|limit| self.stall >= limit);
        let next = if stalled || generation + 1 == self.params.generations {
            // The campaign is over: no offspring, and the boundary advances
            // here instead of in `finish_generation`.
            self.next_generation = generation + 1;
            GenerationOutcome::Completed
        } else {
            // A ring of one island has nobody to exchange with.
            let migrate = self.params.islands >= 2
                && self.params.migration_interval > 0
                && (generation + 1).is_multiple_of(self.params.migration_interval);
            GenerationOutcome::Evolve { migrate }
        };
        Ok(AbsorbResult {
            summary,
            island_best,
            improved,
            next,
        })
    }

    /// Marks the generation boundary after the fleet evolved (and migrated):
    /// the state a checkpoint captures. Not called when
    /// [`absorb_reports`](Self::absorb_reports) already completed the
    /// campaign (it advances the boundary itself).
    pub fn finish_generation(&mut self) {
        self.next_generation += 1;
    }

    /// The campaign result, once the fleet stopped.
    pub fn result(&self) -> Result<FuzzResult<G>, String> {
        let (best_genome, best_outcome) = self
            .best
            .clone()
            .ok_or("campaign stopped before any individual was evaluated")?;
        Ok(FuzzResult {
            best_genome,
            best_outcome,
            history: self.history.clone(),
            total_evaluations: self.evaluations,
        })
    }

    /// The one constructor of a [`FuzzerSnapshot`]: this cross-island state
    /// joined with a population and its RNG streams. [`Fuzzer::restore`]
    /// splits a snapshot back into exactly these parts.
    pub(crate) fn snapshot_of(
        &self,
        rng: SimRng,
        anneal_rng: SimRng,
        islands: Vec<Vec<Individual<G>>>,
    ) -> FuzzerSnapshot<G> {
        FuzzerSnapshot {
            schema: FUZZER_SNAPSHOT_SCHEMA,
            params: self.params,
            rng,
            anneal_rng,
            islands,
            evaluations: self.evaluations,
            next_generation: self.next_generation,
            stall: self.stall,
            best_genome: self.best.as_ref().map(|(g, _)| g.clone()),
            best_outcome: self.best.as_ref().map(|(_, o)| *o),
            history: self.history.clone(),
            panics: self.panics.clone(),
        }
    }

    /// [`Self::assemble`] over borrowed finals.
    pub fn assemble_snapshot(&self, finals: &[ShardFinal<G>]) -> Result<FuzzerSnapshot<G>, String> {
        self.assemble(finals.to_vec())
    }

    /// Stitches the shards' final snapshots and the coordinator's
    /// cross-island state into the campaign's one snapshot: every island is
    /// moved out of the shard that owns it, the RNG streams come from the
    /// first shard (the master stream is static after construction), and
    /// best/stall/history/panics come from the coordinator. `finals` is in
    /// island order and covers every island exactly once, and each final
    /// holds its owned islands in full; its other islands are never read
    /// (a fleet worker ships them empty, an in-process lane stale).
    ///
    /// Caveat: with annealing and more than one shard, each shard advances
    /// its own annealing stream, so no single shard holds the global
    /// stream; the assembled `anneal_rng` is shard 0's view.
    pub fn assemble(&self, finals: Vec<ShardFinal<G>>) -> Result<FuzzerSnapshot<G>, String> {
        let mut covered = 0usize;
        for (start, end, snap) in &finals {
            if *start != covered || end < start {
                return Err(format!(
                    "final snapshots do not tile the islands: range {start}..{end} after {covered}"
                ));
            }
            if snap.islands.len() != self.params.islands {
                return Err(format!(
                    "shard snapshot has {} islands but the campaign has {}",
                    snap.islands.len(),
                    self.params.islands
                ));
            }
            if let Some((island, pop)) = snap
                .islands
                .iter()
                .enumerate()
                .take(*end)
                .skip(*start)
                .find(|(_, pop)| pop.len() != self.params.population_per_island)
            {
                return Err(format!(
                    "shard {start}..{end} ships island {island} with {} individuals, not {}",
                    pop.len(),
                    self.params.population_per_island
                ));
            }
            covered = *end;
        }
        if covered != self.params.islands {
            return Err(format!(
                "final snapshots cover {covered} of {} islands",
                self.params.islands
            ));
        }
        let first = &finals.first().ok_or("no final snapshots to assemble")?.2;
        let (rng, anneal_rng) = (first.rng.clone(), first.anneal_rng.clone());
        let islands = finals
            .into_iter()
            .flat_map(|(start, end, snap)| snap.islands.into_iter().take(end).skip(start))
            .collect();
        Ok(self.snapshot_of(rng, anneal_rng, islands))
    }
}

/// Stable k-way merge of the shards' locally-sorted stat runs, preferring
/// the earliest run on ties — exactly the order a stable sort of the
/// concatenated populations produces, including NaN handling (compared by
/// [`rank_key`], as in the shards' own sort, so NaN ranks last).
fn merge_sorted_stats<G>(reports: &[ShardReport<G>]) -> Vec<TopStat> {
    let total: usize = reports.iter().map(|r| r.stats.len()).sum();
    let mut heads = vec![0usize; reports.len()];
    let mut merged = Vec::with_capacity(total);
    for _ in 0..total {
        let mut pick: Option<usize> = None;
        for (w, report) in reports.iter().enumerate() {
            if heads[w] >= report.stats.len() {
                continue;
            }
            match pick {
                None => pick = Some(w),
                Some(p) => {
                    let current = rank_key(Some(reports[p].stats[heads[p]].score));
                    let candidate = rank_key(Some(report.stats[heads[w]].score));
                    if candidate > current {
                        pick = Some(w);
                    }
                }
            }
        }
        let w = pick.expect("merge picks a run while elements remain");
        merged.push(reports[w].stats[heads[w]]);
        heads[w] += 1;
    }
    merged
}

/// The transport between the generation loop and the shards that hold the
/// islands. [`drive`] makes exactly these three calls, in this order per
/// generation; an implementation must
///
/// * return one report per shard, in island order, covering every island
///   exactly once ([`ShardCoordinator::absorb_reports`] refuses anything
///   else);
/// * leave every shard at the boundary `generation + 1` when `proceed`
///   returns, and at `next_generation` when `finish` does;
/// * when `checkpoint` is set, return from `proceed` only once the boundary
///   is durable — `coordinator` is the state to commit alongside it, and a
///   failure before that point must leave the previous commit in force.
///
/// There are two: [`Lanes`] (in-process) and the daemon's TCP fleet.
pub trait Shards<G: Genome> {
    /// A transport failure; `String`s are the loop's own protocol errors.
    type Error: From<String>;

    /// Evaluates `generation` on every shard.
    fn evaluate(&mut self, generation: u32) -> Result<Vec<ShardReport<G>>, Self::Error>;

    /// Evolves every shard past `generation` (running the migration ring
    /// when `migrate` is set) and, when `checkpoint` is set, persists the
    /// new boundary. `coordinator` already stands at that boundary.
    fn proceed(
        &mut self,
        generation: u32,
        migrate: bool,
        checkpoint: bool,
        coordinator: &ShardCoordinator<G>,
    ) -> Result<(), Self::Error>;

    /// Aligns every shard to `next_generation` and collects its final
    /// snapshot, in island order.
    fn finish(&mut self, next_generation: u32) -> Result<Vec<ShardFinal<G>>, Self::Error>;
}

/// A campaign's control plane, from the hunt down to the generation loop:
/// cooperative shutdown, the checkpoint cadence, the panic budget and the
/// observers. The default runs to the end: no flag, no checkpoints,
/// unlimited budget, nothing observed.
pub struct LoopControl<'c, G> {
    /// Checked at generation boundaries; when set, the run stops with
    /// [`StopReason::Interrupted`].
    pub shutdown: Option<&'c AtomicBool>,
    /// Checkpoint every this many completed generations (0 = never).
    pub checkpoint_every: u32,
    /// Caught evaluation panics (plus `restarts`) tolerated before the run
    /// stops with [`StopReason::PanicBudgetExhausted`] (`None` = unlimited).
    pub panic_budget: Option<u64>,
    /// Times a supervisor respawned the shards and re-entered the loop;
    /// each is charged to the panic budget. Zero for in-process runs.
    pub restarts: u64,
    /// Receives every generation's telemetry snapshot.
    pub obs: Option<&'c HuntTelemetry>,
    /// Called after every absorbed generation.
    #[allow(clippy::type_complexity)]
    pub on_generation: Option<&'c dyn Fn(&ShardCoordinator<G>)>,
}

impl<G> Default for LoopControl<'_, G> {
    fn default() -> Self {
        LoopControl {
            shutdown: None,
            checkpoint_every: 0,
            panic_budget: None,
            restarts: 0,
            obs: None,
            on_generation: None,
        }
    }
}

/// The generation loop — the only one. Per generation: evaluate → absorb
/// (best scan, summary, stall and last-generation rules) → telemetry →
/// evolve + migrate → checkpoint; then, at the boundary a snapshot
/// captures, the shutdown flag and the panic budget. On any stop the shards
/// are aligned and their islands assembled into the final snapshot.
pub fn drive<G: Genome, S: Shards<G>>(
    coordinator: &mut ShardCoordinator<G>,
    shards: &mut S,
    ctl: &LoopControl<'_, G>,
) -> Result<ControlledRun<G>, S::Error> {
    // A fresh or resumed run always evaluates one generation before its
    // first boundary check. A respawned fleet is different: it re-enters at
    // a boundary it already stood at, with the restart newly charged to the
    // budget (and possibly a shutdown requested while it was down), so it
    // checks before evaluating anything.
    let mut at_boundary = ctl.restarts > 0 && !coordinator.history.is_empty();
    let stop = loop {
        let generation = coordinator.next_generation;
        if generation >= coordinator.params.generations {
            break StopReason::Completed;
        }
        if at_boundary {
            if ctl.shutdown.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                break StopReason::Interrupted;
            }
            if ctl
                .panic_budget
                .is_some_and(|budget| coordinator.panics.len() as u64 + ctl.restarts > budget)
            {
                break StopReason::PanicBudgetExhausted;
            }
        }
        at_boundary = true;

        let reports = shards.evaluate(generation)?;
        let next = {
            let _timer = ctl.obs.map(|o| o.profiler.scope(Phase::Select));
            let absorbed = coordinator.absorb_reports(&reports)?;
            // The reports carry a clone of each shard's best genome.
            drop(reports);
            if let Some(obs) = ctl.obs {
                obs.observe_generation(
                    generation,
                    coordinator.evaluations() as u64,
                    coordinator.best_score().unwrap_or(0.0),
                    absorbed.summary.mean_score,
                    absorbed.island_best,
                );
            }
            absorbed.next
        };
        if let Some(on_generation) = ctl.on_generation {
            on_generation(coordinator);
        }
        let GenerationOutcome::Evolve { migrate } = next else {
            break StopReason::Completed;
        };
        coordinator.finish_generation();
        let boundary = coordinator.next_generation;
        let checkpoint = ctl.checkpoint_every > 0 && boundary.is_multiple_of(ctl.checkpoint_every);
        shards.proceed(generation, migrate, checkpoint, coordinator)?;
    };
    let finals = shards.finish(coordinator.next_generation)?;
    Ok(ControlledRun {
        result: coordinator.result()?,
        stop,
        final_snapshot: coordinator.assemble(finals)?,
    })
}

/// Routes one migration round around the ring: `outbound[w]` is what the
/// shard owning `ranges[w]` collected, and each batch goes to the shard
/// owning island `(src_island + 1) % islands`. Taking shards in order
/// yields batches in global island order — the canonical exchange
/// sequence. Batches cross a process boundary in a fleet, so a shard may
/// only speak for islands it owns, with exactly [`migration_k`] migrants
/// each.
pub fn route_migrants<G>(
    params: &GaParams,
    ranges: &[(usize, usize)],
    outbound: Vec<Vec<MigrantBatch<G>>>,
) -> Result<Vec<Vec<MigrantBatch<G>>>, String> {
    let k = migration_k(params);
    let mut inbound: Vec<Vec<MigrantBatch<G>>> = ranges.iter().map(|_| Vec::new()).collect();
    for (shard, (&(start, end), batches)) in ranges.iter().zip(outbound).enumerate() {
        for batch in batches {
            if !(start..end).contains(&batch.src_island) {
                return Err(format!(
                    "shard {shard} owns islands {start}..{end} but sent migrants from island {}",
                    batch.src_island
                ));
            }
            if batch.migrants.len() != k {
                return Err(format!(
                    "island {} sent {} migrants, the campaign exchanges {k}",
                    batch.src_island,
                    batch.migrants.len()
                ));
            }
            let dst = (batch.src_island + 1) % params.islands;
            let owner = ranges
                .iter()
                .position(|&(s, e)| (s..e).contains(&dst))
                .ok_or_else(|| format!("no shard owns island {dst}"))?;
            inbound[owner].push(batch);
        }
    }
    Ok(inbound)
}

/// The in-process [`Shards`] transport: each lane is a full fuzzer that
/// advances one island range on the caller's thread. One lane over the
/// whole population is `ccfuzz hunt`; several lanes are a fleet without
/// the sockets.
pub struct Lanes<'l, 'c, 'f, G: Genome, E: Evaluator<G>> {
    lanes: &'l mut [Fuzzer<'f, G, E>],
    ranges: Vec<(usize, usize)>,
    on_checkpoint: Option<&'c mut dyn FnMut(FuzzerSnapshot<G>)>,
}

impl<'l, 'c, 'f, G: Genome, E: Evaluator<G>> Lanes<'l, 'c, 'f, G, E> {
    /// Splits the islands evenly across `lanes` (at most one lane per
    /// island). `on_checkpoint` receives the assembled snapshot at every
    /// checkpoint boundary.
    pub fn new(
        lanes: &'l mut [Fuzzer<'f, G, E>],
        on_checkpoint: Option<&'c mut dyn FnMut(FuzzerSnapshot<G>)>,
    ) -> Self {
        let islands = lanes.first().expect("at least one lane").params().islands;
        let ranges = shard_ranges(islands, lanes.len());
        assert_eq!(ranges.len(), lanes.len(), "at most one lane per island");
        Lanes {
            lanes,
            ranges,
            on_checkpoint,
        }
    }
}

impl<G: Genome, E: Evaluator<G>> Shards<G> for Lanes<'_, '_, '_, G, E> {
    type Error = String;

    fn evaluate(&mut self, _generation: u32) -> Result<Vec<ShardReport<G>>, String> {
        Ok(self
            .lanes
            .iter_mut()
            .zip(&self.ranges)
            .map(|(lane, &(start, end))| lane.shard_evaluate(start, end))
            .collect())
    }

    fn proceed(
        &mut self,
        generation: u32,
        migrate: bool,
        checkpoint: bool,
        coordinator: &ShardCoordinator<G>,
    ) -> Result<(), String> {
        for (lane, &(start, end)) in self.lanes.iter_mut().zip(&self.ranges) {
            lane.shard_evolve(start, end);
        }
        if migrate {
            let outbound = self
                .lanes
                .iter_mut()
                .zip(&self.ranges)
                .map(|(lane, &(start, end))| lane.shard_collect_migrants(start, end))
                .collect();
            let inbound = route_migrants(&coordinator.params, &self.ranges, outbound)?;
            for (lane, batches) in self.lanes.iter_mut().zip(inbound) {
                lane.shard_apply_migrants(batches)?;
            }
        }
        for lane in self.lanes.iter_mut() {
            lane.set_next_generation(generation + 1);
        }
        if let Some(sink) = self.on_checkpoint.as_deref_mut().filter(|_| checkpoint) {
            // The lanes carry on, so the snapshot clones their islands. A
            // genome clone shares its packed timestamps, so that copies
            // genome headers and outcomes, not the population's timestamps
            // (DESIGN.md "One population in memory").
            let lanes = self.lanes.iter().zip(&self.ranges);
            let finals = lanes.map(|(lane, &(start, end))| (start, end, lane.snapshot()));
            sink(coordinator.assemble(finals.collect())?);
        }
        Ok(())
    }

    fn finish(&mut self, next_generation: u32) -> Result<Vec<ShardFinal<G>>, String> {
        // The lanes are done: their islands move into the finals.
        let lanes = self.lanes.iter_mut().zip(&self.ranges);
        Ok(lanes
            .map(|(lane, &(start, end))| {
                lane.set_next_generation(next_generation);
                (start, end, lane.take_snapshot())
            })
            .collect())
    }
}

/// Runs a campaign over in-process lanes under `ctl`, continuing from the
/// cross-island state the first lane holds (every lane restored from one
/// snapshot holds the same). `on_checkpoint` receives the campaign's
/// snapshot at every checkpoint boundary. [`Fuzzer::run`] is this with one
/// lane.
pub fn run_lanes<G: Genome, E: Evaluator<G>>(
    lanes: &mut [Fuzzer<'_, G, E>],
    ctl: &LoopControl<'_, G>,
    on_checkpoint: Option<&mut dyn FnMut(FuzzerSnapshot<G>)>,
) -> Result<ControlledRun<G>, String> {
    let mut coordinator = lanes
        .first()
        .expect("at least one lane")
        .coordinator()
        .clone();
    drive(&mut coordinator, &mut Lanes::new(lanes, on_checkpoint), ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::rng::SimRng;

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct ToyGenome(Vec<f64>);

    impl Genome for ToyGenome {
        fn mutate(&self, rng: &mut SimRng) -> Self {
            let mut v = self.0.clone();
            if v.is_empty() {
                return ToyGenome(v);
            }
            let idx = rng.gen_range_usize(0, v.len());
            v[idx] += rng.gen_range_f64(-0.5, 1.0);
            ToyGenome(v)
        }
        fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
            let split = rng.gen_range_usize(0, self.0.len() + 1);
            let mut v = self.0[..split].to_vec();
            v.extend_from_slice(&other.0[split.min(other.0.len())..]);
            Some(ToyGenome(v))
        }
        fn packet_count(&self) -> usize {
            self.0.len()
        }
        fn validate(&self) -> Result<(), String> {
            Ok(())
        }
    }

    struct ToyEvaluator;
    impl Evaluator<ToyGenome> for ToyEvaluator {
        fn evaluate(&self, genome: &ToyGenome) -> EvalOutcome {
            let score: f64 = genome.0.iter().sum();
            EvalOutcome {
                score,
                performance_score: score,
                delivered_packets: (score.abs() * 10.0) as u64 + 1,
                sent_packets: (score.abs() * 11.0) as u64 + 2,
                ..Default::default()
            }
        }
    }

    fn toy_init(rng: &mut SimRng) -> ToyGenome {
        ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
    }

    fn toy_params() -> GaParams {
        GaParams {
            islands: 4,
            population_per_island: 6,
            k_elite: 1,
            crossover_fraction: 0.3,
            migration_interval: 3,
            migration_fraction: 0.2,
            generations: 12,
            stall_generations: None,
            threads: 2,
            anneal: false,
            report_top_k: 4,
            seed: 7,
        }
    }

    /// Scores by sum and panics on a genome-keyed subset (first gene
    /// negative), so which evaluations panic depends only on the
    /// trajectory, never on how the islands are split.
    struct Faulty;
    impl Evaluator<ToyGenome> for Faulty {
        fn evaluate(&self, genome: &ToyGenome) -> EvalOutcome {
            assert!(genome.0[0] >= 0.0, "simulated evaluator crash");
            ToyEvaluator.evaluate(genome)
        }
    }

    struct Constant;
    impl Evaluator<ToyGenome> for Constant {
        fn evaluate(&self, _genome: &ToyGenome) -> EvalOutcome {
            EvalOutcome {
                score: 1.0,
                ..Default::default()
            }
        }
    }

    fn faulty_init(rng: &mut SimRng) -> ToyGenome {
        ToyGenome((0..3).map(|_| rng.gen_range_f64(-0.4, 0.6)).collect())
    }

    fn anneal(genome: &ToyGenome, rng: &mut SimRng) -> ToyGenome {
        ToyGenome(genome.0.iter().map(|x| x + rng.next_f64()).collect())
    }

    /// What one run through the driver produced, in comparable form: stop
    /// reason, result, the final snapshot, and the snapshot the checkpoint
    /// sink saw at every boundary. Snapshots serialize deterministically, so
    /// equal snapshots are equal checkpoint bytes.
    #[derive(Debug, PartialEq)]
    struct Ran {
        stop: StopReason,
        result: (ToyGenome, EvalOutcome, Vec<GenerationSummary>, usize),
        last: FuzzerSnapshot<ToyGenome>,
        boundaries: Vec<FuzzerSnapshot<ToyGenome>>,
    }

    /// Runs a campaign over `n_lanes` in-process lanes through the real
    /// driver — fresh, or every lane restored from `resume` — with a
    /// checkpoint sink at every boundary that also raises the shutdown flag
    /// once boundary `stop_at` is reached.
    fn run_over<E: Evaluator<ToyGenome>>(
        n_lanes: usize,
        params: GaParams,
        evaluator: &E,
        init: fn(&mut SimRng) -> ToyGenome,
        resume: Option<&FuzzerSnapshot<ToyGenome>>,
        stop_at: Option<u32>,
        panic_budget: Option<u64>,
    ) -> Ran {
        let mut lanes: Vec<Fuzzer<'_, ToyGenome, E>> = (0..n_lanes)
            .map(|_| {
                match resume {
                    Some(snapshot) => Fuzzer::restore(evaluator, snapshot.clone()).unwrap(),
                    None => Fuzzer::new(params, evaluator, init),
                }
                .with_annealing(Box::new(anneal))
            })
            .collect();
        let shutdown = AtomicBool::new(stop_at == Some(0));
        let mut boundaries = Vec::new();
        let mut sink = |snapshot: FuzzerSnapshot<ToyGenome>| {
            if stop_at == Some(snapshot.next_generation) {
                shutdown.store(true, Ordering::SeqCst);
            }
            boundaries.push(snapshot);
        };
        let ctl = LoopControl {
            shutdown: Some(&shutdown),
            checkpoint_every: 1,
            panic_budget,
            ..LoopControl::default()
        };
        let run = run_lanes(&mut lanes, &ctl, Some(&mut sink)).unwrap();
        Ran {
            stop: run.stop,
            result: (
                run.result.best_genome,
                run.result.best_outcome,
                run.result.history,
                run.result.total_evaluations,
            ),
            last: run.final_snapshot,
            boundaries,
        }
    }

    /// One lane, uneven splits, and one lane per island.
    const LANES: [usize; 4] = [1, 2, 3, 4];

    #[test]
    fn shard_ranges_tile_the_islands() {
        for n_islands in 1..=23usize {
            for n_workers in 1..=8usize {
                let ranges = shard_ranges(n_islands, n_workers);
                assert!(ranges.len() <= n_workers);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, n_islands);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "ranges must be contiguous");
                }
                let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                let max = sizes.iter().max().unwrap();
                let min = sizes.iter().min().unwrap();
                assert!(max - min <= 1, "balanced split: {sizes:?}");
                assert!(*min >= 1, "no empty shard: {sizes:?}");
            }
        }
    }

    #[test]
    fn any_lane_and_thread_count_runs_the_one_lane_campaign() {
        let params = toy_params();
        assert_eq!(*LANES.last().unwrap(), params.islands);
        let one = run_over(1, params, &ToyEvaluator, toy_init, None, None, None);
        assert_eq!(one.stop, StopReason::Completed);
        assert_eq!(one.result.2.len(), params.generations as usize);
        // One snapshot per boundary that evolved; the last generation and a
        // stall break produce no offspring and no checkpoint.
        assert_eq!(one.boundaries.len(), params.generations as usize - 1);
        for (n_lanes, threads) in LANES.iter().flat_map(|&n| [1, 2, 3, 8].map(|t| (n, t))) {
            let at = format!("{n_lanes} lanes x {threads} threads");
            let sharded = GaParams { threads, ..params };
            let mut ran = run_over(n_lanes, sharded, &ToyEvaluator, toy_init, None, None, None);
            // `threads` is recorded in the snapshot; nothing else may
            // depend on it.
            ran.last.params.threads = params.threads;
            for snapshot in &mut ran.boundaries {
                snapshot.params.threads = params.threads;
            }
            assert!(ran == one, "{at}");
        }
    }

    #[test]
    fn every_stop_is_the_one_lane_stop_at_any_lane_count() {
        let params = toy_params();
        let budget = Some(2);
        let stalled = GaParams {
            generations: 40,
            stall_generations: Some(3),
            ..params
        };
        for n_lanes in LANES {
            let at = format!("{n_lanes} lanes");
            // Shutdown raised at boundary k, for every k: the run stops
            // there, and its final snapshot is the checkpoint of boundary k.
            let whole = run_over(n_lanes, params, &ToyEvaluator, toy_init, None, None, None);
            for k in 1..params.generations {
                let cut = run_over(
                    n_lanes,
                    params,
                    &ToyEvaluator,
                    toy_init,
                    None,
                    Some(k),
                    None,
                );
                assert_eq!(cut.stop, StopReason::Interrupted, "{at}, boundary {k}");
                assert_eq!(cut.result.2.len(), k as usize);
                assert_eq!(cut.boundaries, whole.boundaries[..k as usize]);
                assert!(
                    cut.last == whole.boundaries[k as usize - 1],
                    "{at}, boundary {k}"
                );
            }
            // Panic budget: a genome-keyed subset of evaluations panics.
            let one = run_over(1, params, &Faulty, faulty_init, None, None, budget);
            assert_eq!(one.stop, StopReason::PanicBudgetExhausted);
            assert!(one.result.2.len() < params.generations as usize);
            let ran = run_over(n_lanes, params, &Faulty, faulty_init, None, None, budget);
            assert!(ran == one, "{at}: panic budget");
            // Stall break.
            let init = |_rng: &mut SimRng| ToyGenome(vec![1.0; 3]);
            let one = run_over(1, stalled, &Constant, init, None, None, None);
            assert_eq!(one.stop, StopReason::Completed);
            assert_eq!(
                one.result.2.len(),
                4,
                "first generation improves, three stall"
            );
            let ran = run_over(n_lanes, stalled, &Constant, init, None, None, None);
            assert!(ran == one, "{at}: stall break");
        }
    }

    #[test]
    fn resuming_any_boundary_through_the_driver_replays_the_run() {
        let params = toy_params();
        for n_lanes in LANES {
            let whole = run_over(n_lanes, params, &ToyEvaluator, toy_init, None, None, None);
            for (k, snapshot) in whole.boundaries.iter().enumerate() {
                let at = format!("{n_lanes} lanes from boundary {}", k + 1);
                let resume = Some(snapshot);
                let resumed =
                    run_over(n_lanes, params, &ToyEvaluator, toy_init, resume, None, None);
                assert_eq!(resumed.stop, StopReason::Completed, "{at}");
                assert_eq!(resumed.result, whole.result, "{at}");
                assert!(resumed.last == whole.last, "{at}");
                assert_eq!(resumed.boundaries, whole.boundaries[k + 1..], "{at}");
                // Entry with history, in process: a resume with the flag
                // already raised still runs one generation before it stops
                // (which completes the campaign if it was the last one).
                let raised = run_over(
                    n_lanes,
                    params,
                    &ToyEvaluator,
                    toy_init,
                    resume,
                    Some(0),
                    None,
                );
                let last = k + 2 == params.generations as usize;
                let expected = [StopReason::Interrupted, StopReason::Completed][last as usize];
                assert_eq!(raised.stop, expected, "{at}");
                assert_eq!(raised.result.2.len(), k + 2, "{at}");
            }
        }
    }

    #[test]
    fn annealed_campaigns_are_deterministic_per_lane_count() {
        let params = GaParams {
            anneal: true,
            ..toy_params()
        };
        let plain = run_over(1, toy_params(), &ToyEvaluator, toy_init, None, None, None);
        for n_lanes in LANES {
            let ran = run_over(n_lanes, params, &ToyEvaluator, toy_init, None, None, None);
            let again = run_over(n_lanes, params, &ToyEvaluator, toy_init, None, None, None);
            assert!(ran == again, "{n_lanes} lanes");
            assert_ne!(ran.result, plain.result, "the annealing hook must have run");
        }
    }

    #[test]
    fn a_respawned_fleet_checks_its_entry_boundary_before_evaluating() {
        // Entry with history, supervised: a fleet respawned onto a committed
        // boundary has its restart charged to the budget (and may have been
        // asked to shut down while it was dead), so it stops at once with
        // that boundary as its final snapshot.
        let params = toy_params();
        let whole = run_over(2, params, &ToyEvaluator, toy_init, None, None, None);
        let committed = &whole.boundaries[4];
        let enter = |restarts: u64, raised: bool, resume: Option<&FuzzerSnapshot<ToyGenome>>| {
            let mut lanes: Vec<_> = (0..2)
                .map(|_| match resume {
                    Some(snapshot) => Fuzzer::restore(&ToyEvaluator, snapshot.clone()).unwrap(),
                    None => Fuzzer::new(params, &ToyEvaluator, toy_init),
                })
                .collect();
            let mut coordinator = lanes[0].coordinator().clone();
            let shutdown = AtomicBool::new(raised);
            let control = LoopControl {
                shutdown: Some(&shutdown),
                panic_budget: Some(0),
                restarts,
                ..LoopControl::default()
            };
            let mut shards = Lanes::new(&mut lanes, None);
            drive(&mut coordinator, &mut shards, &control).unwrap()
        };
        let stopped = enter(1, false, Some(committed));
        assert_eq!(stopped.stop, StopReason::PanicBudgetExhausted);
        assert_eq!(stopped.final_snapshot, *committed);
        let stopped = enter(1, true, Some(committed));
        assert_eq!(
            stopped.stop,
            StopReason::Interrupted,
            "shutdown is checked first"
        );
        assert_eq!(stopped.final_snapshot, *committed);
        // With nothing committed the respawned fleet starts from scratch
        // and, like any fresh run, evaluates one generation first.
        let fresh = enter(1, false, None);
        assert_eq!(fresh.stop, StopReason::PanicBudgetExhausted);
        assert_eq!(fresh.result.history.len(), 1);
        // Without a restart the same entry is a plain resume.
        let resumed = enter(0, false, Some(committed));
        assert_eq!(resumed.stop, StopReason::Completed);
        assert_eq!(resumed.result.history, whole.result.2);
    }

    #[test]
    fn hostile_migrant_batches_are_rejected_not_indexed() {
        let params = toy_params();
        let ranges = shard_ranges(params.islands, 2); // shard 0 owns 0..2, shard 1 owns 2..4
        let migrant = Individual {
            genome: ToyGenome(vec![1.0]),
            outcome: Some(EvalOutcome::default()),
        };
        let batch = |src_island: usize, len: usize| MigrantBatch {
            src_island,
            migrants: vec![migrant.clone(); len],
        };
        let k = migration_k(&params);
        let honest = vec![
            vec![batch(0, k), batch(1, k)],
            vec![batch(2, k), batch(3, k)],
        ];
        let routed = route_migrants(&params, &ranges, honest).unwrap();
        let sources = |batches: &[MigrantBatch<ToyGenome>]| -> Vec<usize> {
            batches.iter().map(|b| b.src_island).collect()
        };
        assert_eq!(sources(&routed[0]), [0, 3], "bound for islands 1 and 0");
        assert_eq!(sources(&routed[1]), [1, 2], "bound for islands 2 and 3");

        // What shard 1 sends. A worker holds only its own islands, so it
        // can tell every one on its own, including a real batch bound for
        // the other shard.
        let (start, end) = ranges[1];
        let hostile = [
            (batch(2, params.population_per_island + 1), "from island 2"),
            (batch(usize::MAX, k), "islands exchanging"),
            // A real island, but bound for shard 0's island 1.
            (batch(0, k), "bound for island 1"),
        ];
        for (bad, named) in hostile {
            let at = format!("island {} x {}", bad.src_island, bad.migrants.len());
            let outbound = vec![vec![batch(0, k), batch(1, k)], vec![bad.clone()]];
            assert!(route_migrants(&params, &ranges, outbound).is_err(), "{at}");
            let mut fuzzer = Fuzzer::new_shard(params, &ToyEvaluator, toy_init, start, end);
            let before = fuzzer.snapshot();
            let err = fuzzer
                .shard_apply_migrants(vec![batch(1, k), bad])
                .unwrap_err();
            assert!(err.contains(named), "{at}: {err}");
            assert_eq!(fuzzer.snapshot(), before, "{at}: nothing was installed");
        }
    }

    #[test]
    fn absorb_rejects_malformed_report_sets() {
        let params = toy_params();
        let mut coordinator: ShardCoordinator<ToyGenome> = ShardCoordinator::new(params);
        assert!(coordinator.absorb_reports(&[]).is_err());
        let report = |generation: u32, island_start: usize, islands: usize| ShardReport {
            generation,
            island_start,
            eval_delta: 0,
            island_best: vec![0.0; islands],
            stats: Vec::new(),
            best_genome: None::<ToyGenome>,
            best_outcome: None,
            panics: Vec::new(),
            operators: OperatorSnapshot::default(),
        };
        // Wrong generation.
        assert!(coordinator.absorb_reports(&[report(5, 0, 3)]).is_err());
        // Gap in coverage.
        assert!(coordinator
            .absorb_reports(&[report(0, 0, 1), report(0, 2, 1)])
            .is_err());
        // Partial coverage.
        assert!(coordinator.absorb_reports(&[report(0, 0, 2)]).is_err());
    }

    #[test]
    fn merged_stats_rank_nan_last_like_the_shards_own_sort() {
        let report = |island_start: usize, scores: &[f64]| ShardReport {
            generation: 0,
            island_start,
            eval_delta: 0,
            island_best: vec![0.0],
            stats: scores
                .iter()
                .enumerate()
                .map(|(k, &score)| TopStat {
                    score,
                    delivered: (10 * island_start + k) as u64,
                    sent: 0,
                })
                .collect(),
            best_genome: None::<ToyGenome>,
            best_outcome: None,
            panics: Vec::new(),
            operators: OperatorSnapshot::default(),
        };
        // Each run is already in the shard's order: comparable scores
        // descending, NaN last.
        let merged = merge_sorted_stats(&[
            report(0, &[1.0, f64::NAN]),
            report(1, &[2.0, 0.5, f64::NAN]),
        ]);
        let order: Vec<(u64, u64)> = merged
            .iter()
            .map(|s| (s.score.to_bits(), s.delivered))
            .collect();
        let nan = f64::NAN.to_bits();
        assert_eq!(
            order,
            [
                (2.0f64.to_bits(), 10),
                (1.0f64.to_bits(), 0),
                (0.5f64.to_bits(), 11),
                (nan, 1),
                (nan, 12),
            ]
        );
    }

    #[test]
    fn shard_report_roundtrips_through_json() {
        let report = ShardReport {
            generation: 3,
            island_start: 1,
            eval_delta: 12,
            island_best: vec![1.5, -0.25],
            stats: vec![TopStat {
                score: 1.5,
                delivered: 100,
                sent: 110,
            }],
            best_genome: Some(ToyGenome(vec![0.5, 0.25])),
            best_outcome: Some(EvalOutcome {
                score: 1.5,
                ..Default::default()
            }),
            panics: vec![PanicRecord {
                generation: 3,
                island: 1,
                index: 2,
                message: "boom".to_string(),
                genome: ToyGenome(vec![9.0]),
            }],
            operators: OperatorSnapshot {
                elite: 1,
                crossover: 2,
                mutation: 3,
                anneal: 0,
                migrant: 4,
            },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ShardReport<ToyGenome> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);

        let batch = MigrantBatch {
            src_island: 2,
            migrants: vec![Individual {
                genome: ToyGenome(vec![1.0]),
                outcome: Some(EvalOutcome::default()),
            }],
        };
        let json = serde_json::to_string(&batch).unwrap();
        let back: MigrantBatch<ToyGenome> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
    }
}
