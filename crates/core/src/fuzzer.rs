//! The genetic-algorithm loop (Figure 1 of the paper) with island isolation.
//!
//! The population is split into islands [21]; each island evolves
//! independently (elitism + crossovers + mutations per generation), and every
//! `migration_interval` generations the best traces of each island migrate to
//! the next island in a ring. The paper's evaluation uses 500 traces across
//! 20 islands, kElite = 1, 30 % crossovers and 10 % migration every 10
//! generations.
//!
//! Evaluation of a generation is embarrassingly parallel: `threads` scoped
//! workers steal individuals off one shared cursor ([`steal_map`]), and
//! non-annealed islands evolve through the same helper. Every simulation is
//! deterministic and results are placed by index, so the end-to-end fuzzing
//! run is reproducible from its seed regardless of the thread count.

use crate::evaluate::{EvalOutcome, EvalScratch, Evaluator};
use crate::genome::Genome;
use crate::pool::{num_threads_default, steal_map};
use crate::selection::{pick_pair, pick_ranked};
use crate::shard::{
    migration_k, run_lanes, LoopControl, MigrantBatch, ShardCoordinator, ShardReport, TopStat,
};
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_obs::{HuntTelemetry, Phase};
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Genetic-algorithm parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Number of islands (isolated sub-populations).
    pub islands: usize,
    /// Traces per island.
    pub population_per_island: usize,
    /// Traces that survive unchanged per island per generation.
    pub k_elite: usize,
    /// Fraction of each new generation produced by crossover (0.3 in the paper).
    pub crossover_fraction: f64,
    /// Generations between migrations (10 in the paper).
    pub migration_interval: u32,
    /// Fraction of each island that migrates (0.1 in the paper).
    pub migration_fraction: f64,
    /// Total generations to run.
    pub generations: u32,
    /// Stop early if the global best score has not improved for this many
    /// generations (`None` disables early stopping).
    pub stall_generations: Option<u32>,
    /// Worker threads used for evaluation.
    pub threads: usize,
    /// Apply link-trace annealing (Gaussian smoothing) to elites before
    /// mutation, as described in §3.2. Ignored by genomes without annealing.
    pub anneal: bool,
    /// Number of top traces averaged in the per-generation report (Figure 4d
    /// uses the top 20).
    pub report_top_k: usize,
    /// Master seed.
    pub seed: u64,
}

impl GaParams {
    /// The paper's §4 settings: population 500 split over 20 islands,
    /// kElite = 1, 30 % crossovers, 10 % migration every 10 generations.
    pub fn paper_default() -> Self {
        GaParams {
            islands: 20,
            population_per_island: 25,
            k_elite: 1,
            crossover_fraction: 0.3,
            migration_interval: 10,
            migration_fraction: 0.1,
            generations: 50,
            stall_generations: None,
            threads: num_threads_default(),
            anneal: false,
            report_top_k: 20,
            seed: 1,
        }
    }

    /// A scaled-down configuration that keeps the same structure but finishes
    /// in seconds; used by tests, examples and the default figure runs.
    pub fn quick() -> Self {
        GaParams {
            islands: 4,
            population_per_island: 8,
            k_elite: 1,
            crossover_fraction: 0.3,
            migration_interval: 5,
            migration_fraction: 0.25,
            generations: 10,
            stall_generations: None,
            threads: num_threads_default(),
            anneal: false,
            report_top_k: 5,
            seed: 1,
        }
    }

    /// Total population across all islands.
    pub fn total_population(&self) -> usize {
        self.islands * self.population_per_island
    }

    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.islands == 0 || self.population_per_island == 0 {
            return Err("need at least one island and one trace per island".into());
        }
        if self.k_elite >= self.population_per_island {
            return Err("k_elite must be smaller than the island population".into());
        }
        if !(0.0..=1.0).contains(&self.crossover_fraction) {
            return Err("crossover_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.migration_fraction) {
            return Err("migration_fraction must be in [0,1]".into());
        }
        if self.generations == 0 {
            return Err("need at least one generation".into());
        }
        Ok(())
    }
}

/// One individual: a genome plus (once evaluated) its outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Individual<G> {
    /// The trace genome.
    pub genome: G,
    /// Its evaluation, if it has been scored.
    pub outcome: Option<EvalOutcome>,
}

/// Per-generation summary used for convergence plots (Figure 4d).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GenerationSummary {
    /// Generation index (0-based).
    pub generation: u32,
    /// Best score across all islands.
    pub best_score: f64,
    /// Mean score across the whole population.
    pub mean_score: f64,
    /// Mean *delivered packets* of the `report_top_k` highest-scoring traces
    /// (the paper's Figure 4d plots exactly this: "packets sent" by the CCA
    /// for the 20 traces with the lowest throughput).
    pub top_k_mean_delivered: f64,
    /// Mean transmissions of the `report_top_k` highest-scoring traces.
    pub top_k_mean_sent: f64,
    /// Evaluations so far, cumulative (reused outcomes included).
    pub evaluations: usize,
}

/// The result of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzResult<G> {
    /// The best trace found and its evaluation.
    pub best_genome: G,
    /// Outcome of the best trace.
    pub best_outcome: EvalOutcome,
    /// Per-generation history.
    pub history: Vec<GenerationSummary>,
    /// Total evaluations (reused outcomes included).
    pub total_evaluations: usize,
}

/// One evaluation panic caught and isolated by a worker thread. The
/// panicking genome is preserved so the crash can be replayed and debugged;
/// the individual itself scores [`EvalOutcome::default`] and the campaign
/// continues.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PanicRecord<G> {
    /// Generation during whose evaluation the panic fired.
    pub generation: u32,
    /// Island holding the panicking individual.
    pub island: usize,
    /// Index of the individual within its island.
    pub index: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
    /// The genome whose evaluation panicked.
    pub genome: G,
}

/// Why a controlled run returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Ran to its configured end (generation count or stall limit).
    Completed,
    /// The shutdown flag was raised; the in-flight generation was finished
    /// and the fuzzer stopped at a resumable boundary.
    Interrupted,
    /// More evaluation panics were caught than the budget tolerates.
    PanicBudgetExhausted,
}

/// Schema version of [`FuzzerSnapshot`], bumped on breaking field changes.
pub const FUZZER_SNAPSHOT_SCHEMA: u32 = 1;

/// The complete resumable state of a [`Fuzzer`] at a generation boundary
/// (after evolution and migration, before the next evaluation). Restoring a
/// snapshot and running to completion replays the exact trajectory the
/// uninterrupted fuzzer would have taken: evaluation is pure, the master RNG
/// is advanced only at construction time, and every island's population and
/// cached outcome is carried verbatim.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FuzzerSnapshot<G> {
    /// Snapshot schema version ([`FUZZER_SNAPSHOT_SCHEMA`]).
    pub schema: u32,
    /// The campaign's GA parameters.
    pub params: GaParams,
    /// Master RNG (static after construction; forked per island/generation).
    pub rng: SimRng,
    /// The dedicated annealing RNG stream.
    pub anneal_rng: SimRng,
    /// Every island's population, elites keeping their cached outcomes.
    pub islands: Vec<Vec<Individual<G>>>,
    /// Evaluations so far (reused outcomes included).
    pub evaluations: usize,
    /// The generation the restored fuzzer will evaluate next.
    pub next_generation: u32,
    /// Consecutive generations without global-best improvement.
    pub stall: u32,
    /// Best genome so far (None only before the first evaluation).
    pub best_genome: Option<G>,
    /// Outcome of the best genome.
    pub best_outcome: Option<EvalOutcome>,
    /// Per-generation history accumulated so far.
    pub history: Vec<GenerationSummary>,
    /// Evaluation panics caught so far (genomes preserved for replay).
    pub panics: Vec<PanicRecord<G>>,
}

impl<G: Genome> FuzzerSnapshot<G> {
    /// Structural validation: shape must match the embedded params and every
    /// genome must pass its own invariants. Run before trusting a snapshot
    /// loaded from disk.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_slice(0, self.params.islands)
    }

    /// [`Self::validate`] for one shard's slice of the campaign: islands
    /// `start..end` must be full and hold valid genomes, and every other
    /// island must be empty. This is the shape a fleet worker persists and
    /// ships, because it keeps only the islands it owns
    /// ([`Self::validate`] is the slice `0..islands`).
    pub fn validate_slice(&self, start: usize, end: usize) -> Result<(), String> {
        if self.schema != FUZZER_SNAPSHOT_SCHEMA {
            return Err(format!(
                "unsupported fuzzer snapshot schema {} (expected {FUZZER_SNAPSHOT_SCHEMA})",
                self.schema
            ));
        }
        self.params.validate()?;
        if self.islands.len() != self.params.islands {
            return Err(format!(
                "snapshot has {} islands but params say {}",
                self.islands.len(),
                self.params.islands
            ));
        }
        for (idx, pop) in self.islands.iter().enumerate() {
            if !(start..end).contains(&idx) {
                if !pop.is_empty() {
                    return Err(format!(
                        "island {idx} holds {} individuals but lies outside the slice \
                         {start}..{end}",
                        pop.len()
                    ));
                }
                continue;
            }
            if pop.len() != self.params.population_per_island {
                return Err(format!(
                    "island {idx} has {} individuals but params say {}",
                    pop.len(),
                    self.params.population_per_island
                ));
            }
            for ind in pop {
                ind.genome
                    .validate()
                    .map_err(|e| format!("island {idx} holds an invalid genome: {e}"))?;
            }
        }
        if self.next_generation > self.params.generations {
            return Err(format!(
                "snapshot generation {} exceeds configured {} generations",
                self.next_generation, self.params.generations
            ));
        }
        Ok(())
    }
}

/// Test/ops hook: setting `CCFUZZ_INJECT_EVAL_PANIC=N` (N >= 1) makes every
/// Nth fitness evaluation in this process panic before simulating, so the
/// panic-isolation path can be exercised end-to-end from the CLI. The
/// ordinal counter is process-global; with more than one worker thread the
/// mapping from ordinal to individual depends on scheduling, so injected
/// runs are only reproducible at `threads = 1`.
fn maybe_inject_panic() {
    static TARGET: OnceLock<Option<u64>> = OnceLock::new();
    let Some(n) = *TARGET.get_or_init(|| {
        std::env::var("CCFUZZ_INJECT_EVAL_PANIC")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0)
    }) else {
        return;
    };
    static COUNT: AtomicU64 = AtomicU64::new(0);
    let ordinal = COUNT.fetch_add(1, Ordering::Relaxed) + 1;
    if ordinal.is_multiple_of(n) {
        panic!("injected evaluation panic (CCFUZZ_INJECT_EVAL_PANIC={n}, evaluation {ordinal})");
    }
}

/// Renders a caught panic payload as a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The value every ranking and best-so-far scan compares: the score, with
/// NaN (a custom evaluator's incomparable score) ranked with the unevaluated
/// (`None`), below every comparable score. NaN-free keys make the rankings
/// total orders, which `sort_by` requires.
pub(crate) fn rank_key(score: Option<f64>) -> f64 {
    score.filter(|s| !s.is_nan()).unwrap_or(f64::NEG_INFINITY)
}

/// Hook applied to genomes between generations (e.g. link-trace annealing).
pub type AnnealFn<G> = dyn Fn(&G, &mut SimRng) -> G + Sync + Send;

/// The genetic-algorithm fuzzer: one shard of a campaign (see
/// [`crate::shard`]), advanced by [`crate::shard::drive`].
pub struct Fuzzer<'a, G: Genome, E: Evaluator<G>> {
    /// The cross-island state this shard was built or restored with. The
    /// shard adds only its own evaluations, panics and generation counter;
    /// best, stall and history stay as they were, because the driver's
    /// coordinator, not the shard's, merges the reports.
    coordinator: ShardCoordinator<G>,
    evaluator: &'a E,
    islands: Vec<Vec<Individual<G>>>,
    rng: SimRng,
    anneal_rng: SimRng,
    anneal_fn: Option<Box<AnnealFn<G>>>,
    obs: Option<&'a HuntTelemetry>,
    /// `(island, child, parent's outcome)` for every child the last evolve
    /// bred equal to a scored parent; looked up by genome equality, so
    /// sorting and migration cannot misalign it. Transient: emptied by
    /// every evaluate pass and never part of a snapshot, so a restored
    /// fuzzer simply simulates those children (DESIGN.md "Evaluation
    /// reuse").
    reuse: Vec<(usize, G, EvalOutcome)>,
}

impl<'a, G: Genome, E: Evaluator<G>> Fuzzer<'a, G, E> {
    /// Creates a fuzzer with an initial population drawn from `init`. Each
    /// island draws from its own fork of the master RNG, so the islands are
    /// built in parallel on the evaluation pool and the population is the
    /// same at any thread count.
    pub fn new(params: GaParams, evaluator: &'a E, init: impl Fn(&mut SimRng) -> G + Sync) -> Self {
        Self::new_shard(params, evaluator, init, 0, params.islands)
    }

    /// [`Self::new`] for the shard that owns islands `start..end`: those as
    /// the whole build has them, every other island empty
    /// ([`FuzzerSnapshot::validate_slice`]).
    pub(crate) fn new_shard(
        params: GaParams,
        evaluator: &'a E,
        init: impl Fn(&mut SimRng) -> G + Sync,
        start: usize,
        end: usize,
    ) -> Self {
        let coordinator = ShardCoordinator::new(params);
        let mut rng = SimRng::new(params.seed);
        let mut workers = vec![(); params.threads.clamp(1, params.islands)];
        let islands = steal_map(&mut workers, params.islands, |_, island| {
            if !(start..end).contains(&island) {
                return Vec::new();
            }
            let mut island_rng = rng.fork(island as u64 + 1);
            (0..params.population_per_island)
                .map(|_| Individual {
                    genome: init(&mut island_rng),
                    outcome: None,
                })
                .collect()
        });
        // The annealing hook gets its own RNG stream, seeded from the master
        // stream. This draw also fixes the master RNG's post-construction
        // state, which every later per-island fork derives from — it must
        // stay even for genomes that never anneal, or every existing
        // campaign trajectory (and the golden fixtures) would shift.
        let anneal_seed = rng.next_u64();
        Fuzzer {
            coordinator,
            evaluator,
            islands,
            rng,
            anneal_rng: SimRng::new(anneal_seed),
            anneal_fn: None,
            obs: None,
            reuse: Vec::new(),
        }
    }

    /// Rebuilds a fuzzer from a [`FuzzerSnapshot`], resuming mid-campaign.
    /// The annealing hook and observer are not part of the snapshot; re-attach
    /// them with [`Fuzzer::with_annealing`] / [`Fuzzer::with_observer`].
    ///
    /// The snapshot splits into the cross-island state (the coordinator this
    /// shard holds) and the islands with their RNG streams; [`Self::snapshot`]
    /// joins them again byte for byte.
    pub fn restore(evaluator: &'a E, snapshot: FuzzerSnapshot<G>) -> Result<Self, String> {
        let islands = snapshot.params.islands;
        Self::restore_shard(evaluator, snapshot, 0, islands)
    }

    /// [`Self::restore`] for the shard that owns islands `start..end`, from
    /// its slice: those islands full, every other one empty.
    pub(crate) fn restore_shard(
        evaluator: &'a E,
        snapshot: FuzzerSnapshot<G>,
        start: usize,
        end: usize,
    ) -> Result<Self, String> {
        snapshot.validate_slice(start, end)?;
        let best = match (snapshot.best_genome, snapshot.best_outcome) {
            (Some(g), Some(o)) => Some((g, o)),
            (None, None) => None,
            _ => return Err("snapshot has half of a best-so-far pair".into()),
        };
        Ok(Fuzzer {
            coordinator: ShardCoordinator {
                params: snapshot.params,
                evaluations: snapshot.evaluations,
                next_generation: snapshot.next_generation,
                stall: snapshot.stall,
                best,
                history: snapshot.history,
                panics: snapshot.panics,
            },
            evaluator,
            islands: snapshot.islands,
            rng: snapshot.rng,
            anneal_rng: snapshot.anneal_rng,
            anneal_fn: None,
            obs: None,
            reuse: Vec::new(),
        })
    }

    /// This shard's state at the current generation boundary: its islands
    /// and RNG streams, joined with the coordinator it holds. The campaign's
    /// state is what the driver assembles from its shards — a checkpoint
    /// sink's snapshot, or a run's
    /// [`final_snapshot`](crate::checkpoint::ControlledRun::final_snapshot).
    pub fn snapshot(&self) -> FuzzerSnapshot<G> {
        self.coordinator.snapshot_of(
            self.rng.clone(),
            self.anneal_rng.clone(),
            self.islands.clone(),
        )
    }

    /// [`Self::snapshot`] for a shard that is done: the islands move into
    /// the snapshot, not cloned, and the fuzzer keeps none.
    pub fn take_snapshot(&mut self) -> FuzzerSnapshot<G> {
        let (rng, anneal_rng) = (self.rng.clone(), self.anneal_rng.clone());
        self.coordinator
            .snapshot_of(rng, anneal_rng, std::mem::take(&mut self.islands))
    }

    /// The cross-island state this shard holds: what [`run_lanes`] hands the
    /// driver to continue the campaign from.
    pub fn coordinator(&self) -> &ShardCoordinator<G> {
        &self.coordinator
    }

    /// Installs an annealing hook (used for link-trace Gaussian smoothing).
    pub fn with_annealing(mut self, f: Box<AnnealFn<G>>) -> Self {
        self.anneal_fn = Some(f);
        self
    }

    /// Installs a telemetry observer. The observer is passive: every metric
    /// it records lives outside the GA state, so an observed run evolves the
    /// exact same population as an unobserved one.
    pub fn with_observer(mut self, obs: &'a HuntTelemetry) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &GaParams {
        &self.coordinator.params
    }

    /// Evaluates every not-yet-scored individual of islands `start..end`, in
    /// parallel. Island indices stay global, so results, panic records and
    /// telemetry are identical whether a range is evaluated by its owning
    /// worker or as part of a whole-population pass. A child the last
    /// evolve bred equal to a scored parent takes that parent's outcome
    /// instead of a simulation; it still counts as an evaluation.
    fn evaluate_pending_range(&mut self, start: usize, end: usize) {
        let reuse = std::mem::take(&mut self.reuse);
        // Collect (island, index) pairs needing evaluation.
        let pending: Vec<(usize, usize)> = self.islands[start..end]
            .iter()
            .enumerate()
            .flat_map(|(offset, pop)| {
                pop.iter()
                    .enumerate()
                    .filter(|(_, ind)| ind.outcome.is_none())
                    .map(move |(j, _)| (start + offset, j))
            })
            .collect();
        if pending.is_empty() {
            return;
        }
        self.coordinator.evaluations += pending.len();

        // One scratch per worker: consecutive evaluations reuse the
        // simulator's calendar and packet-pool allocations. Evaluation stays
        // pure — the scratch only donates capacity. It lives for one pass,
        // not the campaign: its buffers only ever grow, to the largest any
        // genome so far needed (DESIGN.md "Evaluation pool").
        let workers = self.coordinator.params.threads.clamp(1, pending.len());
        let mut scratches: Vec<EvalScratch> = (0..workers).map(|_| EvalScratch::new()).collect();
        let islands = &self.islands;
        let evaluator = self.evaluator;
        let observe = self.obs.is_some();
        let evaluated = steal_map(&mut scratches, pending.len(), |scratch, k| {
            let (i, j) = pending[k];
            let started = observe.then(Instant::now);
            // A panicking simulation is isolated here: the individual scores
            // the default outcome, the genome and message are preserved in
            // the panic log, and the campaign continues. The injection
            // ordinal counts reused evaluations too.
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                maybe_inject_panic();
                let genome = &islands[i][j].genome;
                match reuse
                    .iter()
                    .find(|(island, g, _)| *island == i && g == genome)
                {
                    Some(&(_, _, outcome)) => (outcome, true),
                    None => (evaluator.evaluate_reusing(genome, scratch), false),
                }
            }));
            let (outcome, reused, panic) = match caught {
                Ok((outcome, reused)) => (outcome, reused, None),
                Err(payload) => {
                    // The scratch arena may hold half-updated simulator
                    // state; replace it wholesale.
                    *scratch = EvalScratch::new();
                    (EvalOutcome::default(), false, Some(panic_message(payload)))
                }
            };
            // Only simulations are timed: the histogram is simulation
            // latency.
            let nanos = started
                .filter(|_| !reused)
                .map(|s| s.elapsed().as_nanos() as u64);
            (outcome, reused, panic, nanos)
        });
        // `evaluated` is in `pending` order — canonical (island, index) —
        // whichever worker ran what, so outcomes, the panic log and the
        // latency histogram come out the same for any thread count.
        let panic_log = &mut self.coordinator.panics;
        let panics_before = panic_log.len();
        let mut reused_count = 0u64;
        for (&(i, j), (outcome, reused, panic, nanos)) in pending.iter().zip(evaluated) {
            reused_count += u64::from(reused);
            let individual = &mut self.islands[i][j];
            individual.outcome = Some(outcome);
            if let Some(message) = panic {
                panic_log.push(PanicRecord {
                    generation: self.coordinator.next_generation,
                    island: i,
                    index: j,
                    message,
                    genome: individual.genome.clone(),
                });
            }
            if let (Some(obs), Some(nanos)) = (self.obs, nanos) {
                obs.metrics.eval_latency_ns.record(nanos);
            }
        }
        if let Some(obs) = self.obs {
            obs.metrics.evaluations.add(pending.len() as u64);
            obs.metrics.evaluations_reused.add(reused_count);
            let caught = panic_log.len() - panics_before;
            obs.metrics.panics_caught.add(caught as u64);
        }
    }

    /// The campaign's one ranking: [`rank_key`] descending, so unevaluated
    /// and NaN-scored individuals tie last. Every sort using it is stable.
    fn by_score_desc(a: &Individual<G>, b: &Individual<G>) -> std::cmp::Ordering {
        let sa = rank_key(a.outcome.map(|o| o.score));
        let sb = rank_key(b.outcome.map(|o| o.score));
        sb.partial_cmp(&sa).expect("rank keys are never NaN")
    }

    /// Sorts one island and breeds its next generation, already sorted
    /// best-first (elitism + crossover + mutation), plus the outcome each
    /// child equal to a scored parent can reuse. Pure in `(params, rng,
    /// island_idx, pop)` — the island draws from its own fork of the static
    /// master RNG — unless `anneal` lends it the campaign's one sequential
    /// annealing stream. The island is consumed: its elites move into the
    /// next generation, every other parent is dropped once the children exist.
    fn evolve_island(
        params: &GaParams,
        rng: &SimRng,
        island_idx: usize,
        mut pop: Vec<Individual<G>>,
        mut anneal: Option<(&AnnealFn<G>, &mut SimRng)>,
        obs: Option<&HuntTelemetry>,
    ) -> (Vec<Individual<G>>, Vec<(G, EvalOutcome)>) {
        let mut rng = rng.fork(1_000 + island_idx as u64);
        pop.sort_by(Self::by_score_desc);
        let n = pop.len();
        let k_elite = params.k_elite.min(n);
        let k_crossover = ((n - k_elite) as f64 * params.crossover_fraction).round() as usize;

        // The bred children, and the parents of each.
        let mut children: Vec<Individual<G>> = Vec::with_capacity(n - k_elite);
        let mut lineage: Vec<[usize; 2]> = Vec::with_capacity(n - k_elite);
        // Crossovers.
        let mut produced = 0usize;
        while produced < k_crossover && k_elite + children.len() < n {
            let (a, b) = pick_pair(n, &mut rng);
            let child = pop[a].genome.crossover(&pop[b].genome, &mut rng);
            match child {
                Some(genome) => {
                    children.push(Individual {
                        genome,
                        outcome: None,
                    });
                    lineage.push([a, b]);
                    produced += 1;
                }
                None => break, // genome type has no crossover (link mode)
            }
        }
        // Mutations fill the remainder.
        let mut mutated = 0u64;
        while k_elite + children.len() < n {
            let src = pick_ranked(n, &mut rng);
            let parent = &pop[src].genome;
            let genome = match &mut anneal {
                // Annealing draws from its own RNG stream (seeded from the
                // master seed at construction, serialized in snapshots) so
                // it perturbs genomes without shifting the mutation stream
                // shared by non-annealing campaigns.
                Some((anneal, anneal_rng)) => anneal(parent, anneal_rng).mutate(&mut rng),
                None => parent.mutate(&mut rng),
            };
            mutated += 1;
            children.push(Individual {
                genome,
                outcome: None,
            });
            lineage.push([src, src]);
        }
        // A child equal to a parent simulates to that parent's outcome
        // (evaluation is deterministic). A parent whose evaluation panicked
        // holds the default outcome, not its own, so its copies simulate.
        let reuse = children
            .iter()
            .zip(&lineage)
            .filter_map(|(child, &[a, b])| {
                let outcome = std::iter::once(a)
                    .chain((b != a).then_some(b))
                    .find_map(|p| {
                        pop[p].outcome.filter(|o| {
                            *o != EvalOutcome::default() && pop[p].genome == child.genome
                        })
                    })?;
                Some((child.genome.clone(), outcome))
            })
            .collect();
        if let Some(obs) = obs {
            let ops = &obs.metrics.operators;
            ops.elite.add(k_elite as u64);
            ops.crossover.add(produced as u64);
            ops.mutation.add(mutated);
            ops.anneal.add(if anneal.is_some() { mutated } else { 0 });
        }
        // Elites survive unchanged (and keep their cached outcome).
        pop.truncate(k_elite);
        pop.extend(children);
        (pop, reuse)
    }

    /// Evolves islands `start..end` into their next generation. Islands are
    /// independent, so they go through the evaluation pool's [`steal_map`];
    /// an annealed campaign lends its one sequential `anneal_rng` to a
    /// single slot, which keeps its islands in serial order. Each island
    /// moves into the pool worker that breeds it, so the range holds one
    /// generation plus the islands in flight, never two generations.
    fn evolve_range(&mut self, start: usize, end: usize) {
        let owned = Vec::from_iter(self.islands[start..end].iter_mut().map(Mutex::new));
        let params = &self.coordinator.params;
        let anneal_fn = self.anneal_fn.as_deref().filter(|_| params.anneal);
        let mut slots: Vec<Option<&mut SimRng>> = match anneal_fn {
            Some(_) => vec![Some(&mut self.anneal_rng)],
            None => (0..params.threads.clamp(1, owned.len().max(1)))
                .map(|_| None)
                .collect(),
        };
        let (rng, obs) = (&self.rng, self.obs);
        let evolved = steal_map(&mut slots, owned.len(), |anneal_rng, k| {
            let pop = std::mem::take(*owned[k].lock().expect("nothing panics holding an island"));
            let anneal = anneal_fn.zip(anneal_rng.as_deref_mut());
            Self::evolve_island(params, rng, start + k, pop, anneal, obs)
        });
        for (k, (next, reuse)) in evolved.into_iter().enumerate() {
            self.islands[start + k] = next;
            self.reuse
                .extend(reuse.into_iter().map(|(genome, o)| (start + k, genome, o)));
        }
    }

    /// Runs the campaign to its end as the one in-process lane and returns
    /// the best trace plus per-generation history: one call to [`run_lanes`].
    /// The islands move into the run's final snapshot, which this drops, so
    /// the fuzzer holds none afterwards; a caller that needs the campaign's
    /// end state (a checkpoint, the full panic log) calls [`run_lanes`]
    /// itself and keeps its `final_snapshot`.
    pub fn run(&mut self) -> FuzzResult<G> {
        let ctl = LoopControl {
            obs: self.obs,
            ..LoopControl::default()
        };
        run_lanes(std::slice::from_mut(self), &ctl, None)
            .expect("one in-process lane covers every island and evaluates at least once")
            .result
    }

    // --- island-shard API (the calls `crate::shard::drive` is built from) ---
    //
    // A shard — an in-process lane or a worker process — is a fuzzer built
    // from the campaign seed that only ever advances islands `start..end`
    // (a worker process builds only those); a single-process run is the
    // shard `0..islands`. Because island initialisation and evolution draw
    // from pure per-island forks of the (static) master RNG, the owned
    // islands follow the same trajectory under any split; all cross-island
    // state (best, stall, history, panic log) is merged by the driver's
    // coordinator, fed by `ShardReport`s.

    /// The generation this fuzzer evaluates next.
    pub fn next_generation(&self) -> u32 {
        self.coordinator.next_generation
    }

    /// Sets the generation counter; the coordinator advances shard workers
    /// in lock-step across generation boundaries. Panic records stamp the
    /// current value, so it must be set before the boundary's evaluation.
    pub fn set_next_generation(&mut self, generation: u32) {
        self.coordinator.next_generation = generation;
    }

    /// Evaluates the pending individuals of islands `start..end` and reports
    /// everything the coordinator needs: local sorted stats, the local best
    /// candidate, per-island bests and this round's panic records.
    pub fn shard_evaluate(&mut self, start: usize, end: usize) -> ShardReport<G> {
        assert!(
            start < end && end <= self.islands.len(),
            "shard range {start}..{end} out of bounds for {} islands",
            self.islands.len()
        );
        let panics_before = self.coordinator.panics.len();
        let evals_before = self.coordinator.evaluations;
        {
            let _timer = self.obs.map(|o| o.profiler.scope(Phase::Evaluate));
            self.evaluate_pending_range(start, end);
        }
        let _timer = self.obs.map(|o| o.profiler.scope(Phase::Select));
        // Local best candidate: the first strict maximum in the owned
        // flatten order, so the coordinator's scan over reports in island
        // order picks the first strict maximum of the whole population.
        let mut best: Option<(&G, EvalOutcome)> = None;
        for ind in self.islands[start..end].iter().flatten() {
            if let Some(outcome) = ind.outcome {
                if best
                    .as_ref()
                    .map(|(_, b)| rank_key(Some(outcome.score)) > rank_key(Some(b.score)))
                    .unwrap_or(true)
                {
                    best = Some((&ind.genome, outcome));
                }
            }
        }
        let mut owned: Vec<&Individual<G>> = self.islands[start..end].iter().flatten().collect();
        owned.sort_by(|a, b| Self::by_score_desc(a, b));
        let stats = owned
            .iter()
            .filter_map(|ind| ind.outcome.as_ref())
            .map(|o| TopStat {
                score: o.score,
                delivered: o.delivered_packets,
                sent: o.sent_packets,
            })
            .collect();
        let island_best = self.islands[start..end]
            .iter()
            .map(|pop| {
                pop.iter()
                    .filter_map(|ind| ind.outcome.map(|o| o.score))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        ShardReport {
            generation: self.coordinator.next_generation,
            island_start: start,
            eval_delta: self.coordinator.evaluations - evals_before,
            island_best,
            stats,
            best_genome: best.map(|(g, _)| g.clone()),
            best_outcome: best.map(|(_, o)| o),
            panics: self.coordinator.panics[panics_before..].to_vec(),
            operators: self
                .obs
                .map(|o| o.metrics.operator_snapshot())
                .unwrap_or_default(),
        }
    }

    /// Evolves islands `start..end` into their next generation.
    pub fn shard_evolve(&mut self, start: usize, end: usize) {
        let _timer = self.obs.map(|o| o.profiler.scope(Phase::Mutate));
        self.evolve_range(start, end);
    }

    /// Sorts the owned islands and clones out each one's migration
    /// contingent (collecting before anything is applied keeps the ring
    /// simultaneous, not cascading). Every island is owned by exactly one
    /// shard, so after each shard runs this, the whole population is sorted
    /// and a batch's destination slots are its destination island's worst
    /// individuals.
    pub fn shard_collect_migrants(&mut self, start: usize, end: usize) -> Vec<MigrantBatch<G>> {
        let _timer = self.obs.map(|o| o.profiler.scope(Phase::Mutate));
        let k = migration_k(&self.coordinator.params);
        (start..end)
            .map(|island| {
                self.islands[island].sort_by(Self::by_score_desc);
                MigrantBatch {
                    src_island: island,
                    migrants: self.islands[island].iter().take(k).cloned().collect(),
                }
            })
            .collect()
    }

    /// Installs inbound migrants into the ring destination of each batch's
    /// source island, replacing that island's worst individuals (the owned
    /// islands were sorted by [`Self::shard_collect_migrants`]). Batches
    /// arrive over the wire in a fleet: one naming an island that does not
    /// exist, not holding exactly [`migration_k`] migrants, or bound for an
    /// island this shard does not hold in full (a foreign island a worker's
    /// build left empty) is rejected before anything is installed.
    pub fn shard_apply_migrants(&mut self, batches: Vec<MigrantBatch<G>>) -> Result<(), String> {
        let _timer = self.obs.map(|o| o.profiler.scope(Phase::Mutate));
        let n_islands = self.islands.len();
        let params = &self.coordinator.params;
        let k = migration_k(params);
        if let Some(bad) = batches
            .iter()
            .find(|b| b.src_island >= n_islands || b.migrants.len() != k)
        {
            return Err(format!(
                "migrant batch from island {} with {} migrants: the campaign has {n_islands} \
                 islands exchanging {k} each",
                bad.src_island,
                bad.migrants.len()
            ));
        }
        if let Some(dst) = batches
            .iter()
            .map(|b| (b.src_island + 1) % n_islands)
            .find(|&dst| self.islands[dst].len() != params.population_per_island)
        {
            return Err(format!(
                "migrant batch bound for island {dst}, which this shard does not hold \
                 ({} of {} individuals)",
                self.islands[dst].len(),
                params.population_per_island
            ));
        }
        let mut applied = 0u64;
        for batch in batches {
            let dst = (batch.src_island + 1) % n_islands;
            let pop = &mut self.islands[dst];
            let len = pop.len();
            for (offset, migrant) in batch.migrants.into_iter().enumerate() {
                pop[len - 1 - offset] = migrant;
                applied += 1;
            }
        }
        if let Some(obs) = self.obs {
            obs.metrics.operators.migrant.add(applied);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ControlledRun;
    use crate::genome::Genome;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// A toy genome (a vector of numbers) and evaluator (score = sum) that
    /// exercise the GA machinery without running network simulations.
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
                delivered_packets: 100,
                sent_packets: 110,
                ..Default::default()
            }
        }
    }

    /// Runs `fuzzer` as the one in-process lane under `ctl`; the run's
    /// final snapshot is the campaign's end state.
    fn run_one<G: Genome, E: Evaluator<G>>(
        fuzzer: &mut Fuzzer<'_, G, E>,
        ctl: LoopControl<'_, G>,
    ) -> ControlledRun<G> {
        run_lanes(std::slice::from_mut(fuzzer), &ctl, None).expect("the toy campaign runs")
    }

    fn quick_params() -> GaParams {
        GaParams {
            islands: 3,
            population_per_island: 6,
            k_elite: 1,
            crossover_fraction: 0.3,
            migration_interval: 3,
            migration_fraction: 0.2,
            generations: 15,
            stall_generations: None,
            threads: 2,
            anneal: false,
            report_top_k: 4,
            seed: 7,
        }
    }

    #[test]
    fn params_validation() {
        assert!(GaParams::paper_default().validate().is_ok());
        assert!(GaParams::quick().validate().is_ok());
        assert_eq!(GaParams::paper_default().total_population(), 500);
        let mut bad = GaParams::quick();
        bad.k_elite = bad.population_per_island;
        assert!(bad.validate().is_err());
        let mut bad = GaParams::quick();
        bad.crossover_fraction = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = GaParams::quick();
        bad.islands = 0;
        assert!(bad.validate().is_err());
        let mut bad = GaParams::quick();
        bad.generations = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn ga_improves_the_toy_objective() {
        let evaluator = ToyEvaluator;
        let mut fuzzer = Fuzzer::new(quick_params(), &evaluator, |rng| {
            ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
        });
        let result = fuzzer.run();
        let first = result.history.first().unwrap();
        let last = result.history.last().unwrap();
        assert!(
            last.best_score > first.best_score,
            "GA should improve: {} -> {}",
            first.best_score,
            last.best_score
        );
        assert!(result.best_outcome.score >= last.best_score);
        assert!(result.total_evaluations > quick_params().total_population());
        assert_eq!(result.history.len(), 15);
    }

    #[test]
    fn best_score_is_monotone_in_history() {
        let evaluator = ToyEvaluator;
        let mut fuzzer = Fuzzer::new(quick_params(), &evaluator, |rng| {
            ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
        });
        let result = fuzzer.run();
        // Because of elitism, the global best never regresses.
        let best_scores: Vec<f64> = result.history.iter().map(|h| h.best_score).collect();
        assert!(
            best_scores.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "{best_scores:?}"
        );
    }

    #[test]
    fn deterministic_given_seed_and_single_thread() {
        let run = |threads: usize| {
            let evaluator = ToyEvaluator;
            let mut params = quick_params();
            params.threads = threads;
            let mut fuzzer = Fuzzer::new(params, &evaluator, |rng| {
                ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
            });
            let r = fuzzer.run();
            (r.best_outcome.score, r.history.last().unwrap().mean_score)
        };
        assert_eq!(run(1), run(1));
        // Thread count must not affect the result (evaluation is pure and
        // results are placed by index).
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn evaluation_order_is_identical_for_any_thread_count() {
        // A score plateau makes tie-breaking visible: many individuals share
        // the top score, so *which* genome is reported as best depends on
        // comparison order. With results placed by index, threads=1 and
        // threads=4 must agree on the exact best genome, not just the score.
        #[derive(Clone, Debug, PartialEq)]
        struct TieGenome(u64);
        impl Genome for TieGenome {
            fn mutate(&self, rng: &mut SimRng) -> Self {
                TieGenome(rng.next_u64())
            }
            fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
                Some(if rng.gen_bool(0.5) {
                    self.clone()
                } else {
                    other.clone()
                })
            }
            fn packet_count(&self) -> usize {
                0
            }
            fn validate(&self) -> Result<(), String> {
                Ok(())
            }
        }
        struct PlateauEvaluator;
        impl Evaluator<TieGenome> for PlateauEvaluator {
            fn evaluate(&self, genome: &TieGenome) -> EvalOutcome {
                EvalOutcome {
                    // Two buckets only: plenty of exact ties.
                    score: (genome.0 % 2) as f64,
                    delivered_packets: genome.0,
                    ..Default::default()
                }
            }
        }
        let run = |threads: usize| {
            let mut params = quick_params();
            params.threads = threads;
            params.generations = 6;
            let evaluator = PlateauEvaluator;
            let mut fuzzer = Fuzzer::new(params, &evaluator, |rng| TieGenome(rng.next_u64()));
            let r = fuzzer.run();
            (r.best_genome, r.best_outcome, r.history)
        };
        let single = run(1);
        for threads in [2, 4, 7] {
            let multi = run(threads);
            assert_eq!(
                single.0, multi.0,
                "best genome differs at {threads} threads"
            );
            assert_eq!(single.1, multi.1);
            assert_eq!(single.2, multi.2);
        }
    }

    /// Scores by sum and panics on a genome-keyed subset (first gene
    /// negative), dirtying the scratch first. Counts how often a worker
    /// handed it a cold scratch and whether a dirtied one ever came back.
    #[derive(Default)]
    struct ScratchProbe {
        calls: AtomicU64,
        cold: AtomicU64,
        poisoned: AtomicU64,
    }
    const POISON_CAPACITY: usize = 4096;
    impl Evaluator<ToyGenome> for ScratchProbe {
        fn evaluate(&self, genome: &ToyGenome) -> EvalOutcome {
            self.evaluate_reusing(genome, &mut EvalScratch::new())
        }
        fn evaluate_reusing(&self, genome: &ToyGenome, scratch: &mut EvalScratch) -> EvalOutcome {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut buf = scratch.sim.take_time_buf();
            match buf.capacity() {
                0 => self.cold.fetch_add(1, Ordering::Relaxed),
                POISON_CAPACITY.. => self.poisoned.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
            if genome.0[0] < 0.0 {
                scratch
                    .sim
                    .recycle_time_buf(Vec::with_capacity(POISON_CAPACITY));
                panic!("simulated evaluator crash on negative gene");
            }
            buf.reserve(8);
            scratch.sim.recycle_time_buf(buf);
            EvalOutcome {
                score: genome.0.iter().sum(),
                ..Default::default()
            }
        }
    }

    #[test]
    fn snapshot_bytes_are_identical_for_any_thread_count() {
        // The full resumable state after three generations (two evolutions,
        // one migration), as JSON, for every kind of campaign the pool
        // serves: plain, with a genome-keyed subset of evaluations panicking,
        // and annealed (the serial evolve path).
        let run = |case: &str, threads: usize| {
            let mut params = quick_params();
            params.generations = 3;
            params.migration_interval = 2;
            params.threads = threads;
            params.anneal = case == "annealed";
            let init = |rng: &mut SimRng| {
                ToyGenome((0..3).map(|_| rng.gen_range_f64(-0.4, 0.6)).collect())
            };
            let probe = ScratchProbe::default();
            let telemetry = HuntTelemetry::new();
            let mut snapshot = if case == "panicking" {
                let mut fuzzer = Fuzzer::new(params, &probe, init).with_observer(&telemetry);
                run_one(&mut fuzzer, LoopControl::default()).final_snapshot
            } else {
                let mut fuzzer = Fuzzer::new(params, &ToyEvaluator, init).with_annealing(Box::new(
                    |genome: &ToyGenome, rng: &mut SimRng| {
                        ToyGenome(genome.0.iter().map(|x| x + rng.next_f64()).collect())
                    },
                ));
                run_one(&mut fuzzer, LoopControl::default()).final_snapshot
            };
            if case == "panicking" {
                let keys: Vec<_> = snapshot
                    .panics
                    .iter()
                    .map(|p| (p.generation, p.island, p.index))
                    .collect();
                assert!(!keys.is_empty(), "some evaluations must have panicked");
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "canonical: {keys:?}");
                // Every evaluation either simulated once or reused a
                // parent's outcome; a worker's scratch stays warm through a
                // pass and is replaced only after a panic.
                let cold = probe.cold.load(Ordering::Relaxed);
                let passes = params.generations as usize;
                let calls = probe.calls.load(Ordering::Relaxed);
                let reused = telemetry.metrics.evaluations_reused.get();
                assert_eq!(calls + reused, snapshot.evaluations as u64);
                assert!(calls < snapshot.evaluations as u64, "reuse fired");
                assert_eq!(probe.poisoned.load(Ordering::Relaxed), 0);
                assert!(cold >= passes as u64, "a scratch outlived its pass");
                assert!(cold <= (passes * threads + keys.len()) as u64);
            }
            // `threads` itself is recorded in the snapshot; nothing else may
            // depend on it.
            snapshot.params.threads = 0;
            serde_json::to_string(&snapshot).unwrap()
        };
        let mut baselines = Vec::new();
        for case in ["plain", "panicking", "annealed"] {
            let single = run(case, 1);
            for threads in [2, 3, 8] {
                assert!(single == run(case, threads), "{case} at {threads} threads");
            }
            baselines.push(single);
        }
        assert_ne!(
            baselines[0], baselines[2],
            "the annealing hook must have run"
        );
    }

    /// [`ToyGenome`] with an equality that never holds, so no child can
    /// reuse a parent's outcome. Serializes exactly as the genome it wraps.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    struct NeverEqual(ToyGenome);

    impl PartialEq for NeverEqual {
        fn eq(&self, _other: &Self) -> bool {
            false
        }
    }

    impl Genome for NeverEqual {
        fn mutate(&self, rng: &mut SimRng) -> Self {
            NeverEqual(self.0.mutate(rng))
        }
        fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
            self.0.crossover(&other.0, rng).map(NeverEqual)
        }
        fn packet_count(&self) -> usize {
            self.0.packet_count()
        }
        fn validate(&self) -> Result<(), String> {
            self.0.validate()
        }
    }

    impl Evaluator<NeverEqual> for ToyEvaluator {
        fn evaluate(&self, genome: &NeverEqual) -> EvalOutcome {
            self.evaluate(&genome.0)
        }
    }

    impl Evaluator<NeverEqual> for ScratchProbe {
        fn evaluate(&self, genome: &NeverEqual) -> EvalOutcome {
            self.evaluate(&genome.0)
        }
        fn evaluate_reusing(&self, genome: &NeverEqual, scratch: &mut EvalScratch) -> EvalOutcome {
            self.evaluate_reusing(&genome.0, scratch)
        }
    }

    /// The two toy genomes, so one campaign can run on either.
    trait Toy: Genome + Serialize + 'static {
        fn wrap(genome: ToyGenome) -> Self;
        fn toy(&self) -> &ToyGenome;
    }

    impl Toy for ToyGenome {
        fn wrap(genome: ToyGenome) -> Self {
            genome
        }
        fn toy(&self) -> &ToyGenome {
            self
        }
    }

    impl Toy for NeverEqual {
        fn wrap(genome: ToyGenome) -> Self {
            NeverEqual(genome)
        }
        fn toy(&self) -> &ToyGenome {
            &self.0
        }
    }

    /// Runs the toy campaign `case` (plain, genome-keyed panics, annealed,
    /// or scored NaN on a genome-keyed subset) over `lanes` in-process
    /// lanes and returns its final snapshot as JSON — `threads` blanked, as
    /// it is recorded but nothing else may depend on it — plus the
    /// evaluations that reused a parent's outcome.
    fn toy_campaign<G: Toy>(case: &str, threads: usize, lanes: usize) -> (String, u64)
    where
        ToyEvaluator: Evaluator<G>,
        ScratchProbe: Evaluator<G>,
        NanOnSubset: Evaluator<G>,
    {
        fn drive<G: Toy, E: Evaluator<G>>(
            params: GaParams,
            evaluator: &E,
            lanes: usize,
            obs: &HuntTelemetry,
        ) -> FuzzerSnapshot<G> {
            let init = |rng: &mut SimRng| {
                G::wrap(ToyGenome(
                    (0..3).map(|_| rng.gen_range_f64(-0.4, 0.6)).collect(),
                ))
            };
            let anneal = |genome: &G, rng: &mut SimRng| {
                G::wrap(ToyGenome(
                    genome.toy().0.iter().map(|x| x + rng.next_f64()).collect(),
                ))
            };
            let mut fuzzers: Vec<_> = (0..lanes)
                .map(|_| {
                    Fuzzer::new(params, evaluator, init)
                        .with_annealing(Box::new(anneal))
                        .with_observer(obs)
                })
                .collect();
            let ctl = LoopControl {
                obs: Some(obs),
                ..LoopControl::default()
            };
            run_lanes(&mut fuzzers, &ctl, None)
                .expect("the toy campaign runs")
                .final_snapshot
        }
        let mut params = quick_params();
        params.generations = 6;
        params.migration_interval = 2;
        params.threads = threads;
        params.anneal = case == "annealed";
        // Longer than an island, so the top-k summary shows the order in
        // which the lanes' rankings were merged.
        params.report_top_k = 9;
        let telemetry = HuntTelemetry::new();
        let mut snapshot = match case {
            "panicking" => drive::<G, _>(params, &ScratchProbe::default(), lanes, &telemetry),
            "nan" => drive::<G, _>(params, &NanOnSubset, lanes, &telemetry),
            _ => drive::<G, _>(params, &ToyEvaluator, lanes, &telemetry),
        };
        snapshot.params.threads = 0;
        (
            serde_json::to_string(&snapshot).expect("snapshot serializes"),
            telemetry.metrics.evaluations_reused.get(),
        )
    }

    /// Scores by sum, but NaN on a genome-keyed majority of the initial
    /// population (first gene below 0.2). Delivered packets follow the
    /// genes, so the merged ranking's order shows in the top-k summary.
    struct NanOnSubset;
    impl Evaluator<ToyGenome> for NanOnSubset {
        fn evaluate(&self, genome: &ToyGenome) -> EvalOutcome {
            let score = if genome.0[0] < 0.2 {
                f64::NAN
            } else {
                genome.0.iter().sum()
            };
            EvalOutcome {
                score,
                delivered_packets: (genome.0.iter().map(|x| x.abs()).sum::<f64>() * 1e3) as u64,
                ..Default::default()
            }
        }
    }
    impl Evaluator<NeverEqual> for NanOnSubset {
        fn evaluate(&self, genome: &NeverEqual) -> EvalOutcome {
            self.evaluate(&genome.0)
        }
    }

    /// Every (lanes, threads) pair the invariance tests sweep.
    fn lanes_by_threads() -> impl Iterator<Item = (usize, usize)> {
        [1, 2, 3]
            .into_iter()
            .flat_map(|lanes| [1, 2, 3, 8].map(|threads| (lanes, threads)))
    }

    #[test]
    fn reuse_changes_no_snapshot_byte() {
        // The same campaigns with reuse impossible: every child simulates,
        // and the full resumable state must come out byte-identical.
        for case in ["plain", "panicking", "annealed"] {
            for (lanes, threads) in lanes_by_threads() {
                let at = format!("{case}: {lanes} lanes x {threads} threads");
                let (reusing, reused) = toy_campaign::<ToyGenome>(case, threads, lanes);
                let (simulated, none) = toy_campaign::<NeverEqual>(case, threads, lanes);
                assert!(reused > 0, "{at}: reuse never fired");
                assert_eq!(none, 0, "{at}");
                assert!(reusing == simulated, "{at}");
            }
        }
    }

    #[test]
    fn nan_scores_rank_last_and_the_campaign_completes() {
        // A custom evaluator scoring a genome-keyed subset NaN: the rankings
        // stay total orders (with NaN as a tie they are not, and `sort_by`
        // may then panic or mis-sort), so the campaign completes with the
        // same bytes at any lane and thread count.
        let (single, _) = toy_campaign::<ToyGenome>("nan", 1, 1);
        assert!(
            single.contains("\"score\":null"),
            "NaN scores serialize as null"
        );
        for (lanes, threads) in lanes_by_threads() {
            let (ran, _) = toy_campaign::<ToyGenome>("nan", threads, lanes);
            assert!(ran == single, "{lanes} lanes x {threads} threads");
        }
        // NaN ranks with the unevaluated, below every comparable score.
        let scored = |score: f64| Individual {
            genome: ToyGenome(Vec::new()),
            outcome: Some(EvalOutcome {
                score,
                ..Default::default()
            }),
        };
        let mut pop = [
            scored(f64::NAN),
            scored(1.0),
            Individual {
                genome: ToyGenome(vec![1.0]),
                outcome: None,
            },
            scored(f64::NEG_INFINITY),
            scored(2.0),
        ];
        pop.sort_by(Fuzzer::<ToyGenome, ToyEvaluator>::by_score_desc);
        let order: Vec<Option<f64>> = pop.iter().map(|i| i.outcome.map(|o| o.score)).collect();
        assert_eq!(order[..2], [Some(2.0), Some(1.0)]);
        assert!(
            order[2].unwrap().is_nan(),
            "stable among the last: {order:?}"
        );
        assert_eq!(order[3..], [None, Some(f64::NEG_INFINITY)]);
    }

    #[test]
    fn a_copy_of_a_panicked_parent_is_simulated_and_logs_its_own_panic() {
        // Mutation is a no-op, so every bred child equals its parent.
        #[derive(Clone, Debug, PartialEq)]
        struct Twin(f64);
        impl Genome for Twin {
            fn mutate(&self, _rng: &mut SimRng) -> Self {
                self.clone()
            }
            fn crossover(&self, _other: &Self, _rng: &mut SimRng) -> Option<Self> {
                None
            }
            fn packet_count(&self) -> usize {
                0
            }
            fn validate(&self) -> Result<(), String> {
                Ok(())
            }
        }
        struct PanicsOnNegative(AtomicU64);
        impl Evaluator<Twin> for PanicsOnNegative {
            fn evaluate(&self, genome: &Twin) -> EvalOutcome {
                self.0.fetch_add(1, Ordering::Relaxed);
                assert!(genome.0 >= 0.0, "negative genome");
                EvalOutcome {
                    score: genome.0,
                    ..Default::default()
                }
            }
        }
        let mut params = quick_params();
        params.generations = 2;
        let evaluator = PanicsOnNegative(AtomicU64::new(0));
        let telemetry = HuntTelemetry::new();
        let mut fuzzer = Fuzzer::new(params, &evaluator, |rng| Twin(rng.gen_range_f64(-1.0, 1.0)))
            .with_observer(&telemetry);
        let run = run_one(&mut fuzzer, LoopControl::default());
        let result = run.result;
        let repeated: Vec<&PanicRecord<Twin>> = run
            .final_snapshot
            .panics
            .iter()
            .filter(|p| p.generation == 1)
            .collect();
        assert!(!repeated.is_empty(), "copies of panicked parents simulate");
        assert!(repeated.iter().all(|p| p.genome.0 < 0.0));
        // Generation 1 simulated exactly the copies of panicked parents;
        // copies of scored parents took their outcomes.
        let calls = evaluator.0.load(Ordering::Relaxed);
        let reused = telemetry.metrics.evaluations_reused.get();
        assert_eq!(calls, (params.total_population() + repeated.len()) as u64);
        assert!(reused > 0);
        assert_eq!(calls + reused, result.total_evaluations as u64);
    }

    #[test]
    fn skewed_evaluation_cost_still_evaluates_everyone_once() {
        // Individuals are numbered as drawn; the first half of `pending`
        // costs 20x the second.
        #[derive(Clone, Debug, PartialEq)]
        struct Numbered(usize);
        impl Genome for Numbered {
            fn mutate(&self, _rng: &mut SimRng) -> Self {
                self.clone()
            }
            fn crossover(&self, _other: &Self, _rng: &mut SimRng) -> Option<Self> {
                None
            }
            fn packet_count(&self) -> usize {
                0
            }
            fn validate(&self) -> Result<(), String> {
                Ok(())
            }
        }
        struct Skewed(Vec<AtomicU64>);
        impl Evaluator<Numbered> for Skewed {
            fn evaluate(&self, genome: &Numbered) -> EvalOutcome {
                self.0[genome.0].fetch_add(1, Ordering::Relaxed);
                let spins = if genome.0 < self.0.len() / 2 {
                    20_000u64
                } else {
                    1_000
                };
                let score = (0..spins).fold(0u64, |acc, x| std::hint::black_box(acc ^ x));
                EvalOutcome {
                    score: score as f64,
                    ..Default::default()
                }
            }
        }
        for threads in [1usize, 2, 3, 8] {
            let mut params = quick_params();
            params.generations = 1;
            params.threads = threads;
            let evaluator = Skewed(
                (0..params.total_population())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            );
            let drawn = AtomicUsize::new(0);
            let mut fuzzer = Fuzzer::new(params, &evaluator, |_rng| {
                Numbered(drawn.fetch_add(1, Ordering::Relaxed))
            });
            let result = fuzzer.run();
            assert_eq!(result.total_evaluations, params.total_population());
            let calls: Vec<u64> = evaluator
                .0
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            assert!(
                calls.iter().all(|&c| c == 1),
                "{threads} threads: {calls:?}"
            );
        }
    }

    #[test]
    fn observer_is_passive_and_records_the_campaign() {
        let run = |obs: Option<&HuntTelemetry>| {
            let evaluator = ToyEvaluator;
            let mut fuzzer = Fuzzer::new(quick_params(), &evaluator, |rng| {
                ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
            });
            if let Some(obs) = obs {
                fuzzer = fuzzer.with_observer(obs);
            }
            let r = fuzzer.run();
            (r.best_genome, r.best_outcome, r.history)
        };
        let plain = run(None);
        let telemetry = HuntTelemetry::new();
        let observed = run(Some(&telemetry));
        // Observation must not change what evolves.
        assert_eq!(plain, observed);

        let total = observed.2.last().unwrap().evaluations as u64;
        assert_eq!(telemetry.metrics.evaluations.get(), total);
        // Every simulated evaluation was timed exactly once across all
        // worker shards; reused outcomes were not timed.
        let reused = telemetry.metrics.evaluations_reused.get();
        assert!(reused > 0);
        assert_eq!(
            telemetry.metrics.eval_latency_ns.snapshot().count + reused,
            total
        );
        assert_eq!(telemetry.metrics.best_score.get(), observed.1.score);
        let ops = &telemetry.metrics.operators;
        assert!(ops.elite.get() > 0, "elites counted");
        assert!(ops.mutation.get() > 0, "mutations counted");
        assert!(ops.migrant.get() > 0, "migrations counted");
        assert_eq!(ops.anneal.get(), 0, "no annealing hook installed");
        // The loop spends its time in the phases the profiler tracks.
        assert!(telemetry.profiler.nanos(Phase::Evaluate) > 0);
        assert!(telemetry.profiler.nanos(Phase::Mutate) > 0);
    }

    #[test]
    fn stall_detection_stops_early() {
        struct ConstantEvaluator;
        impl Evaluator<ToyGenome> for ConstantEvaluator {
            fn evaluate(&self, _genome: &ToyGenome) -> EvalOutcome {
                EvalOutcome {
                    score: 1.0,
                    ..Default::default()
                }
            }
        }
        let mut params = quick_params();
        params.generations = 50;
        params.stall_generations = Some(3);
        let evaluator = ConstantEvaluator;
        let mut fuzzer = Fuzzer::new(params, &evaluator, |_rng| ToyGenome(vec![1.0; 3]));
        let result = fuzzer.run();
        assert!(
            result.history.len() < 50,
            "constant fitness should trigger early stopping, ran {} generations",
            result.history.len()
        );
    }

    #[test]
    fn snapshot_restore_replays_identically_from_every_boundary() {
        let evaluator = ToyEvaluator;
        let init =
            |rng: &mut SimRng| ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect());
        let control = Fuzzer::new(quick_params(), &evaluator, init).run();

        // Capture a snapshot at every generation boundary of a second,
        // identical run.
        let mut snapshots: Vec<FuzzerSnapshot<ToyGenome>> = Vec::new();
        let mut capture = |snap: FuzzerSnapshot<ToyGenome>| snapshots.push(snap);
        let ctl = LoopControl {
            checkpoint_every: 1,
            ..LoopControl::default()
        };
        let mut fuzzer = Fuzzer::new(quick_params(), &evaluator, init);
        let run = run_lanes(std::slice::from_mut(&mut fuzzer), &ctl, Some(&mut capture)).unwrap();
        assert_eq!(run.stop, StopReason::Completed);
        assert_eq!(run.result.history, control.history);
        assert_eq!(snapshots.len(), quick_params().generations as usize - 1);

        for snap in snapshots {
            let boundary = snap.next_generation;
            // Restoring splits the snapshot into the fuzzer's coordinator,
            // islands and RNG streams; snapshotting joins them byte for byte.
            let json = serde_json::to_string(&snap).unwrap();
            let mut resumed = Fuzzer::restore(&evaluator, snap).unwrap();
            assert!(
                serde_json::to_string(&resumed.snapshot()).unwrap() == json,
                "restore and snapshot at generation {boundary} moved bytes"
            );
            let r = resumed.run();
            assert_eq!(
                r.best_genome, control.best_genome,
                "resume from generation {boundary} diverged"
            );
            assert_eq!(r.best_outcome, control.best_outcome);
            assert_eq!(r.history, control.history);
            assert_eq!(r.total_evaluations, control.total_evaluations);
        }
    }

    #[test]
    fn shutdown_flag_stops_at_a_resumable_boundary() {
        let evaluator = ToyEvaluator;
        let init =
            |rng: &mut SimRng| ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect());
        let control = Fuzzer::new(quick_params(), &evaluator, init).run();

        // Flag raised before the run starts: the fuzzer still finishes the
        // in-flight generation, then stops.
        let shutdown = AtomicBool::new(true);
        let mut fuzzer = Fuzzer::new(quick_params(), &evaluator, init);
        let partial = run_one(
            &mut fuzzer,
            LoopControl {
                shutdown: Some(&shutdown),
                ..LoopControl::default()
            },
        );
        assert_eq!(partial.stop, StopReason::Interrupted);
        assert_eq!(partial.result.history.len(), 1, "one full generation ran");

        // Resuming from the interruption replays the control trajectory.
        let mut resumed = Fuzzer::restore(&evaluator, partial.final_snapshot).unwrap();
        let r = resumed.run();
        assert_eq!(r.best_genome, control.best_genome);
        assert_eq!(r.history, control.history);
        assert_eq!(r.total_evaluations, control.total_evaluations);
    }

    #[test]
    fn evaluation_panics_are_isolated_and_logged() {
        struct AlwaysPanics;
        impl Evaluator<ToyGenome> for AlwaysPanics {
            fn evaluate(&self, _genome: &ToyGenome) -> EvalOutcome {
                panic!("boom");
            }
        }
        let evaluator = AlwaysPanics;
        let mut params = quick_params();
        params.generations = 3;
        let mut fuzzer = Fuzzer::new(params, &evaluator, |_rng| ToyGenome(vec![1.0; 3]));
        let telemetry = HuntTelemetry::new();
        fuzzer = fuzzer.with_observer(&telemetry);
        let ControlledRun {
            result,
            stop,
            final_snapshot,
        } = run_one(&mut fuzzer, LoopControl::default());
        // Every evaluation panicked, every panic was isolated, the campaign
        // still completed with default-scored individuals.
        assert_eq!(stop, StopReason::Completed);
        assert_eq!(result.history.len(), 3);
        assert_eq!(result.best_outcome, EvalOutcome::default());
        assert_eq!(final_snapshot.panics.len(), result.total_evaluations);
        assert_eq!(
            telemetry.metrics.panics_caught.get(),
            result.total_evaluations as u64
        );
        let record = &final_snapshot.panics[0];
        assert_eq!(record.message, "boom");
        assert_eq!(record.generation, 0);
        assert_eq!(record.genome, ToyGenome(vec![1.0; 3]));
        // The panic log survives a restore, as does every other byte.
        let json = serde_json::to_string(&final_snapshot).unwrap();
        let restored = Fuzzer::restore(&evaluator, final_snapshot).unwrap();
        assert!(serde_json::to_string(&restored.snapshot()).unwrap() == json);
    }

    #[test]
    fn panic_budget_aborts_after_the_inflight_generation() {
        struct AlwaysPanics;
        impl Evaluator<ToyGenome> for AlwaysPanics {
            fn evaluate(&self, _genome: &ToyGenome) -> EvalOutcome {
                panic!("boom");
            }
        }
        let evaluator = AlwaysPanics;
        let mut fuzzer = Fuzzer::new(quick_params(), &evaluator, |_rng| ToyGenome(vec![1.0; 3]));
        let run = run_one(
            &mut fuzzer,
            LoopControl {
                panic_budget: Some(2),
                ..LoopControl::default()
            },
        );
        assert_eq!(run.stop, StopReason::PanicBudgetExhausted);
        assert_eq!(run.result.history.len(), 1, "stopped at the first boundary");
        assert!(run.final_snapshot.panics.len() as u64 > 2);
    }

    #[test]
    fn isolated_panics_preserve_the_surviving_trajectory() {
        // A run where *some* evaluations panic must still be deterministic
        // and resumable: panicked individuals score the default outcome and
        // selection proceeds.
        let evaluator = ScratchProbe::default();
        let mut params = quick_params();
        params.generations = 8;
        let init =
            |rng: &mut SimRng| ToyGenome((0..3).map(|_| rng.gen_range_f64(-0.4, 0.6)).collect());
        let run_once = || {
            let run = run_one(
                &mut Fuzzer::new(params, &evaluator, init),
                LoopControl::default(),
            );
            assert_eq!(run.stop, StopReason::Completed);
            (run.result, run.final_snapshot.panics)
        };
        let (a, panics_a) = run_once();
        let (b, panics_b) = run_once();
        assert_eq!(a.history, b.history);
        assert_eq!(panics_a, panics_b);
        assert!(
            !panics_a.is_empty(),
            "the faulty evaluator should have panicked at least once"
        );
        assert!(a.best_outcome.score > 0.0, "survivors still score");
    }

    #[test]
    fn migration_spreads_good_genomes() {
        // Seed one island with a clearly superior genome and verify that after
        // migration other islands contain it.
        let evaluator = ToyEvaluator;
        let mut params = quick_params();
        params.generations = 8;
        params.migration_interval = 2;
        // Whichever island draws first gets the super-fit individual.
        let drawn = AtomicUsize::new(0);
        let mut fuzzer = Fuzzer::new(params, &evaluator, |rng| {
            if drawn.fetch_add(1, Ordering::Relaxed) == 0 {
                ToyGenome(vec![100.0; 5])
            } else {
                ToyGenome((0..5).map(|_| rng.gen_range_f64(0.0, 1.0)).collect())
            }
        });
        let result = fuzzer.run();
        assert!(result.best_outcome.score >= 500.0);
        // The top-k mean should have been pulled up strongly by generation 8,
        // which only happens if the good genome propagated beyond one island
        // (top_k = 4 > population of a single island's elite).
        let last = result.history.last().unwrap();
        assert!(last.mean_score > 5.0, "mean score {}", last.mean_score);
    }
}
