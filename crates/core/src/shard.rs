//! Island sharding for multi-process campaigns.
//!
//! A distributed campaign splits the GA's islands across worker processes.
//! Each worker constructs the *full* fuzzer from the campaign seed — island
//! initialisation and evolution draw from pure per-island forks of the master
//! RNG, so a worker that only ever advances its own contiguous island range
//! reproduces exactly the per-island trajectories of a single-process run.
//! The coordinator owns every piece of cross-island state (global best,
//! stall counter, generation history, panic log) and rebuilds it from the
//! [`ShardReport`] each worker sends after evaluating a generation.
//!
//! The merge is engineered to be *byte-identical* to the single-process
//! bookkeeping, not merely equivalent:
//!
//! * the global best scan walks reports in island order with the same
//!   strict-`>` comparison, so ties resolve to the same individual;
//! * each worker reports its individuals in locally-sorted order, and the
//!   coordinator stable-merges those runs (earliest island range wins ties)
//!   — a stable sort of a concatenation equals a stable merge of
//!   stably-sorted parts, so the merged sequence *is* the single-process
//!   sorted population and every mean is summed in the identical order;
//! * panic records arrive pre-sorted per worker and are appended in island
//!   order, matching the canonical (island, index) order of the log.
//!
//! The one sharding-visible deviation: annealing draws from one sequential
//! RNG stream shared by all islands, so annealed campaigns are deterministic
//! for a *fixed* worker count but only match the single-process trajectory
//! at one worker. Non-annealed campaigns match at any worker count.

use crate::evaluate::EvalOutcome;
use crate::fuzzer::{
    FuzzResult, FuzzerSnapshot, GaParams, GenerationSummary, Individual, PanicRecord,
    FUZZER_SNAPSHOT_SCHEMA,
};
use crate::genome::Genome;
use ccfuzz_obs::OperatorSnapshot;
use serde::{Deserialize, Serialize};

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

/// Number of individuals each island contributes to a migration round —
/// the same rounding and clamping the in-process ring migration applies.
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
    /// Simulations this evaluation round added.
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

/// The cross-island state of a distributed campaign. Mirrors the exact
/// bookkeeping of `Fuzzer::run_controlled`, fed by [`ShardReport`]s instead
/// of direct population access; see the module docs for the byte-identity
/// argument. `Clone` supports checkpoint/rollback: the supervisor keeps the
/// coordinator state captured at the last committed checkpoint and restores
/// it when the fleet is respawned.
#[derive(Clone, Debug)]
pub struct ShardCoordinator<G> {
    params: GaParams,
    evaluations: usize,
    next_generation: u32,
    stall: u32,
    best: Option<(G, EvalOutcome)>,
    history: Vec<GenerationSummary>,
    panics: Vec<PanicRecord<G>>,
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

    /// Simulations run so far across the fleet.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Evaluation panics absorbed so far.
    pub fn panic_count(&self) -> usize {
        self.panics.len()
    }

    /// The panic records absorbed so far, in canonical order.
    pub fn panics(&self) -> &[PanicRecord<G>] {
        &self.panics
    }

    /// Best score so far, if anything was evaluated.
    pub fn best_score(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, o)| o.score)
    }

    /// Per-generation history accumulated so far.
    pub fn history(&self) -> &[GenerationSummary] {
        &self.history
    }

    /// The campaign parameters.
    pub fn params(&self) -> &GaParams {
        &self.params
    }

    /// Merges one generation's shard reports and applies the single-process
    /// loop's bookkeeping: best scan, summary + history, stall detection and
    /// the end-of-campaign checks. Reports must arrive in island order and
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

        // Global best scan: walking reports in island order with the same
        // strict comparison the single-process scan uses keeps tie-breaks
        // identical (first occurrence in flatten order wins).
        let mut improved = false;
        for report in reports {
            if let (Some(genome), Some(outcome)) = (&report.best_genome, &report.best_outcome) {
                if self
                    .best
                    .as_ref()
                    .map(|(_, b)| outcome.score > b.score)
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
            if let Some(limit) = self.params.stall_generations {
                if self.stall >= limit {
                    self.next_generation = generation + 1;
                    return Ok(AbsorbResult {
                        summary,
                        island_best,
                        improved,
                        next: GenerationOutcome::Completed,
                    });
                }
            }
        }
        if generation + 1 == self.params.generations {
            self.next_generation = generation + 1;
            return Ok(AbsorbResult {
                summary,
                island_best,
                improved,
                next: GenerationOutcome::Completed,
            });
        }
        // Single-process ring migration silently no-ops below two islands;
        // the fleet skips the exchange round entirely in that case.
        let migrate = self.params.islands >= 2
            && self.params.migration_interval > 0
            && (generation + 1).is_multiple_of(self.params.migration_interval);
        Ok(AbsorbResult {
            summary,
            island_best,
            improved,
            next: GenerationOutcome::Evolve { migrate },
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

    /// Stitches the workers' final snapshots and the coordinator's
    /// cross-island state into the snapshot the single-process fuzzer would
    /// have produced: every island comes from the worker that owns it, the
    /// RNG streams come from the first worker (the master stream is static
    /// after construction), and best/stall/history/panics come from the
    /// coordinator. `finals` is `(start, end, snapshot)` per worker, in
    /// island order, covering every island exactly once.
    ///
    /// Caveat: with annealing and more than one worker, each worker advances
    /// its own annealing stream, so no single worker holds the global
    /// stream; the assembled `anneal_rng` is worker 0's view.
    pub fn assemble_snapshot(
        &self,
        finals: &[(usize, usize, FuzzerSnapshot<G>)],
    ) -> Result<FuzzerSnapshot<G>, String> {
        let mut covered = 0usize;
        for &(start, end, ref snap) in finals {
            if start != covered || end < start {
                return Err(format!(
                    "final snapshots do not tile the islands: range {start}..{end} after {covered}"
                ));
            }
            if snap.islands.len() != self.params.islands {
                return Err(format!(
                    "worker snapshot has {} islands but the campaign has {}",
                    snap.islands.len(),
                    self.params.islands
                ));
            }
            covered = end;
        }
        if covered != self.params.islands {
            return Err(format!(
                "final snapshots cover {covered} of {} islands",
                self.params.islands
            ));
        }
        let first = &finals.first().ok_or("no final snapshots to assemble")?.2;
        let islands = finals
            .iter()
            .flat_map(|(start, end, snap)| snap.islands[*start..*end].iter().cloned())
            .collect();
        Ok(FuzzerSnapshot {
            schema: FUZZER_SNAPSHOT_SCHEMA,
            params: self.params,
            rng: first.rng.clone(),
            anneal_rng: first.anneal_rng.clone(),
            islands,
            evaluations: self.evaluations,
            next_generation: self.next_generation,
            stall: self.stall,
            best_genome: self.best.as_ref().map(|(g, _)| g.clone()),
            best_outcome: self.best.as_ref().map(|(_, o)| *o),
            history: self.history.clone(),
            panics: self.panics.clone(),
        })
    }
}

/// Stable k-way merge of the workers' locally-sorted stat runs, preferring
/// the earliest run on ties — exactly the order a stable sort of the
/// concatenated populations produces, including NaN handling (incomparable
/// scores count as ties, like the single-process comparator).
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
                    let current = reports[p].stats[heads[p]].score;
                    let candidate = report.stats[heads[w]].score;
                    if candidate.partial_cmp(&current) == Some(std::cmp::Ordering::Greater) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Evaluator;
    use crate::fuzzer::{Fuzzer, RunControl};
    use crate::StopReason;
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
            islands: 3,
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

    /// Drives a fleet of in-process worker fuzzers through the full
    /// coordinator protocol: evaluate, absorb, evolve, migrate through the
    /// coordinator's canonical routing, finish. This is exactly the daemon's
    /// loop minus the sockets.
    fn run_sharded<E: Evaluator<ToyGenome>>(
        params: GaParams,
        evaluator: &E,
        init: fn(&mut SimRng) -> ToyGenome,
        n_workers: usize,
    ) -> (FuzzResult<ToyGenome>, FuzzerSnapshot<ToyGenome>) {
        let ranges = shard_ranges(params.islands, n_workers);
        let mut workers: Vec<Fuzzer<'_, ToyGenome, E>> = ranges
            .iter()
            .map(|_| Fuzzer::new(params, evaluator, init))
            .collect();
        let mut coordinator: ShardCoordinator<ToyGenome> = ShardCoordinator::new(params);
        loop {
            let reports: Vec<ShardReport<ToyGenome>> = workers
                .iter_mut()
                .zip(&ranges)
                .map(|(worker, &(start, end))| worker.shard_evaluate(start, end))
                .collect();
            let absorbed = coordinator.absorb_reports(&reports).unwrap();
            match absorbed.next {
                GenerationOutcome::Completed => break,
                GenerationOutcome::Evolve { migrate } => {
                    for (worker, &(start, end)) in workers.iter_mut().zip(&ranges) {
                        worker.shard_evolve(start, end);
                    }
                    if migrate {
                        let mut inbound: Vec<Vec<MigrantBatch<ToyGenome>>> =
                            ranges.iter().map(|_| Vec::new()).collect();
                        for (worker, &(start, end)) in workers.iter_mut().zip(&ranges) {
                            for batch in worker.shard_collect_migrants(start, end) {
                                let dst = (batch.src_island + 1) % params.islands;
                                let owner = ranges
                                    .iter()
                                    .position(|&(s, e)| dst >= s && dst < e)
                                    .unwrap();
                                inbound[owner].push(batch);
                            }
                        }
                        for (worker, batches) in workers.iter_mut().zip(inbound) {
                            worker.shard_apply_migrants(batches);
                        }
                    }
                    coordinator.finish_generation();
                }
            }
            for worker in &mut workers {
                worker.set_next_generation(coordinator.next_generation());
            }
        }
        for worker in &mut workers {
            worker.set_next_generation(coordinator.next_generation());
        }
        let finals: Vec<(usize, usize, FuzzerSnapshot<ToyGenome>)> = workers
            .iter()
            .zip(&ranges)
            .map(|(worker, &(start, end))| (start, end, worker.snapshot()))
            .collect();
        let snapshot = coordinator.assemble_snapshot(&finals).unwrap();
        (coordinator.result().unwrap(), snapshot)
    }

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
    fn sharded_run_matches_single_process_for_any_worker_count() {
        let params = toy_params();
        let evaluator = ToyEvaluator;
        let mut control = Fuzzer::new(params, &evaluator, toy_init);
        let (expected, stop) = control.run_controlled(&mut RunControl::default());
        assert_eq!(stop, StopReason::Completed);
        let expected_snapshot = control.snapshot();

        // Any island split, each worker's pool at any thread count: the
        // ranged evaluate / evolve passes add up to the whole-population one.
        for (n_workers, threads) in (1..=4usize).flat_map(|w| [1, 2, 3, 8].map(|t| (w, t))) {
            let at = format!("at {n_workers} workers x {threads} threads");
            let sharded = GaParams { threads, ..params };
            let (result, mut snapshot) = run_sharded(sharded, &evaluator, toy_init, n_workers);
            assert_eq!(result.best_genome, expected.best_genome, "{at}");
            assert_eq!(result.best_outcome, expected.best_outcome);
            assert_eq!(result.history, expected.history, "{at}");
            assert_eq!(result.total_evaluations, expected.total_evaluations);
            snapshot.params.threads = params.threads;
            assert_eq!(snapshot, expected_snapshot, "{at}");
        }
    }

    #[test]
    fn sharded_stall_break_matches_single_process() {
        struct ConstantEvaluator;
        impl Evaluator<ToyGenome> for ConstantEvaluator {
            fn evaluate(&self, _genome: &ToyGenome) -> EvalOutcome {
                EvalOutcome {
                    score: 1.0,
                    ..Default::default()
                }
            }
        }
        let mut params = toy_params();
        params.generations = 40;
        params.stall_generations = Some(3);
        let evaluator = ConstantEvaluator;
        let init = |_rng: &mut SimRng| ToyGenome(vec![1.0; 3]);
        let mut control = Fuzzer::new(params, &evaluator, init);
        let (expected, _) = control.run_controlled(&mut RunControl::default());

        let (result, _snapshot) = run_sharded(params, &evaluator, init, 2);
        assert_eq!(result.history, expected.history);
        assert!(
            result.history.len() < 40,
            "stall break should have stopped early"
        );
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
