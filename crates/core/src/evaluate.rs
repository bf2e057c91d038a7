//! Genome evaluation: run the simulator on a genome and score the outcome.
//!
//! This is the "fitness function" of the genetic algorithm (§3.4). Every
//! evaluation is a fresh, deterministic simulation — the property §3.6 of the
//! paper identifies as the reason to prefer simulation over emulation.
//!
//! There is one path for every fuzzing mode: [`SimEvaluator::simulate`]
//! lowers a [`ModeGenome`] into the pooled simulator and the blanket
//! [`Evaluator`] impl scores the result through the same trait.

use crate::genome::{LinkGenome, TrafficGenome};
use crate::mode::ModeGenome;
use crate::scenario::{FlowGene, ScenarioGenome};
use crate::scoring::{
    performance_score_reusing, total_score, trace_score, Objective, ScoreScratch, ScoringConfig,
    TraceScoreInputs,
};
use crate::workload::WorkloadGenome;
use ccfuzz_cca::{CcaDispatch, CcaKind};
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::sim::{FlowSpec, SimResult, Simulation};
use ccfuzz_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Everything the genetic algorithm needs to know about one evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Combined fitness (higher = fitter adversarial trace).
    pub score: f64,
    /// Performance component of the score.
    pub performance_score: f64,
    /// Trace (minimality) component of the score.
    pub trace_score: f64,
    /// Packets the CCA flow delivered.
    pub delivered_packets: u64,
    /// Packets the CCA flow transmitted (including retransmissions).
    pub sent_packets: u64,
    /// Retransmissions.
    pub retransmissions: u64,
    /// RTO expirations.
    pub rto_count: u64,
    /// CCA packets dropped at the bottleneck queue.
    pub queue_drops: u64,
    /// Cross-traffic packets dropped at the bottleneck queue.
    pub cross_dropped: u64,
    /// Average goodput of the CCA flow, bits per second.
    pub goodput_bps: f64,
}

impl EvalOutcome {
    /// Scores a finished single-flow simulation with reusable scoring
    /// buffers (a warm evaluator allocates nothing while scoring). Public so
    /// tooling can derive an outcome from a [`SimResult`] it already has.
    pub fn from_result_reusing(
        scoring: &ScoringConfig,
        result: &SimResult,
        mss: u32,
        trace_inputs: Option<TraceScoreInputs>,
        score: &mut ScoreScratch,
    ) -> Self {
        let perf = performance_score_reusing(
            &scoring.objective,
            result,
            mss,
            scoring.reference_rate_bps,
            score,
        );
        let trace = trace_inputs.map(|t| trace_score(&t)).unwrap_or(0.0);
        EvalOutcome {
            score: total_score(scoring, perf, trace),
            performance_score: perf,
            trace_score: trace,
            delivered_packets: result.stats.flow().delivered_packets,
            sent_packets: result.stats.flow().transmissions,
            retransmissions: result.stats.flow().retransmissions,
            rto_count: result.stats.flow().rto_count,
            queue_drops: result.stats.flow().queue_drops,
            cross_dropped: result.stats.cross_dropped,
            goodput_bps: result.average_goodput_bps(mss),
        }
    }

    /// Scores a finished multi-flow simulation. The legacy per-flow fields
    /// of [`EvalOutcome`] describe flow 0 in single-flow modes; for
    /// multi-flow runs they carry aggregates across all competing flows so
    /// the outcome (and the behaviour signature built from it) reflects the
    /// whole scenario. `traffic` is the genome's cross-traffic sub-genome,
    /// if it has one (it feeds the trace-minimality term).
    pub(crate) fn from_multi_flow_result(
        scoring: &ScoringConfig,
        result: &SimResult,
        mss: u32,
        traffic: Option<&TrafficGenome>,
        score: &mut ScoreScratch,
    ) -> Self {
        let inputs = traffic.map(|t| t.trace_score_inputs(result));
        let mut outcome = EvalOutcome::from_result_reusing(scoring, result, mss, inputs, score);
        let flows = &result.stats.flows;
        outcome.delivered_packets = flows.iter().map(|f| f.summary.delivered_packets).sum();
        outcome.sent_packets = flows.iter().map(|f| f.summary.transmissions).sum();
        outcome.retransmissions = flows.iter().map(|f| f.summary.retransmissions).sum();
        outcome.rto_count = flows.iter().map(|f| f.summary.rto_count).sum();
        outcome.queue_drops = flows.iter().map(|f| f.summary.queue_drops).sum();
        // Aggregate goodput over the *scenario* duration, not the sum of
        // per-active-interval rates: a briefly-active flow can run at link
        // rate during its own interval, and summing those rates would
        // report >100% link utilization (and saturate the behaviour
        // signature's goodput bucket) for time-staggered scenarios.
        outcome.goodput_bps = if result.duration_secs > 0.0 {
            flows
                .iter()
                .map(|f| f.delivery_times.len() as f64)
                .sum::<f64>()
                * mss as f64
                * 8.0
                / result.duration_secs
        } else {
            0.0
        };
        outcome
    }

    /// The scenario-genome name of the multi-flow scorer (kept for the
    /// benchmark harness; [`ModeGenome::score`] is the generic entry point).
    pub fn from_scenario_result_reusing(
        scoring: &ScoringConfig,
        result: &SimResult,
        mss: u32,
        genome: &ScenarioGenome,
        score: &mut ScoreScratch,
    ) -> Self {
        Self::from_multi_flow_result(scoring, result, mss, genome.traffic.as_ref(), score)
    }

    /// The workload-genome name of the multi-flow scorer (kept for the
    /// benchmark harness). Workload genomes carry no traffic sub-genome: the
    /// adversarial pressure comes from the arrival process itself.
    pub fn from_workload_result_reusing(
        scoring: &ScoringConfig,
        result: &SimResult,
        mss: u32,
        _genome: &WorkloadGenome,
        score: &mut ScoreScratch,
    ) -> Self {
        Self::from_multi_flow_result(scoring, result, mss, None, score)
    }
}

/// Reusable per-worker evaluation state — the *generation arena*. The
/// fuzzer creates one per worker thread and threads it through every
/// evaluation that worker performs; after warm-up an entire genome
/// generation is evaluated through this one recycled allocation set:
/// the reused simulator (calendar, pool, endpoints, and the last result's
/// statistics and delivery logs), the flow-spec buffer drained by each
/// run, and the scoring buffers. Scratch reuse never changes results — it
/// only donates capacity; an empty scratch is a fresh evaluation.
#[derive(Default)]
pub struct EvalScratch {
    /// The simulator, which is its own arena: every evaluation loads into
    /// it (see [`Simulation::load`]).
    pub sim: Simulation<CcaDispatch>,
    /// Recycled flow-spec buffer; refilled per genome and drained by
    /// [`Simulation::load`].
    specs: Vec<FlowSpec<CcaDispatch>>,
    /// Recycled CCA-prototype buffer for workload genomes; refilled per
    /// genome and drained into the simulation's prototype list.
    protos: Vec<CcaDispatch>,
    /// Recycled scoring buffers (windowed throughput counts/rates).
    score: ScoreScratch,
}

impl EvalScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refills the flow-spec buffer: every flow gene becomes its own sender
    /// with its own enum-dispatched CC instance (no virtual calls on the
    /// per-ACK path), so mixed-CCA scenarios work.
    pub(crate) fn set_flows<'g>(&mut self, flows: impl IntoIterator<Item = &'g FlowGene>) {
        self.specs.clear();
        self.specs.extend(flows.into_iter().map(|f| FlowSpec {
            cc: f.cca.build(),
            start: f.start,
            stop: f.stop,
        }));
    }

    /// Refills the CCA prototypes dynamic arrivals clone from, one per pool
    /// entry.
    pub(crate) fn set_arrival_pool(&mut self, pool: &[CcaKind]) {
        self.protos.clear();
        self.protos.extend(pool.iter().map(CcaKind::build));
    }
}

/// An object that can evaluate genomes of type `G`.
pub trait Evaluator<G>: Sync + Send {
    /// Runs the scenario described by `genome` and scores it.
    fn evaluate(&self, genome: &G) -> EvalOutcome;

    /// Like [`Evaluator::evaluate`], but may reuse `scratch` buffers across
    /// calls. Must return exactly what `evaluate` returns; the default
    /// implementation ignores the scratch.
    fn evaluate_reusing(&self, genome: &G, scratch: &mut EvalScratch) -> EvalOutcome {
        let _ = scratch;
        self.evaluate(genome)
    }
}

/// The standard simulator-backed evaluator used by every fuzzing mode.
#[derive(Clone, Debug)]
pub struct SimEvaluator {
    /// Base simulation settings (duration, delays, queue, transport options).
    /// The link model and cross-traffic trace inside it are overwritten per
    /// genome.
    pub base: SimConfig,
    /// Which congestion control algorithm is under test.
    pub cca: CcaKind,
    /// How outcomes are scored.
    pub scoring: ScoringConfig,
    /// Fixed bottleneck rate of every mode that does not evolve the link
    /// itself (12 Mbps in the paper).
    pub link_rate_bps: u64,
}

impl SimEvaluator {
    /// Creates an evaluator. Whether a run records its log is decided per
    /// run by [`SimEvaluator::simulate`], not by `base.record_events`.
    pub fn new(base: SimConfig, cca: CcaKind, scoring: ScoringConfig, link_rate_bps: u64) -> Self {
        SimEvaluator {
            base,
            cca,
            scoring,
            link_rate_bps,
        }
    }

    /// The base configuration for one run of `duration`, the starting point
    /// of every [`ModeGenome::lower`].
    pub(crate) fn run_cfg(&self, duration: SimDuration) -> SimConfig {
        let mut cfg = self.base.clone();
        cfg.duration = duration;
        cfg
    }

    /// The single flow of the CCA under test, for the genomes that carry no
    /// flow genes of their own.
    pub(crate) fn primary_flow(&self) -> FlowGene {
        FlowGene {
            cca: self.cca,
            start: SimTime::ZERO,
            stop: None,
        }
    }

    /// Runs one full simulation of `genome` in `scratch`'s arena and lends
    /// out its result until the scratch's next run. With `record_events`
    /// the result's `RunStats::log` holds the run log; a
    /// [`Objective::HighDelay`] evaluator records it regardless, since that
    /// objective scores it. Every heap structure comes from `scratch` and
    /// stays in it, so a warm scratch runs allocation-free and an empty one
    /// (`EvalScratch::new()`) is a fresh run; results are bit-identical
    /// either way.
    pub fn simulate<'s, G: ModeGenome>(
        &self,
        genome: &G,
        scratch: &'s mut EvalScratch,
        record_events: bool,
    ) -> &'s SimResult {
        let mut cfg = genome.lower(self, scratch);
        cfg.record_events =
            record_events || matches!(self.scoring.objective, Objective::HighDelay { .. });
        let sim = &mut scratch.sim;
        sim.load(cfg, &mut scratch.specs, &mut scratch.protos);
        sim.run();
        sim.result()
    }

    /// [`SimEvaluator::simulate`] in a fresh arena, whose result it moves
    /// out: how a one-shot caller (a replay, a report) owns a run.
    pub fn simulate_once<G: ModeGenome>(&self, genome: &G, record_events: bool) -> SimResult {
        let mut scratch = EvalScratch::new();
        self.simulate(genome, &mut scratch, record_events);
        scratch.sim.into_result()
    }

    /// A copy of [`SimEvaluator::simulate`]'s result for a link genome,
    /// statistics only (kept by name for the benchmark harness, like its
    /// three siblings; DESIGN.md "Frozen names").
    pub fn simulate_link_reusing(
        &self,
        genome: &LinkGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        self.simulate(genome, scratch, false).clone()
    }

    /// A copy of [`SimEvaluator::simulate`]'s result for a traffic genome.
    pub fn simulate_traffic_reusing(
        &self,
        genome: &TrafficGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        self.simulate(genome, scratch, false).clone()
    }

    /// A copy of [`SimEvaluator::simulate`]'s result for a scenario genome.
    pub fn simulate_scenario_reusing(
        &self,
        genome: &ScenarioGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        self.simulate(genome, scratch, false).clone()
    }

    /// A copy of [`SimEvaluator::simulate`]'s result for a workload genome.
    pub fn simulate_workload_reusing(
        &self,
        genome: &WorkloadGenome,
        scratch: &mut EvalScratch,
    ) -> SimResult {
        self.simulate(genome, scratch, false).clone()
    }
}

impl<G: ModeGenome> Evaluator<G> for SimEvaluator {
    fn evaluate(&self, genome: &G) -> EvalOutcome {
        self.evaluate_reusing(genome, &mut EvalScratch::new())
    }

    fn evaluate_reusing(&self, genome: &G, scratch: &mut EvalScratch) -> EvalOutcome {
        self.simulate(genome, scratch, false);
        genome.score(self, scratch.sim.result(), &mut scratch.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::Genome;
    use crate::scoring::Objective;
    use crate::topology::TopologyGenome;
    use ccfuzz_netsim::rng::SimRng;

    /// A fresh statistics-only run.
    fn simulate<G: ModeGenome>(eval: &SimEvaluator, genome: &G) -> SimResult {
        eval.simulate_once(genome, false)
    }

    fn evaluator() -> SimEvaluator {
        let mut base = SimConfig::short_default();
        base.duration = SimDuration::from_secs(3);
        SimEvaluator::new(
            base,
            CcaKind::Reno,
            ScoringConfig::low_throughput_default(12e6),
            12_000_000,
        )
    }

    #[test]
    fn empty_traffic_genome_scores_low() {
        let eval = evaluator();
        let genome = TrafficGenome::new(&[], SimDuration::from_secs(3), 1_000);
        let outcome = eval.evaluate(&genome);
        // Reno alone on a clean 12 Mbps link: high goodput, low fitness.
        assert!(outcome.goodput_bps > 6e6, "goodput {}", outcome.goodput_bps);
        assert!(outcome.performance_score < 0.5);
        assert!(
            outcome.trace_score > 0.9,
            "empty trace is maximally minimal"
        );
        assert!(outcome.delivered_packets > 1_000);
    }

    #[test]
    fn heavy_traffic_genome_scores_higher_than_empty() {
        let eval = evaluator();
        let mut rng = SimRng::new(3);
        let duration = SimDuration::from_secs(3);
        let empty = TrafficGenome::new(&[], duration, 4_000);
        let heavy = TrafficGenome::generate(4_000, duration, &mut rng);
        let empty_out = eval.evaluate(&empty);
        let heavy_out = eval.evaluate(&heavy);
        assert!(
            heavy_out.performance_score > empty_out.performance_score,
            "cross traffic must hurt Reno: {} vs {}",
            heavy_out.performance_score,
            empty_out.performance_score
        );
    }

    #[test]
    fn link_genome_evaluation_runs_trace_driven() {
        let eval = evaluator();
        let mut rng = SimRng::new(4);
        let genome = LinkGenome::generate(
            3_000,
            SimDuration::from_secs(3),
            SimDuration::from_millis(50),
            &mut rng,
        );
        let outcome = Evaluator::<LinkGenome>::evaluate(&eval, &genome);
        assert!(outcome.delivered_packets > 0);
        assert!(outcome.delivered_packets <= 3_000);
        assert_eq!(outcome.trace_score, 0.0, "link mode has no trace score");
    }

    #[test]
    fn unsorted_genomes_simulate_as_their_sorted_twins() {
        // A genome holds its timestamps as given; lowering sorts them, so a
        // hand-built out-of-order genome runs exactly as its sorted twin.
        let eval = evaluator();
        let duration = SimDuration::from_secs(3);
        let mut times = LinkGenome::generate(
            2_000,
            duration,
            SimDuration::from_millis(50),
            &mut SimRng::new(5),
        )
        .timestamps();
        let sorted_link = LinkGenome::new(&times, duration, SimDuration::from_millis(50));
        times.swap(10, 1_500);
        times.reverse();
        let unsorted_link = LinkGenome::new(&times, duration, SimDuration::from_millis(50));
        assert!(unsorted_link.validate().is_err());
        assert_eq!(
            simulate(&eval, &unsorted_link).stats.digest(),
            simulate(&eval, &sorted_link).stats.digest()
        );

        let mut times = TrafficGenome::generate(2_000, duration, &mut SimRng::new(6)).timestamps();
        assert!(times.len() > 2);
        let sorted_traffic = TrafficGenome::new(&times, duration, 2_000);
        let half = times.len() / 2;
        times.rotate_left(half);
        let unsorted_traffic = TrafficGenome::new(&times, duration, 2_000);
        assert!(unsorted_traffic.validate().is_err());
        assert_eq!(
            simulate(&eval, &unsorted_traffic).stats.digest(),
            simulate(&eval, &sorted_traffic).stats.digest()
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = evaluator();
        let mut rng = SimRng::new(9);
        let genome = TrafficGenome::generate(2_000, SimDuration::from_secs(3), &mut rng);
        let a = eval.evaluate(&genome);
        let b = eval.evaluate(&genome);
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_matches_fresh_evaluation() {
        // The fuzzer's workers reuse one EvalScratch across many genomes;
        // every reused evaluation must equal the fresh one bit for bit.
        let eval = evaluator();
        let mut rng = SimRng::new(21);
        let mut scratch = EvalScratch::new();
        for _ in 0..4 {
            let genome = TrafficGenome::generate(1_500, SimDuration::from_secs(2), &mut rng);
            let fresh = eval.evaluate(&genome);
            let reused = eval.evaluate_reusing(&genome, &mut scratch);
            assert_eq!(fresh, reused);
            let link = LinkGenome::generate(
                1_500,
                SimDuration::from_secs(2),
                SimDuration::from_millis(50),
                &mut rng,
            );
            let fresh = Evaluator::<LinkGenome>::evaluate(&eval, &link);
            let reused = eval.evaluate_reusing(&link, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn workload_evaluation_scores_and_surfaces_churn() {
        let mut eval = evaluator();
        eval.scoring = ScoringConfig::workload_default(12e6);
        let mut rng = SimRng::new(42);
        let genome = WorkloadGenome::generate(
            CcaKind::Reno,
            &[CcaKind::Reno, CcaKind::Cubic],
            3,
            SimDuration::from_secs(2),
            &mut rng,
        );
        let result = simulate(&eval, &genome);
        let w = result.stats.workload().expect("workload stats present");
        assert!(w.spawned > 0, "arrival process must spawn flows");
        let outcome = Evaluator::<WorkloadGenome>::evaluate(&eval, &genome);
        assert!(
            (0.0..=1.0).contains(&outcome.performance_score),
            "tail-latency score in unit range, got {}",
            outcome.performance_score
        );
        assert!(outcome.delivered_packets > 0, "elephants deliver traffic");
        assert_eq!(outcome.trace_score, 0.0, "workload mode has no trace score");
    }

    #[test]
    fn workload_scratch_reuse_matches_fresh_evaluation() {
        // Warm workload evaluations recycle the slab, the endpoint pools,
        // and the CCA prototype buffer; results must still be bit-identical
        // to a cold evaluation of the same genome.
        let mut eval = evaluator();
        eval.scoring = ScoringConfig::workload_default(12e6);
        let mut rng = SimRng::new(77);
        let mut scratch = EvalScratch::new();
        for _ in 0..4 {
            let genome = WorkloadGenome::generate(
                CcaKind::Reno,
                &[CcaKind::Cubic, CcaKind::Bbr],
                2,
                SimDuration::from_secs(2),
                &mut rng,
            );
            let fresh = Evaluator::<WorkloadGenome>::evaluate(&eval, &genome);
            let reused = eval.evaluate_reusing(&genome, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn workload_recorded_evaluation_logs_flows_by_handle() {
        use ccfuzz_netsim::packet::FlowId;
        use ccfuzz_netsim::workload::is_dynamic;
        let mut eval = evaluator();
        eval.scoring = ScoringConfig::workload_default(12e6);
        let mut rng = SimRng::new(5);
        let genome = WorkloadGenome::generate(
            CcaKind::Reno,
            &[CcaKind::Reno],
            2,
            SimDuration::from_secs(1),
            &mut rng,
        );
        let result = eval.simulate_once(&genome, true);
        assert!(result.stats.workload().is_some());
        // Every record names its flow by raw handle: a static index or a
        // tagged dynamic handle, never a flow-table slot.
        let statics = result.stats.flows.len() as u32;
        let handles: Vec<u32> = (result.stats.log.iter())
            .filter_map(|r| match r.flow {
                FlowId::Cca(raw) => Some(raw),
                FlowId::CrossTraffic => None,
            })
            .collect();
        assert!(handles.iter().any(|&raw| is_dynamic(raw)));
        assert!(handles.iter().all(|&raw| is_dynamic(raw) || raw < statics));
    }

    #[test]
    fn scenario_qdisc_gene_reaches_the_gateway() {
        use crate::scenario::QdiscChoice;
        use ccfuzz_netsim::queue::Qdisc;
        let mut eval = evaluator();
        eval.scoring.objective = Objective::AqmBreakage {
            window: SimDuration::from_millis(500),
            lowest_fraction: 0.2,
            mark_weight: 0.5,
            delay_weight: 0.5,
        };
        let mut rng = SimRng::new(17);
        let mut genome = ScenarioGenome::generate_aqm(
            CcaKind::Reno,
            SimDuration::from_secs(3),
            0,
            QdiscChoice::Red,
            &mut rng,
        );
        // Pin an aggressive marking RED + ECN so the gateway demonstrably
        // acts on the gene.
        genome.qdisc = Some(crate::scenario::QdiscGene {
            discipline: Qdisc::Red {
                min_thresh: 2,
                max_thresh: 40,
                mark_probability: 0.9,
            },
            ecn: true,
            choice: QdiscChoice::Red,
        });
        let result = simulate(&eval, &genome);
        assert!(
            result.stats.hop_counters[0].marked_cca > 0,
            "the genome's RED gateway must mark"
        );
        // Determinism: the AQM path (including RED's seeded lottery) is a
        // pure function of the genome + config.
        let a = Evaluator::<ScenarioGenome>::evaluate(&eval, &genome);
        let b = Evaluator::<ScenarioGenome>::evaluate(&eval, &genome);
        assert_eq!(a, b);
        let mut scratch = EvalScratch::new();
        let c = eval.evaluate_reusing(&genome, &mut scratch);
        assert_eq!(a, c, "scratch reuse is bit-identical on the AQM path");

        // A drop-tail version of the same scenario behaves differently.
        let mut droptail = genome.clone();
        droptail.qdisc = None;
        let d = Evaluator::<ScenarioGenome>::evaluate(&eval, &droptail);
        assert_ne!(a, d, "the qdisc gene must change the outcome");
    }

    #[test]
    fn topology_evaluation_runs_the_hop_chain_deterministically() {
        let mut eval = evaluator();
        eval.scoring.objective = Objective::MultiBottleneck {
            window: SimDuration::from_millis(500),
            lowest_fraction: 0.2,
            cascade_weight: 0.5,
            collapse_weight: 0.5,
        };
        let mut rng = SimRng::new(23);
        let genome = TopologyGenome::generate(
            CcaKind::Reno,
            3,
            SimDuration::from_secs(3),
            200,
            &[CcaKind::Reno],
            &mut rng,
        );
        let result = simulate(&eval, &genome);
        assert_eq!(result.stats.hop_counters.len(), genome.hop_count());
        assert_eq!(result.stats.flows.len(), genome.flow_count());
        assert!(result.stats.flow().delivered_packets > 0);
        let a = Evaluator::<TopologyGenome>::evaluate(&eval, &genome);
        let b = Evaluator::<TopologyGenome>::evaluate(&eval, &genome);
        assert_eq!(a, b, "topology evaluation must be deterministic");
        let mut scratch = EvalScratch::new();
        let c = eval.evaluate_reusing(&genome, &mut scratch);
        assert_eq!(a, c, "scratch reuse is bit-identical on the topology path");
        assert!(a.score.is_finite() && a.score > 0.0);
    }

    #[test]
    fn topology_scoring_caps_the_reference_at_the_chain_bottleneck() {
        let mut eval = evaluator();
        eval.scoring.objective = Objective::MultiBottleneck {
            window: SimDuration::from_millis(500),
            lowest_fraction: 0.2,
            cascade_weight: 0.5,
            collapse_weight: 0.5,
        };
        let mut rng = SimRng::new(5);
        let mut genome = TopologyGenome::generate(
            CcaKind::Reno,
            2,
            SimDuration::from_secs(3),
            0,
            &[CcaKind::Reno],
            &mut rng,
        );
        // A uniformly slow 4 Mbps drop-tail chain...
        for hop in &mut genome.hops {
            hop.rate_bps = 4_000_000;
            hop.qdisc = None;
        }
        // ...must not be rewarded for its low capacity alone: the reference
        // the score normalises by is capped at the chain's bottleneck.
        let capped = Evaluator::<TopologyGenome>::evaluate(&eval, &genome);
        let result = simulate(&eval, &genome);
        let uncapped = EvalOutcome::from_multi_flow_result(
            &eval.scoring,
            &result,
            eval.base.mss,
            genome.traffic.as_ref(),
            &mut ScoreScratch::default(),
        );
        assert!(
            capped.score < uncapped.score,
            "slow-but-healthy chains must not out-score via the fixed \
             12 Mbps reference: capped {} vs uncapped {}",
            capped.score,
            uncapped.score
        );
        // A chain faster than the reference keeps the campaign reference.
        for hop in &mut genome.hops {
            hop.rate_bps = 20_000_000;
        }
        let result = simulate(&eval, &genome);
        let fast = genome.score(&eval, &result, &mut ScoreScratch::default());
        let uncapped = EvalOutcome::from_multi_flow_result(
            &eval.scoring,
            &result,
            eval.base.mss,
            genome.traffic.as_ref(),
            &mut ScoreScratch::default(),
        );
        assert_eq!(fast, uncapped);
    }

    #[test]
    fn scenario_evaluation_runs_multi_flow_and_aggregates() {
        let mut eval = evaluator();
        eval.scoring.objective = Objective::Unfairness {
            starvation_weight: 0.5,
        };
        let mut rng = SimRng::new(11);
        let genome = ScenarioGenome::generate(
            &[CcaKind::Bbr, CcaKind::Reno],
            4,
            SimDuration::from_secs(3),
            0,
            &mut rng,
        );
        let result = simulate(&eval, &genome);
        assert_eq!(result.stats.flows.len(), genome.flow_count());
        let outcome = Evaluator::<ScenarioGenome>::evaluate(&eval, &genome);
        // Aggregates cover all flows: at least as much as flow 0 alone.
        assert!(outcome.delivered_packets >= result.stats.flow().delivered_packets);
        assert!(outcome.score.is_finite());
        // Determinism across evaluations.
        let again = Evaluator::<ScenarioGenome>::evaluate(&eval, &genome);
        assert_eq!(outcome, again);
    }
}
