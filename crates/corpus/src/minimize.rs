//! Trace minimization: shrink a winning trace to an interpretable core.
//!
//! The GA's best traces carry a lot of incidental structure — packets that
//! contribute nothing, bursts with irrelevant micro-timing, outages far
//! longer than needed. Minimization makes findings *explainable* (the paper's
//! Figure 4 traces are readable precisely because they are simple) and
//! cheaper to replay. Two stages, both driven by re-simulation:
//!
//! 1. **Delta debugging** over genome segments (traffic mode): repeatedly try
//!    deleting index ranges, keeping a deletion whenever the re-simulated
//!    score retains at least `retain_fraction` of the original. Granularity
//!    halves each round, AFL-tmin style.
//! 2. **Value-level shrinking**: flatten bursts to even spacing, compress
//!    over-long outages, and (link mode, where packet count is an invariant)
//!    quantize timestamps to the coarsest grid that keeps the score.
//!
//! Every "try these candidates in order, keep the first that holds the
//! score" scan — ddmin's segments, the link grids, hop and elephant drops —
//! goes through one primitive that simulates a batch of candidates at once
//! on the campaign's evaluation pool ([`steal_map`]) and keeps exactly what
//! the serial scan would have kept, charging exactly its budget. Every
//! simulation runs on a worker-owned warm [`EvalScratch`]. The result is the
//! same for any worker count (DESIGN.md "Parallel minimization").
//!
//! Invariants, verified by property tests: the minimized trace never has
//! *more* packets than the input, and its score never drops below
//! `retain_fraction * original_score`.

use crate::finding::{Finding, GenomePayload};
use crate::signature::BehaviorSignature;
use ccfuzz_core::evaluate::{EvalOutcome, EvalScratch, Evaluator, SimEvaluator};
use ccfuzz_core::genome::{Genome, LinkGenome, TrafficGenome};
use ccfuzz_core::mode::ModeGenome;
use ccfuzz_core::pool::{num_threads_default, steal_map};
use ccfuzz_core::scenario::{QdiscGene, ScenarioGenome};
use ccfuzz_core::topology::TopologyGenome;
use ccfuzz_core::workload::WorkloadGenome;
use ccfuzz_netsim::queue::{Qdisc, QueueCapacity};
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_netsim::workload::ArrivalProcess;
use serde::{Deserialize, Serialize};
use std::panic::{self, AssertUnwindSafe};

/// Minimization policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MinimizeConfig {
    /// Fraction of the original score the minimized trace must retain
    /// (0.8 by default — the acceptance bar from the issue).
    pub retain_fraction: f64,
    /// Simulation budget: minimization stops when it has spent this many
    /// evaluations.
    pub max_evaluations: usize,
    /// Delta debugging stops splitting below segments of this many packets.
    pub min_segment: usize,
    /// Gaps below this are considered part of one burst when flattening.
    pub burst_gap: SimDuration,
    /// Outages longer than this are compressed down to this.
    pub outage_cap: SimDuration,
    /// Quantization grids tried for link genomes, coarsest first.
    pub link_grids: [SimDuration; 4],
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            retain_fraction: 0.8,
            max_evaluations: 300,
            min_segment: 1,
            burst_gap: SimDuration::from_millis(2),
            outage_cap: SimDuration::from_millis(500),
            link_grids: [
                SimDuration::from_millis(100),
                SimDuration::from_millis(50),
                SimDuration::from_millis(20),
                SimDuration::from_millis(10),
            ],
        }
    }
}

/// What minimization achieved.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MinimizeReport {
    /// Packets before.
    pub original_packets: u64,
    /// Packets after.
    pub minimized_packets: u64,
    /// Score before (re-measured at the start of minimization).
    pub original_score: f64,
    /// Score after.
    pub minimized_score: f64,
    /// The floor the minimized score had to clear.
    pub threshold: f64,
    /// Simulations spent, as a serial minimizer would have counted them.
    pub evaluations: u64,
    /// Human-readable notes about which passes did what.
    pub passes: Vec<String>,
}

/// The minimizer's workers: one warm [`EvalScratch`] each, so the number of
/// scratches is the number of candidates a scan simulates at once. Scratches
/// only donate capacity, so a pool of any size minimizes to the same genome
/// and [`MinimizeReport`]. Their buffers only ever grow, so create one pool
/// per finding rather than one per corpus.
pub struct MinimizePool {
    scratches: Vec<EvalScratch>,
    discarded: u64,
}

impl MinimizePool {
    /// A pool of `workers` (at least one) cold scratches.
    pub fn new(workers: usize) -> Self {
        MinimizePool {
            scratches: (0..workers.max(1)).map(|_| EvalScratch::new()).collect(),
            discarded: 0,
        }
    }

    /// How many candidates a scan simulates at once.
    pub fn workers(&self) -> usize {
        self.scratches.len()
    }

    /// Speculative simulations run so far whose results a serial scan would
    /// never have looked at: the candidates of a batch behind its first
    /// accepted one. They are the price of the parallelism and are not
    /// counted in [`MinimizeReport::evaluations`].
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

/// The simulation budget of one minimization and the workers it is spent on.
struct Budget<'p> {
    spent: usize,
    max: usize,
    pool: &'p mut MinimizePool,
}

/// What a serial scan over the candidates would have seen: the scores of
/// the candidates it rejected, in order, then the first one it accepted
/// (candidate number `rejected.len()`), if any before the candidates or the
/// budget ran out.
struct Scan<G> {
    rejected: Vec<f64>,
    accepted: Option<(G, f64)>,
}

impl<'p> Budget<'p> {
    /// A budget of `cfg.max_evaluations` of which `spent` are gone.
    fn new(spent: usize, cfg: &MinimizeConfig, pool: &'p mut MinimizePool) -> Self {
        Budget {
            spent,
            max: cfg.max_evaluations.max(1),
            pool,
        }
    }

    fn exhausted(&self) -> bool {
        self.spent >= self.max
    }

    /// Scores one genome on the first worker's warm scratch, charging one
    /// simulation.
    fn score<G, E: Evaluator<G>>(&mut self, evaluator: &E, genome: &G) -> f64 {
        self.spent += 1;
        evaluator
            .evaluate_reusing(genome, &mut self.pool.scratches[0])
            .score
    }

    /// Tries `candidate(0)`, `candidate(1)`, … `candidate(n - 1)` in order
    /// and stops at the first whose score reaches `threshold`, exactly as a
    /// serial loop would, budget checks included. Candidates are simulated
    /// in batches of `min(workers, budget left, candidates left)` on the
    /// evaluation pool; the first accepted candidate in index order wins,
    /// the budget is charged its position + 1 (the whole batch when none is
    /// accepted), and the rest of the batch is discarded. A candidate that
    /// panics re-raises its panic only when every earlier candidate of its
    /// batch was rejected — the serial loop would have reached it — and is
    /// otherwise discarded with its worker's scratch.
    fn first_accepted<G: Send, E: Evaluator<G>>(
        &mut self,
        evaluator: &E,
        threshold: f64,
        n: usize,
        candidate: impl Fn(usize) -> G + Sync,
    ) -> Scan<G> {
        let mut rejected = Vec::new();
        while rejected.len() < n {
            let offset = rejected.len();
            let batch = self
                .pool
                .workers()
                .min(self.max.saturating_sub(self.spent))
                .min(n - offset);
            if batch == 0 {
                break;
            }
            let results = steal_map(&mut self.pool.scratches[..batch], batch, |scratch, k| {
                panic::catch_unwind(AssertUnwindSafe(|| {
                    let genome = candidate(offset + k);
                    let score = evaluator.evaluate_reusing(&genome, scratch).score;
                    (genome, score)
                }))
                .inspect_err(|_| {
                    // The arena may hold half-updated simulator state.
                    *scratch = EvalScratch::new();
                })
            });
            for (k, result) in results.into_iter().enumerate() {
                match result {
                    Ok((genome, score)) if score >= threshold => {
                        self.spent += k + 1;
                        self.pool.discarded += (batch - k - 1) as u64;
                        return Scan {
                            rejected,
                            accepted: Some((genome, score)),
                        };
                    }
                    Ok((_, score)) => rejected.push(score),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            self.spent += batch;
        }
        Scan {
            rejected,
            accepted: None,
        }
    }
}

/// Minimizes a traffic genome against an evaluator.
pub fn minimize_traffic<E: Evaluator<TrafficGenome>>(
    evaluator: &E,
    genome: &TrafficGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (TrafficGenome, MinimizeReport) {
    let mut budget = Budget::new(0, cfg, pool);
    let original_score = budget.score(evaluator, genome);
    let threshold = original_score * cfg.retain_fraction;
    let mut current = genome.clone();
    let mut current_score = original_score;
    let mut passes = Vec::new();

    // Stage 1: delta debugging over index segments.
    let removed = ddmin_pass(
        evaluator,
        &mut current,
        &mut current_score,
        threshold,
        cfg,
        &mut budget,
    );
    passes.push(format!(
        "ddmin: removed {removed} of {} packets ({} evals)",
        genome.packet_count(),
        budget.spent
    ));

    // Stage 2: value-level shrinking, each step applied to what the previous
    // one kept. Order matters: flattening first makes outage compression
    // see clean gaps.
    for name in ["flatten-bursts", "shorten-outages"] {
        if budget.exhausted() {
            break;
        }
        let candidate = if name == "flatten-bursts" {
            current.flattened_bursts(cfg.burst_gap)
        } else {
            current.shortened_outages(cfg.outage_cap)
        };
        if candidate.timestamps == current.timestamps {
            continue;
        }
        let score = budget.score(evaluator, &candidate);
        if score >= threshold {
            passes.push(format!("{name}: accepted (score {score:.6})"));
            current = candidate;
            current_score = score;
        } else {
            passes.push(format!(
                "{name}: rejected (score {score:.6} < {threshold:.6})"
            ));
        }
    }

    debug_assert!(current.packet_count() <= genome.packet_count());
    let report = MinimizeReport {
        original_packets: genome.packet_count() as u64,
        minimized_packets: current.packet_count() as u64,
        original_score,
        minimized_score: current_score,
        threshold,
        evaluations: budget.spent as u64,
        passes,
    };
    (current, report)
}

/// Greedy delta-debugging: try deleting each of `n` segments; on success
/// restart at the same granularity, otherwise halve segment size.
fn ddmin_pass<E: Evaluator<TrafficGenome>>(
    evaluator: &E,
    current: &mut TrafficGenome,
    current_score: &mut f64,
    threshold: f64,
    cfg: &MinimizeConfig,
    budget: &mut Budget<'_>,
) -> usize {
    let start_count = current.packet_count();
    let mut num_segments = 2usize;
    loop {
        let n = current.packet_count();
        if n == 0 || budget.exhausted() {
            break;
        }
        let seg_len = n.div_ceil(num_segments);
        if seg_len < cfg.min_segment.max(1) {
            break;
        }
        let mut any_removed = false;
        let mut seg = 0usize;
        loop {
            let count = current.packet_count();
            let segments = count.div_ceil(seg_len).saturating_sub(seg);
            let scan = budget.first_accepted(evaluator, threshold, segments, |i| {
                let lo = (seg + i) * seg_len;
                current.without_index_range(lo..(lo + seg_len).min(count))
            });
            // Do not advance past an accepted segment: the segment that
            // slides into its position is tried next.
            seg += scan.rejected.len();
            let Some((candidate, score)) = scan.accepted else {
                break;
            };
            *current = candidate;
            *current_score = score;
            any_removed = true;
        }
        if !any_removed {
            if seg_len == 1 {
                break;
            }
            num_segments = num_segments.saturating_mul(2);
        }
    }
    start_count - current.packet_count()
}

/// Minimizes a link genome. Packet count is a link-genome invariant (it
/// defines the average bandwidth), so shrinking is purely value-level:
/// the coarsest acceptable quantization grid, then outage compression.
pub fn minimize_link<E: Evaluator<LinkGenome>>(
    evaluator: &E,
    genome: &LinkGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (LinkGenome, MinimizeReport) {
    let mut budget = Budget::new(0, cfg, pool);
    let original_score = budget.score(evaluator, genome);
    let threshold = original_score * cfg.retain_fraction;
    let mut current = genome.clone();
    let mut current_score = original_score;
    let mut passes = Vec::new();

    // The coarsest acceptable grid wins; a grid the trace already sits on
    // is not worth a simulation.
    let grids: Vec<SimDuration> = cfg
        .link_grids
        .into_iter()
        .filter(|&grid| current.quantized(grid).timestamps != current.timestamps)
        .collect();
    let scan = budget.first_accepted(evaluator, threshold, grids.len(), |i| {
        current.quantized(grids[i])
    });
    for (grid, score) in grids.iter().zip(&scan.rejected) {
        passes.push(format!(
            "quantize-{}ms: rejected (score {score:.6} < {threshold:.6})",
            grid.as_millis()
        ));
    }
    if let Some((candidate, score)) = scan.accepted {
        passes.push(format!(
            "quantize-{}ms: accepted (score {score:.6})",
            grids[scan.rejected.len()].as_millis()
        ));
        current = candidate;
        current_score = score;
    }

    if !budget.exhausted() {
        let candidate = current.shortened_outages(cfg.outage_cap);
        if candidate.timestamps != current.timestamps {
            let score = budget.score(evaluator, &candidate);
            if score >= threshold {
                passes.push(format!("shorten-outages: accepted (score {score:.6})"));
                current = candidate;
                current_score = score;
            } else {
                passes.push(format!(
                    "shorten-outages: rejected (score {score:.6} < {threshold:.6})"
                ));
            }
        }
    }

    debug_assert_eq!(current.packet_count(), genome.packet_count());
    let report = MinimizeReport {
        original_packets: genome.packet_count() as u64,
        minimized_packets: current.packet_count() as u64,
        original_score,
        minimized_score: current_score,
        threshold,
        evaluations: budget.spent as u64,
        passes,
    };
    (current, report)
}

/// Adapts a [`SimEvaluator`] so the traffic-minimization passes can shrink
/// the cross-traffic sub-genome of a scenario or topology: every candidate
/// traffic genome is re-embedded into the (otherwise fixed) host genome
/// before evaluation.
struct EmbeddedTraffic<'a, G> {
    evaluator: &'a SimEvaluator,
    host: &'a G,
    embed: fn(&G, &TrafficGenome) -> G,
}

impl<G: ModeGenome> Evaluator<TrafficGenome> for EmbeddedTraffic<'_, G> {
    fn evaluate(&self, genome: &TrafficGenome) -> EvalOutcome {
        self.evaluate_reusing(genome, &mut EvalScratch::new())
    }

    fn evaluate_reusing(&self, genome: &TrafficGenome, scratch: &mut EvalScratch) -> EvalOutcome {
        self.evaluator
            .evaluate_reusing(&(self.embed)(self.host, genome), scratch)
    }
}

/// The first stage of scenario and topology minimization: shrink the host
/// genome's cross-traffic sub-genome, when it has one, with the full traffic
/// ddmin + value-shrinking pipeline against the host's simulation.
/// Otherwise one simulation anchors the score and the retention threshold,
/// and the pass log says that the `host_name` had nothing to shrink.
fn minimize_cross_traffic<G: ModeGenome>(
    evaluator: &SimEvaluator,
    host: &G,
    host_name: &str,
    traffic: Option<&TrafficGenome>,
    embed: fn(&G, &TrafficGenome) -> G,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (G, MinimizeReport) {
    match traffic {
        Some(traffic) => {
            let wrapper = EmbeddedTraffic {
                evaluator,
                host,
                embed,
            };
            let (minimized, report) = minimize_traffic(&wrapper, traffic, cfg, pool);
            (embed(host, &minimized), report)
        }
        None => {
            let score = Budget::new(0, cfg, pool).score(evaluator, host);
            (
                host.clone(),
                MinimizeReport {
                    original_packets: 0,
                    minimized_packets: 0,
                    original_score: score,
                    minimized_score: score,
                    threshold: score * cfg.retain_fraction,
                    evaluations: 1,
                    passes: vec![format!(
                        "{host_name} has no cross traffic; nothing to shrink"
                    )],
                },
            )
        }
    }
}

/// A strictly milder (closer-to-drop-tail) version of a qdisc gene: RED
/// thresholds move halfway toward the queue capacity and the mark
/// probability halves; CoDel's target and interval double. Returns `None`
/// when the gene cannot get meaningfully milder.
fn milder_qdisc(gene: &QdiscGene, capacity_packets: usize) -> Option<QdiscGene> {
    let mut out = *gene;
    match &mut out.discipline {
        Qdisc::DropTail => return None,
        Qdisc::Red {
            min_thresh,
            max_thresh,
            mark_probability,
        } => {
            let new_min = *min_thresh + (capacity_packets.saturating_sub(*min_thresh)) / 2;
            let new_max =
                (*max_thresh + (capacity_packets.saturating_sub(*max_thresh)) / 2).max(new_min + 1);
            let new_p = (*mark_probability / 2.0).max(0.01);
            if new_min == *min_thresh && new_max == *max_thresh && new_p >= *mark_probability {
                return None;
            }
            *min_thresh = new_min;
            *max_thresh = new_max;
            *mark_probability = new_p;
        }
        Qdisc::CoDel { target, interval } => {
            let cap = SimDuration::from_millis(1_000);
            if *target >= cap && *interval >= cap {
                return None;
            }
            *target = (*target + *target).min(cap);
            *interval = (*interval + *interval).min(cap);
        }
    }
    Some(out)
}

/// Shrinks a scenario's qdisc gene toward drop-tail: first the maximal step
/// (no qdisc gene at all — plain drop-tail, no ECN), then successively
/// milder parameter settings, keeping each step only when the re-simulated
/// score retains the threshold.
fn qdisc_shrink_pass(
    evaluator: &SimEvaluator,
    current: &mut ScenarioGenome,
    current_score: &mut f64,
    threshold: f64,
    budget: &mut Budget<'_>,
    passes: &mut Vec<String>,
) {
    if current.qdisc.is_none() || budget.exhausted() {
        return;
    }
    let capacity_packets = match evaluator.base.queue_capacity {
        QueueCapacity::Packets(n) => n,
        QueueCapacity::Bytes(b) => (b / evaluator.base.mss.max(1) as u64).max(1) as usize,
    };

    // Maximal shrink: the behaviour survives on a plain drop-tail gateway.
    let mut candidate = current.clone();
    candidate.qdisc = None;
    let score = budget.score(evaluator, &candidate);
    if score >= threshold {
        passes.push(format!("qdisc->droptail: accepted (score {score:.6})"));
        *current = candidate;
        *current_score = score;
        return;
    }
    passes.push(format!(
        "qdisc->droptail: rejected (score {score:.6} < {threshold:.6})"
    ));

    // Stepwise milding of the discipline parameters.
    while !budget.exhausted() {
        let Some(gene) = &current.qdisc else { break };
        let Some(milder) = milder_qdisc(gene, capacity_packets) else {
            break;
        };
        let mut candidate = current.clone();
        candidate.qdisc = Some(milder);
        let score = budget.score(evaluator, &candidate);
        let label = milder.discipline.label();
        if score >= threshold {
            passes.push(format!("qdisc-milder {label}: accepted (score {score:.6})"));
            *current = candidate;
            *current_score = score;
        } else {
            passes.push(format!(
                "qdisc-milder {label}: rejected (score {score:.6} < {threshold:.6})"
            ));
            break;
        }
    }
}

/// Minimizes a scenario genome. Flow genes are the scenario's substance and
/// stay; what shrinks is the cross-traffic helper (when present), using the
/// full traffic ddmin + value-shrinking pipeline against the multi-flow
/// simulation, and then the qdisc gene (when present), stepped toward
/// drop-tail as far as the score allows.
pub fn minimize_scenario(
    evaluator: &SimEvaluator,
    genome: &ScenarioGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (ScenarioGenome, MinimizeReport) {
    let (mut minimized, mut report) = minimize_cross_traffic(
        evaluator,
        genome,
        "scenario",
        genome.traffic.as_ref(),
        |scenario, traffic| ScenarioGenome {
            traffic: Some(traffic.clone()),
            ..scenario.clone()
        },
        cfg,
        pool,
    );
    let mut budget = Budget::new(report.evaluations as usize, cfg, pool);
    let mut score = report.minimized_score;
    qdisc_shrink_pass(
        evaluator,
        &mut minimized,
        &mut score,
        report.threshold,
        &mut budget,
        &mut report.passes,
    );
    report.minimized_score = score;
    report.evaluations = budget.spent as u64;
    (minimized, report)
}

/// Drops hops one at a time (re-scanning from the front after every
/// success), keeping a deletion whenever the re-simulated score retains the
/// threshold: the minimized chain is the shortest prefix of bottlenecks the
/// behaviour actually needs, ideally the single-hop dumbbell.
fn hop_drop_pass<E: Evaluator<TopologyGenome>>(
    evaluator: &E,
    current: &mut TopologyGenome,
    current_score: &mut f64,
    threshold: f64,
    budget: &mut Budget<'_>,
    passes: &mut Vec<String>,
) {
    let start_hops = current.hop_count();
    while current.hop_count() > 1 {
        let scan = budget.first_accepted(evaluator, threshold, current.hop_count(), |at| {
            current
                .without_hop(at)
                .expect("a chain of two or more hops can drop any one")
        });
        let Some((candidate, score)) = scan.accepted else {
            break;
        };
        // Rescan from the front: removing this hop changes the dynamics, so
        // a hop whose removal was rejected earlier may drop cleanly now.
        *current = candidate;
        *current_score = score;
    }
    passes.push(format!(
        "drop-hops: {} -> {} hops",
        start_hops,
        current.hop_count()
    ));
}

/// One step of relaxing hop `at` toward the paper's single-bottleneck
/// baseline: drop its qdisc, then widen its buffer to the paper's 100
/// packets, then raise its rate to the campaign's reference rate, then
/// settle its delay on the paper's 20 ms. Returns `None` once the hop is
/// fully baseline.
fn relaxed_hop(
    genome: &TopologyGenome,
    at: usize,
    baseline_rate_bps: u64,
) -> Option<(TopologyGenome, &'static str)> {
    let hop = &genome.hops[at];
    let mut child = genome.clone();
    if hop.qdisc.is_some() {
        child.hops[at].qdisc = None;
        return Some((child, "qdisc->droptail"));
    }
    if hop.buffer_packets < 100 {
        child.hops[at].buffer_packets = 100;
        return Some((child, "buffer->100"));
    }
    if hop.rate_bps < baseline_rate_bps {
        child.hops[at].rate_bps = baseline_rate_bps;
        return Some((child, "rate->baseline"));
    }
    if hop.delay != SimDuration::from_millis(20) {
        child.hops[at].delay = SimDuration::from_millis(20);
        return Some((child, "delay->20ms"));
    }
    None
}

/// Relaxes every surviving hop's parameters toward the single-hop baseline
/// (drop-tail, 100-packet buffer, the campaign's link rate, 20 ms delay),
/// keeping each step only while the score holds: whatever stays tightened
/// in the minimized finding is what the behaviour genuinely depends on.
fn hop_relax_pass(
    evaluator: &SimEvaluator,
    current: &mut TopologyGenome,
    current_score: &mut f64,
    threshold: f64,
    budget: &mut Budget<'_>,
    passes: &mut Vec<String>,
) {
    let baseline_rate = evaluator.link_rate_bps;
    for at in 0..current.hop_count() {
        while !budget.exhausted() {
            let Some((candidate, step)) = relaxed_hop(current, at, baseline_rate) else {
                break;
            };
            let score = budget.score(evaluator, &candidate);
            if score >= threshold {
                passes.push(format!(
                    "relax hop {at} {step}: accepted (score {score:.6})"
                ));
                *current = candidate;
                *current_score = score;
            } else {
                passes.push(format!(
                    "relax hop {at} {step}: rejected (score {score:.6} < {threshold:.6})"
                ));
                break;
            }
        }
    }
}

/// Minimizes a topology genome. The hop chain is the finding's substance,
/// so minimization pulls it toward the single-hop paper baseline from two
/// directions — dropping whole hops, then relaxing the survivors' rate /
/// buffer / delay / qdisc — and shrinks the cross-traffic helper with the
/// full traffic ddmin + value-shrinking pipeline against the multi-hop
/// simulation.
pub fn minimize_topology(
    evaluator: &SimEvaluator,
    genome: &TopologyGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (TopologyGenome, MinimizeReport) {
    let (mut minimized, mut report) = minimize_cross_traffic(
        evaluator,
        genome,
        "topology",
        genome.traffic.as_ref(),
        |topology, traffic| TopologyGenome {
            traffic: Some(traffic.clone()),
            ..topology.clone()
        },
        cfg,
        pool,
    );
    let mut budget = Budget::new(report.evaluations as usize, cfg, pool);
    let mut score = report.minimized_score;
    hop_drop_pass(
        evaluator,
        &mut minimized,
        &mut score,
        report.threshold,
        &mut budget,
        &mut report.passes,
    );
    hop_relax_pass(
        evaluator,
        &mut minimized,
        &mut score,
        report.threshold,
        &mut budget,
        &mut report.passes,
    );
    debug_assert!(minimized.hop_count() <= genome.hop_count());
    report.minimized_score = score;
    report.evaluations = budget.spent as u64;
    (minimized, report)
}

/// Halves a workload's arrival rate, flooring at 1 flow/s. Returns `None`
/// once the rate cannot meaningfully drop further.
fn thinned_arrivals(genome: &WorkloadGenome) -> Option<WorkloadGenome> {
    let rate = genome.arrivals.process.rate_per_sec();
    let new_rate = rate / 2.0;
    if new_rate < 1.0 {
        return None;
    }
    let mut child = genome.clone();
    match &mut child.arrivals.process {
        ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec = new_rate,
        ArrivalProcess::OnOff { rate_per_sec, .. } => *rate_per_sec = new_rate,
    }
    Some(child)
}

/// Keeps halving the arrival rate while the score holds: the minimized
/// workload arrives only as fast as the behaviour actually needs.
fn arrival_thin_pass(
    evaluator: &SimEvaluator,
    current: &mut WorkloadGenome,
    current_score: &mut f64,
    threshold: f64,
    budget: &mut Budget<'_>,
    passes: &mut Vec<String>,
) {
    while !budget.exhausted() {
        let Some(candidate) = thinned_arrivals(current) else {
            break;
        };
        let score = budget.score(evaluator, &candidate);
        let rate = candidate.arrivals.process.rate_per_sec();
        if score >= threshold {
            passes.push(format!(
                "thin-arrivals {rate:.1}/s: accepted (score {score:.6})"
            ));
            *current = candidate;
            *current_score = score;
        } else {
            passes.push(format!(
                "thin-arrivals {rate:.1}/s: rejected (score {score:.6} < {threshold:.6})"
            ));
            break;
        }
    }
}

/// Collapses the flow-size distribution from the top: repeatedly halve the
/// largest size class toward the smallest, keeping each step only while the
/// score holds. A tail-latency finding that survives with mice-only sizes is
/// far easier to reason about than one hiding behind a heavy tail.
fn size_collapse_pass(
    evaluator: &SimEvaluator,
    current: &mut WorkloadGenome,
    current_score: &mut f64,
    threshold: f64,
    budget: &mut Budget<'_>,
    passes: &mut Vec<String>,
) {
    while !budget.exhausted() {
        let size = current.arrivals.size;
        let new_max = (size.max_packets / 2).max(size.min_packets);
        if new_max == size.max_packets {
            break;
        }
        let mut candidate = current.clone();
        candidate.arrivals.size.max_packets = new_max;
        let score = budget.score(evaluator, &candidate);
        if score >= threshold {
            passes.push(format!(
                "collapse-sizes max={new_max}pkt: accepted (score {score:.6})"
            ));
            *current = candidate;
            *current_score = score;
        } else {
            passes.push(format!(
                "collapse-sizes max={new_max}pkt: rejected (score {score:.6} < {threshold:.6})"
            ));
            break;
        }
    }
}

/// Drops background elephants one at a time (never the incumbent at index
/// 0, re-scanning after every success), keeping each removal while the
/// score holds: the minimized elephant mix is the smallest background the
/// tail inflation actually needs.
fn elephant_drop_pass<E: Evaluator<WorkloadGenome>>(
    evaluator: &E,
    current: &mut WorkloadGenome,
    current_score: &mut f64,
    threshold: f64,
    budget: &mut Budget<'_>,
    passes: &mut Vec<String>,
) {
    let start_elephants = current.elephant_count();
    while current.elephant_count() > 1 {
        let scan = budget.first_accepted(evaluator, threshold, current.elephant_count() - 1, |i| {
            let mut candidate = current.clone();
            candidate.elephants.remove(1 + i);
            candidate
        });
        let Some((candidate, score)) = scan.accepted else {
            break;
        };
        // Rescan behind the incumbent: removing one elephant changes the
        // contention, so earlier rejections may drop cleanly now.
        *current = candidate;
        *current_score = score;
    }
    passes.push(format!(
        "drop-elephants: {} -> {} elephants",
        start_elephants,
        current.elephant_count()
    ));
}

/// Minimizes a workload genome. The arrival genes are the finding's
/// substance, so minimization pulls them toward the quietest workload that
/// still shows the behaviour: halve the arrival rate (fewer churning flows),
/// collapse the size classes from the top (lighter tail), and drop
/// background elephants, each step kept only while the re-simulated score
/// retains the threshold.
pub fn minimize_workload(
    evaluator: &SimEvaluator,
    genome: &WorkloadGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (WorkloadGenome, MinimizeReport) {
    let mut budget = Budget::new(0, cfg, pool);
    let original_score = budget.score(evaluator, genome);
    let threshold = original_score * cfg.retain_fraction;
    let mut current = genome.clone();
    let mut current_score = original_score;
    let mut passes = Vec::new();

    // Order matters: thinning arrivals first leaves fewer flows for the
    // size and elephant passes to re-simulate, so the budget goes further.
    arrival_thin_pass(
        evaluator,
        &mut current,
        &mut current_score,
        threshold,
        &mut budget,
        &mut passes,
    );
    size_collapse_pass(
        evaluator,
        &mut current,
        &mut current_score,
        threshold,
        &mut budget,
        &mut passes,
    );
    elephant_drop_pass(
        evaluator,
        &mut current,
        &mut current_score,
        threshold,
        &mut budget,
        &mut passes,
    );

    debug_assert!(current.elephant_count() <= genome.elephant_count());
    let report = MinimizeReport {
        original_packets: genome.packet_count() as u64,
        minimized_packets: current.packet_count() as u64,
        original_score,
        minimized_score: current_score,
        threshold,
        evaluations: budget.spent as u64,
        passes,
    };
    (current, report)
}

/// Minimizes a stored finding: shrinks its genome with the finding's own
/// evaluator on one worker per available core, then refreshes the outcome,
/// signature, digest and provenance.
pub fn minimize_finding(finding: &Finding, cfg: &MinimizeConfig) -> (Finding, MinimizeReport) {
    minimize_finding_with(finding, cfg, &mut MinimizePool::new(num_threads_default()))
}

/// [`minimize_finding`] on a caller-owned pool, which afterwards tells what
/// the speculation cost ([`MinimizePool::discarded`]).
pub fn minimize_finding_with(
    finding: &Finding,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (Finding, MinimizeReport) {
    let evaluator = finding.evaluator();
    let mut out = finding.clone();
    let report = match &finding.genome {
        GenomePayload::Traffic(genome) => {
            let (minimized, report) = minimize_traffic(&evaluator, genome, cfg, pool);
            out.genome = GenomePayload::Traffic(minimized);
            report
        }
        GenomePayload::Link(genome) => {
            let (minimized, report) = minimize_link(&evaluator, genome, cfg, pool);
            out.genome = GenomePayload::Link(minimized);
            report
        }
        GenomePayload::Scenario(genome) => {
            let (minimized, report) = minimize_scenario(&evaluator, genome, cfg, pool);
            out.genome = GenomePayload::Scenario(minimized);
            report
        }
        GenomePayload::Topology(genome) => {
            let (minimized, report) = minimize_topology(&evaluator, genome, cfg, pool);
            out.genome = GenomePayload::Topology(minimized);
            report
        }
        GenomePayload::Workload(genome) => {
            let (minimized, report) = minimize_workload(&evaluator, genome, cfg, pool);
            out.genome = GenomePayload::Workload(minimized);
            report
        }
    };
    // One final simulation refreshes the outcome, the digest and (for
    // scenarios) the per-flow fairness summary.
    let (outcome, digest, fairness) = out.replay_full(None);
    out.outcome = outcome;
    out.behavior_digest = digest;
    out.fairness = fairness;
    out.signature = BehaviorSignature::from_outcome(&out.outcome, out.link_rate_bps as f64);
    // The id names the behaviour, so it follows the refreshed signature.
    // Minimization preserves the behaviour up to bucket granularity, so the
    // id usually survives; when a bucket boundary is crossed, store the
    // result with `Corpus::update`, which removes the old file and applies
    // the keep-the-stronger dedup policy under the new id.
    out.id = crate::finding::finding_id(out.cca, out.mode, &out.signature);
    out.provenance.minimized = true;
    out.provenance.original_score = report.original_score;
    out.provenance.original_packets = report.original_packets;
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_cca::CcaKind;
    use ccfuzz_core::scenario::FlowGene;
    use ccfuzz_netsim::rng::SimRng;
    use ccfuzz_netsim::time::SimTime;
    use std::fmt::Debug;

    /// A synthetic evaluator: score = fraction of "payload" packets present
    /// in the window [1s, 2s], plus noise packets contributing nothing.
    /// Minimization should strip everything outside the window.
    struct WindowEvaluator;

    impl Evaluator<TrafficGenome> for WindowEvaluator {
        fn evaluate(&self, genome: &TrafficGenome) -> EvalOutcome {
            let in_window = genome
                .timestamps
                .iter()
                .filter(|t| {
                    **t >= SimTime::from_millis(1_000) && **t <= SimTime::from_millis(2_000)
                })
                .count();
            EvalOutcome {
                score: in_window as f64,
                ..Default::default()
            }
        }
    }

    fn genome_with(times_ms: &[u64]) -> TrafficGenome {
        TrafficGenome {
            timestamps: times_ms
                .iter()
                .map(|&ms| SimTime::from_millis(ms))
                .collect(),
            duration: SimDuration::from_secs(5),
            max_packets: 10_000,
        }
    }

    #[test]
    fn ddmin_strips_irrelevant_packets() {
        // 6 payload packets inside the window, 14 noise packets outside.
        let mut times: Vec<u64> = (0..14).map(|i| 100 + i * 50).collect(); // 100..750ms
        times.extend([1_100, 1_200, 1_300, 1_400, 1_500, 1_600]);
        times.sort_unstable();
        let genome = genome_with(&times);

        let cfg = MinimizeConfig {
            retain_fraction: 1.0,
            ..Default::default()
        };
        let (min, report) =
            minimize_traffic(&WindowEvaluator, &genome, &cfg, &mut MinimizePool::new(1));
        assert_eq!(
            min.packet_count(),
            6,
            "only the window packets survive: {report:?}"
        );
        assert_eq!(report.minimized_score, report.original_score);
        assert_eq!(report.original_packets, 20);
        assert_eq!(report.minimized_packets, 6);
        min.validate().unwrap();
    }

    #[test]
    fn retention_threshold_allows_partial_shrink() {
        // Score = packets in window; retaining 50% allows dropping half the
        // payload.
        let times: Vec<u64> = (0..8).map(|i| 1_100 + i * 100).collect();
        let genome = genome_with(&times);
        let cfg = MinimizeConfig {
            retain_fraction: 0.5,
            ..Default::default()
        };
        let (min, report) =
            minimize_traffic(&WindowEvaluator, &genome, &cfg, &mut MinimizePool::new(1));
        assert!(min.packet_count() <= genome.packet_count());
        assert!(report.minimized_score >= report.threshold, "{report:?}");
        assert!(min.packet_count() >= 4, "cannot shrink below the threshold");
    }

    #[test]
    fn budget_is_respected() {
        let times: Vec<u64> = (0..200).map(|i| i * 20).collect();
        let genome = genome_with(&times);
        let cfg = MinimizeConfig {
            max_evaluations: 10,
            ..Default::default()
        };
        let (_, report) =
            minimize_traffic(&WindowEvaluator, &genome, &cfg, &mut MinimizePool::new(1));
        assert!(report.evaluations <= 10, "{report:?}");
    }

    #[test]
    fn empty_genome_is_a_fixed_point() {
        let genome = genome_with(&[]);
        let (min, report) = minimize_traffic(
            &WindowEvaluator,
            &genome,
            &MinimizeConfig::default(),
            &mut MinimizePool::new(1),
        );
        assert_eq!(min.packet_count(), 0);
        assert_eq!(report.minimized_packets, 0);
    }

    /// Link evaluator scoring how much service is missing from [0, 1s) — an
    /// "outage depth" toy objective that survives quantization.
    struct OutageEvaluator;

    impl Evaluator<LinkGenome> for OutageEvaluator {
        fn evaluate(&self, genome: &LinkGenome) -> EvalOutcome {
            let early = genome
                .timestamps
                .iter()
                .filter(|t| **t < SimTime::from_millis(1_000))
                .count();
            EvalOutcome {
                score: 1.0 / (1.0 + early as f64),
                ..Default::default()
            }
        }
    }

    #[test]
    fn link_minimization_preserves_count_and_threshold() {
        let mut rng = SimRng::new(7);
        let genome = LinkGenome::generate(
            2_000,
            SimDuration::from_secs(5),
            SimDuration::from_millis(50),
            &mut rng,
        );
        let cfg = MinimizeConfig {
            retain_fraction: 0.8,
            ..Default::default()
        };
        let (min, report) =
            minimize_link(&OutageEvaluator, &genome, &cfg, &mut MinimizePool::new(1));
        assert_eq!(min.packet_count(), genome.packet_count());
        assert!(report.minimized_score >= report.threshold, "{report:?}");
        min.validate().unwrap();
    }

    /// Runs `minimize` on a one-worker pool and on pools of 2, 3 and 8, and
    /// asserts every result equals the serial one, which discards nothing.
    fn same_at_every_worker_count<T: PartialEq + Debug>(
        minimize: impl Fn(&mut MinimizePool) -> T,
    ) -> T {
        let mut serial_pool = MinimizePool::new(1);
        let serial = minimize(&mut serial_pool);
        assert_eq!(serial_pool.discarded(), 0);
        for workers in [2, 3, 8] {
            let mut pool = MinimizePool::new(workers);
            assert_eq!(minimize(&mut pool), serial, "{workers} workers");
        }
        serial
    }

    fn budget_cfg(max_evaluations: usize, retain_fraction: f64) -> MinimizeConfig {
        MinimizeConfig {
            max_evaluations,
            retain_fraction,
            ..Default::default()
        }
    }

    #[test]
    fn speculation_matches_the_serial_traffic_and_link_scans() {
        let mut times: Vec<u64> = (0..14).map(|i| 100 + i * 50).collect();
        times.extend([1_100, 1_200, 1_300, 1_400, 1_500, 1_600]);
        let traffic = genome_with(&times);
        let link = LinkGenome::generate(
            400,
            SimDuration::from_secs(5),
            SimDuration::from_millis(50),
            &mut SimRng::new(7),
        );
        // Budgets 1..=12 run out inside batches of every size tried.
        for budget in 1..=12 {
            for retain in [1.0, 0.5] {
                let cfg = budget_cfg(budget, retain);
                let (_, report) = same_at_every_worker_count(|pool| {
                    minimize_traffic(&WindowEvaluator, &traffic, &cfg, pool)
                });
                assert!(report.evaluations <= budget as u64, "{report:?}");
                same_at_every_worker_count(|pool| {
                    minimize_link(&OutageEvaluator, &link, &cfg, pool)
                });
            }
        }
        // With room to finish, the parallel scans still shrink to the core.
        let (min, _) = same_at_every_worker_count(|pool| {
            minimize_traffic(&WindowEvaluator, &traffic, &budget_cfg(300, 1.0), pool)
        });
        assert_eq!(min.packet_count(), 6);
    }

    /// Scores a topology by how many of its hops are slower than 10 Mbps.
    struct SlowHops;

    impl Evaluator<TopologyGenome> for SlowHops {
        fn evaluate(&self, genome: &TopologyGenome) -> EvalOutcome {
            EvalOutcome {
                score: genome
                    .hops
                    .iter()
                    .filter(|h| h.rate_bps < 10_000_000)
                    .count() as f64,
                ..Default::default()
            }
        }
    }

    /// Scores a workload by how many of its elephants run CUBIC.
    struct CubicElephants;

    impl Evaluator<WorkloadGenome> for CubicElephants {
        fn evaluate(&self, genome: &WorkloadGenome) -> EvalOutcome {
            EvalOutcome {
                score: genome
                    .elephants
                    .iter()
                    .filter(|e| e.cca == CcaKind::Cubic)
                    .count() as f64,
                ..Default::default()
            }
        }
    }

    #[test]
    fn speculation_matches_the_serial_hop_and_elephant_drops() {
        let mut rng = SimRng::new(3);
        let mut topology = TopologyGenome::generate(
            CcaKind::Reno,
            6,
            SimDuration::from_secs(2),
            0,
            &[CcaKind::Reno],
            &mut rng,
        );
        for (hop, mbps) in topology.hops.iter_mut().zip([5, 20, 20, 5, 20, 5]) {
            hop.rate_bps = mbps * 1_000_000;
        }
        let mut workload = WorkloadGenome::generate(
            CcaKind::Reno,
            &[CcaKind::Reno],
            8,
            SimDuration::from_secs(2),
            &mut rng,
        );
        for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Reno, CcaKind::Cubic] {
            workload.elephants.push(FlowGene::whole_run(cca));
        }
        for max_evaluations in 1..=12 {
            let cfg = budget_cfg(max_evaluations, 1.0);
            let hops = same_at_every_worker_count(|pool| {
                let mut budget = Budget::new(0, &cfg, pool);
                let (mut current, mut score, mut passes) = (topology.clone(), 3.0, Vec::new());
                hop_drop_pass(
                    &SlowHops,
                    &mut current,
                    &mut score,
                    3.0,
                    &mut budget,
                    &mut passes,
                );
                (current, score, passes, budget.spent)
            });
            let elephants = same_at_every_worker_count(|pool| {
                let mut budget = Budget::new(0, &cfg, pool);
                let (mut current, mut score, mut passes) = (workload.clone(), 2.0, Vec::new());
                elephant_drop_pass(
                    &CubicElephants,
                    &mut current,
                    &mut score,
                    2.0,
                    &mut budget,
                    &mut passes,
                );
                (current, score, passes, budget.spent)
            });
            if max_evaluations == 12 {
                assert_eq!(hops.0.hop_count(), 3, "only the slow hops stay");
                assert_eq!(elephants.0.elephant_count(), 3, "incumbent + two CUBIC");
            }
        }
    }

    /// [`WindowEvaluator`] that panics on one exact genome.
    struct Poisoned(Vec<u64>);

    impl Evaluator<TrafficGenome> for Poisoned {
        fn evaluate(&self, genome: &TrafficGenome) -> EvalOutcome {
            if genome.timestamps == genome_with(&self.0).timestamps {
                panic!("poisoned candidate");
            }
            WindowEvaluator.evaluate(genome)
        }
    }

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_speculative_panic_behind_an_accepted_candidate_is_discarded() {
        // ddmin's first batch pairs "drop the noise" (accepted) with "drop
        // the payload", a genome the serial scan never simulates.
        let genome = genome_with(&[100, 200, 1_100, 1_200]);
        let cfg = budget_cfg(300, 1.0);
        let clean = minimize_traffic(&WindowEvaluator, &genome, &cfg, &mut MinimizePool::new(1));
        let poisoned = same_at_every_worker_count(|pool| {
            minimize_traffic(&Poisoned(vec![100, 200]), &genome, &cfg, pool)
        });
        assert_eq!(poisoned, clean);
        let mut pool = MinimizePool::new(2);
        minimize_traffic(&Poisoned(vec![100, 200]), &genome, &cfg, &mut pool);
        assert!(
            pool.discarded() >= 1,
            "the poisoned candidate ran and was dropped"
        );
    }

    #[test]
    fn a_panic_the_serial_scan_reaches_is_raised_at_every_worker_count() {
        let genome = genome_with(&[100, 200, 1_100, 1_200]);
        for workers in [1, 2, 3, 8] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                minimize_traffic(
                    &Poisoned(vec![1_100, 1_200]),
                    &genome,
                    &budget_cfg(300, 1.0),
                    &mut MinimizePool::new(workers),
                )
            }));
            let payload = caught.expect_err("the first candidate panics");
            assert_eq!(
                panic_text(payload),
                "poisoned candidate",
                "{workers} workers"
            );
        }
    }

    /// Candidates are plain numbers scored from a table; the listed ones
    /// panic instead.
    struct Table {
        scores: Vec<f64>,
        panics: Vec<u64>,
    }

    impl Evaluator<u64> for Table {
        fn evaluate(&self, candidate: &u64) -> EvalOutcome {
            if self.panics.contains(candidate) {
                panic!("candidate {candidate} panicked");
            }
            EvalOutcome {
                score: self.scores[*candidate as usize],
                ..Default::default()
            }
        }
    }

    #[test]
    fn first_accepted_raises_exactly_the_panics_the_serial_scan_reaches() {
        let cfg = budget_cfg(100, 1.0);
        // Rejected, accepted, then a panic no serial scan would reach.
        let table = Table {
            scores: vec![0.0, 5.0, 0.0, 5.0],
            panics: vec![2],
        };
        for workers in [1, 2, 3, 8] {
            let mut pool = MinimizePool::new(workers);
            let mut budget = Budget::new(0, &cfg, &mut pool);
            let scan = budget.first_accepted(&table, 1.0, 4, |i| i as u64);
            assert_eq!(scan.rejected, [0.0]);
            assert_eq!(scan.accepted, Some((1, 5.0)));
            assert_eq!(budget.spent, 2, "charged the serial position + 1");
            assert_eq!(pool.discarded(), workers.min(4).saturating_sub(2) as u64);
        }
        // Rejected, then a panic before the accepted candidate: raised even
        // when the accepted one finished in the same batch.
        let table = Table {
            scores: vec![0.0, 0.0, 5.0],
            panics: vec![1],
        };
        for workers in [1, 2, 3, 8] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut pool = MinimizePool::new(workers);
                Budget::new(0, &cfg, &mut pool)
                    .first_accepted(&table, 1.0, 3, |i| i as u64)
                    .rejected
            }));
            let payload = caught.expect_err("candidate 1 is reached");
            assert_eq!(
                panic_text(payload),
                "candidate 1 panicked",
                "{workers} workers"
            );
        }
    }

    /// Accepts every candidate.
    struct AcceptAll;

    impl Evaluator<TrafficGenome> for AcceptAll {
        fn evaluate(&self, _: &TrafficGenome) -> EvalOutcome {
            EvalOutcome {
                score: 1.0,
                ..Default::default()
            }
        }
    }

    #[test]
    fn accepted_value_passes_compose() {
        // An uneven burst (every gap under 2 ms), a 1.4 s outage, another
        // uneven burst. ddmin is switched off so both value passes see it.
        let genome = TrafficGenome {
            timestamps: [
                100_000, 100_100, 101_500, 101_700, 1_500_000, 1_500_300, 1_501_900,
            ]
            .into_iter()
            .map(SimTime::from_micros)
            .collect(),
            duration: SimDuration::from_secs(5),
            max_packets: 100,
        };
        let cfg = MinimizeConfig {
            min_segment: usize::MAX,
            ..Default::default()
        };
        let (min, report) = minimize_traffic(&AcceptAll, &genome, &cfg, &mut MinimizePool::new(1));
        let both = genome
            .flattened_bursts(cfg.burst_gap)
            .shortened_outages(cfg.outage_cap);
        assert_ne!(both, genome.shortened_outages(cfg.outage_cap));
        assert_eq!(min, both, "{report:?}");
        assert_eq!(
            report.passes[1..],
            [
                "flatten-bursts: accepted (score 1.000000)",
                "shorten-outages: accepted (score 1.000000)"
            ]
        );
    }
}
