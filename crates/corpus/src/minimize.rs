//! Trace minimization: shrink a finding's genome to an interpretable core.
//!
//! The GA's best genomes carry a lot of incidental structure — packets that
//! contribute nothing, bursts with irrelevant micro-timing, outages far
//! longer than needed, hops and elephants the behaviour does not need.
//! Minimization makes findings *explainable* (the paper's Figure 4 traces
//! are readable precisely because they are simple) and cheaper to replay.
//! A candidate is kept when its re-simulated score retains at least
//! `retain_fraction` of the original score.
//!
//! Each mode's minimizer is a short list of passes, in order:
//!
//! * traffic: delta debugging over index segments (granularity halves each
//!   round, AFL-tmin style), then flatten bursts, then shorten outages;
//! * link (packet count is an invariant): the coarsest timestamp grid that
//!   keeps the score, then shorten outages;
//! * scenario (fairness, AQM): the traffic passes on the cross traffic, then
//!   the qdisc stepped toward drop-tail;
//! * topology: the traffic passes on the cross traffic, drop hops, then
//!   relax each surviving hop toward the single-hop baseline;
//! * workload: thin the arrivals, collapse the size classes, drop elephants.
//!
//! Every pass runs over one [`Shrink`] state and is a *step* (one
//! candidate), a *chain* (each candidate built from the last one kept, until
//! one is rejected) or a *scan* (candidates built from the same genome, the
//! first one kept wins). A scan simulates a batch of candidates at once on
//! the campaign's evaluation pool ([`steal_map`]) and keeps exactly what the
//! serial scan would have kept, charging exactly its budget. Every
//! simulation runs on a worker-owned warm [`EvalScratch`]. The result is the
//! same for any worker count (DESIGN.md "Parallel minimization").
//!
//! Invariants, verified by property tests: the minimized trace never has
//! *more* packets than the input, and its score never drops below
//! `retain_fraction * original_score`.

use crate::finding::{Finding, GenomePayload};
use crate::signature::BehaviorSignature;
use ccfuzz_core::evaluate::{EvalScratch, Evaluator, SimEvaluator};
use ccfuzz_core::genome::{Genome, LinkGenome, TrafficGenome};
use ccfuzz_core::pool::{num_threads_default, steal_map};
use ccfuzz_core::scenario::{QdiscGene, ScenarioGenome};
use ccfuzz_core::topology::TopologyGenome;
use ccfuzz_core::workload::WorkloadGenome;
use ccfuzz_netsim::queue::{Qdisc, QueueCapacity};
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_netsim::workload::ArrivalProcess;
use serde::{Deserialize, Serialize};
use std::fmt::Display;
use std::panic::{self, AssertUnwindSafe};

/// Gaps below this are part of one burst when flattening.
const BURST_GAP: SimDuration = SimDuration::from_millis(2);
/// Outages longer than this are compressed down to this.
const OUTAGE_CAP: SimDuration = SimDuration::from_millis(500);
/// Quantization grids tried for link genomes, coarsest first.
const LINK_GRIDS: [SimDuration; 4] = [
    SimDuration::from_millis(100),
    SimDuration::from_millis(50),
    SimDuration::from_millis(20),
    SimDuration::from_millis(10),
];

/// Minimization policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinimizeConfig {
    /// Fraction of the original score the minimized trace must retain
    /// (0.8 by default — the acceptance bar from the issue).
    pub retain_fraction: f64,
    /// Simulation budget: minimization stops when it has spent this many
    /// evaluations.
    pub max_evaluations: usize,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            retain_fraction: 0.8,
            max_evaluations: 300,
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

/// One minimization in progress: the genome kept so far and its score, the
/// bar a candidate must clear, the simulation budget and the workers it is
/// spent on, and the pass log.
struct Shrink<'a, G, E> {
    evaluator: &'a E,
    pool: &'a mut MinimizePool,
    current: G,
    score: f64,
    original_score: f64,
    threshold: f64,
    spent: usize,
    max: usize,
    passes: Vec<String>,
}

/// What a serial scan saw: the scores of the candidates it rejected, in
/// order, then the score of the first one it kept (candidate number
/// `rejected.len()`), if any before the candidates or the budget ran out.
struct Scan {
    rejected: Vec<f64>,
    accepted: Option<f64>,
}

impl<'a, G: Clone + Send + Sync, E: Evaluator<G>> Shrink<'a, G, E> {
    /// Starts from `genome`; its one simulation, on the first worker's
    /// scratch, anchors the original score and the threshold.
    fn new(evaluator: &'a E, genome: &G, cfg: &MinimizeConfig, pool: &'a mut MinimizePool) -> Self {
        let score = evaluator
            .evaluate_reusing(genome, &mut pool.scratches[0])
            .score;
        Shrink {
            evaluator,
            pool,
            current: genome.clone(),
            score,
            original_score: score,
            threshold: score * cfg.retain_fraction,
            spent: 1,
            max: cfg.max_evaluations.max(1),
            passes: Vec::new(),
        }
    }

    fn exhausted(&self) -> bool {
        self.spent >= self.max
    }

    /// Logs the verdict on a candidate that scored `score`; returns whether
    /// it clears the threshold.
    fn verdict(&mut self, label: impl Display, score: f64) -> bool {
        let kept = score >= self.threshold;
        self.passes.push(if kept {
            format!("{label}: accepted (score {score:.6})")
        } else {
            format!(
                "{label}: rejected (score {score:.6} < {:.6})",
                self.threshold
            )
        });
        kept
    }

    /// Simulates `candidate` on the first worker's warm scratch and keeps it
    /// if its score clears the threshold; returns whether it did. Once the
    /// budget is spent, simulates and logs nothing and returns `false`.
    fn step(&mut self, label: impl Display, candidate: G) -> bool {
        if self.exhausted() {
            return false;
        }
        self.spent += 1;
        let score = self
            .evaluator
            .evaluate_reusing(&candidate, &mut self.pool.scratches[0])
            .score;
        let kept = self.verdict(label, score);
        if kept {
            self.current = candidate;
            self.score = score;
        }
        kept
    }

    /// Steps through `next(current)`, each candidate built from the last one
    /// kept, until one is rejected, `next` returns `None` or the budget runs
    /// out.
    fn chain<L: Display>(&mut self, next: impl Fn(&G) -> Option<(L, G)>) {
        while let Some((label, candidate)) = next(&self.current) {
            if !self.step(label, candidate) {
                break;
            }
        }
    }

    /// Tries `candidate(current, 0)`, `candidate(current, 1)`, …
    /// `candidate(current, n - 1)` in order and keeps the first whose score
    /// clears the threshold, exactly as a serial loop would, budget checks
    /// included. Candidates are simulated in batches of `min(workers, budget
    /// left, candidates left)` on the evaluation pool; the first accepted
    /// candidate in index order wins, the budget is charged its position + 1
    /// (the whole batch when none is accepted), and the rest of the batch is
    /// discarded. A candidate that panics re-raises its panic only when every
    /// earlier candidate of its batch was rejected — the serial loop would
    /// have reached it — and is otherwise discarded with its worker's scratch.
    fn scan(&mut self, n: usize, candidate: impl Fn(&G, usize) -> G + Sync) -> Scan {
        let Shrink {
            evaluator,
            pool,
            current,
            score: current_score,
            threshold,
            spent,
            max,
            ..
        } = self;
        let mut rejected = Vec::new();
        while rejected.len() < n {
            let offset = rejected.len();
            let batch = pool
                .workers()
                .min(max.saturating_sub(*spent))
                .min(n - offset);
            if batch == 0 {
                break;
            }
            let results = steal_map(&mut pool.scratches[..batch], batch, |scratch, k| {
                panic::catch_unwind(AssertUnwindSafe(|| {
                    let genome = candidate(current, offset + k);
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
                    Ok((genome, score)) if score >= *threshold => {
                        *spent += k + 1;
                        pool.discarded += (batch - k - 1) as u64;
                        *current = genome;
                        *current_score = score;
                        return Scan {
                            rejected,
                            accepted: Some(score),
                        };
                    }
                    Ok((_, score)) => rejected.push(score),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            *spent += batch;
        }
        Scan {
            rejected,
            accepted: None,
        }
    }

    /// Removes the `what` at indices `first..count(current)` one at a time
    /// while at least two remain: a scan over the removals, repeated from
    /// `first` after every kept one (removing one changes the dynamics, so a
    /// removal rejected earlier may hold now). Logs the count before and
    /// after.
    fn drop_each(
        &mut self,
        what: &str,
        first: usize,
        count: fn(&G) -> usize,
        without: fn(&G, usize) -> G,
    ) {
        let start = count(&self.current);
        while count(&self.current) > 1 {
            let n = count(&self.current) - first;
            let scan = self.scan(n, |g, i| without(g, first + i));
            if scan.accepted.is_none() {
                break;
            }
        }
        self.passes.push(format!(
            "drop-{what}: {start} -> {} {what}",
            count(&self.current)
        ));
    }

    /// The traffic passes on the cross traffic `get(host)`, when the host has
    /// any: delta debugging, then flatten bursts, then shorten outages. Each
    /// candidate goes back into the host with `set` and is judged on the
    /// host's simulation. A [`TrafficGenome`] is its own host.
    fn traffic_passes(
        &mut self,
        host: &str,
        get: fn(&G) -> Option<&TrafficGenome>,
        set: fn(&G, TrafficGenome) -> G,
    ) {
        let Some(start) = get(&self.current).map(TrafficGenome::packet_count) else {
            self.passes
                .push(format!("{host} has no cross traffic; nothing to shrink"));
            return;
        };
        let packets = |g: &G| cross_traffic(get, g).packet_count();

        // Delta debugging: try deleting each of the segments; on a success
        // try the segment that slides into its place, and halve the segment
        // size once a round deletes nothing.
        let mut num_segments = 2usize;
        loop {
            let n = packets(&self.current);
            if n == 0 || self.exhausted() {
                break;
            }
            let seg_len = n.div_ceil(num_segments);
            let (mut seg, mut any_removed) = (0, false);
            loop {
                let count = packets(&self.current);
                let scan = self.scan(count.div_ceil(seg_len).saturating_sub(seg), |g, i| {
                    let lo = (seg + i) * seg_len;
                    let traffic = cross_traffic(get, g);
                    set(
                        g,
                        traffic.without_index_range(lo..(lo + seg_len).min(count)),
                    )
                });
                seg += scan.rejected.len();
                if scan.accepted.is_none() {
                    break;
                }
                any_removed = true;
            }
            if !any_removed {
                if seg_len == 1 {
                    break;
                }
                num_segments = num_segments.saturating_mul(2);
            }
        }
        self.passes.push(format!(
            "ddmin: removed {} of {start} packets ({} evals)",
            start - packets(&self.current),
            self.spent
        ));

        // Value-level shrinking, each candidate built from what the previous
        // pass kept: flattening first makes outage compression see clean
        // gaps. A candidate the traffic already equals costs no simulation.
        let mut value_pass = |label: &str, shrink: fn(&TrafficGenome) -> TrafficGenome| {
            let traffic = cross_traffic(get, &self.current);
            let shrunk = shrink(traffic);
            if shrunk != *traffic {
                let candidate = set(&self.current, shrunk);
                self.step(label, candidate);
            }
        };
        value_pass("flatten-bursts", |t| t.flattened_bursts(BURST_GAP));
        value_pass("shorten-outages", |t| t.shortened_outages(OUTAGE_CAP));
    }
}

impl<G: Genome, E: Evaluator<G>> Shrink<'_, G, E> {
    /// The genome kept, and the report on how it was reached from
    /// `original`.
    fn finish(self, original: &G) -> (G, MinimizeReport) {
        debug_assert!(self.current.packet_count() <= original.packet_count());
        let report = MinimizeReport {
            original_packets: original.packet_count() as u64,
            minimized_packets: self.current.packet_count() as u64,
            original_score: self.original_score,
            minimized_score: self.score,
            threshold: self.threshold,
            evaluations: self.spent as u64,
            passes: self.passes,
        };
        (self.current, report)
    }
}

/// The cross traffic of a host the traffic passes are shrinking; they never
/// remove it.
fn cross_traffic<G>(get: fn(&G) -> Option<&TrafficGenome>, host: &G) -> &TrafficGenome {
    get(host).expect("minimization keeps the cross traffic")
}

/// Minimizes a traffic genome against an evaluator.
pub fn minimize_traffic<E: Evaluator<TrafficGenome>>(
    evaluator: &E,
    genome: &TrafficGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (TrafficGenome, MinimizeReport) {
    let mut shrink = Shrink::new(evaluator, genome, cfg, pool);
    shrink.traffic_passes("traffic", |g| Some(g), |_, traffic| traffic);
    shrink.finish(genome)
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
    let mut shrink = Shrink::new(evaluator, genome, cfg, pool);
    // The coarsest acceptable grid wins; a grid the trace already sits on
    // is not worth a simulation.
    let grids: Vec<SimDuration> = LINK_GRIDS
        .into_iter()
        .filter(|&grid| genome.quantized(grid).timestamps != genome.timestamps)
        .collect();
    let scan = shrink.scan(grids.len(), |g, i| g.quantized(grids[i]));
    let scores = scan.rejected.into_iter().chain(scan.accepted);
    for (grid, score) in grids.iter().zip(scores) {
        shrink.verdict(format!("quantize-{}ms", grid.as_millis()), score);
    }
    let candidate = shrink.current.shortened_outages(OUTAGE_CAP);
    if candidate != shrink.current {
        shrink.step("shorten-outages", candidate);
    }
    debug_assert_eq!(shrink.current.packet_count(), genome.packet_count());
    shrink.finish(genome)
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

/// Minimizes a scenario genome. Flow genes are the scenario's substance and
/// stay; what shrinks is the cross-traffic helper (when present), with the
/// traffic passes against the multi-flow simulation, and then the qdisc
/// gene (when present): first the maximal step, no qdisc gene at all (plain
/// drop-tail, no ECN), then successively milder parameter settings.
fn minimize_scenario(
    evaluator: &SimEvaluator,
    genome: &ScenarioGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (ScenarioGenome, MinimizeReport) {
    let capacity_packets = match evaluator.base.queue_capacity {
        QueueCapacity::Packets(n) => n,
        QueueCapacity::Bytes(b) => (b / evaluator.base.mss.max(1) as u64).max(1) as usize,
    };
    let mut shrink = Shrink::new(evaluator, genome, cfg, pool);
    shrink.traffic_passes(
        "scenario",
        |g| g.traffic.as_ref(),
        |g, traffic| ScenarioGenome {
            traffic: Some(traffic),
            ..g.clone()
        },
    );
    if shrink.current.qdisc.is_some() {
        let droptail = ScenarioGenome {
            qdisc: None,
            ..shrink.current.clone()
        };
        shrink.step("qdisc->droptail", droptail);
        shrink.chain(|g| {
            let milder = milder_qdisc(g.qdisc.as_ref()?, capacity_packets)?;
            let label = format!("qdisc-milder {}", milder.discipline.label());
            Some((
                label,
                ScenarioGenome {
                    qdisc: Some(milder),
                    ..g.clone()
                },
            ))
        });
    }
    shrink.finish(genome)
}

/// Drops hops one at a time, keeping a deletion whenever the score holds:
/// the minimized chain is the shortest prefix of bottlenecks the behaviour
/// actually needs, ideally the single-hop dumbbell.
fn drop_hops<E: Evaluator<TopologyGenome>>(shrink: &mut Shrink<'_, TopologyGenome, E>) {
    shrink.drop_each("hops", 0, TopologyGenome::hop_count, |g, at| {
        g.without_hop(at)
            .expect("a chain of two or more hops can drop any one")
    });
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
) -> Option<(String, TopologyGenome)> {
    let hop = &genome.hops[at];
    let mut child = genome.clone();
    let step = if hop.qdisc.is_some() {
        child.hops[at].qdisc = None;
        "qdisc->droptail"
    } else if hop.buffer_packets < 100 {
        child.hops[at].buffer_packets = 100;
        "buffer->100"
    } else if hop.rate_bps < baseline_rate_bps {
        child.hops[at].rate_bps = baseline_rate_bps;
        "rate->baseline"
    } else if hop.delay != SimDuration::from_millis(20) {
        child.hops[at].delay = SimDuration::from_millis(20);
        "delay->20ms"
    } else {
        return None;
    };
    Some((format!("relax hop {at} {step}"), child))
}

/// Minimizes a topology genome. The hop chain is the finding's substance,
/// so minimization shrinks the cross-traffic helper with the traffic passes
/// against the multi-hop simulation, then pulls the chain toward the
/// single-hop paper baseline from two directions: dropping whole hops, then
/// relaxing each survivor's qdisc / buffer / rate / delay while the score
/// holds. Whatever stays tightened is what the behaviour depends on.
fn minimize_topology(
    evaluator: &SimEvaluator,
    genome: &TopologyGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (TopologyGenome, MinimizeReport) {
    let mut shrink = Shrink::new(evaluator, genome, cfg, pool);
    shrink.traffic_passes(
        "topology",
        |g| g.traffic.as_ref(),
        |g, traffic| TopologyGenome {
            traffic: Some(traffic),
            ..g.clone()
        },
    );
    drop_hops(&mut shrink);
    for at in 0..shrink.current.hop_count() {
        shrink.chain(|g| relaxed_hop(g, at, evaluator.link_rate_bps));
    }
    shrink.finish(genome)
}

/// Halves a workload's arrival rate, flooring at 1 flow/s. Returns `None`
/// once the rate cannot meaningfully drop further.
fn thinned_arrivals(genome: &WorkloadGenome) -> Option<(String, WorkloadGenome)> {
    let new_rate = genome.arrivals.process.rate_per_sec() / 2.0;
    if new_rate < 1.0 {
        return None;
    }
    let mut child = genome.clone();
    match &mut child.arrivals.process {
        ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec = new_rate,
        ArrivalProcess::OnOff { rate_per_sec, .. } => *rate_per_sec = new_rate,
    }
    let rate = child.arrivals.process.rate_per_sec();
    Some((format!("thin-arrivals {rate:.1}/s"), child))
}

/// Halves the largest flow-size class toward the smallest. Returns `None`
/// once the classes have collapsed.
fn collapsed_sizes(genome: &WorkloadGenome) -> Option<(String, WorkloadGenome)> {
    let size = genome.arrivals.size;
    let new_max = (size.max_packets / 2).max(size.min_packets);
    if new_max == size.max_packets {
        return None;
    }
    let mut child = genome.clone();
    child.arrivals.size.max_packets = new_max;
    Some((format!("collapse-sizes max={new_max}pkt"), child))
}

/// Drops background elephants one at a time, never the incumbent at index
/// 0: the minimized elephant mix is the smallest background the tail
/// inflation actually needs.
fn drop_elephants<E: Evaluator<WorkloadGenome>>(shrink: &mut Shrink<'_, WorkloadGenome, E>) {
    shrink.drop_each("elephants", 1, WorkloadGenome::elephant_count, |g, i| {
        let mut child = g.clone();
        child.elephants.remove(i);
        child
    });
}

/// Minimizes a workload genome. The arrival genes are the finding's
/// substance, so minimization pulls them toward the quietest workload that
/// still shows the behaviour: halve the arrival rate (fewer churning flows),
/// collapse the size classes from the top (a tail-latency finding that
/// survives with mice-only sizes is far easier to reason about than one
/// hiding behind a heavy tail), and drop background elephants.
fn minimize_workload(
    evaluator: &SimEvaluator,
    genome: &WorkloadGenome,
    cfg: &MinimizeConfig,
    pool: &mut MinimizePool,
) -> (WorkloadGenome, MinimizeReport) {
    let mut shrink = Shrink::new(evaluator, genome, cfg, pool);
    // Order matters: thinning arrivals first leaves fewer flows for the
    // size and elephant passes to re-simulate, so the budget goes further.
    shrink.chain(thinned_arrivals);
    shrink.chain(collapsed_sizes);
    drop_elephants(&mut shrink);
    shrink.finish(genome)
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
    use ccfuzz_core::evaluate::EvalOutcome;
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
        }
    }

    /// A [`Shrink`] of `genome` at score and threshold `threshold` with
    /// nothing spent: a pass under test without the anchor simulation.
    fn shrink_at<'a, G: Clone, E>(
        evaluator: &'a E,
        genome: &G,
        threshold: f64,
        max_evaluations: usize,
        pool: &'a mut MinimizePool,
    ) -> Shrink<'a, G, E> {
        Shrink {
            evaluator,
            pool,
            current: genome.clone(),
            score: threshold,
            original_score: threshold,
            threshold,
            spent: 0,
            max: max_evaluations,
            passes: Vec::new(),
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
            let hops = same_at_every_worker_count(|pool| {
                let mut shrink = shrink_at(&SlowHops, &topology, 3.0, max_evaluations, pool);
                drop_hops(&mut shrink);
                (shrink.current, shrink.score, shrink.passes, shrink.spent)
            });
            let elephants = same_at_every_worker_count(|pool| {
                let mut shrink = shrink_at(&CubicElephants, &workload, 2.0, max_evaluations, pool);
                drop_elephants(&mut shrink);
                (shrink.current, shrink.score, shrink.passes, shrink.spent)
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
    fn scan_raises_exactly_the_panics_the_serial_scan_reaches() {
        // Rejected, accepted, then a panic no serial scan would reach.
        let table = Table {
            scores: vec![0.0, 5.0, 0.0, 5.0],
            panics: vec![2],
        };
        for workers in [1, 2, 3, 8] {
            let mut pool = MinimizePool::new(workers);
            let mut shrink = shrink_at(&table, &0, 1.0, 100, &mut pool);
            let scan = shrink.scan(4, |_, i| i as u64);
            assert_eq!(scan.rejected, [0.0]);
            assert_eq!(scan.accepted, Some(5.0));
            assert_eq!((shrink.current, shrink.score), (1, 5.0), "kept candidate 1");
            assert_eq!(shrink.spent, 2, "charged the serial position + 1");
            assert_eq!(
                shrink.pool.discarded(),
                workers.min(4).saturating_sub(2) as u64
            );
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
                shrink_at(&table, &0, 1.0, 100, &mut pool)
                    .scan(3, |_, i| i as u64)
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

    /// Accepts exactly the candidates that keep all seven packets, so ddmin
    /// deletes nothing and both value passes see the whole trace.
    struct KeepsSeven;

    impl Evaluator<TrafficGenome> for KeepsSeven {
        fn evaluate(&self, genome: &TrafficGenome) -> EvalOutcome {
            EvalOutcome {
                score: if genome.packet_count() == 7 { 1.0 } else { 0.0 },
                ..Default::default()
            }
        }
    }

    #[test]
    fn accepted_value_passes_compose() {
        // An uneven burst (every gap under 2 ms), a 1.4 s outage, another
        // uneven burst.
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
        let cfg = MinimizeConfig::default();
        let (min, report) = minimize_traffic(&KeepsSeven, &genome, &cfg, &mut MinimizePool::new(1));
        let both = genome
            .flattened_bursts(BURST_GAP)
            .shortened_outages(OUTAGE_CAP);
        assert_ne!(both, genome.shortened_outages(OUTAGE_CAP));
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
