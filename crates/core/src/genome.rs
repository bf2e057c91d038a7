//! Genomes: the trace representations the genetic algorithm evolves.
//!
//! * [`LinkGenome`] — a bottleneck service curve (fixed total packet count,
//!   bounded long-term rate variation). Mutation re-distributes the packets
//!   on one side of a random split point; crossover is not defined (§3.2).
//! * [`TrafficGenome`] — a cross-traffic injection pattern (variable packet
//!   count up to a cap, no local rate constraints). Mutation re-generates one
//!   side of a split point with a randomly changed packet count; crossover
//!   splices the left half of one parent with the right half of the other
//!   (§3.3).

use crate::campaign::{Campaign, FuzzMode, PAPER_K_AGG_MS};
use crate::checkpoint::SnapshotPayload;
use crate::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use crate::fuzzer::{AnnealFn, FuzzerSnapshot};
use crate::mode::{GenomePayload, ModeGenome};
use crate::scoring::{ScoreScratch, TraceScoreInputs};
use crate::trace_gen::{dist_packets, packets_for_rate, DistPacketsParams};
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::SimResult;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_netsim::trace::{LinkTrace, TrafficTrace};
use serde::{Deserialize, Serialize};

/// Operations the genetic algorithm needs from a trace genome.
///
/// `PartialEq` must mean "simulates identically": a child equal to a scored
/// parent takes that parent's outcome instead of a second simulation
/// (DESIGN.md "Evaluation reuse").
pub trait Genome: Clone + PartialEq + Send + Sync {
    /// Produces a mutated copy.
    fn mutate(&self, rng: &mut SimRng) -> Self;

    /// Produces a crossover child from two parents, or `None` if the genome
    /// type does not support crossover (link traces, §3.2).
    fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self>;

    /// Number of packets in the genome (used by trace scoring).
    fn packet_count(&self) -> usize;

    /// Verifies internal invariants; used in tests and debug assertions.
    fn validate(&self) -> Result<(), String>;
}

// ---------------------------------------------------------------------------
// Link genome
// ---------------------------------------------------------------------------

/// A bottleneck service-curve genome for link fuzzing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkGenome {
    /// Sorted packet transmission opportunities.
    pub timestamps: Vec<SimTime>,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Aggregation threshold used when (re)generating segments.
    pub k_agg: SimDuration,
}

impl LinkGenome {
    /// Generates a fresh random link genome carrying `total_packets` over
    /// `duration` (i.e. a fixed average bandwidth).
    pub fn generate(
        total_packets: usize,
        duration: SimDuration,
        k_agg: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let params = DistPacketsParams {
            k_agg,
            enforce_rate_bounds: true,
            ..Default::default()
        };
        let timestamps = dist_packets(
            total_packets,
            SimTime::ZERO,
            SimTime::ZERO + duration,
            &params,
            rng,
        );
        LinkGenome {
            timestamps,
            duration,
            k_agg,
        }
    }

    /// Converts the genome to the simulator's [`LinkTrace`].
    pub fn to_trace(&self) -> LinkTrace {
        LinkTrace::new(self.timestamps.clone(), self.duration)
    }

    /// The average service rate in bits per second for `packet_size`-byte packets.
    pub fn average_rate_bps(&self, packet_size: u32) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.timestamps.len() as f64 * packet_size as f64 * 8.0 / secs
    }

    /// A copy with every timestamp rounded to the nearest multiple of
    /// `grid` (clamped to the trace duration). Packet count is preserved —
    /// the link-genome invariant — while the number of *distinct* service
    /// instants drops, which is the value-level shrinking step used by trace
    /// minimization: a coarser service curve is easier to interpret and to
    /// reproduce on real hardware.
    pub fn quantized(&self, grid: SimDuration) -> Self {
        if grid == SimDuration::ZERO {
            return self.clone();
        }
        let g = grid.as_nanos();
        let mut timestamps: Vec<SimTime> = self
            .timestamps
            .iter()
            .map(|t| {
                let rounded = (t.as_nanos() + g / 2) / g * g;
                SimTime::from_nanos(rounded.min(self.duration.as_nanos()))
            })
            .collect();
        timestamps.sort_unstable();
        LinkGenome {
            timestamps,
            duration: self.duration,
            k_agg: self.k_agg,
        }
    }

    /// A copy with service outages (gaps between opportunities) longer than
    /// `max_gap` compressed down to `max_gap`, preserving packet count.
    pub fn shortened_outages(&self, max_gap: SimDuration) -> Self {
        LinkGenome {
            timestamps: compress_gaps(&self.timestamps, max_gap),
            duration: self.duration,
            k_agg: self.k_agg,
        }
    }

    /// Applies Gaussian smoothing to the packet timestamps (trace annealing,
    /// §3.2): each timestamp moves toward the average of its neighbourhood,
    /// plus a small amount of Gaussian noise, while staying inside the trace
    /// duration and keeping the total count fixed.
    pub fn anneal(&self, window: usize, noise_std: SimDuration, rng: &mut SimRng) -> Self {
        if self.timestamps.len() < 3 {
            return self.clone();
        }
        let w = window.max(1);
        let n = self.timestamps.len();
        let mut smoothed = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(w);
            let hi = (i + w + 1).min(n);
            let mean_ns = self.timestamps[lo..hi]
                .iter()
                .map(|t| t.as_nanos() as f64)
                .sum::<f64>()
                / (hi - lo) as f64;
            let jitter = rng.gen_normal(0.0, noise_std.as_nanos() as f64);
            let t = (mean_ns + jitter).clamp(0.0, self.duration.as_nanos() as f64);
            smoothed.push(SimTime::from_nanos(t as u64));
        }
        smoothed.sort_unstable();
        LinkGenome {
            timestamps: smoothed,
            duration: self.duration,
            k_agg: self.k_agg,
        }
    }
}

impl Genome for LinkGenome {
    fn mutate(&self, rng: &mut SimRng) -> Self {
        if self.timestamps.is_empty() {
            return self.clone();
        }
        // Choose a random split point in time and regenerate either the left
        // or the right side with DIST_PACKETS, preserving the packet count on
        // that side (and therefore the genome's total count and long-term
        // rate properties).
        let split = SimTime::from_nanos(rng.gen_range_u64(1, self.duration.as_nanos().max(2)));
        let left_is_mutated = rng.gen_bool(0.5);
        let params = DistPacketsParams {
            k_agg: self.k_agg,
            enforce_rate_bounds: true,
            ..Default::default()
        };

        let split_idx = self.timestamps.partition_point(|&t| t < split);
        let mut timestamps = Vec::with_capacity(self.timestamps.len());
        if left_is_mutated {
            let regenerated = dist_packets(split_idx, SimTime::ZERO, split, &params, rng);
            timestamps.extend(regenerated);
            timestamps.extend_from_slice(&self.timestamps[split_idx..]);
        } else {
            timestamps.extend_from_slice(&self.timestamps[..split_idx]);
            let regenerated = dist_packets(
                self.timestamps.len() - split_idx,
                split,
                SimTime::ZERO + self.duration,
                &params,
                rng,
            );
            timestamps.extend(regenerated);
        }
        timestamps.sort_unstable();
        LinkGenome {
            timestamps,
            duration: self.duration,
            k_agg: self.k_agg,
        }
    }

    fn crossover(&self, _other: &Self, _rng: &mut SimRng) -> Option<Self> {
        // §3.2: no crossover for link traces — there is no obvious way to
        // combine two service curves while preserving the per-trace
        // constraints (total packets, bounded rate variation).
        None
    }

    fn packet_count(&self) -> usize {
        self.timestamps.len()
    }

    fn validate(&self) -> Result<(), String> {
        for w in self.timestamps.windows(2) {
            if w[0] > w[1] {
                return Err("link genome timestamps out of order".into());
            }
        }
        if let Some(last) = self.timestamps.last() {
            if last.as_nanos() > self.duration.as_nanos() {
                return Err("link genome timestamp beyond duration".into());
            }
        }
        Ok(())
    }
}

impl ModeGenome for LinkGenome {
    fn serves(mode: FuzzMode) -> bool {
        mode == FuzzMode::Link
    }

    fn generate(campaign: &Campaign, rng: &mut SimRng) -> Self {
        let total_packets =
            packets_for_rate(campaign.link_rate_bps, campaign.sim.mss, campaign.duration);
        let k_agg = SimDuration::from_millis(PAPER_K_AGG_MS);
        LinkGenome::generate(total_packets, campaign.duration, k_agg, rng)
    }

    fn annealer() -> Option<Box<AnnealFn<Self>>> {
        Some(Box::new(|genome: &LinkGenome, rng: &mut SimRng| {
            genome.anneal(3, SimDuration::from_micros(200), rng)
        }))
    }

    fn lower(&self, evaluator: &SimEvaluator, scratch: &mut EvalScratch) -> SimConfig {
        let mut cfg = evaluator.run_cfg(self.duration);
        // The service curve is built in a recycled timestamp buffer.
        let mut buf = scratch.sim.take_time_buf();
        buf.extend_from_slice(&self.timestamps);
        cfg.link = LinkModel::TraceDriven {
            trace: LinkTrace::new(buf, self.duration),
        };
        cfg.cross_traffic = TrafficTrace::empty(self.duration);
        scratch.set_flows(&cfg, [&evaluator.primary_flow(&cfg)]);
        cfg
    }

    fn score(
        &self,
        evaluator: &SimEvaluator,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        // Link genomes have a fixed packet count: no trace-minimality term.
        let (scoring, mss) = (&evaluator.scoring, evaluator.base.mss);
        EvalOutcome::from_result_reusing(scoring, result, mss, None, scratch)
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload {
        SnapshotPayload::Link(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String> {
        match payload {
            SnapshotPayload::Link(s) => Ok(s),
            other => Err(other.mismatch::<Self>()),
        }
    }

    fn wrap(self) -> GenomePayload {
        GenomePayload::Link(self)
    }
}

// ---------------------------------------------------------------------------
// Traffic genome
// ---------------------------------------------------------------------------

/// A cross-traffic injection genome for traffic fuzzing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficGenome {
    /// Sorted injection timestamps.
    pub timestamps: Vec<SimTime>,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Maximum number of cross-traffic packets allowed.
    pub max_packets: usize,
}

impl TrafficGenome {
    /// Generates a fresh random traffic genome with a uniformly random packet
    /// count up to `max_packets`, distributed without local rate constraints.
    pub fn generate(max_packets: usize, duration: SimDuration, rng: &mut SimRng) -> Self {
        let count = rng.gen_range_usize(0, max_packets + 1);
        let params = DistPacketsParams {
            enforce_rate_bounds: false,
            ..Default::default()
        };
        let timestamps = dist_packets(count, SimTime::ZERO, SimTime::ZERO + duration, &params, rng);
        TrafficGenome {
            timestamps,
            duration,
            max_packets,
        }
    }

    /// The optional cross-traffic helper of a multi-flow genome: a fresh
    /// genome when `max_packets > 0`, none (and no RNG draw) otherwise.
    pub(crate) fn generate_optional(
        max_packets: usize,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Option<Self> {
        (max_packets > 0).then(|| TrafficGenome::generate(max_packets, duration, rng))
    }

    /// Crosses two optional helpers: both present cross, one present is
    /// inherited, neither stays none. Only crossing draws from `rng`.
    pub(crate) fn cross_optional(
        a: &Option<Self>,
        b: &Option<Self>,
        rng: &mut SimRng,
    ) -> Option<Self> {
        match (a, b) {
            (Some(x), Some(y)) => x.crossover(y, rng),
            (Some(x), None) | (None, Some(x)) => Some(x.clone()),
            (None, None) => None,
        }
    }

    /// The trace-minimality scoring inputs of this genome for a finished
    /// run: its packet count against its cap, and how much of it the
    /// bottleneck dropped.
    pub(crate) fn trace_score_inputs(&self, result: &SimResult) -> TraceScoreInputs {
        TraceScoreInputs {
            traffic_packets: self.timestamps.len(),
            traffic_max_packets: self.max_packets,
            traffic_dropped: result.stats.cross_dropped,
        }
    }

    /// A copy with the timestamps in `range` (by index) removed — the
    /// delta-debugging primitive used by trace minimization.
    pub fn without_index_range(&self, range: std::ops::Range<usize>) -> Self {
        let mut timestamps = Vec::with_capacity(self.timestamps.len().saturating_sub(range.len()));
        timestamps.extend_from_slice(&self.timestamps[..range.start.min(self.timestamps.len())]);
        timestamps.extend_from_slice(&self.timestamps[range.end.min(self.timestamps.len())..]);
        TrafficGenome {
            timestamps,
            duration: self.duration,
            max_packets: self.max_packets,
        }
    }

    /// A copy with every burst (run of packets whose consecutive gaps are
    /// below `min_gap`) re-spaced evenly across the burst's time span. This
    /// is the value-level "flatten bursts" shrinking step: it removes
    /// incidental micro-structure while preserving packet count and the
    /// burst's position and extent.
    pub fn flattened_bursts(&self, min_gap: SimDuration) -> Self {
        TrafficGenome {
            timestamps: flatten_bursts(&self.timestamps, min_gap),
            duration: self.duration,
            max_packets: self.max_packets,
        }
    }

    /// A copy with every silent gap longer than `max_gap` compressed down to
    /// `max_gap` (later packets shift earlier). Shortens outages that are
    /// longer than needed to trigger the behaviour under test.
    pub fn shortened_outages(&self, max_gap: SimDuration) -> Self {
        TrafficGenome {
            timestamps: compress_gaps(&self.timestamps, max_gap),
            duration: self.duration,
            max_packets: self.max_packets,
        }
    }
}

/// Evenly respaces runs of timestamps whose consecutive gaps are all below
/// `min_gap` (helper for [`TrafficGenome::flattened_bursts`]).
pub(crate) fn flatten_bursts(timestamps: &[SimTime], min_gap: SimDuration) -> Vec<SimTime> {
    if timestamps.len() < 3 {
        return timestamps.to_vec();
    }
    let mut out = Vec::with_capacity(timestamps.len());
    let mut start = 0usize;
    while start < timestamps.len() {
        let mut end = start + 1;
        while end < timestamps.len() && timestamps[end] - timestamps[end - 1] < min_gap {
            end += 1;
        }
        let run = &timestamps[start..end];
        if run.len() >= 3 {
            let t0 = run[0].as_nanos();
            let t1 = run[run.len() - 1].as_nanos();
            let n = run.len() as u64;
            for i in 0..n {
                out.push(SimTime::from_nanos(t0 + (t1 - t0) * i / (n - 1)));
            }
        } else {
            out.extend_from_slice(run);
        }
        start = end;
    }
    out.sort_unstable();
    out
}

/// Compresses inter-packet gaps longer than `max_gap` down to `max_gap`,
/// shifting all later timestamps earlier (helper for `shortened_outages`).
pub(crate) fn compress_gaps(timestamps: &[SimTime], max_gap: SimDuration) -> Vec<SimTime> {
    if timestamps.is_empty() || max_gap == SimDuration::ZERO {
        return timestamps.to_vec();
    }
    let mut out = Vec::with_capacity(timestamps.len());
    let mut shift = SimDuration::ZERO;
    out.push(timestamps[0]);
    for w in timestamps.windows(2) {
        let gap = w[1] - w[0];
        if gap > max_gap {
            shift += gap - max_gap;
        }
        out.push(w[1] - shift);
    }
    out
}

impl Genome for TrafficGenome {
    fn mutate(&self, rng: &mut SimRng) -> Self {
        // Pick a split point in time, keep one side, and regenerate the other
        // side with a randomly changed packet count (§3.3: the count in the
        // regenerated portion changes so that minimal traffic vectors can
        // emerge).
        let split = SimTime::from_nanos(rng.gen_range_u64(1, self.duration.as_nanos().max(2)));
        let left_is_mutated = rng.gen_bool(0.5);
        let split_idx = self.timestamps.partition_point(|&t| t < split);
        let params = DistPacketsParams {
            enforce_rate_bounds: false,
            ..Default::default()
        };

        let kept: Vec<SimTime>;
        let (regen_start, regen_end, other_count);
        if left_is_mutated {
            kept = self.timestamps[split_idx..].to_vec();
            regen_start = SimTime::ZERO;
            regen_end = split;
            other_count = kept.len();
        } else {
            kept = self.timestamps[..split_idx].to_vec();
            regen_start = split;
            regen_end = SimTime::ZERO + self.duration;
            other_count = kept.len();
        }
        let budget = self.max_packets.saturating_sub(other_count);
        let new_count = rng.gen_range_usize(0, budget + 1);
        let regenerated = dist_packets(new_count, regen_start, regen_end, &params, rng);

        let mut timestamps = kept;
        timestamps.extend(regenerated);
        timestamps.sort_unstable();
        TrafficGenome {
            timestamps,
            duration: self.duration,
            max_packets: self.max_packets,
        }
    }

    fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
        // §3.3: choose a split point by packet count, take the left half of
        // one parent and the right half of the other (by timestamp), and
        // combine. The child's packet count changes naturally.
        let max_len = self.timestamps.len().max(other.timestamps.len());
        if max_len == 0 {
            return Some(self.clone());
        }
        let split_count = rng.gen_range_usize(0, max_len + 1);
        let (left_parent, right_parent) = if rng.gen_bool(0.5) {
            (self, other)
        } else {
            (other, self)
        };
        // The time at which the left parent has emitted `split_count` packets.
        let split_time = left_parent
            .timestamps
            .get(split_count.saturating_sub(1))
            .copied()
            .unwrap_or(SimTime::ZERO + left_parent.duration);

        let mut timestamps: Vec<SimTime> = left_parent
            .timestamps
            .iter()
            .copied()
            .take(split_count)
            .collect();
        timestamps.extend(
            right_parent
                .timestamps
                .iter()
                .copied()
                .filter(|&t| t > split_time),
        );
        timestamps.sort_unstable();
        timestamps.truncate(self.max_packets.max(other.max_packets));
        Some(TrafficGenome {
            timestamps,
            duration: self.duration,
            max_packets: self.max_packets,
        })
    }

    fn packet_count(&self) -> usize {
        self.timestamps.len()
    }

    fn validate(&self) -> Result<(), String> {
        if self.timestamps.len() > self.max_packets {
            return Err(format!(
                "traffic genome has {} packets, cap is {}",
                self.timestamps.len(),
                self.max_packets
            ));
        }
        for w in self.timestamps.windows(2) {
            if w[0] > w[1] {
                return Err("traffic genome timestamps out of order".into());
            }
        }
        if let Some(last) = self.timestamps.last() {
            if last.as_nanos() > self.duration.as_nanos() {
                return Err("traffic genome timestamp beyond duration".into());
            }
        }
        Ok(())
    }
}

impl ModeGenome for TrafficGenome {
    fn serves(mode: FuzzMode) -> bool {
        mode == FuzzMode::Traffic
    }

    fn generate(campaign: &Campaign, rng: &mut SimRng) -> Self {
        TrafficGenome::generate(campaign.traffic_max_packets, campaign.duration, rng)
    }

    fn lower(&self, evaluator: &SimEvaluator, scratch: &mut EvalScratch) -> SimConfig {
        let mut cfg = evaluator.run_cfg(self.duration);
        cfg.link = LinkModel::FixedRate {
            rate_bps: evaluator.link_rate_bps,
        };
        cfg.cross_traffic = scratch.cross_traffic(Some(self), self.duration);
        scratch.set_flows(&cfg, [&evaluator.primary_flow(&cfg)]);
        cfg
    }

    fn score(
        &self,
        evaluator: &SimEvaluator,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let (scoring, mss) = (&evaluator.scoring, evaluator.base.mss);
        let inputs = Some(self.trace_score_inputs(result));
        EvalOutcome::from_result_reusing(scoring, result, mss, inputs, scratch)
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload {
        SnapshotPayload::Traffic(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String> {
        match payload {
            SnapshotPayload::Traffic(s) => Ok(s),
            other => Err(other.mismatch::<Self>()),
        }
    }

    fn wrap(self) -> GenomePayload {
        GenomePayload::Traffic(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    const DUR: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn link_genome_generation_preserves_count_and_validates() {
        let mut rng = rng();
        let g = LinkGenome::generate(5_000, DUR, SimDuration::from_millis(50), &mut rng);
        assert_eq!(g.packet_count(), 5_000);
        g.validate().unwrap();
        // 5000 packets of 1500B over 5s = 12 Mbps.
        assert!((g.average_rate_bps(1500) - 12e6).abs() / 12e6 < 0.01);
        let trace = g.to_trace();
        assert_eq!(trace.len(), 5_000);
    }

    #[test]
    fn link_mutation_preserves_total_packets() {
        let mut rng = rng();
        let g = LinkGenome::generate(2_000, DUR, SimDuration::from_millis(50), &mut rng);
        for _ in 0..10 {
            let m = g.mutate(&mut rng);
            assert_eq!(m.packet_count(), g.packet_count());
            m.validate().unwrap();
            assert_eq!(m.duration, g.duration);
        }
    }

    #[test]
    fn link_mutation_changes_the_trace() {
        let mut rng = rng();
        let g = LinkGenome::generate(2_000, DUR, SimDuration::from_millis(50), &mut rng);
        let m = g.mutate(&mut rng);
        assert_ne!(m.timestamps, g.timestamps);
    }

    #[test]
    fn link_crossover_is_unsupported() {
        let mut rng = rng();
        let a = LinkGenome::generate(100, DUR, SimDuration::from_millis(50), &mut rng);
        let b = LinkGenome::generate(100, DUR, SimDuration::from_millis(50), &mut rng);
        assert!(a.crossover(&b, &mut rng).is_none());
    }

    #[test]
    fn annealing_smooths_and_preserves_count() {
        let mut rng = rng();
        let g = LinkGenome::generate(3_000, DUR, SimDuration::from_millis(50), &mut rng);
        let a = g.anneal(5, SimDuration::from_micros(100), &mut rng);
        assert_eq!(a.packet_count(), g.packet_count());
        a.validate().unwrap();
        // Smoothing reduces the variance of inter-packet gaps.
        let gap_var = |ts: &[SimTime]| {
            let gaps: Vec<f64> = ts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64
        };
        assert!(gap_var(&a.timestamps) <= gap_var(&g.timestamps));
    }

    #[test]
    fn traffic_genome_generation_respects_cap() {
        let mut rng = rng();
        for _ in 0..20 {
            let g = TrafficGenome::generate(800, DUR, &mut rng);
            assert!(g.packet_count() <= 800);
            g.validate().unwrap();
        }
    }

    #[test]
    fn traffic_mutation_respects_cap_and_changes_count() {
        let mut rng = rng();
        let g = TrafficGenome::generate(800, DUR, &mut rng);
        let mut counts = std::collections::BTreeSet::new();
        for _ in 0..20 {
            let m = g.mutate(&mut rng);
            m.validate().unwrap();
            assert!(m.packet_count() <= 800);
            counts.insert(m.packet_count());
        }
        assert!(counts.len() > 1, "mutation should vary the packet count");
    }

    #[test]
    fn traffic_crossover_combines_parents_and_respects_cap() {
        let mut rng = rng();
        let a = TrafficGenome::generate(500, DUR, &mut rng);
        let b = TrafficGenome::generate(500, DUR, &mut rng);
        for _ in 0..20 {
            let child = a.crossover(&b, &mut rng).unwrap();
            child.validate().unwrap();
            assert!(child.packet_count() <= 500);
            // Every child timestamp comes from one of the parents.
            for t in &child.timestamps {
                assert!(
                    a.timestamps.contains(t) || b.timestamps.contains(t),
                    "child timestamp {t} not found in either parent"
                );
            }
        }
    }

    #[test]
    fn traffic_crossover_of_empty_parents_is_empty() {
        let mut rng = rng();
        let a = TrafficGenome {
            timestamps: vec![],
            duration: DUR,
            max_packets: 100,
        };
        let b = a.clone();
        let child = a.crossover(&b, &mut rng).unwrap();
        assert_eq!(child.packet_count(), 0);
    }

    #[test]
    fn traffic_without_index_range_removes_exactly_that_segment() {
        let mut rng = rng();
        let g = TrafficGenome::generate(200, DUR, &mut rng);
        let n = g.packet_count();
        if n < 4 {
            return;
        }
        let cut = g.without_index_range(1..3);
        assert_eq!(cut.packet_count(), n - 2);
        cut.validate().unwrap();
        assert_eq!(cut.timestamps[0], g.timestamps[0]);
        assert_eq!(cut.timestamps[1], g.timestamps[3]);
        // Out-of-range ends are clamped.
        assert_eq!(g.without_index_range(0..usize::MAX).packet_count(), 0);
    }

    #[test]
    fn flatten_bursts_preserves_count_and_span() {
        let ts: Vec<SimTime> = vec![0, 10, 11, 12, 13, 5_000_000]
            .into_iter()
            .map(SimTime::from_micros)
            .collect();
        let g = TrafficGenome {
            timestamps: ts.clone(),
            duration: DUR,
            max_packets: 100,
        };
        let flat = g.flattened_bursts(SimDuration::from_millis(1));
        assert_eq!(flat.packet_count(), g.packet_count());
        flat.validate().unwrap();
        // The burst's first and last packets stay in place.
        assert_eq!(flat.timestamps[0], ts[0]);
        assert_eq!(flat.timestamps[4], ts[4]);
        assert_eq!(flat.timestamps[5], ts[5]);
        // Interior packets are evenly spaced across the burst span.
        let gaps: Vec<u64> = flat.timestamps[..5]
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos())
            .collect();
        assert!(
            gaps.windows(2).all(|w| w[0].abs_diff(w[1]) <= 1),
            "{gaps:?}"
        );
    }

    #[test]
    fn shortened_outages_compresses_long_gaps_only() {
        let ts: Vec<SimTime> = vec![0, 100, 3_000, 3_100]
            .into_iter()
            .map(SimTime::from_millis)
            .collect();
        let g = TrafficGenome {
            timestamps: ts,
            duration: DUR,
            max_packets: 100,
        };
        let s = g.shortened_outages(SimDuration::from_millis(500));
        assert_eq!(s.packet_count(), 4);
        s.validate().unwrap();
        assert_eq!(
            s.timestamps[1] - s.timestamps[0],
            SimDuration::from_millis(100)
        );
        assert_eq!(
            s.timestamps[2] - s.timestamps[1],
            SimDuration::from_millis(500)
        );
        assert_eq!(
            s.timestamps[3] - s.timestamps[2],
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn link_quantized_preserves_count_and_bounds() {
        let mut rng = rng();
        let g = LinkGenome::generate(2_000, DUR, SimDuration::from_millis(50), &mut rng);
        let q = g.quantized(SimDuration::from_millis(10));
        assert_eq!(q.packet_count(), g.packet_count());
        q.validate().unwrap();
        assert!(q
            .timestamps
            .iter()
            .all(|t| t.as_nanos() % 10_000_000 == 0 || t.as_nanos() == g.duration.as_nanos()));
        // Distinct instants shrink dramatically.
        let distinct = |ts: &[SimTime]| {
            let mut v = ts.to_vec();
            v.dedup();
            v.len()
        };
        assert!(distinct(&q.timestamps) < distinct(&g.timestamps));
    }

    #[test]
    fn link_shortened_outages_preserves_count() {
        let ts: Vec<SimTime> = vec![0, 10, 4_000, 4_010]
            .into_iter()
            .map(SimTime::from_millis)
            .collect();
        let g = LinkGenome {
            timestamps: ts,
            duration: DUR,
            k_agg: SimDuration::from_millis(50),
        };
        let s = g.shortened_outages(SimDuration::from_millis(200));
        assert_eq!(s.packet_count(), 4);
        s.validate().unwrap();
        assert_eq!(
            s.timestamps[2] - s.timestamps[1],
            SimDuration::from_millis(200)
        );
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = rng();
        let g = TrafficGenome::generate(100, DUR, &mut rng);
        let json = serde_json::to_string(&g).unwrap();
        let back: TrafficGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        let l = LinkGenome::generate(100, DUR, SimDuration::from_millis(50), &mut rng);
        let json = serde_json::to_string(&l).unwrap();
        let back: LinkGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
