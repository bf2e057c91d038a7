//! Fitness scoring (§3.4 of the paper).
//!
//! A trace's score has two components:
//!
//! * **Performance score** — how badly the CCA performed under the trace
//!   (higher = worse for the CCA = fitter trace). The paper's low-utilization
//!   objective is the mean of the lowest 20 % of windowed throughput; a
//!   high-delay objective uses a low percentile of the queuing delay; a
//!   high-loss objective uses the loss ratio.
//! * **Trace score** — how well the trace itself satisfies properties that
//!   are hard to enforce during generation. For traffic fuzzing this rewards
//!   *minimal* traces: few injected packets and few of them dropped.

use ccfuzz_analysis::timeseries::{mean_of_lowest_fraction_mut, percentile, windowed_rates_into};
use ccfuzz_netsim::packet::FlowId;
use ccfuzz_netsim::sim::SimResult;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What kind of poor behaviour the fuzzer is hunting for.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise the CCA's throughput. The score is based on the mean of the
    /// lowest `lowest_fraction` of `window`-sized throughput windows
    /// (the paper uses 20 %), normalised by `reference_rate_bps`.
    LowThroughput {
        /// Throughput window size.
        window: SimDuration,
        /// Fraction of lowest windows averaged (0.2 in the paper).
        lowest_fraction: f64,
    },
    /// Maximise the CCA's queuing delay. The score is the `percentile`-th
    /// percentile of the CCA flow's queuing delay (the paper's §4.3 example
    /// uses the 10th percentile), in seconds.
    HighDelay {
        /// Percentile of the per-packet queuing delay used as the score.
        percentile: f64,
    },
    /// Multi-flow objective: maximise *unfairness* between concurrent
    /// congestion-controlled flows sharing the bottleneck. The score is
    /// `(1 - Jain's index over per-flow goodput) + starvation_weight * s`,
    /// where `s` is the longest zero-delivery interval of any flow as a
    /// fraction of that flow's active time (the starvation-duration
    /// penalty), normalised by `1 + starvation_weight` so the score lives
    /// in `[0, 1]` without a gradient-flattening clamp.
    Unfairness {
        /// Weight of the starvation-duration penalty.
        starvation_weight: f64,
    },
    /// AQM objective: find gateway configurations that *break* a CCA. The
    /// base term is the low-throughput score (same windowed form as
    /// [`Objective::LowThroughput`]); on top of it, `mark_weight` rewards a
    /// high CE-mark rate (the CCA is being told to slow down constantly)
    /// and `delay_weight` rewards standing queues (the AQM failed at its
    /// one job). The sum is normalised by `1 + mark_weight + delay_weight`,
    /// so the score lives in `[0, 1]` without clamping away the gradient.
    AqmBreakage {
        /// Throughput window size (as in `LowThroughput`).
        window: SimDuration,
        /// Fraction of lowest windows averaged.
        lowest_fraction: f64,
        /// Weight of the CE-mark-rate term (marks / packets offered).
        mark_weight: f64,
        /// Weight of the standing-queue term (mean queue depth expressed as
        /// seconds of drain time at the reference rate, capped at 1 s).
        delay_weight: f64,
    },
    /// Multi-hop objective: find parking-lot topologies that break flows.
    /// The base term is the primary flow's windowed low-throughput score;
    /// `cascade_weight` rewards *cascaded* standing queues (the mean
    /// per-hop drain time, so a chain of simultaneously-bloated queues
    /// scores higher than one deep queue), and `collapse_weight` rewards
    /// per-path throughput collapse (the worst flow's goodput relative to
    /// the reference rate — a starved sub-path flow maximises it). The sum
    /// is normalised by `1 + cascade_weight + collapse_weight`.
    MultiBottleneck {
        /// Throughput window size (as in `LowThroughput`).
        window: SimDuration,
        /// Fraction of lowest windows averaged.
        lowest_fraction: f64,
        /// Weight of the cascaded-standing-queue term.
        cascade_weight: f64,
        /// Weight of the per-path throughput-collapse term.
        collapse_weight: f64,
    },
    /// Workload objective: maximise the tail flow-completion-time inflation
    /// of short flows (mice) under dynamic arrivals. The base term is
    /// `1 - baseline / p`, where `p` is the `percentile`-th percentile of
    /// the mice FCT distribution — 0 when mice finish at the ideal
    /// `baseline`, approaching 1 as the tail inflates without bound. On top,
    /// `stranded_weight` rewards flows that arrived but never completed at
    /// all (mice parked behind elephants until the run ends are the
    /// worst-case tail). The sum is normalised by `1 + stranded_weight`.
    /// Scores 0 when the run recorded no workload at all.
    TailLatency {
        /// Percentile of the mice FCT distribution used as the tail (99.0
        /// hunts the paper-style p99 inflation).
        percentile: f64,
        /// The ideal mouse completion time the tail is measured against
        /// (roughly transmission time of a threshold-sized mouse plus one
        /// RTT on the unloaded path).
        baseline: SimDuration,
        /// Weight of the never-completed-flows term.
        stranded_weight: f64,
    },
}

/// Weights and normalisation for combining the two score components.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoringConfig {
    /// The behaviour being hunted.
    pub objective: Objective,
    /// Weight of the performance component.
    pub performance_weight: f64,
    /// Weight of the trace component (0 disables it; link fuzzing uses 0).
    pub trace_weight: f64,
    /// Rate used to normalise throughput scores (the bottleneck/average link
    /// rate, 12 Mbps in the paper).
    pub reference_rate_bps: f64,
}

impl ScoringConfig {
    /// The paper's low-utilization scoring: lowest-20 %-window throughput on
    /// 500 ms windows, normalised to the 12 Mbps bottleneck.
    pub fn low_throughput_default(reference_rate_bps: f64) -> Self {
        ScoringConfig {
            objective: Objective::LowThroughput {
                window: SimDuration::from_millis(500),
                lowest_fraction: 0.2,
            },
            performance_weight: 1.0,
            trace_weight: 0.25,
            reference_rate_bps,
        }
    }

    /// The §4.3 high-delay scoring: 10th-percentile queuing delay. The trace
    /// (minimality) weight is kept small because the delay score itself lives
    /// on a much smaller numeric scale than the throughput score.
    pub fn high_delay_default(reference_rate_bps: f64) -> Self {
        ScoringConfig {
            objective: Objective::HighDelay { percentile: 10.0 },
            performance_weight: 1.0,
            trace_weight: 0.02,
            reference_rate_bps,
        }
    }

    /// Fairness-fuzzing scoring: hunt for scenarios where concurrent flows
    /// share the bottleneck badly. Starvation is weighted at 0.5 so a
    /// scenario that fully starves one flow scores higher than one that
    /// merely skews the split. The trace weight rewards minimal
    /// cross-traffic helpers (0 packets when the unfairness needs none).
    pub fn fairness_default(reference_rate_bps: f64) -> Self {
        ScoringConfig {
            objective: Objective::Unfairness {
                starvation_weight: 0.5,
            },
            performance_weight: 1.0,
            trace_weight: 0.1,
            reference_rate_bps,
        }
    }

    /// AQM-fuzzing scoring: the paper's windowed low-throughput term plus
    /// mark-rate and standing-queue terms at half weight each, and a small
    /// trace weight so minimal cross-traffic helpers win ties.
    pub fn aqm_default(reference_rate_bps: f64) -> Self {
        ScoringConfig {
            objective: Objective::AqmBreakage {
                window: SimDuration::from_millis(500),
                lowest_fraction: 0.2,
                mark_weight: 0.5,
                delay_weight: 0.5,
            },
            performance_weight: 1.0,
            trace_weight: 0.1,
            reference_rate_bps,
        }
    }

    /// Workload-fuzzing scoring: p99 mice FCT inflation against a 100 ms
    /// ideal (one threshold-sized mouse at the 12 Mbps bottleneck plus the
    /// 40 ms base RTT), with stranded never-completing flows at half
    /// weight. No trace component: workload minimality is the minimiser's
    /// job, not the fitness function's.
    pub fn workload_default(reference_rate_bps: f64) -> Self {
        ScoringConfig {
            objective: Objective::TailLatency {
                percentile: 99.0,
                baseline: SimDuration::from_millis(100),
                stranded_weight: 0.5,
            },
            performance_weight: 1.0,
            trace_weight: 0.0,
            reference_rate_bps,
        }
    }

    /// Topology-fuzzing scoring: the windowed low-throughput term plus
    /// cascaded-standing-queue and per-path-collapse terms at half weight
    /// each, and a small trace weight so minimal cross-traffic helpers win
    /// ties.
    pub fn topology_default(reference_rate_bps: f64) -> Self {
        ScoringConfig {
            objective: Objective::MultiBottleneck {
                window: SimDuration::from_millis(500),
                lowest_fraction: 0.2,
                cascade_weight: 0.5,
                collapse_weight: 0.5,
            },
            performance_weight: 1.0,
            trace_weight: 0.1,
            reference_rate_bps,
        }
    }
}

// ---------------------------------------------------------------------------
// Fairness metrics
// ---------------------------------------------------------------------------

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 means perfectly fair; `1/n` means one flow takes
/// everything. Empty or all-zero inputs score 1.0 (nothing to be unfair
/// about).
pub fn jains_index(values: &[f64]) -> f64 {
    jain(values.iter().copied())
}

/// [`jains_index`] over any re-iterable sequence, so the scorer can take
/// per-flow goodputs as it computes them without collecting them.
fn jain(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = values.clone().count();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.clone().sum();
    let sum_sq: f64 = values.map(|v| v * v).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Longest interval with zero deliveries inside `[start, active_end]`, in
/// seconds, given the flow's sorted delivery times. The leading gap (start →
/// first delivery) and trailing gap (last delivery → active end) count too:
/// a flow that never delivers is starved for its whole active interval.
pub fn longest_starvation_secs(
    delivery_times: &[ccfuzz_netsim::time::SimTime],
    start: ccfuzz_netsim::time::SimTime,
    active_end: ccfuzz_netsim::time::SimTime,
) -> f64 {
    if active_end <= start {
        return 0.0;
    }
    let mut longest = SimDuration::ZERO;
    let mut prev = start;
    for t in delivery_times {
        let t = (*t).clamp(start, active_end);
        let gap = t.saturating_since(prev);
        if gap > longest {
            longest = gap;
        }
        prev = t;
    }
    let tail = active_end.saturating_since(prev);
    if tail > longest {
        longest = tail;
    }
    longest.as_secs_f64()
}

/// The per-flow fairness measurements derived from one multi-flow run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FairnessBreakdown {
    /// Sink-side goodput of each flow over its active interval, bits/s.
    pub per_flow_goodput_bps: Vec<f64>,
    /// Distinct packets each flow delivered to its receiver.
    pub per_flow_delivered: Vec<u64>,
    /// Jain's index over `per_flow_goodput_bps`.
    pub jain_index: f64,
    /// Longest zero-delivery interval of any flow, seconds.
    pub max_starvation_secs: f64,
    /// Largest per-flow ratio of starvation time to active time. Note this
    /// is a maximum over per-flow *fractions*, so it can come from a
    /// different flow than `max_starvation_secs` (a briefly-active flow
    /// starved for its whole short life maximises the fraction while a
    /// long-lived flow maximises the seconds).
    pub max_starvation_fraction: f64,
}

/// Computes the fairness breakdown of a (multi-flow) simulation result.
/// With fewer than two flows the breakdown is trivially fair.
pub fn fairness_breakdown(result: &SimResult, mss: u32) -> FairnessBreakdown {
    let per_flow_goodput_bps: Vec<f64> = flow_goodputs(result, mss).collect();
    let per_flow_delivered: Vec<u64> = result
        .stats
        .flows
        .iter()
        .map(|f| f.delivery_times.len() as u64)
        .collect();
    let (max_starvation_secs, max_starvation_fraction) = max_starvation(result);
    FairnessBreakdown {
        jain_index: jains_index(&per_flow_goodput_bps),
        per_flow_goodput_bps,
        per_flow_delivered,
        max_starvation_secs,
        max_starvation_fraction,
    }
}

/// Sink-side goodput of each flow over its active interval, bits/s.
fn flow_goodputs(result: &SimResult, mss: u32) -> impl Iterator<Item = f64> + Clone + '_ {
    let duration = SimDuration::from_secs_f64(result.duration_secs);
    result
        .stats
        .flows
        .iter()
        .map(move |f| f.goodput_bps(mss, duration))
}

/// The longest zero-delivery interval of any flow, in seconds, and the
/// largest per-flow ratio of starvation to active time (see
/// [`FairnessBreakdown`]).
fn max_starvation(result: &SimResult) -> (f64, f64) {
    let duration = SimDuration::from_secs_f64(result.duration_secs);
    let mut max_starvation_secs = 0.0f64;
    let mut max_starvation_fraction = 0.0f64;
    for f in &result.stats.flows {
        let active_end = f
            .stop
            .unwrap_or(ccfuzz_netsim::time::SimTime::ZERO + duration)
            .min(ccfuzz_netsim::time::SimTime::ZERO + duration);
        let starved = longest_starvation_secs(&f.delivery_times, f.start, active_end);
        let active = f.active_secs(duration);
        let fraction = if active > 0.0 { starved / active } else { 0.0 };
        if starved > max_starvation_secs {
            max_starvation_secs = starved;
        }
        if fraction > max_starvation_fraction {
            max_starvation_fraction = fraction;
        }
    }
    (max_starvation_secs, max_starvation_fraction)
}

/// Inputs for the trace-score component (traffic fuzzing only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceScoreInputs {
    /// Cross-traffic packets the genome injects.
    pub traffic_packets: usize,
    /// The genome's packet cap (for normalisation).
    pub traffic_max_packets: usize,
    /// Cross-traffic packets dropped at the bottleneck queue during the run.
    pub traffic_dropped: u64,
}

/// Reusable buffers for the scoring pass: the per-window delivery counts
/// and rate values of the throughput objectives. One per worker, threaded
/// through [`performance_score_reusing`]; a warm scorer allocates nothing.
/// Scratch reuse never changes scores — the buffers only donate capacity.
#[derive(Default)]
pub struct ScoreScratch {
    counts: Vec<u64>,
    rates: Vec<f64>,
}

/// Computes the performance component in `[0, 1]`-ish range (higher = worse
/// CCA performance = fitter adversarial trace).
pub fn performance_score(
    objective: &Objective,
    result: &SimResult,
    mss: u32,
    reference_rate_bps: f64,
) -> f64 {
    performance_score_reusing(
        objective,
        result,
        mss,
        reference_rate_bps,
        &mut ScoreScratch::default(),
    )
}

/// [`performance_score`] with reusable scoring buffers (identical result).
pub fn performance_score_reusing(
    objective: &Objective,
    result: &SimResult,
    mss: u32,
    reference_rate_bps: f64,
    scratch: &mut ScoreScratch,
) -> f64 {
    let reference = reference_rate_bps.max(1.0);
    match objective {
        Objective::LowThroughput {
            window,
            lowest_fraction,
        } => low_throughput(result, mss, *window, *lowest_fraction, reference, scratch),
        Objective::HighDelay { percentile: p } => {
            let delays: Vec<f64> = result
                .stats
                .queuing_delays(FlowId::Cca(0))
                .iter()
                .map(|(_, d)| d.as_secs_f64())
                .collect();
            // Normalise by one second so typical scores stay in [0, 1] while
            // still being monotone in delay.
            percentile(&delays, *p).min(1.0)
        }
        Objective::Unfairness { starvation_weight } => {
            let starvation = (*starvation_weight, max_starvation(result).1);
            normalized(1.0 - jain(flow_goodputs(result, mss)), &[starvation])
        }
        Objective::AqmBreakage {
            window,
            lowest_fraction,
            mark_weight,
            delay_weight,
        } => {
            let throughput =
                low_throughput(result, mss, *window, *lowest_fraction, reference, scratch);

            // Mark rate: CE marks per packet offered to the gateway by the
            // CCA population. AQM runs are single-hop: hop 0 is the gateway.
            let c = (result.stats.hop_counters.first().copied()).unwrap_or_default();
            let offered = (c.enqueued_cca + c.dropped_cca).max(1);
            let mark_term = (c.marked_cca as f64 / offered as f64).clamp(0.0, 1.0);

            let delay_term = (result.stats.hop_samples.first())
                .map_or(0.0, |samples| standing_queue(samples, reference));
            normalized(
                throughput,
                &[(*mark_weight, mark_term), (*delay_weight, delay_term)],
            )
        }
        Objective::MultiBottleneck {
            window,
            lowest_fraction,
            cascade_weight,
            collapse_weight,
        } => {
            let throughput =
                low_throughput(result, mss, *window, *lowest_fraction, reference, scratch);

            // Cascaded standing queues: the mean of the *per-hop* standing
            // queue terms. Averaging across hops means a chain of
            // simultaneously bloated queues beats one deep queue — the
            // cascade is exactly what single-bottleneck fuzzing cannot
            // produce.
            let hops = &result.stats.hop_samples;
            let cascade_term = (hops.iter())
                .map(|samples| standing_queue(samples, reference))
                .sum::<f64>()
                / hops.len().max(1) as f64;

            // Per-path throughput collapse: the worst flow's goodput over
            // its own active interval, normalised by the reference rate.
            // A starved parking-lot flow drives this toward 1.
            let duration = SimDuration::from_secs_f64(result.duration_secs);
            let collapse_term = result
                .stats
                .flows
                .iter()
                .map(|f| 1.0 - (f.goodput_bps(mss, duration) / reference).clamp(0.0, 1.0))
                .fold(0.0f64, f64::max);

            normalized(
                throughput,
                &[
                    (*cascade_weight, cascade_term),
                    (*collapse_weight, collapse_term),
                ],
            )
        }
        Objective::TailLatency {
            percentile: p,
            baseline,
            stranded_weight,
        } => {
            let Some(w) = result.stats.workload() else {
                // Not a workload run (or arrivals never configured):
                // nothing to inflate.
                return 0.0;
            };
            let inflation_term = if w.fct_mice.count() == 0 {
                // No mouse ever finished. With arrivals configured that is
                // itself a tail catastrophe — the stranded term captures it.
                0.0
            } else {
                let tail = w.fct_mice.percentile_nanos(*p) as f64 / 1e9;
                let base = baseline.as_secs_f64().max(1e-9);
                // 0 at the ideal baseline, 0.9 at 10x inflation, → 1 as the
                // tail grows without bound; smooth and unclamped in between.
                1.0 - base / tail.max(base)
            };
            let stranded_term = if w.spawned == 0 {
                0.0
            } else {
                w.active_at_end() as f64 / w.spawned as f64
            };
            normalized(inflation_term, &[(*stranded_weight, stranded_term)])
        }
    }
}

/// The paper's windowed low-throughput term: one minus the mean of the
/// lowest `lowest_fraction` of `window`-sized throughput windows, as a
/// fraction of `reference`, in `[0, 1]`.
fn low_throughput(
    result: &SimResult,
    mss: u32,
    window: SimDuration,
    lowest_fraction: f64,
    reference: f64,
    scratch: &mut ScoreScratch,
) -> f64 {
    let duration = SimDuration::from_secs_f64(result.duration_secs);
    windowed_rates_into(
        result.stats.delivery_times(),
        mss,
        window,
        duration,
        &mut scratch.counts,
        &mut scratch.rates,
    );
    let low = mean_of_lowest_fraction_mut(&mut scratch.rates, lowest_fraction);
    (1.0 - low / reference).clamp(0.0, 1.0)
}

/// A standing-queue term: the mean sampled queue occupancy expressed as
/// seconds of drain time at `reference`, capped at 1 s (computable without
/// the per-packet event log the fuzzer's hot loop disables). 0 without
/// samples.
fn standing_queue(samples: &[(SimTime, usize, u64)], reference: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean_bytes = samples.iter().map(|(_, _, b)| *b as f64).sum::<f64>() / samples.len() as f64;
    (mean_bytes * 8.0 / reference).min(1.0)
}

/// Combines a base term with weighted extra terms and normalises by the
/// maximum attainable value, `1 + Σ max(weight, 0)`, instead of clamping:
/// a hard cap at 1.0 would flatten the fitness gradient once several terms
/// are high, and the GA could no longer tell strictly-worse cases apart.
fn normalized(base: f64, terms: &[(f64, f64)]) -> f64 {
    let raw = terms.iter().fold(base, |raw, (w, term)| raw + w * term);
    let scale = terms.iter().fold(1.0, |scale, (w, _)| scale + w.max(0.0));
    (raw / scale).clamp(0.0, 1.0)
}

/// Computes the trace component in `[0, 1]` (higher = more minimal trace).
pub fn trace_score(inputs: &TraceScoreInputs) -> f64 {
    if inputs.traffic_max_packets == 0 {
        return 0.0;
    }
    let max = inputs.traffic_max_packets as f64;
    let packets_penalty = inputs.traffic_packets as f64 / max;
    let drops_penalty = inputs.traffic_dropped as f64 / max;
    (1.0 - 0.7 * packets_penalty - 0.3 * drops_penalty).clamp(0.0, 1.0)
}

/// Combines both components.
pub fn total_score(cfg: &ScoringConfig, performance: f64, trace: f64) -> f64 {
    cfg.performance_weight * performance + cfg.trace_weight * trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::stats::{FlowStats, RunStats};
    use ccfuzz_netsim::time::SimTime;

    fn result_with_deliveries(times: Vec<SimTime>, duration_secs: f64) -> SimResult {
        SimResult {
            stats: RunStats {
                flows: vec![FlowStats {
                    delivery_times: times,
                    ..Default::default()
                }],
                ..Default::default()
            },
            duration_secs,
        }
    }

    #[test]
    fn low_throughput_score_rewards_starvation() {
        // The default: the mean of the lowest two of ten 500 ms windows.
        let objective = ScoringConfig::low_throughput_default(12e6).objective;
        // Full-rate delivery: ~1000 packets/s of 1448B ≈ 11.6 Mbps.
        let busy: Vec<SimTime> = (0..5_000).map(SimTime::from_millis).collect();
        let busy_score =
            performance_score(&objective, &result_with_deliveries(busy, 5.0), 1448, 12e6);
        // Starved flow: nothing delivered after 1s.
        let starved: Vec<SimTime> = (0..1_000).map(SimTime::from_millis).collect();
        let starved_score = performance_score(
            &objective,
            &result_with_deliveries(starved, 5.0),
            1448,
            12e6,
        );
        assert!(starved_score > busy_score);
        assert!(
            starved_score > 0.9,
            "fully starved windows should score near 1: {starved_score}"
        );
        assert!(
            busy_score < 0.2,
            "a link-filling flow should score near 0: {busy_score}"
        );
        // The saturation: one 1 s gap (a stall of one 1 s `min_rto`) in a
        // run that otherwise fills the link empties two windows, the whole
        // lowest 20 %, so a single stall already scores near the maximum.
        let one_gap: Vec<SimTime> = (0..5_000)
            .filter(|ms| !(2_000..3_000).contains(ms))
            .map(SimTime::from_millis)
            .collect();
        let one_gap_score = performance_score(
            &objective,
            &result_with_deliveries(one_gap, 5.0),
            1448,
            12e6,
        );
        assert!(
            one_gap_score >= 0.95,
            "one 1 s gap saturates the objective: {one_gap_score}"
        );
    }

    #[test]
    fn high_delay_score_uses_percentile_of_queuing_delay() {
        use ccfuzz_netsim::stats::{BottleneckEvent, LogEvent, LogRecord};
        let objective = Objective::HighDelay { percentile: 10.0 };
        let mk = |delay_ms: u64| LogRecord {
            at: SimTime::from_millis(delay_ms),
            flow: FlowId::Cca(0),
            hop: 0,
            event: LogEvent::Queue {
                size: 1448,
                event: BottleneckEvent::Dequeued {
                    queuing_delay: SimDuration::from_millis(delay_ms),
                },
            },
        };
        let low_delay = SimResult {
            stats: RunStats {
                log: (1..=100).map(mk).collect(),
                ..Default::default()
            },
            duration_secs: 5.0,
        };
        let high_delay = SimResult {
            stats: RunStats {
                log: (150..=250).map(mk).collect(),
                ..Default::default()
            },
            duration_secs: 5.0,
        };
        let low = performance_score(&objective, &low_delay, 1448, 12e6);
        let high = performance_score(&objective, &high_delay, 1448, 12e6);
        assert!(high > low);
        assert!(
            high >= 0.15,
            "p10 of 150-250ms delays is at least 150ms: {high}"
        );
    }

    #[test]
    fn trace_score_prefers_minimal_traces() {
        let small = TraceScoreInputs {
            traffic_packets: 50,
            traffic_max_packets: 1_000,
            traffic_dropped: 0,
        };
        let large = TraceScoreInputs {
            traffic_packets: 900,
            traffic_max_packets: 1_000,
            traffic_dropped: 0,
        };
        let wasteful = TraceScoreInputs {
            traffic_packets: 900,
            traffic_max_packets: 1_000,
            traffic_dropped: 500,
        };
        assert!(trace_score(&small) > trace_score(&large));
        assert!(trace_score(&large) > trace_score(&wasteful));
        assert_eq!(trace_score(&TraceScoreInputs::default()), 0.0);
    }

    #[test]
    fn total_score_weights_components() {
        let cfg = ScoringConfig {
            objective: Objective::HighDelay { percentile: 10.0 },
            performance_weight: 1.0,
            trace_weight: 0.5,
            reference_rate_bps: 12e6,
        };
        assert_eq!(total_score(&cfg, 0.8, 0.4), 0.8 + 0.2);
    }

    #[test]
    fn jains_index_known_values() {
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
        assert!((jains_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One flow hogs everything: 1/n.
        assert!((jains_index(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((jains_index(&[10.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // 2:1 split of two flows: 9/10.
        assert!((jains_index(&[2.0, 1.0]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn starvation_counts_leading_interior_and_trailing_gaps() {
        use ccfuzz_netsim::time::SimTime;
        let t = |ms: u64| SimTime::from_millis(ms);
        // No deliveries at all: starved for the whole active interval.
        assert_eq!(longest_starvation_secs(&[], t(1_000), t(4_000)), 3.0);
        // Leading gap dominates.
        let times = vec![t(3_500), t(3_600), t(4_000)];
        assert!((longest_starvation_secs(&times, t(1_000), t(4_000)) - 2.5).abs() < 1e-9);
        // Interior gap dominates.
        let times = vec![t(1_100), t(2_900), t(3_000), t(3_900)];
        assert!((longest_starvation_secs(&times, t(1_000), t(4_000)) - 1.8).abs() < 1e-9);
        // Trailing gap dominates.
        let times = vec![t(1_100), t(1_200)];
        assert!((longest_starvation_secs(&times, t(1_000), t(4_000)) - 2.8).abs() < 1e-9);
        // Degenerate interval.
        assert_eq!(longest_starvation_secs(&[], t(4_000), t(1_000)), 0.0);
    }

    #[test]
    fn unfairness_objective_scores_skewed_runs_higher() {
        let objective = Objective::Unfairness {
            starvation_weight: 0.5,
        };
        let flow_stats = |times: Vec<SimTime>| FlowStats {
            delivery_times: times,
            ..Default::default()
        };
        // Fair: both flows deliver at the same rate for 5 s.
        let fair = SimResult {
            stats: RunStats {
                flows: vec![
                    flow_stats((0..500).map(|i| SimTime::from_millis(i * 10)).collect()),
                    flow_stats((0..500).map(|i| SimTime::from_millis(5 + i * 10)).collect()),
                ],
                ..Default::default()
            },
            duration_secs: 5.0,
        };
        // Unfair: the second flow delivers almost nothing and stalls for
        // most of the run.
        let unfair = SimResult {
            stats: RunStats {
                flows: vec![
                    flow_stats((0..900).map(|i| SimTime::from_millis(i * 5)).collect()),
                    flow_stats(vec![SimTime::from_millis(10)]),
                ],
                ..Default::default()
            },
            duration_secs: 5.0,
        };
        let fair_score = performance_score(&objective, &fair, 1448, 12e6);
        let unfair_score = performance_score(&objective, &unfair, 1448, 12e6);
        assert!(fair_score < 0.1, "fair run must score near 0: {fair_score}");
        assert!(
            unfair_score > 0.6,
            "starved run must score high: {unfair_score}"
        );
        // The score never saturates below the true maximum: a fully starved,
        // maximally skewed two-flow run approaches but does not clamp at 1.
        assert!(unfair_score < 1.0);
        let b = fairness_breakdown(&unfair, 1448);
        assert_eq!(b.per_flow_delivered, vec![900, 1]);
        assert!(b.jain_index < 0.55);
        assert!(b.max_starvation_secs > 4.5);
    }

    #[test]
    fn single_flow_unfairness_is_starvation_only() {
        let objective = Objective::Unfairness {
            starvation_weight: 0.5,
        };
        // One flow, delivering steadily: nothing unfair, nothing starved.
        let result = SimResult {
            stats: RunStats {
                flows: vec![FlowStats {
                    delivery_times: (0..500).map(|i| SimTime::from_millis(i * 10)).collect(),
                    ..Default::default()
                }],
                ..Default::default()
            },
            duration_secs: 5.0,
        };
        let score = performance_score(&objective, &result, 1448, 12e6);
        assert!(score < 0.01, "{score}");
    }

    #[test]
    fn aqm_breakage_rewards_marks_and_standing_queues() {
        use ccfuzz_netsim::queue::QueueCounters;
        let objective = Objective::AqmBreakage {
            window: SimDuration::from_millis(500),
            lowest_fraction: 0.2,
            mark_weight: 0.5,
            delay_weight: 0.5,
        };
        let times: Vec<SimTime> = (0..2_500).map(|i| SimTime::from_millis(i * 2)).collect();
        let base = result_with_deliveries(times.clone(), 5.0);
        let base_score = performance_score(&objective, &base, 1448, 12e6);

        // Same throughput, but half the offered packets were CE-marked.
        let mut marked = result_with_deliveries(times.clone(), 5.0);
        marked.stats.hop_counters = vec![QueueCounters {
            enqueued_cca: 2_000,
            marked_cca: 1_000,
            ..Default::default()
        }];
        let marked_score = performance_score(&objective, &marked, 1448, 12e6);
        assert!(
            marked_score > base_score + 0.1,
            "marks must raise the score: {marked_score} vs {base_score}"
        );

        // Same throughput, but the queue held a deep standing backlog.
        let mut delayed = result_with_deliveries(times, 5.0);
        delayed.stats.hop_samples = vec![(0..100)
            .map(|i| (SimTime::from_millis(i * 50), 100usize, 1_500_000u64))
            .collect()];
        let delayed_score = performance_score(&objective, &delayed, 1448, 12e6);
        assert!(
            delayed_score > base_score + 0.1,
            "standing queues must raise the score: {delayed_score} vs {base_score}"
        );
        // Scores stay in [0, 1]: normalised, not clamped away.
        for s in [base_score, marked_score, delayed_score] {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn multi_bottleneck_rewards_cascades_and_path_collapse() {
        let objective = Objective::MultiBottleneck {
            window: SimDuration::from_millis(500),
            lowest_fraction: 0.2,
            cascade_weight: 0.5,
            collapse_weight: 0.5,
        };
        let times: Vec<SimTime> = (0..2_500).map(|i| SimTime::from_millis(i * 2)).collect();
        let samples = |bytes: u64| -> Vec<(SimTime, usize, u64)> {
            (0..100)
                .map(|i| (SimTime::from_millis(i * 50), 10usize, bytes))
                .collect()
        };
        let base = result_with_deliveries(times.clone(), 5.0);
        let base_score = performance_score(&objective, &base, 1448, 12e6);

        // One deep queue on a 3-hop chain...
        let mut one_deep = result_with_deliveries(times.clone(), 5.0);
        one_deep.stats.hop_samples = vec![samples(1_500_000), samples(0), samples(0)];
        let one_deep_score = performance_score(&objective, &one_deep, 1448, 12e6);
        // ...scores below the same bytes spread as a full cascade.
        let mut cascade = result_with_deliveries(times.clone(), 5.0);
        cascade.stats.hop_samples =
            vec![samples(1_500_000), samples(1_500_000), samples(1_500_000)];
        let cascade_score = performance_score(&objective, &cascade, 1448, 12e6);
        assert!(one_deep_score > base_score);
        assert!(
            cascade_score > one_deep_score + 0.1,
            "cascaded standing queues must beat one deep queue: \
             {cascade_score} vs {one_deep_score}"
        );

        // A starved secondary (sub-path) flow raises the collapse term.
        let mut starved = result_with_deliveries(times, 5.0);
        starved.stats.flows.push(FlowStats {
            delivery_times: vec![SimTime::from_millis(10)],
            ..Default::default()
        });
        let starved_score = performance_score(&objective, &starved, 1448, 12e6);
        assert!(
            starved_score > base_score + 0.1,
            "a collapsed path must raise the score: {starved_score} vs {base_score}"
        );
        for s in [base_score, one_deep_score, cascade_score, starved_score] {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn tail_latency_scores_inflated_mice_tails_higher() {
        use ccfuzz_netsim::stats::WorkloadStats;
        let objective = Objective::TailLatency {
            percentile: 99.0,
            baseline: SimDuration::from_millis(100),
            stranded_weight: 0.5,
        };
        let mk = |fct_ms: u64, stranded: u64| {
            let mut w = WorkloadStats {
                spawned: 100 + stranded,
                ..Default::default()
            };
            for _ in 0..100 {
                w.fct_mice.record(fct_ms * 1_000_000);
            }
            SimResult {
                stats: RunStats {
                    workload: Some(Box::new(w)),
                    ..Default::default()
                },
                duration_secs: 5.0,
            }
        };
        let ideal = performance_score(&objective, &mk(100, 0), 1448, 12e6);
        let inflated = performance_score(&objective, &mk(1_000, 0), 1448, 12e6);
        let stranded = performance_score(&objective, &mk(1_000, 50), 1448, 12e6);
        assert!(ideal < 0.05, "baseline-speed mice must score ~0: {ideal}");
        assert!(
            inflated > ideal + 0.4,
            "10x tail inflation must score high: {inflated}"
        );
        assert!(
            stranded > inflated,
            "never-completing flows must raise the score further"
        );
        // A run without workload stats scores zero, not garbage.
        let none = performance_score(&objective, &result_with_deliveries(vec![], 5.0), 1448, 12e6);
        assert_eq!(none, 0.0);
        for s in [ideal, inflated, stranded] {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn default_configs_match_paper_settings() {
        let low = ScoringConfig::low_throughput_default(12e6);
        match low.objective {
            Objective::LowThroughput {
                lowest_fraction, ..
            } => assert_eq!(lowest_fraction, 0.2),
            _ => panic!("wrong objective"),
        }
        let delay = ScoringConfig::high_delay_default(12e6);
        match delay.objective {
            Objective::HighDelay { percentile } => assert_eq!(percentile, 10.0),
            _ => panic!("wrong objective"),
        }
        let fairness = ScoringConfig::fairness_default(12e6);
        match fairness.objective {
            Objective::Unfairness { starvation_weight } => assert_eq!(starvation_weight, 0.5),
            _ => panic!("wrong objective"),
        }
    }
}
