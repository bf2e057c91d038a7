//! Realism scoring (§5 / Figure 5 of the paper).
//!
//! Instead of heuristics at generation time, a trace's *realism* can be
//! judged by running several different CCAs over it: a trace under which at
//! least a few algorithms achieve good throughput is plausibly something a
//! real network could do, whereas a trace that starves every algorithm (e.g.
//! "no bandwidth for the first four seconds") is trivially adversarial and
//! uninteresting. Figure 5 shows the accepted and rejected service curves
//! under this criterion.

use crate::genome::LinkGenome;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::sim::run_simulation;
use ccfuzz_netsim::trace::TrafficTrace;
use serde::{Deserialize, Serialize};

/// Realism assessment of one trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RealismOutcome {
    /// Normalised goodput (goodput / trace average rate) per CCA, in the
    /// order of [`RealismScorer::ccas`].
    pub normalized_goodput: Vec<(String, f64)>,
    /// The realism score: the mean of the top `top_k` per-CCA normalised
    /// goodputs ("at least a few algorithms perform well").
    pub score: f64,
    /// Whether the trace clears the acceptance threshold.
    pub accepted: bool,
}

/// Scores traces by aggregate CCA performance.
#[derive(Clone, Debug)]
pub struct RealismScorer {
    /// The algorithms run over each trace.
    pub ccas: Vec<CcaKind>,
    /// Base simulation settings (duration, delay, queue...).
    pub base: SimConfig,
    /// How many of the best-performing CCAs are averaged into the score.
    pub top_k: usize,
    /// Minimum score for a trace to be considered realistic.
    pub threshold: f64,
}

impl RealismScorer {
    /// A scorer over Reno, CUBIC, BBR and Vegas. A trace is "realistic" when
    /// the two best algorithms average at least 30 % of the trace's average
    /// bandwidth — unconstrained traces (Figure 5) are bursty enough that even
    /// plausible ones rarely let a CCA reach half of the average rate over a
    /// short 5-second run.
    pub fn standard(base: SimConfig) -> Self {
        RealismScorer {
            ccas: vec![CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas],
            base,
            top_k: 2,
            threshold: 0.3,
        }
    }

    /// Scores a link genome by running every configured CCA over it.
    pub fn score_link(&self, genome: &LinkGenome) -> RealismOutcome {
        let trace = genome.to_trace();
        let reference = trace.average_rate_bps(self.base.mss).max(1.0);
        let mut normalized: Vec<(String, f64)> = Vec::with_capacity(self.ccas.len());
        for cca in &self.ccas {
            let mut cfg = self.base.clone();
            cfg.record_events = false;
            cfg.duration = genome.duration;
            cfg.link = LinkModel::TraceDriven {
                trace: trace.clone(),
            };
            cfg.cross_traffic = TrafficTrace::empty(genome.duration);
            let result = run_simulation(cfg.clone(), cca.build());
            let goodput = result.average_goodput_bps(self.base.mss);
            normalized.push((cca.name().to_string(), (goodput / reference).min(1.5)));
        }
        let mut sorted: Vec<f64> = normalized.iter().map(|(_, v)| *v).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let k = self.top_k.clamp(1, sorted.len().max(1));
        let score = if sorted.is_empty() {
            0.0
        } else {
            sorted[..k].iter().sum::<f64>() / k as f64
        };
        RealismOutcome {
            normalized_goodput: normalized,
            score,
            accepted: score >= self.threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::rng::SimRng;
    use ccfuzz_netsim::time::{SimDuration, SimTime};

    fn base() -> SimConfig {
        let mut cfg = SimConfig::short_default();
        cfg.duration = SimDuration::from_secs(3);
        cfg
    }

    fn scorer() -> RealismScorer {
        let mut s = RealismScorer::standard(base());
        // Keep the test fast: two CCAs are enough to exercise the logic.
        s.ccas = vec![CcaKind::Reno, CcaKind::Cubic];
        s
    }

    #[test]
    fn smooth_trace_is_accepted() {
        let mut rng = SimRng::new(5);
        // A well-behaved 12 Mbps trace generated with the constrained DIST_PACKETS.
        let genome = LinkGenome::generate(
            3 * 1036, // ≈ 12 Mbps of 1448-byte packets for 3 s
            SimDuration::from_secs(3),
            SimDuration::from_millis(50),
            &mut rng,
        );
        let outcome = scorer().score_link(&genome);
        assert!(outcome.score > 0.5, "smooth trace score {}", outcome.score);
        assert!(outcome.accepted);
        assert_eq!(outcome.normalized_goodput.len(), 2);
    }

    #[test]
    fn starving_trace_is_rejected() {
        // All capacity in the first 100 ms, nothing afterwards: every CCA
        // starves, so the trace is unrealistic by this criterion.
        let timestamps: Vec<SimTime> = (0..3_000)
            .map(|i| SimTime::from_nanos(1 + i * 30_000))
            .collect();
        let genome = LinkGenome::new(
            &timestamps,
            SimDuration::from_secs(3),
            SimDuration::from_millis(50),
        );
        let outcome = scorer().score_link(&genome);
        assert!(
            outcome.score < 0.5,
            "starving trace score {}",
            outcome.score
        );
        assert!(!outcome.accepted);
    }
}
