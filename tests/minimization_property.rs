//! Property tests for trace minimization: for arbitrary genomes, retention
//! fractions and (synthetic) objectives, minimization must never *grow* a
//! trace and must always retain at least the configured fraction of the
//! original score — and must come out the same whether its candidate scans
//! run on one worker or several.
//!
//! The evaluators here are synthetic (no network simulation) so the
//! properties can be checked over many random cases quickly; the real
//! simulator-backed path is covered by `tests/corpus_regression.rs`.

use cc_fuzz::corpus::minimize::{minimize_link, minimize_traffic, MinimizeConfig, MinimizePool};
use cc_fuzz::fuzz::evaluate::{EvalOutcome, Evaluator};
use cc_fuzz::fuzz::genome::{Genome, LinkGenome, TrafficGenome};
use cc_fuzz::netsim::rng::SimRng;
use cc_fuzz::netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Synthetic objective: the score is the number of packets inside a window,
/// dampened so that supersets never score worse (monotone), plus a small
/// reward for early packets. Parameterized so different cases exercise
/// different landscapes.
struct WindowCountEvaluator {
    window_start: SimTime,
    window_end: SimTime,
}

impl Evaluator<TrafficGenome> for WindowCountEvaluator {
    fn evaluate(&self, genome: &TrafficGenome) -> EvalOutcome {
        let times = genome.timestamps();
        let in_window = times
            .iter()
            .filter(|t| **t >= self.window_start && **t <= self.window_end)
            .count() as f64;
        let early = times.iter().filter(|t| **t < self.window_start).count() as f64;
        EvalOutcome {
            score: in_window + 0.1 * early.sqrt(),
            ..Default::default()
        }
    }
}

struct LinkBurstEvaluator;

impl Evaluator<LinkGenome> for LinkBurstEvaluator {
    fn evaluate(&self, genome: &LinkGenome) -> EvalOutcome {
        // Score: largest service gap in seconds (an "outage depth" proxy).
        let max_gap = genome
            .timestamps()
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .fold(0.0, f64::max);
        EvalOutcome {
            score: max_gap,
            ..Default::default()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traffic_minimization_never_grows_and_retains_score(
        seed in any::<u64>(),
        packets in 1usize..400,
        retain_pct in 50u64..100,
        window_start_ms in 0u64..2_000,
        window_len_ms in 100u64..2_000,
        budget in 5usize..120,
    ) {
        let mut rng = SimRng::new(seed);
        let duration = SimDuration::from_secs(5);
        let genome = TrafficGenome::generate(packets, duration, &mut rng);
        let evaluator = WindowCountEvaluator {
            window_start: SimTime::from_millis(window_start_ms),
            window_end: SimTime::from_millis(window_start_ms + window_len_ms),
        };
        let cfg = MinimizeConfig {
            retain_fraction: retain_pct as f64 / 100.0,
            max_evaluations: budget,
        };
        let original_score = evaluator.evaluate(&genome).score;
        let (minimized, report) =
            minimize_traffic(&evaluator, &genome, &cfg, &mut MinimizePool::new(1));
        // Speculative batches of three keep exactly what the serial scan keeps.
        let parallel = minimize_traffic(&evaluator, &genome, &cfg, &mut MinimizePool::new(3));
        prop_assert_eq!(&parallel.0, &minimized);
        prop_assert_eq!(&parallel.1, &report);

        // Invariant 1: the trace never grows.
        prop_assert!(minimized.packet_count() <= genome.packet_count(),
            "{} -> {}", genome.packet_count(), minimized.packet_count());
        // Invariant 2: the minimized score clears the retention threshold.
        let threshold = original_score * cfg.retain_fraction;
        let final_score = evaluator.evaluate(&minimized).score;
        prop_assert!(final_score >= threshold,
            "score {final_score} fell below threshold {threshold}: {report:?}");
        // Report is consistent with reality.
        prop_assert_eq!(report.minimized_packets as usize, minimized.packet_count());
        prop_assert_eq!(report.minimized_score, final_score);
        prop_assert!(report.evaluations <= budget as u64 + 1);
        // The result is still a valid genome.
        prop_assert!(minimized.validate().is_ok());
    }

    #[test]
    fn link_minimization_preserves_count_and_retains_score(
        seed in any::<u64>(),
        packets in 2usize..600,
        retain_pct in 50u64..100,
    ) {
        let mut rng = SimRng::new(seed);
        let duration = SimDuration::from_secs(5);
        let genome = LinkGenome::generate(packets, duration, SimDuration::from_millis(50), &mut rng);
        let cfg = MinimizeConfig {
            retain_fraction: retain_pct as f64 / 100.0,
            ..Default::default()
        };
        let original_score = LinkBurstEvaluator.evaluate(&genome).score;
        let (minimized, report) =
            minimize_link(&LinkBurstEvaluator, &genome, &cfg, &mut MinimizePool::new(1));
        let parallel = minimize_link(&LinkBurstEvaluator, &genome, &cfg, &mut MinimizePool::new(3));
        prop_assert_eq!(&parallel.0, &minimized);
        prop_assert_eq!(&parallel.1, &report);

        // Link genomes must keep their packet count (it defines the average
        // bandwidth) — "never increases" holds with equality.
        prop_assert_eq!(minimized.packet_count(), genome.packet_count());
        let threshold = original_score * cfg.retain_fraction;
        let final_score = LinkBurstEvaluator.evaluate(&minimized).score;
        prop_assert!(final_score >= threshold,
            "score {final_score} fell below threshold {threshold}: {report:?}");
        prop_assert!(minimized.validate().is_ok());
        prop_assert_eq!(report.original_packets, packets as u64);
    }
}
