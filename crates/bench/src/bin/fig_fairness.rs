//! Fairness figure: per-flow results of a fairness-fuzzing campaign.
//!
//! Runs the fairness campaign preset (BBR vs. Reno on the paper's 12 Mbps /
//! 20 ms dumbbell), lets the GA evolve the flow schedule and an optional
//! cross-traffic helper toward maximal unfairness, then replays the best
//! scenario and prints:
//!
//! * the GA convergence curve (best unfairness score per generation),
//! * per-flow windowed-throughput curves of the worst scenario found,
//! * a per-flow results table with goodput shares, Jain's index and the
//!   starvation duration.
//!
//! `--paper-scale` runs the full-size GA; the default quick scale finishes
//! in well under a minute.

use ccfuzz_analysis::figures::FigureSeries;
use ccfuzz_analysis::table::per_flow_table;
use ccfuzz_analysis::timeseries::windowed_throughput_bps;
use ccfuzz_bench::{print_figure, print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::Campaign;
use ccfuzz_core::scenario::ScenarioGenome;
use ccfuzz_core::scoring::fairness_breakdown;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let ga = scale.ga(21, 8, 40);
    let flow_ccas = vec![CcaKind::Bbr, CcaKind::Reno];
    let campaign = Campaign::paper_fairness(flow_ccas, duration, ga);
    let result = campaign.run::<ScenarioGenome>(None);

    // Convergence of the unfairness objective.
    let convergence = FigureSeries::new(
        "best unfairness score",
        result
            .history
            .iter()
            .map(|h| (h.generation as f64, h.best_score))
            .collect(),
    );
    print_figure(
        "Fairness fuzzing: best score per generation (BBR vs. Reno, 12 Mbps / 20 ms)",
        &[&convergence],
    );

    // Replay the worst scenario with full recording and chart each flow.
    let evaluator = campaign.evaluator();
    let best = &result.best_genome;
    let replay = replay_recorded(&evaluator, best);
    let mss = campaign.sim.mss;
    let window = SimDuration::from_millis(250);
    let series: Vec<FigureSeries> = replay
        .stats
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let points = windowed_throughput_bps(&f.delivery_times, mss, window, duration)
                .into_iter()
                .map(|(t, bps)| (t.as_secs_f64(), bps / 1e6))
                .collect();
            FigureSeries::new(format!("flow {i} ({})", best.flows[i].cca.name()), points)
        })
        .collect();
    let refs: Vec<&FigureSeries> = series.iter().collect();
    print_figure(
        "Worst scenario found: per-flow throughput (Mbps vs seconds)",
        &refs,
    );

    // Per-flow results table.
    let breakdown = fairness_breakdown(&replay, mss);
    let ccas: Vec<String> = best
        .flows
        .iter()
        .map(|f| f.cca.name().to_string())
        .collect();
    println!(
        "{}",
        per_flow_table(
            &ccas,
            &breakdown.per_flow_goodput_bps,
            &breakdown.per_flow_delivered,
        )
    );
    let schedule: Vec<String> = best
        .flows
        .iter()
        .map(|f| {
            format!(
                "{} [{:.2}s..{}]",
                f.cca.name(),
                f.start.as_secs_f64(),
                f.stop
                    .map(|t| format!("{:.2}s", t.as_secs_f64()))
                    .unwrap_or_else(|| "end".to_string())
            )
        })
        .collect();
    print_table(
        "Fairness summary",
        &[
            ("flows", schedule.join(", ")),
            (
                "cross traffic packets",
                best.traffic
                    .as_ref()
                    .map(|t| t.timestamps.len().to_string())
                    .unwrap_or_else(|| "0".to_string()),
            ),
            ("jain index", format!("{:.4}", breakdown.jain_index)),
            (
                "max starvation",
                format!("{:.3} s", breakdown.max_starvation_secs),
            ),
            (
                "unfairness score",
                format!("{:.6}", result.best_outcome.score),
            ),
            ("evaluations", result.total_evaluations.to_string()),
        ],
    );
}
