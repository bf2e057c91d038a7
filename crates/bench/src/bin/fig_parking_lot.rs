//! Parking-lot figure: per-flow and per-hop results of a topology-fuzzing
//! campaign.
//!
//! Runs the topology campaign preset (a 3-hop chain bracketing the paper's
//! 12 Mbps dumbbell, with parking-lot competitor flows), lets the GA evolve
//! the hop chain and flow paths toward maximal breakage, then replays the
//! best topology and prints:
//!
//! * the GA convergence curve (best multi-bottleneck score per generation),
//! * per-flow windowed-throughput curves of the worst topology found,
//! * per-hop queue-occupancy curves (the cascade the objective rewards),
//! * a per-hop chain table and a per-flow results table.
//!
//! `--paper-scale` runs the full-size GA; the default quick scale finishes
//! in well under a minute.

use ccfuzz_analysis::figures::FigureSeries;
use ccfuzz_analysis::table::per_flow_table;
use ccfuzz_analysis::timeseries::windowed_throughput_bps;
use ccfuzz_bench::{print_figure, print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::Campaign;
use ccfuzz_core::scoring::fairness_breakdown;
use ccfuzz_core::topology::TopologyGenome;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let ga = scale.ga(31, 8, 40);
    let campaign = Campaign::paper_topology(CcaKind::Reno, 3, duration, ga);
    let result = campaign.run::<TopologyGenome>(None);

    // Convergence of the multi-bottleneck objective.
    let convergence = FigureSeries::new(
        "best multi-bottleneck score",
        result
            .history
            .iter()
            .map(|h| (h.generation as f64, h.best_score))
            .collect(),
    );
    print_figure(
        "Topology fuzzing: best score per generation (Reno over an evolved hop chain)",
        &[&convergence],
    );

    // Replay the worst topology with full recording.
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
            FigureSeries::new(
                format!(
                    "flow {i} ({}, hops {}..={})",
                    best.flows[i].flow.cca.name(),
                    best.flows[i].path.entry,
                    best.flows[i].path.exit
                ),
                points,
            )
        })
        .collect();
    let refs: Vec<&FigureSeries> = series.iter().collect();
    print_figure(
        "Worst topology found: per-flow throughput (Mbps vs seconds)",
        &refs,
    );

    // Per-hop occupancy: the cascade of standing queues. Single-hop
    // minimized chains keep everything in the aggregate samples.
    let hop_series: Vec<FigureSeries> = if replay.stats.hop_samples.is_empty() {
        vec![FigureSeries::new(
            "hop 0 (packets)",
            replay
                .stats
                .queue_samples
                .iter()
                .map(|(t, len, _)| (t.as_secs_f64(), *len as f64))
                .collect(),
        )]
    } else {
        replay
            .stats
            .hop_samples
            .iter()
            .enumerate()
            .map(|(k, samples)| {
                FigureSeries::new(
                    format!("hop {k} (packets)"),
                    samples
                        .iter()
                        .map(|(t, len, _)| (t.as_secs_f64(), *len as f64))
                        .collect(),
                )
            })
            .collect()
    };
    let hop_refs: Vec<&FigureSeries> = hop_series.iter().collect();
    print_figure(
        "Worst topology found: per-hop queue occupancy (packets vs seconds)",
        &hop_refs,
    );

    // The evolved chain, rendered by the shared per-hop table.
    println!("{}", best.detail_table());

    // Per-flow results table and summary.
    let breakdown = fairness_breakdown(&replay, mss);
    let ccas: Vec<String> = best
        .flows
        .iter()
        .map(|f| f.flow.cca.name().to_string())
        .collect();
    println!(
        "{}",
        per_flow_table(
            &ccas,
            &breakdown.per_flow_goodput_bps,
            &breakdown.per_flow_delivered,
        )
    );
    print_table(
        "Parking-lot summary",
        &[
            ("hops", best.hop_count().to_string()),
            ("bottleneck hop", best.bottleneck_hop().to_string()),
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
                "multi-bottleneck score",
                format!("{:.6}", result.best_outcome.score),
            ),
            ("evaluations", result.total_evaluations.to_string()),
        ],
    );
}
