//! Figure 4e: CC-Fuzz triggering high queuing delays in BBR with cross
//! traffic — the per-packet queuing delay of the BBR flow and of the cross
//! traffic over time, for the best trace found with the 10th-percentile-delay
//! objective (§4.3).

use ccfuzz_analysis::figures::queuing_delay_series;
use ccfuzz_analysis::report::one_line_summary;
use ccfuzz_analysis::timeseries::percentile;
use ccfuzz_bench::{print_figure, print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::packet::FlowId;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let ga = scale.ga(31, 18, 40);
    let campaign = Campaign::paper_high_delay(FuzzMode::Traffic, CcaKind::Bbr, duration, ga);

    eprintln!(
        "running traffic fuzzing vs BBR with the p10-delay objective ({:?} scale)...",
        scale
    );
    let result = campaign.run::<TrafficGenome>(None);
    let replay = replay_recorded(&campaign.evaluator(), &result.best_genome);

    let (bbr_delay, cross_delay) = queuing_delay_series(&replay.stats);
    print_figure(
        "Figure 4e: queuing delay (ms) over time for the BBR flow and the cross traffic",
        &[&bbr_delay, &cross_delay],
    );

    let delays_ms: Vec<f64> = replay
        .stats
        .queuing_delays(FlowId::Cca(0))
        .iter()
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .collect();
    print_table(
        "Best high-delay trace",
        &[
            (
                "summary",
                one_line_summary(&replay.stats, duration.as_secs_f64(), campaign.sim.mss),
            ),
            (
                "cross-traffic packets",
                result.best_genome.timestamps.len().to_string(),
            ),
            (
                "p10 queuing delay",
                format!("{:.1} ms", percentile(&delays_ms, 10.0)),
            ),
            (
                "median queuing delay",
                format!("{:.1} ms", percentile(&delays_ms, 50.0)),
            ),
            (
                "p90 queuing delay",
                format!("{:.1} ms", percentile(&delays_ms, 90.0)),
            ),
            ("max queuing delay", format!("{:.1} ms", bbr_delay.max_y())),
            ("total simulations", result.total_evaluations.to_string()),
        ],
    );
    println!("\nExpected shape (paper): the evolved cross traffic (1) fills the queue just");
    println!("before BBR starts so BBR never sees the true minimum RTT, and (2) injects more");
    println!("traffic right after slow start, so the standing queue (and therefore the");
    println!("queuing delay) stays high for most of the run.");
}
