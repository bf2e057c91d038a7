//! Reproduce the §4.3 / Figure 4e experiment: change the scoring function to
//! the 10th-percentile queuing delay and let traffic fuzzing find a
//! cross-traffic pattern that makes BBR build a large standing queue.
//!
//! ```sh
//! cargo run --release --example delay_fuzzing
//! ```

use cc_fuzz::analysis::figures::queuing_delay_series;
use cc_fuzz::analysis::plot::{ascii_chart, to_csv};
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::{Campaign, FuzzMode};
use cc_fuzz::fuzz::evaluate::EvalScratch;
use cc_fuzz::fuzz::genome::TrafficGenome;
use cc_fuzz::fuzz::mode::RunOpts;
use cc_fuzz::fuzz::GaParams;
use cc_fuzz::netsim::time::SimDuration;

/// Fresh runs that keep the per-packet event logs for analysis.
const RECORD: RunOpts = RunOpts {
    record_events: true,
    trace: false,
};

fn main() {
    let duration = SimDuration::from_secs(5);
    let mut ga = GaParams::quick();
    ga.generations = 12;
    ga.seed = 31;
    let campaign = Campaign::paper_high_delay(FuzzMode::Traffic, CcaKind::Bbr, duration, ga);

    println!("traffic fuzzing vs BBR with the high-delay objective (p10 queuing delay)...");
    let result = campaign.run::<TrafficGenome>(None);
    println!(
        "best trace: {} cross-traffic packets, p10-delay score {:.3}",
        result.best_genome.timestamps.len(),
        result.best_outcome.performance_score
    );

    let replay = campaign
        .evaluator()
        .simulate(&result.best_genome, &mut EvalScratch::new(), RECORD)
        .0;
    let (bbr_delay, cross_delay) = queuing_delay_series(&replay.stats);
    println!(
        "\nBBR flow queuing delay: mean {:.1} ms, max {:.1} ms",
        bbr_delay.mean_y(),
        bbr_delay.max_y()
    );
    println!(
        "cross traffic queuing delay: mean {:.1} ms, max {:.1} ms",
        cross_delay.mean_y(),
        cross_delay.max_y()
    );

    println!(
        "\n{}",
        ascii_chart(
            "Queuing delay over time (ms) — compare with Figure 4e",
            &[&bbr_delay, &cross_delay],
            90,
            18,
        )
    );

    println!("CSV data:\n{}", to_csv(&[&bbr_delay, &cross_delay]));
}
