//! Figure 4a: a cross-traffic trace found by CC-Fuzz that causes BBR to get
//! stuck — ingress/egress rates of the BBR flow, the cross-traffic rate and
//! the (fixed 12 Mbps) link rate over time.

use ccfuzz_analysis::figures::{constant_rate_capacity, rate_curves};
use ccfuzz_analysis::report::{
    one_line_summary, retransmission_triggered_rounds, spurious_retransmissions,
};
use ccfuzz_bench::{print_figure, print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode, PAPER_LINK_RATE_BPS};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let ga = scale.ga(7, 18, 40);
    let campaign = Campaign::paper_standard(FuzzMode::Traffic, CcaKind::Bbr, duration, ga);

    eprintln!("running traffic fuzzing vs BBR ({:?} scale)...", scale);
    let result = campaign.run::<TrafficGenome>(None);
    let replay = replay_recorded(&campaign.evaluator(), &result.best_genome);

    let window = SimDuration::from_millis(250);
    let capacity = constant_rate_capacity(PAPER_LINK_RATE_BPS, window, duration);
    let curves = rate_curves(&replay.stats, &capacity, window, duration);
    print_figure(
        "Figure 4a: CC-Fuzz traffic trace that causes BBR to get stuck (Mbps vs seconds)",
        &[
            &curves.ingress_mbps,
            &curves.egress_mbps,
            &curves.traffic_mbps,
            &curves.link_rate_mbps,
        ],
    );

    print_table(
        "Replay of the best trace against default BBR",
        &[
            (
                "summary",
                one_line_summary(&replay.stats, duration.as_secs_f64(), campaign.sim.mss),
            ),
            (
                "cross-traffic packets",
                result.best_genome.timestamps.len().to_string(),
            ),
            ("fitness score", format!("{:.3}", result.best_outcome.score)),
            (
                "goodput",
                format!(
                    "{:.2} Mbps (link is 12 Mbps)",
                    result.best_outcome.goodput_bps / 1e6
                ),
            ),
            (
                "spurious retransmissions",
                spurious_retransmissions(&replay.stats, SimDuration::from_millis(100)).to_string(),
            ),
            (
                "probe rounds ended by retransmitted samples",
                retransmission_triggered_rounds(&replay.stats).to_string(),
            ),
            ("total simulations", result.total_evaluations.to_string()),
        ],
    );
}
