//! Figure 4b: a link (service-curve) trace found by CC-Fuzz that causes BBR
//! to get stuck — ingress/egress rates of the BBR flow and the link's service
//! rate over time. Link fuzzing with trace annealing enabled (§3.2).

use ccfuzz_analysis::figures::{rate_curves, trace_capacity};
use ccfuzz_analysis::report::{
    one_line_summary, retransmission_triggered_rounds, spurious_retransmissions,
};
use ccfuzz_bench::{print_figure, print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::genome::LinkGenome;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let mut ga = scale.ga(13, 18, 40);
    ga.anneal = true;
    let campaign = Campaign::paper_standard(FuzzMode::Link, CcaKind::Bbr, duration, ga);

    eprintln!("running link fuzzing vs BBR ({:?} scale)...", scale);
    let result = campaign.run::<LinkGenome>(None);
    let replay = replay_recorded(&campaign.evaluator(), &result.best_genome);

    let window = SimDuration::from_millis(250);
    let capacity = trace_capacity(&result.best_genome.timestamps, campaign.sim.mss);
    let curves = rate_curves(&replay.stats, &capacity, window, duration);
    print_figure(
        "Figure 4b: CC-Fuzz link trace that causes BBR to get stuck (Mbps vs seconds)",
        &[
            &curves.ingress_mbps,
            &curves.egress_mbps,
            &curves.link_rate_mbps,
        ],
    );

    print_table(
        "Replay of the best link trace against default BBR",
        &[
            (
                "summary",
                one_line_summary(&replay.stats, duration.as_secs_f64(), campaign.sim.mss),
            ),
            (
                "service opportunities",
                result.best_genome.timestamps.len().to_string(),
            ),
            (
                "average link rate",
                format!(
                    "{:.2} Mbps",
                    result.best_genome.average_rate_bps(campaign.sim.mss) / 1e6
                ),
            ),
            ("fitness score", format!("{:.3}", result.best_outcome.score)),
            (
                "goodput",
                format!("{:.2} Mbps", result.best_outcome.goodput_bps / 1e6),
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
