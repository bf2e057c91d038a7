//! Link fuzzing (§3.2): evolve bottleneck *service curves* (rather than cross
//! traffic) that hurt a CCA, with trace annealing enabled so the resulting
//! curve is easier to read.
//!
//! ```sh
//! cargo run --release --example link_fuzzing [-- <cca>]
//! ```
//! where `<cca>` is one of `reno`, `cubic`, `bbr`, `vegas` (default `bbr`).

use cc_fuzz::analysis::figures::cumulative_packet_curve;
use cc_fuzz::analysis::plot::ascii_chart;
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::{Campaign, FuzzMode};
use cc_fuzz::fuzz::genome::LinkGenome;
use cc_fuzz::fuzz::GaParams;
use cc_fuzz::netsim::time::SimDuration;

fn main() {
    let cca = std::env::args()
        .nth(1)
        .and_then(|name| CcaKind::from_name(&name))
        .unwrap_or(CcaKind::Bbr);
    let duration = SimDuration::from_secs(5);
    let mut ga = GaParams::quick();
    ga.generations = 12;
    ga.anneal = true;
    ga.seed = 21;

    let campaign = Campaign::paper_standard(FuzzMode::Link, cca, duration, ga);
    println!(
        "link fuzzing vs {}: evolving 12 Mbps-average service curves ({} per generation)",
        cca.name(),
        campaign.ga.total_population()
    );
    let result = campaign.run::<LinkGenome>(None);

    println!(
        "\nbest trace: {} transmission opportunities, {} goodput {:.2} Mbps (fitness {:.3})",
        result.best_genome.timestamps.len(),
        cca.name(),
        result.best_outcome.goodput_bps / 1e6,
        result.best_outcome.score
    );

    for summary in result.history.iter().step_by(3) {
        println!(
            "gen {:>3}: best {:.3}  mean {:.3}  top-{} mean delivered {:>6.0}",
            summary.generation,
            summary.best_score,
            summary.mean_score,
            campaign.ga.report_top_k,
            summary.top_k_mean_delivered
        );
    }

    // Show the adversarial service curve the way Figure 4b does (cumulative
    // packet count over time).
    let curve = cumulative_packet_curve(&result.best_genome.timestamps, 80, duration);
    println!(
        "\n{}",
        ascii_chart(
            "Adversarial service curve (cumulative packets)",
            &[&curve],
            80,
            16
        )
    );
}
