//! Hunt for the BBR stall (§4.1 of the paper) with traffic fuzzing, then
//! compare default BBR against the paper's "ProbeRTT on RTO" mitigation on
//! the worst trace found.
//!
//! ```sh
//! cargo run --release --example bbr_stall_hunt [-- --paper-scale]
//! ```

use cc_fuzz::analysis::report::{
    retransmission_triggered_rounds, rto_timeline, spurious_retransmissions,
};
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
    let paper_scale = std::env::args().any(|a| a == "--paper-scale");
    let duration = SimDuration::from_secs(5);
    let mut ga = if paper_scale {
        GaParams::paper_default()
    } else {
        GaParams::quick()
    };
    ga.generations = if paper_scale { 40 } else { 15 };
    ga.seed = 7;

    let campaign = Campaign::paper_standard(FuzzMode::Traffic, CcaKind::Bbr, duration, ga);
    println!(
        "fuzzing BBR with cross-traffic patterns ({} simulations per generation)...",
        campaign.ga.total_population()
    );
    let result = campaign.run::<TrafficGenome>(None);

    println!(
        "\nbest trace: {} cross-traffic packets, BBR goodput {:.2} Mbps (score {:.3})",
        result.best_genome.timestamps.len(),
        result.best_outcome.goodput_bps / 1e6,
        result.best_outcome.score
    );

    // Replay against both BBR variants.
    let evaluator = campaign.evaluator();
    let default_run = evaluator
        .simulate(&result.best_genome, &mut EvalScratch::new(), RECORD)
        .0;

    let mut fixed_campaign = campaign.clone();
    fixed_campaign.cca = CcaKind::BbrProbeRttOnRto;
    let fixed_run = fixed_campaign
        .evaluator()
        .simulate(&result.best_genome, &mut EvalScratch::new(), RECORD)
        .0;

    println!("\n=== default BBR on the adversarial trace ===");
    println!("delivered {} packets, {} RTOs, {} spurious retransmissions, {} retransmission-triggered probe rounds",
        default_run.stats.flow().delivered_packets,
        default_run.stats.flow().rto_count,
        spurious_retransmissions(&default_run.stats, SimDuration::from_millis(100)),
        retransmission_triggered_rounds(&default_run.stats));

    println!("\n=== BBR with ProbeRTT-on-RTO (the paper's fix) ===");
    println!("delivered {} packets, {} RTOs, {} spurious retransmissions, {} retransmission-triggered probe rounds",
        fixed_run.stats.flow().delivered_packets,
        fixed_run.stats.flow().rto_count,
        spurious_retransmissions(&fixed_run.stats, SimDuration::from_millis(100)),
        retransmission_triggered_rounds(&fixed_run.stats));

    println!("\n=== timeline around the first RTO (default BBR) ===");
    print!(
        "{}",
        rto_timeline(&default_run.stats, SimDuration::from_millis(400), 60)
    );
}
