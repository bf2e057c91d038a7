//! Figure 4d: CC-Fuzz convergence with and without the BBR patch.
//!
//! Runs the same traffic-fuzzing campaign twice — once against default BBR
//! and once against BBR with the ProbeRTT-on-RTO mitigation — and plots, per
//! generation, the mean packets delivered by the CCA across the top-20
//! worst traces (the paper's y-axis, "packets sent"). Default BBR should be
//! driven to a (near-)stall; the patched BBR loses some throughput but does
//! not stall.

use ccfuzz_analysis::figures::FigureSeries;
use ccfuzz_bench::{print_figure, print_table, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);

    let mut series = Vec::new();
    let mut finals = Vec::new();
    for (label, cca) in [
        ("Default BBR", CcaKind::Bbr),
        ("BBR (ProbeRTT on RTO)", CcaKind::BbrProbeRttOnRto),
    ] {
        let ga = scale.ga(7, 18, 40);
        let campaign = Campaign::paper_standard(FuzzMode::Traffic, cca, duration, ga);
        eprintln!("fuzzing {label} ({:?} scale)...", scale);
        let result = campaign.run::<TrafficGenome>(None);
        let points: Vec<(f64, f64)> = result
            .history
            .iter()
            .map(|h| (h.generation as f64, h.top_k_mean_delivered))
            .collect();
        series.push(FigureSeries::new(label, points));
        finals.push((
            label,
            format!(
                "final top-{} mean delivered = {:.0} packets, best-trace goodput = {:.2} Mbps",
                campaign.ga.report_top_k,
                result
                    .history
                    .last()
                    .map(|h| h.top_k_mean_delivered)
                    .unwrap_or(0.0),
                result.best_outcome.goodput_bps / 1e6
            ),
        ));
    }

    let refs: Vec<&FigureSeries> = series.iter().collect();
    print_figure(
        "Figure 4d: packets delivered by the worst traces per generation, default BBR vs patched BBR",
        &refs,
    );
    print_table("Final generation", &finals);
    println!("\nExpected shape (paper): the curve for default BBR drops as the GA discovers");
    println!("stall-inducing traces; the ProbeRTT-on-RTO variant stays clearly higher (it");
    println!("loses a little throughput to the extra min-RTT probes but never stalls).");
}
