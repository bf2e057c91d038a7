//! §4.3 finding: CC-Fuzz rediscovers the low-rate TCP attack against Reno —
//! periodic cross-traffic bursts aligned with the RTO that keep losing the
//! same packets, locking the flow into exponential RTO backoff.

use ccfuzz_analysis::figures::{constant_rate_capacity, rate_curves};
use ccfuzz_analysis::report::one_line_summary;
use ccfuzz_bench::{print_figure, print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode, PAPER_LINK_RATE_BPS};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::stats::TransportEvent;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let ga = scale.ga(11, 18, 40);
    let campaign = Campaign::paper_standard(FuzzMode::Traffic, CcaKind::Reno, duration, ga);

    eprintln!("running traffic fuzzing vs Reno ({:?} scale)...", scale);
    let result = campaign.run::<TrafficGenome>(None);
    let replay = replay_recorded(&campaign.evaluator(), &result.best_genome);

    let window = SimDuration::from_millis(250);
    let capacity = constant_rate_capacity(PAPER_LINK_RATE_BPS, window, duration);
    let curves = rate_curves(&replay.stats, &capacity, window, duration);
    print_figure(
        "Reno low-rate-attack-like trace: rates over time (Mbps vs seconds)",
        &[
            &curves.ingress_mbps,
            &curves.egress_mbps,
            &curves.traffic_mbps,
            &curves.link_rate_mbps,
        ],
    );

    let rto_backoffs: Vec<u32> = replay
        .stats
        .transport
        .iter()
        .filter_map(|r| match r.event {
            TransportEvent::RtoFired { backoff } => Some(backoff),
            _ => None,
        })
        .collect();
    print_table(
        "Best trace vs Reno",
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
                "goodput",
                format!(
                    "{:.2} Mbps (link is 12 Mbps)",
                    result.best_outcome.goodput_bps / 1e6
                ),
            ),
            ("RTO count", rto_backoffs.len().to_string()),
            (
                "max RTO backoff exponent",
                rto_backoffs.iter().max().copied().unwrap_or(0).to_string(),
            ),
            ("fitness score", format!("{:.3}", result.best_outcome.score)),
        ],
    );
    println!("\nExpected shape (paper): the evolved cross traffic is a sparse sequence of");
    println!("bursts whose spacing tracks Reno's retransmission timing, so the same packets");
    println!("are lost after every retransmission and Reno never ramps up after slow start");
    println!("(repeated RTOs with growing backoff, goodput a small fraction of the link).");
}
