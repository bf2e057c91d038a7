//! Reproduce the §4.3 finding: traffic fuzzing against TCP Reno rediscovers a
//! pattern similar to the classic low-rate TCP attack (Kuzmanovic & Knightly,
//! SIGCOMM 2003) — short periodic bursts that keep knocking out the same
//! packets and drive Reno into repeated RTO backoff.
//!
//! For comparison the example also replays a hand-written low-rate attack
//! (periodic bursts synchronised with the 1 s min-RTO) and shows that the
//! evolved trace achieves a similar effect, usually with fewer packets.
//!
//! ```sh
//! cargo run --release --example lowrate_attack
//! ```

use cc_fuzz::analysis::report::one_line_summary;
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::{Campaign, FuzzMode};
use cc_fuzz::fuzz::evaluate::EvalScratch;
use cc_fuzz::fuzz::genome::TrafficGenome;
use cc_fuzz::fuzz::mode::RunOpts;
use cc_fuzz::fuzz::GaParams;
use cc_fuzz::netsim::stats::TransportEvent;
use cc_fuzz::netsim::time::SimDuration;
use cc_fuzz::netsim::trace::TrafficTrace;

/// Fresh runs that keep the per-packet event logs for analysis.
const RECORD: RunOpts = RunOpts {
    record_events: true,
    trace: false,
};

fn main() {
    let duration = SimDuration::from_secs(5);
    let mut ga = GaParams::quick();
    ga.generations = 15;
    ga.seed = 11;
    let campaign = Campaign::paper_standard(FuzzMode::Traffic, CcaKind::Reno, duration, ga);

    println!("fuzzing Reno for low throughput...");
    let result = campaign.run::<TrafficGenome>(None);
    let evaluator = campaign.evaluator();
    let evolved = evaluator
        .simulate(&result.best_genome, &mut EvalScratch::new(), RECORD)
        .0;

    // Hand-written low-rate attack: a burst of ~90 packets every second
    // (matching the 1s min-RTO), enough to overflow the 100-packet queue
    // together with Reno's own packets.
    let handmade_trace = TrafficTrace::periodic_bursts(
        SimDuration::from_secs(1),
        90,
        SimDuration::from_micros(200),
        duration,
    );
    let handmade = TrafficGenome {
        timestamps: handmade_trace.injections().to_vec(),
        duration,
        max_packets: campaign.traffic_max_packets,
    };
    let handmade_run = evaluator
        .simulate(&handmade, &mut EvalScratch::new(), RECORD)
        .0;

    let backoffs = |stats: &cc_fuzz::netsim::stats::RunStats| {
        stats
            .transport
            .iter()
            .filter_map(|r| match r.event {
                TransportEvent::RtoFired { backoff } => Some(backoff),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    };

    println!(
        "\n=== evolved trace ({} cross-traffic packets) ===",
        result.best_genome.timestamps.len()
    );
    println!(
        "  {}",
        one_line_summary(&evolved.stats, duration.as_secs_f64(), campaign.sim.mss)
    );
    println!("  max RTO backoff exponent: {}", backoffs(&evolved.stats));

    println!(
        "\n=== hand-written low-rate attack ({} packets) ===",
        handmade.timestamps.len()
    );
    println!(
        "  {}",
        one_line_summary(
            &handmade_run.stats,
            duration.as_secs_f64(),
            campaign.sim.mss
        )
    );
    println!(
        "  max RTO backoff exponent: {}",
        backoffs(&handmade_run.stats)
    );

    println!("\nBoth patterns rely on the same mechanism: bursts aligned with Reno's");
    println!("retransmissions keep losing the same packets, so the flow spends most of");
    println!("its time in exponential RTO backoff instead of ramping up.");
}
