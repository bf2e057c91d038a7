//! Figure 4c: the timeline of how BBR's probe-round clocking is broken by the
//! interaction of an RTO, spurious retransmissions and delayed SACKs.
//!
//! Instead of relying on the genetic algorithm (whose exact output depends on
//! the seed), this binary replays a *hand-crafted* adversarial scenario that
//! deterministically exercises the mechanism described in §4.1, and prints
//! the transport-level timeline around the RTO plus the BBR-internal events
//! (premature round ends triggered by retransmitted samples).

use ccfuzz_analysis::report::{
    retransmission_triggered_rounds, rto_timeline, spurious_retransmissions,
};
use ccfuzz_bench::{print_table, replay_recorded};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{paper_sim_base, PAPER_LINK_RATE_BPS};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_core::scoring::ScoringConfig;
use ccfuzz_core::SimEvaluator;
use ccfuzz_netsim::time::{SimDuration, SimTime};

/// Builds the hand-crafted cross-traffic pattern:
///  * a large burst at 1.0 s that overflows the queue and makes BBR lose a
///    window of packets (including, together with the second burst, the fast
///    retransmission of the first hole), and
///  * a second burst timed just before the resulting RTO (min-RTO = 1 s) so
///    that the last packets BBR sent before the timeout are still queued
///    behind cross traffic when the RTO fires — their SACKs arrive right
///    after the RTO, immediately after BBR has spuriously retransmitted them.
fn adversarial_traffic(duration: SimDuration) -> TrafficGenome {
    let mut ts: Vec<SimTime> = Vec::new();
    // A sustained on-off pattern: while "on", cross traffic arrives at twice
    // the bottleneck rate (one packet every 500 µs vs. the ~1 ms the 12 Mbps
    // link needs per packet), keeping the drop-tail queue pinned full.
    let mut pulse = |start_ms: u64, end_ms: u64| {
        let mut t = start_ms * 1_000;
        while t < end_ms * 1_000 {
            ts.push(SimTime::from_micros(t));
            t += 500;
        }
    };
    // Pulse 1 (1.00–1.25 s): the queue stays full for ~350 ms (250 ms of
    // arrivals plus drain), so a window of BBR packets is dropped *and* the
    // fast retransmission of the first hole (sent ~150 ms later, once three
    // SACKs for later packets have arrived) is dropped as well. The lost
    // retransmission can only be repaired by the RTO, which is armed at the
    // last cumulative-ACK advance (~1.1 s) + min-RTO (1 s).
    pulse(1_000, 1_250);
    // Pulse 2 (2.00–2.30 s): pins the queue full around the RTO (~2.1 s), so
    // the packets BBR sent just before the timeout are still queued behind
    // cross traffic when it fires. BBR spuriously retransmits them right
    // after the RTO, and their SACKs arrive immediately afterwards — the
    // §4.1 interaction that breaks BBR's probe-round clocking.
    pulse(2_000, 2_300);
    let max = ts.len() * 2;
    TrafficGenome {
        timestamps: ts,
        duration,
        max_packets: max,
    }
}

fn main() {
    let duration = SimDuration::from_secs(5);
    let genome = adversarial_traffic(duration);
    let base = paper_sim_base(duration);
    let scoring = ScoringConfig::low_throughput_default(PAPER_LINK_RATE_BPS as f64);

    println!(
        "Figure 4c: timeline of the BBR probe-clocking bug (hand-crafted trace, {} cross packets)",
        genome.timestamps.len()
    );

    for (label, cca) in [
        ("default BBR", CcaKind::Bbr),
        ("BBR + ProbeRTT-on-RTO", CcaKind::BbrProbeRttOnRto),
    ] {
        let evaluator = SimEvaluator::new(base.clone(), cca, scoring, PAPER_LINK_RATE_BPS);
        let run = replay_recorded(&evaluator, &genome);
        print_table(
            &format!("{label}: outcome"),
            &[
                (
                    "delivered packets",
                    run.stats.flow().delivered_packets.to_string(),
                ),
                (
                    "goodput",
                    format!("{:.2} Mbps", run.average_goodput_bps(base.mss) / 1e6),
                ),
                ("RTOs", run.stats.flow().rto_count.to_string()),
                (
                    "retransmissions",
                    run.stats.flow().retransmissions.to_string(),
                ),
                (
                    "spurious retransmissions",
                    spurious_retransmissions(&run.stats, SimDuration::from_millis(100)).to_string(),
                ),
                (
                    "probe rounds ended by retransmitted samples",
                    retransmission_triggered_rounds(&run.stats).to_string(),
                ),
            ],
        );
        if cca == CcaKind::Bbr {
            println!("\n--- transport + BBR timeline around each RTO (default BBR) ---");
            print!(
                "{}",
                rto_timeline(&run.stats, SimDuration::from_millis(500), 120)
            );
        }
    }

    println!("\nReading the timeline: after the RTO, packets whose originals are still queued");
    println!("behind cross traffic are retransmitted (RETX lines with a large stamped");
    println!("'delivered'); their SACKs arrive right afterwards, each one ending a BBR probe");
    println!("round prematurely (CC lines flagging RETRANSMITTED samples). Ten such rounds");
    println!("expire every good estimate from BBR's bandwidth max-filter.");
}
