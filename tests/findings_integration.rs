//! Integration tests for the paper's §4 findings: the BBR probe-clocking
//! interaction (§4.1), the NS3 CUBIC slow-start bug (§4.2) and the Reno
//! low-rate-attack pattern (§4.3), each reproduced with a deterministic
//! hand-crafted trace (the GA-driven versions live in the figure binaries).

use cc_fuzz::analysis::report::{retransmission_triggered_rounds, spurious_retransmissions};
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::{paper_sim_base, PAPER_LINK_RATE_BPS};
use cc_fuzz::fuzz::evaluate::EvalScratch;
use cc_fuzz::fuzz::genome::TrafficGenome;
use cc_fuzz::fuzz::mode::RunOpts;
use cc_fuzz::fuzz::scoring::ScoringConfig;
use cc_fuzz::fuzz::SimEvaluator;
use cc_fuzz::netsim::sim::SimResult;
use cc_fuzz::netsim::stats::TransportEvent;
use cc_fuzz::netsim::time::{SimDuration, SimTime};

/// The §4.1 adversarial cross-traffic pattern used by the fig4c binary: two
/// sustained pulses at twice the link rate, the first causing a loss whose
/// retransmission is also lost, the second pinning the queue full around the
/// resulting RTO so the pre-RTO packets' SACKs arrive just after it.
fn bbr_stall_trace(duration: SimDuration) -> TrafficGenome {
    let mut ts = Vec::new();
    for (start_ms, end_ms) in [(1_000u64, 1_250u64), (2_000, 2_300)] {
        let mut t = start_ms * 1_000;
        while t < end_ms * 1_000 {
            ts.push(SimTime::from_micros(t));
            t += 500;
        }
    }
    let max = ts.len() * 2;
    TrafficGenome {
        timestamps: ts,
        duration,
        max_packets: max,
    }
}

fn evaluator(cca: CcaKind, duration: SimDuration) -> SimEvaluator {
    SimEvaluator::new(
        paper_sim_base(duration),
        cca,
        ScoringConfig::low_throughput_default(PAPER_LINK_RATE_BPS as f64),
        PAPER_LINK_RATE_BPS,
    )
}

/// A fresh run of `genome` against `cca`, keeping the per-packet event logs
/// the analyses below read.
fn recorded(cca: CcaKind, duration: SimDuration, genome: &TrafficGenome) -> SimResult {
    let opts = RunOpts {
        record_events: true,
        trace: false,
    };
    evaluator(cca, duration)
        .simulate(genome, &mut EvalScratch::new(), opts)
        .0
}

#[test]
fn bbr_probe_clocking_is_broken_by_spurious_retransmissions() {
    let duration = SimDuration::from_secs(5);
    let genome = bbr_stall_trace(duration);
    let run = recorded(CcaKind::Bbr, duration, &genome);

    assert!(
        run.stats.flow().rto_count >= 1,
        "the crafted trace must force an RTO"
    );
    let spurious = spurious_retransmissions(&run.stats, SimDuration::from_millis(100));
    assert!(
        spurious >= 10,
        "expected a cascade of spurious retransmissions after the RTO, got {spurious}"
    );
    let broken_rounds = retransmission_triggered_rounds(&run.stats);
    assert!(
        broken_rounds >= 10,
        "expected at least 10 probe rounds ended by retransmitted samples \
         (enough to expire the bandwidth max-filter), got {broken_rounds}"
    );
    // The flow must visibly lose throughput relative to the clean baseline.
    let no_traffic = TrafficGenome {
        timestamps: vec![],
        duration,
        max_packets: 10,
    };
    let clean = recorded(CcaKind::Bbr, duration, &no_traffic);
    assert!(
        run.stats.flow().delivered_packets < clean.stats.flow().delivered_packets * 85 / 100,
        "adversarial trace should cost BBR well over 15% of its packets ({} vs {})",
        run.stats.flow().delivered_packets,
        clean.stats.flow().delivered_packets
    );
}

#[test]
fn probe_rtt_on_rto_mitigation_avoids_the_spurious_cascade() {
    let duration = SimDuration::from_secs(5);
    let genome = bbr_stall_trace(duration);
    let default_run = recorded(CcaKind::Bbr, duration, &genome);
    let fixed_run = recorded(CcaKind::BbrProbeRttOnRto, duration, &genome);

    let default_spurious =
        spurious_retransmissions(&default_run.stats, SimDuration::from_millis(100));
    let fixed_spurious = spurious_retransmissions(&fixed_run.stats, SimDuration::from_millis(100));
    assert!(
        fixed_spurious * 4 <= default_spurious.max(1),
        "the mitigation should remove most spurious retransmissions: default {default_spurious}, fixed {fixed_spurious}"
    );
    let default_broken = retransmission_triggered_rounds(&default_run.stats);
    let fixed_broken = retransmission_triggered_rounds(&fixed_run.stats);
    assert!(
        fixed_broken < default_broken,
        "the mitigation should break fewer probe rounds: default {default_broken}, fixed {fixed_broken}"
    );
}

#[test]
fn ns3_cubic_bug_causes_catastrophic_self_inflicted_losses() {
    // Craft the §4.2 scenario directly: a pulse of cross traffic long enough
    // that a lost packet's fast retransmission is also lost, forcing an RTO;
    // after the RTO the retransmission fills a large hole and the cumulative
    // ACK jumps by hundreds of packets.
    let duration = SimDuration::from_secs(5);
    let mut ts = Vec::new();
    let mut t = 1_000_000u64;
    while t < 1_400_000 {
        ts.push(SimTime::from_micros(t));
        t += 500;
    }
    let max = ts.len() * 2;
    let genome = TrafficGenome {
        timestamps: ts,
        duration,
        max_packets: max,
    };

    let buggy = recorded(CcaKind::CubicNs3Buggy, duration, &genome);
    let fixed = recorded(CcaKind::Cubic, duration, &genome);

    assert!(
        buggy.stats.flow().rto_count >= 1,
        "scenario must force an RTO for the buggy CUBIC"
    );
    assert!(
        buggy.stats.flow().queue_drops >= fixed.stats.flow().queue_drops + 200,
        "the uncapped slow-start burst should cause clearly more self-inflicted drops \
         (buggy {} vs fixed {})",
        buggy.stats.flow().queue_drops,
        fixed.stats.flow().queue_drops
    );
}

#[test]
fn reno_low_rate_attack_pattern_causes_repeated_rto_backoff() {
    // The classic low-rate attack: a sustained ~2×-link-rate pulse roughly
    // every second (aligned with the 1 s min-RTO) that keeps the queue full
    // long enough to lose both the original packets and their fast
    // retransmissions, forcing Reno into RTO over and over.
    let duration = SimDuration::from_secs(6);
    let mut ts = Vec::new();
    for (start_ms, end_ms) in [
        (1_000u64, 1_300u64),
        (2_100, 2_400),
        (3_200, 3_500),
        (4_300, 4_600),
    ] {
        let mut t = start_ms * 1_000;
        while t < end_ms * 1_000 {
            ts.push(SimTime::from_micros(t));
            t += 500;
        }
    }
    let max = ts.len() * 2;
    let genome = TrafficGenome {
        timestamps: ts,
        duration,
        max_packets: max,
    };
    let run = recorded(CcaKind::Reno, duration, &genome);

    assert!(
        run.stats.flow().rto_count >= 2,
        "the periodic pulses should force repeated RTOs, got {}",
        run.stats.flow().rto_count
    );
    // Goodput collapses well below the link rate.
    let mss = 1448;
    let goodput =
        run.stats.flow().delivered_packets as f64 * mss as f64 * 8.0 / duration.as_secs_f64();
    assert!(
        goodput < 8e6,
        "the low-rate pattern should keep Reno well below link rate, got {:.2} Mbps",
        goodput / 1e6
    );
    // Reno reacted with repeated timeouts and retransmissions.
    let rto_events = run
        .stats
        .transport
        .iter()
        .filter(|r| matches!(r.event, TransportEvent::RtoFired { .. }))
        .count();
    assert!(rto_events >= 2);
    assert!(run.stats.flow().retransmissions > 0);
}
