//! Integration tests for the paper's §4 findings: the BBR probe-clocking
//! interaction (§4.1), the NS3 CUBIC slow-start bug (§4.2) and the Reno
//! low-rate-attack pattern (§4.3), each reproduced with the deterministic
//! crafted trace in `core::campaign` and checked by the signature in
//! `analysis::report` (the `paper` table replays the same traces and also
//! checks the signatures on what the GA finds).

use cc_fuzz::analysis::report::{
    bbr_spurious_stall, cubic_self_inflicted_losses, reno_repeated_rto,
    retransmission_triggered_rounds, spurious_retransmissions,
};
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::{
    bbr_stall_trace, cubic_pulse_trace, lowrate_pulse_trace, paper_sim_base, PAPER_LINK_RATE_BPS,
};
use cc_fuzz::fuzz::evaluate::EvalScratch;
use cc_fuzz::fuzz::genome::TrafficGenome;
use cc_fuzz::fuzz::scoring::ScoringConfig;
use cc_fuzz::fuzz::SimEvaluator;
use cc_fuzz::netsim::sim::SimResult;
use cc_fuzz::netsim::time::SimDuration;

/// A fresh run of `genome` against `cca`, keeping the run log the analyses
/// below read.
fn recorded(cca: CcaKind, genome: &TrafficGenome) -> SimResult {
    SimEvaluator::new(
        paper_sim_base(genome.duration),
        cca,
        ScoringConfig::low_throughput_default(PAPER_LINK_RATE_BPS as f64),
        PAPER_LINK_RATE_BPS,
    )
    .simulate(genome, &mut EvalScratch::new(), true)
}

#[test]
fn bbr_probe_clocking_is_broken_by_spurious_retransmissions() {
    let genome = bbr_stall_trace();
    let run = recorded(CcaKind::Bbr, &genome);

    let stall = bbr_spurious_stall(&run.stats);
    assert!(stall.holds, "§4.1 signature missing: {}", stall.numbers);
    // The flow must visibly lose throughput relative to the clean baseline.
    let no_traffic = TrafficGenome {
        timestamps: vec![],
        duration: genome.duration,
        max_packets: 10,
    };
    let clean = recorded(CcaKind::Bbr, &no_traffic);
    assert!(
        run.stats.flow().delivered_packets < clean.stats.flow().delivered_packets * 85 / 100,
        "adversarial trace should cost BBR well over 15% of its packets ({} vs {})",
        run.stats.flow().delivered_packets,
        clean.stats.flow().delivered_packets
    );
}

#[test]
fn probe_rtt_on_rto_mitigation_avoids_the_spurious_cascade() {
    let genome = bbr_stall_trace();
    let default_run = recorded(CcaKind::Bbr, &genome);
    let fixed_run = recorded(CcaKind::BbrProbeRttOnRto, &genome);

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
    let genome = cubic_pulse_trace();
    let buggy = recorded(CcaKind::CubicNs3Buggy, &genome);
    let fixed = recorded(CcaKind::Cubic, &genome);

    let losses = cubic_self_inflicted_losses(&buggy.stats, &fixed.stats);
    assert!(losses.holds, "§4.2 signature missing: {}", losses.numbers);
}

#[test]
fn reno_low_rate_attack_pattern_causes_repeated_rto_backoff() {
    let genome = lowrate_pulse_trace();
    let run = recorded(CcaKind::Reno, &genome);

    let attack = reno_repeated_rto(&run.stats, 1448, genome.duration);
    assert!(attack.holds, "§4.3 signature missing: {}", attack.numbers);
}
