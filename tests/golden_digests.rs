//! Golden behaviour digests for the simulator hot path.
//!
//! The calendar/pool/dispatch overhaul promises **byte-identical**
//! behaviour: the bucketed event calendar pops in the exact `(time, seq)`
//! order the binary heap did, the packet pool and inline SACK lists change
//! only allocation, and enum dispatch runs the very same algorithm code.
//! These constants were recorded on the pre-optimization engine (BinaryHeap
//! calendar, every controller behind a trait object); any drift here means
//! an "optimization" changed simulation semantics and silently invalidated
//! every committed corpus fixture and paper figure.
//!
//! If the digest contract is ever changed *deliberately* (e.g. new fields
//! mixed into `RunStats::digest`), re-record by running this test and
//! copying each failure's `observed` value (printed as `{:#018x}`, the
//! constants' own format) over the constant it names.

use cc_fuzz::cca::{CcaDispatch, CcaKind};
use cc_fuzz::fuzz::campaign::paper_sim_base;
use cc_fuzz::netsim::queue::Qdisc;
use cc_fuzz::netsim::sim::{run_multi_flow_simulation, run_simulation, FlowSpec, Simulation};
use cc_fuzz::netsim::time::{SimDuration, SimTime};
use cc_fuzz::netsim::topology::{HopConfig, HopRange, Topology};
use cc_fuzz::netsim::trace::TrafficTrace;
use cc_fuzz::netsim::workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

/// Pre-overhaul digests of the paper scenario (5 s, clean 12 Mbps link) per
/// CCA, recorded at the last commit before the hot-path rewrite.
const GOLDEN_SINGLE_FLOW: [(CcaKind, u64); 4] = [
    (CcaKind::Reno, 0xa0b7528c22e43bf9),
    (CcaKind::Cubic, 0xfa4efb4bb1d247a7),
    (CcaKind::Bbr, 0x4a61538fb03729b0),
    (CcaKind::Vegas, 0xa576cfca44842db8),
];

/// Pre-overhaul digest of the mixed-CCA fairness scenario below.
const GOLDEN_FAIRNESS: u64 = 0x39b924d4669c7e73;

/// Digests of the paper scenario behind a default RED gateway with ECN on,
/// per CCA, recorded when the qdisc layer landed. Drift here means the
/// RED marking path (or a CCA's ECN response) changed behaviour.
const GOLDEN_RED_ECN: [(CcaKind, u64); 7] = [
    (CcaKind::Reno, 0x430be881e43794ef),
    (CcaKind::Cubic, 0x3573443e092800a6),
    (CcaKind::CubicNs3Buggy, 0x3573443e092800a6),
    (CcaKind::Bbr, 0x26710c020b7b19dd),
    (CcaKind::BbrProbeRttOnRto, 0x01f69a2e67a07e40),
    (CcaKind::Vegas, 0xb85670175273f72e),
    (CcaKind::Dctcp, 0x174ee49375e2cf0d),
];

/// Digests behind a default CoDel gateway with ECN on, per CCA.
const GOLDEN_CODEL_ECN: [(CcaKind, u64); 7] = [
    (CcaKind::Reno, 0xe2b7e5f61e12bd3f),
    (CcaKind::Cubic, 0x0d8fdbee39375cce),
    (CcaKind::CubicNs3Buggy, 0x0d8fdbee39375cce),
    (CcaKind::Bbr, 0xfef64d4f6910e639),
    (CcaKind::BbrProbeRttOnRto, 0xfef64d4f6910e639),
    (CcaKind::Vegas, 0x7a7ab36b84a02c2b),
    (CcaKind::Dctcp, 0x06da2e4e3ea19ff1),
];

/// Digest and event count of the churn scenario of
/// `churn_workload_digest_matches_recorded_constants`, recorded on the
/// engine in which dynamic flows still had their own spawn and completion
/// state in the flow slab.
const GOLDEN_CHURN: u64 = 0x854761890142fdcf;
const GOLDEN_CHURN_EVENTS: u64 = 15042;

/// Fails naming the scenario and printing the observed digest in the
/// constants' format, so a deliberate re-recording copies it from here.
fn assert_digest(observed: u64, golden: u64, scenario: &str) {
    assert!(
        observed == golden,
        "digest drift for {scenario}: observed {observed:#018x}, recorded {golden:#018x}"
    );
}

fn fairness_scenario_specs() -> Vec<FlowSpec<CcaDispatch>> {
    vec![
        FlowSpec {
            cc: CcaKind::Bbr.build(),
            start: SimTime::ZERO,
            stop: None,
        },
        FlowSpec {
            cc: CcaKind::Reno.build(),
            start: SimTime::from_millis(500),
            stop: Some(SimTime::from_secs_f64(4.0)),
        },
        FlowSpec {
            cc: CcaKind::Cubic.build(),
            start: SimTime::from_secs_f64(1.0),
            stop: None,
        },
    ]
}

#[test]
fn paper_scenario_digests_match_pre_optimization_engine() {
    for (kind, golden) in GOLDEN_SINGLE_FLOW {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        let result = run_simulation(cfg, kind.build());
        assert_digest(
            result.stats.digest(),
            golden,
            &format!("single/{}", kind.name()),
        );
    }
}

#[test]
fn fairness_scenario_digest_matches_pre_optimization_engine() {
    let duration = SimDuration::from_secs(5);
    let mut cfg = paper_sim_base(duration);
    cfg.record_events = false;
    let injections: Vec<SimTime> = (0..800).map(|i| SimTime::from_micros(i * 6_000)).collect();
    cfg.cross_traffic = TrafficTrace::new(injections, duration);
    let result = run_multi_flow_simulation(cfg, fairness_scenario_specs());
    assert_digest(result.stats.digest(), GOLDEN_FAIRNESS, "fairness");
}

#[test]
fn red_ecn_digests_match_recorded_constants() {
    for (kind, golden) in GOLDEN_RED_ECN {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        cfg.qdisc = Qdisc::red_default(100);
        cfg.ecn_enabled = true;
        let result = run_simulation(cfg, kind.build());
        assert_digest(
            result.stats.digest(),
            golden,
            &format!("red+ecn/{}", kind.name()),
        );
    }
}

#[test]
fn codel_ecn_digests_match_recorded_constants() {
    for (kind, golden) in GOLDEN_CODEL_ECN {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        cfg.qdisc = Qdisc::codel_default();
        cfg.ecn_enabled = true;
        let result = run_simulation(cfg, kind.build());
        assert_digest(
            result.stats.digest(),
            golden,
            &format!("codel+ecn/{}", kind.name()),
        );
    }
}

#[test]
fn aqm_digests_differ_from_drop_tail() {
    // The AQM gateways must actually change behaviour (otherwise the golden
    // constants above would silently pin a no-op), while the drop-tail
    // digests stay exactly at their pre-qdisc values (asserted by
    // `paper_scenario_digests_match_pre_optimization_engine`).
    for (kind, golden) in GOLDEN_SINGLE_FLOW {
        let red = GOLDEN_RED_ECN.iter().find(|(k, _)| *k == kind).unwrap().1;
        let codel = GOLDEN_CODEL_ECN.iter().find(|(k, _)| *k == kind).unwrap().1;
        assert_ne!(golden, red, "{}: RED behaves like drop-tail", kind.name());
        assert_ne!(
            golden,
            codel,
            "{}: CoDel behaves like drop-tail",
            kind.name()
        );
    }
}

#[test]
fn golden_digests_stable_across_repeated_runs() {
    // Belt and braces: the digest is a pure function of the scenario.
    let run = || {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        run_simulation(cfg, CcaKind::Reno.build()).stats.digest()
    };
    assert_eq!(run(), run());
    assert_digest(run(), GOLDEN_SINGLE_FLOW[0].1, "single/reno");
}

/// A Poisson workload on a two-hop chain beside two static flows: flow 0
/// crosses both hops, flow 1 only the second and stops at 2.5 s. The
/// concurrency cap (6) is hit, so dynamic slots recycle, and the hops'
/// unequal propagation delays make every dynamic flow's ACK delay the sum
/// of both.
#[test]
fn churn_workload_digest_matches_recorded_constants() {
    let mut cfg = paper_sim_base(SimDuration::from_secs(4));
    cfg.record_events = false;
    let mut topology = Topology::chain(vec![
        HopConfig::fixed_rate(12_000_000, SimDuration::from_millis(10), 100),
        HopConfig::fixed_rate(8_000_000, SimDuration::from_millis(15), 60),
    ]);
    topology.paths = vec![HopRange::full(2), HopRange::new(1, 1)];
    cfg.topology = Some(topology);
    cfg.arrivals = Some(ArrivalConfig {
        process: ArrivalProcess::Poisson { rate_per_sec: 40.0 },
        size: SizeDistribution {
            shape: 1.2,
            min_packets: 2,
            max_packets: 300,
        },
        mice_threshold_packets: 32,
        max_concurrent: 6,
        max_arrivals: 10_000,
    });
    let mut specs = vec![
        FlowSpec::new(CcaKind::Cubic.build()),
        FlowSpec {
            cc: CcaKind::Reno.build(),
            start: SimTime::from_millis(300),
            stop: Some(SimTime::from_secs_f64(2.5)),
        },
    ];
    let mut protos = vec![
        CcaKind::Reno.build(),
        CcaKind::Cubic.build(),
        CcaKind::Bbr.build(),
    ];
    let mut sim = Simulation::default();
    sim.load(cfg, &mut specs, &mut protos);
    sim.run();
    let stats = &sim.result().stats;
    let w = stats.workload().expect("workload stats");
    assert!(w.capped > 0, "the concurrency cap must be hit");
    assert!(w.completed() > 6, "slots must recycle");
    assert_eq!(stats.flows.len(), 2);
    assert_eq!(stats.hop_counters.len(), 2);
    assert!(
        stats.events_processed == GOLDEN_CHURN_EVENTS,
        "event count drift for churn: observed {}, recorded {GOLDEN_CHURN_EVENTS}",
        stats.events_processed
    );
    assert_digest(stats.digest(), GOLDEN_CHURN, "churn");
}
