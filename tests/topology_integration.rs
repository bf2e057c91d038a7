//! Integration tests for the multi-hop topology engine: a 3-hop parking
//! lot with per-hop conservation and a short-flow advantage, plus the full
//! topology-mode corpus roundtrip (hunt -> minimize -> replay).

use cc_fuzz::cca::CcaKind;
use cc_fuzz::corpus::hunt::{hunt, HuntConfig};
use cc_fuzz::corpus::minimize::{minimize_finding, MinimizeConfig};
use cc_fuzz::corpus::replay::replay_findings;
use cc_fuzz::corpus::store::{Corpus, CorpusConfig, InsertOutcome};
use cc_fuzz::fuzz::campaign::{paper_sim_base, FuzzMode};
use cc_fuzz::netsim::sim::{run_multi_flow_simulation, FlowSpec};
use cc_fuzz::netsim::time::{SimDuration, SimTime};
use cc_fuzz::netsim::topology::{HopConfig, HopRange, Topology};

/// The acceptance scenario: a 3-hop parking lot where a long flow crosses
/// every hop and a short flow crosses only the middle (bottleneck) hop.
/// Verifies (a) per-hop conservation — everything a hop serves arrives at
/// the next hop, and everything enqueued is delivered or dropped — and
/// (b) the short flow, paying one bottleneck instead of three queues and a
/// third of the RTT, beats the long flow's goodput.
#[test]
fn three_hop_parking_lot_conserves_and_favours_the_short_flow() {
    let mut cfg = paper_sim_base(SimDuration::from_secs(10));
    cfg.record_events = false;
    let mut topology = Topology::chain(vec![
        HopConfig::fixed_rate(10_000_000, SimDuration::from_millis(10), 80),
        HopConfig::fixed_rate(8_000_000, SimDuration::from_millis(10), 80),
        HopConfig::fixed_rate(10_000_000, SimDuration::from_millis(10), 80),
    ]);
    // Flow 0: the long flow over all three hops. Flow 1: the short flow
    // crossing only hop 1 (the 8 Mbps bottleneck both compete for).
    topology.paths = vec![HopRange::full(3), HopRange::new(1, 1)];
    cfg.topology = Some(topology);
    let (mss, duration) = (cfg.mss, cfg.duration);

    // Both flows stop 2 s before the end so every queue and every
    // inter-hop propagation pipe drains: the conservation checks below are
    // exact equalities, not inequalities-up-to-in-flight.
    let stop = Some(SimTime::from_secs_f64(8.0));
    let result = run_multi_flow_simulation(
        cfg,
        vec![
            FlowSpec {
                cc: CcaKind::Reno.build(),
                start: SimTime::ZERO,
                stop,
            },
            FlowSpec {
                cc: CcaKind::Reno.build(),
                start: SimTime::ZERO,
                stop,
            },
        ],
    );

    let hops = &result.stats.hop_counters;
    assert_eq!(hops.len(), 3);

    // (a) Conservation at every hop: enqueued == dequeued (the network
    // drained, so nothing is resident), and everything a hop served was
    // offered to the next stop. The short flow leaves after hop 1, so hop
    // 2's arrivals are hop 1's departures minus flow 1's deliveries.
    for (k, c) in hops.iter().enumerate() {
        assert_eq!(
            c.total_enqueued(),
            c.total_dequeued(),
            "hop {k} must drain completely"
        );
    }
    let f0_tx = result.stats.flows[0].summary.transmissions;
    let f1_tx = result.stats.flows[1].summary.transmissions;
    // Flow 0 enters at hop 0; flow 1 enters at hop 1.
    assert_eq!(hops[0].enqueued_cca + hops[0].dropped_cca, f0_tx);
    assert_eq!(
        hops[1].enqueued_cca + hops[1].dropped_cca,
        hops[0].dequeued_cca + f1_tx,
        "hop 1 sees flow 0's survivors plus all of flow 1"
    );
    // Flow 1 exits after hop 1: hop 2 sees only flow 0's survivors.
    let f1_delivered_at_sink = result.stats.flows[1].sink_received;
    assert_eq!(
        hops[2].enqueued_cca + hops[2].dropped_cca,
        hops[1].dequeued_cca - f1_delivered_at_sink,
        "hop 2 sees exactly what hop 1 passed of the long flow"
    );
    // Per-flow sink conservation: transmissions == deliveries + drops
    // (every hop's drops count toward the owning flow).
    for (i, f) in result.stats.flows.iter().enumerate() {
        assert_eq!(
            f.summary.transmissions,
            f.sink_received + f.summary.queue_drops,
            "flow {i}: every transmission is delivered or dropped"
        );
    }

    // (b) The short flow beats the long flow through the shared bottleneck.
    let flows = result.stats.flows.iter();
    let goodputs: Vec<f64> = flows.map(|f| f.goodput_bps(mss, duration)).collect();
    assert!(
        goodputs[1] > goodputs[0] * 1.2,
        "short flow ({:.2} Mbps) must beat the 3-hop flow ({:.2} Mbps)",
        goodputs[1] / 1e6,
        goodputs[0] / 1e6
    );
    // Together they cannot exceed the shared 8 Mbps bottleneck.
    assert!(goodputs[0] + goodputs[1] < 8.5e6);
    // Both still make progress.
    assert!(goodputs[0] > 0.5e6);
}

#[test]
fn topology_hunt_minimize_replay_roundtrip() {
    let dir = std::env::temp_dir().join(format!(
        "ccfuzz-topo-roundtrip-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();

    let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Topology, 2, 5);
    config.hops = 3;
    config.ga.islands = 2;
    config.ga.population_per_island = 3;
    config.duration = SimDuration::from_secs(2);

    // Hunt: the best genome persists as a topology finding.
    let (finding, decision) = hunt(&corpus, &config).unwrap();
    assert_eq!(decision, InsertOutcome::Added);
    assert!(finding.id.starts_with("reno-topology-"));
    finding.validate().unwrap();
    assert!(finding.behavior_digest != 0);
    let fairness = finding.fairness.as_ref().expect("per-flow summary");
    assert_eq!(
        fairness.per_flow_cca.len(),
        match &finding.genome {
            cc_fuzz::corpus::finding::GenomePayload::Topology(g) => g.flow_count(),
            other => panic!("expected a topology payload, got {other:?}"),
        }
    );

    // Disk roundtrip preserves the payload bit for bit.
    assert_eq!(corpus.get(&finding.id).unwrap(), finding);

    // Minimize: never grows the chain, never drops below the threshold.
    let cfg = MinimizeConfig {
        max_evaluations: 60,
        ..Default::default()
    };
    let (minimized, report) = minimize_finding(&finding, &cfg);
    minimized.validate().unwrap();
    assert!(report.minimized_score >= report.threshold);
    let (orig_hops, min_hops) = match (&finding.genome, &minimized.genome) {
        (
            cc_fuzz::corpus::finding::GenomePayload::Topology(a),
            cc_fuzz::corpus::finding::GenomePayload::Topology(b),
        ) => (a.hop_count(), b.hop_count()),
        _ => panic!("minimization must keep the topology payload"),
    };
    assert!(min_hops <= orig_hops, "minimization never grows the chain");
    assert!(minimized.genome.packet_count() <= finding.genome.packet_count());
    corpus.update(&finding.id, &minimized).unwrap();

    // Replay: deterministic, drift-free, digest-verified.
    let stored = corpus.load_all().unwrap();
    let report = replay_findings(&stored, None);
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.max_abs_drift, 0.0);
    // Byte-identical report across runs.
    assert_eq!(report.to_text(), replay_findings(&stored, None).to_text());

    let _ = std::fs::remove_dir_all(dir);
}
