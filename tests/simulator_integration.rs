//! Cross-crate integration tests: real CCAs from `ccfuzz-cca` running over
//! the `ccfuzz-netsim` dumbbell, measured with `ccfuzz-analysis`.

use cc_fuzz::analysis::timeseries::{mean_of_lowest_fraction, windowed_throughput_bps};
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::paper_sim_base;
use cc_fuzz::fuzz::scoring::jains_index;
use cc_fuzz::netsim::link::LinkModel;
use cc_fuzz::netsim::packet::FlowId;
use cc_fuzz::netsim::sim::{run_multi_flow_simulation, run_simulation, FlowSpec};
use cc_fuzz::netsim::stats::TransportEvent;
use cc_fuzz::netsim::time::{SimDuration, SimTime};
use cc_fuzz::netsim::trace::{LinkTrace, TrafficTrace};

fn base(duration_s: u64) -> cc_fuzz::netsim::config::SimConfig {
    let mut cfg = paper_sim_base(SimDuration::from_secs(duration_s));
    cfg.record_events = true;
    cfg
}

#[test]
fn every_cca_fills_most_of_a_clean_12mbps_link() {
    for kind in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas] {
        let cfg = base(5);
        let mss = cfg.mss;
        let result = run_simulation(cfg, kind.build());
        let goodput = result.average_goodput_bps(mss);
        assert!(
            goodput > 7e6,
            "{} only reached {:.2} Mbps on a clean 12 Mbps link",
            kind.name(),
            goodput / 1e6
        );
        assert!(
            goodput < 12.5e6,
            "{} exceeded the link rate: {goodput}",
            kind.name()
        );
    }
}

#[test]
fn loss_based_ccas_recover_from_cross_traffic_bursts() {
    // A single large burst: the flow must lose packets, recover and keep going.
    let mut cfg = base(5);
    let burst = TrafficTrace::periodic_bursts(
        SimDuration::from_secs(10), // only one burst in a 5s run
        300,
        SimDuration::from_micros(100),
        cfg.duration,
    );
    cfg.cross_traffic = TrafficTrace::new(
        burst
            .iter()
            .map(|t| t + SimDuration::from_secs(1))
            .collect(),
        cfg.duration,
    );
    for kind in [CcaKind::Reno, CcaKind::Cubic] {
        let mss = cfg.mss;
        let result = run_simulation(cfg.clone(), kind.build());
        assert!(
            result.stats.flow().retransmissions > 0,
            "{} should retransmit",
            kind.name()
        );
        assert!(
            result.average_goodput_bps(mss) > 4e6,
            "{} collapsed after one burst: {:.2} Mbps",
            kind.name(),
            result.average_goodput_bps(mss) / 1e6
        );
    }
}

#[test]
fn trace_driven_starvation_starves_every_cca() {
    // A link that only serves packets during the first second.
    let mut cfg = base(5);
    let opportunities: Vec<SimTime> = (0..1_000)
        .map(|i| SimTime::from_micros(i * 1_000))
        .collect();
    cfg.link = LinkModel::TraceDriven {
        trace: LinkTrace::new(opportunities, cfg.duration),
    };
    for kind in [CcaKind::Reno, CcaKind::Bbr] {
        let result = run_simulation(cfg.clone(), kind.build());
        assert!(
            result.stats.flow().delivered_packets <= 1_000,
            "{} cannot deliver more than the trace allows",
            kind.name()
        );
        // The lowest-20%-window throughput must be zero: the flow is starved
        // for the last four seconds.
        let windows = windowed_throughput_bps(
            result.stats.delivery_times(),
            cfg.mss,
            SimDuration::from_millis(500),
            cfg.duration,
        );
        let rates: Vec<f64> = windows.iter().map(|(_, r)| *r).collect();
        assert_eq!(mean_of_lowest_fraction(&rates, 0.2), 0.0);
    }
}

#[test]
fn bbr_builds_less_queue_than_loss_based_ccas() {
    // BBR's model-based pacing keeps the standing queue small compared to
    // CUBIC, which fills the buffer until it drops.
    let queue_p95 = |kind: CcaKind| {
        let cfg = base(5);
        let result = run_simulation(cfg, kind.build());
        let mut delays: Vec<f64> = result
            .stats
            .queuing_delays(FlowId::Cca(0))
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        cc_fuzz::analysis::timeseries::percentile(&delays, 95.0)
    };
    let bbr = queue_p95(CcaKind::Bbr);
    let cubic = queue_p95(CcaKind::Cubic);
    assert!(
        bbr < cubic,
        "BBR p95 queuing delay ({bbr:.4}s) should be below CUBIC's ({cubic:.4}s)"
    );
}

#[test]
fn delayed_ack_setting_changes_behaviour() {
    // Sanity check that the delayed-ACK option is wired through: without it
    // the receiver ACKs every packet, so the sender sees about twice the
    // cumulative advances, and both runs recover from the same losses.
    let mut cfg = base(3);
    // Add enough cross traffic to cause losses (kept inside the 3 s scenario).
    let injections: Vec<SimTime> = (0..1_200)
        .map(|i| SimTime::from_micros(1_000_000 + i * 1_500))
        .collect();
    cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
    let mut every_packet = cfg.clone();
    every_packet.delayed_ack = false;

    let cum_acks = |cfg: cc_fuzz::netsim::config::SimConfig| {
        let result = run_simulation(cfg, CcaKind::Reno.build());
        assert!(result.stats.flow().retransmissions > 0);
        let advances = result
            .stats
            .transport(FlowId::Cca(0))
            .filter(|(_, e)| matches!(e, TransportEvent::CumAckAdvanced { .. }))
            .count();
        advances as f64 / result.stats.flow().delivered_packets as f64
    };
    let delayed = cum_acks(cfg);
    let undelayed = cum_acks(every_packet);
    assert!(
        undelayed > 1.5 * delayed,
        "advances per delivered packet: {undelayed:.3} ACKing every packet, \
         {delayed:.3} with delayed ACKs"
    );
}

#[test]
fn two_identical_reno_flows_converge_to_a_fair_share() {
    // The satellite acceptance check: on the paper's 12 Mbps / 20 ms
    // scenario, two identical Reno flows sharing the drop-tail bottleneck
    // must converge to Jain's index >= 0.95.
    let cfg = base(20);
    let (mss, duration) = (cfg.mss, cfg.duration);
    let result = run_multi_flow_simulation(
        cfg,
        vec![
            FlowSpec::new(CcaKind::Reno.build()),
            FlowSpec::new(CcaKind::Reno.build()),
        ],
    );
    let flows = result.stats.flows.iter();
    let goodputs: Vec<f64> = flows.map(|f| f.goodput_bps(mss, duration)).collect();
    assert_eq!(goodputs.len(), 2);
    let jain = jains_index(&goodputs);
    assert!(
        jain >= 0.95,
        "two identical Reno flows must share fairly: jain = {jain:.4}, goodputs = {goodputs:?}"
    );
    // Together they still use most of the link.
    let total: f64 = goodputs.iter().sum();
    assert!(
        total > 8e6 && total < 12.5e6,
        "aggregate {:.2} Mbps out of 12 Mbps",
        total / 1e6
    );
}

#[test]
fn mixed_cca_flows_share_a_bottleneck_with_per_flow_stats() {
    // BBR vs. Reno: each flow has its own boxed CC instance; per-flow stats
    // must reflect two live senders competing for one queue.
    let cfg = base(5);
    let (mss, duration) = (cfg.mss, cfg.duration);
    let result = run_multi_flow_simulation(
        cfg,
        vec![
            FlowSpec::new(CcaKind::Bbr.build()),
            FlowSpec::new(CcaKind::Reno.build()),
        ],
    );
    assert_eq!(result.stats.flows.len(), 2);
    for (i, f) in result.stats.flows.iter().enumerate() {
        assert!(
            f.summary.delivered_packets > 100,
            "flow {i} delivered {}",
            f.summary.delivered_packets
        );
    }
    let flows = result.stats.flows.iter();
    let goodputs: Vec<f64> = flows.map(|f| f.goodput_bps(mss, duration)).collect();
    let total: f64 = goodputs.iter().sum();
    assert!(total < 12.5e6, "flows cannot exceed the link: {total}");
    // The queue counters aggregate both flows.
    let c = result.stats.hop_counters[0];
    let sent: u64 = result
        .stats
        .flows
        .iter()
        .map(|f| f.summary.transmissions)
        .sum();
    assert_eq!(sent, c.enqueued_cca + c.dropped_cca);
}

#[test]
fn simulations_are_bit_reproducible() {
    let run = |kind: CcaKind| {
        let mut cfg = base(4);
        let injections: Vec<SimTime> = (0..1_500)
            .map(|i| SimTime::from_micros(500_000 + i * 2_100))
            .collect();
        cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
        let result = run_simulation(cfg, kind.build());
        (
            result.stats.flow().delivered_packets,
            result.stats.flow().transmissions,
            result.stats.flow().retransmissions,
            result.stats.flow().rto_count,
            result.stats.events_processed,
        )
    };
    for kind in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas] {
        assert_eq!(run(kind), run(kind), "{} is not deterministic", kind.name());
    }
}
