//! Simulation configuration.

use crate::cc::INITIAL_CWND;
use crate::link::LinkModel;
use crate::packet::DEFAULT_MSS;
use crate::queue::{Qdisc, QueueCapacity};
use crate::sim::{CROSS_TRAFFIC_PACKET_SIZE, MAX_EVENTS, SENDER_BUFFER_PACKETS, STATS_INTERVAL};
use crate::tcp::receiver::{DELAYED_ACK_COUNT, DELAYED_ACK_TIMEOUT};
use crate::tcp::rtt::{INITIAL_RTO, MAX_RTO, MIN_RTO};
use crate::time::{SimDuration, SimTime};
use crate::topology::{HopConfig, HopRange, Topology};
use crate::trace::TrafficTrace;
use crate::workload::ArrivalConfig;
use serde::{Deserialize, Serialize};

/// Complete description of one simulated scenario.
///
/// [`SimConfig::paper_default`] reproduces the settings from §4 of the paper:
/// a 12 Mbps bottleneck, 20 ms propagation delay, SACK and delayed ACKs
/// enabled and a 1 second minimum RTO.
///
/// The twelve fields documented as "Fixed" have one value: the simulator
/// reads the `const` each names. They stay so that every finding,
/// checkpoint and payload keeps its bytes, and [`SimConfig::validate`]
/// refuses any other value by the field's name.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Bottleneck service model (fixed rate for traffic fuzzing, trace driven
    /// for link fuzzing).
    pub link: LinkModel,
    /// One-way propagation delay of the bottleneck link.
    pub propagation_delay: SimDuration,
    /// Gateway queue capacity.
    pub queue_capacity: QueueCapacity,
    /// Cross-traffic injection pattern (empty for link fuzzing).
    pub cross_traffic: TrafficTrace,
    /// Maximum segment size for the CCA flow, bytes.
    pub mss: u32,
    /// Cross-traffic packet size, bytes. Fixed at
    /// `CROSS_TRAFFIC_PACKET_SIZE`.
    pub cross_traffic_packet_size: u32,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Time at which the single flow of [`crate::Simulation::new`] starts.
    /// Fixed at zero: flows with other schedules are `FlowSpec`s.
    pub flow_start: SimTime,
    /// Selective acknowledgements. Fixed at `true`: the transport has one
    /// loss-recovery path, SACK's.
    pub sack_enabled: bool,
    /// Enable delayed ACKs at the receiver.
    pub delayed_ack: bool,
    /// Delayed-ACK timeout. Fixed at `DELAYED_ACK_TIMEOUT`.
    pub delayed_ack_timeout: SimDuration,
    /// Delayed-ACK packet threshold. Fixed at `DELAYED_ACK_COUNT`.
    pub delayed_ack_count: u32,
    /// Minimum retransmission timeout. Fixed at `MIN_RTO`.
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout. Fixed at `MAX_RTO`.
    pub max_rto: SimDuration,
    /// RTO before any RTT sample exists. Fixed at `INITIAL_RTO`.
    pub initial_rto: SimDuration,
    /// A static flow's application data, packets. Fixed at
    /// `SENDER_BUFFER_PACKETS`.
    pub sender_buffer_packets: u64,
    /// Initial congestion window, packets. Fixed at [`INITIAL_CWND`].
    pub initial_cwnd: u64,
    /// Interval between queue-occupancy samples. Fixed at
    /// `STATS_INTERVAL`.
    pub stats_interval: SimDuration,
    /// Record the run log (`RunStats::log`): every gateway record, every
    /// sender record and the static flows' cwnd samples. The fuzzer's inner
    /// loop disables this for speed; figures, `ccfuzz trace`, reports and
    /// the high-delay objective enable it.
    pub record_events: bool,
    /// Event budget of one run. Fixed at `MAX_EVENTS`.
    pub max_events: u64,
    /// Seed for any randomized behaviour inside the simulator (kept fixed so
    /// that the genetic algorithm converges, §3.6).
    pub seed: u64,
    /// Gateway queue discipline (drop-tail in the paper; RED/CoDel for the
    /// `aqm` fuzzing mode). Serialized only when not drop-tail, so
    /// pre-qdisc configurations round-trip byte-identically.
    #[serde(default = "drop_tail", skip_serializing_if = "is_drop_tail")]
    pub qdisc: Qdisc,
    /// ECN negotiated end to end: senders emit ECT packets, an AQM gateway
    /// marks instead of dropping them, receivers echo the marks, senders
    /// feed them to the congestion controller. Serialized only when `true`
    /// (and `false` when missing), for the same reason as `qdisc`.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub ecn_enabled: bool,
    /// Optional multi-hop topology. `None` (the default everywhere) is the
    /// paper's single-bottleneck dumbbell built from the `link` /
    /// `propagation_delay` / `queue_capacity` / `qdisc` fields above; when
    /// set, those four fields are ignored and the chain of
    /// [`HopConfig`]s (with per-flow [`HopRange`] paths) replaces them.
    /// Serialized only when present, so pre-topology configurations
    /// round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub topology: Option<Topology>,
    /// Optional dynamic-flow workload: an arrival process spawning
    /// application-limited flows with heavy-tailed sizes through the flow
    /// slab (see [`crate::workload`]). `None` (the default everywhere)
    /// keeps the fixed flow population of the classic modes. Serialized
    /// only when present, so pre-workload configurations round-trip
    /// byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub arrivals: Option<ArrivalConfig>,
}

fn drop_tail() -> Qdisc {
    Qdisc::DropTail
}

fn is_drop_tail(qdisc: &Qdisc) -> bool {
    *qdisc == Qdisc::DropTail
}

impl SimConfig {
    /// The paper's evaluation settings (§4): 12 Mbps bottleneck, 20 ms
    /// propagation delay, SACK + delayed ACKs, 1 s min RTO, and a queue of
    /// 100 packets (about 2.4 bandwidth-delay products at 12 Mbps × 40 ms)
    /// — with a 30 s scenario.
    pub fn paper_default() -> Self {
        SimConfig {
            link: LinkModel::FixedRate {
                rate_bps: 12_000_000,
            },
            propagation_delay: SimDuration::from_millis(20),
            queue_capacity: QueueCapacity::Packets(100),
            cross_traffic: TrafficTrace::empty(SimDuration::from_secs(30)),
            mss: DEFAULT_MSS,
            cross_traffic_packet_size: CROSS_TRAFFIC_PACKET_SIZE,
            duration: SimDuration::from_secs(30),
            flow_start: SimTime::ZERO,
            sack_enabled: true,
            delayed_ack: true,
            delayed_ack_timeout: DELAYED_ACK_TIMEOUT,
            delayed_ack_count: DELAYED_ACK_COUNT,
            min_rto: MIN_RTO,
            max_rto: MAX_RTO,
            initial_rto: INITIAL_RTO,
            sender_buffer_packets: SENDER_BUFFER_PACKETS,
            initial_cwnd: INITIAL_CWND,
            stats_interval: STATS_INTERVAL,
            record_events: true,
            max_events: MAX_EVENTS,
            seed: 1,
            qdisc: Qdisc::DropTail,
            ecn_enabled: false,
            topology: None,
            arrivals: None,
        }
    }

    /// A short scenario (5 s) used throughout the fuzzer's inner loop and in
    /// tests, matching the trace lengths plotted in the paper's figures.
    pub fn short_default() -> Self {
        let mut cfg = Self::paper_default();
        cfg.duration = SimDuration::from_secs(5);
        cfg.cross_traffic = TrafficTrace::empty(cfg.duration);
        cfg
    }

    /// Round-trip propagation time (both directions).
    pub fn base_rtt(&self) -> SimDuration {
        self.propagation_delay + self.propagation_delay
    }

    /// The bandwidth-delay product in packets for a given bottleneck rate.
    pub fn bdp_packets(&self, rate_bps: u64) -> u64 {
        let bdp_bytes = (rate_bps as f64 / 8.0) * self.base_rtt().as_secs_f64();
        (bdp_bytes / self.mss as f64).ceil() as u64
    }

    /// Number of hops the simulated path crosses (1 without a topology).
    pub fn hop_count(&self) -> usize {
        self.topology.as_ref().map(|t| t.hop_count()).unwrap_or(1)
    }

    /// Hop `k < hop_count()` of the chain this configuration describes: the
    /// topology's when one is set, otherwise the single hop assembled from
    /// the legacy single-bottleneck fields. A copy, and a cheap one: a
    /// trace-driven link's service curve shares its bytes.
    pub fn hop_config(&self, k: usize) -> HopConfig {
        match &self.topology {
            Some(topology) => topology.hops[k].clone(),
            None => HopConfig {
                link: self.link.clone(),
                propagation_delay: self.propagation_delay,
                queue_capacity: self.queue_capacity,
                qdisc: self.qdisc,
            },
        }
    }

    /// The path of CCA flow `flow` (the full chain without a topology or
    /// when the topology does not pin that flow explicitly).
    pub fn flow_path(&self, flow: usize) -> HopRange {
        match &self.topology {
            Some(topology) => topology.path_of(flow),
            None => HopRange::full(1),
        }
    }

    /// The twelve fixed fields, each with whether it holds its one value.
    #[rustfmt::skip]
    fn fixed_fields(&self) -> [(&'static str, bool); 12] {
        [
            ("cross_traffic_packet_size", self.cross_traffic_packet_size == CROSS_TRAFFIC_PACKET_SIZE),
            ("flow_start", self.flow_start == SimTime::ZERO),
            ("sack_enabled", self.sack_enabled),
            ("delayed_ack_timeout", self.delayed_ack_timeout == DELAYED_ACK_TIMEOUT),
            ("delayed_ack_count", self.delayed_ack_count == DELAYED_ACK_COUNT),
            ("min_rto", self.min_rto == MIN_RTO),
            ("max_rto", self.max_rto == MAX_RTO),
            ("initial_rto", self.initial_rto == INITIAL_RTO),
            ("sender_buffer_packets", self.sender_buffer_packets == SENDER_BUFFER_PACKETS),
            ("initial_cwnd", self.initial_cwnd == INITIAL_CWND),
            ("stats_interval", self.stats_interval == STATS_INTERVAL),
            ("max_events", self.max_events == MAX_EVENTS),
        ]
    }

    /// Validates internal consistency, returning a descriptive error for
    /// the first violated invariant instead of letting the simulator panic
    /// (or spin) downstream. A fixed field holding anything but its one
    /// value is refused by name.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if self.duration == SimDuration::ZERO {
            return Err("duration must be positive".into());
        }
        if let Some((name, _)) = self.fixed_fields().into_iter().find(|f| !f.1) {
            return Err(format!("{name} differs from the value the simulator fixes"));
        }
        match &self.link {
            LinkModel::FixedRate { rate_bps: 0 } => {
                return Err("link rate must be positive (a zero-rate link never serves)".into())
            }
            LinkModel::TraceDriven { trace } => trace.validate()?,
            LinkModel::FixedRate { .. } => {}
        }
        self.qdisc.validate()?;
        self.cross_traffic.validate()?;
        if let Some(topology) = &self.topology {
            topology.validate()?;
        }
        if let Some(arrivals) = &self.arrivals {
            arrivals.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_paper() {
        let cfg = SimConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.propagation_delay, SimDuration::from_millis(20));
        assert_eq!(MIN_RTO, SimDuration::from_secs(1));
        assert!(cfg.delayed_ack);
        match cfg.link {
            LinkModel::FixedRate { rate_bps } => assert_eq!(rate_bps, 12_000_000),
            _ => panic!("paper default should be a fixed-rate link"),
        }
    }

    #[test]
    fn bdp_computation() {
        let cfg = SimConfig::paper_default();
        // 12 Mbps * 40 ms = 60 kB ≈ 42 packets of 1448 B.
        let bdp = cfg.bdp_packets(12_000_000);
        assert!((40..=45).contains(&bdp), "bdp {bdp}");
        assert_eq!(cfg.base_rtt(), SimDuration::from_millis(40));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = SimConfig::paper_default();
        cfg.mss = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_default();
        cfg.duration = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        // Every fixed field, set to another value, is refused by its name.
        type Row = (&'static str, fn(&mut SimConfig));
        let rows: [Row; 12] = [
            ("cross_traffic_packet_size", |c| {
                c.cross_traffic_packet_size = 1500
            }),
            ("flow_start", |c| c.flow_start = SimTime::ZERO + c.duration),
            ("sack_enabled", |c| c.sack_enabled = false),
            ("delayed_ack_timeout", |c| {
                c.delayed_ack_timeout = SimDuration::from_millis(40)
            }),
            ("delayed_ack_count", |c| c.delayed_ack_count = 0),
            ("min_rto", |c| c.min_rto = SimDuration::from_secs(90)),
            ("max_rto", |c| c.max_rto = SimDuration::from_secs(120)),
            ("initial_rto", |c| c.initial_rto = SimDuration::from_secs(3)),
            ("sender_buffer_packets", |c| c.sender_buffer_packets = 1_000),
            ("initial_cwnd", |c| c.initial_cwnd = 0),
            ("stats_interval", |c| {
                c.stats_interval = SimDuration::from_millis(1)
            }),
            ("max_events", |c| c.max_events = 1_000),
        ];
        let table = SimConfig::paper_default().fixed_fields().map(|f| f.0);
        assert_eq!(rows.map(|r| r.0), table, "one row per fixed field");
        for (name, set) in rows {
            let mut cfg = SimConfig::paper_default();
            set(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(err.starts_with(&format!("{name} differs")), "{name}: {err}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = SimConfig::paper_default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn qdisc_fields_are_omitted_at_defaults() {
        // Drop-tail + no ECN serializes exactly as before the qdisc layer
        // existed: configurations embedded in committed findings must
        // re-serialize byte-identically.
        let cfg = SimConfig::paper_default();
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("qdisc"), "default qdisc must be omitted");
        assert!(!json.contains("ecn_enabled"), "ecn=false must be omitted");
        // A pre-qdisc JSON (no such fields) parses to the defaults.
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.qdisc, Qdisc::DropTail);
        assert!(!back.ecn_enabled);
    }

    #[test]
    fn qdisc_fields_roundtrip_when_set() {
        let mut cfg = SimConfig::paper_default();
        cfg.qdisc = Qdisc::red_default(100);
        cfg.ecn_enabled = true;
        cfg.validate().unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("qdisc"));
        assert!(json.contains("ecn_enabled"));
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);

        let mut cfg = SimConfig::paper_default();
        cfg.qdisc = Qdisc::codel_default();
        let back: SimConfig = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn topology_field_is_omitted_when_absent_and_roundtrips_when_set() {
        // No topology serializes exactly as before the hop-chain engine
        // existed: configurations embedded in committed findings must
        // re-serialize byte-identically.
        let cfg = SimConfig::paper_default();
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(
            !json.contains("topology"),
            "absent topology must be omitted"
        );
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert!(back.topology.is_none());
        assert_eq!(back.hop_count(), 1);

        let mut cfg = SimConfig::paper_default();
        cfg.topology = Some(Topology::chain(vec![
            HopConfig::fixed_rate(12_000_000, SimDuration::from_millis(10), 100),
            HopConfig::fixed_rate(8_000_000, SimDuration::from_millis(10), 60),
        ]));
        cfg.topology.as_mut().unwrap().paths = vec![HopRange::new(0, 1), HopRange::new(1, 1)];
        cfg.validate().unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("topology"));
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(back.hop_count(), 2);
        assert_eq!(back.flow_path(1), HopRange::new(1, 1));
        assert_eq!(back.flow_path(7), HopRange::full(2), "unpinned = full path");
    }

    #[test]
    fn hop_configs_fall_back_to_the_legacy_single_bottleneck() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.hop_count(), 1);
        let hop = cfg.hop_config(0);
        assert_eq!(hop.link, cfg.link);
        assert_eq!(hop.propagation_delay, cfg.propagation_delay);
        assert_eq!(hop.queue_capacity, cfg.queue_capacity);
        assert_eq!(hop.qdisc, cfg.qdisc);
    }

    #[test]
    fn hop_configs_read_the_topology_chain() {
        let mut cfg = SimConfig::paper_default();
        let topo = Topology::uniform_chain(2, 12_000_000, SimDuration::from_millis(5), 50);
        cfg.topology = Some(topo.clone());
        let hops: Vec<HopConfig> = (0..cfg.hop_count()).map(|k| cfg.hop_config(k)).collect();
        assert_eq!(hops, topo.hops);
        cfg.validate().unwrap();
        assert_eq!(cfg.flow_path(0), HopRange::full(2));
    }

    #[test]
    fn validation_reports_descriptive_errors() {
        let mut cfg = SimConfig::paper_default();
        cfg.link = LinkModel::FixedRate { rate_bps: 0 };
        assert!(cfg.validate().unwrap_err().contains("link rate"));

        let mut cfg = SimConfig::paper_default();
        cfg.topology = Some(Topology::chain(Vec::new()));
        assert!(cfg.validate().unwrap_err().contains("no hops"));

        let mut cfg = SimConfig::paper_default();
        let mut topo = Topology::uniform_chain(2, 12_000_000, SimDuration::from_millis(5), 50);
        topo.hops[1].link = LinkModel::FixedRate { rate_bps: 0 };
        cfg.topology = Some(topo);
        assert!(cfg.validate().unwrap_err().contains("hop 1"));
    }

    #[test]
    fn validation_catches_bad_qdisc() {
        let mut cfg = SimConfig::paper_default();
        cfg.qdisc = Qdisc::Red {
            min_thresh: 60,
            max_thresh: 20,
            mark_probability: 0.1,
        };
        assert!(cfg.validate().is_err());
    }
}
