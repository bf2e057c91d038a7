//! Simulation configuration.

use crate::link::LinkModel;
use crate::packet::DEFAULT_MSS;
use crate::queue::{Qdisc, QueueCapacity};
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
    /// Cross-traffic packet size, bytes.
    pub cross_traffic_packet_size: u32,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Time at which the CCA flow starts.
    pub flow_start: SimTime,
    /// Enable selective acknowledgements.
    pub sack_enabled: bool,
    /// Enable delayed ACKs at the receiver.
    pub delayed_ack: bool,
    /// Delayed-ACK timeout (Linux/NS3 default: 200 ms).
    pub delayed_ack_timeout: SimDuration,
    /// Delayed-ACK packet threshold (ACK every n-th packet; 2 is standard).
    pub delayed_ack_count: u32,
    /// Minimum retransmission timeout. The paper uses 1 s (RFC 6298 §2.4).
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout (backoff cap).
    pub max_rto: SimDuration,
    /// Initial RTO before any RTT sample exists (RFC 6298: 1 s).
    pub initial_rto: SimDuration,
    /// Sender buffer: the maximum number of packets the application will ever
    /// have outstanding (effectively unlimited for bulk transfer).
    pub sender_buffer_packets: u64,
    /// Initial congestion window in packets.
    pub initial_cwnd: u64,
    /// Interval between periodic statistics samples.
    pub stats_interval: SimDuration,
    /// Record the run log (`RunStats::log`): every gateway record, every
    /// sender record and the static flows' cwnd samples. The fuzzer's inner
    /// loop disables this for speed; figures, `ccfuzz trace`, reports and
    /// the high-delay objective enable it.
    pub record_events: bool,
    /// Event-budget safety valve: the simulation aborts (with a flag in the
    /// result) after this many events, protecting the fuzzer from adversarial
    /// traces that would otherwise run forever.
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
    /// one bandwidth-delay product (~40 packets) — with a 30 s scenario.
    pub fn paper_default() -> Self {
        SimConfig {
            link: LinkModel::FixedRate {
                rate_bps: 12_000_000,
            },
            propagation_delay: SimDuration::from_millis(20),
            queue_capacity: QueueCapacity::Packets(100),
            cross_traffic: TrafficTrace::empty(SimDuration::from_secs(30)),
            mss: DEFAULT_MSS,
            cross_traffic_packet_size: DEFAULT_MSS,
            duration: SimDuration::from_secs(30),
            flow_start: SimTime::ZERO,
            sack_enabled: true,
            delayed_ack: true,
            delayed_ack_timeout: SimDuration::from_millis(200),
            delayed_ack_count: 2,
            min_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            sender_buffer_packets: u64::MAX / 4,
            initial_cwnd: 10,
            stats_interval: SimDuration::from_millis(10),
            record_events: true,
            max_events: 20_000_000,
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

    /// Moves the hop chain this configuration describes into `out` (cleared
    /// first; a batch driver reuses one buffer across evaluations): the
    /// topology's hops when one is set, otherwise a single hop assembled
    /// from the legacy single-bottleneck fields. The link models are moved,
    /// not cloned — a trace-driven service curve is tens of kilobytes — so
    /// afterwards `link` (and every topology hop's `link`) holds a zero-rate
    /// placeholder; everything else stays readable.
    pub fn take_hop_configs_into(&mut self, out: &mut Vec<HopConfig>) {
        out.clear();
        match &mut self.topology {
            Some(topology) => out.extend(topology.hops.iter_mut().map(|h| HopConfig {
                link: h.link.take(),
                propagation_delay: h.propagation_delay,
                queue_capacity: h.queue_capacity,
                qdisc: h.qdisc,
            })),
            None => out.push(HopConfig {
                link: self.link.take(),
                propagation_delay: self.propagation_delay,
                queue_capacity: self.queue_capacity,
                qdisc: self.qdisc,
            }),
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

    /// Validates internal consistency, returning a descriptive error for
    /// the first violated invariant instead of letting the simulator panic
    /// (or spin) downstream.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if self.duration == SimDuration::ZERO {
            return Err("duration must be positive".into());
        }
        if self.flow_start.as_nanos() >= self.duration.as_nanos() {
            return Err(format!(
                "flow_start {} is at or beyond the scenario duration {}",
                self.flow_start, self.duration
            ));
        }
        if self.initial_cwnd == 0 {
            return Err("initial cwnd must be at least 1".into());
        }
        if self.delayed_ack && self.delayed_ack_count == 0 {
            return Err("delayed_ack_count must be at least 1".into());
        }
        if self.min_rto > self.max_rto {
            return Err("min_rto must not exceed max_rto".into());
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
        assert_eq!(cfg.min_rto, SimDuration::from_secs(1));
        assert!(cfg.sack_enabled);
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

        let mut cfg = SimConfig::paper_default();
        cfg.initial_cwnd = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_default();
        cfg.min_rto = SimDuration::from_secs(90);
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_default();
        cfg.delayed_ack_count = 0;
        assert!(cfg.validate().is_err());
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
        let mut hops = Vec::new();
        cfg.clone().take_hop_configs_into(&mut hops);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].link, cfg.link);
        assert_eq!(hops[0].propagation_delay, cfg.propagation_delay);
        assert_eq!(hops[0].queue_capacity, cfg.queue_capacity);
        assert_eq!(hops[0].qdisc, cfg.qdisc);
    }

    #[test]
    fn taking_the_hop_chain_moves_the_links_out() {
        let mut cfg = SimConfig::paper_default();
        let topo = Topology::uniform_chain(2, 12_000_000, SimDuration::from_millis(5), 50);
        cfg.topology = Some(topo.clone());
        let mut hops = vec![HopConfig::fixed_rate(1, SimDuration::ZERO, 1)];
        cfg.take_hop_configs_into(&mut hops);
        assert_eq!(hops, topo.hops, "buffer cleared, chain moved in");
        // What is left behind cannot be run by accident.
        assert!(cfg.validate().unwrap_err().contains("hop 0"));
        assert_eq!(cfg.flow_path(0), HopRange::full(2), "paths stay readable");
    }

    #[test]
    fn validation_reports_descriptive_errors() {
        let mut cfg = SimConfig::paper_default();
        cfg.link = LinkModel::FixedRate { rate_bps: 0 };
        assert!(cfg.validate().unwrap_err().contains("link rate"));

        let mut cfg = SimConfig::paper_default();
        cfg.flow_start = SimTime::ZERO + cfg.duration;
        assert!(cfg.validate().unwrap_err().contains("flow_start"));

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
