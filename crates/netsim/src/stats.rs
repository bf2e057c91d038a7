//! Measurement and logging.
//!
//! The simulator records enough per-packet and per-flow information to
//! rebuild every curve plotted in the paper: ingress/egress rates at the
//! bottleneck (Figures 4a/4b), per-packet queuing delay (Figure 4e), packets
//! delivered over time (the fitness signal for the genetic algorithm), and —
//! under `SimConfig::record_events` — one run log of gateway, sender and
//! cwnd records detailed enough to print the Figure 4c timeline and every
//! `ccfuzz trace` view.

use crate::cc::CcEvent;
use crate::packet::FlowId;
use crate::queue::QueueCounters;
use crate::time::{SimDuration, SimTime};
use ccfuzz_obs::metrics::HISTOGRAM_BUCKETS;
use serde::{Deserialize, Serialize};

/// What happened to a packet at a hop's gateway queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BottleneckEvent {
    /// The packet arrived at the gateway and was accepted into the queue.
    Enqueued,
    /// The packet was dropped: at arrival (queue full, RED early drop) or
    /// at the head of the queue (CoDel).
    Dropped,
    /// The packet was transmitted over the hop's link.
    Dequeued {
        /// Time the packet spent in the queue.
        queuing_delay: SimDuration,
    },
    /// The packet was CE-marked by the queue discipline (RED marks at
    /// enqueue, CoDel at dequeue); an `Enqueued`/`Dequeued` record for the
    /// same packet accompanies this one.
    Marked,
}

/// Transport-level events of one flow's sender, used for root-cause
/// timelines (Figure 4c) and for assertions in tests.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TransportEvent {
    /// A data packet was (re)transmitted.
    Sent {
        /// Transport sequence number.
        seq: u64,
        /// `true` for retransmissions.
        retransmission: bool,
        /// `tp->delivered` stamped into the packet at this transmission.
        delivered_stamp: u64,
    },
    /// The cumulative ACK advanced.
    CumAckAdvanced {
        /// New cumulative ACK (first unacked sequence).
        cum_ack: u64,
    },
    /// A packet was newly SACKed.
    Sacked {
        /// Sequence of the SACKed packet.
        seq: u64,
    },
    /// A packet was marked lost by fast-retransmit / SACK-based detection.
    MarkedLost {
        /// Sequence of the lost packet.
        seq: u64,
    },
    /// The retransmission timer expired.
    RtoFired {
        /// Current RTO backoff exponent (0 = first expiry).
        backoff: u32,
    },
    /// The sender entered fast recovery.
    EnterRecovery,
    /// The sender exited recovery.
    ExitRecovery,
    /// An algorithm-internal event (e.g. BBR's probe rounds and mode
    /// transitions).
    Cc(CcEvent),
}

/// A timestamped transport event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransportRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TransportEvent,
}

/// What one record of the run log says.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LogEvent {
    /// A packet of `size` bytes at the record's hop.
    Queue {
        /// Packet size in bytes.
        size: u32,
        /// What the gateway did with it.
        event: BottleneckEvent,
    },
    /// A record of the flow's sender.
    Transport(TransportEvent),
    /// The flow's congestion window, sampled when the flow starts and after
    /// each ACK and RTO it processes, and logged only when it moved (static
    /// flows only). A flow's first sample is its start.
    Cwnd {
        /// Congestion window, in packets.
        cwnd: u64,
        /// Packets in flight at the sample.
        in_flight: u64,
    },
}

/// One record of the run log.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// When it happened.
    pub at: SimTime,
    /// The flow: cross traffic, or a CCA flow's raw handle (a static flow's
    /// index or a dynamic flow's tagged slab handle).
    pub flow: FlowId,
    /// The gateway's hop for a queue record, the flow's entry hop otherwise.
    pub hop: u32,
    /// What happened.
    pub event: LogEvent,
}

/// Summary statistics for the CCA flow.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Unique data packets delivered to the receiver (in order, counting each
    /// sequence once).
    pub delivered_packets: u64,
    /// Bytes corresponding to `delivered_packets`.
    pub delivered_bytes: u64,
    /// Total transmissions (including retransmissions).
    pub transmissions: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Packets the sender marked lost.
    pub marked_lost: u64,
    /// Packets of the CCA flow dropped at the bottleneck queue.
    pub queue_drops: u64,
    /// Number of RTO expirations.
    pub rto_count: u64,
    /// Number of fast-recovery episodes.
    pub recovery_episodes: u64,
    /// Smoothed RTT at the end of the run, microseconds (0 if never sampled).
    pub final_srtt_us: u64,
    /// Minimum RTT observed, microseconds (0 if never sampled).
    pub min_rtt_us: u64,
    /// Highest sequence number sent (exclusive).
    pub highest_sent: u64,
    /// Final cumulative ACK (first unacked sequence).
    pub final_cum_ack: u64,
    /// Packets of this flow CE-marked at the bottleneck queue (AQM + ECN).
    pub ce_marked: u64,
    /// CE-marked packets of this flow that reached the receiver.
    pub ce_received: u64,
    /// CE marks the receiver echoed into ACKs.
    pub ece_echoed: u64,
    /// CE echoes the sender processed from arriving ACKs.
    pub ece_acked: u64,
}

impl FlowSummary {
    /// The twelve transport counters [`RunStats::digest`] mixes for every
    /// flow, in digest order (the ECN counters are mixed separately, and
    /// only when a run produced marks).
    fn digest_fields(&self) -> [u64; 12] {
        [
            self.delivered_packets,
            self.delivered_bytes,
            self.transmissions,
            self.retransmissions,
            self.marked_lost,
            self.queue_drops,
            self.rto_count,
            self.recovery_episodes,
            self.final_srtt_us,
            self.min_rtt_us,
            self.highest_sent,
            self.final_cum_ack,
        ]
    }
}

/// Per-flow measurements for one congestion-controlled flow.
///
/// `flows[0]` is the primary flow; the [`RunStats::flow`] and
/// [`RunStats::delivery_times`] accessors borrow from it. Flows 1.. only
/// exist in multi-flow scenarios.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlowStats {
    /// Sender-side summary counters.
    pub summary: FlowSummary,
    /// Times at which each *new* (not previously delivered) packet of this
    /// flow reached the sink.
    pub delivery_times: Vec<SimTime>,
    /// When the flow started sending.
    pub start: SimTime,
    /// When the flow stopped sending (`None` = ran to the end of the
    /// scenario).
    pub stop: Option<SimTime>,
    /// Data packets of this flow received at the sink, including duplicates
    /// (the receiver's count, read once at the end of the run).
    pub sink_received: u64,
}

impl FlowStats {
    /// The interval during which the flow was allowed to send, clamped to
    /// the scenario duration.
    pub fn active_secs(&self, duration: SimDuration) -> f64 {
        let end = self
            .stop
            .unwrap_or(SimTime::ZERO + duration)
            .min(SimTime::ZERO + duration);
        end.saturating_since(self.start).as_secs_f64()
    }

    /// Average goodput over the flow's active interval, in bits per second
    /// (sink-side: counts distinct packets that reached the receiver).
    pub fn goodput_bps(&self, mss: u32, duration: SimDuration) -> f64 {
        let secs = self.active_secs(duration);
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivery_times.len() as f64 * mss as f64 * 8.0 / secs
    }
}

/// A log-bucketed flow-completion-time histogram, reusing the obs crate's
/// bucketing scheme ([`ccfuzz_obs::metrics::bucket_index`]: exact below 16,
/// four sub-buckets per power of two above, < 25 % relative error). Values
/// are FCTs in nanoseconds. Bounded memory regardless of how many flows a
/// workload run spawns — this is what replaces unbounded per-flow
/// `delivery_times` retention for dynamic flows.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FctHistogram {
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`]; allocated on first record).
    buckets: Vec<u64>,
    /// Total recorded values.
    count: u64,
    /// Sum of recorded values (nanoseconds).
    sum: u64,
    /// Smallest recorded value (0 when empty).
    min: u64,
    /// Largest recorded value (0 when empty).
    max: u64,
}

impl FctHistogram {
    /// Records one FCT sample in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        if self.buckets.is_empty() {
            self.buckets.resize(HISTOGRAM_BUCKETS, 0);
            self.min = u64::MAX;
        }
        self.buckets[ccfuzz_obs::metrics::bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum += nanos;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate percentile (`p` in `[0, 100]`) in nanoseconds: the
    /// rank-`ceil(p/100 * count)` value, linearly interpolated within the
    /// bucket holding it and clamped to the observed min/max, so p95 < p99
    /// stays ordered even inside one log bucket. The rank is placed at the
    /// *end* of its slot in the bucket (`rank / n` of the way up), not at
    /// its midpoint as the obs histogram's `percentile` does; workload
    /// scores depend on this exact estimate. Returns 0 when empty.
    pub fn percentile_nanos(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64).max(1);
        if target >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen;
            seen += n;
            if seen >= target {
                let lo = ccfuzz_obs::metrics::bucket_floor(i);
                let hi = if i + 1 < HISTOGRAM_BUCKETS {
                    ccfuzz_obs::metrics::bucket_floor(i + 1)
                } else {
                    u64::MAX
                };
                let frac = (target - before) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est as u64).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Clears all samples: the histogram equals a fresh one, apart from
    /// the bucket vector's capacity, which the next `record` reuses.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
        self.min = 0;
        self.max = 0;
    }

    /// Mixes the histogram's contents into a digest via `mix`.
    fn digest_into(&self, mix: &mut impl FnMut(u64)) {
        mix(self.count);
        mix(self.sum);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                mix(i as u64);
                mix(n);
            }
        }
    }
}

/// One retained flow-completion sample (see [`WorkloadStats::samples`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FctSample {
    /// The flow's byte budget in packets.
    pub size_packets: u64,
    /// Completion time: spawn to final delivery ACKed.
    pub fct: SimDuration,
}

/// Statistics of a dynamic-flow workload run. Present in [`RunStats`] only
/// when `SimConfig::arrivals` is configured; every pre-existing mode leaves
/// it `None` and digests exactly as before.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Dynamic flows spawned by the arrival process.
    pub spawned: u64,
    /// Arrivals skipped because the concurrent-flow cap was reached.
    pub capped: u64,
    /// Data packets transmitted by flows that completed and recycled.
    pub completed_tx: u64,
    /// Data packets of completed flows that reached the sink.
    pub completed_delivered: u64,
    /// Data packets of completed flows dropped at a gateway queue.
    pub completed_dropped: u64,
    /// FCT histogram of mice (size ≤ the configured threshold).
    pub fct_mice: FctHistogram,
    /// FCT histogram of elephants (size > the configured threshold).
    pub fct_elephants: FctHistogram,
    /// Bounded reservoir of individual `(size, FCT)` samples — a uniform
    /// random subset of all completions, capped at
    /// [`WorkloadStats::MAX_SAMPLES`].
    pub samples: Vec<FctSample>,
}

impl WorkloadStats {
    /// Upper bound on retained individual FCT samples.
    pub const MAX_SAMPLES: usize = 256;

    /// Total FCT samples recorded across both size classes.
    pub fn fct_count(&self) -> u64 {
        self.fct_mice.count() + self.fct_elephants.count()
    }

    /// Dynamic flows whose whole byte budget was delivered: each recorded
    /// exactly one FCT sample.
    pub fn completed(&self) -> u64 {
        self.fct_count()
    }

    /// Flows still live (spawned, not completed) when the run ended.
    pub fn active_at_end(&self) -> u64 {
        self.spawned - self.completed()
    }

    /// Clears all counters and histograms, keeping allocations.
    pub fn clear(&mut self) {
        self.spawned = 0;
        self.capped = 0;
        self.completed_tx = 0;
        self.completed_delivered = 0;
        self.completed_dropped = 0;
        self.fct_mice.clear();
        self.fct_elephants.clear();
        self.samples.clear();
    }
}

/// Everything measured during one simulation run.
///
/// Every counter has one writer. The per-hop series hold one entry per hop
/// of the path, the single-hop dumbbell included; the primary flow's
/// summary and delivery times live in `flows[0]`, and the
/// [`RunStats::flow`] and [`RunStats::delivery_times`] accessors borrow
/// from it.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// The run log (kept only under `SimConfig::record_events`): every
    /// gateway record of every packet and hop, every sender record of every
    /// flow and the static flows' cwnd samples, in event-processing order.
    pub log: Vec<LogRecord>,
    /// Per-hop lifetime queue counters, indexed by hop (length 1 without a
    /// topology: the dumbbell's one gateway).
    pub hop_counters: Vec<QueueCounters>,
    /// Per-hop queue occupancy samples `(time, packets, bytes)` taken every
    /// `stats_interval`, indexed by hop like [`RunStats::hop_counters`].
    pub hop_samples: Vec<Vec<(SimTime, usize, u64)>>,
    /// Per-flow statistics for every congestion-controlled flow, indexed by
    /// [`crate::packet::FlowId::Cca`] index.
    pub flows: Vec<FlowStats>,
    /// Cross-traffic packets that reached the sink.
    pub cross_delivered: u64,
    /// Cross-traffic packets dropped at a gateway queue: the sum of every
    /// hop's `dropped_cross`, filled once at the end of the run.
    pub cross_dropped: u64,
    /// `true` if the run hit the event-budget safety valve before reaching
    /// the configured duration.
    pub truncated: bool,
    /// Total events processed.
    pub events_processed: u64,
    /// Delivery timestamps not retained because a flow hit the per-flow
    /// retention cap (bounded-memory backstop; zero in every classic mode).
    pub delivery_samples_dropped: u64,
    /// Dynamic-flow workload statistics; `Some` exactly when
    /// `SimConfig::arrivals` was configured.
    pub workload: Option<Box<WorkloadStats>>,
}

/// Zero summary returned by [`RunStats::flow`] when no flow was simulated
/// (e.g. on a default-constructed `RunStats`).
const EMPTY_FLOW_SUMMARY: FlowSummary = FlowSummary {
    delivered_packets: 0,
    delivered_bytes: 0,
    transmissions: 0,
    retransmissions: 0,
    marked_lost: 0,
    queue_drops: 0,
    rto_count: 0,
    recovery_episodes: 0,
    final_srtt_us: 0,
    min_rtt_us: 0,
    highest_sent: 0,
    final_cum_ack: 0,
    ce_marked: 0,
    ce_received: 0,
    ece_echoed: 0,
    ece_acked: 0,
};

impl RunStats {
    /// Summary counters of the primary CCA flow (borrows `flows[0]`).
    pub fn flow(&self) -> &FlowSummary {
        self.flows
            .first()
            .map(|f| &f.summary)
            .unwrap_or(&EMPTY_FLOW_SUMMARY)
    }

    /// Times at which each *new* (not previously delivered) packet of the
    /// primary CCA flow reached the sink, used for windowed-throughput
    /// scoring (borrows `flows[0]`).
    pub fn delivery_times(&self) -> &[SimTime] {
        self.flows
            .first()
            .map(|f| f.delivery_times.as_slice())
            .unwrap_or(&[])
    }
    /// Queuing-delay samples for a flow: `(dequeue time, delay)`. Multi-hop
    /// runs contribute one sample per hop crossed.
    pub fn queuing_delays(&self, flow: FlowId) -> Vec<(SimTime, SimDuration)> {
        self.queue_records(flow)
            .filter_map(|(at, _, event)| match event {
                BottleneckEvent::Dequeued { queuing_delay } => Some((at, queuing_delay)),
                _ => None,
            })
            .collect()
    }

    /// Cumulative bytes that entered the queue for `flow`, as `(time, bytes)`
    /// step points (the "ingress" curves of Figures 4a/4b).
    pub fn ingress_bytes(&self, flow: FlowId) -> Vec<(SimTime, u64)> {
        self.cumulative_bytes(flow, |e| {
            matches!(e, BottleneckEvent::Enqueued | BottleneckEvent::Dropped)
        })
    }

    /// Cumulative bytes that left the queue (crossed the bottleneck) for
    /// `flow`, as `(time, bytes)` step points (the "egress" curves).
    pub fn egress_bytes(&self, flow: FlowId) -> Vec<(SimTime, u64)> {
        self.cumulative_bytes(flow, |e| matches!(e, BottleneckEvent::Dequeued { .. }))
    }

    fn cumulative_bytes(
        &self,
        flow: FlowId,
        counts: impl Fn(BottleneckEvent) -> bool,
    ) -> Vec<(SimTime, u64)> {
        let mut total = 0u64;
        self.queue_records(flow)
            .filter(|&(_, _, event)| counts(event))
            .map(|(at, size, _)| {
                total += size as u64;
                (at, total)
            })
            .collect()
    }

    /// `flow`'s gateway records as `(time, size, event)`.
    fn queue_records(
        &self,
        flow: FlowId,
    ) -> impl Iterator<Item = (SimTime, u32, BottleneckEvent)> + '_ {
        self.log.iter().filter_map(move |r| match r.event {
            LogEvent::Queue { size, event } if r.flow == flow => Some((r.at, size, event)),
            _ => None,
        })
    }

    /// `flow`'s sender records, in the order the sender logged them.
    pub fn transport(&self, flow: FlowId) -> impl Iterator<Item = (SimTime, &TransportEvent)> {
        self.log.iter().filter_map(move |r| match &r.event {
            LogEvent::Transport(event) if r.flow == flow => Some((r.at, event)),
            _ => None,
        })
    }

    /// A deterministic fingerprint of the run's observable behaviour
    /// (FNV-1a over the flow summary, queue counters and every delivery
    /// timestamp). Two runs of the same (config, trace, seed) must produce
    /// the same digest — this is the replay-determinism hook the regression
    /// corpus uses to verify that replays reproduce a stored finding exactly,
    /// not merely with a similar score.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        let run = [
            self.cross_delivered,
            self.cross_dropped,
            self.events_processed,
            self.truncated as u64,
        ];
        for v in self.flow().digest_fields().into_iter().chain(run) {
            mix(v);
        }
        for t in self.delivery_times() {
            mix(t.as_nanos());
        }
        // ECN extends the digest only when the run actually produced marks
        // or echoes: a drop-tail (or mark-free AQM) run digests exactly as
        // it did before the qdisc layer existed, which keeps every
        // pre-existing golden digest and corpus fixture byte-identical.
        let gateway = self.hop_counters.first().copied().unwrap_or_default();
        let ecn_active = gateway.total_marked() > 0
            || self.flows.iter().any(|fs| {
                let f = &fs.summary;
                f.ce_marked + f.ce_received + f.ece_echoed + f.ece_acked > 0
            });
        if ecn_active {
            mix(gateway.marked_cca);
            mix(gateway.marked_cross);
            for fs in &self.flows {
                let f = &fs.summary;
                for v in [f.ce_marked, f.ce_received, f.ece_echoed, f.ece_acked] {
                    mix(v);
                }
            }
        }
        // Multi-hop runs extend the digest with every hop's queue counters;
        // a single-hop run (its one gateway already mixed above through the
        // flow summaries it shaped) digests exactly as it did before the
        // topology engine existed, which keeps every golden digest and
        // corpus fixture byte-identical.
        if self.hop_counters.len() > 1 {
            for c in &self.hop_counters {
                for v in [
                    c.enqueued_cca,
                    c.enqueued_cross,
                    c.dropped_cca,
                    c.dropped_cross,
                    c.dequeued_cca,
                    c.dequeued_cross,
                    c.marked_cca,
                    c.marked_cross,
                ] {
                    mix(v);
                }
            }
        }
        // Secondary flows extend the digest; a single-flow run (whose
        // `flows[0]` is exactly what the accessors above expose)
        // digests exactly as it did before the multi-flow engine existed,
        // which keeps the committed corpus fixtures byte-identical.
        if self.flows.len() > 1 {
            for fs in &self.flows[1..] {
                let lifetime = [
                    fs.sink_received,
                    fs.start.as_nanos(),
                    fs.stop.map(|t| t.as_nanos()).unwrap_or(u64::MAX),
                ];
                for v in fs.summary.digest_fields().into_iter().chain(lifetime) {
                    mix(v);
                }
                for t in &fs.delivery_times {
                    mix(t.as_nanos());
                }
            }
        }
        // A workload run (dynamic arrivals configured) extends the digest
        // with its churn counters and FCT histograms. Classic runs carry
        // `workload: None` and digest exactly as they did before the flow
        // churn engine existed, which keeps every pre-existing golden
        // digest and corpus fixture byte-identical. The retention-cap
        // counter is mixed only when it fired (it never does in the
        // classic ≤32-flow modes).
        if self.delivery_samples_dropped > 0 {
            mix(self.delivery_samples_dropped);
        }
        if let Some(w) = &self.workload {
            for v in [
                w.spawned,
                w.completed(),
                w.capped,
                w.active_at_end(),
                w.completed_tx,
                w.completed_delivered,
                w.completed_dropped,
            ] {
                mix(v);
            }
            w.fct_mice.digest_into(&mut mix);
            w.fct_elephants.digest_into(&mut mix);
            for s in &w.samples {
                mix(s.size_packets);
                mix(s.fct.as_nanos());
            }
        }
        h
    }

    /// The workload statistics block, if this was a dynamic-arrival run.
    pub fn workload(&self) -> Option<&WorkloadStats> {
        self.workload.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at_ms: u64, flow: FlowId, event: BottleneckEvent) -> LogRecord {
        LogRecord {
            at: SimTime::from_millis(at_ms),
            flow,
            hop: 0,
            event: LogEvent::Queue { size: 1000, event },
        }
    }

    #[test]
    fn queuing_delay_extraction() {
        let stats = RunStats {
            log: vec![
                record(1, FlowId::Cca(0), BottleneckEvent::Enqueued),
                record(
                    3,
                    FlowId::Cca(0),
                    BottleneckEvent::Dequeued {
                        queuing_delay: SimDuration::from_millis(2),
                    },
                ),
                record(
                    4,
                    FlowId::CrossTraffic,
                    BottleneckEvent::Dequeued {
                        queuing_delay: SimDuration::from_millis(1),
                    },
                ),
            ],
            ..Default::default()
        };
        let cca = stats.queuing_delays(FlowId::Cca(0));
        assert_eq!(cca.len(), 1);
        assert_eq!(cca[0].1, SimDuration::from_millis(2));
        let cross = stats.queuing_delays(FlowId::CrossTraffic);
        assert_eq!(cross.len(), 1);
    }

    #[test]
    fn ingress_and_egress_accumulate() {
        let stats = RunStats {
            log: vec![
                record(1, FlowId::Cca(0), BottleneckEvent::Enqueued),
                record(2, FlowId::Cca(0), BottleneckEvent::Dropped),
                record(
                    3,
                    FlowId::Cca(0),
                    BottleneckEvent::Dequeued {
                        queuing_delay: SimDuration::ZERO,
                    },
                ),
            ],
            ..Default::default()
        };
        let ingress = stats.ingress_bytes(FlowId::Cca(0));
        assert_eq!(ingress.len(), 2, "drops count as offered load");
        assert_eq!(ingress.last().unwrap().1, 2000);
        let egress = stats.egress_bytes(FlowId::Cca(0));
        assert_eq!(egress.len(), 1);
        assert_eq!(egress.last().unwrap().1, 1000);
    }

    #[test]
    fn transport_records_are_filtered_by_flow() {
        let sender = |at_ms: u64, flow: u32, event: TransportEvent| LogRecord {
            at: SimTime::from_millis(at_ms),
            flow: FlowId::Cca(flow),
            hop: 0,
            event: LogEvent::Transport(event),
        };
        let sent = TransportEvent::Sent {
            seq: 0,
            retransmission: false,
            delivered_stamp: 0,
        };
        let stats = RunStats {
            log: vec![
                sender(0, 0, sent),
                record(0, FlowId::Cca(0), BottleneckEvent::Enqueued),
                sender(1, 0, TransportEvent::RtoFired { backoff: 0 }),
                sender(1, 1, TransportEvent::RtoFired { backoff: 0 }),
                sender(2, 0, TransportEvent::RtoFired { backoff: 1 }),
            ],
            ..Default::default()
        };
        let flow0: Vec<_> = stats.transport(FlowId::Cca(0)).collect();
        assert_eq!(flow0.len(), 3, "queue records and other flows are skipped");
        assert_eq!(flow0[0], (SimTime::ZERO, &sent));
        let rtos = |flow| {
            stats
                .transport(FlowId::Cca(flow))
                .filter(|(_, e)| matches!(e, TransportEvent::RtoFired { .. }))
                .count()
        };
        assert_eq!((rtos(0), rtos(1)), (2, 1));
    }

    fn single_flow_stats(delivery_times: Vec<SimTime>, summary: FlowSummary) -> RunStats {
        RunStats {
            flows: vec![FlowStats {
                summary,
                delivery_times,
                ..Default::default()
            }],
            ..Default::default()
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = single_flow_stats(
            vec![SimTime::from_millis(10), SimTime::from_millis(20)],
            FlowSummary {
                delivered_packets: 2,
                ..Default::default()
            },
        );
        let b = a.clone();
        assert_eq!(a.digest(), b.digest(), "identical runs share a digest");
        let mut c = a.clone();
        c.flows[0].summary.retransmissions = 1;
        assert_ne!(a.digest(), c.digest(), "counter changes alter the digest");
        let mut d = a.clone();
        d.flows[0].delivery_times[1] = SimTime::from_millis(21);
        assert_ne!(a.digest(), d.digest(), "timing changes alter the digest");
    }

    #[test]
    fn legacy_accessors_default_to_empty() {
        let empty = RunStats::default();
        assert_eq!(empty.flow().delivered_packets, 0);
        assert!(empty.delivery_times().is_empty());
        // Golden constant: FNV-1a over sixteen zero u64s (the zeroed
        // summary + counters the accessors fall back to). Pinning the value
        // catches any drift in the EMPTY_FLOW_SUMMARY fallback path.
        assert_eq!(empty.digest(), 0x8421_ae12_6c7c_ed25);
    }

    #[test]
    fn serde_roundtrip() {
        let stats = single_flow_stats(
            vec![SimTime::from_millis(10)],
            FlowSummary {
                delivered_packets: 1,
                ..Default::default()
            },
        );
        let json = serde_json::to_string(&stats).unwrap();
        let back: RunStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.flow().delivered_packets, 1);
        assert_eq!(back.delivery_times().len(), 1);
    }
}
