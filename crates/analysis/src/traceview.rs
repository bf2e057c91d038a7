//! The trace view of a recorded run, and its rendering and export.
//!
//! [`events`] draws the view from a run's [`RunStats`]: the run log's cwnd
//! samples, RTOs, recovery transitions, drops and ECN marks, plus the
//! per-hop queue samples (`ccfuzz trace` replays a corpus finding with
//! recording on to get one). Over that view this module renders:
//!
//! * a per-flow **timeline table**: the trace span split into fixed time
//!   buckets, each row showing the congestion window at the end of the
//!   bucket plus the drops / ECN marks / RTOs / recovery entries inside it;
//! * a per-hop **queue table**: occupancy statistics and loss/mark counts
//!   for every bottleneck hop;
//! * lossless **JSONL / CSV exports** of the view's event stream.
//!
//! Everything is deterministic text over a deterministic run, so outputs
//! are stable across runs and platforms.

use crate::table::text_table;
use ccfuzz_netsim::packet::FlowId;
use ccfuzz_netsim::stats::{BottleneckEvent, LogEvent, RunStats, TransportEvent};
use ccfuzz_netsim::time::SimTime;
use ccfuzz_netsim::workload::{dyn_generation, dyn_slot, is_dynamic};
use std::collections::BTreeSet;

/// One event of the trace view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A static flow started sending (its first cwnd sample).
    FlowStart {
        /// Flow handle.
        flow: u32,
    },
    /// The flow's congestion window changed.
    CwndUpdate {
        /// Flow handle.
        flow: u32,
        /// New congestion window, in packets.
        cwnd: u64,
        /// Packets currently in flight.
        in_flight: u64,
    },
    /// The flow entered loss recovery.
    RecoveryEnter {
        /// Flow handle.
        flow: u32,
    },
    /// The flow left loss recovery (its cumulative ACK passed the recovery
    /// point, or an RTO ended the episode).
    RecoveryExit {
        /// Flow handle.
        flow: u32,
    },
    /// The flow's retransmission timer fired.
    RtoFired {
        /// Flow handle.
        flow: u32,
    },
    /// A packet was dropped at a gateway queue.
    Drop {
        /// Owning flow of the dropped packet.
        flow: FlowId,
        /// Hop index where the drop happened.
        hop: u32,
    },
    /// A packet was CE-marked by the hop's queue discipline.
    EcnMark {
        /// Owning flow of the marked packet.
        flow: FlowId,
        /// Hop index where the mark happened.
        hop: u32,
    },
    /// Periodic queue-depth sample for one hop.
    QueueSample {
        /// Hop index.
        hop: u32,
        /// Queue occupancy in packets.
        packets: u32,
        /// Queue occupancy in bytes.
        bytes: u64,
    },
}

impl TraceEvent {
    /// Stable lower-case kind name (used by exports and table rendering).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlowStart { .. } => "flow-start",
            TraceEvent::CwndUpdate { .. } => "cwnd",
            TraceEvent::RecoveryEnter { .. } => "recovery-enter",
            TraceEvent::RecoveryExit { .. } => "recovery-exit",
            TraceEvent::RtoFired { .. } => "rto",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::EcnMark { .. } => "ecn-mark",
            TraceEvent::QueueSample { .. } => "queue",
        }
    }

    /// The CCA flow the event belongs to (`None` for cross traffic and
    /// queue samples).
    fn cca_flow(&self) -> Option<u32> {
        match *self {
            TraceEvent::FlowStart { flow }
            | TraceEvent::CwndUpdate { flow, .. }
            | TraceEvent::RecoveryEnter { flow }
            | TraceEvent::RecoveryExit { flow }
            | TraceEvent::RtoFired { flow }
            | TraceEvent::Drop {
                flow: FlowId::Cca(flow),
                ..
            }
            | TraceEvent::EcnMark {
                flow: FlowId::Cca(flow),
                ..
            } => Some(flow),
            _ => None,
        }
    }
}

/// A timestamped event of the trace view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// The trace view of a recorded run, in time order: the run log's records
/// of the traced kinds (each static flow's first cwnd sample doubles as its
/// start, and an RTO ends a flow's recovery episode) and every hop's queue
/// samples. A run without `SimConfig::record_events` yields only the queue
/// samples.
pub fn events(stats: &RunStats) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let (mut started, mut recovering) = (BTreeSet::new(), BTreeSet::new());
    for r in &stats.log {
        let mut push = |event| out.push(TraceRecord { at: r.at, event });
        let (flow, hop) = (r.flow, r.hop);
        match (&r.event, flow) {
            (LogEvent::Queue { event, .. }, _) => match event {
                BottleneckEvent::Dropped => push(TraceEvent::Drop { flow, hop }),
                BottleneckEvent::Marked => push(TraceEvent::EcnMark { flow, hop }),
                _ => {}
            },
            (&LogEvent::Cwnd { cwnd, in_flight }, FlowId::Cca(flow)) => {
                if started.insert(flow) {
                    push(TraceEvent::FlowStart { flow });
                }
                push(TraceEvent::CwndUpdate {
                    flow,
                    cwnd,
                    in_flight,
                });
            }
            (LogEvent::Transport(event), FlowId::Cca(flow)) => match event {
                TransportEvent::EnterRecovery => {
                    recovering.insert(flow);
                    push(TraceEvent::RecoveryEnter { flow });
                }
                TransportEvent::ExitRecovery => {
                    recovering.remove(&flow);
                    push(TraceEvent::RecoveryExit { flow });
                }
                TransportEvent::RtoFired { .. } => {
                    push(TraceEvent::RtoFired { flow });
                    if recovering.remove(&flow) {
                        push(TraceEvent::RecoveryExit { flow });
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    let per_hop = if stats.hop_samples.is_empty() {
        std::slice::from_ref(&stats.queue_samples)
    } else {
        &stats.hop_samples[..]
    };
    for (hop, samples) in per_hop.iter().enumerate() {
        out.extend(samples.iter().map(|&(at, packets, bytes)| TraceRecord {
            at,
            event: TraceEvent::QueueSample {
                hop: hop as u32,
                packets: packets as u32,
                bytes,
            },
        }));
    }
    // A stable sort merges the time-ordered log with the samples.
    out.sort_by_key(|r| r.at);
    out
}

/// Default number of time buckets in a timeline table.
pub const DEFAULT_TIMELINE_BUCKETS: usize = 20;

fn flow_label(flow: FlowId) -> String {
    match flow {
        FlowId::Cca(i) => i.to_string(),
        FlowId::CrossTraffic => "cross".to_string(),
    }
}

/// The CCA flows that appear in the trace, each once: static flow indices
/// in ascending order, then the dynamic (workload-mode) flows by handle. A
/// dynamic handle is a tagged slab reference, not an index — see
/// [`flow_name`].
pub fn flows(events: &[TraceRecord]) -> Vec<u32> {
    // Dynamic handles carry the top bit, so they sort after every index.
    let seen: BTreeSet<u32> = events.iter().filter_map(|r| r.event.cca_flow()).collect();
    seen.into_iter().collect()
}

/// How a flow is called in rendered output: a static flow by its index, a
/// dynamic one as `dyn slot/generation` of the slab entry it occupied.
pub fn flow_name(flow: u32) -> String {
    if is_dynamic(flow) {
        format!("dyn {}/{}", dyn_slot(flow), dyn_generation(flow))
    } else {
        flow.to_string()
    }
}

/// Number of hops observed in the trace (max hop index + 1).
pub fn hop_count(events: &[TraceRecord]) -> usize {
    let mut max: Option<u32> = None;
    for r in events {
        match r.event {
            TraceEvent::Drop { hop, .. }
            | TraceEvent::EcnMark { hop, .. }
            | TraceEvent::QueueSample { hop, .. } => {
                max = Some(max.map_or(hop, |m: u32| m.max(hop)));
            }
            _ => {}
        }
    }
    max.map_or(0, |m| m as usize + 1)
}

/// One aggregated timeline bucket of [`flow_timeline`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimelineBucket {
    /// Bucket start, seconds.
    pub start_secs: f64,
    /// Congestion window at the end of the bucket (carried forward through
    /// buckets without updates), packets.
    pub cwnd: u64,
    /// Packets in flight at the last update inside (or before) the bucket.
    pub in_flight: u64,
    /// Packets of this flow dropped inside the bucket.
    pub drops: u64,
    /// Packets of this flow CE-marked inside the bucket.
    pub ecn_marks: u64,
    /// RTO firings inside the bucket.
    pub rtos: u64,
    /// Loss-recovery entries inside the bucket.
    pub recoveries: u64,
}

/// Aggregates one flow's events into `buckets` equal time slices spanning
/// the whole trace. Returns an empty vector for an empty trace.
pub fn flow_timeline(events: &[TraceRecord], flow: u32, buckets: usize) -> Vec<TimelineBucket> {
    if events.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let end = events.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0);
    let width = if end > 0.0 { end / buckets as f64 } else { 1.0 };
    let mut out = vec![TimelineBucket::default(); buckets];
    for (i, bucket) in out.iter_mut().enumerate() {
        bucket.start_secs = i as f64 * width;
    }
    let index = |secs: f64| ((secs / width) as usize).min(buckets - 1);
    let mut cwnd = 0u64;
    let mut in_flight = 0u64;
    let mut last_filled = 0usize;
    for r in events.iter().filter(|r| r.event.cca_flow() == Some(flow)) {
        let i = index(r.at.as_secs_f64());
        // Carry the last-known window forward through bucket boundaries.
        for b in out.iter_mut().take(i + 1).skip(last_filled) {
            b.cwnd = cwnd;
            b.in_flight = in_flight;
        }
        last_filled = i;
        let bucket = &mut out[i];
        match r.event {
            TraceEvent::CwndUpdate {
                cwnd: c,
                in_flight: f,
                ..
            } => {
                cwnd = c;
                in_flight = f;
                bucket.cwnd = c;
                bucket.in_flight = f;
            }
            TraceEvent::Drop { .. } => bucket.drops += 1,
            TraceEvent::EcnMark { .. } => bucket.ecn_marks += 1,
            TraceEvent::RtoFired { .. } => bucket.rtos += 1,
            TraceEvent::RecoveryEnter { .. } => bucket.recoveries += 1,
            _ => {}
        }
    }
    for b in out.iter_mut().skip(last_filled + 1) {
        b.cwnd = cwnd;
        b.in_flight = in_flight;
    }
    out
}

/// Renders one flow's timeline as a text table.
pub fn flow_timeline_table(events: &[TraceRecord], flow: u32, buckets: usize) -> String {
    let timeline = flow_timeline(events, flow, buckets);
    let rows: Vec<Vec<String>> = timeline
        .iter()
        .map(|b| {
            vec![
                format!("{:.3}", b.start_secs),
                b.cwnd.to_string(),
                b.in_flight.to_string(),
                b.drops.to_string(),
                b.ecn_marks.to_string(),
                b.rtos.to_string(),
                b.recoveries.to_string(),
            ]
        })
        .collect();
    text_table(
        &[
            "t(s)",
            "cwnd",
            "in_flight",
            "drops",
            "ecn",
            "rto",
            "recovery",
        ],
        &rows,
    )
}

/// Per-hop aggregate of queue samples, drops and marks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HopSummary {
    /// Hop index.
    pub hop: u32,
    /// Queue-depth samples observed.
    pub samples: u64,
    /// Mean sampled queue occupancy, packets.
    pub mean_packets: f64,
    /// Peak sampled queue occupancy, packets.
    pub max_packets: u32,
    /// Peak sampled queue occupancy, bytes.
    pub max_bytes: u64,
    /// Packets dropped at this hop (all flows).
    pub drops: u64,
    /// Packets CE-marked at this hop (all flows).
    pub ecn_marks: u64,
}

/// Aggregates the trace's per-hop queue samples and loss/mark events.
pub fn hop_summaries(events: &[TraceRecord]) -> Vec<HopSummary> {
    let hops = hop_count(events);
    let mut out: Vec<HopSummary> = (0..hops)
        .map(|h| HopSummary {
            hop: h as u32,
            ..Default::default()
        })
        .collect();
    let mut packet_sums = vec![0u64; hops];
    for r in events {
        match r.event {
            TraceEvent::QueueSample {
                hop,
                packets,
                bytes,
            } => {
                let s = &mut out[hop as usize];
                s.samples += 1;
                packet_sums[hop as usize] += packets as u64;
                s.max_packets = s.max_packets.max(packets);
                s.max_bytes = s.max_bytes.max(bytes);
            }
            TraceEvent::Drop { hop, .. } => out[hop as usize].drops += 1,
            TraceEvent::EcnMark { hop, .. } => out[hop as usize].ecn_marks += 1,
            _ => {}
        }
    }
    for (s, sum) in out.iter_mut().zip(packet_sums) {
        if s.samples > 0 {
            s.mean_packets = sum as f64 / s.samples as f64;
        }
    }
    out
}

/// Renders the per-hop queue table.
pub fn hop_queue_table(events: &[TraceRecord]) -> String {
    let rows: Vec<Vec<String>> = hop_summaries(events)
        .iter()
        .map(|s| {
            vec![
                s.hop.to_string(),
                s.samples.to_string(),
                format!("{:.1}", s.mean_packets),
                s.max_packets.to_string(),
                s.max_bytes.to_string(),
                s.drops.to_string(),
                s.ecn_marks.to_string(),
            ]
        })
        .collect();
    text_table(
        &[
            "hop",
            "samples",
            "mean_q(pkts)",
            "max_q(pkts)",
            "max_q(bytes)",
            "drops",
            "ecn",
        ],
        &rows,
    )
}

/// One event as ordered `(key, value)` pairs, shared by the JSONL and CSV
/// exporters so both formats agree on field names.
fn event_fields(event: &TraceEvent) -> Vec<(&'static str, String)> {
    match *event {
        TraceEvent::FlowStart { flow } => vec![("flow", flow.to_string())],
        TraceEvent::CwndUpdate {
            flow,
            cwnd,
            in_flight,
        } => vec![
            ("flow", flow.to_string()),
            ("cwnd", cwnd.to_string()),
            ("in_flight", in_flight.to_string()),
        ],
        TraceEvent::RecoveryEnter { flow }
        | TraceEvent::RecoveryExit { flow }
        | TraceEvent::RtoFired { flow } => vec![("flow", flow.to_string())],
        TraceEvent::Drop { flow, hop } | TraceEvent::EcnMark { flow, hop } => {
            vec![("flow", flow_label(flow)), ("hop", hop.to_string())]
        }
        TraceEvent::QueueSample {
            hop,
            packets,
            bytes,
        } => vec![
            ("hop", hop.to_string()),
            ("packets", packets.to_string()),
            ("bytes", bytes.to_string()),
        ],
    }
}

/// Exports the view's event stream as JSONL: one object per event with `at`
/// (seconds), `kind` and the event's own fields. All values are numbers
/// except `kind` and the cross-traffic `flow` label.
pub fn trace_to_jsonl(events: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in events {
        out.push_str(&format!(
            "{{\"at\":{:.9},\"kind\":\"{}\"",
            r.at.as_secs_f64(),
            r.event.kind()
        ));
        for (key, value) in event_fields(&r.event) {
            if value.parse::<u64>().is_ok() {
                out.push_str(&format!(",\"{key}\":{value}"));
            } else {
                out.push_str(&format!(",\"{key}\":\"{value}\""));
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Exports the view's event stream as CSV with a fixed column set
/// (`at,kind,flow,hop,cwnd,in_flight,packets,bytes`); fields an event does
/// not carry are left empty.
pub fn trace_to_csv(events: &[TraceRecord]) -> String {
    const COLUMNS: [&str; 8] = [
        "at",
        "kind",
        "flow",
        "hop",
        "cwnd",
        "in_flight",
        "packets",
        "bytes",
    ];
    let mut out = String::new();
    out.push_str(&COLUMNS.join(","));
    out.push('\n');
    for r in events {
        let fields = event_fields(&r.event);
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        out.push_str(&format!(
            "{:.9},{},{},{},{},{},{},{}\n",
            r.at.as_secs_f64(),
            r.event.kind(),
            get("flow"),
            get("hop"),
            get("cwnd"),
            get("in_flight"),
            get("packets"),
            get("bytes"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::stats::LogRecord;
    use ccfuzz_netsim::workload::dyn_handle;

    fn rec(at_ms: u64, flow: FlowId, hop: u32, event: LogEvent) -> LogRecord {
        LogRecord {
            at: SimTime::from_millis(at_ms),
            flow,
            hop,
            event,
        }
    }

    fn cwnd(at_ms: u64, flow: u32, cwnd: u64, in_flight: u64) -> LogRecord {
        rec(
            at_ms,
            FlowId::Cca(flow),
            0,
            LogEvent::Cwnd { cwnd, in_flight },
        )
    }

    fn queue(at_ms: u64, flow: FlowId, hop: u32, event: BottleneckEvent) -> LogRecord {
        rec(at_ms, flow, hop, LogEvent::Queue { size: 1500, event })
    }

    fn sender(at_ms: u64, flow: u32, event: TransportEvent) -> LogRecord {
        rec(at_ms, FlowId::Cca(flow), 0, LogEvent::Transport(event))
    }

    fn sample_stats() -> RunStats {
        RunStats {
            log: vec![
                cwnd(10, 0, 10, 5),
                cwnd(450, 0, 20, 18),
                queue(500, FlowId::Cca(0), 0, BottleneckEvent::Dropped),
                sender(510, 0, TransportEvent::EnterRecovery),
                cwnd(510, 0, 10, 18),
                queue(800, FlowId::CrossTraffic, 1, BottleneckEvent::Marked),
                cwnd(1000, 1, 4, 2),
            ],
            hop_samples: vec![
                vec![(SimTime::from_millis(100), 4, 6_000)],
                vec![(SimTime::from_millis(600), 9, 13_500)],
            ],
            ..Default::default()
        }
    }

    #[test]
    fn view_merges_log_and_queue_samples_in_time_order() {
        let view = events(&sample_stats());
        let kinds: Vec<&str> = view.iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "flow-start",
                "cwnd",
                "queue",
                "cwnd",
                "drop",
                "recovery-enter",
                "cwnd",
                "queue",
                "ecn-mark",
                "flow-start",
                "cwnd",
            ]
        );
        // A single-hop run's samples are its one hop's.
        let single = RunStats {
            queue_samples: vec![(SimTime::ZERO, 3, 4_500)],
            ..Default::default()
        };
        assert_eq!(
            events(&single)[0].event,
            TraceEvent::QueueSample {
                hop: 0,
                packets: 3,
                bytes: 4_500
            }
        );
    }

    #[test]
    fn an_rto_ends_the_recovery_episode() {
        let stats = RunStats {
            log: vec![
                sender(10, 0, TransportEvent::EnterRecovery),
                sender(20, 0, TransportEvent::RtoFired { backoff: 0 }),
                sender(30, 0, TransportEvent::RtoFired { backoff: 1 }),
            ],
            ..Default::default()
        };
        let kinds: Vec<(u64, &str)> = events(&stats)
            .iter()
            .map(|r| (r.at.as_nanos() / 1_000_000, r.event.kind()))
            .collect();
        assert_eq!(
            kinds,
            [
                (10, "recovery-enter"),
                (20, "rto"),
                (20, "recovery-exit"),
                (30, "rto")
            ]
        );
    }

    #[test]
    fn counts_flows_and_hops() {
        let view = events(&sample_stats());
        assert_eq!(flows(&view), [0, 1]);
        assert_eq!(hop_count(&view), 2);
        assert!(flows(&events(&RunStats::default())).is_empty());
    }

    #[test]
    fn dynamic_handles_are_flows_not_a_flow_count() {
        // Workload mode tags a flow as slab slot + generation; read as an
        // index, this handle alone would claim over two billion flows.
        let handle = dyn_handle(13, 2);
        let stats = RunStats {
            log: vec![
                cwnd(0, 1, 10, 0),
                sender(10, handle, TransportEvent::RtoFired { backoff: 0 }),
                queue(20, FlowId::Cca(handle), 0, BottleneckEvent::Dropped),
            ],
            ..Default::default()
        };
        let view = events(&stats);
        assert_eq!(flows(&view), [1, handle]);
        assert_eq!(flow_name(1), "1");
        assert_eq!(flow_name(handle), "dyn 13/2");
        let timeline = flow_timeline(&view, handle, 2);
        assert_eq!((timeline[1].rtos, timeline[1].drops), (1, 1));
    }

    #[test]
    fn timeline_buckets_aggregate_and_carry_cwnd_forward() {
        let view = events(&sample_stats());
        let timeline = flow_timeline(&view, 0, 4);
        assert_eq!(timeline.len(), 4);
        // Bucket 0 ends with the first cwnd update.
        assert_eq!(timeline[0].cwnd, 10);
        // Bucket 1 ([250,500) ms) ends on the ramp to 20.
        assert_eq!(timeline[1].cwnd, 20);
        // Bucket 2 ([500,750) ms) holds the drop and the recovery cut.
        assert_eq!(timeline[2].cwnd, 10);
        assert_eq!(timeline[2].drops, 1);
        assert_eq!(timeline[2].recoveries, 1);
        // Later buckets carry the last window forward.
        assert_eq!(timeline[3].cwnd, 10);
        let table = flow_timeline_table(&view, 0, 4);
        assert!(table.contains("cwnd"));
        assert_eq!(table.lines().count(), 2 + 4); // header + rule + rows
    }

    #[test]
    fn hop_table_aggregates_samples_drops_and_marks() {
        let view = events(&sample_stats());
        let hops = hop_summaries(&view);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].samples, 1);
        assert_eq!(hops[0].max_packets, 4);
        assert_eq!(hops[0].drops, 1);
        assert_eq!(hops[1].ecn_marks, 1);
        assert_eq!(hops[1].max_bytes, 13_500);
        let table = hop_queue_table(&view);
        assert!(table.contains("mean_q(pkts)"));
    }

    #[test]
    fn exports_are_lossless_over_the_event_count() {
        let view = events(&sample_stats());
        let jsonl = trace_to_jsonl(&view);
        assert_eq!(jsonl.lines().count(), view.len());
        assert!(jsonl.contains("\"kind\":\"drop\""));
        assert!(jsonl.contains("\"flow\":\"cross\""));
        let csv = trace_to_csv(&view);
        assert_eq!(csv.lines().count(), view.len() + 1);
        assert!(csv.starts_with("at,kind,flow,hop,cwnd,in_flight,packets,bytes"));
    }

    #[test]
    fn empty_trace_renders_empty_tables() {
        let view = events(&RunStats::default());
        assert!(view.is_empty());
        assert_eq!(flow_timeline_table(&view, 0, 8), "");
        assert_eq!(hop_queue_table(&view), "");
        assert_eq!(trace_to_jsonl(&view), "");
    }
}
