//! Root-cause reporting from the transport event log.
//!
//! Figure 4c of the paper is a hand-drawn timeline of how the BBR stall is
//! triggered: an RTO, spurious retransmissions of packets whose SACKs are in
//! flight, SACKs arriving right after, and premature probe-round ends. This
//! module extracts exactly that window of events from the primary flow's
//! sender records in the run log, and defines each §4 finding's signature
//! once, as a [`Verdict`] over a run, for the findings tests and the `paper`
//! table alike.

use ccfuzz_netsim::cc::CcEvent;
use ccfuzz_netsim::packet::FlowId;
use ccfuzz_netsim::stats::{RunStats, TransportEvent};
use ccfuzz_netsim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// A compact textual timeline of the events around each RTO in the run.
pub fn rto_timeline(stats: &RunStats, context_after: SimDuration, max_events: usize) -> String {
    let mut out = String::new();
    let rto_times: Vec<SimTime> = stats
        .transport(FlowId::Cca(0))
        .filter(|(_, e)| matches!(e, TransportEvent::RtoFired { .. }))
        .map(|(at, _)| at)
        .collect();
    if rto_times.is_empty() {
        let _ = writeln!(out, "(no RTO fired during this run)");
        return out;
    }
    for (i, &rto_at) in rto_times.iter().enumerate() {
        let _ = writeln!(out, "--- RTO #{} at {} ---", i + 1, rto_at);
        let window_end = rto_at + context_after;
        let mut shown = 0usize;
        for (at, event) in stats.transport(FlowId::Cca(0)) {
            if at < rto_at || at > window_end {
                continue;
            }
            if shown >= max_events {
                let _ = writeln!(out, "  ... (truncated)");
                break;
            }
            let _ = writeln!(out, "  {}", format_record(at, event));
            shown += 1;
        }
    }
    out
}

/// Counts the spurious retransmissions in the run: retransmissions of packets
/// that are later SACKed/ACKed without the retransmitted copy being needed.
/// We approximate this (as the paper's narrative does) by counting
/// retransmissions whose sequence is SACKed within `window` after the
/// retransmission was sent.
pub fn spurious_retransmissions(stats: &RunStats, window: SimDuration) -> usize {
    let log: Vec<_> = stats.transport(FlowId::Cca(0)).collect();
    let mut count = 0usize;
    for (i, &(at, event)) in log.iter().enumerate() {
        let &TransportEvent::Sent {
            seq,
            retransmission: true,
            ..
        } = event
        else {
            continue;
        };
        let deadline = at + window;
        let sacked_soon = log[i + 1..]
            .iter()
            .take_while(|(at, _)| *at <= deadline)
            .any(|(_, e)| matches!(e, TransportEvent::Sacked { seq: s } if *s == seq));
        if sacked_soon {
            count += 1;
        }
    }
    count
}

/// Counts BBR probe rounds that were started by a retransmitted sample (the
/// signature of the §4.1 interaction), based on the CC event log.
pub fn retransmission_triggered_rounds(stats: &RunStats) -> usize {
    stats
        .transport(FlowId::Cca(0))
        .filter(|(_, e)| {
            matches!(
                e,
                TransportEvent::Cc(CcEvent::RoundStart {
                    retransmitted: true,
                    ..
                })
            )
        })
        .count()
}

/// What a finding's predicate read from a run, and whether it held.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Whether the expected shape holds.
    pub holds: bool,
    /// The numbers the predicate read, with the bounds it compared them to.
    pub numbers: String,
}

/// The §4.1 signature: BBR's probe-round clocking broken after an RTO. At
/// least one RTO, at least 10 spurious retransmissions (SACKed within
/// 100 ms), and at least 10 probe rounds ended by retransmitted samples —
/// enough to expire every estimate in BBR's 10-round bandwidth max-filter.
pub fn bbr_spurious_stall(stats: &RunStats) -> Verdict {
    let rtos = stats.flow().rto_count;
    let spurious = spurious_retransmissions(stats, SimDuration::from_millis(100));
    let broken = retransmission_triggered_rounds(stats);
    Verdict {
        holds: rtos >= 1 && spurious >= 10 && broken >= 10,
        numbers: format!(
            "{rtos} RTOs (need >= 1), {spurious} spurious retransmissions (need >= 10), \
             {broken} probe rounds ended by retransmitted samples (need >= 10)"
        ),
    }
}

/// The §4.2 signature of the ns-3 CUBIC slow-start bug on one trace: the
/// buggy CUBIC (`buggy`) hits an RTO and then drops at least 200 more of its
/// own packets at the queue than the capped CUBIC (`fixed`) — the burst of
/// about one RTO's worth of data after the cumulative ACK jumps.
pub fn cubic_self_inflicted_losses(buggy: &RunStats, fixed: &RunStats) -> Verdict {
    let (rtos, drops) = (buggy.flow().rto_count, buggy.flow().queue_drops);
    let fixed_drops = fixed.flow().queue_drops;
    Verdict {
        holds: rtos >= 1 && drops >= fixed_drops + 200,
        numbers: format!(
            "buggy CUBIC: {rtos} RTOs (need >= 1), {drops} queue drops; \
             fixed CUBIC: {fixed_drops} queue drops (need buggy >= fixed + 200)"
        ),
    }
}

/// The §4.3 signature of the low-rate attack on Reno over `duration`: at
/// least two RTOs fired, retransmissions, and goodput (of `mss`-byte
/// packets) collapsed below 8 Mbps, well under the 12 Mbps link.
pub fn reno_repeated_rto(stats: &RunStats, mss: u32, duration: SimDuration) -> Verdict {
    let flow = stats.flow();
    let backoffs: Vec<u32> = stats
        .transport(FlowId::Cca(0))
        .filter_map(|(_, e)| match *e {
            TransportEvent::RtoFired { backoff } => Some(backoff),
            _ => None,
        })
        .collect();
    let goodput = flow.delivered_packets as f64 * mss as f64 * 8.0 / duration.as_secs_f64();
    Verdict {
        holds: flow.rto_count >= 2
            && backoffs.len() >= 2
            && flow.retransmissions > 0
            && goodput < 8e6,
        numbers: format!(
            "{} RTOs (need >= 2), max backoff exponent {}, {} retransmissions (need > 0), \
             goodput {:.2} Mbps (need < 8)",
            flow.rto_count,
            backoffs.iter().max().copied().unwrap_or(0),
            flow.retransmissions,
            goodput / 1e6
        ),
    }
}

/// One-line summary of a run: goodput, deliveries, losses and RTOs.
pub fn one_line_summary(stats: &RunStats, duration_secs: f64, mss: u32) -> String {
    let goodput =
        stats.flow().delivered_packets as f64 * mss as f64 * 8.0 / duration_secs.max(1e-9);
    format!(
        "delivered={} pkts ({:.2} Mbps), retx={}, lost={}, rtos={}, queue drops={}, cross delivered={}",
        stats.flow().delivered_packets,
        goodput / 1e6,
        stats.flow().retransmissions,
        stats.flow().marked_lost,
        stats.flow().rto_count,
        stats.flow().queue_drops,
        stats.cross_delivered
    )
}

fn format_record(at: SimTime, event: &TransportEvent) -> String {
    let t = format!("{:>10.4}s", at.as_secs_f64());
    match event {
        TransportEvent::Sent {
            seq,
            retransmission,
            delivered_stamp,
        } => {
            if *retransmission {
                format!("{t}  RETX   seq={seq} (stamped delivered={delivered_stamp})")
            } else {
                format!("{t}  SEND   seq={seq}")
            }
        }
        TransportEvent::CumAckAdvanced { cum_ack } => format!("{t}  ACK    cum={cum_ack}"),
        TransportEvent::Sacked { seq } => format!("{t}  SACK   seq={seq}"),
        TransportEvent::MarkedLost { seq } => format!("{t}  LOST   seq={seq}"),
        TransportEvent::RtoFired { backoff } => format!("{t}  RTO    backoff={backoff}"),
        TransportEvent::EnterRecovery => format!("{t}  ENTER-RECOVERY"),
        TransportEvent::ExitRecovery => format!("{t}  EXIT-RECOVERY"),
        TransportEvent::Cc(event) => format!("{t}  CC     {event}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::stats::{FlowSummary, LogEvent, LogRecord};

    fn rec(at_ms: u64, event: TransportEvent) -> LogRecord {
        LogRecord {
            at: SimTime::from_millis(at_ms),
            flow: FlowId::Cca(0),
            hop: 0,
            event: LogEvent::Transport(event),
        }
    }

    fn stats_with(log: Vec<LogRecord>) -> RunStats {
        RunStats {
            log,
            ..Default::default()
        }
    }

    #[test]
    fn timeline_mentions_rto_and_following_events() {
        let stats = stats_with(vec![
            rec(
                100,
                TransportEvent::Sent {
                    seq: 5,
                    retransmission: false,
                    delivered_stamp: 0,
                },
            ),
            rec(1_100, TransportEvent::RtoFired { backoff: 0 }),
            rec(
                1_101,
                TransportEvent::Sent {
                    seq: 5,
                    retransmission: true,
                    delivered_stamp: 40,
                },
            ),
            rec(1_110, TransportEvent::Sacked { seq: 5 }),
            rec(
                9_000,
                TransportEvent::Sent {
                    seq: 90,
                    retransmission: false,
                    delivered_stamp: 80,
                },
            ),
        ]);
        let tl = rto_timeline(&stats, SimDuration::from_secs(1), 100);
        assert!(tl.contains("RTO #1"));
        assert!(tl.contains("RETX   seq=5"));
        assert!(tl.contains("SACK   seq=5"));
        assert!(
            !tl.contains("seq=90"),
            "events outside the window are excluded"
        );
    }

    #[test]
    fn timeline_without_rto_says_so() {
        let stats = stats_with(vec![rec(
            1,
            TransportEvent::Sent {
                seq: 0,
                retransmission: false,
                delivered_stamp: 0,
            },
        )]);
        assert!(rto_timeline(&stats, SimDuration::from_secs(1), 10).contains("no RTO"));
    }

    #[test]
    fn spurious_retransmission_detection() {
        let stats = stats_with(vec![
            // Retransmission of 7 followed quickly by its SACK: spurious.
            rec(
                1_000,
                TransportEvent::Sent {
                    seq: 7,
                    retransmission: true,
                    delivered_stamp: 3,
                },
            ),
            rec(1_020, TransportEvent::Sacked { seq: 7 }),
            // Retransmission of 9 never SACKed soon after: not spurious.
            rec(
                1_030,
                TransportEvent::Sent {
                    seq: 9,
                    retransmission: true,
                    delivered_stamp: 3,
                },
            ),
            rec(5_000, TransportEvent::Sacked { seq: 9 }),
        ]);
        assert_eq!(
            spurious_retransmissions(&stats, SimDuration::from_millis(100)),
            1
        );
    }

    #[test]
    fn counts_retransmission_triggered_rounds_from_cc_log() {
        let round = |round, retransmitted| {
            TransportEvent::Cc(CcEvent::RoundStart {
                round,
                prior_delivered: 40 * round,
                retransmitted,
            })
        };
        let rto = SimTime::from_millis(3);
        let stats = stats_with(vec![
            rec(1, round(5, true)),
            rec(2, round(6, false)),
            rec(3, TransportEvent::Cc(CcEvent::Rto(rto))),
            rec(
                3,
                TransportEvent::Cc(CcEvent::EnterProbeRtt {
                    at: rto,
                    on_rto: true,
                }),
            ),
            rec(4, round(7, true)),
            rec(5, TransportEvent::Sacked { seq: 7 }),
        ]);
        assert_eq!(retransmission_triggered_rounds(&stats), 2);
    }

    #[test]
    fn one_line_summary_contains_key_counters() {
        let stats = RunStats {
            flows: vec![ccfuzz_netsim::stats::FlowStats {
                summary: FlowSummary {
                    delivered_packets: 1000,
                    retransmissions: 5,
                    rto_count: 2,
                    ..Default::default()
                },
                ..Default::default()
            }],
            ..Default::default()
        };
        let line = one_line_summary(&stats, 5.0, 1448);
        assert!(line.contains("delivered=1000"));
        assert!(line.contains("rtos=2"));
        assert!(line.contains("Mbps"));
    }
}
