//! Internal diagnostic: run a plain AIMD flow over the paper-default link and
//! print the transport summary. Used while developing the simulator.

use ccfuzz_netsim::cc::reference_cc::MiniAimdCc;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::sim::run_simulation;
use ccfuzz_netsim::stats::TransportEvent;

fn main() {
    let mut cfg = SimConfig::short_default();
    cfg.record_events = true;
    let mss = cfg.mss;
    let result = run_simulation(cfg, MiniAimdCc::new(10));
    let f = result.stats.flow();
    println!(
        "delivered={} tx={} retx={} lost={} rtos={} recoveries={} drops={}",
        f.delivered_packets,
        f.transmissions,
        f.retransmissions,
        f.marked_lost,
        f.rto_count,
        f.recovery_episodes,
        f.queue_drops
    );
    println!(
        "goodput = {:.2} Mbps",
        result.average_goodput_bps(mss) / 1e6
    );
    println!("events = {}", result.stats.events_processed);
    println!(
        "srtt = {} us, min_rtt = {} us",
        f.final_srtt_us, f.min_rtt_us
    );
    // Print the first 80 transport events to see early dynamics.
    for rec in result.stats.transport.iter().take(80) {
        match &rec.event {
            TransportEvent::Sent {
                seq,
                retransmission,
                ..
            } => {
                println!(
                    "{:>10.4}s SENT  seq={} retx={}",
                    rec.at.as_secs_f64(),
                    seq,
                    retransmission
                )
            }
            TransportEvent::CumAckAdvanced { cum_ack } => {
                println!("{:>10.4}s ACK   cum={}", rec.at.as_secs_f64(), cum_ack)
            }
            TransportEvent::Sacked { seq } => {
                println!("{:>10.4}s SACK  seq={}", rec.at.as_secs_f64(), seq)
            }
            TransportEvent::MarkedLost { seq } => {
                println!("{:>10.4}s LOST  seq={}", rec.at.as_secs_f64(), seq)
            }
            TransportEvent::RtoFired { backoff } => {
                println!("{:>10.4}s RTO   backoff={}", rec.at.as_secs_f64(), backoff)
            }
            TransportEvent::EnterRecovery => {
                println!("{:>10.4}s ENTER-RECOVERY", rec.at.as_secs_f64())
            }
            TransportEvent::ExitRecovery => {
                println!("{:>10.4}s EXIT-RECOVERY", rec.at.as_secs_f64())
            }
            TransportEvent::Cc { detail } => {
                println!("{:>10.4}s CC    {}", rec.at.as_secs_f64(), detail)
            }
        }
    }
}
