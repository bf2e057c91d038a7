//! Internal diagnostic: run a plain AIMD flow over the paper-default link and
//! print the transport summary. Used while developing the simulator.

use ccfuzz_netsim::cc::reference_cc::MiniAimdCc;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::packet::FlowId;
use ccfuzz_netsim::sim::run_simulation;

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
    for (at, event) in result.stats.transport(FlowId::Cca(0)).take(80) {
        println!("{:>10.4}s {event:?}", at.as_secs_f64());
    }
}
