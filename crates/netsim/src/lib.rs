//! # ccfuzz-netsim
//!
//! A packet-level discrete-event network simulator purpose-built for stress
//! testing congestion control algorithms (CCAs). It is the substrate that the
//! CC-Fuzz genetic fuzzer ([`ccfuzz-core`]) drives, replacing the NS3 setup
//! used by the original paper.
//!
//! The simulated topology is the dumbbell from §3.1 of the paper,
//! optionally generalized to a chain of N bottleneck hops with per-flow
//! parking-lot paths (see [`topology`]):
//!
//! ```text
//!   CCA sender ----\                            /---- sink (receiver)
//!                   +--> gateway FIFO --> link +
//!   cross traffic --/    (drop tail)  (bottleneck,
//!                                      fixed rate or trace driven,
//!                                      fixed propagation delay)
//!
//!   multi-hop:  [q0]--link0--> [q1]--link1--> ... [qN-1]--linkN-1--> sink
//!               (each hop: own link model, delay, capacity and qdisc;
//!                each flow: own entry/exit hop)
//! ```
//!
//! * The CCA sender runs a TCP-like transport ([`tcp`]) with SACK, delayed
//!   ACKs, RTO with a configurable minimum (1 s in the paper), fast
//!   retransmit / recovery and Linux-style delivery-rate sampling — the
//!   machinery the paper's BBR and CUBIC findings depend on.
//! * The cross-traffic source injects unresponsive packets according to a
//!   [`trace::TrafficTrace`].
//! * The bottleneck link is either a fixed-rate serializer or a
//!   trace-driven service curve ([`trace::LinkTrace`], MahiMahi-style).
//!
//! Everything is deterministic: simulations are pure functions of
//! (configuration, traces, seed), which is what allows the genetic algorithm
//! to converge (§3.6 of the paper).
//!
//! ## Quick example
//!
//! ```
//! use ccfuzz_netsim::config::SimConfig;
//! use ccfuzz_netsim::sim::{FlowSpec, Simulation};
//! use ccfuzz_netsim::cc::reference_cc::FixedWindowCc;
//!
//! let cfg = SimConfig::paper_default();
//! let mut sim = Simulation::new(cfg, FixedWindowCc::new(10));
//! sim.run();
//! assert!(sim.result().stats.flow().delivered_packets > 0);
//!
//! // The same value is the arena for the next run: `load` resets it in
//! // place, the last result included, keeping every buffer the first run
//! // grew. The last argument holds the controllers a workload's arrivals
//! // clone (none here). A caller that keeps a result moves it out.
//! let mut flows = vec![FlowSpec::new(FixedWindowCc::new(20))];
//! sim.load(SimConfig::short_default(), &mut flows, &mut Vec::new());
//! sim.run();
//! let result = sim.into_result();
//! assert!(result.stats.flow().delivered_packets > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod config;
pub mod event;
pub mod link;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod workload;

pub use config::SimConfig;
pub use sim::{SimResult, Simulation};
pub use time::{SimDuration, SimTime};
