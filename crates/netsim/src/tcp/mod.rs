//! A TCP-like reliable transport for the CCA flow.
//!
//! This is not a byte-stream TCP: sequence numbers are in packets (fixed
//! MSS), there is no handshake, and the application is an infinite bulk
//! source. What *is* modelled faithfully — because the paper's findings
//! depend on it — is the loss-recovery and measurement machinery:
//!
//! * SACK scoreboard and SACK-based loss detection (3-dup threshold), the
//!   only loss detection short of an RTO;
//! * fast retransmit / fast recovery with a recovery-exit point;
//! * RTO per RFC 6298 with its 1 s minimum (the paper's setting) and
//!   exponential backoff, including the *spurious retransmissions* of
//!   packets whose ACKs are still in flight after a timeout;
//! * delayed ACKs at the receiver (count- and timer-based);
//! * Linux-style delivery-rate sampling (`tcp_rate.c`): every transmission
//!   stamps the packet with the current `delivered` count and timestamps,
//!   and every ACK produces a [`RateSample`](crate::cc::RateSample) from the
//!   stamps of the most recently transmitted packet it acknowledges. This is
//!   exactly the state the BBR stall in §4.1 of the paper is built on.

pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod skb;

pub use receiver::{ReceiverOutput, TcpReceiver};
pub use rtt::RttEstimator;
pub use sender::{SendPoll, SenderConfig, TcpSender};
pub use skb::Skb;

#[cfg(test)]
thread_local! {
    /// Scoreboard work done on this thread: SKBs touched and scoreboard
    /// ranges compared by the ACK path and the data path. Not a shipped
    /// metric — the endpoints' unit tests read it to pin that per-ACK and
    /// per-packet work does not grow with the window or the hole count.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one step of scoreboard work; compiles to nothing outside
/// `cfg(test)`.
#[inline(always)]
fn count_visit() {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + 1));
}

/// Reads and resets this thread's scoreboard work counter.
#[cfg(test)]
fn take_visits() -> u64 {
    VISITS.with(|v| v.replace(0))
}
