//! Enum dispatch for the congestion control algorithms.
//!
//! The fuzzer calls into the congestion controller on every ACK of every
//! simulated packet — millions of calls per campaign. [`CcaDispatch`] is one
//! enum over every algorithm in this crate, so each of those calls is a
//! `match` the compiler can flatten and inline rather than a virtual call.
//! It is the one controller type [`CcaKind::build`](crate::CcaKind::build)
//! returns and every campaign simulates (`Simulation<CcaDispatch>`).

use crate::{Bbr, Cubic, Dctcp, Reno, Vegas};
use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};

/// A congestion control algorithm, dispatched by enum variant. `Clone` lets
/// one instance serve as the prototype a workload simulation stamps
/// per-arrival controllers from.
// `Bbr` is the largest variant because its bandwidth filter is stored
// inline; boxing it would allocate once per controller per evaluation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum CcaDispatch {
    /// TCP Reno / NewReno.
    Reno(Reno),
    /// TCP CUBIC (either slow-start behaviour).
    Cubic(Cubic),
    /// TCP BBR v1 (with or without the ProbeRTT-on-RTO mitigation).
    Bbr(Bbr),
    /// TCP Vegas.
    Vegas(Vegas),
    /// DCTCP (fractional ECN responder).
    Dctcp(Dctcp),
}

macro_rules! dispatch {
    ($self:ident, $cc:ident => $body:expr) => {
        match $self {
            CcaDispatch::Reno($cc) => $body,
            CcaDispatch::Cubic($cc) => $body,
            CcaDispatch::Bbr($cc) => $body,
            CcaDispatch::Vegas($cc) => $body,
            CcaDispatch::Dctcp($cc) => $body,
        }
    };
}

impl CongestionControl for CcaDispatch {
    fn name(&self) -> &'static str {
        dispatch!(self, cc => cc.name())
    }
    fn init(&mut self, ctx: &CcContext) {
        dispatch!(self, cc => cc.init(ctx))
    }
    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        dispatch!(self, cc => cc.on_ack(ctx, rs))
    }
    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
        dispatch!(self, cc => cc.on_congestion(ctx, signal))
    }
    fn on_ecn(&mut self, ctx: &CcContext, ce_acked: u64) {
        dispatch!(self, cc => cc.on_ecn(ctx, ce_acked))
    }
    fn on_exit_recovery(&mut self, ctx: &CcContext) {
        dispatch!(self, cc => cc.on_exit_recovery(ctx))
    }
    fn cwnd(&self) -> u64 {
        dispatch!(self, cc => cc.cwnd())
    }
    fn ssthresh(&self) -> u64 {
        dispatch!(self, cc => cc.ssthresh())
    }
    fn pacing_rate_bps(&self) -> Option<f64> {
        dispatch!(self, cc => cc.pacing_rate_bps())
    }
    fn take_events(&mut self) -> Vec<String> {
        dispatch!(self, cc => cc.take_events())
    }
    fn set_event_recording(&mut self, enabled: bool) {
        dispatch!(self, cc => cc.set_event_recording(enabled))
    }
}
