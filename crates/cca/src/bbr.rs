//! TCP BBR v1.
//!
//! A faithful (packet-granular) re-implementation of BBR v1 as described in
//! the BBR paper/IETF draft and the Linux `tcp_bbr.c` module:
//!
//! * **Bandwidth estimation** — delivery-rate samples feed a windowed max
//!   filter over the last 10 *packet-timed rounds*.
//! * **Round counting** — a round ends when an acknowledged packet's
//!   `prior_delivered` (the connection-level `delivered` count stamped on the
//!   packet at its most recent transmission) reaches the `delivered` count
//!   recorded when the round began. This is precisely the mechanism the
//!   paper's §4.1 finding attacks: a *spurious retransmission* refreshes the
//!   stamp, the SACK for the original copy then ends the round prematurely
//!   and contributes a bogus (usually very low) rate sample. Ten such rounds
//!   in quick succession expire every good estimate from the max filter and
//!   BBR's bandwidth estimate collapses; delayed ACKs then keep it there.
//! * **Gain cycling** in ProbeBW (8 phases: 1.25, 0.75, 1 ×6).
//! * **Min-RTT tracking** over a 10 s window, with ProbeRTT (cwnd = 4 for
//!   200 ms) when the estimate goes stale.
//! * **Startup / Drain** with the 2/ln2 gain and the "full pipe" exit.
//!
//! Loss response follows BBR v1's philosophy of (mostly) ignoring loss:
//! fast-retransmit episodes trigger one round of packet conservation, and an
//! RTO leaves the window/pacing at BBR's model-driven values (as the NS3
//! implementation the paper tested effectively does). The paper's proposed
//! mitigation — *enter ProbeRTT when an RTO fires*, so the flow slows down
//! long enough for in-flight ACKs to arrive instead of triggering spurious
//! retransmissions — is selected by [`Bbr::new`]'s `probe_rtt_on_rto`.

use ccfuzz_netsim::cc::{
    CcContext, CcEvent, CcEvents, CongestionControl, CongestionSignal, RateSample,
};
use ccfuzz_netsim::time::{ceil_to_u64, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Startup/Drain pacing gain: 2/ln(2).
pub const HIGH_GAIN: f64 = 2.885;
/// ProbeBW gain cycle.
pub const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bandwidth filter window, in packet-timed rounds.
pub const BW_WINDOW_ROUNDS: u64 = 10;
/// Minimum congestion window, packets.
pub const MIN_CWND: u64 = 4;
/// Maximum congestion window, packets (safety bound).
pub const MAX_CWND: u64 = 20_000;
/// cwnd gain applied to the BDP in ProbeBW.
pub const CWND_GAIN: f64 = 2.0;
/// Min-RTT filter window.
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Duration of a ProbeRTT episode.
pub const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

/// BBR state machine phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BbrState {
    /// Exponential search for the bottleneck bandwidth.
    Startup,
    /// Drain the queue built during startup.
    Drain,
    /// Steady-state bandwidth probing.
    ProbeBw,
    /// Periodic (or RTO-triggered, with the paper's fix) min-RTT probe.
    ProbeRtt,
}

/// One bandwidth sample retained by the windowed max filter.
#[derive(Clone, Copy, Debug, Default)]
struct BwSample {
    round: u64,
    bw_bps: f64,
}

/// Capacity of [`BwMaxFilter`]: one entry per round of the window.
const BW_FILTER_LEN: usize = BW_WINDOW_ROUNDS as usize;

/// Windowed max filter over the last [`BW_WINDOW_ROUNDS`] packet-timed
/// rounds, as a monotonic deque in a fixed ring: rounds strictly increase
/// and bandwidths strictly decrease from front to back, so the windowed max
/// is the front-most unexpired entry and every operation is O(1) amortized.
///
/// It answers exactly what a scan over every sample would: a sample dropped
/// from the back (older or same round, bandwidth ≤ the new sample's) can
/// never be the windowed max while the newer sample is in the window, and
/// samples dropped from the front have expired for good (`round_count` is
/// monotone). A same-round sample no larger than that round's entry is not
/// stored, so each round of the window holds at most one entry: the ring
/// never allocates.
#[derive(Clone, Debug, Default)]
struct BwMaxFilter {
    ring: [BwSample; BW_FILTER_LEN],
    /// Ring index of the front entry.
    head: usize,
    len: usize,
}

impl BwMaxFilter {
    /// The `i`-th entry from the front.
    #[inline]
    fn at(&self, i: usize) -> &BwSample {
        &self.ring[(self.head + i) % BW_FILTER_LEN]
    }

    /// The windowed max among samples with `round + BW_WINDOW_ROUNDS >
    /// round_count`, or 0 when none exists.
    #[inline]
    fn max(&self, round_count: u64) -> f64 {
        // The in-window entries form a suffix, and the first of them holds
        // the largest bandwidth.
        (0..self.len)
            .map(|i| self.at(i))
            .find(|s| s.round + BW_WINDOW_ROUNDS > round_count)
            .map_or(0.0, |s| s.bw_bps)
    }

    /// Inserts a sample taken during `round_count` and prunes entries that
    /// have left the filter window for good.
    #[inline]
    fn push(&mut self, round_count: u64, bw_bps: f64) {
        while self.len > 0 && self.at(0).round + BW_WINDOW_ROUNDS <= round_count {
            self.head = (self.head + 1) % BW_FILTER_LEN;
            self.len -= 1;
        }
        while self.len > 0 && self.at(self.len - 1).bw_bps <= bw_bps {
            self.len -= 1;
        }
        if self.len > 0 && self.at(self.len - 1).round == round_count {
            // A larger sample of this round leaves the window with this one.
            return;
        }
        // Live rounds are distinct, in the window and before `round_count`.
        debug_assert!(self.len < BW_FILTER_LEN);
        self.ring[(self.head + self.len) % BW_FILTER_LEN] = BwSample {
            round: round_count,
            bw_bps,
        };
        self.len += 1;
    }
}

/// TCP BBR v1.
#[derive(Clone, Debug)]
pub struct Bbr {
    initial_cwnd: u64,
    /// The paper's §4.1 mitigation: enter ProbeRTT whenever an RTO fires.
    probe_rtt_on_rto: bool,
    state: BbrState,

    // Round counting.
    next_rtt_delivered: u64,
    round_count: u64,
    round_start: bool,

    // Bandwidth filter (windowed max over BW_WINDOW_ROUNDS rounds) and its
    // current max, refreshed wherever the filter or `round_count` changes.
    bw_samples: BwMaxFilter,
    bw: f64,

    // Min RTT.
    min_rtt: Option<SimDuration>,
    min_rtt_stamp: SimTime,

    // Startup.
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,

    // ProbeBW gain cycling.
    cycle_index: usize,
    cycle_stamp: SimTime,

    // ProbeRTT.
    probe_rtt_done_stamp: Option<SimTime>,

    // Window management.
    cwnd: u64,
    prior_cwnd: u64,
    packet_conservation: bool,
    conservation_ends_round: u64,

    pacing_gain: f64,
    cwnd_gain: f64,

    // Per-ACK model cache: `bdp` is the BDP for `bdp_key = (bw bits,
    // min_rtt, mss)` and `cwnd_target` the window target for `target_key =
    // (bdp, cwnd_gain bits)`; each is recomputed only when its key changes.
    bdp_key: (u64, Option<SimDuration>, u32),
    bdp: u64,
    target_key: (u64, u64),
    cwnd_target: u64,

    // Events since the sender's last drain (the Figure 4c timeline).
    events: CcEvents,
}

impl Bbr {
    /// Creates a BBR instance with an initial window of `initial_cwnd`
    /// packets; `probe_rtt_on_rto` enables the paper's §4.1 mitigation.
    pub fn new(initial_cwnd: u64, probe_rtt_on_rto: bool) -> Self {
        Bbr {
            initial_cwnd,
            probe_rtt_on_rto,
            state: BbrState::Startup,
            next_rtt_delivered: 0,
            round_count: 0,
            round_start: false,
            bw_samples: BwMaxFilter::default(),
            bw: 0.0,
            min_rtt: None,
            min_rtt_stamp: SimTime::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 2,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done_stamp: None,
            cwnd: initial_cwnd.max(MIN_CWND),
            prior_cwnd: initial_cwnd.max(MIN_CWND),
            packet_conservation: false,
            conservation_ends_round: 0,
            pacing_gain: HIGH_GAIN,
            cwnd_gain: HIGH_GAIN,
            // Consistent with the initial model: no bandwidth, no RTT.
            bdp_key: (0.0f64.to_bits(), None, 0),
            bdp: 0,
            target_key: (0, 0),
            cwnd_target: MIN_CWND,
            events: CcEvents::default(),
        }
    }

    /// The current state-machine phase.
    pub fn state(&self) -> BbrState {
        self.state
    }

    /// The current bottleneck bandwidth estimate in bits per second (max of
    /// the filter window), or 0 when no sample exists yet.
    pub fn bottleneck_bw_bps(&self) -> f64 {
        self.bw
    }

    /// The current min-RTT estimate.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Packet-timed rounds elapsed so far.
    pub fn round_count(&self) -> u64 {
        self.round_count
    }

    /// Bandwidth-delay product in packets for the given MSS (0 until both a
    /// bandwidth and an RTT estimate exist).
    pub fn bdp_packets(&self, mss: u32) -> u64 {
        let Some(rtt) = self.min_rtt else { return 0 };
        if self.bw <= 0.0 {
            return 0;
        }
        ceil_to_u64((self.bw * rtt.as_secs_f64()) / (mss as f64 * 8.0))
    }

    /// [`Bbr::bdp_packets`] for this ACK, recomputed only when the
    /// bandwidth, min-RTT or MSS changed since the last call. Neither
    /// estimate changes after `update_min_rtt`, so one value serves the
    /// whole rest of the ACK.
    fn model_bdp(&mut self, mss: u32) -> u64 {
        let key = (self.bw.to_bits(), self.min_rtt, mss);
        if key != self.bdp_key {
            self.bdp_key = key;
            self.bdp = self.bdp_packets(mss);
        }
        self.bdp
    }

    /// `ceil(bdp × cwnd_gain)`, at least [`MIN_CWND`], recomputed only when
    /// the BDP or the gain changed.
    fn target_cwnd(&mut self, bdp: u64) -> u64 {
        let key = (bdp, self.cwnd_gain.to_bits());
        if key != self.target_key {
            self.target_key = key;
            self.cwnd_target = ceil_to_u64(bdp as f64 * self.cwnd_gain).max(MIN_CWND);
        }
        self.cwnd_target
    }

    // ------------------------------------------------------------------
    // Model updates
    // ------------------------------------------------------------------

    fn update_round(&mut self, ctx: &CcContext, rs: &RateSample) {
        if rs.prior_delivered >= self.next_rtt_delivered {
            self.next_rtt_delivered = ctx.delivered;
            self.round_count += 1;
            self.bw = self.bw_samples.max(self.round_count);
            self.round_start = true;
            self.events.push(CcEvent::RoundStart {
                round: self.round_count,
                prior_delivered: rs.prior_delivered,
                retransmitted: rs.is_retransmitted_sample,
            });
        } else {
            self.round_start = false;
        }
    }

    fn update_bw(&mut self, rs: &RateSample) {
        if !rs.is_valid() {
            return;
        }
        let bw = rs.delivery_rate_bps;
        // App-limited samples only raise the estimate, never lower it.
        if rs.is_app_limited && bw < self.bw {
            return;
        }
        self.bw_samples.push(self.round_count, bw);
        self.bw = self.bw_samples.max(self.round_count);
    }

    fn update_min_rtt(&mut self, ctx: &CcContext, rs: &RateSample) {
        let expired = ctx.now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
        if let Some(rtt) = rs.rtt {
            if self.min_rtt.map(|m| rtt <= m).unwrap_or(true) || expired {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = ctx.now;
            }
        }
        // Enter ProbeRTT when the estimate went stale.
        if expired && self.state != BbrState::ProbeRtt {
            self.enter_probe_rtt(ctx, false);
        }
    }

    /// Linux `bbr_save_cwnd`: outside loss recovery and ProbeRTT the current
    /// cwnd is the model-driven operating point, so *save* it (overwriting
    /// any older value); inside them cwnd is temporarily cut, so only raise
    /// the saved value. Before this distinction `prior_cwnd` was a monotone
    /// ratchet — after a bandwidth drop, ProbeRTT/recovery exit restored a
    /// stale huge window from minutes ago.
    fn save_cwnd(&mut self, in_recovery: bool) {
        if !in_recovery && self.state != BbrState::ProbeRtt {
            self.prior_cwnd = self.cwnd;
        } else {
            self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
        }
    }

    fn enter_probe_rtt(&mut self, ctx: &CcContext, on_rto: bool) {
        if self.state == BbrState::ProbeRtt {
            return;
        }
        self.save_cwnd(ctx.in_recovery);
        self.state = BbrState::ProbeRtt;
        self.pacing_gain = 1.0;
        self.cwnd_gain = 1.0;
        self.probe_rtt_done_stamp = None;
        self.events.push(CcEvent::EnterProbeRtt {
            at: ctx.now,
            on_rto,
        });
    }

    fn handle_probe_rtt(&mut self, ctx: &CcContext) {
        match self.probe_rtt_done_stamp {
            None => {
                // Wait until the pipe has drained to the ProbeRTT cwnd before
                // starting the 200 ms clock.
                if ctx.in_flight <= MIN_CWND {
                    self.probe_rtt_done_stamp = Some(ctx.now + PROBE_RTT_DURATION);
                }
            }
            Some(done) => {
                if ctx.now >= done {
                    self.min_rtt_stamp = ctx.now;
                    self.exit_probe_rtt(ctx);
                }
            }
        }
    }

    fn exit_probe_rtt(&mut self, ctx: &CcContext) {
        self.state = if self.filled_pipe {
            self.cycle_index = 2;
            self.cycle_stamp = ctx.now;
            BbrState::ProbeBw
        } else {
            BbrState::Startup
        };
        self.cwnd = self.cwnd.max(self.prior_cwnd);
        self.events.push(CcEvent::ExitProbeRtt {
            at: ctx.now,
            to_probe_bw: self.filled_pipe,
        });
    }

    fn check_full_pipe(&mut self, rs: &RateSample) {
        if self.filled_pipe || !self.round_start || rs.is_app_limited {
            return;
        }
        let bw = self.bw;
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= 3 {
            self.filled_pipe = true;
            self.events.push(CcEvent::PipeFilled(self.full_bw));
        }
    }

    fn update_state_machine(&mut self, ctx: &CcContext, rs: &RateSample, bdp: u64) {
        match self.state {
            BbrState::Startup => {
                self.check_full_pipe(rs);
                if self.filled_pipe {
                    self.state = BbrState::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                    self.events.push(CcEvent::EnterDrain(ctx.now));
                }
            }
            BbrState::Drain => {
                if ctx.in_flight <= bdp.max(1) {
                    self.state = BbrState::ProbeBw;
                    self.cycle_index = 2;
                    self.cycle_stamp = ctx.now;
                    self.pacing_gain = CYCLE_GAINS[self.cycle_index];
                    self.cwnd_gain = CWND_GAIN;
                    self.events.push(CcEvent::EnterProbeBw(ctx.now));
                }
            }
            BbrState::ProbeBw => {
                self.advance_cycle_phase(ctx, bdp);
            }
            BbrState::ProbeRtt => {
                self.handle_probe_rtt(ctx);
            }
        }
        if self.state == BbrState::Startup {
            self.pacing_gain = HIGH_GAIN;
            self.cwnd_gain = HIGH_GAIN;
        } else if self.state == BbrState::ProbeBw {
            self.pacing_gain = CYCLE_GAINS[self.cycle_index];
            self.cwnd_gain = CWND_GAIN;
        }
    }

    fn advance_cycle_phase(&mut self, ctx: &CcContext, bdp: u64) {
        let min_rtt = self.min_rtt.unwrap_or(SimDuration::from_millis(10));
        let elapsed = ctx.now.saturating_since(self.cycle_stamp);
        // Each phase lasts a min_rtt; the draining phase also ends as soon as
        // the queue the probing phase created is gone.
        let draining = CYCLE_GAINS[self.cycle_index] == 0.75;
        if elapsed > min_rtt || (draining && ctx.in_flight <= bdp.max(1)) {
            self.cycle_index = (self.cycle_index + 1) % CYCLE_GAINS.len();
            self.cycle_stamp = ctx.now;
            self.pacing_gain = CYCLE_GAINS[self.cycle_index];
        }
    }

    fn update_cwnd(&mut self, ctx: &CcContext, rs: &RateSample, bdp: u64) {
        // End packet conservation one full round after recovery began, or
        // with recovery.
        let round_done = self.round_start && self.round_count >= self.conservation_ends_round;
        if self.packet_conservation && (round_done || !ctx.in_recovery) {
            self.packet_conservation = false;
            self.cwnd = self.cwnd.max(self.prior_cwnd);
        }

        let target = if bdp == 0 {
            // No model yet: keep the initial window.
            self.initial_cwnd.max(MIN_CWND)
        } else {
            self.target_cwnd(bdp)
        };

        if self.packet_conservation {
            self.cwnd = (ctx.in_flight + rs.newly_acked).max(MIN_CWND);
        } else if self.filled_pipe {
            self.cwnd = (self.cwnd + rs.newly_acked).min(target);
        } else if self.cwnd < target || ctx.delivered < self.initial_cwnd {
            // Startup (Linux bbr_set_cwnd): grow by the acked count only while
            // below the model-derived target, so the exponential search tracks
            // cwnd_gain × (current BDP estimate) instead of overshooting it.
            self.cwnd += rs.newly_acked;
        }
        if self.state == BbrState::ProbeRtt {
            self.cwnd = self.cwnd.min(MIN_CWND);
        }
        self.cwnd = self.cwnd.clamp(MIN_CWND, MAX_CWND);
    }
}

impl CongestionControl for Bbr {
    fn init(&mut self, ctx: &CcContext) {
        self.min_rtt_stamp = ctx.now;
        self.cycle_stamp = ctx.now;
    }

    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        self.update_round(ctx, rs);
        self.update_bw(rs);
        self.update_min_rtt(ctx, rs);
        let bdp = self.model_bdp(ctx.mss);
        self.update_state_machine(ctx, rs, bdp);
        self.update_cwnd(ctx, rs, bdp);
    }

    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
        match signal {
            CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                if new_episode {
                    // One round of packet conservation, then restore. A new
                    // episode means we were not in recovery a moment ago, so
                    // the pre-loss cwnd is the one worth saving.
                    self.save_cwnd(false);
                    self.packet_conservation = true;
                    self.conservation_ends_round = self.round_count + 1;
                    self.cwnd = (ctx.in_flight + 1).max(MIN_CWND);
                    self.events.push(CcEvent::FastRetransmitLoss(ctx.now));
                }
            }
            CongestionSignal::Rto => {
                self.events.push(CcEvent::Rto(ctx.now));
                if self.probe_rtt_on_rto {
                    // The paper's mitigation (§4.1): slow down via ProbeRTT so
                    // the in-flight ACKs arrive before we spuriously
                    // retransmit their packets.
                    self.enter_probe_rtt(ctx, true);
                    self.cwnd = MIN_CWND;
                } else {
                    // BBR v1 deliberately does not reduce its window/pacing in
                    // response to loss: it keeps sending at its model-derived
                    // rate, which is exactly what lets the spurious
                    // retransmissions of §4.1 pollute its round clocking.
                    self.save_cwnd(ctx.in_recovery);
                }
            }
        }
    }

    fn on_exit_recovery(&mut self, _ctx: &CcContext) {
        self.packet_conservation = false;
        self.cwnd = self.cwnd.max(self.prior_cwnd);
    }

    fn cwnd(&self) -> u64 {
        self.cwnd.max(MIN_CWND)
    }

    fn pacing_rate_bps(&self) -> Option<f64> {
        let bw = self.bw;
        if bw <= 0.0 {
            // No estimate yet: pace at a high multiple of a nominal 10 Mbps so
            // startup is not artificially limited before the first sample.
            return Some(HIGH_GAIN * 10e6);
        }
        Some((self.pacing_gain * bw).max(1_000.0))
    }

    fn take_events(&mut self) -> CcEvents {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::cc::CC_EVENTS_CAPACITY;

    fn ctx(now_ms: u64, in_flight: u64, delivered: u64) -> CcContext {
        CcContext {
            now: SimTime::from_millis(now_ms),
            mss: 1448,
            in_flight,
            delivered,
            srtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            in_recovery: false,
        }
    }

    fn sample(
        prior_delivered: u64,
        delivered: u64,
        rate_bps: f64,
        rtt_ms: u64,
        newly_acked: u64,
    ) -> RateSample {
        RateSample {
            prior_delivered,
            interval: SimDuration::from_millis(12),
            delivered_in_interval: delivered - prior_delivered,
            delivery_rate_bps: rate_bps,
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            newly_acked,
            cum_ack_advanced: newly_acked,
            is_retransmitted_sample: false,
            is_app_limited: false,
        }
    }

    /// The events logged since the last drain.
    fn drained(bbr: &mut Bbr) -> Vec<CcEvent> {
        bbr.take_events().iter().collect()
    }

    /// `on_ack`, then the events it logged, drained as the sender drains
    /// after every ACK.
    fn ack(bbr: &mut Bbr, ctx: &CcContext, rs: &RateSample) -> Vec<CcEvent> {
        bbr.on_ack(ctx, rs);
        drained(bbr)
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let bbr = Bbr::new(10, false);
        assert_eq!(bbr.state(), BbrState::Startup);
        assert!(bbr.pacing_rate_bps().unwrap() > 0.0);
        assert_eq!(bbr.cwnd(), 10);
    }

    #[test]
    fn bandwidth_filter_takes_windowed_max() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        for (i, bw) in [5e6, 8e6, 6e6].iter().enumerate() {
            delivered += 10;
            ack(
                &mut bbr,
                &ctx(40 * (i as u64 + 1), 10, delivered),
                &sample(delivered - 10, delivered, *bw, 40, 10),
            );
        }
        assert!((bbr.bottleneck_bw_bps() - 8e6).abs() < 1.0);
    }

    #[test]
    fn old_bandwidth_samples_expire_after_ten_rounds() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 10u64;
        // One good 12 Mbps sample in round 1.
        ack(
            &mut bbr,
            &ctx(40, 10, delivered),
            &sample(0, delivered, 12e6, 40, 10),
        );
        assert!(bbr.bottleneck_bw_bps() >= 12e6 - 1.0);
        // Now 12 more rounds of 1 Mbps samples; each sample's prior_delivered
        // equals the current threshold so every ACK starts a new round.
        for i in 0..12 {
            let prior = delivered;
            delivered += 2;
            ack(
                &mut bbr,
                &ctx(80 + i * 40, 4, delivered),
                &sample(prior, delivered, 1e6, 40, 2),
            );
        }
        assert!(
            bbr.bottleneck_bw_bps() < 2e6,
            "good sample should have expired, bw = {}",
            bbr.bottleneck_bw_bps()
        );
    }

    #[test]
    fn round_counting_follows_prior_delivered() {
        let mut bbr = Bbr::new(10, false);
        // prior_delivered = 0 >= threshold 0: round 1 starts, threshold := 10.
        ack(&mut bbr, &ctx(40, 10, 10), &sample(0, 10, 10e6, 40, 10));
        assert_eq!(bbr.round_count(), 1);
        // prior_delivered = 5 < 10: same round.
        ack(&mut bbr, &ctx(60, 10, 15), &sample(5, 15, 10e6, 40, 5));
        assert_eq!(bbr.round_count(), 1);
        // prior_delivered = 12 >= 10: next round.
        ack(&mut bbr, &ctx(80, 10, 20), &sample(12, 20, 10e6, 40, 5));
        assert_eq!(bbr.round_count(), 2);
    }

    #[test]
    fn startup_exits_to_drain_then_probe_bw() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        let mut now = 40u64;
        let mut events = Vec::new();
        // Bandwidth stops growing at 12 Mbps: after 3 rounds of no growth,
        // Startup ends. 60 packets stay in flight, above the 42-packet BDP.
        for _ in 0..8 {
            let prior = delivered;
            delivered += 20;
            events.extend(ack(
                &mut bbr,
                &ctx(now, 60, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            ));
            now += 40;
        }
        // Every ACK starts a round. Round 1 sets the full bandwidth, and
        // rounds 2-4 do not grow it: the pipe fills at round 4.
        let round = |round: u64| CcEvent::RoundStart {
            round,
            prior_delivered: 20 * (round - 1),
            retransmitted: false,
        };
        let mut expected: Vec<_> = (1..=4).map(round).collect();
        expected.extend([
            CcEvent::PipeFilled(12e6),
            CcEvent::EnterDrain(SimTime::from_millis(160)),
        ]);
        expected.extend((5..=8).map(round));
        assert_eq!(events, expected);
        assert_eq!(bbr.state(), BbrState::Drain);
        // Once in-flight drops to the BDP, Drain ends.
        let prior = delivered;
        delivered += 1;
        let events = ack(
            &mut bbr,
            &ctx(now, 1, delivered),
            &sample(prior, delivered, 12e6, 40, 1),
        );
        let probe_bw = CcEvent::EnterProbeBw(SimTime::from_millis(360));
        assert_eq!(events, [round(9), probe_bw]);
        assert_eq!(bbr.state(), BbrState::ProbeBw);
        // cwnd should be near cwnd_gain * BDP (BDP ≈ 41 packets at 12Mbps/40ms).
        let bdp = bbr.bdp_packets(1448);
        assert!((38..=46).contains(&bdp), "bdp {bdp}");
    }

    #[test]
    fn probe_bw_cycles_gains() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        let mut now = 40u64;
        for _ in 0..10 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(now, 20, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
            now += 40;
        }
        assert_eq!(bbr.state(), BbrState::ProbeBw);
        let mut seen_gains = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(now, 20, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
            seen_gains.insert((bbr.pacing_gain * 100.0) as u64);
            now += 50;
        }
        assert!(
            seen_gains.contains(&125),
            "probing gain seen: {seen_gains:?}"
        );
        assert!(
            seen_gains.contains(&75),
            "draining gain seen: {seen_gains:?}"
        );
        assert!(
            seen_gains.contains(&100),
            "cruise gain seen: {seen_gains:?}"
        );
    }

    #[test]
    fn stale_min_rtt_triggers_probe_rtt_and_exit_restores() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        // Establish the model; the last min-RTT sample is at 400 ms.
        for i in 0..10 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(40 * (i + 1), 20, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
        }
        // Jump time past the 10 s min-RTT window.
        let stale = 400 + MIN_RTT_WINDOW.as_millis() + 100;
        let round = |round, prior_delivered| CcEvent::RoundStart {
            round,
            prior_delivered,
            retransmitted: false,
        };
        let prior = delivered;
        delivered += 5;
        let events = ack(
            &mut bbr,
            &ctx(stale, 20, delivered),
            &sample(prior, delivered, 12e6, 41, 5),
        );
        let enter = CcEvent::EnterProbeRtt {
            at: SimTime::from_millis(stale),
            on_rto: false,
        };
        assert_eq!(events, [round(11, 200), enter]);
        assert_eq!(bbr.state(), BbrState::ProbeRtt);
        assert_eq!(bbr.cwnd(), MIN_CWND);
        // Drain in-flight to 4, then 200 ms later ProbeRTT ends.
        let prior = delivered;
        delivered += 2;
        let events = ack(
            &mut bbr,
            &ctx(stale + 50, 3, delivered),
            &sample(prior, delivered, 12e6, 41, 2),
        );
        assert_eq!(events, [round(12, 205)]);
        let prior = delivered;
        delivered += 2;
        let events = ack(
            &mut bbr,
            &ctx(stale + 300, 3, delivered),
            &sample(prior, delivered, 12e6, 41, 2),
        );
        let exit = CcEvent::ExitProbeRtt {
            at: SimTime::from_millis(stale + 300),
            to_probe_bw: true,
        };
        assert_eq!(events, [round(13, 207), exit]);
        assert_ne!(
            bbr.state(),
            BbrState::ProbeRtt,
            "ProbeRTT should have ended"
        );
        assert!(bbr.cwnd() > MIN_CWND, "cwnd restored after ProbeRTT");
    }

    #[test]
    fn prior_cwnd_tracks_the_current_operating_point_not_an_all_time_high() {
        // Regression test for the save-cwnd semantics: after the bandwidth
        // model collapses, a fresh loss episode must save the *current*
        // (small) window, not keep restoring the all-time-high one.
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        let mut now = 40u64;
        // Establish a fat model at 12 Mbps and exit Startup.
        for _ in 0..12 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(now, 20, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
            now += 40;
        }
        // A loss episode while the window is fat.
        bbr.on_congestion(
            &ctx(now, 30, delivered),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        let fat = bbr.prior_cwnd;
        assert!(fat > MIN_CWND, "premise: saved window is fat ({fat})");
        bbr.on_exit_recovery(&ctx(now, 30, delivered));

        // The bandwidth collapses to 1 Mbps for > BW_WINDOW_ROUNDS rounds;
        // the model-driven window shrinks with it.
        for _ in 0..12 {
            let prior = delivered;
            delivered += 2;
            ack(
                &mut bbr,
                &ctx(now, 4, delivered),
                &sample(prior, delivered, 1e6, 40, 2),
            );
            now += 40;
        }
        assert!(
            bbr.cwnd < fat,
            "premise: window shrank with the model ({} vs {fat})",
            bbr.cwnd
        );

        // A fresh loss episode now saves the current small window. The old
        // monotone ratchet kept `fat` here and recovery exit restored a
        // window from a bandwidth regime that no longer exists.
        bbr.on_congestion(
            &ctx(now, 4, delivered),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 1,
                new_episode: true,
            },
        );
        assert!(
            bbr.prior_cwnd < fat,
            "prior_cwnd must track the shrunken window, got {} (fat was {fat})",
            bbr.prior_cwnd
        );
    }

    #[test]
    fn rto_default_keeps_model_driven_window() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        for i in 0..10 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(40 * (i + 1), 20, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
        }
        let cwnd_before = bbr.cwnd();
        bbr.on_congestion(&ctx(500, 0, delivered), CongestionSignal::Rto);
        let at = SimTime::from_millis(500);
        assert_eq!(drained(&mut bbr), [CcEvent::Rto(at)]);
        assert_eq!(
            bbr.state(),
            BbrState::ProbeBw,
            "default BBR does not change state on RTO"
        );
        assert_eq!(
            bbr.cwnd(),
            cwnd_before,
            "default BBR ignores the RTO for its window"
        );
    }

    #[test]
    fn rto_with_mitigation_enters_probe_rtt() {
        let mut bbr = Bbr::new(10, true);
        let mut delivered = 0u64;
        for i in 0..10 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(40 * (i + 1), 20, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
        }
        bbr.on_congestion(&ctx(500, 0, delivered), CongestionSignal::Rto);
        let at = SimTime::from_millis(500);
        let probe_rtt = CcEvent::EnterProbeRtt { at, on_rto: true };
        assert_eq!(drained(&mut bbr), [CcEvent::Rto(at), probe_rtt]);
        assert_eq!(bbr.state(), BbrState::ProbeRtt);
        assert_eq!(bbr.cwnd(), MIN_CWND);
    }

    #[test]
    fn fast_retransmit_triggers_packet_conservation_then_restore() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        for i in 0..10 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(40 * (i + 1), 40, delivered),
                &sample(prior, delivered, 12e6, 40, 20),
            );
        }
        let before = bbr.cwnd();
        bbr.on_congestion(
            &ctx(500, 10, delivered),
            CongestionSignal::FastRetransmitLoss {
                newly_lost: 3,
                new_episode: true,
            },
        );
        let at = SimTime::from_millis(500);
        assert_eq!(drained(&mut bbr), [CcEvent::FastRetransmitLoss(at)]);
        assert!(
            bbr.cwnd() <= before,
            "conservation shrinks the window to ~in_flight"
        );
        bbr.on_exit_recovery(&ctx(600, 10, delivered));
        assert_eq!(drained(&mut bbr), []);
        assert_eq!(bbr.cwnd(), before, "window restored after recovery");
    }

    #[test]
    fn spurious_retransmission_samples_advance_rounds_rapidly() {
        // The §4.1 mechanism in isolation: samples whose prior_delivered was
        // refreshed by a retransmission exceed the round threshold every time,
        // so every ACK advances the round counter and the good bandwidth
        // sample ages out of the filter.
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 200u64;
        ack(
            &mut bbr,
            &ctx(40, 20, delivered),
            &sample(0, delivered, 12e6, 40, 20),
        );
        let rounds_before = bbr.round_count();
        assert!(bbr.bottleneck_bw_bps() >= 12e6 - 1.0);
        let mut events = Vec::new();
        for i in 0..12 {
            let prior = delivered; // == current threshold → premature round end
            delivered += 1;
            let mut rs = sample(prior, delivered, 0.8e6, 45, 1);
            rs.is_retransmitted_sample = true;
            events.extend(ack(&mut bbr, &ctx(1_000 + i * 10, 5, delivered), &rs));
        }
        assert!(
            bbr.round_count() >= rounds_before + 12,
            "every sample ends a round"
        );
        assert!(
            bbr.bottleneck_bw_bps() < 1e6,
            "bandwidth estimate collapsed to {} bps",
            bbr.bottleneck_bw_bps()
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                CcEvent::RoundStart {
                    retransmitted: true,
                    ..
                }
            )),
            "event log should flag retransmitted-sample rounds"
        );
    }

    /// BBR v1's constants against the draft / Linux `tcp_bbr.c` values, as
    /// renet's `rechannel/src/bbr.rs` (SNIPPETS.md) lists them: high gain
    /// 2/ln 2 ≈ 2.89, an 8-phase gain cycle, a 10-round bandwidth filter, a
    /// 4-packet minimum pipe and a 10 s / 200 ms ProbeRTT.
    #[test]
    fn v1_constants_match_the_specification() {
        let ln2 = std::f64::consts::LN_2;
        let floats: [(&str, f64, f64, f64); 3] = [
            ("HIGH_GAIN", HIGH_GAIN, 2.0 / ln2, 1e-3),
            ("Drain pacing gain", 1.0 / HIGH_GAIN, ln2 / 2.0, 1e-3),
            ("CWND_GAIN", CWND_GAIN, 2.0, 0.0),
        ];
        for (name, ours, spec, tolerance) in floats {
            assert!((ours - spec).abs() <= tolerance, "{name}: {ours} vs {spec}");
        }
        assert_eq!(CYCLE_GAINS, [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let integers: [(&str, u64, u64); 2] = [
            ("BW_WINDOW_ROUNDS", BW_WINDOW_ROUNDS, 10),
            ("MIN_CWND", MIN_CWND, 4),
        ];
        for (name, ours, spec) in integers {
            assert_eq!(ours, spec, "{name}");
        }
        assert_eq!(MIN_RTT_WINDOW, SimDuration::from_secs(10));
        assert_eq!(PROBE_RTT_DURATION, SimDuration::from_millis(200));
        // The paper's §4.1 mitigation is a flagged deviation from v1 that
        // only `BbrProbeRttOnRto` turns on: stock BBR v1 does not enter
        // ProbeRTT on an RTO.
        assert!(matches!(
            crate::CcaKind::Bbr.build(),
            crate::CcaDispatch::Bbr(Bbr {
                probe_rtt_on_rto: false,
                ..
            })
        ));
    }

    /// BBR without the per-ACK model cache: the windowed max rescans the
    /// filter on every read and every BDP and cwnd target recomputes its
    /// `ceil`, as the controller did before the cache. Event logging is
    /// left out; nothing here reads it.
    struct Uncached {
        initial_cwnd: u64,
        probe_rtt_on_rto: bool,
        state: BbrState,
        next_rtt_delivered: u64,
        round_count: u64,
        round_start: bool,
        bw_samples: BwMaxFilter,
        min_rtt: Option<SimDuration>,
        min_rtt_stamp: SimTime,
        full_bw: f64,
        full_bw_count: u32,
        filled_pipe: bool,
        cycle_index: usize,
        cycle_stamp: SimTime,
        probe_rtt_done_stamp: Option<SimTime>,
        cwnd: u64,
        prior_cwnd: u64,
        packet_conservation: bool,
        conservation_ends_round: u64,
        pacing_gain: f64,
        cwnd_gain: f64,
    }

    impl Uncached {
        fn new(initial_cwnd: u64, probe_rtt_on_rto: bool) -> Self {
            Uncached {
                initial_cwnd,
                probe_rtt_on_rto,
                state: BbrState::Startup,
                next_rtt_delivered: 0,
                round_count: 0,
                round_start: false,
                bw_samples: BwMaxFilter::default(),
                min_rtt: None,
                min_rtt_stamp: SimTime::ZERO,
                full_bw: 0.0,
                full_bw_count: 0,
                filled_pipe: false,
                cycle_index: 2,
                cycle_stamp: SimTime::ZERO,
                probe_rtt_done_stamp: None,
                cwnd: initial_cwnd.max(MIN_CWND),
                prior_cwnd: initial_cwnd.max(MIN_CWND),
                packet_conservation: false,
                conservation_ends_round: 0,
                pacing_gain: HIGH_GAIN,
                cwnd_gain: HIGH_GAIN,
            }
        }

        fn bw(&self) -> f64 {
            self.bw_samples.max(self.round_count)
        }

        fn bdp(&self, mss: u32) -> u64 {
            let bw = self.bw();
            let Some(rtt) = self.min_rtt else { return 0 };
            if bw <= 0.0 {
                return 0;
            }
            ceil_to_u64((bw * rtt.as_secs_f64()) / (mss as f64 * 8.0))
        }

        fn pacing_rate(&self) -> f64 {
            let bw = self.bw();
            if bw <= 0.0 {
                HIGH_GAIN * 10e6
            } else {
                (self.pacing_gain * bw).max(1_000.0)
            }
        }

        fn save_cwnd(&mut self, in_recovery: bool) {
            if !in_recovery && self.state != BbrState::ProbeRtt {
                self.prior_cwnd = self.cwnd;
            } else {
                self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
            }
        }

        fn enter_probe_rtt(&mut self, ctx: &CcContext) {
            if self.state == BbrState::ProbeRtt {
                return;
            }
            self.save_cwnd(ctx.in_recovery);
            self.state = BbrState::ProbeRtt;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.probe_rtt_done_stamp = None;
        }

        fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
            // Round counting.
            if rs.prior_delivered >= self.next_rtt_delivered {
                self.next_rtt_delivered = ctx.delivered;
                self.round_count += 1;
                self.round_start = true;
            } else {
                self.round_start = false;
            }
            // Bandwidth.
            if rs.is_valid() && !(rs.is_app_limited && rs.delivery_rate_bps < self.bw()) {
                self.bw_samples.push(self.round_count, rs.delivery_rate_bps);
            }
            // Min RTT.
            let expired = ctx.now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
            if let Some(rtt) = rs.rtt {
                if self.min_rtt.map(|m| rtt <= m).unwrap_or(true) || expired {
                    self.min_rtt = Some(rtt);
                    self.min_rtt_stamp = ctx.now;
                }
            }
            if expired && self.state != BbrState::ProbeRtt {
                self.enter_probe_rtt(ctx);
            }
            // State machine.
            match self.state {
                BbrState::Startup => {
                    if !self.filled_pipe && self.round_start && !rs.is_app_limited {
                        let bw = self.bw();
                        if bw >= self.full_bw * 1.25 {
                            self.full_bw = bw;
                            self.full_bw_count = 0;
                        } else {
                            self.full_bw_count += 1;
                            self.filled_pipe |= self.full_bw_count >= 3;
                        }
                    }
                    if self.filled_pipe {
                        self.state = BbrState::Drain;
                        self.pacing_gain = 1.0 / HIGH_GAIN;
                        self.cwnd_gain = HIGH_GAIN;
                    }
                }
                BbrState::Drain => {
                    if ctx.in_flight <= self.bdp(ctx.mss).max(1) {
                        self.state = BbrState::ProbeBw;
                        self.cycle_index = 2;
                        self.cycle_stamp = ctx.now;
                        self.pacing_gain = CYCLE_GAINS[self.cycle_index];
                        self.cwnd_gain = CWND_GAIN;
                    }
                }
                BbrState::ProbeBw => {
                    let min_rtt = self.min_rtt.unwrap_or(SimDuration::from_millis(10));
                    let elapsed = ctx.now.saturating_since(self.cycle_stamp);
                    let draining = CYCLE_GAINS[self.cycle_index] == 0.75;
                    if elapsed > min_rtt || (draining && ctx.in_flight <= self.bdp(ctx.mss).max(1))
                    {
                        self.cycle_index = (self.cycle_index + 1) % CYCLE_GAINS.len();
                        self.cycle_stamp = ctx.now;
                        self.pacing_gain = CYCLE_GAINS[self.cycle_index];
                    }
                }
                BbrState::ProbeRtt => match self.probe_rtt_done_stamp {
                    None if ctx.in_flight <= MIN_CWND => {
                        self.probe_rtt_done_stamp = Some(ctx.now + PROBE_RTT_DURATION);
                    }
                    Some(done) if ctx.now >= done => {
                        self.min_rtt_stamp = ctx.now;
                        self.state = if self.filled_pipe {
                            self.cycle_index = 2;
                            self.cycle_stamp = ctx.now;
                            BbrState::ProbeBw
                        } else {
                            BbrState::Startup
                        };
                        self.cwnd = self.cwnd.max(self.prior_cwnd);
                    }
                    _ => {}
                },
            }
            if self.state == BbrState::Startup {
                self.pacing_gain = HIGH_GAIN;
                self.cwnd_gain = HIGH_GAIN;
            } else if self.state == BbrState::ProbeBw {
                self.pacing_gain = CYCLE_GAINS[self.cycle_index];
                self.cwnd_gain = CWND_GAIN;
            }
            // Window.
            if self.packet_conservation
                && self.round_start
                && self.round_count >= self.conservation_ends_round
            {
                self.packet_conservation = false;
                self.cwnd = self.cwnd.max(self.prior_cwnd);
            }
            if !ctx.in_recovery && self.packet_conservation {
                self.packet_conservation = false;
                self.cwnd = self.cwnd.max(self.prior_cwnd);
            }
            let bdp = self.bdp(ctx.mss);
            let target = if bdp == 0 {
                self.initial_cwnd.max(MIN_CWND)
            } else {
                ceil_to_u64(bdp as f64 * self.cwnd_gain).max(MIN_CWND)
            };
            if self.packet_conservation {
                self.cwnd = (ctx.in_flight + rs.newly_acked).max(MIN_CWND);
            } else if self.filled_pipe {
                self.cwnd = (self.cwnd + rs.newly_acked).min(target);
            } else if self.cwnd < target || ctx.delivered < self.initial_cwnd {
                self.cwnd += rs.newly_acked;
            }
            if self.state == BbrState::ProbeRtt {
                self.cwnd = self.cwnd.min(MIN_CWND);
            }
            self.cwnd = self.cwnd.clamp(MIN_CWND, MAX_CWND);
        }

        fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
            match signal {
                CongestionSignal::FastRetransmitLoss { new_episode, .. } => {
                    if new_episode {
                        self.save_cwnd(false);
                        self.packet_conservation = true;
                        self.conservation_ends_round = self.round_count + 1;
                        self.cwnd = (ctx.in_flight + 1).max(MIN_CWND);
                    }
                }
                CongestionSignal::Rto if self.probe_rtt_on_rto => {
                    self.enter_probe_rtt(ctx);
                    self.cwnd = MIN_CWND;
                }
                CongestionSignal::Rto => self.save_cwnd(ctx.in_recovery),
            }
        }

        fn on_exit_recovery(&mut self) {
            self.packet_conservation = false;
            self.cwnd = self.cwnd.max(self.prior_cwnd);
        }
    }

    /// Cases for the cached-model sweep: `CCFUZZ_PROPTEST_CASES` when set
    /// (the CI property job raises it to 1000), else `default`.
    fn cases(default: u64) -> u64 {
        std::env::var("CCFUZZ_PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The windowed max by a full scan over every sample ever pushed.
    fn scanned_max(samples: &[BwSample], round_count: u64) -> f64 {
        samples
            .iter()
            .filter(|s| s.round + BW_WINDOW_ROUNDS > round_count)
            .fold(0.0, |max, s| max.max(s.bw_bps))
    }

    #[test]
    fn bandwidth_filter_equals_a_full_scan_on_random_streams() {
        use ccfuzz_netsim::rng::SimRng;
        for case in 0..cases(64) {
            let mut rng = SimRng::new(0xF11 + case);
            let mut filter = BwMaxFilter::default();
            let mut pushed = Vec::new();
            let (mut round, mut bw_bps) = (0u64, 8e6);
            for step in 0..500 {
                round += match rng.gen_range_u64(0, 10) {
                    0..=4 => 0, // a same-round burst
                    5..=7 => 1,
                    8 => rng.gen_range_u64(2, BW_WINDOW_ROUNDS + 3), // a round jump
                    _ => rng.gen_range_u64(0, 3 * BW_WINDOW_ROUNDS),
                };
                // A round that advances without a sample is read too
                // (`update_round`).
                let at = format!("case {case}, step {step}, round {round}");
                assert_eq!(
                    filter.max(round).to_bits(),
                    scanned_max(&pushed, round).to_bits(),
                    "{at}"
                );
                if rng.gen_range_u64(0, 8) == 0 {
                    continue;
                }
                // A falling rate fills the ring (one entry per round),
                // coarse values make equal samples, fine values make order.
                bw_bps = match (case % 3, rng.gen_range_u64(0, 2)) {
                    (0, _) => bw_bps * rng.gen_range_f64(0.9, 1.0),
                    (1, _) | (2, 0) => rng.gen_range_u64(1, 8) as f64 * 1e6,
                    _ => rng.gen_range_f64(0.1e6, 8e6),
                };
                filter.push(round, bw_bps);
                pushed.push(BwSample { round, bw_bps });
                assert_eq!(
                    filter.max(round).to_bits(),
                    scanned_max(&pushed, round).to_bits(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn cached_model_equals_the_uncached_reference_on_random_streams() {
        use ccfuzz_netsim::rng::SimRng;
        // 8 × 2000 calls by default: ≥ 10k per run.
        const CALLS: u64 = 2_000;
        let mut states_seen = std::collections::BTreeSet::new();
        let mut most_logged = 0;
        for case in 0..cases(8) {
            let mut rng = SimRng::new(0xBB0 + case);
            let probe_rtt_on_rto = case % 2 == 1;
            let mut bbr = Bbr::new(10, probe_rtt_on_rto);
            let mut reference = Uncached::new(10, probe_rtt_on_rto);
            let (mut now, mut delivered) = (0u64, 0u64);
            let base_rate = rng.gen_range_f64(0.5e6, 50e6);
            for call in 0..CALLS {
                now += match rng.gen_range_u64(0, 100) {
                    0 => rng.gen_range_u64(1_000, 12_000), // an idle stretch
                    _ => rng.gen_range_u64(0, 60),
                } * 1_000_000;
                let newly_acked = rng.gen_range_u64(0, 30);
                delivered += newly_acked;
                let ctx = CcContext {
                    now: SimTime::from_nanos(now),
                    mss: if rng.gen_range_u64(0, 50) == 0 {
                        536
                    } else {
                        1448
                    },
                    in_flight: rng.gen_range_u64(0, 120),
                    delivered,
                    srtt: None,
                    min_rtt: None,
                    in_recovery: rng.gen_range_u64(0, 4) == 0,
                };
                match rng.gen_range_u64(0, 40) {
                    0 => {
                        let signal = CongestionSignal::FastRetransmitLoss {
                            newly_lost: 1,
                            new_episode: rng.gen_range_u64(0, 2) == 0,
                        };
                        bbr.on_congestion(&ctx, signal);
                        reference.on_congestion(&ctx, signal);
                    }
                    1 => {
                        bbr.on_congestion(&ctx, CongestionSignal::Rto);
                        reference.on_congestion(&ctx, CongestionSignal::Rto);
                    }
                    2 => {
                        bbr.on_exit_recovery(&ctx);
                        reference.on_exit_recovery();
                    }
                    _ => {
                        // Mostly rounds that follow `delivered`; sometimes a
                        // restamped (spurious-retransmission) sample.
                        let prior = delivered.saturating_sub(rng.gen_range_u64(0, 80));
                        let rate = base_rate * rng.gen_range_f64(0.02, 2.0);
                        let rs = RateSample {
                            prior_delivered: prior,
                            delivery_rate_bps: rate,
                            // A zero interval makes the sample invalid.
                            interval: SimDuration::from_millis(rng.gen_range_u64(0, 20)),
                            delivered_in_interval: delivered - prior,
                            rtt: (rng.gen_range_u64(0, 10) != 0).then(|| {
                                SimDuration::from_micros(rng.gen_range_u64(5_000, 200_000))
                            }),
                            is_retransmitted_sample: rng.gen_range_u64(0, 8) == 0,
                            is_app_limited: rng.gen_range_u64(0, 6) == 0,
                            ..sample(prior, delivered, rate, 40, newly_acked)
                        };
                        bbr.on_ack(&ctx, &rs);
                        reference.on_ack(&ctx, &rs);
                        // The loss episode the same ACK may start.
                        if rng.gen_range_u64(0, 8) == 0 {
                            let signal = CongestionSignal::FastRetransmitLoss {
                                newly_lost: 1,
                                new_episode: true,
                            };
                            bbr.on_congestion(&ctx, signal);
                            reference.on_congestion(&ctx, signal);
                        }
                    }
                }
                // Each call is what the sender delivers between two drains;
                // overflowing the inline buffer panics.
                most_logged = most_logged.max(bbr.take_events().iter().count());
                let at = format!("case {case}, call {call}");
                assert_eq!(
                    bbr.bottleneck_bw_bps().to_bits(),
                    reference.bw().to_bits(),
                    "{at}"
                );
                assert_eq!(bbr.bdp_packets(1448), reference.bdp(1448), "{at}");
                assert_eq!(bbr.bdp_packets(ctx.mss), reference.bdp(ctx.mss), "{at}");
                assert_eq!(
                    bbr.pacing_rate_bps().map(f64::to_bits),
                    Some(reference.pacing_rate().to_bits()),
                    "{at}"
                );
                assert_eq!(bbr.cwnd(), reference.cwnd.max(MIN_CWND), "{at}");
                assert_eq!(bbr.state(), reference.state, "{at}");
                assert_eq!(bbr.round_count(), reference.round_count, "{at}");
                assert_eq!(bbr.min_rtt(), reference.min_rtt, "{at}");
                states_seen.insert(format!("{:?}", bbr.state()));
            }
        }
        // The streams reached every phase the cache has to survive.
        assert_eq!(states_seen.len(), 4, "{states_seen:?}");
        // Some call filled the buffer: the bound is tight, and one more
        // event per drain would have panicked in `CcEvents::push`.
        assert_eq!(most_logged, CC_EVENTS_CAPACITY);
    }

    #[test]
    fn pacing_rate_follows_gain_and_bw() {
        let mut bbr = Bbr::new(10, false);
        let mut delivered = 0u64;
        for i in 0..10 {
            let prior = delivered;
            delivered += 20;
            ack(
                &mut bbr,
                &ctx(40 * (i + 1), 20, delivered),
                &sample(prior, delivered, 10e6, 40, 20),
            );
        }
        let rate = bbr.pacing_rate_bps().unwrap();
        let bw = bbr.bottleneck_bw_bps();
        assert!((rate / bw - bbr.pacing_gain).abs() < 0.01);
    }
}
