//! Dynamic-flow workload generation: arrival processes and heavy-tailed
//! flow sizes.
//!
//! A bottleneck serving internet-scale traffic sees a churning population
//! of short "mice" transfers (web requests, RPCs) arriving on top of a few
//! long-lived "elephants" — not the fixed set of bulk flows the classic
//! scenarios model. [`ArrivalConfig`] describes such a workload: a Poisson
//! or ON/OFF arrival process paired with a bounded-Pareto flow-size
//! distribution. The simulator turns it into a stream of
//! [`Event::FlowArrival`](crate::event::Event) events, spawning an
//! application-limited flow per arrival through the flow slab (see
//! `sim.rs`) and recording a flow-completion-time sample when each one's
//! byte budget has been delivered.
//!
//! Everything here is sampled on the fly from a [`SimRng`](crate::rng::SimRng)
//! forked off the scenario seed, so a workload of 100k arrivals costs O(1)
//! memory and the run stays a pure function of its configuration.

use crate::rng::SimRng;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How dynamic flow inter-arrival times are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_per_sec`.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Bursty arrivals: exponential gaps at `rate_per_sec` during ON
    /// periods, silence during OFF periods. Period lengths are themselves
    /// exponential with the given means, which models request-response
    /// incast bursts.
    OnOff {
        /// Mean arrivals per second while ON.
        rate_per_sec: f64,
        /// Mean ON period length in seconds.
        mean_on_secs: f64,
        /// Mean OFF period length in seconds.
        mean_off_secs: f64,
    },
}

impl ArrivalProcess {
    /// The in-burst arrival rate.
    pub fn rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::OnOff { rate_per_sec, .. } => rate_per_sec,
        }
    }
}

/// Bounded-Pareto flow sizes in packets: the canonical heavy-tailed
/// mice-vs-elephants mix. `shape` near 1.1–1.3 reproduces measured web
/// flow-size tails; the bounds keep single samples from exceeding what a
/// run could ever deliver.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SizeDistribution {
    /// Pareto tail index (alpha). Smaller = heavier tail.
    pub shape: f64,
    /// Smallest flow size in packets (inclusive).
    pub min_packets: u64,
    /// Largest flow size in packets (inclusive truncation bound).
    pub max_packets: u64,
}

impl SizeDistribution {
    /// Draws one flow size by inverting the bounded-Pareto CDF.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let l = self.min_packets as f64;
        let h = self.max_packets as f64;
        let a = self.shape;
        let u = rng.next_f64();
        // Inverse CDF of the Pareto truncated to [l, h].
        let ratio = (l / h).powf(a);
        let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / a);
        (x as u64).clamp(self.min_packets, self.max_packets)
    }
}

/// Configuration of a dynamic-flow workload. `SimConfig::arrivals` being
/// `Some` is what switches the simulator's flow-churn engine on; every
/// existing mode leaves it `None` and behaves (and digests) exactly as
/// before.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// The flow-size distribution.
    pub size: SizeDistribution,
    /// Flows at or below this many packets count as "mice" for FCT
    /// reporting; larger flows are "elephants".
    pub mice_threshold_packets: u64,
    /// Cap on concurrently live dynamic flows (the slab never grows past
    /// this); arrivals hitting the cap are counted in
    /// `WorkloadStats::capped` and skipped.
    pub max_concurrent: u32,
    /// Cap on total spawned flows over the run (safety valve against
    /// degenerate rate × duration products).
    pub max_arrivals: u64,
}

impl ArrivalConfig {
    /// A small default workload: ~40 mice/s with a heavy tail, a handful
    /// concurrent.
    pub fn paper_default() -> Self {
        ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_sec: 40.0 },
            size: SizeDistribution {
                shape: 1.2,
                min_packets: 2,
                max_packets: 2000,
            },
            mice_threshold_packets: 32,
            max_concurrent: 64,
            max_arrivals: 100_000,
        }
    }

    /// Validates parameter ranges, mirroring `SimConfig::validate`'s
    /// descriptive-error style.
    pub fn validate(&self) -> Result<(), String> {
        let rate = self.process.rate_per_sec();
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("arrival rate must be positive, got {rate}"));
        }
        if rate > 1_000_000.0 {
            return Err(format!(
                "arrival rate {rate}/s is implausibly high (max 1e6)"
            ));
        }
        if let ArrivalProcess::OnOff {
            mean_on_secs,
            mean_off_secs,
            ..
        } = self.process
        {
            if !mean_on_secs.is_finite() || mean_on_secs <= 0.0 {
                return Err(format!("ON period must be positive, got {mean_on_secs}"));
            }
            if !mean_off_secs.is_finite() || mean_off_secs <= 0.0 {
                return Err(format!("OFF period must be positive, got {mean_off_secs}"));
            }
        }
        if !self.size.shape.is_finite() || self.size.shape <= 0.0 {
            return Err(format!(
                "Pareto shape must be positive, got {}",
                self.size.shape
            ));
        }
        if self.size.min_packets == 0 {
            return Err("minimum flow size must be at least 1 packet".into());
        }
        if self.size.max_packets < self.size.min_packets {
            return Err(format!(
                "flow size bounds inverted: min {} > max {}",
                self.size.min_packets, self.size.max_packets
            ));
        }
        if self.mice_threshold_packets == 0 {
            return Err("mice threshold must be at least 1 packet".into());
        }
        if self.max_concurrent == 0 {
            return Err("max concurrent dynamic flows must be at least 1".into());
        }
        if self.max_concurrent as u64 > MAX_DYNAMIC_SLOTS {
            return Err(format!(
                "max concurrent dynamic flows {} exceeds the slab limit {MAX_DYNAMIC_SLOTS}",
                self.max_concurrent
            ));
        }
        if self.max_arrivals == 0 {
            return Err("max arrivals must be at least 1".into());
        }
        Ok(())
    }

    /// Whether a flow of `size_packets` counts as a mouse.
    pub fn is_mouse(&self, size_packets: u64) -> bool {
        size_packets <= self.mice_threshold_packets
    }

    /// Draws one exponential inter-arrival gap at the in-burst rate.
    pub fn sample_gap(&self, rng: &mut SimRng) -> SimDuration {
        exp_duration(self.process.rate_per_sec(), rng)
    }
}

/// An exponential duration with mean `1/rate_per_sec`, floored at 1 ns so
/// consecutive arrivals keep distinct calendar slots.
pub(crate) fn exp_duration(rate_per_sec: f64, rng: &mut SimRng) -> SimDuration {
    // Nudge away from ln(0); matches SimRng::gen_normal's guard.
    let u = rng.next_f64().max(1e-12);
    let secs = -u.ln() / rate_per_sec;
    SimDuration::from_nanos(((secs * 1e9) as u64).max(1))
}

// ---------------------------------------------------------------------------
// Dynamic flow handles
// ---------------------------------------------------------------------------
//
// Events and packets identify CCA flows with a `u32`. Static flows use
// their plain table index (so every pre-existing event stream is encoded
// exactly as before); dynamic flows set the top bit and pack a slab slot
// plus a 15-bit recycle generation:
//
//     bit 31      = dynamic flag
//     bits 30..16 = slot generation (wraps at 2^15)
//     bits 15..0  = slab slot index
//
// A timer event that outlives its flow carries a stale generation and is
// discarded on decode; packets and ACKs can never go stale because each one
// holds an `in_network` reference that blocks the slot's recycling.

/// Top bit of a flow handle: set for slab-allocated dynamic flows.
pub const DYN_FLOW_FLAG: u32 = 0x8000_0000;
/// Maximum slab slots addressable by a dynamic handle.
pub const MAX_DYNAMIC_SLOTS: u64 = 1 << 16;
/// Generation values wrap at this modulus (15 bits).
pub const GEN_MODULUS: u16 = 1 << 15;

/// Encodes a slab slot + generation into a dynamic flow handle.
#[inline]
pub fn dyn_handle(slot: u16, generation: u16) -> u32 {
    DYN_FLOW_FLAG | ((generation as u32 & 0x7FFF) << 16) | slot as u32
}

/// Whether a raw flow handle refers to a dynamic (slab) flow.
#[inline]
pub fn is_dynamic(raw: u32) -> bool {
    raw & DYN_FLOW_FLAG != 0
}

/// The slab slot of a dynamic handle.
#[inline]
pub fn dyn_slot(raw: u32) -> usize {
    (raw & 0xFFFF) as usize
}

/// The generation of a dynamic handle.
#[inline]
pub fn dyn_generation(raw: u32) -> u16 {
    ((raw >> 16) & 0x7FFF) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_round_trips() {
        for &(slot, generation) in &[(0u16, 0u16), (1, 1), (65535, 32767), (513, 9)] {
            let h = dyn_handle(slot, generation);
            assert!(is_dynamic(h));
            assert_eq!(dyn_slot(h), slot as usize);
            assert_eq!(dyn_generation(h), generation);
        }
        assert!(!is_dynamic(0));
        assert!(!is_dynamic(31));
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_skews_small() {
        let dist = SizeDistribution {
            shape: 1.2,
            min_packets: 2,
            max_packets: 2000,
        };
        let mut rng = SimRng::new(7);
        let mut small = 0usize;
        for _ in 0..5000 {
            let s = dist.sample(&mut rng);
            assert!((2..=2000).contains(&s), "sample {s} out of bounds");
            if s <= 32 {
                small += 1;
            }
        }
        // A heavy-tailed mix is mostly mice.
        assert!(small > 3500, "only {small}/5000 samples were mice");
    }

    #[test]
    fn poisson_gaps_average_the_configured_rate() {
        let cfg = ArrivalConfig::paper_default();
        let mut rng = SimRng::new(11);
        let mut total = SimDuration::ZERO;
        let n = 4000;
        for _ in 0..n {
            total += cfg.sample_gap(&mut rng);
        }
        let mean_secs = total.as_secs_f64() / n as f64;
        let expect = 1.0 / cfg.process.rate_per_sec();
        assert!(
            (mean_secs - expect).abs() < expect * 0.1,
            "mean gap {mean_secs} vs expected {expect}"
        );
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut cfg = ArrivalConfig::paper_default();
        cfg.process = ArrivalProcess::Poisson { rate_per_sec: 0.0 };
        assert!(cfg.validate().is_err());
        let mut cfg = ArrivalConfig::paper_default();
        cfg.size.max_packets = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = ArrivalConfig::paper_default();
        cfg.max_concurrent = 0;
        assert!(cfg.validate().is_err());
        assert!(ArrivalConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let cfg = ArrivalConfig {
            process: ArrivalProcess::OnOff {
                rate_per_sec: 200.0,
                mean_on_secs: 0.05,
                mean_off_secs: 0.2,
            },
            ..ArrivalConfig::paper_default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ArrivalConfig = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, cfg);
    }
}
