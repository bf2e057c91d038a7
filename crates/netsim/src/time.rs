//! Simulation time.
//!
//! Time is an integer number of nanoseconds since the start of the
//! simulation. Using integers (rather than `f64` seconds) keeps event
//! ordering exact and the simulator bit-for-bit reproducible, which the
//! genetic algorithm relies on for convergence.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Splits `x` into the saturating cast `x as u64` and, where that cast
/// truncated, the exact remainder. Every finite `f64` from 2^52 up is an
/// integer, and below it `x - trunc(x)` is representable; NaN, negative and
/// overflowing inputs keep the cast's result (0, 0, `u64::MAX`) with a
/// remainder that never rounds up.
#[inline]
fn split_u64(x: f64) -> (u64, f64) {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    let whole = x as u64;
    if x < TWO_POW_52 {
        (whole, x - whole as f64)
    } else {
        (whole, 0.0)
    }
}

/// `x.round() as u64`, bit for bit on every input. On baseline x86-64 (no
/// SSE4.1) `f64::round` is a call into libm, and the simulator converts
/// float seconds to nanoseconds several times per ACK.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    let (whole, rest) = split_u64(x);
    whole + u64::from(rest >= 0.5)
}

/// `x.ceil() as u64`, bit for bit on every input (see [`round_to_u64`]).
#[inline]
pub fn ceil_to_u64(x: f64) -> u64 {
    let (whole, rest) = split_u64(x);
    whole + u64::from(rest > 0.0)
}

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never" for timers).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from (possibly fractional) seconds since start.
    ///
    /// Negative values saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(round_to_u64(secs * 1e9))
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from (possibly fractional) seconds.
    ///
    /// Negative values saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds in this duration (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for reporting and rate computation).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Multiplies the duration by a float factor (used for RTO backoff and
    /// smoothing). Negative factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }

    /// Integer division of the duration. Unlike `std::ops::Div`, a zero
    /// divisor is clamped to 1 instead of panicking (timer arithmetic must
    /// not abort a simulation), hence a method rather than the trait.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, divisor: u64) -> SimDuration {
        SimDuration(self.0 / divisor.max(1))
    }

    /// The duration needed to serialize `bytes` at `rate_bps` bits per second.
    ///
    /// Returns [`SimDuration::MAX`] for a zero rate.
    pub fn transmission_time(bytes: u64, rate_bps: u64) -> SimDuration {
        if rate_bps == 0 {
            return SimDuration::MAX;
        }
        let bits = bytes.saturating_mul(8);
        // ns = bits / (bits/s) * 1e9, computed carefully to avoid overflow.
        let ns = (bits as u128)
            .saturating_mul(1_000_000_000u128)
            .checked_div(rate_bps as u128)
            .unwrap_or(u128::MAX);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_millis(1_500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_millis(), 1_500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        let d = SimDuration::from_secs_f64(0.020);
        assert_eq!(d.as_millis(), 20);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!((t + d).as_millis(), 150);
        assert_eq!((t - d).as_millis(), 50);
        assert_eq!(((t + d) - t).as_millis(), 50);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(10));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn transmission_time_12mbps() {
        // 1500 bytes at 12 Mbps = 1 ms.
        let d = SimDuration::transmission_time(1500, 12_000_000);
        assert_eq!(d.as_micros(), 1_000);
        // Zero rate never completes.
        assert_eq!(SimDuration::transmission_time(1500, 0), SimDuration::MAX);
    }

    #[test]
    fn mul_and_div() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.5).as_micros(), 25_000);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(d.div(4).as_micros(), 2_500);
        assert_eq!(
            d.div(0).as_millis(),
            10,
            "division by zero clamps divisor to 1"
        );
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
    }
}
