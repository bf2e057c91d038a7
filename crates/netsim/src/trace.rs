//! Network traces: the inputs the fuzzer evolves.
//!
//! * A [`LinkTrace`] is a *service curve*: a sorted list of timestamps, each
//!   of which is an opportunity for the bottleneck to transmit exactly one
//!   MTU-sized packet (the MahiMahi representation the paper adopts, §3.2).
//! * A [`TrafficTrace`] is a sorted list of timestamps at which the
//!   cross-traffic source injects one packet into the bottleneck queue
//!   (§3.3).
//!
//! Both hold their timestamps in one store, [`PackedTimes`], the same one
//! the fuzzer's genomes hold: its bytes are shared, so a genome, its clones
//! and the trace lowered from it read one copy, and the simulator walks it
//! in place. Both are (de)serializable as plain arrays of nanoseconds so
//! that interesting traces found by the fuzzer can be saved and replayed.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A sequence of packet timestamps, packed: each is stored as its difference
/// from the previous one (the first from zero), zigzag-encoded and written
/// as LEB128, seven bits a byte. A 12 Mbps service curve's ~1 ms gaps take
/// about 2.7 bytes each instead of 8. Signed deltas keep any sequence exact,
/// unsorted or repeated, so a validator still sees what it was given; the
/// encoding is canonical, so two packings are equal exactly when their
/// sequences are. The bytes are shared: a clone copies none of them.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct PackedTimes {
    bytes: Arc<[u8]>,
    /// The number of timestamps.
    len: usize,
    /// Whether some timestamp is earlier than the one before it.
    out_of_order: bool,
}

/// The zigzag form of the step from `prev` to `next`: small steps either
/// way become small numbers. Wrapping keeps every `u64` pair exact.
fn zigzag(prev: u64, next: u64) -> u64 {
    let delta = next.wrapping_sub(prev) as i64;
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// The inverse of [`zigzag`]: the timestamp `z` steps to from `prev`.
fn unzigzag(prev: u64, z: u64) -> u64 {
    let delta = (z >> 1) as i64 ^ -((z & 1) as i64);
    prev.wrapping_add(delta as u64)
}

/// The LEB128 length of `z`: one byte per started seven bits.
fn varint_len(z: u64) -> usize {
    (64 - (z | 1).leading_zeros() as usize).div_ceil(7)
}

/// The continuation bit of each of eight LEB128 bytes in a word.
const STOPS: u64 = 0x8080_8080_8080_8080;

/// Writes `z` as LEB128 at the start of `out` and returns its length.
/// Values under 2^56 (every step of a real trace) take a few word
/// operations and one eight-byte store instead of a branch per byte: the
/// seven-bit groups are spread one per byte, every byte but the last gets
/// its continuation bit, and the bytes past the value are zeros for the
/// next one to overwrite.
fn put_varint(out: &mut [u8], mut z: u64) -> usize {
    let n = varint_len(z);
    if n <= 8 {
        let mut x = (z & 0x0fff_ffff) | ((z & 0x00ff_ffff_f000_0000) << 4);
        x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
        x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
        x |= STOPS & ((1 << (8 * (n - 1))) - 1);
        out[..8].copy_from_slice(&x.to_le_bytes());
        return n;
    }
    for byte in &mut out[..n - 1] {
        *byte = z as u8 | 0x80;
        z >>= 7;
    }
    out[n - 1] = z as u8;
    n
}

thread_local! {
    /// `pack`'s staging buffer, kept per thread so that a pack allocates
    /// only the shared bytes it returns.
    static STAGING: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl PackedTimes {
    /// Packs `times` as given (unsorted and repeated timestamps included).
    pub fn pack(times: &[SimTime]) -> Self {
        if times.is_empty() {
            return PackedTimes::default();
        }
        let steps = || {
            let mut prev = 0;
            times.iter().map(move |t| {
                let z = zigzag(prev, t.as_nanos());
                prev = t.as_nanos();
                z
            })
        };
        // Eight bytes of room past the end for the last value's store.
        let size = steps().map(varint_len).sum();
        let bytes = STAGING.with_borrow_mut(|bytes| {
            bytes.clear();
            bytes.resize(size + 8, 0);
            let mut pos = 0;
            for z in steps() {
                pos += put_varint(&mut bytes[pos..], z);
            }
            Arc::from(&bytes[..size])
        });
        PackedTimes {
            bytes,
            len: times.len(),
            out_of_order: times.windows(2).any(|w| w[1] < w[0]),
        }
    }

    /// The same timestamps in order: `self` when it already is (sharing its
    /// bytes), otherwise a sorted repacking.
    fn into_sorted(self) -> Self {
        if !self.out_of_order {
            return self;
        }
        let mut times = self.unpack();
        times.sort_unstable();
        PackedTimes::pack(&times)
    }

    /// The number of timestamps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no timestamps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamps, in stored order.
    pub fn iter(&self) -> Unpack<'_> {
        Unpack {
            bytes: &self.bytes,
            at: Cursor::new(self),
        }
    }

    /// The timestamps, unpacked into a new vector.
    pub fn unpack(&self) -> Vec<SimTime> {
        self.iter().collect()
    }

    /// The average rate in bits per second of one `packet_size`-byte packet
    /// per timestamp over `duration` (zero for an empty duration).
    fn rate_bps(&self, packet_size: u32, duration: SimDuration) -> f64 {
        let secs = duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.len as f64 * packet_size as f64 * 8.0 / secs
    }

    /// Checks that the timestamps are in order and the last one lies inside
    /// `duration`; `what` names the sequence in the error.
    pub fn check(&self, what: &str, duration: SimDuration) -> Result<(), String> {
        if self.out_of_order {
            return Err(format!("{what} timestamps out of order"));
        }
        match self.iter().last() {
            Some(last) if last.as_nanos() > duration.as_nanos() => {
                Err(format!("{what} timestamp beyond duration"))
            }
            _ => Ok(()),
        }
    }
}

impl std::fmt::Debug for PackedTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A forward cursor over a [`PackedTimes`] that holds no borrow of it, so
/// its owner can keep both: [`Cursor::peek`] at the timestamp it is at,
/// [`Cursor::advance`] past it. A cursor walks the store it was made from.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cursor {
    /// The timestamp the cursor is at (`None` past the last).
    next: Option<SimTime>,
    /// Offset of the LEB128 value after `next` in the bytes.
    pos: usize,
    /// The timestamp that value steps from.
    prev: u64,
    /// Timestamps after `next`.
    left: usize,
}

impl Cursor {
    /// A cursor at the first timestamp of `times`.
    pub(crate) fn new(times: &PackedTimes) -> Self {
        let mut cursor = Cursor {
            left: times.len,
            ..Cursor::default()
        };
        cursor.advance(times);
        cursor
    }

    /// The timestamp the cursor is at (`None` past the last).
    #[inline]
    pub(crate) fn peek(&self) -> Option<SimTime> {
        self.next
    }

    /// Steps to the next timestamp of `times`, the store the cursor was
    /// made from.
    #[inline]
    pub(crate) fn advance(&mut self, times: &PackedTimes) {
        self.step(&times.bytes);
    }

    #[inline]
    fn step(&mut self, bytes: &[u8]) {
        if self.left == 0 {
            self.next = None;
            return;
        }
        self.left -= 1;
        self.prev = unzigzag(self.prev, self.varint(bytes));
        self.next = Some(SimTime::from_nanos(self.prev));
    }

    /// The LEB128 value at `pos`. Where eight bytes remain and the value
    /// ends inside them, it is read as one word: the first clear
    /// continuation bit gives its length, and its seven-bit groups are
    /// gathered without a branch per byte.
    #[inline]
    fn varint(&mut self, bytes: &[u8]) -> u64 {
        if let Some(word) = bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let stops = !word & STOPS;
            if stops != 0 {
                let n = stops.trailing_zeros() / 8 + 1;
                self.pos += n as usize;
                let mut x = word & (u64::MAX >> (64 - 8 * n)) & !STOPS;
                x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
                x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
                return (x & 0x0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
            }
        }
        let (mut z, mut shift) = (0u64, 0);
        loop {
            let byte = bytes[self.pos];
            self.pos += 1;
            z |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return z;
            }
            shift += 7;
        }
    }
}

/// The timestamps of a [`PackedTimes`], in stored order.
pub struct Unpack<'a> {
    bytes: &'a [u8],
    at: Cursor,
}

impl Iterator for Unpack<'_> {
    type Item = SimTime;

    #[inline]
    fn next(&mut self) -> Option<SimTime> {
        let t = self.at.next?;
        self.at.step(self.bytes);
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.at.left + usize::from(self.at.next.is_some());
        (left, Some(left))
    }
}

/// `#[serde(with = "ccfuzz_netsim::trace::packed_times")]`: a
/// [`PackedTimes`] reads and writes the JSON array of absolute nanoseconds a
/// `Vec<SimTime>` would.
pub mod packed_times {
    use super::PackedTimes;
    use crate::time::SimTime;
    use serde::value::DeError;
    use serde::{Deserialize, Reader, Serialize, Writer};

    /// Writes the timestamps as a JSON array of nanoseconds.
    pub fn serialize(times: &PackedTimes, w: &mut Writer<'_>) {
        w.begin_array();
        for t in times.iter() {
            w.element();
            t.serialize(w);
        }
        w.end_array();
    }

    /// Reads a JSON array of nanoseconds, packed as given.
    pub fn deserialize(r: &mut Reader<'_>) -> Result<PackedTimes, DeError> {
        Ok(PackedTimes::pack(&Vec::<SimTime>::deserialize(r)?))
    }
}

/// A bottleneck service curve: sorted per-packet transmission opportunities.
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LinkTrace {
    /// Sorted timestamps; each is an opportunity to transmit one packet.
    #[serde(with = "packed_times")]
    opportunities: PackedTimes,
    /// Total duration the trace describes (the link is silent after the last
    /// opportunity unless the trace is replayed cyclically by the caller).
    duration: SimDuration,
}

impl LinkTrace {
    /// Builds a trace from transmission opportunities, sorting them.
    pub fn new(mut opportunities: Vec<SimTime>, duration: SimDuration) -> Self {
        opportunities.sort_unstable();
        LinkTrace::packed(PackedTimes::pack(&opportunities), duration)
    }

    /// A trace over packed opportunities, sharing their bytes when they are
    /// in order (sorting a copy otherwise).
    pub fn packed(opportunities: PackedTimes, duration: SimDuration) -> Self {
        LinkTrace {
            opportunities: opportunities.into_sorted(),
            duration,
        }
    }

    /// A constant-rate trace: packets of `packet_size` bytes at `rate_bps`
    /// over `duration`, evenly spaced.
    pub fn constant_rate(rate_bps: u64, packet_size: u32, duration: SimDuration) -> Self {
        let interval = SimDuration::transmission_time(packet_size as u64, rate_bps);
        if interval == SimDuration::MAX || interval == SimDuration::ZERO {
            return LinkTrace::new(Vec::new(), duration);
        }
        let mut opportunities = Vec::new();
        let mut t = SimTime::ZERO + interval;
        while t.as_nanos() <= duration.as_nanos() {
            opportunities.push(t);
            t += interval;
        }
        LinkTrace::new(opportunities, duration)
    }

    /// The transmission opportunities, packed.
    pub fn times(&self) -> &PackedTimes {
        &self.opportunities
    }

    /// The transmission opportunities, in order.
    pub fn iter(&self) -> Unpack<'_> {
        self.opportunities.iter()
    }

    /// Number of transmission opportunities (i.e. total packets the link can
    /// serve over the trace).
    pub fn len(&self) -> usize {
        self.opportunities.len()
    }

    /// `true` when the link never transmits.
    pub fn is_empty(&self) -> bool {
        self.opportunities.is_empty()
    }

    /// The duration the trace covers.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Average service rate in bits per second for `packet_size`-byte packets.
    pub fn average_rate_bps(&self, packet_size: u32) -> f64 {
        self.opportunities.rate_bps(packet_size, self.duration)
    }

    /// Cumulative packet count at each of `samples` evenly spaced instants —
    /// the curve plotted in Figure 3 of the paper.
    pub fn cumulative_curve(&self, samples: usize) -> Vec<(SimTime, u64)> {
        let samples = samples.max(2);
        let mut out = Vec::with_capacity(samples);
        let total_ns = self.duration.as_nanos().max(1);
        let mut opportunities = self.iter().peekable();
        let mut count = 0u64;
        for s in 0..samples {
            let t_ns = total_ns * s as u64 / (samples as u64 - 1);
            let t = SimTime::from_nanos(t_ns);
            while opportunities.next_if(|&o| o <= t).is_some() {
                count += 1;
            }
            out.push((t, count));
        }
        out
    }

    /// Checks internal invariants (sorted, within duration). Used by tests
    /// and by the fuzzer after mutation operators run.
    pub fn validate(&self) -> Result<(), String> {
        self.opportunities.check("link trace", self.duration)
    }
}

/// A cross-traffic injection pattern: sorted injection timestamps.
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficTrace {
    /// Sorted timestamps; each injects one cross-traffic packet.
    #[serde(with = "packed_times")]
    injections: PackedTimes,
    /// Duration of the scenario.
    duration: SimDuration,
}

impl TrafficTrace {
    /// Builds a trace from injection timestamps, sorting them.
    pub fn new(mut injections: Vec<SimTime>, duration: SimDuration) -> Self {
        injections.sort_unstable();
        TrafficTrace::packed(PackedTimes::pack(&injections), duration)
    }

    /// A trace over packed injections, sharing their bytes when they are in
    /// order (sorting a copy otherwise).
    pub fn packed(injections: PackedTimes, duration: SimDuration) -> Self {
        TrafficTrace {
            injections: injections.into_sorted(),
            duration,
        }
    }

    /// An empty trace (no cross traffic) over `duration`.
    pub fn empty(duration: SimDuration) -> Self {
        TrafficTrace {
            injections: PackedTimes::default(),
            duration,
        }
    }

    /// A periodic burst pattern: every `period`, inject `burst_len` packets
    /// back-to-back spaced by `spacing`. Useful for constructing the
    /// low-rate-attack-style baselines from §4.3 by hand.
    pub fn periodic_bursts(
        period: SimDuration,
        burst_len: usize,
        spacing: SimDuration,
        duration: SimDuration,
    ) -> Self {
        let mut injections = Vec::new();
        if period == SimDuration::ZERO {
            return TrafficTrace::empty(duration);
        }
        let mut burst_start = SimTime::ZERO;
        while burst_start.as_nanos() < duration.as_nanos() {
            for i in 0..burst_len {
                let t = burst_start + SimDuration::from_nanos(spacing.as_nanos() * i as u64);
                if t.as_nanos() < duration.as_nanos() {
                    injections.push(t);
                }
            }
            burst_start += period;
        }
        TrafficTrace::new(injections, duration)
    }

    /// The injection timestamps, packed.
    pub fn times(&self) -> &PackedTimes {
        &self.injections
    }

    /// The injection timestamps, in order.
    pub fn iter(&self) -> Unpack<'_> {
        self.injections.iter()
    }

    /// Number of cross-traffic packets.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// `true` when there is no cross traffic.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The duration the trace covers.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Average cross-traffic rate in bits per second for `packet_size`-byte packets.
    pub fn average_rate_bps(&self, packet_size: u32) -> f64 {
        self.injections.rate_bps(packet_size, self.duration)
    }

    /// Checks internal invariants (sorted, within duration).
    pub fn validate(&self) -> Result<(), String> {
        self.injections.check("traffic trace", self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_trace_has_expected_count_and_rate() {
        // 12 Mbps with 1500-byte packets = 1000 packets/s.
        let tr = LinkTrace::constant_rate(12_000_000, 1500, SimDuration::from_secs(5));
        assert_eq!(tr.len(), 5_000);
        let rate = tr.average_rate_bps(1500);
        assert!((rate - 12e6).abs() / 12e6 < 0.01, "rate {rate}");
        tr.validate().unwrap();
    }

    #[test]
    fn constant_rate_zero_rate_is_empty() {
        let tr = LinkTrace::constant_rate(0, 1500, SimDuration::from_secs(1));
        assert!(tr.is_empty());
        assert_eq!(tr.average_rate_bps(1500), 0.0);
    }

    #[test]
    fn new_sorts_opportunities() {
        let tr = LinkTrace::new(
            vec![
                SimTime::from_millis(30),
                SimTime::from_millis(10),
                SimTime::from_millis(20),
            ],
            SimDuration::from_millis(100),
        );
        let opp = tr.times().unpack();
        assert!(opp.windows(2).all(|w| w[0] <= w[1]));
        tr.validate().unwrap();
    }

    #[test]
    fn cumulative_curve_monotone_and_complete() {
        let tr = LinkTrace::constant_rate(12_000_000, 1500, SimDuration::from_secs(2));
        let curve = tr.cumulative_curve(50);
        assert_eq!(curve.len(), 50);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(curve.last().unwrap().1, tr.len() as u64);
        assert_eq!(curve.first().unwrap().1, 0);
    }

    #[test]
    fn periodic_bursts_shape() {
        let tr = TrafficTrace::periodic_bursts(
            SimDuration::from_millis(1_000),
            5,
            SimDuration::from_micros(100),
            SimDuration::from_secs(3),
        );
        assert_eq!(tr.len(), 15);
        tr.validate().unwrap();
        // Burst starts at 0, 1s, 2s.
        assert_eq!(tr.times().unpack()[0], SimTime::ZERO);
        assert_eq!(tr.times().unpack()[5], SimTime::from_millis(1_000));
        assert_eq!(tr.times().unpack()[10], SimTime::from_millis(2_000));
    }

    #[test]
    fn periodic_bursts_zero_period_is_empty() {
        let tr = TrafficTrace::periodic_bursts(
            SimDuration::ZERO,
            5,
            SimDuration::from_micros(100),
            SimDuration::from_secs(3),
        );
        assert!(tr.is_empty());
    }

    #[test]
    fn empty_traces_are_valid_and_rate_zero() {
        let lt = LinkTrace::new(Vec::new(), SimDuration::from_secs(2));
        lt.validate().unwrap();
        assert!(lt.is_empty());
        assert_eq!(lt.len(), 0);
        assert_eq!(lt.average_rate_bps(1500), 0.0);
        // The cumulative curve of an empty trace is a flat zero line.
        let curve = lt.cumulative_curve(10);
        assert_eq!(curve.len(), 10);
        assert!(curve.iter().all(|(_, count)| *count == 0));

        let tt = TrafficTrace::empty(SimDuration::from_secs(2));
        tt.validate().unwrap();
        assert!(tt.is_empty());
        assert_eq!(tt.average_rate_bps(1500), 0.0);

        // Degenerate duration: rates divide by zero seconds and must not
        // produce NaN/inf.
        let zero_dur = TrafficTrace::empty(SimDuration::ZERO);
        assert_eq!(zero_dur.average_rate_bps(1500), 0.0);
        assert_eq!(
            LinkTrace::new(Vec::new(), SimDuration::ZERO).average_rate_bps(1500),
            0.0
        );
    }

    #[test]
    fn single_entry_traces_roundtrip_and_measure() {
        // One opportunity exactly on the duration boundary is valid.
        let at = SimTime::from_secs_f64(1.0);
        let lt = LinkTrace::new(vec![at], SimDuration::from_secs(1));
        lt.validate().unwrap();
        assert_eq!(lt.len(), 1);
        // 1 packet of 1500 B over 1 s = 12 kbps.
        assert!((lt.average_rate_bps(1500) - 12_000.0).abs() < 1e-9);
        let curve = lt.cumulative_curve(5);
        assert_eq!(curve.first().unwrap().1, 0);
        assert_eq!(curve.last().unwrap().1, 1);

        let tt = TrafficTrace::new(vec![at], SimDuration::from_secs(1));
        tt.validate().unwrap();
        assert_eq!(tt.len(), 1);
        let json = serde_json::to_string(&tt).unwrap();
        let back: TrafficTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(tt, back);
        // One nanosecond beyond the duration is rejected.
        let beyond = TrafficTrace {
            injections: PackedTimes::pack(&[at + SimDuration::from_nanos(1)]),
            duration: SimDuration::from_secs(1),
        };
        assert!(beyond.validate().is_err());
    }

    #[test]
    fn back_to_back_bursts_at_one_timestamp_are_legal_and_stable() {
        // Duplicate timestamps (a burst with zero spacing) are a legal
        // trace: sorting is stable about them, validation accepts them,
        // and they survive a serde roundtrip verbatim.
        let t0 = SimTime::from_millis(10);
        let tt = TrafficTrace::new(
            vec![t0, t0, t0, SimTime::from_millis(5)],
            SimDuration::from_millis(50),
        );
        tt.validate().unwrap();
        assert_eq!(tt.len(), 4);
        assert_eq!(tt.times().unpack()[0], SimTime::from_millis(5));
        assert_eq!(&tt.times().unpack()[1..], &[t0, t0, t0]);
        let back: TrafficTrace =
            serde_json::from_str(&serde_json::to_string(&tt).unwrap()).unwrap();
        assert_eq!(tt, back);

        // periodic_bursts with zero spacing lands the whole burst on one
        // timestamp.
        let burst = TrafficTrace::periodic_bursts(
            SimDuration::from_millis(20),
            3,
            SimDuration::ZERO,
            SimDuration::from_millis(40),
        );
        assert_eq!(burst.len(), 6);
        assert_eq!(&burst.times().unpack()[..3], &[SimTime::ZERO; 3]);
        assert_eq!(&burst.times().unpack()[3..], &[SimTime::from_millis(20); 3]);
        burst.validate().unwrap();

        // Link traces accept duplicate opportunities the same way (two
        // packets servable at one instant).
        let lt = LinkTrace::new(vec![t0, t0], SimDuration::from_millis(50));
        lt.validate().unwrap();
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let tr = LinkTrace {
            opportunities: PackedTimes::pack(&[SimTime::from_secs_f64(10.0)]),
            duration: SimDuration::from_secs(5),
        };
        assert_eq!(
            tr.validate().unwrap_err(),
            "link trace timestamp beyond duration"
        );
        // Deserialized JSON is held as given, so validation sees the order.
        let tt: TrafficTrace =
            serde_json::from_str(r#"{"injections":[10000000,5000000],"duration":5000000000}"#)
                .unwrap();
        assert_eq!(
            tt.validate().unwrap_err(),
            "traffic trace timestamps out of order"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let tr = LinkTrace::constant_rate(12_000_000, 1500, SimDuration::from_millis(500));
        let json = serde_json::to_string(&tr).unwrap();
        let back: LinkTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(tr, back);

        let tt = TrafficTrace::periodic_bursts(
            SimDuration::from_millis(200),
            3,
            SimDuration::from_micros(50),
            SimDuration::from_secs(1),
        );
        let json = serde_json::to_string(&tt).unwrap();
        let back: TrafficTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(tt, back);
    }

    #[test]
    fn packing_takes_three_bytes_a_millisecond_gap_and_is_exact_at_the_extremes() {
        // A 1 ms step zigzags to 2,000,000 < 2^21: three LEB128 bytes.
        let tr = LinkTrace::constant_rate(12_000_000, 1500, SimDuration::from_secs(5));
        assert_eq!(tr.times().bytes.len(), 3 * tr.len());
        assert_eq!(PackedTimes::pack(&tr.times().unpack()), *tr.times());
        // Extremes round-trip through the ten-byte encoding, out of order.
        let edges = [u64::MAX, 0, u64::MAX - 1, 1, 1 << 63].map(SimTime::from_nanos);
        let packed = PackedTimes::pack(&edges);
        assert_eq!(packed.unpack(), edges);
        assert_eq!(format!("{packed:?}"), format!("{:?}", edges.to_vec()));
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        assert_eq!(packed.into_sorted().unpack(), sorted);
    }

    #[test]
    fn a_sorted_store_is_shared_and_an_unsorted_one_is_sorted_into_a_copy() {
        let ms =
            |v: &[u64]| -> Vec<SimTime> { v.iter().map(|&m| SimTime::from_millis(m)).collect() };
        let dur = SimDuration::from_millis(100);
        let sorted = PackedTimes::pack(&ms(&[1, 1, 7, 30]));
        let trace = LinkTrace::packed(sorted.clone(), dur);
        assert!(Arc::ptr_eq(&trace.times().bytes, &sorted.bytes));
        let unsorted = PackedTimes::pack(&ms(&[30, 1, 7, 1]));
        let trace = TrafficTrace::packed(unsorted.clone(), dur);
        assert!(!Arc::ptr_eq(&trace.times().bytes, &unsorted.bytes));
        assert_eq!(*trace.times(), sorted);
        assert_eq!(trace, TrafficTrace::new(ms(&[30, 1, 7, 1]), dur));
        trace.validate().unwrap();
    }

    #[test]
    fn a_cursor_walks_what_iteration_yields() {
        let tr = LinkTrace::new(
            [5, 0, 0, 9, 300, 2].map(SimTime::from_micros).to_vec(),
            SimDuration::from_millis(1),
        );
        let mut cursor = Cursor::new(tr.times());
        let mut walked = Vec::new();
        while let Some(t) = cursor.peek() {
            assert_eq!(cursor.peek(), Some(t), "peeking does not move");
            walked.push(t);
            cursor.advance(tr.times());
        }
        cursor.advance(tr.times());
        assert_eq!(cursor.peek(), None, "past the end it stays there");
        assert_eq!(walked, tr.times().unpack());
        assert_eq!(Cursor::new(&PackedTimes::default()).peek(), None);
    }
}
