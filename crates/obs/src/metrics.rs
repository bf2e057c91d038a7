//! Lock-free metric primitives: counters, gauges and log-bucketed
//! histograms.
//!
//! Everything here is built for the campaign hot path: recording is a
//! handful of relaxed atomic operations, and aggregation happens only when
//! a snapshot is taken. None of the types allocate after
//! construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Values `0..EXACT_LIMIT` get one bucket
/// each; everything above is bucketed at 4 sub-buckets per octave, which
/// spans the full `u64` range with a relative error below 25 %.
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Values below this threshold are counted exactly (one bucket per value).
const EXACT_LIMIT: u64 = 16;

/// Maps a value to its histogram bucket index.
///
/// `0..16` map to themselves; larger values map to
/// `16 + (exp - 4) * 4 + <top two mantissa bits>` where `exp` is the
/// position of the leading one bit. The largest `u64` lands in bucket 255.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < EXACT_LIMIT {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros() as u64; // >= 4
        let sub = (value >> (exp - 2)) & 0b11;
        (EXACT_LIMIT + (exp - 4) * 4 + sub) as usize
    }
}

/// The smallest value that maps to bucket `index` (the bucket's lower
/// bound; used as the representative value when reading percentiles).
pub fn bucket_floor(index: usize) -> u64 {
    if index < EXACT_LIMIT as usize {
        index as u64
    } else {
        let off = index as u64 - EXACT_LIMIT;
        let exp = 4 + off / 4;
        let sub = off % 4;
        (1u64 << exp) + sub * (1u64 << (exp - 2))
    }
}

/// A monotonically increasing counter (relaxed atomics; safe to hammer
/// from any number of threads).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge (stored as `f64` bits in an
/// `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the stored value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared log-bucketed histogram: 256 atomic buckets plus sum / count /
/// min / max, all updated with relaxed atomics, so any number of threads
/// may record into one histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; HISTOGRAM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (individual loads are
    /// relaxed; concurrent recording may skew a bucket by a few counts,
    /// which is fine for progress reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram, with percentile readers.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (`p` in `[0, 100]`): the rank-`ceil(p/100 *
    /// count)` value estimated by linear interpolation *within* the bucket
    /// that holds it (midpoint-rank convention), clamped to the observed
    /// min/max. Interpolation matters for reports: without it, two nearby
    /// quantiles that land in the same log bucket read back the identical
    /// bucket floor (the p95 == p99 degeneracy), whereas the interpolated
    /// estimates stay ordered. Exact below 16 (width-1 buckets interpolate
    /// to themselves); < 25 % relative error above. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        if target >= self.count {
            // The top rank is, by definition, the observed maximum.
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen;
            seen += n;
            if seen >= target {
                let lo = bucket_floor(i);
                let hi = if i + 1 < HISTOGRAM_BUCKETS {
                    bucket_floor(i + 1)
                } else {
                    u64::MAX
                };
                // Rank position inside the bucket, at the midpoint of its
                // slot (so one value in a bucket estimates the bucket's
                // middle, and distinct ranks give distinct estimates).
                let pos = (target - before) as f64 - 0.5;
                let est = lo as f64 + (hi - lo) as f64 * (pos / n as f64);
                return (est as u64).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0usize;
        for exp in 0..64 {
            let v = 1u64 << exp;
            for probe in [v, v + v / 3, v + v / 2, (v - 1).max(1)] {
                let b = bucket_index(probe);
                assert!(b < HISTOGRAM_BUCKETS);
                let _ = last;
                last = b;
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // bucket_floor inverts bucket_index on bucket lower bounds.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [17u64, 100, 999, 12_345, 1 << 20, u64::MAX / 3] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v);
            assert!(
                (v - floor) as f64 / v as f64 <= 0.25,
                "value {v} floor {floor}"
            );
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_records_and_reads_percentiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        let p50 = s.percentile(50.0);
        assert!((40..=50).contains(&p50), "p50 {p50}");
        let p99 = s.percentile(99.0);
        assert!((96..=100).contains(&p99), "p99 {p99}");
        assert_eq!(s.percentile(100.0), 100);
        // Exact range: small values read back exactly.
        let h = Histogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.snapshot().percentile(50.0), 3);
        assert_eq!(h.snapshot().percentile(99.0), 7);
    }

    #[test]
    fn nearby_quantiles_in_one_bucket_stay_ordered() {
        // 100 latency-like values spread across ~1.0–2.1 ms land in a
        // handful of wide log buckets; the bucket-floor reader collapsed
        // p95 and p99 to the same number. Interpolation keeps them apart.
        let h = Histogram::new();
        for i in 0..100u64 {
            h.record(1_048_576 + i * 10_486);
        }
        let s = h.snapshot();
        let p50 = s.percentile(50.0);
        let p95 = s.percentile(95.0);
        let p99 = s.percentile(99.0);
        assert!(p50 < p95, "p50 {p50} vs p95 {p95}");
        assert!(p95 < p99, "p95 {p95} vs p99 {p99}");
        // Estimates stay inside the observed range and near the truth
        // (bucket relative error bound).
        assert!((s.min..=s.max).contains(&p95));
        assert!((s.min..=s.max).contains(&p99));
        assert_eq!(s.percentile(100.0), s.max);
        // A constant distribution still reads back exactly (clamping).
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(42_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(95.0), 42_000_000);
        assert_eq!(s.percentile(99.0), 42_000_000);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 39_999);
    }
}
