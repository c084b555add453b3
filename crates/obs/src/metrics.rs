//! The three metric primitives: monotone counters, settable gauges,
//! and fixed-boundary histograms with integer-pure snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of bounded histogram buckets (power-of-two upper edges).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Total histogram slots: the bounded buckets plus one overflow slot.
pub const HISTOGRAM_SLOTS: usize = HISTOGRAM_BUCKETS + 1;

/// Exponent of the first bucket's upper edge: bucket `i` covers
/// `(2^(i-1-SCALE), 2^(i-SCALE)]`, so the bounded range spans
/// `2^-30` (~1 ns when recording seconds) through `2^33` (~8.6e9 —
/// comfortably past any per-cell iteration count).
const SCALE: i32 = 30;

/// Upper edge of bounded bucket `i` (`i < HISTOGRAM_BUCKETS`).
fn bucket_edge(i: usize) -> f64 {
    2f64.powi(i as i32 - SCALE)
}

/// The slot a value lands in. Non-finite and non-positive values
/// clamp into bucket 0; values past the last edge go to the overflow
/// slot.
fn slot_for(value: f64) -> usize {
    if value.is_nan() || value <= 0.0 {
        return 0;
    }
    for i in 0..HISTOGRAM_BUCKETS {
        if value <= bucket_edge(i) {
            return i;
        }
    }
    HISTOGRAM_BUCKETS
}

/// A monotone event counter. `get` is exact once the writing threads
/// have been joined (or otherwise synchronized); concurrent reads see
/// some valid intermediate total.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable level (queue depth, live jobs). Not monotone; decrement
/// saturates at zero rather than wrapping.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-boundary histogram: power-of-two bucket edges, one atomic
/// count per bucket, **no sum/mean accumulator**. Keeping the state
/// integer-pure is deliberate: bucket increments commute exactly, so
/// a snapshot is independent of thread interleaving and snapshot
/// merges are associative and commutative bit-for-bit (an `f64` sum
/// would be neither).
#[derive(Debug)]
pub struct Histogram {
    slots: [AtomicU64; HISTOGRAM_SLOTS],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: f64) {
        self.slots[slot_for(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// An integer-pure copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .slots
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A histogram's bucket counts at one instant. Everything derivable
/// from it (count, quantile brackets) is a pure function of the
/// integer vector, so equality is exact and [`merge`](Self::merge) is
/// associative and commutative.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// One count per slot, `HISTOGRAM_SLOTS` long (the last slot is
    /// the overflow bucket).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot with the canonical slot count.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_SLOTS],
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Folds another snapshot in, slot by slot. The two sides must
    /// use the same bucket scheme (they always do within one protocol
    /// version).
    ///
    /// # Panics
    ///
    /// Panics if the slot counts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram snapshots from different bucket schemes"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The `(lower, upper]` edges of the bucket holding the
    /// `q`-quantile (nearest-rank). The true quantile of the recorded
    /// sample set always lies within the returned bracket; the
    /// overflow bucket's upper edge is `+inf`. Returns `(0, 0)` for
    /// an empty histogram.
    pub fn quantile_bounds(&self, q: f64) -> (f64, f64) {
        let n = self.count();
        if n == 0 {
            return (0.0, 0.0);
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let lower = if i == 0 { 0.0 } else { bucket_edge(i - 1) };
                let upper = if i < HISTOGRAM_BUCKETS {
                    bucket_edge(i)
                } else {
                    f64::INFINITY
                };
                return (lower, upper);
            }
        }
        unreachable!("cumulative reaches the total count");
    }

    /// Upper edge of the bucket bracketing the `q`-quantile.
    fn quantile(&self, q: f64) -> f64 {
        self.quantile_bounds(q).1
    }

    /// Median bracket's upper edge.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile bracket's upper edge.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile bracket's upper edge.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Upper edge of bounded bucket `i` — exposed so exposition
    /// writers can label buckets without re-deriving the scheme.
    pub fn edge(i: usize) -> f64 {
        bucket_edge(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_saturates() {
        let g = Gauge::new();
        g.set(3);
        g.inc();
        assert_eq!(g.get(), 4);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_brackets_simple_samples() {
        let h = Histogram::new();
        for v in [0.5, 0.5, 0.5, 2.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        let s = h.snapshot();
        let (lo, hi) = s.quantile_bounds(0.5);
        assert!(lo <= 0.5 && 0.5 <= hi, "median 0.5 outside ({lo}, {hi}]");
        let (lo, hi) = s.quantile_bounds(1.0);
        assert!(lo <= 2.0 && 2.0 <= hi, "max 2.0 outside ({lo}, {hi}]");
    }

    #[test]
    fn degenerate_values_land_in_the_edge_buckets() {
        let h = Histogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(0.0);
        h.record(f64::INFINITY);
        h.record(1e300);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 3, "non-positive and NaN clamp to bucket 0");
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS], 2, "huge values overflow");
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.quantile_bounds(0.5), (0.0, 0.0));
        assert_eq!(s.p99(), 0.0);
    }

    #[test]
    fn merge_adds_slotwise() {
        let a = Histogram::new();
        a.record(1.0);
        let b = Histogram::new();
        b.record(1.0);
        b.record(1e12);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.buckets[slot_for(1.0)], 2);
        assert_eq!(m.buckets[HISTOGRAM_BUCKETS], 1);
    }

    #[test]
    #[should_panic(expected = "different bucket schemes")]
    fn mismatched_merge_panics() {
        let mut a = HistogramSnapshot::empty();
        a.merge(&HistogramSnapshot {
            buckets: vec![0; 3],
        });
    }
}
