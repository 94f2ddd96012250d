//! Counters, histograms and quantile sketches.
//!
//! Every row of every reproduced table/figure is assembled from these
//! primitives. They are intentionally simple: plain accumulation, no
//! interior mutability, `Default`-constructible, and mergeable so that
//! per-bank statistics can be folded into system totals.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use sdpcm_engine::Counter;
///
/// let mut writes = Counter::default();
/// writes.add(3);
/// writes.inc();
/// assert_eq!(writes.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Folds another counter into this one.
    pub fn merge(&mut self, other: Counter) {
        self.0 += other.0;
    }

    /// This counter as a fraction of `denom` (0 when `denom` is 0).
    #[must_use]
    pub fn per(self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.0 as f64 / denom as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A histogram over `u64` observations with unit-width integer buckets up
/// to a cap; larger values land in an overflow bucket.
///
/// Used for e.g. "WD errors per line write" (Figure 4), where the paper
/// reports both the average and the maximum.
///
/// # Examples
///
/// ```
/// use sdpcm_engine::Histogram;
///
/// let mut h = Histogram::with_cap(16);
/// h.record(0);
/// h.record(2);
/// h.record(2);
/// assert_eq!(h.count_at(2), 2);
/// assert_eq!(h.max_observed(), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
    max_seen: Option<u64>,
}

impl Histogram {
    /// Creates a histogram with unit buckets `0..cap` plus overflow.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_cap(cap: usize) -> Histogram {
        assert!(cap > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; cap],
            overflow: 0,
            total: 0,
            sum: 0,
            max_seen: None,
        }
    }

    /// Records an observation.
    pub fn record(&mut self, v: u64) {
        if (v as usize) < self.buckets.len() {
            self.buckets[v as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += v;
        self.max_seen = Some(self.max_seen.map_or(v, |m| m.max(v)));
    }

    /// Number of observations equal to `v` (0 if `v` is in overflow).
    #[must_use]
    pub fn count_at(&self, v: u64) -> u64 {
        self.buckets.get(v as usize).copied().unwrap_or(0)
    }

    /// Observations beyond the bucket cap.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest observation so far.
    #[must_use]
    pub fn max_observed(&self) -> Option<u64> {
        self.max_seen
    }

    /// Folds another histogram (same cap) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket caps differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "cannot merge histograms with different caps"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = match (self.max_seen, other.max_seen) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A log₂-bucketed quantile sketch for latency-like values.
///
/// Values land in bucket `⌊log₂(v)⌋` (64 buckets cover all of `u64`), so
/// quantiles are exact to within a factor of 2 at any scale with O(1)
/// memory — plenty for tail-latency reporting (p95/p99 of read
/// latencies), where the interesting differences are multiples.
///
/// # Examples
///
/// ```
/// use sdpcm_engine::stats::QuantileSketch;
///
/// let mut q = QuantileSketch::new();
/// for v in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 8000] {
///     q.record(v);
/// }
/// assert!(q.quantile(0.5) < 256);
/// assert!(q.quantile(0.99) >= 4096.0 as u64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: [u64; 64],
    total: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    #[must_use]
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: [0; 64],
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let idx = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// An upper bound of the `q`-quantile (`0 < q ≤ 1`): the top of the
    /// bucket containing it. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
        if self.total == 0 {
            return 0;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    /// Folds another sketch into this one.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.total += other.total;
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

/// Geometric mean of a slice of positive values; 0 for an empty slice.
///
/// The paper's speedup bars are summarized with a geometric mean
/// ("gmean" in Figure 11).
///
/// # Panics
///
/// Panics if any value is not strictly positive.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.per(20) - 0.5).abs() < 1e-12);
        assert_eq!(c.per(0), 0.0);
        let mut d = Counter::new();
        d.add(5);
        c.merge(d);
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn histogram_counts() {
        let mut h = Histogram::with_cap(4);
        for v in [0, 1, 1, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.count_at(1), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max_observed(), Some(9));
        assert!((h.mean() - 14.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::with_cap(4);
        let mut b = Histogram::with_cap(4);
        a.record(1);
        b.record(2);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_at(2), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.max_observed(), Some(7));
    }

    #[test]
    #[should_panic(expected = "different caps")]
    fn histogram_merge_cap_mismatch_panics() {
        let mut a = Histogram::with_cap(4);
        let b = Histogram::with_cap(8);
        a.merge(&b);
    }

    #[test]
    fn quantile_sketch_orders_scales() {
        let mut q = QuantileSketch::new();
        for _ in 0..90 {
            q.record(400);
        }
        for _ in 0..10 {
            q.record(70_000);
        }
        assert_eq!(q.total(), 100);
        let p50 = q.quantile(0.5);
        let p99 = q.quantile(0.99);
        assert!((400..1024).contains(&p50), "p50={p50}");
        assert!(p99 >= 65_536, "p99={p99}");
        assert!(q.quantile(1.0) >= p99);
    }

    #[test]
    fn quantile_sketch_empty_and_merge() {
        let mut a = QuantileSketch::new();
        assert_eq!(a.quantile(0.5), 0);
        a.record(8);
        let mut b = QuantileSketch::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert!(a.quantile(1.0) >= 1_000_000);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_zero_panics() {
        let _ = QuantileSketch::new().quantile(0.0);
    }

    #[test]
    fn gmean() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
