//! Fixed-bucket, exactly-mergeable histograms.
//!
//! The merge of two histograms must be associative and commutative *bit for
//! bit*, because fleet shards record into private histograms that the runner
//! merges in canonical order and the result is asserted identical to a
//! serial run.  Bucket counts are `u64` (integer addition is exact) and the
//! running sum is kept in fixed-point microseconds as an `i128` — floating
//! point addition is commutative but **not** associative, so an `f64` sum
//! would break `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` by a few ulps.

/// Default bucket upper bounds for latency-style observations, in
/// milliseconds.  Spans sub-millisecond link hops up to the 30 s session
/// timeout; anything above the last bound lands in the overflow bucket.
pub(crate) const DEFAULT_MS_BOUNDS: &[f64] = &[
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
    30000.0,
];

/// Bucket upper bounds for queue-depth observations, in packets.
pub const QUEUE_DEPTH_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Scale factor between observed values and the fixed-point sum: one
/// observation unit (a millisecond, a packet) is stored as 1000 ticks.
const FIXED_POINT_SCALE: f64 = 1000.0;

/// A histogram with a static set of bucket bounds and an exact fixed-point
/// sum, so that merging is associative and commutative at the bit level.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedHistogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    pub(crate) counts: Vec<u64>,
    count: u64,
    /// Sum of observations in fixed-point (value × 1000), exact under merge.
    pub(crate) sum_fp: i128,
    /// Smallest observation in fixed-point; `i64::MAX` when empty.
    pub(crate) min_fp: i64,
    /// Largest observation in fixed-point; `i64::MIN` when empty.
    pub(crate) max_fp: i64,
}

impl FixedHistogram {
    /// An empty histogram over the given bucket upper bounds.
    ///
    /// `bounds` must be non-empty, finite and strictly increasing.
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(!bounds.is_empty());
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        FixedHistogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum_fp: 0,
            min_fp: i64::MAX,
            max_fp: i64::MIN,
        }
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Record one observation.  Non-finite values are coerced to zero so a
    /// stray NaN cannot poison determinism.
    pub fn observe(&mut self, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        let fp = (v * FIXED_POINT_SCALE).round().clamp(i64::MIN as f64, i64::MAX as f64) as i64;
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_fp += i128::from(fp);
        self.min_fp = self.min_fp.min(fp);
        self.max_fp = self.max_fp.max(fp);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or `None` when empty.  Derived from the exact
    /// fixed-point sum, so it is identical however the histogram was merged.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum_fp as f64 / FIXED_POINT_SCALE / self.count as f64)
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min_fp as f64 / FIXED_POINT_SCALE)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_fp as f64 / FIXED_POINT_SCALE)
    }

    /// Approximate quantile (0.0 ≤ q ≤ 1.0) read off the bucket bounds: the
    /// upper bound of the bucket containing the q-th observation.  Returns
    /// `None` when empty.  Overflow-bucket hits report the recorded maximum.
    pub fn approx_quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max_fp as f64 / FIXED_POINT_SCALE
                });
            }
        }
        Some(self.max_fp as f64 / FIXED_POINT_SCALE)
    }

    /// Fold `other` into `self`.  Both histograms must share the same bucket
    /// bounds; merging is exact, associative and commutative.
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_fp += other.sum_fp;
        self.min_fp = self.min_fp.min(other.min_fp);
        self.max_fp = self.max_fp.max(other.max_fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_buckets_and_stats() {
        let mut h = FixedHistogram::new(DEFAULT_MS_BOUNDS);
        h.observe(0.3);
        h.observe(1.0); // boundary lands in its own bucket (v <= bound)
        h.observe(150.0);
        h.observe(99999.0); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts.last(), Some(&1)); // overflow
        assert_eq!(h.min(), Some(0.3));
        assert_eq!(h.max(), Some(99999.0));
        let mean = h.mean().unwrap();
        assert!((mean - (0.3 + 1.0 + 150.0 + 99999.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn nan_is_coerced_to_zero() {
        let mut h = FixedHistogram::new(DEFAULT_MS_BOUNDS);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn merge_is_exact() {
        let mut a = FixedHistogram::new(DEFAULT_MS_BOUNDS);
        let mut b = FixedHistogram::new(DEFAULT_MS_BOUNDS);
        for i in 0..100 {
            a.observe(i as f64 * 0.7);
            b.observe(i as f64 * 1.3);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 200);
    }

    #[test]
    fn quantile_reads_bucket_bound() {
        let mut h = FixedHistogram::new(DEFAULT_MS_BOUNDS);
        for _ in 0..99 {
            h.observe(3.0);
        }
        h.observe(400.0);
        assert_eq!(h.approx_quantile(0.5), Some(5.0));
        assert_eq!(h.approx_quantile(1.0), Some(500.0));
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = FixedHistogram::new(DEFAULT_MS_BOUNDS);
        let b = FixedHistogram::new(QUEUE_DEPTH_BOUNDS);
        a.merge(&b);
    }
}
