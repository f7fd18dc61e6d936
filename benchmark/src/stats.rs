//! Order statistics for the benchmark's own samples.
//!
//! Two containers: [`Samples`] keeps every value (tens to thousands of
//! them — units of work, frames) and [`Hist`] bins nanosecond timings
//! when a run produces millions (one per Brain call or node callback),
//! so memory stays flat however long the run measures.

/// The percentiles a tail may be reported at, in rising order, each with
/// the sample count at which ten samples lie beyond it (in whole numbers:
/// `100.0 * (1.0 - 0.9)` is a hair under ten).
const TAIL_STEPS: [(f64, u64); 4] = [
    (0.90, 100),
    (0.99, 1_000),
    (0.999, 10_000),
    (0.9999, 100_000),
];

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when not even p90 does (fewer than 100 samples): then only
/// the median is worth reporting.
pub fn tail_quantile(samples: u64) -> Option<f64> {
    TAIL_STEPS
        .iter()
        .rfind(|(_, needed)| samples >= *needed)
        .map(|&(q, _)| q)
}

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// rule: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Every sample kept.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        quantile_sorted(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// Sub-buckets per power of two: 1/64 ≈ 1.6 % bucket width.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (≈ 18 minutes) are representable.
const OCTAVES: usize = 40;

/// Log-linear histogram of nanosecond values.
///
/// A quantile is interpolated by rank inside its bucket, so it is a
/// continuous function of the samples rather than a bucket edge — two
/// runs whose medians differ by a nanosecond report different values.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; OCTAVES * SUB],
            total: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        // Values below SUB get one bucket each (exact); above, the top
        // SUB_BITS bits after the leading one pick the sub-bucket.
        if ns < SUB as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((ns >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        (octave * SUB + sub).min(OCTAVES * SUB - 1)
    }

    /// Lower edge and width of bucket `i`, in ns.
    fn bounds(i: usize) -> (f64, f64) {
        let (octave, sub) = (i / SUB, i % SUB);
        if octave == 0 {
            return (sub as f64, 1.0);
        }
        let width = (1u64 << (octave - 1)) as f64;
        ((SUB + sub) as f64 * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= rank {
                let (lo, width) = Self::bounds(i);
                return lo + width * ((rank - seen) / c);
            }
            seen += c;
        }
        let (lo, width) = Self::bounds(self.counts.len() - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(4), None);
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(8_000_000), Some(0.9999));
    }

    #[test]
    fn sorted_quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
    }

    #[test]
    fn hist_is_exact_below_sub_and_within_two_percent_above() {
        let mut h = Hist::default();
        for ns in 0..50u64 {
            h.record(ns);
        }
        assert!((h.quantile_ns(0.5) - 25.0).abs() <= 1.0);

        let mut h = Hist::default();
        for ns in (1_000..=100_000u64).step_by(7) {
            h.record(ns);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let want = 1_000.0 + q * 99_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() / want < 0.02,
                "q={q} got={got} want={want}"
            );
        }
    }

    #[test]
    fn hist_quantile_moves_with_a_single_sample() {
        // Interpolation inside a bucket: shifting mass changes the value
        // even when the bucket holding the quantile does not change.
        let mut a = Hist::default();
        let mut b = Hist::default();
        for _ in 0..100 {
            a.record(10_000);
            b.record(10_000);
        }
        b.record(10_000);
        b.record(1);
        assert_ne!(a.quantile_ns(0.5), b.quantile_ns(0.5));
    }

    #[test]
    fn hist_bucket_edges_are_contiguous() {
        for i in 0..(OCTAVES * SUB - 1) {
            let (lo, w) = Hist::bounds(i);
            let (next, _) = Hist::bounds(i + 1);
            assert_eq!(lo + w, next, "bucket {i}");
            assert_eq!(Hist::index(lo as u64), i);
        }
    }
}
