//! Statistics helpers used by the evaluation harness.
//!
//! The paper reports medians, percentile boxes (Fig. 11/12), CDFs (Fig. 8a)
//! and ratios. These helpers compute exactly those summaries.

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Incorporate one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance (0 when fewer than 2 samples).
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Smallest sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }
    /// Largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact empirical CDF / quantile estimator over stored samples.
///
/// Stores all samples; fine for the evaluation harness where sample counts are
/// bounded (≤ a few million f64s).
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Ecdf {
    /// Empty distribution.
    pub fn new() -> Self {
        Ecdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Add many samples.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        self.samples.extend(xs);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in Ecdf"));
            self.sorted = true;
        }
    }

    /// Quantile `q` in [0, 1] by the nearest-rank method
    /// (`⌈q·n⌉`-th smallest); NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let n = self.samples.len();
        let rank = (q * n as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(n - 1)]
    }

    /// Median (quantile 0.5).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ `x` (the CDF evaluated at `x`).
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&s| s <= x);
        n as f64 / self.samples.len() as f64
    }

    /// Mean of the samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Extract the paper's box-plot summary (Fig. 11): 20/25/50/75/80th pcrt.
    pub fn box5(&mut self) -> Quantiles {
        Quantiles {
            p20: self.quantile(0.20),
            p25: self.quantile(0.25),
            p50: self.quantile(0.50),
            p75: self.quantile(0.75),
            p80: self.quantile(0.80),
        }
    }

    /// Merge another distribution into this one.
    pub fn merge(&mut self, other: &Ecdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// The five percentiles the paper's box plots report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// 20th percentile.
    pub p20: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 80th percentile.
    pub p80: f64,
}

impl std::fmt::Display for Quantiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p20={:.1} p25={:.1} p50={:.1} p75={:.1} p80={:.1}",
            self.p20, self.p25, self.p50, self.p75, self.p80
        )
    }
}

/// Two-sample Welch t-test statistic; returns `(t, approximately_significant)`.
///
/// The paper reports p < 0.001 for the LiveNet-vs-Hier comparison (§6.2). We
/// flag significance when |t| exceeds 3.3 (two-sided p < 0.001 for large df),
/// which is the regime all our experiments operate in.
pub fn welch_t(a: &OnlineStats, b: &OnlineStats) -> (f64, bool) {
    if a.count() < 2 || b.count() < 2 {
        return (0.0, false);
    }
    let va = a.variance() / a.count() as f64;
    let vb = b.variance() / b.count() as f64;
    let denom = (va + vb).sqrt();
    if denom == 0.0 {
        return (0.0, false);
    }
    let t = (a.mean() - b.mean()) / denom;
    (t, t.abs() > 3.3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// OnlineStats merge is equivalent to a single pass.
        #[test]
        fn online_stats_merge_equivalence(
            a in prop::collection::vec(-1e6f64..1e6, 0..100),
            b in prop::collection::vec(-1e6f64..1e6, 0..100),
        ) {
            let mut whole = OnlineStats::new();
            for &x in a.iter().chain(&b) { whole.push(x); }
            let mut left = OnlineStats::new();
            let mut right = OnlineStats::new();
            for &x in &a { left.push(x); }
            for &x in &b { right.push(x); }
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            if whole.count() > 0 {
                prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
                prop_assert!((left.variance() - whole.variance()).abs() < 1.0);
            }
        }
    }

    #[test]
    fn online_stats_mean_var() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn ecdf_quantiles() {
        let mut e = Ecdf::new();
        e.extend((1..=100).map(|i| i as f64));
        assert_eq!(e.median(), 50.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert!((e.cdf_at(25.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ecdf_box5_ordering() {
        let mut e = Ecdf::new();
        e.extend((0..1000).map(|i| (i as f64 * 7.3) % 100.0));
        let b = e.box5();
        assert!(b.p20 <= b.p25 && b.p25 <= b.p50 && b.p50 <= b.p75 && b.p75 <= b.p80);
    }

    #[test]
    fn welch_t_detects_difference() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..1000 {
            a.push(100.0 + (i % 10) as f64);
            b.push(200.0 + (i % 10) as f64);
        }
        let (t, sig) = welch_t(&b, &a);
        assert!(t > 100.0);
        assert!(sig);
    }

    #[test]
    fn welch_t_same_distribution_not_significant() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..1000 {
            a.push((i % 17) as f64);
            b.push((i % 17) as f64);
        }
        let (_, sig) = welch_t(&a, &b);
        assert!(!sig);
    }
}
