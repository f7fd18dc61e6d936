//! Deterministic RNG plumbing.
//!
//! Every stochastic component (loss models, workload generators, jitter) takes
//! a [`DetRng`] seeded from the experiment seed, so that whole 20-day fleet
//! simulations replay bit-identically from a single `u64`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic, cheaply-forkable RNG.
///
/// Forking derives a child seed from the parent stream plus a label, so that
/// adding a new consumer of randomness in one component does not perturb the
/// random streams of unrelated components.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Seed a new root stream.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream for component `label`.
    pub fn fork(&self, label: &str) -> DetRng {
        // FNV-1a over the label, mixed with fresh output of the parent clone.
        // Cloning (not advancing) the parent keeps forks order-independent
        // relative to sibling forks created from the same snapshot.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut parent = self.inner.clone();
        let salt: u64 = parent.gen();
        DetRng::seed(h ^ salt.rotate_left(17))
    }

    /// Derive the `label`-th independent sub-stream of this generator.
    ///
    /// Where [`DetRng::fork`] names a child *component* ("workload",
    /// "loss"), `split` numbers child *workers*: shard `i` of a parallel
    /// fleet run draws from `rng.split(i)`. Like `fork`, it snapshots the
    /// parent instead of advancing it, so sibling splits taken from the
    /// same state are order-independent, and the same `(state, label)`
    /// pair always yields the same stream.
    pub fn split(&self, label: u64) -> DetRng {
        let mut parent = self.inner.clone();
        let salt: u64 = parent.gen();
        // SplitMix64 finalizer over the salt mixed with the golden-ratio
        // spaced label: adjacent labels land in unrelated seed regions.
        let mut z = salt ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng::seed(z ^ (z >> 31))
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `0.0..=1.0`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// Standard-normal sample (Box–Muller).
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.inner.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + stddev * z
    }

    /// Log-normal sample parameterized by the mean and stddev of the
    /// *underlying* normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.inner.gen_range(0..items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Raw u64.
    pub fn u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

/// Precomputed inverse-CDF table for Zipf sampling.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build a table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the table is empty (never: construction requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `[0, n)`; rank 0 is most popular.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let root = DetRng::seed(1);
        let mut a = root.fork("loss");
        let mut b = root.fork("workload");
        let same = (0..32).all(|_| a.u64() == b.u64());
        assert!(!same);
    }

    #[test]
    fn forks_are_reproducible() {
        let mut x = DetRng::seed(99).fork("x");
        let mut y = DetRng::seed(99).fork("x");
        for _ in 0..32 {
            assert_eq!(x.u64(), y.u64());
        }
    }

    #[test]
    fn splits_with_different_labels_differ() {
        let root = DetRng::seed(4);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let same = (0..32).all(|_| a.u64() == b.u64());
        assert!(!same);
    }

    #[test]
    fn splits_are_reproducible_and_pure() {
        let root = DetRng::seed(17);
        let mut x = root.split(5);
        let mut y = root.split(5);
        for _ in 0..32 {
            assert_eq!(x.u64(), y.u64());
        }
        // Splitting never advances the parent stream.
        let mut after = root.clone();
        let mut fresh = DetRng::seed(17);
        assert_eq!(after.u64(), fresh.u64());
    }

    #[test]
    fn split_differs_from_fork_root() {
        let root = DetRng::seed(23);
        let mut split0 = root.split(0);
        let mut rootc = root.clone();
        let same = (0..32).all(|_| split0.u64() == rootc.u64());
        assert!(!same);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exp_mean_close() {
        let mut r = DetRng::seed(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let table = ZipfTable::new(100, 1.0);
        let mut r = DetRng::seed(11);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[table.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let table = ZipfTable::new(50, 0.8);
        let total: f64 = (0..50).map(|k| table.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed(2);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_mean_close() {
        let mut r = DetRng::seed(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.normal(5.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
    }
}
