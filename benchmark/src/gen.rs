//! Input generation: everything a workload feeds the program is drawn
//! here from `--seed`, with the benchmark's own generator, so the same
//! seed gives byte-identical inputs whatever the crates do with theirs.

/// SplitMix64: 64 bits of state, full period, good enough to shuffle
/// viewers and draw Zipf ranks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `label` keeps a workload's request mix
    /// independent of its join schedule under the same seed.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.f64() * n as f64) as u64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One Brain path request: indices into the workload's stream and edge
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub stream: u16,
    pub consumer: u16,
}

/// `count` requests: stream by Zipf(1.02) popularity, consumer uniform
/// over the edges.
pub fn brain_requests(seed: u64, count: usize, streams: usize, consumers: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, "brain-requests");
    let zipf = Zipf::new(streams, 1.02);
    (0..count)
        .map(|_| Request {
            stream: zipf.sample(&mut rng) as u16,
            consumer: rng.below(consumers as u64) as u16,
        })
        .collect()
}

/// One emulated viewer of the relay tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Viewer {
    /// Index of the consumer node it attaches to.
    pub consumer: u16,
    /// Index of the stream it watches.
    pub stream: u16,
    /// Attach time after the start of the run, ms (always-on viewers).
    pub join_ms: u32,
    /// Comes and goes during the timed window instead of joining once.
    pub churner: bool,
    /// Whether its access link is one of the lossy ones.
    pub lossy: bool,
}

/// The relay viewer plan: `per_cell` viewers for every (consumer, stream)
/// pair, joins spread over `[0, spread_ms)`, `churners` of them marked to
/// come and go, and `lossy` of them on a lossy access link.
pub fn viewer_plan(
    seed: u64,
    consumers: usize,
    streams: usize,
    per_cell: usize,
    spread_ms: u32,
    churners: usize,
    lossy: usize,
) -> Vec<Viewer> {
    let mut rng = Rng::new(seed, "viewer-plan");
    let mut plan: Vec<Viewer> = (0..consumers * streams * per_cell)
        .map(|i| Viewer {
            consumer: (i / (streams * per_cell)) as u16,
            stream: ((i / per_cell) % streams) as u16,
            join_ms: rng.below(u64::from(spread_ms)) as u32,
            churner: false,
            lossy: false,
        })
        .collect();
    // Fisher–Yates, so which viewers churn or lose packets depends on the
    // seed.
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for v in plan.iter_mut().rev().take(churners) {
        v.churner = true;
    }
    for v in plan.iter_mut().take(lossy) {
        v.lossy = true;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = brain_requests(7, 10_000, 400, 57);
        assert_eq!(a, brain_requests(7, 10_000, 400, 57));
        assert_ne!(a, brain_requests(8, 10_000, 400, 57));

        let p = viewer_plan(7, 4, 4, 4, 10_000, 8, 8);
        assert_eq!(p, viewer_plan(7, 4, 4, 4, 10_000, 8, 8));
        assert_ne!(p, viewer_plan(8, 4, 4, 4, 10_000, 8, 8));
    }

    #[test]
    fn viewer_plan_has_the_requested_shape() {
        let p = viewer_plan(3, 4, 4, 4, 10_000, 8, 8);
        assert_eq!(p.len(), 64);
        assert_eq!(p.iter().filter(|v| v.churner).count(), 8);
        assert_eq!(p.iter().filter(|v| v.lossy).count(), 8);
        for c in 0..4u16 {
            for s in 0..4u16 {
                let cell = p.iter().filter(|v| v.consumer == c && v.stream == s);
                assert_eq!(cell.count(), 4);
            }
        }
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let reqs = brain_requests(1, 100_000, 400, 57);
        let head = reqs.iter().filter(|r| r.stream == 0).count();
        let tail = reqs.iter().filter(|r| r.stream == 399).count();
        assert!(head > 50 * tail.max(1), "head={head} tail={tail}");
        assert!(reqs.iter().all(|r| r.stream < 400 && r.consumer < 57));
    }
}
