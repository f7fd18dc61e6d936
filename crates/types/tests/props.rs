//! Property-based tests for the core vocabulary types.

use livenet_cases::prelude::*;
use livenet_types::{Bandwidth, DetRng, Ecdf, SeqNo, SimDuration, SimTime};

proptest! {
    /// Serial-number arithmetic: add then distance inverts (within range).
    #[test]
    fn seqno_add_distance_roundtrip(base: u16, step in 0u16..0x7FFF) {
        let a = SeqNo(base);
        let b = a.add(step);
        prop_assert_eq!(b.distance(a), i32::from(step));
        prop_assert_eq!(a.distance(b), -i32::from(step));
    }

    /// newer_than is antisymmetric for distinct, in-range values.
    #[test]
    fn seqno_newer_than_antisymmetric(base: u16, step in 1u16..0x7FFF) {
        let a = SeqNo(base);
        let b = a.add(step);
        prop_assert!(b.newer_than(a));
        prop_assert!(!a.newer_than(b));
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn ecdf_quantiles_monotone(mut xs in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut e = Ecdf::new();
        e.extend(xs.iter().copied());
        let qs: Vec<f64> = (0..=10).map(|i| e.quantile(i as f64 / 10.0)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(qs[0], xs[0]);
        prop_assert_eq!(qs[10], *xs.last().unwrap());
    }

    /// CDF is a valid distribution function: in [0,1], 1 at max.
    #[test]
    fn ecdf_cdf_valid(xs in prop::collection::vec(-1e6f64..1e6, 1..200), probe in -2e6f64..2e6) {
        let mut e = Ecdf::new();
        e.extend(xs.iter().copied());
        let f = e.cdf_at(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(e.cdf_at(max), 1.0);
    }

    /// Bandwidth: transmission_time and bytes_in are inverse-ish.
    #[test]
    fn bandwidth_roundtrip(kbps in 1u64..10_000_000, bytes in 1usize..10_000_000) {
        let bw = Bandwidth::from_kbps(kbps);
        let t = bw.transmission_time(bytes);
        let back = bw.bytes_in(t);
        // Within rounding of one nanosecond's worth of bytes.
        let tolerance = (kbps as f64 * 1000.0 / 8.0 / 1e9).ceil() as i64 + 1;
        prop_assert!((back as i64 - bytes as i64).abs() <= tolerance,
            "bytes={bytes} back={back} tol={tolerance}");
    }

    /// SimTime arithmetic is consistent.
    #[test]
    fn time_arithmetic(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!(t.saturating_since(t + dur), SimDuration::ZERO);
    }

    /// DetRng forks are reproducible and chance() respects bounds.
    #[test]
    fn detrng_reproducible(
        seed: u64,
        label in prop::collection::vec(b'a'..=b'z', 1..9).prop_map(|b| String::from_utf8(b).unwrap()),
    ) {
        let mut a = DetRng::seed(seed).fork(&label);
        let mut b = DetRng::seed(seed).fork(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.u64(), b.u64());
        }
        prop_assert!(!a.chance(0.0));
        prop_assert!(a.chance(1.0));
    }

    /// DetRng splits: distinct labels yield reproducible, uncorrelated
    /// sub-streams (the per-shard RNG contract of the fleet runner).
    #[test]
    fn detrng_split_substreams(seed: u64, a in 0u64..10_000, b in 0u64..10_000) {
        prop_assume!(a != b);
        let root = DetRng::seed(seed);
        let mut xa = root.split(a);
        let mut xa2 = root.split(a);
        let mut xb = root.split(b);
        let sa: Vec<u64> = (0..64).map(|_| xa.u64()).collect();
        let sa2: Vec<u64> = (0..64).map(|_| xa2.u64()).collect();
        let sb: Vec<u64> = (0..64).map(|_| xb.u64()).collect();
        // Same label → identical stream.
        prop_assert_eq!(&sa, &sa2);
        // Distinct labels → no positionwise collisions in 64 draws (a
        // correlated or offset-shared stream would collide massively).
        let collisions = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
        prop_assert_eq!(collisions, 0);
        // Both streams look uniform at a coarse level: bit balance of the
        // XOR-fold stays near 32 set bits on average.
        let mean_ones: f64 = sa.iter().map(|v| v.count_ones() as f64).sum::<f64>() / 64.0;
        prop_assert!((20.0..44.0).contains(&mean_ones), "mean ones {mean_ones}");
    }
}
