//! Determinism contract of the sharded fleet runner: `run_parallel(n)`
//! must be bit-identical to `run_serial()` for every seed and thread
//! count, the partition must keep per-shard load within bounded skew,
//! and the sharded run must preserve the paper's headline
//! LiveNet-vs-Hier gap.

use livenet::prelude::*;
use livenet::sim::metrics::summarize;

/// A sharded config small enough to run serial + three parallel widths
/// per seed: the smoke preset at a reduced arrival rate.
fn sharded(seed: u64) -> FleetConfig {
    FleetConfigBuilder::smoke(seed)
        .peak_arrivals_per_sec(0.25)
        .build()
        .expect("smoke preset is valid")
}

#[test]
fn parallel_bit_identical_to_serial_across_seeds_and_widths() {
    for seed in [71, 72] {
        let runner = FleetRunner::new(sharded(seed)).unwrap();
        let serial = runner.run_serial();
        assert!(
            !serial.livenet.is_empty(),
            "seed {seed}: empty sharded run"
        );
        for threads in [1, 2, 8] {
            let parallel = runner.run_parallel(threads);
            assert!(
                serial.bit_identical(&parallel),
                "seed {seed}: run_parallel({threads}) diverged from run_serial()"
            );
        }
    }
}

#[test]
fn zipf_head_load_is_balanced_across_shards() {
    let cfg = sharded(81);
    let plans = FleetRunner::new(cfg.clone()).unwrap().plans();
    assert!(plans.len() > 1, "expected a real partition");
    // Regression for the LPT partition: the Zipf head spreads across
    // shards (the old head-group rule co-sharded it and capped speedup at
    // ~1/head_mass), and no shard exceeds the ideal mass share by more
    // than the heaviest single channel.
    let max_share = plans.iter().map(|p| p.mass_share).fold(0.0, f64::max);
    let ideal = 1.0 / plans.len() as f64;
    let zipf = livenet::types::ZipfTable::new(cfg.workload.channels, cfg.workload.zipf_s);
    let total_mass: f64 = (0..cfg.workload.channels).map(|k| zipf.pmf(k)).sum();
    let heaviest = zipf.pmf(0) / total_mass;
    assert!(
        max_share <= ideal + heaviest + 1e-9,
        "max shard share {max_share:.4} exceeds ideal {ideal:.4} + head"
    );
    // The two most popular channels must not share a shard.
    let owner = |c: usize| plans.iter().find(|p| p.channels.contains(&c)).unwrap().index;
    assert_ne!(owner(0), owner(1), "ranks 0 and 1 co-sharded");
    // Every channel is assigned exactly once and the mass shares cover
    // the whole distribution.
    let mut seen = vec![0u32; cfg.workload.channels];
    for p in &plans {
        for &c in &p.channels {
            seen[c] += 1;
        }
    }
    assert!(seen.iter().all(|&n| n == 1));
    let total: f64 = plans.iter().map(|p| p.mass_share).sum();
    assert!((total - 1.0).abs() < 1e-9, "mass shares sum to {total}");
}

#[test]
fn sharded_run_preserves_headline_metrics() {
    let report = FleetRunner::new(sharded(91)).unwrap().run_serial();
    let ln = summarize(&report.livenet);
    let h = summarize(&report.hier);
    assert!(ln.median_cdn_delay_ms < h.median_cdn_delay_ms);
    assert!(ln.median_path_len < h.median_path_len);
    assert!(ln.zero_stall_ratio >= h.zero_stall_ratio);
    // Sessions are globally time-ordered after the canonical merge, and
    // the LiveNet/Hier pairing survived it.
    for w in report.livenet.windows(2) {
        assert!(w[0].start <= w[1].start);
    }
    for (a, b) in report.livenet.iter().zip(&report.hier) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.international, b.international);
    }
}
