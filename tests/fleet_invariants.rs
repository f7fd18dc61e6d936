//! Cross-crate invariants of the fleet evaluation: the properties every
//! paper figure relies on, checked on a fast smoke run.

use livenet::prelude::*;
use livenet::sim::{summarize, LONG_CHAIN_SWITCH_HOPS};

/// The smoke preset on one shard: the unsharded run.
fn smoke(seed: u64) -> FleetReport {
    FleetRunner::new(FleetConfig::smoke(seed))
        .expect("smoke preset is valid")
        .run_serial()
}

#[test]
fn sessions_are_paired_and_sane() {
    let r = smoke(11);
    assert_eq!(r.livenet.len(), r.hier.len());
    assert!(r.livenet.len() > 300);
    for (a, b) in r.livenet.iter().zip(&r.hier) {
        // Same session, two systems: identical identity fields.
        assert_eq!(a.start, b.start);
        assert_eq!(a.day, b.day);
        assert_eq!(a.international, b.international);
        // Metric sanity.
        assert!(a.cdn_delay_ms > 0.0 && a.cdn_delay_ms < 5_000.0);
        assert!(a.streaming_delay_ms > a.cdn_delay_ms);
        assert!(a.startup_ms > 0.0);
        assert!(b.path_len == 4, "Hier is always 4 hops");
    }
}

#[test]
fn headline_improvements_hold_on_any_seed() {
    for seed in [21, 22, 23] {
        let r = smoke(seed);
        let ln = summarize(&r.livenet);
        let h = summarize(&r.hier);
        assert!(
            ln.median_cdn_delay_ms < h.median_cdn_delay_ms,
            "seed {seed}: CDN delay"
        );
        assert!(
            ln.median_streaming_delay_ms < h.median_streaming_delay_ms,
            "seed {seed}: streaming delay"
        );
        assert!(
            ln.zero_stall_ratio >= h.zero_stall_ratio,
            "seed {seed}: stalls"
        );
        assert!(
            ln.median_path_len < h.median_path_len,
            "seed {seed}: length"
        );
    }
}

#[test]
fn path_lengths_respect_bounds() {
    let r = smoke(31);
    for s in &r.livenet {
        assert!(
            usize::from(s.path_len) <= LONG_CHAIN_SWITCH_HOPS,
            "chain bound violated: {}",
            s.path_len
        );
    }
    // The hop-3 computed bound holds for the overwhelming majority.
    let over = r.livenet.iter().filter(|s| s.path_len > 3).count() as f64;
    let frac = over / r.livenet.len() as f64;
    assert!(frac < 0.05);
}

#[test]
fn local_hits_never_pay_brain_latency() {
    let r = smoke(41);
    for s in &r.livenet {
        if s.outcome.is_local_hit() {
            assert!(s.outcome.response_ms().is_none());
        }
    }
    // And some hits exist even in a short run.
    assert!(r.livenet.iter().any(|s| s.outcome.is_local_hit()));
    assert!(r.livenet.iter().any(|s| !s.outcome.is_local_hit()));
}

#[test]
fn fleet_is_deterministic() {
    let a = smoke(51);
    let b = smoke(51);
    assert_eq!(a.livenet, b.livenet);
    assert_eq!(a.hier, b.hier);
    assert_eq!(a.daily_unique_paths, b.daily_unique_paths);
}

#[test]
fn loss_stays_under_paper_cap() {
    let r = smoke(61);
    for &l in r.hourly_loss.iter().filter(|l| !l.is_nan()) {
        assert!(l < 0.00175, "hourly loss {l} exceeds the paper's cap");
    }
}

/// With one country there is no other country to view from: the run
/// reaches its horizon and every session is domestic.
#[test]
fn one_country_fleet_runs_and_every_session_is_domestic() {
    let mut cfg = FleetConfig::smoke(7);
    cfg.geo.countries = 1;
    cfg.geo.nodes = 6;
    let r = FleetRunner::new(cfg).expect("validates").run_serial();
    assert_eq!(r.livenet.len(), r.hier.len());
    assert!(r.livenet.len() > 300);
    for (a, b) in r.livenet.iter().zip(&r.hier) {
        assert_eq!(a.start, b.start);
        assert!(!a.international && !b.international);
    }
}
