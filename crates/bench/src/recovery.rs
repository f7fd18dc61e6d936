//! §6.5 failure recovery — fast vs slow path, packet level and fleet level.
//!
//! Two experiments under one name:
//!
//! 1. **Packet level**: the diamond-overlay crash scenario
//!    ([`Scenario::diamond`] with relay B crashing 5 s in) run in both
//!    modes over several seeds —
//!    LiveNet's fast path (cached backup, ≈1 subscribe RTT after
//!    detection) against the slow path (full Brain round trip,
//!    multi-second), with frames lost per failover.
//! 2. **Fleet level**: the Double-12-style region outage injected into the
//!    sharded fleet simulation; emits the fast/slow recovery distributions
//!    for LiveNet and the Hier baseline. `--threads` sets only the worker
//!    count; the shard partition is fixed by the config, so the output is
//!    the same at any width (`runner.rs` tests serial ≡ parallel under
//!    faults).

use crate::{percentile, Args, Report, SEED};
use livenet_emu::LinkConfig;
use livenet_node::NodeEvent;
use livenet_sim::{
    FleetConfigBuilder, FleetFault, FleetRunner, RecoveryRecord, Scenario, ScenarioRun,
};
use livenet_types::{SimDuration, SimTime};

/// When the primary relay crashes.
const CRASH_AT: SimTime = SimTime::from_secs(5);

/// The diamond with relay B crashing at [`CRASH_AT`]. Fast: the consumer
/// holds the backup path `P → D → C` in its path cache, so failover is one
/// subscribe RTT after detection. Slow: nothing is cached and the scripted
/// Brain answers the consumer's path request 2.5 s later (the paper reports
/// multi-second Brain reaction) — the Hier-CDN-like baseline shape.
fn crash_diamond(slow: bool, seed: u64) -> Scenario {
    let mut sc = Scenario::diamond(LinkConfig::backbone(SimDuration::from_millis(10)), seed);
    sc.faults.crash(CRASH_AT, sc.nodes[1]);
    sc.control_rtt = slow.then_some(SimDuration::from_millis(2500));
    sc
}

/// What happened during the failover. A `None` means it never happened.
struct Failover {
    /// Crash → consumer declares the upstream dead (liveness timeout), ms.
    detect_ms: Option<f64>,
    /// Crash → first frame completed at the viewer after detection, ms.
    restore_ms: Option<f64>,
    /// Encoder frames that never reached the viewer (lost to the outage).
    frames_lost: u64,
    /// The consumer re-requested a path from the Brain (slow path taken).
    asked_brain: bool,
}

fn failover(sc: &Scenario, run: &ScenarioRun) -> Failover {
    let (b, c) = (sc.nodes[1], sc.nodes[2]);
    let since_crash = |t: SimTime| (t.as_secs_f64() - CRASH_AT.as_secs_f64()) * 1000.0;
    let detect = run.first_event(
        c,
        |e| matches!(e, NodeEvent::UpstreamDead { upstream, .. } if *upstream == b),
    );
    let restore = detect.and_then(|at| run.viewers[0].first_frame_after(at));
    Failover {
        detect_ms: detect.map(since_crash),
        restore_ms: restore.map(since_crash),
        frames_lost: run
            .frames_sent
            .saturating_sub(run.viewers[0].frames.len() as u64),
        asked_brain: run
            .first_event(c, |e| matches!(e, NodeEvent::PathRequestNeeded { .. }))
            .is_some(),
    }
}

/// One distribution on one line: count, percentiles, frames lost.
fn dist(recs: &[&RecoveryRecord]) -> String {
    let mut v: Vec<f32> = recs.iter().map(|r| r.recover_ms).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let frames: u64 = recs.iter().map(|r| u64::from(r.frames_lost)).sum();
    let p = |q: f64| {
        let x = percentile(&v, q);
        if x.is_nan() {
            "null".to_string()
        } else {
            format!("{x:.1}")
        }
    };
    format!(
        "{{\"n\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"frames_lost_total\": {}}}",
        v.len(),
        p(0.5),
        p(0.9),
        p(0.99),
        frames,
    )
}

pub(crate) fn run(args: &Args, out: &mut Report) {
    // ---------- Packet level: diamond-overlay relay crash ----------
    out.heading("Packet level: diamond-overlay relay crash");
    let seeds = [SEED, SEED + 1, SEED + 2];
    let mut rows = Vec::new();
    for (mode, slow) in [("Fast", false), ("Slow", true)] {
        for &seed in &seeds {
            let sc = crash_diamond(slow, seed);
            let rec = failover(&sc, &sc.run().expect("diamond preset is valid"));
            // A missing measurement must stop the run, not become a row.
            let detect_ms = rec
                .detect_ms
                .unwrap_or_else(|| panic!("{mode} seed {seed}: the consumer never declared the relay dead"));
            let restore_ms = rec
                .restore_ms
                .unwrap_or_else(|| panic!("{mode} seed {seed}: no frame reached the viewer after detection"));
            assert_eq!(rec.asked_brain, slow, "{mode} seed {seed}: wrong recovery path taken");
            rows.push(vec![
                mode.to_string(),
                format!("{seed}"),
                format!("{detect_ms:.0} ms"),
                format!("{restore_ms:.0} ms"),
                format!("{:.0} ms", restore_ms - detect_ms),
                format!("{}", rec.frames_lost),
            ]);
        }
    }
    out.table(
        &["mode", "seed", "detect", "restore", "post-detect gap", "frames lost"],
        &rows,
    );
    out.note("");
    out.note("Expected shape: Fast restores ~1 subscribe RTT after detection;");
    out.note("Slow waits out the Brain round trip (multi-second).");

    // ---------- Fleet level: region outage over the sharded fleet ----------
    out.heading("Fleet level: region outage over the sharded fleet");
    let cfg = FleetConfigBuilder::smoke(SEED)
        .fault(FleetFault::RegionOutage {
            at_secs: 20 * 3600, // diurnal peak — many sessions in flight
            down_for_secs: 1800,
            country: 0,
        })
        .random_faults(3.0, (300, 1200))
        .build()
        .expect("recovery preset is valid");
    let report = FleetRunner::new(cfg)
        .expect("config already validated")
        .run_parallel(args.threads);

    let ln_fast: Vec<&RecoveryRecord> =
        report.recoveries_livenet.iter().filter(|r| r.fast).collect();
    let ln_slow: Vec<&RecoveryRecord> =
        report.recoveries_livenet.iter().filter(|r| !r.fast).collect();
    let hier: Vec<&RecoveryRecord> = report.recoveries_hier.iter().collect();
    out.note(format!(
        "fleet: {} faults injected, {} producers rehomed",
        report.faults_injected, report.producers_rehomed
    ));
    out.note(format!(
        "LiveNet failovers: {} fast / {} slow; Hier failovers: {}",
        ln_fast.len(),
        ln_slow.len(),
        hier.len()
    ));
    out.note(format!("LiveNet fast: {}", dist(&ln_fast)));
    out.note(format!("LiveNet slow: {}", dist(&ln_slow)));
    out.note(format!("Hier:         {}", dist(&hier)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The read-out plus the number of frames the viewer got.
    fn outcome(slow: bool, seed: u64) -> (Failover, usize) {
        let sc = crash_diamond(slow, seed);
        let run = sc.run().unwrap();
        (failover(&sc, &run), run.viewers[0].frames.len())
    }

    #[test]
    fn fast_recovery_is_detection_plus_one_rtt() {
        let (out, frames_rendered) = outcome(false, 7);
        assert!(!out.asked_brain, "fast path must not ask the Brain");
        let (detect_ms, restore_ms) = (out.detect_ms.unwrap(), out.restore_ms.unwrap());
        // Detection is the liveness timeout (2.5 s ± one scan interval).
        assert!((2000.0..=3500.0).contains(&detect_ms), "{detect_ms}");
        // Restoration trails detection by roughly one subscribe RTT plus
        // burst serving — well under half a second.
        assert!(restore_ms - detect_ms < 500.0, "fast gap {} ms", restore_ms - detect_ms);
        assert!(frames_rendered > 250, "{frames_rendered}");
    }

    #[test]
    fn slow_recovery_waits_out_the_brain_round_trip() {
        let (out, frames_rendered) = outcome(true, 7);
        assert!(out.asked_brain, "slow path must ask the Brain");
        // Restoration trails detection by at least the control RTT.
        let gap = out.restore_ms.unwrap() - out.detect_ms.unwrap();
        assert!(gap >= 2000.0, "slow gap {gap} ms");
        assert!(frames_rendered > 200, "{frames_rendered}");
    }

    #[test]
    fn fast_loses_fewer_frames_than_slow() {
        let (fast, slow) = (outcome(false, 11).0, outcome(true, 11).0);
        assert!(
            fast.frames_lost < slow.frames_lost,
            "fast {} vs slow {}",
            fast.frames_lost,
            slow.frames_lost
        );
    }

    #[test]
    fn recovery_outcomes_are_deterministic() {
        let (a, b) = (outcome(false, 3).0, outcome(false, 3).0);
        assert_eq!(a.detect_ms.unwrap().to_bits(), b.detect_ms.unwrap().to_bits());
        assert_eq!(a.restore_ms.unwrap().to_bits(), b.restore_ms.unwrap().to_bits());
        assert_eq!(a.frames_lost, b.frames_lost);
    }

    #[test]
    fn a_failover_that_never_happened_reads_as_none() {
        let mut sc = crash_diamond(false, 7);
        sc.faults = Default::default(); // nothing crashes
        let out = failover(&sc, &sc.run().unwrap());
        assert_eq!((out.detect_ms, out.restore_ms), (None, None));
        assert_eq!(out.frames_lost, 0);
    }
}
