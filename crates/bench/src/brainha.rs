//! §7.1 Brain high availability — Paxos leader failover under load.
//!
//! Deploys the Streaming Brain as a Paxos-replicated cluster per shard
//! and crashes the leader in the middle of a Double-12-style festival
//! surge. The run measures:
//!
//! * **Failover latency** — last decree decided before the crash → first
//!   lease decree won by a live replica (per shard cluster).
//! * **Session impact** — startup delay and local-hit mix in the window
//!   right after the crash, against an identical no-crash baseline run.
//! * **Consistency** — the post-run audit replays every replica's log
//!   against the canonical chosen sequence and cross-checks sampled
//!   `PathAssignment`s across replicas; any divergence fails the run.
//!
//! `--threads` sets only the worker count; the shard partition is fixed
//! by the config, so the output is the same at any width (serial ≡
//! parallel behind a replicated Brain is tested in
//! `crates/sim/tests/replicated_brain.rs`). `--smoke` shrinks the run for
//! CI.

use crate::{percentile, ratio_pct, Args, Report, SEED};
use livenet_sim::{
    DecisionOutcome, FleetConfig, FleetConfigBuilder, FleetFault, FleetRunner, ReplicationConfig,
    SessionRecord,
};

/// Hard gate: a 3-replica cluster with a 3 s lease must re-elect well
/// inside this bound (lease expiry + per-rank backoff + one Paxos round).
const FAILOVER_BOUND_MS: f64 = 15_000.0;

/// Post-crash observation window for the session-impact deltas.
const IMPACT_WINDOW_SECS: u64 = 300;

struct Scenario {
    days: u32,
    crash_at_secs: u64,
    crash_down_secs: u64,
    peak_arrivals_per_sec: f64,
    festival: Vec<u32>,
}

fn scenario(smoke: bool) -> Scenario {
    if smoke {
        // CI-sized: one quiet day, crash at noon.
        Scenario {
            days: 1,
            crash_at_secs: 12 * 3600 + 1800,
            crash_down_secs: 300,
            peak_arrivals_per_sec: 0.2,
            festival: vec![],
        }
    } else {
        // Two days; day 1 is the festival, the leader dies mid-evening
        // surge (20:30) and stays down for ten minutes.
        Scenario {
            days: 2,
            crash_at_secs: 86_400 + 20 * 3600 + 1800,
            crash_down_secs: 600,
            peak_arrivals_per_sec: 0.5,
            festival: vec![1],
        }
    }
}

fn config(sc: &Scenario, crash: bool) -> FleetConfig {
    let mut b = FleetConfigBuilder::smoke(SEED)
        .days(sc.days)
        .peak_arrivals_per_sec(sc.peak_arrivals_per_sec)
        .festival(sc.festival.clone(), 2.5)
        .replication(ReplicationConfig::default());
    if sc.days == 1 {
        // Smoke: fewer shards → fewer per-shard clusters to simulate.
        b = b.shards(4);
    }
    if crash {
        b = b.fault(FleetFault::BrainLeaderCrash {
            at_secs: sc.crash_at_secs,
            down_for_secs: sc.crash_down_secs,
        });
    }
    b.build().expect("brainha preset is valid")
}

/// Sessions whose start falls in `[from_secs, from_secs + len_secs)`.
fn window(sessions: &[SessionRecord], from_secs: u64, len_secs: u64) -> Vec<SessionRecord> {
    sessions
        .iter()
        .filter(|s| {
            let t = s.start.as_secs_f64();
            t >= from_secs as f64 && t < (from_secs + len_secs) as f64
        })
        .copied()
        .collect()
}

fn mean_startup(sessions: &[SessionRecord]) -> f64 {
    if sessions.is_empty() {
        return f64::NAN;
    }
    sessions.iter().map(|s| f64::from(s.startup_ms)).sum::<f64>() / sessions.len() as f64
}

pub(crate) fn run(args: &Args, out: &mut Report) {
    let sc = scenario(args.smoke);

    // Baseline: replicated control plane, no crash.
    let baseline = FleetRunner::new(config(&sc, false))
        .expect("validated")
        .run_parallel(args.threads);
    let crash_cfg = config(&sc, true);
    let shards = crash_cfg.shards;
    let report = FleetRunner::new(crash_cfg)
        .expect("validated")
        .run_parallel(args.threads);

    let rep = report
        .replication
        .as_ref()
        .expect("replicated run carries a summary");

    // ---------- Gates ----------
    assert_eq!(rep.log_divergences, 0, "replica decided log diverged");
    assert_eq!(rep.assignment_mismatches, 0, "replica path decisions diverged");
    assert_eq!(rep.give_ups, 0, "a control-plane client gave up");
    assert_eq!(rep.leader_crashes, shards as u64, "crash missed a shard");
    assert_eq!(rep.restarts, shards as u64, "a crashed replica never restarted");
    assert!(
        !rep.failover_ms.is_empty(),
        "leader crash produced no failover measurement"
    );
    let mut fo = rep.failover_ms.clone();
    fo.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let fo_max = *fo.last().unwrap();
    assert!(
        fo_max.is_finite() && fo_max < FAILOVER_BOUND_MS,
        "failover latency {fo_max:.0} ms exceeds the {FAILOVER_BOUND_MS:.0} ms bound"
    );

    // ---------- Failover latency ----------
    out.heading("Leader failover latency (per shard cluster)");
    out.table(
        &["samples", "p50", "p99", "max", "bound"],
        &[vec![
            format!("{}", fo.len()),
            format!("{:.0} ms", percentile(&fo, 0.5)),
            format!("{:.0} ms", percentile(&fo, 0.99)),
            format!("{fo_max:.0} ms"),
            format!("{FAILOVER_BOUND_MS:.0} ms"),
        ]],
    );
    out.note(format!(
        "replicas/cluster: {}, clusters (shards): {shards}, decrees: {} (+{} lease)",
        rep.replicas,
        rep.ops_committed,
        rep.lease_grants + rep.lease_renewals,
    ));
    out.note(format!(
        "cluster traffic: {} msgs sent, {} dropped; client: {} retries, {} redirects",
        rep.msgs_sent, rep.msgs_dropped, rep.client_retries, rep.redirects,
    ));

    // ---------- Session impact in the post-crash window ----------
    out.heading("Session impact in the post-crash window");
    let win_c = window(&report.livenet, sc.crash_at_secs, IMPACT_WINDOW_SECS);
    let win_b = window(&baseline.livenet, sc.crash_at_secs, IMPACT_WINDOW_SECS);
    let startup_c = mean_startup(&win_c);
    let startup_b = mean_startup(&win_b);
    let hit_c = ratio_pct(&win_c, |s| s.outcome.is_local_hit());
    let hit_b = ratio_pct(&win_b, |s| s.outcome.is_local_hit());
    let pre_c = ratio_pct(&win_c, |s| matches!(s.outcome, DecisionOutcome::Prefetched));
    out.table(
        &["metric", "baseline", "crash run", "delta"],
        &[
            vec![
                format!("sessions in window ({IMPACT_WINDOW_SECS} s)"),
                format!("{}", win_b.len()),
                format!("{}", win_c.len()),
                String::new(),
            ],
            vec![
                "mean startup".to_string(),
                format!("{startup_b:.0} ms"),
                format!("{startup_c:.0} ms"),
                format!("{:+.0} ms", startup_c - startup_b),
            ],
            vec![
                "local-hit ratio".to_string(),
                format!("{hit_b:.1}%"),
                format!("{hit_c:.1}%"),
                format!("{:+.1} pp", hit_c - hit_b),
            ],
        ],
    );
    out.note(format!(
        "prefetched share in crash window: {pre_c:.1}% (prefetched paths ride out the failover)"
    ));
    out.note("");
    out.note("Expected shape: startup inflates while path requests wait out the");
    out.note("lease takeover; prefetched/local-hit sessions are unaffected (§4.4).");
}
