//! Real-socket wire experiment: a 50+ node geo edge fleet on 127.0.0.1.
//!
//! Builds the [`TestbedConfig::geo_fleet`] overlay — per-country hub
//! backbone, region-clustered edge nodes, last-resort relays, edges and
//! RTTs from `livenet-topology`'s generator — and drives hundreds of
//! concurrent real-socket viewers whose staggered arrivals come from
//! `livenet-sim`'s Taobao-shaped workload. Two result sections:
//!
//! 1. **Wire run** — startup / E2E-delay distributions, streaming-phase
//!    delivery, and the RTCP-feedback→cc demonstration (every viewer in
//!    the busiest country turns synthetically lossy mid-run).
//! 2. **Agreement gate** — the same media parameters through the packet
//!    emulator over the fleet's modal path shape (producer hub → home
//!    hub → edge node, chain delays = the median wired RTT per hop, the
//!    same convention the diamond experiment used), with emulator viewers
//!    joining at the wire join-time quantiles. The run asserts the wire
//!    and emulator startup/E2E medians agree within tolerance.
//!
//! Full mode drives ≥200 viewers; `--smoke` is the capped CI gate. What a
//! socket can carry per core is `benchmark/`'s `transport.batch_dps_*`.

use crate::testbed::{self, TestbedConfig, BITRATE};
use crate::{percentile, Args, Report, SEED};
use livenet_emu::LossModel;
use livenet_sim::{Scenario, Viewer, ViewerRun};
use livenet_topology::GeoConfig;
use livenet_types::{SimDuration, SimTime};
use std::collections::HashMap;
use std::time::Duration;

/// Spoke fan-out of every edge node (home hub + closest foreign hub).
const FANOUT: usize = 2;

/// Agreement tolerances: the wire median must sit within these of the
/// emulator median. Both sides run one viewer client, so startup is one
/// quantity (playback start after I-frame sync); its bound is 3× the
/// largest delta of ten `--smoke` runs on a 2-core x86-64 host (16.9 ms).
/// The E2E bound is generous — the wire medians include backbone detours
/// the 2-hop chain does not model — yet catches a broken delay field.
const STARTUP_TOL_ABS_MS: f64 = 50.0;
const STARTUP_TOL_REL: f64 = 0.8;
const E2E_TOL_ABS_MS: f64 = 50.0;
const E2E_TOL_REL: f64 = 0.6;

/// Wired hop delays (ms) from the producer to one viewer node, following
/// the hub-and-spoke shape: direct edge if one exists, else the cheapest
/// two-hop relay. Chain-link delay == wired edge RTT value, the same
/// convention the diamond experiment established.
fn hops_to(cfg: &TestbedConfig, rtt: &HashMap<(usize, usize), f64>, node: usize) -> Vec<f64> {
    if node == cfg.producer {
        return Vec::new();
    }
    if let Some(&ms) = rtt.get(&(cfg.producer, node)) {
        return vec![ms];
    }
    let mut best: Option<(f64, f64)> = None;
    for mid in 0..cfg.nodes {
        if let (Some(&a), Some(&b)) =
            (rtt.get(&(cfg.producer, mid)), rtt.get(&(mid, node)))
        {
            if best.is_none_or(|(x, y)| a + b < x + y) {
                best = Some((a, b));
            }
        }
    }
    let (a, b) = best.expect("geo wiring reaches every node within two hops");
    vec![a, b]
}

/// The emulator counterpart: a chain over the fleet's modal path shape,
/// per-hop delay = median wired RTT of that hop across all viewers, with
/// emulator viewers joining at the wire join-time quantiles.
fn emulator_config(cfg: &TestbedConfig) -> Scenario {
    let mut rtt: HashMap<(usize, usize), f64> = HashMap::new();
    for &(a, b, r) in &cfg.edges {
        rtt.insert((a, b), r.as_millis_f64());
        rtt.insert((b, a), r.as_millis_f64());
    }
    let paths: Vec<Vec<f64>> = cfg
        .viewers
        .iter()
        .map(|v| hops_to(cfg, &rtt, v.node))
        .filter(|h| !h.is_empty())
        .collect();
    // Modal shape: the hop count most viewers share (2 on the geo fleet).
    let modal_len = (1..=2)
        .max_by_key(|&l| paths.iter().filter(|p| p.len() == l).count())
        .expect("nonempty hop-count range");
    let modal: Vec<&Vec<f64>> = paths.iter().filter(|p| p.len() == modal_len).collect();
    let mut emu = Scenario::chain(modal_len, LossModel::None, SEED);
    for (k, link) in emu.links.iter_mut().enumerate() {
        let mut hop: Vec<f64> = modal.iter().map(|p| p[k]).collect();
        hop.sort_by(f64::total_cmp);
        link.2.delay = SimDuration::from_millis(percentile(&hop, 0.5).round() as u64);
    }

    let mut joins: Vec<f64> = cfg
        .viewers
        .iter()
        .map(|v| v.join_after.as_secs_f64() * 1000.0)
        .collect();
    joins.sort_by(f64::total_cmp);
    emu.viewers = (1..=9)
        .map(|d| {
            let at = percentile(&joins, d as f64 / 10.0);
            Viewer {
                join_at: SimTime::from_millis((at as u64).max(50)),
                ..emu.viewers[0].clone()
            }
        })
        .collect();
    emu.bitrate = BITRATE;
    emu.duration = SimDuration::from_nanos(cfg.broadcast.as_nanos() as u64);
    emu.drain = SimDuration::from_nanos(cfg.drain.as_nanos() as u64);
    emu
}

/// Both columns of the agreement gate, read the same way off either side's
/// viewers: the startup delays (ms) of the viewers whose playback started
/// and the per-viewer mean delay fields (ms), each sorted.
fn startup_and_e2e_ms<'a>(runs: impl IntoIterator<Item = &'a ViewerRun>) -> (Vec<f64>, Vec<f64>) {
    let (mut startup, mut e2e) = (Vec::new(), Vec::new());
    for run in runs {
        startup.extend(run.qoe.startup.map(SimDuration::as_millis_f64));
        e2e.extend(run.mean_delay_field_ms());
    }
    startup.sort_by(f64::total_cmp);
    e2e.sort_by(f64::total_cmp);
    (startup, e2e)
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
pub(crate) async fn run(args: &Args, out: &mut Report) {
    let smoke = args.smoke;
    let (viewer_count, broadcast, drain) = if smoke {
        (72, Duration::from_secs(4), Duration::from_millis(1200))
    } else {
        (220, Duration::from_secs(6), Duration::from_millis(1500))
    };

    let geo = GeoConfig::paper_scale(SEED);
    let mut cfg = TestbedConfig {
        broadcast,
        drain,
        ..TestbedConfig::geo_fleet(&geo, viewer_count, FANOUT, SEED)
            .expect("geo_fleet preset is valid")
    };

    // Congest the busiest viewer country: every viewer there reports 30%
    // loss from a third of the way in, so the consumer cores' GCC loops
    // must react region-wide.
    let mut per_country = vec![0usize; cfg.countries.iter().map(|&c| c as usize + 1).max().unwrap_or(1)];
    for v in &cfg.viewers {
        per_country[cfg.country_of(v.node) as usize] += 1;
    }
    let congested = per_country
        .iter()
        .enumerate()
        .max_by_key(|&(_, n)| *n)
        .map(|(c, _)| c as u32)
        .expect("at least one country");
    let lossy_from = broadcast / 3;
    let mut lossy_viewers = 0u64;
    for v in &mut cfg.viewers {
        if cfg.countries[v.node] == congested {
            v.lossy_rr = Some((lossy_from, 0.3));
            lossy_viewers += 1;
        }
    }

    out.meta("seed", SEED.to_string());
    out.meta("mode", if smoke { "smoke" } else { "full" });
    out.meta("nodes", cfg.nodes.to_string());
    out.meta("viewers", cfg.viewers.len().to_string());
    out.meta("fanout", FANOUT.to_string());
    out.meta("congested_country", congested.to_string());
    out.meta(
        "broadcast",
        format!("{:.1}s @ {} kbps", cfg.broadcast.as_secs_f64(), BITRATE.as_kbps()),
    );

    assert!(cfg.nodes >= 50, "geo fleet too small: {} nodes", cfg.nodes);
    if !smoke {
        assert!(cfg.viewers.len() >= 200, "full mode drives ≥200 viewers");
    }

    let emu_cfg = emulator_config(&cfg);
    let wire = testbed::run(cfg.clone()).await.expect("validated config runs");

    // ---- Wire distributions -------------------------------------------
    let (startup, e2e) = startup_and_e2e_ms(wire.viewers.iter().map(|v| &v.run));
    assert!(!startup.is_empty(), "no viewer measured startup");
    assert!(!e2e.is_empty(), "no viewer measured E2E delay");
    let wire_startup_med = percentile(&startup, 0.5);
    let wire_startup_p90 = percentile(&startup, 0.9);
    let wire_e2e_med = percentile(&e2e, 0.5);
    let zero_stall = wire.viewers.iter().filter(|v| v.run.qoe.stalls == 0).count();
    let zero_stall_share = zero_stall as f64 / wire.viewers.len() as f64;
    // Datagrams a viewer's client could not decode (gated at zero below).
    let undecodable: u64 = wire.viewers.iter().map(|v| v.run.undecodable).sum();

    out.heading("Wire run: geo fleet viewer distributions");
    out.table(
        &["metric", "median", "p90", "viewers measured"],
        &[
            vec![
                "startup delay (ms)".into(),
                format!("{wire_startup_med:.1}"),
                format!("{wire_startup_p90:.1}"),
                startup.len().to_string(),
            ],
            vec![
                "mean E2E delay field (ms)".into(),
                format!("{wire_e2e_med:.1}"),
                format!("{:.1}", percentile(&e2e, 0.9)),
                e2e.len().to_string(),
            ],
            vec![
                "zero-stall share (%)".into(),
                format!("{:.1}", 100.0 * zero_stall_share),
                "-".into(),
                wire.viewers.len().to_string(),
            ],
        ],
    );
    out.note(format!(
        "broadcast {} frames over {} nodes; worst streaming-phase delivery {:.1}%; \
         {} staggered arrivals from the workload replay",
        wire.frames_broadcast,
        cfg.nodes,
        100.0 * wire.worst_delivery(),
        cfg.viewers.iter().filter(|v| !v.join_after.is_zero()).count(),
    ));

    // ---- Emulator agreement gate --------------------------------------
    let emu = emu_cfg.run().expect("chain preset is valid");
    let (emu_startup, emu_e2e) = startup_and_e2e_ms(&emu.viewers);
    assert!(!emu_startup.is_empty(), "no emulator viewer started");
    assert!(!emu_e2e.is_empty(), "no emulator viewer measured delay");
    let emu_startup_med = percentile(&emu_startup, 0.5);
    let emu_e2e_med = percentile(&emu_e2e, 0.5);

    let startup_delta = (wire_startup_med - emu_startup_med).abs();
    let e2e_delta = (wire_e2e_med - emu_e2e_med).abs();
    let startup_tol = STARTUP_TOL_ABS_MS.max(STARTUP_TOL_REL * emu_startup_med);
    let e2e_tol = E2E_TOL_ABS_MS.max(E2E_TOL_REL * emu_e2e_med);

    out.heading("Agreement: wire vs packet emulator, modal path shape");
    out.table(
        &["metric", "wire median", "emulator median", "|delta|", "tolerance"],
        &[
            vec![
                "startup delay (ms)".into(),
                format!("{wire_startup_med:.1}"),
                format!("{emu_startup_med:.1}"),
                format!("{startup_delta:.1}"),
                format!("{startup_tol:.1}"),
            ],
            vec![
                "mean E2E delay field (ms)".into(),
                format!("{wire_e2e_med:.1}"),
                format!("{emu_e2e_med:.1}"),
                format!("{e2e_delta:.1}"),
                format!("{e2e_tol:.1}"),
            ],
        ],
    );
    out.note(
        "emulator chain = modal wired path (median RTT per hop), emulator \
         viewers join at the wire join-time quantiles; same GoP, bitrate, \
         duration, and drain as the wire run.",
    );

    // ---- RTCP feedback → cc over the congested region ------------------
    let cc_decreases_congested = wire.cc_decreases_in_country(congested);
    let rr_sent: u64 = wire.viewers.iter().map(|v| v.rr_sent).sum();
    // Each viewer's pacing rate at shutdown (kbps), lossy viewers apart;
    // `client_rates` is in `cfg.viewers` order.
    let (mut lossy_kbps, mut clean_kbps) = (Vec::new(), Vec::new());
    for (v, (_, rate)) in cfg.viewers.iter().zip(&wire.client_rates) {
        let group = if v.lossy_rr.is_some() { &mut lossy_kbps } else { &mut clean_kbps };
        group.extend(rate.map(|r| r.as_kbps() as f64));
    }
    lossy_kbps.sort_by(f64::total_cmp);
    clean_kbps.sort_by(f64::total_cmp);
    out.heading("Client RTCP feedback → sender-side cc (congested region)");
    out.table(
        &["quantity", "value"],
        &[
            vec!["lossy viewers (busiest country)".into(), lossy_viewers.to_string()],
            vec!["receiver reports sent, all viewers".into(), rr_sent.to_string()],
            vec![
                "cc decreases in congested country".into(),
                cc_decreases_congested.to_string(),
            ],
            vec!["cc decreases fleet-wide".into(), wire.cc.decreases.to_string()],
            vec!["cc increases fleet-wide".into(), wire.cc.increases.to_string()],
            vec![
                "median pacing rate at shutdown, lossy viewers (kbps)".into(),
                format!("{:.0}", percentile(&lossy_kbps, 0.5)),
            ],
            vec![
                "median pacing rate at shutdown, other viewers (kbps)".into(),
                format!("{:.0}", percentile(&clean_kbps, 0.5)),
            ],
        ],
    );

    // ---- Summary + gates ------------------------------------------
    out.meta("wire_startup_median_ms", format!("{wire_startup_med:.1}"));
    out.meta("wire_startup_p90_ms", format!("{wire_startup_p90:.1}"));
    out.meta("wire_e2e_median_ms", format!("{wire_e2e_med:.1}"));
    out.meta("emu_startup_median_ms", format!("{emu_startup_med:.1}"));
    out.meta("emu_e2e_median_ms", format!("{emu_e2e_med:.1}"));
    out.meta("startup_delta_ms", format!("{startup_delta:.1}"));
    out.meta("startup_tolerance_ms", format!("{startup_tol:.1}"));
    out.meta("e2e_delta_ms", format!("{e2e_delta:.1}"));
    out.meta("e2e_tolerance_ms", format!("{e2e_tol:.1}"));
    out.meta("worst_delivery", format!("{:.4}", wire.worst_delivery()));
    out.meta("zero_stall_share", format!("{zero_stall_share:.4}"));
    out.meta("frames_broadcast", wire.frames_broadcast.to_string());
    // What the nodes dropped: datagrams from a source unknown at that
    // address, datagrams that overflowed a receive slot and datagrams a
    // socket refused (all gated at zero below). Stale timer fires are
    // reported only: a rate increase can rightly supersede an armed poll.
    let unknown = wire.telemetry.counter("transport.unknown_source_drops");
    let truncated = wire.telemetry.counter("transport.recv_truncated");
    let send_errors = wire.telemetry.counter("transport.send_errors");
    out.meta("transport.unknown_source_drops", unknown.to_string());
    out.meta("transport.recv_truncated", truncated.to_string());
    out.meta("transport.send_errors", send_errors.to_string());
    out.meta("node.stale_timers", wire.telemetry.counter("node.stale_timers").to_string());
    out.meta("viewer.undecodable", undecodable.to_string());

    let worst = wire.worst_delivery();
    assert!(worst >= 0.99, "delivery below 99%: {worst:.3}");
    assert!(
        cc_decreases_congested >= 1,
        "congested-region feedback drove no cc decrease: {:?}",
        wire.cc
    );
    assert!(
        startup_delta <= startup_tol,
        "wire startup diverged from emulator: {startup_delta:.1}ms > {startup_tol:.1}ms"
    );
    assert!(
        e2e_delta <= e2e_tol,
        "wire E2E diverged from emulator: {e2e_delta:.1}ms > {e2e_tol:.1}ms"
    );
    assert!(
        wire.telemetry.counter("transport.batch_rx_syscalls") > 0,
        "batched receive path never exercised"
    );
    assert_eq!(unknown, 0, "datagrams from a source no node knows at that address");
    assert_eq!(truncated, 0, "datagrams truncated by a node's receive slot");
    assert_eq!(send_errors, 0, "datagrams a node's socket refused");
    assert_eq!(undecodable, 0, "datagrams a viewer's client could not decode");
}
