//! The packet-level §3/§5 validation and the three design-choice
//! ablations (DESIGN.md §6): GoP-cache burst, I-frame pacing gain, routing
//! knobs.

use crate::{canonical, median, ratio_pct, Args, Report};
use livenet_brain::WeightParams;
use livenet_emu::LossModel;
use livenet_sim::{FleetConfigBuilder, Scenario, ScenarioRun, SessionRecord, Viewer};
use livenet_types::{Bandwidth, Ecdf, SimTime};

/// The paper's A→B→C chain with `loss` on A→B, with or without the slow
/// (NACK/RTX) path.
fn lossy_chain(loss: LossModel, recovery: bool) -> ScenarioRun {
    let mut sc = Scenario::chain(2, loss, 42);
    if !recovery {
        sc.node.nack_retry_limit = 0;
    }
    sc.run().expect("chain preset is valid")
}

fn pipeline(recovery: bool) -> &'static str {
    if recovery {
        "fast+slow"
    } else {
        "fast only"
    }
}

/// §3/§5 validation — the fast-slow path transmission architecture on the
/// paper's A→B→C example, at packet level.
///
/// Demonstrates (and quantifies) the design claim: when A→B loses packets,
/// B's slow path NACKs A and recovers them; the fast path keeps forwarding
/// around the hole; when C detects the same loss, B has usually already
/// recovered the packet, so C's recovery takes only one B↔C RTT. With the
/// slow path disabled (ablation), lost packets are never recovered and
/// viewers stall or skip frames.
pub(crate) fn fastslow_recovery(_: &Args, out: &mut Report) {
    let mut rows = Vec::new();
    for (loss_pct, bursty) in [
        (0.0, false),
        (0.5, false),
        (1.0, false),
        (2.0, false),
        (5.0, false),
        (2.0, true), // Gilbert–Elliott bursts, same mean
    ] {
        for recovery in [true, false] {
            let loss = if bursty {
                LossModel::bursty(loss_pct / 100.0)
            } else {
                LossModel::Bernoulli {
                    p: loss_pct / 100.0,
                }
            };
            let run = lossy_chain(loss, recovery);
            let qoe = run.viewers[0].qoe;
            let recoveries = run.recovery_latencies_ms();
            rows.push(vec![
                format!("{loss_pct:.1}%{}", if bursty { " bursty" } else { "" }),
                pipeline(recovery).to_string(),
                format!("{}", qoe.frames_rendered),
                format!("{}", qoe.stalls),
                format!("{}", run.nodes[0].stats.rtx_served),
                if recoveries.is_empty() {
                    "-".into()
                } else {
                    format!(
                        "{:.0} ms",
                        recoveries.iter().sum::<f64>() / recoveries.len() as f64
                    )
                },
            ]);
        }
    }
    out.table(
        &[
            "A→B loss",
            "pipeline",
            "frames rendered",
            "stalls",
            "RTX served by A",
            "mean recovery",
        ],
        &rows,
    );
    out.note("");
    out.note("Expected shape: with the slow path, frames rendered stays near the");
    out.note("lossless count and recovery completes in ~(scan/2 + RTT) ≈ 45 ms;");
    out.note("without it, rendered frames fall and stalls appear as loss grows.");
}

/// `exp all`'s four-line digest of [`fastslow_recovery`].
pub(crate) fn fastslow_summary(out: &mut Report) {
    out.heading("§3/§5 — fast/slow-path recovery (packet level)");
    for loss_pct in [0.5, 2.0] {
        for recovery in [true, false] {
            let run = lossy_chain(
                LossModel::Bernoulli {
                    p: loss_pct / 100.0,
                },
                recovery,
            );
            let qoe = run.viewers[0].qoe;
            out.note(format!(
                "loss {loss_pct:.1}% {}: {} frames, {} stalls, {} RTX served",
                pipeline(recovery),
                qoe.frames_rendered,
                qoe.stalls,
                run.nodes[0].stats.rtx_served,
            ));
        }
    }
}

/// Ablation — the GoP cache's fast-startup effect (§5.1, Fig. 9's
/// mechanism).
///
/// A viewer joins a long-running stream mid-GoP. With GoP caching, the
/// consumer bursts the most recent complete GoP and playback starts in a
/// few hundred milliseconds; without it, the viewer waits for the next
/// keyframe — on average half a GoP (1 s for 2 s GoPs), blowing the 1 s
/// fast-startup budget.
pub(crate) fn gopcache(_: &Args, out: &mut Report) {
    let startup_ms = |burst: bool, join_offset_ms: u64, seed: u64| {
        let mut sc = Scenario::chain(2, LossModel::None, seed);
        sc.node.startup_burst = burst;
        // The late viewer joins mid-GoP (GoP = 2 s at 15 fps).
        sc.viewers.push(Viewer {
            join_at: SimTime::from_millis(4000 + join_offset_ms),
            ..sc.viewers[0].clone()
        });
        let run = sc.run().expect("chain preset is valid");
        run.viewers[1].qoe.startup.map(|d| d.as_millis_f64())
    };
    let mut rows = Vec::new();
    for burst in [true, false] {
        let startups: Vec<f64> = [100u64, 500, 900, 1300, 1700]
            .iter()
            .enumerate()
            .filter_map(|(i, off)| startup_ms(burst, *off, 10 + i as u64))
            .collect();
        let mean = startups.iter().sum::<f64>() / startups.len().max(1) as f64;
        let max = startups.iter().cloned().fold(0.0f64, f64::max);
        let fast = startups.iter().filter(|&&s| s < 1000.0).count();
        rows.push(vec![
            if burst {
                "GoP cache burst (LiveNet)".into()
            } else {
                "no burst (wait for next I)".to_string()
            },
            format!("{mean:.0} ms"),
            format!("{max:.0} ms"),
            format!("{fast}/{}", startups.len()),
        ]);
    }
    out.table(
        &["variant", "mean startup", "worst startup", "fast (<1s)"],
        &rows,
    );
    out.note("");
    out.note("Paper connection: the GoP cache is why Fig. 9's fast-startup ratio");
    out.note("stays ≈95% regardless of streaming delay, and why 95% of views");
    out.note("start within 1 s (Table 1) despite 2 s GoPs.");
}

/// Ablation — the I-frame pacing gain (§5.2 "Priority-Aware Data Sending").
///
/// The paper sends I frames with a pacing gain of 1.5 "to quickly empty
/// the sending queue to avoid queuing delays". This ablation measures
/// capture→render frame delay percentiles with gain 1.0 vs 1.5 on a
/// bandwidth-constrained chain, where the big I frames actually queue.
pub(crate) fn pacing(_: &Args, out: &mut Report) {
    let mut rows = Vec::new();
    for gain in [1.0, 1.25, 1.5, 2.0] {
        let mut sc = Scenario::chain(2, LossModel::None, 7);
        sc.node.pacer.iframe_gain = gain;
        // Make the PACER the bottleneck (the knob under test): generous links,
        // pacing rate ~1.75× the stream bitrate, so I-frame bursts queue in
        // the pacer and the gain controls how fast they drain.
        sc.node.initial_rate = Bandwidth::from_kbps(3_500);
        let run = sc.run().expect("chain preset is valid");
        let mut e = Ecdf::new();
        e.extend(run.frame_delays_ms());
        rows.push(vec![
            format!("{gain:.2}"),
            format!("{:.0} ms", e.quantile(0.5)),
            format!("{:.0} ms", e.quantile(0.9)),
            format!("{:.0} ms", e.quantile(0.99)),
        ]);
    }
    out.table(&["pacing gain", "p50 frame delay", "p90", "p99"], &rows);
    out.note("");
    out.note("Expected shape: higher gain drains I-frame bursts faster, cutting");
    out.note("the tail (p90/p99) of frame delay on constrained links.");
}

/// Ablation — Global Routing design choices (§4.3, §7.3).
///
/// Sweeps the three routing knobs DESIGN.md calls out:
/// * K (candidate paths per pair; paper K = 3),
/// * the hop limit (paper 3),
/// * the sigmoid load-adjustment in the link weight (Eq. 3) vs plain
///   expected-RTT weights (α = 0 flattens f to a constant).
///
/// Reported per variant: median CDN delay, median path length, last-resort
/// share, and the share of realized paths over 3 hops (long chains).
pub(crate) fn routing(args: &Args, out: &mut Report) {
    // (name, K, hop limit, α)
    let variants = [
        ("paper (K=3, hops<=3, sigmoid)", 3, 3, 0.5),
        ("K=1", 1, 3, 0.5),
        ("hops<=2", 3, 2, 0.5),
        ("hops<=4", 3, 4, 0.5),
        ("no load term (alpha=0)", 3, 3, 0.0),
    ];
    let mut rows = Vec::new();
    for (name, k, max_hops, alpha) in variants {
        let cfg = FleetConfigBuilder::from_config(args.fleet.clone())
            .tweak(|c| {
                c.workload.days = c.workload.days.min(3);
                c.workload.festival_days = vec![];
                c.brain.routing.k = k;
                c.brain.routing.max_hops = max_hops;
                if max_hops > 3 {
                    // Hop limits above 3 leave the O(n³) mesh enumerator and
                    // fall back to per-pair Yen KSP; recompute hourly to keep
                    // the ablation tractable (the PIB barely changes at low
                    // load).
                    c.brain.routing.period_secs = 3600;
                }
                c.brain.routing.weight = WeightParams { alpha };
            })
            .build()
            .expect("ablation variant config is valid");
        let report = canonical(cfg);
        let ln = &report.livenet;
        let inter: Vec<SessionRecord> = ln.iter().filter(|s| s.international).copied().collect();
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", median(ln, |s| f64::from(s.cdn_delay_ms))),
            format!("{:.0}", median(&inter, |s| f64::from(s.cdn_delay_ms))),
            format!("{:.1}%", ratio_pct(&inter, |s| s.path_len >= 3)),
            format!("{:.2}%", ratio_pct(ln, |s| s.outcome.is_last_resort())),
            format!("{:.1}%", ratio_pct(ln, |s| s.zero_stall())),
        ]);
    }
    out.table(
        &[
            "variant",
            "median CDN (ms)",
            "inter median (ms)",
            "inter len>=3",
            "last-resort",
            "0-stall",
        ],
        &rows,
    );
    out.note("");
    out.note("Observed shape: at normal load the headline metrics are insensitive");
    out.note("to K and the hop limit — 92% of best paths are 2 hops anyway (Table");
    out.note("2), which is itself the paper's point. hops<=2 eliminates the");
    out.note("3-hop paths inter-national sessions otherwise use ~23% of the time");
    out.note("(chosen for loss/load-adjusted weight, roughly delay-neutral in");
    out.note("this topology); hops<=4 adds only computation (the O(n^3) mesh");
    out.note("enumerator no longer applies); the Eq.3 load term and K>1 pay off");
    out.note("under overload, where invalidation forces last-resort paths.");
}
