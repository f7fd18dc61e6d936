//! §3/§5 validation — the fast-slow path transmission architecture on the
//! paper's A→B→C example, at packet level.
//!
//! Demonstrates (and quantifies) the design claim: when A→B loses packets,
//! B's slow path NACKs A and recovers them; the fast path keeps forwarding
//! around the hole; when C detects the same loss, B has usually already
//! recovered the packet, so C's recovery takes only one B↔C RTT. With the
//! slow path disabled (ablation), lost packets are never recovered and
//! viewers stall or skip frames.

use livenet_bench::Report;
use livenet_emu::LossModel;
use livenet_sim::Scenario;

fn main() {
    let mut out = Report::new("fast/slow path recovery (A→B→C, §3 & §5)", "§3 & §5");

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
                LossModel::Bernoulli { p: loss_pct / 100.0 }
            };
            let mut sc = Scenario::chain(2, loss, 42);
            if !recovery {
                sc.node.nack_retry_limit = 0;
            }
            let run = sc.run().expect("chain preset is valid");
            let qoe = run.viewers[0].qoe;
            let recoveries = run.recovery_latencies_ms();
            let mean_recovery = if recoveries.is_empty() {
                f64::NAN
            } else {
                recoveries.iter().sum::<f64>() / recoveries.len() as f64
            };
            rows.push(vec![
                format!("{loss_pct:.1}%{}", if bursty { " bursty" } else { "" }),
                if recovery { "fast+slow".into() } else { "fast only".into() },
                format!("{}", qoe.frames_rendered),
                format!("{}", qoe.stalls),
                format!("{}", run.nodes[0].stats.rtx_served),
                if mean_recovery.is_nan() {
                    "-".into()
                } else {
                    format!("{mean_recovery:.0} ms")
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
    out.print();
}
