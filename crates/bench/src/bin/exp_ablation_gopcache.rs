//! Ablation — the GoP cache's fast-startup effect (§5.1, Fig. 9's
//! mechanism).
//!
//! A viewer joins a long-running stream mid-GoP. With GoP caching, the
//! consumer bursts the most recent complete GoP and playback starts in a
//! few hundred milliseconds; without it, the viewer waits for the next
//! keyframe — on average half a GoP (1 s for 2 s GoPs), blowing the 1 s
//! fast-startup budget.

use livenet_bench::Report;
use livenet_emu::LossModel;
use livenet_sim::{Scenario, Viewer};
use livenet_types::SimTime;

fn startup_ms(burst: bool, join_offset_ms: u64, seed: u64) -> Option<f64> {
    let mut sc = Scenario::chain(2, LossModel::None, seed);
    sc.node.startup_burst = burst;
    // The late viewer joins mid-GoP (GoP = 2 s at 15 fps).
    sc.viewers.push(Viewer {
        join_at: SimTime::from_millis(4000 + join_offset_ms),
        ..sc.viewers[0].clone()
    });
    let run = sc.run().expect("chain preset is valid");
    run.viewers[1].qoe.startup.map(|d| d.as_millis_f64())
}

fn main() {
    let mut out = Report::new("ablation: GoP-cache startup burst (§5.1)", "§5.1, Fig. 9");
    let mut rows = Vec::new();
    for burst in [true, false] {
        let mut startups = Vec::new();
        for (i, off) in [100u64, 500, 900, 1300, 1700].iter().enumerate() {
            if let Some(ms) = startup_ms(burst, *off, 10 + i as u64) {
                startups.push(ms);
            }
        }
        let mean = startups.iter().sum::<f64>() / startups.len().max(1) as f64;
        let max = startups.iter().cloned().fold(0.0f64, f64::max);
        let fast = startups.iter().filter(|&&s| s < 1000.0).count();
        rows.push(vec![
            if burst { "GoP cache burst (LiveNet)".into() } else { "no burst (wait for next I)".to_string() },
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
    out.print();
}
