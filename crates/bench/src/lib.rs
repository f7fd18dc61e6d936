//! Shared experiment plumbing: canonical configurations, the cached
//! 20-day fleet run, and table/figure formatting helpers.
//!
//! `exp <name>` regenerates one table or figure of the paper (DESIGN.md §3
//! maps them); the other `exp_*` binaries are the packet-level, ablation
//! and wire experiments. Fleet binaries accept an optional `--scale <f>`
//! argument to shrink the workload for quick runs; the default reproduces
//! the full 20-day evaluation in a few minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;
pub mod report;

pub use report::Report;

use livenet_sim::{FleetConfig, FleetConfigBuilder, FleetReport, FleetSim, SessionRecord};
use livenet_types::Ecdf;

/// The canonical experiment seed.
pub const SEED: u64 = 20221122;

/// Parse `--scale <f>`, `--days <n>` and `--seed <s>` from argv, validating
/// the result.
pub fn cli_config() -> FleetConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut b = FleetConfigBuilder::paper_scale(SEED);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                    b = b.tweak(|c| c.workload.peak_arrivals_per_sec *= v);
                    i += 1;
                }
            }
            "--days" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u32>().ok()) {
                    b = b.days(v);
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    b = b.seed(v);
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.build().expect("invalid command-line configuration")
}

/// Run the fleet simulation for a config (the legacy monolith path — the
/// canonical sample path the `exp_*` tables are quoted against).
pub fn run(cfg: FleetConfig) -> FleetReport {
    FleetSim::new(cfg).run()
}

/// Median of a session metric.
pub fn median(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> f64) -> f64 {
    let mut e = Ecdf::new();
    for s in sessions {
        e.push(f(s));
    }
    e.median()
}

/// Ratio of sessions satisfying a predicate, in percent.
pub fn ratio_pct(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> bool) -> f64 {
    if sessions.is_empty() {
        return f64::NAN;
    }
    100.0 * sessions.iter().filter(|s| f(s)).count() as f64 / sessions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::SimTime;

    fn rec(cdn: f32, fast: bool) -> SessionRecord {
        SessionRecord {
            start: SimTime::ZERO,
            day: 0,
            hour: 0,
            path_len: 2,
            international: false,
            cdn_delay_ms: cdn,
            streaming_delay_ms: 900.0,
            first_packet_ms: 50.0,
            startup_ms: if fast { 500.0 } else { 1500.0 },
            stalls: 0,
            outcome: livenet_sim::DecisionOutcome::Prefetched,
        }
    }

    #[test]
    fn median_and_ratio_helpers() {
        let sessions = vec![rec(100.0, true), rec(200.0, true), rec(300.0, false)];
        assert_eq!(median(&sessions, |s| f64::from(s.cdn_delay_ms)), 200.0);
        let pct = ratio_pct(&sessions, |s| s.fast_startup());
        assert!((pct - 66.666).abs() < 0.01);
    }
}
