//! The seven workloads. Each one stresses different crates, so a change
//! to one layer has a workload that exercises it and one that does not;
//! why each exists is recorded in `BENCHMARK.json` and the README.

mod brain;
mod fleet;
mod relay;
mod wire;

use crate::report::RunResult;
use crate::seams::FleetKind;
use crate::{harness, Args};

pub const NAMES: &[&str] = &[
    "fleet_ticks",
    "fleet_sessions",
    "fleet_replicated",
    "relay_clean",
    "relay_lossy",
    "brain_storm",
    "wire_chain",
];

/// Run one workload in this process and collect its metrics.
pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    match args.workload.as_str() {
        "fleet_ticks" => fleet::run(FleetKind::Ticks, args, &mut result),
        "fleet_sessions" => fleet::run(FleetKind::Sessions, args, &mut result),
        "fleet_replicated" => fleet::run(FleetKind::Replicated, args, &mut result),
        "relay_clean" => relay::run(false, args, &mut result),
        "relay_lossy" => relay::run(true, args, &mut result),
        "brain_storm" => brain::run(args, &mut result),
        "wire_chain" => wire::run(args, &mut result),
        other => unreachable!("{other} passed argument parsing"),
    }
    result.put("peak_rss_mb", harness::peak_rss_mb(), 1);
    result
}
