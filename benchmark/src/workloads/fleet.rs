//! fleet_ticks, fleet_sessions, fleet_replicated: whole simulated days of
//! `sim::fleet`, loaded three ways.
//!
//! A unit of work is one `FleetRunner::run_serial` of the workload's
//! configuration — one simulated day. An operation is one viewing
//! session; it fails when the run produces no finite LiveNet record for
//! it.

use crate::harness::{self, Window};
use crate::report::RunResult;
use crate::seams::{Fleet, FleetKind, FleetRun};
use crate::{probes, Args};

pub fn run(kind: FleetKind, args: &Args, result: &mut RunResult) {
    let fleet = harness::repeat_setup(result, || Fleet::new(kind, args.seed));

    let window = Window::open(args.traced);
    let mut last: Option<FleetRun> = None;
    let mut units = harness::measure_units(result, args.seconds, |i, _| {
        // Free the previous day's report first: two alive at once would
        // double `peak_rss_mb`.
        drop(last.take());
        let run = fleet.run_serial(i);
        let sessions = run.sessions();
        last = Some(run);
        sessions
    });
    let window = window.close();

    let out = last.expect("at least one unit ran").outcome();
    let n_units = units.len();
    result.attempted = out.sessions * n_units;
    result.failed = out.invalid * n_units;
    result.check(out.sessions == out.hier_sessions, || {
        format!(
            "{} LiveNet records but {} Hier records: the systems did not see the same sessions",
            out.sessions, out.hier_sessions
        )
    });
    result.check(out.invalid == 0, || {
        format!("{} session records hold a non-finite field", out.invalid)
    });
    // The generator is a thinned Poisson process: its count is within a
    // few standard deviations of the rate's integral, less the arrivals
    // that raced a channel going offline.
    let expected = fleet.expected_sessions();
    let generated = (out.sessions + out.skipped_offline) as f64;
    result.check(
        (generated - expected).abs() <= 0.02 * expected + 6.0 * expected.sqrt(),
        || format!("{generated} sessions generated, the arrival rate integrates to {expected}"),
    );
    result.check(out.log_divergences == 0, || {
        format!("{} Paxos log divergences", out.log_divergences)
    });
    result.check(units.ops() == out.sessions * n_units, || {
        "units of the same configuration produced different session counts".into()
    });

    if args.traced {
        let unit_wall = units.median_wall_s();
        probes::fleet(kind, &fleet, &out, unit_wall, result);
        result.put(
            "sim.bytes_per_session",
            window.alloc_bytes as f64 / units.ops().max(1) as f64,
            units.ops(),
        );
        probes::harness_overheads(result, args, &window);
    }
}
