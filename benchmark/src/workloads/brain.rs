//! brain_storm: the control plane alone, closed loop, one caller.
//!
//! A unit of work is one simulated hour: every minute a batch of path
//! requests, then that minute's node reports, the periodic recompute
//! check and — four times an hour — a scripted node or region failure or
//! recovery. An operation is one Brain call; a path request fails when it
//! errs or returns a path that does not run producer → consumer within
//! the hop limit or that crosses a failed node.

use crate::gen::{brain_requests, Request};
use crate::harness::{self, Window};
use crate::report::RunResult;
use crate::seams::{BrainBench, BRAIN_STREAMS, CYCLE_MINUTES};
use crate::stats::Samples;
use crate::{probes, Args};

/// Requests drawn up front; the loop walks them round and round.
const REQUEST_POOL: usize = 1 << 20;
/// Path requests per simulated minute: ~170/s, a busy evening at paper
/// scale (Fig. 10a), and enough that requests outnumber every other call
/// a thousand to one.
const REQUESTS_PER_MINUTE: usize = 10_000;

struct State {
    bench: BrainBench,
    requests: Vec<Request>,
}

pub fn run(args: &Args, result: &mut RunResult) {
    let mut state = harness::repeat_setup(result, || {
        let bench = BrainBench::new(args.seed);
        let requests = brain_requests(args.seed, REQUEST_POOL, BRAIN_STREAMS, bench.consumers());
        State { bench, requests }
    });
    let State { bench, requests } = &mut state;

    let mut path_rtt_ms = Samples::default();
    let (mut served, mut invalid, mut last_resort, mut skipped) = (0u64, 0u64, 0u64, 0u64);
    let mut cursor = 0usize;

    let window = Window::open(args.traced);
    let mut units = harness::measure_units(result, args.seconds, |hour, latency| {
        let mut calls = 0u64;
        for m in 0..CYCLE_MINUTES as u64 {
            let minute = hour * CYCLE_MINUTES as u64 + m;
            let now = crate::seams::sim_secs(60 * (minute + 1));
            for _ in 0..REQUESTS_PER_MINUTE {
                let req = requests[cursor];
                cursor = (cursor + 1) % requests.len();
                match bench.path_request(req, served, now) {
                    Some(s) => {
                        served += 1;
                        latency.record(s.ns);
                        invalid += u64::from(!s.valid);
                        last_resort += u64::from(s.last_resort);
                        // One in 64 is plenty for a median.
                        if served % 64 == 0 {
                            path_rtt_ms.push(s.best_rtt_ms);
                        }
                    }
                    None => skipped += 1,
                }
            }
            calls += bench.minute_tick(minute, now);
        }
        calls + REQUESTS_PER_MINUTE as u64 * CYCLE_MINUTES as u64
    });
    let window = window.close();

    result.attempted = served;
    result.failed = invalid;
    result.check(invalid == 0, || {
        format!("{invalid} of {served} path requests erred or returned an invalid path")
    });
    result.check(served > 10 * skipped, || {
        format!("{skipped} requests skipped for a failed endpoint against {served} served")
    });

    if args.traced {
        units.put_p99(result, "brain.path_request_us_p99");
        result.put(
            "brain.last_resort_share",
            last_resort as f64 / served as f64,
            served,
        );
        result.put(
            "brain.pib_hit_share",
            1.0 - last_resort as f64 / served as f64,
            served,
        );
        result.put("brain.recompute_rounds", bench.recompute_rounds() as f64, 1);
        result.put(
            "brain.path_delay_ms_p50",
            path_rtt_ms.median() / 2.0,
            path_rtt_ms.len() as u64,
        );
        probes::brain(&window.spans, args.seed, result);
        probes::harness_overheads(result, args, &window);
    }
}
