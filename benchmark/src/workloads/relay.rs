//! relay_clean, relay_lossy: the data plane on the emulator.
//!
//! Seven `OverlayNode`s in a tree (P → {R1, R2} → {C1..C4}) carry four
//! 2 Mbps / 30 fps streams to 64 emulated viewers. Set-up runs the tree
//! until every stream cache on every node holds its full 2048 packets —
//! the state a live stream is in for hours — and only then does the timed
//! window start. A unit of work is one simulated second (the streams start
//! half a second apart, so every unit holds the I frames of two of them),
//! during which one viewer joins and one leaves, so start-up bursts and
//! detaches are part of every unit. An operation is one frame captured
//! in the timed window and due at one viewer; it fails when the viewer
//! never completes it.
//!
//! `relay_lossy` is the same tree and load with loss on one trunk, one
//! branch and eight access links, so the slow path (hole tracking, NACK,
//! cache reads, alternate suppliers) runs beside the fast one.

use crate::gen::{viewer_plan, Viewer};
use crate::harness::{self, Window};
use crate::report::RunResult;
use crate::seams::{Relay, RELAY_CONSUMERS, RELAY_STREAMS};
use crate::{probes, Args};

/// Simulated length of one unit: half a GoP, with two streams' I frames.
const UNIT_MS: u64 = 1_000;
/// Units a churning viewer stays for.
const CHURN_STAY_UNITS: usize = 3;
/// Viewers per (consumer, stream) pair.
const VIEWERS_PER_CELL: usize = 4;
/// Viewers that come and go during the timed window.
const CHURNERS: usize = 8;
/// Viewers behind a 2 % lossy access link on `relay_lossy`.
const LOSSY_VIEWERS: usize = 8;
/// A cell's first viewer joins at once so the stream flows to its
/// consumer; the other always-on viewers join late in the warm-up, when
/// the caches are nearly full, to keep set-up short.
const LATE_JOIN_MS: u64 = 7_500;

struct State {
    relay: Relay,
    churners: Vec<Viewer>,
}

fn set_up(seed: u64, lossy: bool) -> State {
    let plan = viewer_plan(
        seed,
        RELAY_CONSUMERS,
        RELAY_STREAMS,
        VIEWERS_PER_CELL,
        2_500,
        CHURNERS,
        LOSSY_VIEWERS,
    );
    let mut relay = Relay::build(seed);
    let (churners, mut base): (Vec<Viewer>, Vec<Viewer>) = plan.iter().partition(|v| v.churner);
    let mut cell_has_viewer = [[false; RELAY_STREAMS]; RELAY_CONSUMERS];
    for v in &mut base {
        let first = !std::mem::replace(
            &mut cell_has_viewer[v.consumer as usize][v.stream as usize],
            true,
        );
        v.join_ms = if first {
            v.join_ms / 25
        } else {
            LATE_JOIN_MS as u32 + v.join_ms
        };
    }
    base.sort_by_key(|v| v.join_ms);
    let mut links_are_lossy = false;
    for v in base {
        // Every cell's first viewer has joined by 100 ms; by 300 ms all
        // reverse-path subscriptions are established.
        if lossy && !links_are_lossy && v.join_ms > 300 {
            relay.run_until_ms(300);
            relay.make_trunks_lossy();
            links_are_lossy = true;
        }
        relay.run_until_ms(u64::from(v.join_ms));
        relay.attach(v, lossy);
    }
    while !relay.caches_full() {
        relay.run_until_ms(relay.now_ms() + 250);
        assert!(relay.now_ms() < 60_000, "stream caches never filled");
    }
    State { relay, churners }
}

pub fn run(lossy: bool, args: &Args, result: &mut RunResult) {
    let State {
        mut relay,
        churners,
    } = harness::repeat_setup(result, || set_up(args.seed, lossy));
    relay.reset_tallies();

    let window = Window::open(args.traced);
    let mut watching = std::collections::VecDeque::new();
    let mut units = harness::measure_units(result, args.seconds, |i, service| {
        let t0 = relay.now_ms();
        let forwarded = relay.forwarded();
        relay.run_until_ms(t0 + 150);
        watching.push_back(relay.attach(churners[i as usize % churners.len()], lossy));
        relay.run_until_ms(t0 + 900);
        if watching.len() > CHURN_STAY_UNITS {
            relay.detach(watching.pop_front().expect("non-empty"));
        }
        relay.run_until_ms(t0 + UNIT_MS);
        relay.take_service_times(service);
        relay.forwarded() - forwarded
    });
    let window = window.close();

    let viewers = relay.viewer_tally();
    result.attempted = viewers.frames_due;
    result.failed = viewers.frames_due - viewers.frames_completed;
    let completed = viewers.frames_completed as f64 / viewers.frames_due.max(1) as f64;
    let floor = if lossy { 0.95 } else { 0.99 };
    result.check(completed >= floor, || {
        format!(
            "{} of {} frames due were completed ({completed:.4}); at least {floor} must be",
            viewers.frames_completed, viewers.frames_due
        )
    });
    let always_on = RELAY_CONSUMERS * RELAY_STREAMS * VIEWERS_PER_CELL - CHURNERS;
    result.check(viewers.startup_ms.len() >= always_on, || {
        format!(
            "only {} of the {always_on} always-on viewers ever completed a frame",
            viewers.startup_ms.len()
        )
    });

    if args.traced {
        units.put_p99(result, "node.service_us_p99");
        probes::relay(&relay, viewers, &window, units.ops(), result);
        probes::harness_overheads(result, args, &window);
    }
}
