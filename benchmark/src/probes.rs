//! Per-layer probes: what a traced run measures beside its spans.
//!
//! A probe either reads a count out of the workload that just ran, or
//! replays inputs through one public function of a crate and reports wall
//! time per call. Probes run after the timed window, with tracing off, so
//! they never touch an end-to-end number.

use crate::harness::Windowed;
use crate::report::RunResult;
use crate::seams::{Fleet, FleetKind, FleetOutcome};
use crate::stats::Samples;
use crate::trace::{self, Recorder};
use crate::{alloc, seams, Args};
use std::collections::BTreeSet;
use std::time::Instant;

/// Wall nanoseconds per call of `f`, as the median over `rounds` rounds
/// of `calls` calls each.
pub fn ns_per_call(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Samples::default();
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    per_call.median()
}

/// What the harness itself costs: spans and the counting allocator, as
/// shares of the traced window, plus the span file.
pub fn harness_overheads(result: &mut RunResult, args: &Args, window: &Windowed) {
    let (workload, seed) = (args.workload.as_str(), args.seed);
    let (recorded, window_s, window_allocs) = (&window.spans, window.wall_s, window.allocs);
    let spans: u64 = recorded.totals().values().map(|t| t.count).sum();
    trace::enable();
    let span_ns = ns_per_call(5, 100_000, || drop(trace::span("bench.probe", 0)));
    drop(trace::finish());
    let window_ns = window_s * 1e9;
    result.put("bench.spans", spans as f64, 1);
    result.put(
        "bench.peak_live_mb",
        window.peak_live_bytes as f64 / (1 << 20) as f64,
        1,
    );
    result.put(
        "bench.trace_overhead_share",
        spans as f64 * span_ns / window_ns,
        spans,
    );
    result.put(
        "bench.alloc_counter_overhead_share",
        window_allocs as f64 * alloc::counting_cost_ns() / window_ns,
        window_allocs,
    );

    // The acceptance check on the spans themselves: self times of all
    // names add up to the window's root span.
    let root = recorded.total("bench.window").total_ns;
    let self_sum: u64 = recorded.totals().values().map(|t| t.self_ns).sum();
    let layers: BTreeSet<&str> = recorded
        .totals()
        .keys()
        .filter_map(|n| n.split('.').next())
        .collect();
    let shares: Vec<String> = layers
        .iter()
        .map(|l| {
            format!(
                "{l} {:.1} %",
                recorded.layer_self_ns(l) as f64 * 100.0 / root.max(1) as f64
            )
        })
        .collect();
    result.notes.push(format!(
        "self time by layer, share of the traced window: {}",
        shares.join(", ")
    ));
    result.check(root > 0 && self_sum.abs_diff(root) * 20 <= root, || {
        format!("span self times sum to {self_sum} ns, the traced window took {root} ns")
    });

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{workload}.json");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, recorded.to_json(workload, seed)));
    result.check(written.is_ok(), || {
        format!("cannot write {path}: {written:?}")
    });
}

/// The fleet workloads' layer numbers: the tick/session split, the
/// simulated-time viewer experience, and — where the configuration has
/// them — shards and Paxos.
pub fn fleet(
    kind: FleetKind,
    fleet: &Fleet,
    out: &FleetOutcome,
    unit_wall_s: f64,
    r: &mut RunResult,
) {
    // Same configuration with nobody watching: what remains is the tick.
    let quiet = fleet.quiet();
    let t = Instant::now();
    let quiet_run = quiet.run_serial(0);
    let tick_wall_s = t.elapsed().as_secs_f64();
    drop(quiet_run);
    let minutes = fleet.shard_minutes();
    r.put("sim.tick_ms", tick_wall_s * 1e3 / minutes as f64, minutes);
    r.put("sim.tick_share", (tick_wall_s / unit_wall_s).min(1.0), 1);
    r.put(
        "sim.session_us",
        (unit_wall_s - tick_wall_s).max(0.0) * 1e6 / out.sessions.max(1) as f64,
        out.sessions,
    );
    r.put("sim.sessions", out.sessions as f64, 1);
    r.put(
        "sim.streaming_delay_ms_p50",
        out.streaming_delay_ms_p50,
        out.sessions,
    );
    r.put(
        "sim.fast_startup_share",
        out.fast_startup_share,
        out.sessions,
    );
    r.put("sim.zero_stall_share", out.zero_stall_share, out.sessions);
    r.put("brain.recompute_rounds", out.recompute_rounds as f64, 1);
    let (drawn, ns) = fleet.replay_workload();
    r.put("sim.workload_next_session_ns", ns, drawn);

    if fleet.shards() > 1 {
        let shard_s = fleet.run_shards_timed();
        let max = shard_s.iter().copied().fold(0.0, f64::max);
        let sum: f64 = shard_s.iter().sum();
        let n = shard_s.len() as u64;
        r.put("sim.shard_run_s_max", max, n);
        r.put("sim.shard_skew", max * n as f64 / sum, n);
        r.put("sim.merge_s", (unit_wall_s - sum).max(0.0), 1);
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(fleet.shards());
        let t = Instant::now();
        drop(fleet.run_parallel(threads));
        r.put(
            "sim.parallel_speedup",
            unit_wall_s / t.elapsed().as_secs_f64(),
            threads as u64,
        );
    }

    if kind == FleetKind::Replicated {
        let plain = fleet.unreplicated();
        let t = Instant::now();
        drop(plain.run_serial(0));
        r.put(
            "replication.fleet_slowdown",
            unit_wall_s / t.elapsed().as_secs_f64(),
            1,
        );
        r.put("replication.slots_decided", out.slots_decided as f64, 1);
        r.put(
            "replication.renewal_share",
            out.lease_renewals as f64 / out.slots_decided.max(1) as f64,
            out.slots_decided,
        );
        r.put(
            "replication.msgs_per_decree",
            out.msgs_sent as f64 / out.slots_decided.max(1) as f64,
            out.slots_decided,
        );
        let (us, n) = seams::probe_decree_us();
        r.put("replication.decree_us", us, n);
    }

    if kind == FleetKind::Sessions {
        // The layers a session touches besides sim itself.
        seams::probe_telemetry(r);
        seams::probe_hier_and_topology(r);
    }
}

/// The Brain's layer numbers: per-call costs from the window's spans and
/// from replays on a fresh Brain.
pub fn brain(recorded: &Recorder, seed: u64, r: &mut RunResult) {
    let per_call_us = |name: &str| {
        let t = recorded.total(name);
        (t.total_ns as f64 / 1e3 / t.count.max(1) as f64, t.count)
    };
    let (us, n) = per_call_us("brain.absorb_report");
    r.put("brain.absorb_report_us", us, n);
    let (us, n) = per_call_us("brain.node_failed");
    r.put("brain.node_failed_us", us, n);
    seams::probe_brain(seed, r);
    seams::probe_hier_and_topology(r);
}

/// The relay workloads' layer numbers: what the window's nodes, viewers,
/// links and spans counted, then the packet-path replays.
pub fn relay(
    relay: &seams::Relay,
    mut viewers: seams::ViewerTally,
    window: &Windowed,
    forwarded: u64,
    r: &mut RunResult,
) {
    let recorded = &window.spans;
    let window_ns = window.wall_s * 1e9;
    let nodes = relay.node_tally();
    r.put("node.calls", nodes.calls as f64, 1);
    r.put(
        "node.busy_share",
        nodes.busy_ns as f64 / window_ns,
        nodes.calls,
    );
    r.put(
        "node.actions_per_datagram",
        nodes.actions as f64 / nodes.datagrams.max(1) as f64,
        nodes.datagrams,
    );
    r.put(
        "node.slow_path_share",
        nodes.slow_datagrams as f64 / nodes.datagrams.max(1) as f64,
        nodes.datagrams,
    );
    let stats = relay.node_stats();
    r.put("node.rtx_served", stats.rtx_served as f64, 1);
    r.put("node.nack_batches", stats.nack_batches as f64, 1);
    r.put("node.duplicates", stats.duplicates as f64, 1);
    r.put(
        "node.rtx_pending_expired",
        stats.rtx_pending_expired as f64,
        1,
    );

    let n = viewers.frame_delay_ms.len() as u64;
    r.put(
        "node.frame_delay_ms_p50",
        viewers.frame_delay_ms.median(),
        n,
    );
    r.put(
        "node.frame_delay_ms_p99",
        viewers.frame_delay_ms.quantile(0.99),
        n,
    );
    r.put(
        "node.viewer_startup_ms_p50",
        viewers.startup_ms.median(),
        viewers.startup_ms.len() as u64,
    );
    let mut recovery = Samples::default();
    nodes.recovery_ms.iter().for_each(|&ms| recovery.push(ms));
    if !recovery.is_empty() {
        r.put(
            "node.recovery_ms_p50",
            recovery.median(),
            recovery.len() as u64,
        );
    }

    let events = nodes.calls + viewers.calls;
    r.put("emu.events", events as f64, 1);
    r.put(
        "emu.events_per_pkt",
        events as f64 / forwarded.max(1) as f64,
        forwarded,
    );
    r.put(
        "emu.self_share",
        recorded.total("emu.run_until").self_ns as f64 / window_ns,
        recorded.total("emu.run_until").count,
    );
    let (drops, depth) = relay.link_drops_and_queue();
    r.put("emu.link_drops", drops as f64, 1);
    r.put("emu.queue_high_water", depth, 1);

    seams::probe_packet_path(r);
}
