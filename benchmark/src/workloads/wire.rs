//! wire_chain: the only workload where `livenet-transport` does work.
//!
//! Three `UdpOverlayNode`s (P → R → C) on 127.0.0.1 carry one 2 Mbps /
//! 30 fps stream to sixteen viewer sockets the benchmark owns. The load
//! is open loop: a frame is handed to the producer every 1/30 s of wall
//! clock whatever the chain does, and each frame's latency runs from the
//! instant it was *due* to its last packet arriving at a viewer socket.
//! An operation is one media packet due at one viewer; it fails when it
//! never arrives. The offered rate is fixed, so `ops_per_s` is the rate
//! delivered — it moves only if the chain starts dropping.
//!
//! A unit of work is a fresh chain's first group of pictures: spawn and
//! wire the three nodes, attach the viewers (timed as one set-up), send
//! thirty frames over one second, drain, shut down. A chain left running
//! is not a steady system on this executor: frame latency climbs from 1 ms
//! to 4 ms while the stream caches fill, and after about fifteen seconds
//! to hundreds of milliseconds. Units that each start from nothing have
//! the same distribution, so their median means something.

use crate::harness::{SetupTimes, Units, Window};
use crate::report::RunResult;
use crate::seams::{
    block_on, probe_transport, wire_telemetry, WireChain, WIRE_GOP_SECONDS, WIRE_VIEWERS,
};
use crate::stats::Hist;
use crate::{probes, Args};
use std::time::Instant;

pub fn run(args: &Args, result: &mut RunResult) {
    block_on(async {
        let telemetry = wire_telemetry();
        let mut setups = SetupTimes::start();
        let mut units = Units::default();
        let mut generator_lag = Hist::default();
        let mut spawn_ms = 0.0;
        let (mut frames, mut due, mut delivered) = (0u64, 0u64, 0u64);

        let window = Window::open(args.traced);
        let began = Instant::now();
        while units.len() == 0 || began.elapsed().as_secs_f64() < args.seconds {
            let t = Instant::now();
            let mut chain = WireChain::start(&telemetry).await;
            setups.push(t.elapsed().as_secs_f64());

            let (before, frames_before) = (chain.packets_delivered(), chain.frames_ingested);
            let t = Instant::now();
            chain.broadcast_for(WIRE_GOP_SECONDS).await;
            let wall_s = t.elapsed().as_secs_f64();
            // The unit's last frames complete during the drain.
            chain.drain().await;
            let latencies = std::mem::take(&mut chain.latency);
            units.push(chain.packets_delivered() - before, wall_s, latencies);

            frames += chain.frames_ingested - frames_before;
            generator_lag.merge(&chain.generator_lag);
            spawn_ms = chain.spawn_ms.median();
            let totals = chain.shutdown().await;
            due += totals.packets_ingested * WIRE_VIEWERS as u64;
            delivered += totals.packets_delivered;
        }
        let window = window.close();
        setups.finish(result);
        units.finish(result);

        result.attempted = due;
        result.failed = due.saturating_sub(delivered);
        let share = delivered as f64 / due.max(1) as f64;
        result.check(share >= 0.99, || {
            format!("{delivered} of {due} packets due reached a viewer socket ({share:.4}); at least 0.99 must")
        });
        let samples = units.samples();
        result.check(samples >= frames * WIRE_VIEWERS as u64 * 99 / 100, || {
            format!("{samples} frame completions for {frames} frames at {WIRE_VIEWERS} viewers")
        });

        if args.traced {
            units.put_p99(result, "transport.frame_latency_us_p99");
            result.put("transport.delivery_share", share, due);
            result.put(
                "transport.delivered_dps",
                units.ops() as f64 / window.wall_s,
                units.len(),
            );
            result.put("transport.spawn_ms", spawn_ms, 3);
            result.put(
                "bench.generator_lag_us_p99",
                generator_lag.quantile_ns(0.99) / 1e3,
                frames,
            );
            probe_transport(&telemetry, result);
            probes::harness_overheads(result, args, &window);
        }
    });
}
