//! Property-based tests for the discrete-event emulator.

use bytes::Bytes;
use livenet_emu::{Ctx, Host, LinkConfig, LossModel, NetSim};
use livenet_types::{Bandwidth, EventQueue, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

/// Collects everything it receives with timestamps.
#[derive(Default)]
struct Sink {
    got: Vec<(SimTime, Vec<u8>)>,
}

impl Host for Sink {
    fn on_datagram(&mut self, ctx: &mut Ctx, _from: NodeId, payload: Bytes) {
        self.got.push((ctx.now(), payload.to_vec()));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx, _key: u64) {}
}

proptest! {
    /// A lossless link is FIFO: datagrams sent in order arrive in order,
    /// regardless of sizes.
    #[test]
    fn lossless_link_is_fifo(sizes in prop::collection::vec(1usize..2000, 1..60)) {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim: NetSim<Sink> = NetSim::new(1);
        sim.add_host(a, Sink::default());
        sim.add_host(b, Sink::default());
        sim.add_duplex(a, b, LinkConfig {
            delay: SimDuration::from_millis(5),
            bandwidth: Bandwidth::from_mbps(10),
            queue_bytes: usize::MAX,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
        });
        for (i, &size) in sizes.iter().enumerate() {
            let mut payload = vec![0u8; size];
            payload[0] = i as u8;
            sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from(payload)));
        }
        sim.run_until(SimTime::from_secs(60));
        let got = &sim.host(b).unwrap().got;
        prop_assert_eq!(got.len(), sizes.len());
        for (i, (_, payload)) in got.iter().enumerate() {
            prop_assert_eq!(payload[0], i as u8, "reordered");
            prop_assert_eq!(payload.len(), sizes[i]);
        }
        // Arrival times are non-decreasing.
        for w in got.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }

    /// Delivery time ≥ propagation + serialization for every datagram.
    #[test]
    fn delivery_respects_physics(sizes in prop::collection::vec(1usize..5000, 1..30)) {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let bw = Bandwidth::from_mbps(8);
        let prop_delay = SimDuration::from_millis(7);
        let mut sim: NetSim<Sink> = NetSim::new(2);
        sim.add_host(a, Sink::default());
        sim.add_host(b, Sink::default());
        sim.add_duplex(a, b, LinkConfig {
            delay: prop_delay,
            bandwidth: bw,
            queue_bytes: usize::MAX,
            loss: LossModel::None,
            jitter: SimDuration::ZERO,
        });
        for &size in &sizes {
            sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from(vec![0u8; size])));
        }
        sim.run_until(SimTime::from_secs(120));
        let got = &sim.host(b).unwrap().got;
        let mut cumulative_tx = SimDuration::ZERO;
        for (i, (at, _)) in got.iter().enumerate() {
            cumulative_tx += bw.transmission_time(sizes[i]);
            let floor = SimTime::ZERO + cumulative_tx + prop_delay;
            prop_assert!(
                *at >= floor - SimDuration::from_nanos(sizes.len() as u64),
                "datagram {i} arrived at {at}, floor {floor}"
            );
        }
    }

    /// Bernoulli loss: the delivered count is binomially plausible and the
    /// run is deterministic in the seed.
    #[test]
    fn lossy_link_is_deterministic(seed: u64, p in 0.05f64..0.95) {
        let run = |seed: u64| {
            let a = NodeId::new(1);
            let b = NodeId::new(2);
            let mut sim: NetSim<Sink> = NetSim::new(seed);
            sim.add_host(a, Sink::default());
            sim.add_host(b, Sink::default());
            sim.add_duplex(a, b, LinkConfig {
                delay: SimDuration::from_millis(1),
                bandwidth: Bandwidth::from_gbps(1),
                queue_bytes: usize::MAX,
                loss: LossModel::Bernoulli { p },
                jitter: SimDuration::ZERO,
            });
            for _ in 0..200 {
                sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
            }
            sim.run_until(SimTime::from_secs(10));
            sim.host(b).unwrap().got.len()
        };
        let first = run(seed);
        prop_assert_eq!(first, run(seed), "nondeterministic");
        prop_assert!(first <= 200);
    }

    /// The event queue pops in (time, insertion) order for any schedule.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }
}
