//! Stepping a scenario: a run stepped with `run_until` at any instants
//! finishes equal to the one-shot `run`, and once every viewer has left,
//! every node is back to the footprint it started with.

use livenet_cases::prelude::*;
use livenet_emu::{LinkConfig, LossModel};
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeEvent, NodeFootprint};
use livenet_sim::{Scenario, ScenarioRun, Viewer, COSTREAM, SCENARIO_STREAM};
use livenet_types::{ClientId, NodeId, SimDuration, SimTime};
use std::sync::OnceLock;

/// The scenario's first frame capture.
const FIRST_CAPTURE: SimTime = SimTime::from_millis(50);

/// 2 % loss on the first hop of the two-hop chain.
fn lossy_chain() -> Scenario {
    Scenario::chain(2, LossModel::Bernoulli { p: 0.02 }, 42)
}

/// The §6.5 relay crash: B dies 5 s in; `slow` withholds the cached backup
/// and answers the consumer's path request after a 2.5 s control RTT.
fn crash_diamond(slow: bool) -> Scenario {
    let mut sc = Scenario::diamond(LinkConfig::backbone(SimDuration::from_millis(10)), 7);
    sc.faults.crash(SimTime::from_secs(5), sc.nodes[1]);
    sc.control_rtt = slow.then_some(SimDuration::from_millis(2500));
    sc
}

/// The multi-supplier RTX diamond: 80 ms / 3 % loss on P–B, one
/// alternate supplier, a second viewer at D keeping it warm.
fn degraded_diamond() -> Scenario {
    let mut sc = Scenario::diamond(
        LinkConfig {
            loss: LossModel::Bernoulli { p: 0.03 },
            ..LinkConfig::backbone(SimDuration::from_millis(80))
        },
        5,
    );
    sc.node.rtx_alt_suppliers = 1;
    sc.viewers.push(Viewer {
        path: vec![sc.nodes[0], sc.nodes[3]],
        backups: Vec::new(),
        ..sc.viewers[0].clone()
    });
    sc
}

/// The lossy chain with a co-broadcast 3 s in.
fn costream_chain() -> Scenario {
    let mut sc = lossy_chain();
    sc.costream_at = Some(SimTime::from_secs(3));
    sc
}

/// Detach every viewer at `leave`, run 5 s more, and return each node
/// whose footprint then differs from the one it started with, with that
/// footprint.
fn left_behind(sc: &Scenario, leave: SimTime) -> Vec<(NodeId, NodeFootprint)> {
    let mut sim = sc.start().unwrap();
    let idle: Vec<_> = sc
        .nodes
        .iter()
        .map(|&id| sim.node(id).footprint())
        .collect();
    sim.run_until(leave);
    for (i, v) in sc.viewers.iter().enumerate() {
        let consumer = *v.path.last().unwrap();
        sim.with_node(consumer, |node, now| {
            let mut actions = Vec::new();
            node.client_detach(now, ClientId::new(i as u64 + 1), &mut actions);
            actions
        });
    }
    sim.run_until(leave + SimDuration::from_secs(5));
    sc.nodes
        .iter()
        .zip(idle)
        .map(|(&id, idle)| (id, sim.node(id).footprint(), idle))
        .filter(|&(_, now, idle)| now != idle)
        .map(|(id, now, _)| (id, now))
        .collect()
}

/// ROADMAP 4(a)'s first invariant: state lives while something references
/// it, so when every viewer has left, every node — the producer with its
/// one stream — holds what it held before the first join. Viewers leave
/// while the broadcast still runs, after any failover has settled.
///
/// Two leaks stand, pinned here exactly so that neither grows unseen and
/// the list empties when the node releases them:
/// - A producer keeps a crashed relay in its FIB: nothing unsubscribes
///   it, so A keeps B's peer and goes on sending it the whole stream.
/// - An alternate supplier keeps the send-side peer it made to serve
///   retransmissions to a consumer that never subscribed to it: D keeps
///   C's peer with no stream left.
#[test]
fn every_node_returns_to_idle_once_every_viewer_leaves() {
    let cases = [
        ("lossy chain", lossy_chain(), SimTime::from_secs(8)),
        (
            "fast crash diamond",
            crash_diamond(false),
            SimTime::from_secs(15),
        ),
        (
            "slow crash diamond",
            crash_diamond(true),
            SimTime::from_secs(15),
        ),
        (
            "degraded diamond",
            degraded_diamond(),
            SimTime::from_secs(15),
        ),
    ];
    let leaks: Vec<_> = cases
        .iter()
        .flat_map(|(name, sc, leave)| {
            left_behind(sc, *leave)
                .into_iter()
                .map(move |(id, footprint)| (*name, id, footprint))
        })
        .collect();
    let dead_relay_peer = NodeFootprint {
        streams: 1,
        peers: 1,
        neighbors: 2,
        ..NodeFootprint::default()
    };
    let rtx_peer = NodeFootprint {
        peers: 1,
        neighbors: 2,
        ..NodeFootprint::default()
    };
    assert_eq!(
        leaks,
        [
            ("fast crash diamond", NodeId::new(1), dead_relay_peer),
            ("slow crash diamond", NodeId::new(1), dead_relay_peer),
            ("degraded diamond", NodeId::new(4), rtx_peer),
        ]
    );
}

/// The instants the scenario's driver acts at: every frame capture of
/// both encoders, every join, the co-stream start, the fault instants and
/// the scripted Brain's replies, read back from the one-shot `run`.
fn driver_instants(sc: &Scenario, run: &ScenarioRun) -> Vec<SimTime> {
    let end = FIRST_CAPTURE + sc.duration;
    let captures = |stream, from| {
        let mut enc = VideoEncoder::new(stream, GopConfig::default(), sc.bitrate, from);
        std::iter::from_fn(move || {
            let at = enc.next_capture_time();
            enc.next_frame();
            (at < end).then_some(at)
        })
    };
    let mut instants: Vec<SimTime> = captures(SCENARIO_STREAM, FIRST_CAPTURE).collect();
    if let Some(at) = sc.costream_at {
        instants.extend(captures(COSTREAM, at));
        instants.push(at);
    }
    instants.extend(sc.viewers.iter().map(|v| v.join_at));
    instants.extend(sc.faults.events().map(|f| f.at));
    // The driver notices a path request at the first capture at or after
    // it and answers one control RTT later.
    if let Some(rtt) = sc.control_rtt {
        for v in &sc.viewers {
            let asked = run.first_event(*v.path.last().unwrap(), |e| {
                matches!(e, NodeEvent::PathRequestNeeded { .. })
            });
            let seen = asked.and_then(|t| instants.iter().copied().filter(|&c| c >= t).min());
            instants.extend(seen.map(|t| t + rtt));
        }
    }
    instants
}

/// Each canonical scenario with its one-shot run and driver instants,
/// built once for every case.
fn canonical() -> &'static [(Scenario, ScenarioRun, Vec<SimTime>)] {
    static RUNS: OnceLock<Vec<(Scenario, ScenarioRun, Vec<SimTime>)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        [
            lossy_chain(),
            crash_diamond(true),
            degraded_diamond(),
            costream_chain(),
        ]
        .into_iter()
        .map(|sc| {
            let run = sc.run().unwrap();
            let instants = driver_instants(&sc, &run);
            (sc, run, instants)
        })
        .collect()
    })
}

proptest! {
    // Each case steps all four scenarios, a few seconds of emulation each.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Stepping is not an input: a run stepped at random instants, some of
    /// them exactly where the driver acts, and once more in the past,
    /// finishes equal to `run`.
    #[test]
    fn a_stepped_run_finishes_equal_to_run(
        steps in prop::collection::vec((any::<bool>(), any::<u64>()), 1..24),
    ) {
        for (sc, run, instants) in canonical() {
            let last = FIRST_CAPTURE + sc.duration + sc.drain;
            let mut times: Vec<SimTime> = steps
                .iter()
                .map(|&(on_instant, draw)| {
                    if on_instant {
                        instants[(draw % instants.len() as u64) as usize]
                    } else {
                        SimTime::from_nanos(draw % (last.as_nanos() + 1))
                    }
                })
                .collect();
            times.sort();
            let mut sim = sc.start().unwrap();
            for &t in &times {
                sim.run_until(t);
            }
            sim.run_until(times[0]);
            prop_assert!(sim.finish() == *run, "a stepped run diverged");
        }
    }
}
