//! Cross-crate integration: Brain-computed paths drive real overlay-node
//! state machines over the emulator on a generated geo topology, and the
//! canonical packet-level runs are pinned bit for bit.

use livenet::emu::{LinkConfig, LossModel};
use livenet::prelude::*;
use livenet::sim::scenario::SCENARIO_STREAM;
use livenet::types::Error;

/// Replay a Brain-computed path as a chain whose hop delays mirror the
/// Brain's topology view, with `loss` on every hop, and stream 5 s.
fn run_scenario(seed: u64, loss: f64) -> (u64, u32, usize) {
    let geo = GeoTopology::generate(&GeoConfig::tiny(seed));
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    let mut brain = StreamingBrain::new(geo.topology.clone(), BrainConfig::default());

    let producer = nodes[0];
    let consumer = nodes[nodes.len() - 1];
    brain.register_stream(SCENARIO_STREAM, producer);
    let lookup = brain
        .path_request(SCENARIO_STREAM, consumer, SimTime::ZERO)
        .expect("path");
    let path = lookup.paths[0].nodes.clone();
    assert!(path.len() >= 2, "need a real path");

    let mut sc = Scenario::chain(path.len() - 1, LossModel::None, seed);
    for (link, hop) in sc.links.iter_mut().zip(path.windows(2)) {
        let rtt = geo.topology.link(hop[0], hop[1]).expect("link").rtt;
        link.2 = LinkConfig {
            loss: LossModel::Bernoulli { p: loss },
            ..LinkConfig::backbone(rtt / 2)
        };
    }
    sc.viewers[0].join_at = SimTime::ZERO; // waiting before the stream starts
    sc.duration = SimDuration::from_secs(5);
    let run = sc.run().expect("chain preset is valid");
    let qoe = run.viewers[0].qoe;
    (qoe.frames_rendered, qoe.stalls, path.len() - 1)
}

#[test]
fn brain_path_streams_end_to_end_lossless() {
    let (frames, stalls, hops) = run_scenario(3, 0.0);
    assert!((1..=3).contains(&hops), "hops={hops}");
    assert!(frames >= 70, "only {frames} frames rendered");
    assert_eq!(stalls, 0);
}

#[test]
fn brain_path_survives_backbone_loss() {
    // Paper-peak loss (0.175%): zero stalls. At 10× the paper's worst
    // case, recovery still keeps the stream playing with at most a single
    // brief stall over the whole view.
    let (frames, stalls, _) = run_scenario(4, 0.00175);
    assert!(frames >= 70, "only {frames} frames");
    assert_eq!(stalls, 0);
    let (frames, stalls, _) = run_scenario(4, 0.0175);
    assert!(frames >= 70, "10x loss: only {frames} frames");
    assert!(stalls <= 1, "10x loss: {stalls} stalls");
}

#[test]
fn different_seeds_pick_valid_paths() {
    for seed in 5..9 {
        let (frames, _, hops) = run_scenario(seed, 0.001);
        assert!(hops <= 3, "seed {seed}: hop bound violated");
        assert!(frames > 60, "seed {seed}: {frames} frames");
    }
}

// ---------------------------------------------------------------------
// Canonical runs, pinned. The expected values were recorded from the
// three hand-built harnesses `Scenario` replaced (PR 12's parent commit):
// a change here is a change of packet-level behaviour, not of plumbing.
// ---------------------------------------------------------------------

/// What a run did, exactly: first viewer's frame log length and QoE,
/// RTX served and sequences NACKed summed over all nodes, and the count
/// and FNV-1a hash of the `to_bits` of every hole-recovery latency (ms).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    frames_logged: usize,
    frames_rendered: u64,
    stalls: u32,
    rtx_served: u64,
    nacks_sent: u64,
    hole_latencies: (usize, u64),
}

fn fnv(values: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fingerprint(run: &ScenarioRun) -> Fingerprint {
    let latencies = run.recovery_latencies_ms();
    Fingerprint {
        frames_logged: run.viewers[0].frames.len(),
        frames_rendered: run.viewers[0].qoe.frames_rendered,
        stalls: run.viewers[0].qoe.stalls,
        rtx_served: run.nodes.iter().map(|n| n.stats.rtx_served).sum(),
        nacks_sent: run.nodes.iter().map(|n| n.stats.nacks_sent).sum(),
        hole_latencies: (
            latencies.len(),
            fnv(latencies.iter().map(|ms| ms.to_bits())),
        ),
    }
}

fn lossy_chain() -> Scenario {
    Scenario::chain(2, LossModel::Bernoulli { p: 0.02 }, 42)
}

/// The §6.5 relay crash: B dies 5 s in; `slow` withholds the cached backup
/// and answers the consumer's path request after a 2.5 s control RTT.
fn crash_diamond(slow: bool, seed: u64) -> Scenario {
    let mut sc = Scenario::diamond(LinkConfig::backbone(SimDuration::from_millis(10)), seed);
    sc.faults.crash(SimTime::from_secs(5), sc.nodes[1]);
    sc.control_rtt = slow.then_some(SimDuration::from_millis(2500));
    sc
}

/// Crash → consumer declares B dead, and crash → first frame after that,
/// in ms, as `to_bits`.
fn failover_bits(sc: &Scenario, run: &ScenarioRun) -> (u64, u64) {
    let (b, c) = (sc.nodes[1], sc.nodes[2]);
    let detect = run
        .first_event(
            c,
            |e| matches!(e, NodeEvent::UpstreamDead { upstream, .. } if *upstream == b),
        )
        .expect("C detected the crash");
    let restore = run.viewers[0]
        .first_frame_after(detect)
        .expect("playback resumed");
    let since_crash = |t: SimTime| (t.as_secs_f64() - 5.0) * 1000.0;
    (
        since_crash(detect).to_bits(),
        since_crash(restore).to_bits(),
    )
}

/// The multi-supplier RTX diamond: 80 ms / 3 % loss on P–B, a second
/// viewer at D keeping the alternate supplier warm.
fn degraded_diamond(alt_suppliers: usize, seed: u64) -> Scenario {
    let mut sc = Scenario::diamond(
        LinkConfig {
            loss: LossModel::Bernoulli { p: 0.03 },
            ..LinkConfig::backbone(SimDuration::from_millis(80))
        },
        seed,
    );
    sc.node.rtx_alt_suppliers = alt_suppliers;
    sc.viewers.push(Viewer {
        path: vec![sc.nodes[0], sc.nodes[3]],
        backups: Vec::new(),
        ..sc.viewers[0].clone()
    });
    sc
}

#[test]
fn lossy_chain_fingerprint_is_pinned() {
    let run = lossy_chain().run().unwrap();
    assert_eq!(
        fingerprint(&run),
        Fingerprint {
            frames_logged: 150,
            frames_rendered: 150,
            stalls: 0,
            rtx_served: 105,
            nacks_sent: 106,
            hole_latencies: (104, 0xd312_8a8f_5d8c_6d2d),
        }
    );
    assert_eq!(run.nodes[0].stats.rtx_served, 53);
    assert_eq!(run.nodes[1].stats.nacks_sent, 54);
}

#[test]
fn crash_diamond_fingerprints_are_pinned() {
    let fast = crash_diamond(false, 7);
    let run = fast.run().unwrap();
    assert_eq!(
        fingerprint(&run),
        Fingerprint {
            frames_logged: 285,
            frames_rendered: 283,
            stalls: 1,
            rtx_served: 0,
            nacks_sent: 885,
            hole_latencies: (0, fnv(std::iter::empty())),
        }
    );
    assert_eq!(
        failover_bits(&fast, &run),
        (0x40a7_7000_0000_0000, 0x40a8_1d95_a4ac_f313) // 3000 ms, 3086.79 ms
    );
    assert_eq!(run.frames_sent, 300);

    let slow = crash_diamond(true, 7);
    let run = slow.run().unwrap();
    assert_eq!(
        fingerprint(&run),
        Fingerprint {
            frames_logged: 225,
            frames_rendered: 225,
            stalls: 1,
            rtx_served: 0,
            nacks_sent: 5300,
            hole_latencies: (0, fnv(std::iter::empty())),
        }
    );
    assert_eq!(
        failover_bits(&slow, &run),
        (0x40a7_7000_0000_0000, 0x40b6_0444_ae85_b9e9) // 3000 ms, 5636.27 ms
    );
}

#[test]
fn degraded_diamond_fingerprints_are_pinned() {
    let run = degraded_diamond(0, 5).run().unwrap();
    assert_eq!(
        fingerprint(&run),
        Fingerprint {
            frames_logged: 300,
            frames_rendered: 300,
            stalls: 0,
            rtx_served: 815,
            nacks_sent: 1282,
            hole_latencies: (326, 0x6d2f_811d_3abf_04a8),
        }
    );
    let run = degraded_diamond(1, 5).run().unwrap();
    assert_eq!(
        fingerprint(&run),
        Fingerprint {
            frames_logged: 300,
            frames_rendered: 300,
            stalls: 0,
            rtx_served: 978,
            nacks_sent: 982,
            hole_latencies: (326, 0xb201_5e96_6447_1f1b),
        }
    );
}

#[test]
fn a_scenario_run_twice_is_identical() {
    for sc in [
        lossy_chain(),
        crash_diamond(true, 7),
        degraded_diamond(1, 5),
    ] {
        assert_eq!(sc.run().unwrap(), sc.run().unwrap());
    }
}

#[test]
fn invalid_scenarios_are_rejected_not_run() {
    let is_invalid = |sc: &Scenario| matches!(sc.run(), Err(Error::InvalidConfig(_)));

    let mut unknown_hop = lossy_chain();
    unknown_hop.viewers[0].path.insert(1, NodeId::new(99));
    assert!(is_invalid(&unknown_hop), "path through an unknown node");

    let mut unlinked = lossy_chain();
    unlinked.nodes.push(NodeId::new(4));
    unlinked.viewers[0].path.push(NodeId::new(4));
    assert!(is_invalid(&unlinked), "viewer on a node with no link");

    let mut wrong_end = crash_diamond(false, 7);
    wrong_end.viewers[0].backups[0].pop();
    assert!(
        is_invalid(&wrong_end),
        "backup ending short of the consumer"
    );

    let mut dangling = lossy_chain();
    dangling.links[0].1 = NodeId::new(99);
    assert!(is_invalid(&dangling), "link to an unknown node");
}
