//! Cross-crate integration: replicating Streaming Brain state through the
//! Paxos log (§7.1 — "we maintain consistency using a Paxos-like scheme").
//!
//! Serialized SIB updates are proposed by one Brain replica's site and
//! learned by the others; every replica replays the same update sequence
//! and therefore answers path requests identically.

use livenet::prelude::*;
use livenet::replication::Replica;
use livenet::types::DetRng;

/// A serialized control-plane update.
#[derive(Debug, Clone, PartialEq)]
enum SibUpdate {
    Register { stream: StreamId, producer: NodeId },
    Unregister { stream: StreamId },
}

impl SibUpdate {
    fn encode(&self) -> Vec<u8> {
        match self {
            SibUpdate::Register { stream, producer } => {
                let mut v = vec![1u8];
                v.extend_from_slice(&stream.raw().to_be_bytes());
                v.extend_from_slice(&producer.raw().to_be_bytes());
                v
            }
            SibUpdate::Unregister { stream } => {
                let mut v = vec![2u8];
                v.extend_from_slice(&stream.raw().to_be_bytes());
                v
            }
        }
    }

    fn decode(bytes: &[u8]) -> SibUpdate {
        let u64_at =
            |off: usize| u64::from_be_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        match bytes[0] {
            1 => SibUpdate::Register {
                stream: StreamId::new(u64_at(1)),
                producer: NodeId::new(u64_at(9)),
            },
            2 => SibUpdate::Unregister {
                stream: StreamId::new(u64_at(1)),
            },
            other => panic!("bad tag {other}"),
        }
    }
}

/// Drive a 3-replica Paxos cluster to consensus on a batch of updates,
/// with random message reordering and loss.
fn replicate(updates: &[SibUpdate], seed: u64, loss: f64) -> Vec<Vec<SibUpdate>> {
    let ids: Vec<u32> = (0..3).collect();
    let mut replicas: Vec<Replica<Vec<u8>>> =
        ids.iter().map(|&i| Replica::new(i, ids.clone())).collect();
    let mut rng = DetRng::seed(seed);
    let mut inflight: Vec<(u32, livenet::replication::Outbound<Vec<u8>>)> = Vec::new();

    for (i, u) in updates.iter().enumerate() {
        // Rotate the proposing site (any replica may receive the update).
        let proposer = (i % 3) as u32;
        let (_, out) = replicas[proposer as usize].propose(u.encode());
        for o in out {
            inflight.push((proposer, o));
        }
        // Pump the network until quiet, with retries under loss.
        let mut round = 0;
        loop {
            let mut steps = 0;
            while !inflight.is_empty() && steps < 100_000 {
                let idx = rng.range_u64(0, inflight.len() as u64) as usize;
                let (from, o) = inflight.swap_remove(idx);
                if rng.chance(loss) {
                    continue;
                }
                let out = replicas[o.to as usize].handle(from, o.msg);
                for oo in out {
                    inflight.push((o.to, oo));
                }
                steps += 1;
            }
            if replicas[proposer as usize].decided(i as u64).is_some() || round > 20 {
                break;
            }
            round += 1;
            let out = replicas[proposer as usize].propose_in_slot(i as u64, u.encode(), round * 3);
            for o in out {
                inflight.push((proposer, o));
            }
        }
    }
    replicas
        .iter()
        .map(|r| {
            r.log_prefix()
                .iter()
                .map(|v| SibUpdate::decode(v))
                .collect()
        })
        .collect()
}

#[test]
fn replicas_replay_identical_sib_logs() {
    let updates = vec![
        SibUpdate::Register {
            stream: StreamId::new(1),
            producer: NodeId::new(10),
        },
        SibUpdate::Register {
            stream: StreamId::new(2),
            producer: NodeId::new(20),
        },
        SibUpdate::Unregister {
            stream: StreamId::new(1),
        },
        SibUpdate::Register {
            stream: StreamId::new(3),
            producer: NodeId::new(10),
        },
    ];
    let logs = replicate(&updates, 99, 0.1);
    for log in &logs {
        assert_eq!(*log, updates, "a replica diverged");
    }
}

#[test]
fn replayed_brains_answer_identically() {
    let geo = GeoTopology::generate(&GeoConfig::tiny(5));
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    let updates = vec![
        SibUpdate::Register {
            stream: StreamId::new(7),
            producer: nodes[0],
        },
        SibUpdate::Register {
            stream: StreamId::new(8),
            producer: nodes[1],
        },
    ];
    let logs = replicate(&updates, 7, 0.05);

    // Each replica replays its log into its own Brain instance.
    let mut answers = Vec::new();
    for log in logs {
        let mut brain = StreamingBrain::new(geo.topology.clone(), BrainConfig::default());
        for u in log {
            match u {
                SibUpdate::Register { stream, producer } => brain.register_stream(stream, producer),
                SibUpdate::Unregister { stream } => brain.unregister_stream(stream),
            }
        }
        let lookup = brain
            .path_request(StreamId::new(7), nodes[4], SimTime::ZERO)
            .expect("replicated stream known");
        answers.push(lookup.paths[0].nodes.clone());
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
}
