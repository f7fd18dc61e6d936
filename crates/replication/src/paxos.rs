//! Multi-decree Paxos.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Replica identity (small dense integers).
pub type ReplicaId = u32;

/// A Paxos ballot: totally ordered, unique per proposer.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Ballot {
    /// Round counter.
    pub round: u64,
    /// Proposing replica (tie-break).
    pub proposer: ReplicaId,
}

/// Messages between replicas. `slot` scopes every message to one decree.
///
/// `V` is the replicated value. Paxos clones it and hands it on and never
/// looks inside, so a cluster whose `V` is an `Arc` holds each decree once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaxosMsg<V> {
    /// Phase 1a.
    Prepare {
        /// Decree slot.
        slot: u64,
        /// Proposer's ballot.
        ballot: Ballot,
    },
    /// Phase 1b.
    Promise {
        /// Decree slot.
        slot: u64,
        /// The promised ballot.
        ballot: Ballot,
        /// Highest accepted (ballot, value) at the acceptor, if any.
        accepted: Option<(Ballot, V)>,
    },
    /// Phase 2a.
    Accept {
        /// Decree slot.
        slot: u64,
        /// Ballot.
        ballot: Ballot,
        /// Proposed value.
        value: V,
    },
    /// Phase 2b.
    Accepted {
        /// Decree slot.
        slot: u64,
        /// Ballot.
        ballot: Ballot,
    },
    /// Decision broadcast (learner shortcut).
    Learn {
        /// Decree slot.
        slot: u64,
        /// Chosen value.
        value: V,
    },
}

impl<V> PaxosMsg<V> {
    /// The decree slot the message is about.
    pub fn slot(&self) -> u64 {
        match *self {
            PaxosMsg::Prepare { slot, .. }
            | PaxosMsg::Promise { slot, .. }
            | PaxosMsg::Accept { slot, .. }
            | PaxosMsg::Accepted { slot, .. }
            | PaxosMsg::Learn { slot, .. } => slot,
        }
    }
}

/// Per-slot acceptor state.
#[derive(Debug, Clone)]
struct AcceptorSlot<V> {
    promised: Option<Ballot>,
    accepted: Option<(Ballot, V)>,
}

impl<V> Default for AcceptorSlot<V> {
    fn default() -> Self {
        AcceptorSlot {
            promised: None,
            accepted: None,
        }
    }
}

/// Per-slot proposer state.
#[derive(Debug, Clone)]
struct ProposerSlot<V> {
    ballot: Ballot,
    value: V,
    promises: HashMap<ReplicaId, Option<(Ballot, V)>>,
    accepts: HashSet<ReplicaId>,
    phase2_started: bool,
}

/// Outbound message with its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound<V> {
    /// Destination replica.
    pub to: ReplicaId,
    /// The message.
    pub msg: PaxosMsg<V>,
}

/// One Paxos replica (proposer + acceptor + learner).
#[derive(Debug)]
pub struct Replica<V> {
    id: ReplicaId,
    peers: Vec<ReplicaId>,
    /// Durable: safety rests on what each slot promised and accepted.
    acceptor: BTreeMap<u64, AcceptorSlot<V>>,
    /// Slots this replica is proposing in; an entry goes when its slot
    /// decides.
    proposer: BTreeMap<u64, ProposerSlot<V>>,
    decided: BTreeMap<u64, V>,
    /// Every slot below this has decided and is forgotten
    /// ([`Replica::compact_below`]).
    floor: u64,
    /// Messages that arrived for a slot below the floor.
    stale: u64,
    next_slot_hint: u64,
}

impl<V: Clone> Replica<V> {
    /// New replica in a cluster of `peers` (must include `id`).
    pub fn new(id: ReplicaId, peers: Vec<ReplicaId>) -> Self {
        assert!(peers.contains(&id), "peers must include self");
        Replica {
            id,
            peers,
            acceptor: BTreeMap::new(),
            proposer: BTreeMap::new(),
            decided: BTreeMap::new(),
            floor: 0,
            stale: 0,
            next_slot_hint: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Quorum size (majority).
    fn quorum(&self) -> usize {
        self.peers.len() / 2 + 1
    }

    /// Decided value of a slot, if known and not compacted away.
    pub fn decided(&self, slot: u64) -> Option<&V> {
        self.decided.get(&slot)
    }

    /// Whether `slot` decided. Yes below the compaction floor, whose
    /// values are forgotten.
    pub fn is_decided(&self, slot: u64) -> bool {
        slot < self.floor || self.decided.contains_key(&slot)
    }

    /// The decided log from the compaction floor on: values for slots
    /// `floor..n` where all decided.
    pub fn log_prefix(&self) -> Vec<&V> {
        let mut out = Vec::new();
        let mut slot = self.floor;
        while let Some(v) = self.decided.get(&slot) {
            out.push(v);
            slot += 1;
        }
        out
    }

    /// Number of decided slots (not necessarily a prefix), compacted ones
    /// included.
    pub fn decided_count(&self) -> usize {
        self.floor as usize + self.decided.len()
    }

    /// Messages that arrived for a compacted slot, dropped by
    /// [`Replica::handle`]: each one means the caller of
    /// [`Replica::compact_below`] forgot a slot too early.
    pub fn stale_msgs(&self) -> u64 {
        self.stale
    }

    /// Forget every slot below `floor`: its acceptor, proposer and decided
    /// state. The caller vouches that every replica has decided those
    /// slots and that no message about them is still in flight; one that
    /// arrives anyway is dropped and counted in [`Replica::stale_msgs`].
    pub fn compact_below(&mut self, floor: u64) {
        if floor <= self.floor {
            return;
        }
        self.acceptor = self.acceptor.split_off(&floor);
        self.proposer = self.proposer.split_off(&floor);
        self.decided = self.decided.split_off(&floor);
        self.floor = floor;
    }

    /// Propose `value` in a fresh slot. Returns the slot and the phase-1
    /// messages to deliver.
    pub fn propose(&mut self, value: V) -> (u64, Vec<Outbound<V>>) {
        // Pick the lowest slot we neither decided nor are proposing in.
        let mut slot = self.next_slot_hint.max(self.floor);
        while self.decided.contains_key(&slot) || self.proposer.contains_key(&slot) {
            slot += 1;
        }
        self.next_slot_hint = slot + 1;
        let out = self.propose_in_slot(slot, value, 0);
        (slot, out)
    }

    /// (Re-)propose in a specific slot with a round at least `min_round`
    /// and higher than any round we used before in this slot. Used for
    /// retry/backoff after a failed ballot.
    pub fn propose_in_slot(&mut self, slot: u64, value: V, min_round: u64) -> Vec<Outbound<V>> {
        let prev_round = self
            .proposer
            .get(&slot)
            .map(|p| p.ballot.round)
            .unwrap_or(0);
        let ballot = Ballot {
            round: prev_round.max(min_round) + 1,
            proposer: self.id,
        };
        self.proposer.insert(
            slot,
            ProposerSlot {
                ballot,
                value,
                promises: HashMap::new(),
                accepts: HashSet::new(),
                phase2_started: false,
            },
        );
        self.broadcast(PaxosMsg::Prepare { slot, ballot })
    }

    fn broadcast(&self, msg: PaxosMsg<V>) -> Vec<Outbound<V>> {
        self.peers
            .iter()
            .map(|&to| Outbound {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    /// Handle a message from `from`; returns messages to send.
    pub fn handle(&mut self, from: ReplicaId, msg: PaxosMsg<V>) -> Vec<Outbound<V>> {
        // The one check for a forgotten slot: replying could reopen it.
        if msg.slot() < self.floor {
            self.stale += 1;
            return Vec::new();
        }
        match msg {
            PaxosMsg::Prepare { slot, ballot } => {
                let a = self.acceptor.entry(slot).or_default();
                if a.promised.is_none_or(|p| ballot > p) {
                    a.promised = Some(ballot);
                    vec![Outbound {
                        to: from,
                        msg: PaxosMsg::Promise {
                            slot,
                            ballot,
                            accepted: a.accepted.clone(),
                        },
                    }]
                } else {
                    Vec::new() // implicit NACK by silence; proposer re-tries
                }
            }
            PaxosMsg::Promise {
                slot,
                ballot,
                accepted,
            } => {
                let quorum = self.quorum();
                let Some(p) = self.proposer.get_mut(&slot) else {
                    return Vec::new();
                };
                if p.ballot != ballot || p.phase2_started {
                    return Vec::new();
                }
                p.promises.insert(from, accepted);
                if p.promises.len() >= quorum {
                    // Adopt the highest-ballot accepted value, if any.
                    if let Some((_, v)) = p.promises.values().flatten().max_by_key(|(b, _)| *b) {
                        p.value = v.clone();
                    }
                    p.phase2_started = true;
                    let msg = PaxosMsg::Accept {
                        slot,
                        ballot,
                        value: p.value.clone(),
                    };
                    self.broadcast(msg)
                } else {
                    Vec::new()
                }
            }
            PaxosMsg::Accept {
                slot,
                ballot,
                value,
            } => {
                let a = self.acceptor.entry(slot).or_default();
                if a.promised.is_none_or(|p| ballot >= p) {
                    a.promised = Some(ballot);
                    a.accepted = Some((ballot, value));
                    vec![Outbound {
                        to: from,
                        msg: PaxosMsg::Accepted { slot, ballot },
                    }]
                } else {
                    Vec::new()
                }
            }
            PaxosMsg::Accepted { slot, ballot } => {
                let quorum = self.quorum();
                let Some(p) = self.proposer.get_mut(&slot) else {
                    return Vec::new();
                };
                if p.ballot != ballot {
                    return Vec::new();
                }
                p.accepts.insert(from);
                if p.accepts.len() >= quorum && !self.decided.contains_key(&slot) {
                    let value = p.value.clone();
                    self.proposer.remove(&slot);
                    self.decided.insert(slot, value.clone());
                    self.broadcast(PaxosMsg::Learn { slot, value })
                } else {
                    Vec::new()
                }
            }
            PaxosMsg::Learn { slot, value } => {
                // Safety note: Learn comes from a replica that observed a
                // quorum of accepts; adopting it is safe.
                self.decided.entry(slot).or_insert(value);
                self.proposer.remove(&slot);
                Vec::new()
            }
        }
    }

    /// True when this replica has an unfinished proposal in `slot`.
    pub fn proposing(&self, slot: u64) -> bool {
        self.proposer
            .get(&slot)
            .is_some_and(|_| !self.decided.contains_key(&slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::DetRng;

    /// These tests replicate bytes.
    type Value = Vec<u8>;

    /// Deterministic lossy network driver for a Paxos cluster.
    struct Net {
        replicas: Vec<Replica<Value>>,
        inflight: Vec<(ReplicaId, Outbound<Value>)>, // (from, outbound)
        rng: DetRng,
        loss: f64,
    }

    impl Net {
        fn new(n: u32, seed: u64, loss: f64) -> Net {
            let ids: Vec<ReplicaId> = (0..n).collect();
            Net {
                replicas: ids.iter().map(|&i| Replica::new(i, ids.clone())).collect(),
                inflight: Vec::new(),
                rng: DetRng::seed(seed),
                loss,
            }
        }

        fn send_all(&mut self, from: ReplicaId, out: Vec<Outbound<Value>>) {
            for o in out {
                self.inflight.push((from, o));
            }
        }

        /// Deliver messages in random order with random loss until quiet.
        fn run(&mut self, max_steps: usize) {
            for _ in 0..max_steps {
                if self.inflight.is_empty() {
                    return;
                }
                let idx = self.rng.range_u64(0, self.inflight.len() as u64) as usize;
                let (from, Outbound { to, msg }) = self.inflight.swap_remove(idx);
                if self.rng.chance(self.loss) {
                    continue;
                }
                let out = self.replicas[to as usize].handle(from, msg);
                self.send_all(to, out);
            }
        }
    }

    #[test]
    fn single_proposer_decides_everywhere() {
        let mut net = Net::new(3, 1, 0.0);
        let (slot, out) = net.replicas[0].propose(b"pib-update-1".to_vec());
        net.send_all(0, out);
        net.run(10_000);
        for r in &net.replicas {
            assert_eq!(r.decided(slot), Some(&b"pib-update-1".to_vec()));
        }
    }

    #[test]
    fn competing_proposers_agree_on_one_value() {
        for seed in 0..20 {
            let mut net = Net::new(5, seed, 0.0);
            let (s0, o0) = net.replicas[0].propose(b"A".to_vec());
            let (s1, o1) = net.replicas[1].propose(b"B".to_vec());
            net.send_all(0, o0);
            net.send_all(1, o1);
            net.run(50_000);
            // Both proposals may land in different slots, or collide in the
            // same slot. For every slot decided by 2+ replicas, values agree.
            for slot in [s0, s1] {
                let decided: Vec<&Value> = net
                    .replicas
                    .iter()
                    .filter_map(|r| r.decided(slot))
                    .collect();
                for w in decided.windows(2) {
                    assert_eq!(w[0], w[1], "seed {seed} slot {slot} disagreement");
                }
            }
        }
    }

    #[test]
    fn same_slot_conflict_resolves_to_single_value() {
        for seed in 0..20 {
            let mut net = Net::new(3, seed, 0.0);
            let o0 = net.replicas[0].propose_in_slot(7, b"X".to_vec(), 0);
            let o1 = net.replicas[1].propose_in_slot(7, b"Y".to_vec(), 0);
            net.send_all(0, o0);
            net.send_all(1, o1);
            net.run(50_000);
            // Retry loop for liveness: whoever hasn't decided re-proposes
            // with a higher round.
            for round in 1..10 {
                let undecided: Vec<u32> = net
                    .replicas
                    .iter()
                    .filter(|r| r.decided(7).is_none() && r.proposing(7))
                    .map(|r| r.id())
                    .collect();
                if undecided.is_empty() {
                    break;
                }
                for id in undecided {
                    let v = if id == 0 {
                        b"X".to_vec()
                    } else {
                        b"Y".to_vec()
                    };
                    let out = net.replicas[id as usize].propose_in_slot(7, v, round * 2);
                    net.send_all(id, out);
                }
                net.run(50_000);
            }
            let decided: Vec<&Value> = net.replicas.iter().filter_map(|r| r.decided(7)).collect();
            assert!(!decided.is_empty(), "seed {seed}: nothing decided");
            for w in decided.windows(2) {
                assert_eq!(w[0], w[1], "seed {seed}: split decision");
            }
        }
    }

    #[test]
    fn survives_message_loss_with_retries() {
        for seed in 0..10 {
            let mut net = Net::new(3, seed, 0.25);
            let (slot, out) = net.replicas[0].propose(b"lossy".to_vec());
            net.send_all(0, out);
            net.run(20_000);
            // Retry with higher rounds until decided (proposer-side timeout).
            for round in 1..30 {
                if net.replicas[0].decided(slot).is_some() {
                    break;
                }
                let out = net.replicas[0].propose_in_slot(slot, b"lossy".to_vec(), round * 3);
                net.send_all(0, out);
                net.run(20_000);
            }
            assert_eq!(
                net.replicas[0].decided(slot),
                Some(&b"lossy".to_vec()),
                "seed {seed}: never decided under loss"
            );
        }
    }

    #[test]
    fn log_prefix_replicates_a_sequence_of_updates() {
        let mut net = Net::new(3, 42, 0.0);
        for i in 0..10u8 {
            let (_, out) = net.replicas[0].propose(vec![i]);
            net.send_all(0, out);
            net.run(20_000);
        }
        for r in &net.replicas {
            let log = r.log_prefix();
            assert_eq!(log.len(), 10);
            for (i, v) in log.iter().enumerate() {
                assert_eq!(***v, *vec![i as u8]);
            }
        }
    }

    /// A forgotten prefix still counts as decided, a late message below the
    /// floor changes nothing but the stale count, and the next fresh slot
    /// lies above it.
    #[test]
    fn compaction_forgets_a_prefix_and_keeps_the_count() {
        let mut net = Net::new(3, 42, 0.0);
        for i in 0..10u8 {
            let (_, out) = net.replicas[0].propose(vec![i]);
            net.send_all(0, out);
            net.run(20_000);
        }
        for r in &mut net.replicas {
            r.compact_below(6);
            r.compact_below(4); // never lowers the floor
        }
        let late = PaxosMsg::Prepare {
            slot: 2,
            ballot: Ballot {
                round: 99,
                proposer: 2,
            },
        };
        assert!(net.replicas[1].handle(2, late).is_empty());
        assert_eq!(net.replicas[1].stale_msgs(), 1);
        for r in &net.replicas {
            assert_eq!((r.floor, r.decided_count()), (6, 10));
            assert!(r.is_decided(3) && r.decided(3).is_none() && !r.is_decided(10));
            let log: Vec<u8> = r.log_prefix().iter().map(|v| v[0]).collect();
            assert_eq!(log, [6, 7, 8, 9]);
        }
        let (slot, _) = net.replicas[1].propose(vec![10]);
        assert_eq!(slot, 10);
    }

    #[test]
    fn quorum_math() {
        let r3: Replica<Value> = Replica::new(0, vec![0, 1, 2]);
        assert_eq!(r3.quorum(), 2);
        let r5: Replica<Value> = Replica::new(0, vec![0, 1, 2, 3, 4]);
        assert_eq!(r5.quorum(), 3);
    }

    #[test]
    #[should_panic(expected = "peers must include self")]
    fn peers_must_include_self() {
        let _: Replica<Value> = Replica::new(9, vec![0, 1, 2]);
    }
}
