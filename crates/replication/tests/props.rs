//! Adversarial-schedule property tests for the Paxos core, and a
//! hostile-report property test for the decree the minute tick commits
//! ([`BrainOp::Reports`], at the end of the file).
//!
//! Two Paxos properties, straight from the protocol's contract:
//!
//! * **Safety** — no two replicas ever decide different values for the
//!   same slot, under *any* message schedule: random drops, reorders and
//!   duplicates included.  This must hold unconditionally.
//! * **Liveness** — dueling proposers converge given fair delivery plus
//!   proposer backoff (retry with a strictly higher minimum round).
//!   Liveness is not unconditional in Paxos; the test drives the standard
//!   sufficient condition.

use livenet_brain::{BrainConfig, StreamingBrain};
use livenet_replication::{BrainOp, Outbound, Replica, ReplicaId};
use livenet_topology::{GeoConfig, GeoTopology, LinkReport, NodeReport};
use livenet_types::{DetRng, NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;

/// An adversarial network: in-flight messages are delivered in random
/// order, dropped with probability `loss`, and duplicated with
/// probability `dup`.
struct AdversaryNet {
    replicas: Vec<Replica>,
    inflight: Vec<(ReplicaId, Outbound)>,
    rng: DetRng,
    loss: f64,
    dup: f64,
}

impl AdversaryNet {
    fn new(n: u32, seed: u64, loss: f64, dup: f64) -> AdversaryNet {
        let ids: Vec<ReplicaId> = (0..n).collect();
        AdversaryNet {
            replicas: ids.iter().map(|&i| Replica::new(i, ids.clone())).collect(),
            inflight: Vec::new(),
            rng: DetRng::seed(seed),
            loss,
            dup,
        }
    }

    fn send_all(&mut self, from: ReplicaId, out: Vec<Outbound>) {
        for o in out {
            self.inflight.push((from, o));
        }
    }

    /// Deliver one randomly chosen in-flight message (maybe dropping or
    /// duplicating it first). Returns false when nothing is in flight.
    fn step(&mut self) -> bool {
        if self.inflight.is_empty() {
            return false;
        }
        let idx = self.rng.range_u64(0, self.inflight.len() as u64) as usize;
        let (from, o) = self.inflight.swap_remove(idx);
        if self.rng.chance(self.loss) {
            return true; // dropped
        }
        if self.rng.chance(self.dup) {
            self.inflight.push((from, o.clone()));
        }
        let out = self.replicas[o.to as usize].handle(from, o.msg);
        self.send_all(o.to, out);
        true
    }

    /// Every pair of replicas that decided a slot decided the same value.
    fn assert_safety(&self, max_slot: u64) -> Result<(), String> {
        for slot in 0..=max_slot {
            let mut chosen: Option<&Vec<u8>> = None;
            for r in &self.replicas {
                if let Some(v) = r.decided(slot) {
                    match chosen {
                        None => chosen = Some(v),
                        Some(c) if c != v => {
                            return Err(format!(
                                "slot {slot}: replica {} decided {:?}, another decided {:?}",
                                r.id(),
                                v,
                                c
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Safety under drop/reorder/duplicate: whatever subset of replicas
    /// reaches a decision for a slot, they all hold the same value.
    #[test]
    fn no_two_replicas_decide_differently(
        seed in 0u64..10_000,
        n in 3u32..6,
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        n_props in 1usize..6,
    ) {
        let mut net = AdversaryNet::new(n, seed, loss, dup);
        // Several proposers contend, some in the same slot on purpose.
        for i in 0..n_props {
            let proposer = (i as u32) % n;
            let value = vec![b'v', i as u8];
            let out = net.replicas[proposer as usize]
                .propose_in_slot((i % 2) as u64, value, 0);
            net.send_all(proposer, out);
        }
        for _ in 0..20_000 {
            if !net.step() {
                break;
            }
        }
        prop_assert!(net.assert_safety(4).is_ok(), "{:?}", net.assert_safety(4));
    }

    /// Duplicated decision traffic (Learn/Accepted replays) never flips a
    /// decided slot: re-running the full schedule with heavy duplication
    /// leaves every decided value stable.
    #[test]
    fn duplicates_never_flip_decisions(
        seed in 0u64..10_000,
        n in 3u32..6,
    ) {
        let mut net = AdversaryNet::new(n, seed, 0.0, 0.5);
        let out = net.replicas[0].propose_in_slot(0, vec![1], 0);
        net.send_all(0, out);
        let out = net.replicas[1].propose_in_slot(0, vec![2], 0);
        net.send_all(1, out);
        let mut first_decisions: Vec<Option<Vec<u8>>> = vec![None; n as usize];
        for _ in 0..20_000 {
            if !net.step() {
                break;
            }
            for (i, r) in net.replicas.iter().enumerate() {
                if let Some(v) = r.decided(0) {
                    match &first_decisions[i] {
                        None => first_decisions[i] = Some(v.clone()),
                        Some(f) => prop_assert_eq!(
                            f, v,
                            "replica {} flipped its decision", i
                        ),
                    }
                }
            }
        }
        prop_assert!(net.assert_safety(0).is_ok());
    }

    /// Dueling-proposer liveness: two proposers fight over one slot; with
    /// fair (lossless, randomly ordered) delivery and exponential-ish
    /// round backoff on retry, some value is decided within a bounded
    /// number of rounds — and safety still holds.
    #[test]
    fn dueling_proposers_converge_with_backoff(
        seed in 0u64..10_000,
        n in 3u32..6,
    ) {
        let mut net = AdversaryNet::new(n, seed, 0.0, 0.0);
        let a: ReplicaId = 0;
        let b: ReplicaId = 1;
        let out = net.replicas[a as usize].propose_in_slot(0, vec![b'a'], 0);
        net.send_all(a, out);
        let out = net.replicas[b as usize].propose_in_slot(0, vec![b'b'], 0);
        net.send_all(b, out);
        let mut round = 0u64;
        let decided = 'outer: loop {
            // Drain the current schedule fairly.
            for _ in 0..20_000 {
                if !net.step() {
                    break;
                }
            }
            if net.replicas.iter().any(|r| r.decided(0).is_some()) {
                break 'outer true;
            }
            round += 1;
            if round > 12 {
                break 'outer false;
            }
            // Backoff: proposers retry with staggered, strictly growing
            // minimum rounds (a backs off harder than b), so one of them
            // eventually completes both phases uncontested.
            if net.replicas[a as usize].proposing(0) {
                let out = net.replicas[a as usize]
                    .propose_in_slot(0, vec![b'a'], round * 4);
                net.send_all(a, out);
                for _ in 0..20_000 {
                    if !net.step() {
                        break;
                    }
                }
                if net.replicas.iter().any(|r| r.decided(0).is_some()) {
                    break 'outer true;
                }
            }
            if net.replicas[b as usize].proposing(0) {
                let out = net.replicas[b as usize]
                    .propose_in_slot(0, vec![b'b'], round * 4 + 2);
                net.send_all(b, out);
            }
        };
        prop_assert!(decided, "dueling proposers failed to converge");
        prop_assert!(net.assert_safety(0).is_ok());
        // Fair delivery spreads the decision to every replica.
        for _ in 0..20_000 {
            if !net.step() {
                break;
            }
        }
        let v0 = net.replicas[0].decided(0).cloned();
        prop_assert!(v0.is_some());
        for r in &net.replicas {
            prop_assert_eq!(r.decided(0), v0.as_ref());
        }
    }
}

// ---------------------------------------------------------------------
// `BrainOp::Reports`: the decree every minute tick commits and every
// replica applies. What a node reports may be anything.
// ---------------------------------------------------------------------

/// A float a report could carry: mostly arbitrary bit patterns (NaNs of
/// every payload, subnormals, both infinities), sometimes a plain share.
fn arb_f64(rng: &mut DetRng) -> f64 {
    match rng.range_u64(0, 9) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.f64(),
        5 => f64::from_bits(rng.range_u64(1, 1 << 52)), // subnormal
        _ => f64::from_bits(rng.range_u64(0, u64::MAX)),
    }
}

fn arb_report(rng: &mut DetRng, max_links: u64) -> NodeReport {
    NodeReport {
        node: NodeId::new(rng.range_u64(0, u64::MAX)),
        at: SimTime::from_nanos(rng.range_u64(0, u64::MAX)),
        utilization: arb_f64(rng),
        links: (0..rng.range_u64(0, max_links + 1))
            .map(|_| LinkReport {
                to: NodeId::new(rng.range_u64(0, u64::MAX)),
                rtt: SimDuration::from_nanos(rng.range_u64(0, u64::MAX)),
                loss: arb_f64(rng),
                utilization: arb_f64(rng),
                from_transport: rng.chance(0.5),
            })
            .collect(),
    }
}

/// Damage a report the way a faulty reporter could: a real reporter naming
/// far ends it has no link to, a far end listed twice with different
/// measurements, and the list in descending order (a row is ascending, so
/// no lookup finds its entry where the last one left off).
fn damage(report: &mut NodeReport, rng: &mut DetRng, known: NodeId) {
    if rng.chance(0.5) {
        report.node = known;
    }
    report.utilization = arb_f64(rng);
    if let Some(&first) = report.links.first() {
        report.links.push(LinkReport {
            loss: arb_f64(rng),
            utilization: arb_f64(rng),
            ..first
        });
    }
    report.links.sort_by_key(|l| Reverse(l.to));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `Reports` decree carries what the nodes sent, and a report may
    /// name any node and any far end. What it names that the Brain's
    /// topology does not have is dropped and counted, one per key: the
    /// measured state never grows. (It used to: every `(reporter, far
    /// end)` pair a report named got an entry in a map nothing expired.)
    #[test]
    fn hostile_reports_leave_the_brains_topology_as_it_was(seed in any::<u64>()) {
        let mut rng = DetRng::seed(seed);
        let geo = GeoTopology::generate(&GeoConfig::tiny(seed % 4));
        let mut brain = StreamingBrain::new(geo.topology.clone(), BrainConfig::default());
        let known = *rng.choose(&geo.node_ids);
        let mut ops = Vec::new();
        for _ in 0..8 {
            // Reporters and far ends drawn from all of u64 ...
            let wild: Vec<NodeReport> =
                (0..rng.range_u64(1, 5)).map(|_| arb_report(&mut rng, 8)).collect();
            // ... the same reports damaged ...
            let mut damaged = wild.clone();
            for r in &mut damaged {
                damage(r, &mut rng, known);
            }
            ops.push(BrainOp::Reports { now: SimTime::ZERO, reports: damaged });
            ops.push(BrainOp::Reports { now: SimTime::ZERO, reports: wild });
            // ... and a node of the overlay reporting its own load (the one
            // key here that is not unknown) and 64 links to far ends nobody
            // has heard of.
            let mut fresh = arb_report(&mut rng, 0);
            fresh.node = known;
            fresh.links = (0..64)
                .map(|_| LinkReport {
                    to: NodeId::new(rng.range_u64(1 << 32, u64::MAX)),
                    rtt: SimDuration::from_millis(rng.range_u64(1, 500)),
                    loss: arb_f64(&mut rng),
                    utilization: arb_f64(&mut rng),
                    from_transport: rng.chance(0.5),
                })
                .collect();
            ops.push(BrainOp::Reports { now: SimTime::ZERO, reports: vec![fresh] });
        }
        let mut unknown = 0;
        for op in &ops {
            let BrainOp::Reports { reports, .. } = op else { continue };
            for r in reports {
                let has_node = geo.topology.node(r.node).is_some();
                let missing = |l: &&LinkReport| geo.topology.link(r.node, l.to).is_none();
                unknown += u64::from(!has_node) + r.links.iter().filter(missing).count() as u64;
            }
            op.apply_to(&mut brain);
        }
        let (before, after) = (&geo.topology, brain.topology());
        prop_assert_eq!(after.node_count(), before.node_count());
        prop_assert_eq!(after.link_count(), before.link_count());
        for &n in &geo.node_ids {
            prop_assert_eq!(after.row(n), before.row(n));
        }
        prop_assert!(unknown >= 8 * 64);
        prop_assert_eq!(brain.discovery().unknown_keys, unknown);
    }
}
