//! Adversarial-schedule property tests for the Paxos core, and
//! hostile-input property tests for the decree codec ([`BrainOp`], at the
//! end of the file).
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
use livenet_types::{DetRng, NodeId, SimDuration, SimTime, StreamId};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
// `BrainOp::decode`: the decree every minute tick commits and every
// replica decodes. Bytes from a peer may be anything.
// ---------------------------------------------------------------------

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to `System`, adding up the sizes requested per thread, so a
/// test can bound what one `decode` call allocates.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged. The counter
// is a const-initialised thread-local `Cell` without a destructor: reading
// it allocates nothing and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Decode hostile bytes: `Ok` or `Err`, no panic, and no more memory asked
/// for than the input could describe (a decoded report or link is under
/// twice its encoding; the slack covers the error message). What decodes
/// is canonical: it re-encodes to the same bytes, so two replicas' logs
/// can be compared byte for byte. Returns whether the bytes decoded.
fn decode_hostile(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let before = REQUESTED.with(Cell::get);
    let decoded = BrainOp::decode(bytes);
    let requested = REQUESTED.with(Cell::get) - before;
    prop_assert!(
        requested <= 4 * bytes.len() + 256,
        "{requested} bytes requested to decode {} bytes",
        bytes.len()
    );
    if let Ok(op) = &decoded {
        prop_assert_eq!(op.encode(), bytes);
    }
    Ok(decoded.is_ok())
}

/// A float a report could carry: mostly arbitrary bit patterns (NaNs of
/// every payload, subnormals, both infinities), sometimes a plain share.
fn arb_f64(rng: &mut DetRng) -> f64 {
    match rng.range_u64(0, 8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.f64(),
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

/// Any well-formed op; `Reports` carries up to `max` reports of up to
/// `max` links each.
fn arb_op(seed: u64, max: u64) -> BrainOp {
    let mut rng = DetRng::seed(seed);
    let mut id = || rng.range_u64(0, u64::MAX);
    match id() % 12 {
        // `Reports` twice: it is the decree with structure to get wrong.
        0 | 1 => BrainOp::Reports {
            now: SimTime::from_nanos(id()),
            reports: (0..rng.range_u64(0, max + 1))
                .map(|_| arb_report(&mut rng, max))
                .collect(),
        },
        2 => BrainOp::RegisterStream {
            stream: StreamId::new(id()),
            producer: NodeId::new(id()),
        },
        3 => BrainOp::UnregisterStream { stream: StreamId::new(id()) },
        4 => BrainOp::MarkPopular { stream: StreamId::new(id()) },
        5 => BrainOp::RehomeProducer {
            stream: StreamId::new(id()),
            new_producer: NodeId::new(id()),
            now: SimTime::from_nanos(id()),
        },
        6 => BrainOp::NodeFailed { node: NodeId::new(id()) },
        7 => BrainOp::NodeRecovered { node: NodeId::new(id()) },
        8 => BrainOp::LinkFailed { a: NodeId::new(id()), b: NodeId::new(id()) },
        9 => BrainOp::LinkRecovered { a: NodeId::new(id()), b: NodeId::new(id()) },
        10 => BrainOp::Lease {
            holder: id() as u32,
            term: id(),
            until: SimTime::from_nanos(id()),
        },
        _ => BrainOp::Noop,
    }
}

/// `==` on ops compares floats by value, under which a NaN differs from
/// itself; a decree must come back with the same bits.
fn same_bits(a: &BrainOp, b: &BrainOp) -> bool {
    let (BrainOp::Reports { now, reports }, BrainOp::Reports { now: now_b, reports: reports_b }) =
        (a, b)
    else {
        return a == b;
    };
    let link_bits = |l: &LinkReport| {
        (l.to, l.rtt, l.loss.to_bits(), l.utilization.to_bits(), l.from_transport)
    };
    now == now_b
        && reports.len() == reports_b.len()
        && reports.iter().zip(reports_b).all(|(r, s)| {
            (r.node, r.at, r.utilization.to_bits()) == (s.node, s.at, s.utilization.to_bits())
                && r.links.iter().map(link_bits).eq(s.links.iter().map(link_bits))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, as they are and behind each variant's tag.
    #[test]
    fn brain_op_decode_survives_arbitrary_bytes(
        mut bytes in prop::collection::vec(any::<u8>(), 0..513),
        tagged in any::<bool>(),
    ) {
        if let (true, Some(tag)) = (tagged, bytes.first_mut()) {
            *tag = 1 + *tag % 11;
        }
        decode_hostile(&bytes)?;
    }

    /// Every truncation and every one-byte corruption of a valid decree.
    #[test]
    fn brain_op_decode_survives_truncation_and_corruption(
        seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = arb_op(seed, 3).encode();
        for cut in 0..bytes.len() {
            prop_assert!(!decode_hostile(&bytes[..cut])?, "cut at {cut} decodes");
        }
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= flip;
            decode_hostile(&corrupt)?;
        }
    }

    /// What `encode` writes, `decode` reads back bit for bit, and writes
    /// again byte for byte.
    #[test]
    fn brain_op_roundtrips_bit_for_bit(seed in any::<u64>()) {
        let op = arb_op(seed, 64);
        let bytes = op.encode();
        let back = BrainOp::decode(&bytes);
        prop_assert!(back.is_ok(), "{back:?}");
        let back = back.unwrap();
        prop_assert!(same_bits(&op, &back), "{op:?} came back as {back:?}");
        prop_assert_eq!(back.encode(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `Reports` decree is decoded bytes on every replica, and a report
    /// may name any node and any far end. What it names that the Brain's
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
            let wild = BrainOp::Reports {
                now: SimTime::ZERO,
                reports: (0..rng.range_u64(1, 5)).map(|_| arb_report(&mut rng, 8)).collect(),
            };
            // ... the same bytes damaged, where they still decode ...
            let mut bytes = wild.encode();
            for _ in 0..4 {
                let at = rng.range_u64(0, bytes.len() as u64) as usize;
                bytes[at] ^= rng.range_u64(1, 256) as u8;
            }
            ops.extend(BrainOp::decode(&bytes).ok());
            ops.push(wild);
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

/// A count the buffer cannot hold fails on the read, not on the allocation:
/// 4 × 10⁹ reports, then one report of 4 × 10⁹ links, in 40 bytes or fewer.
#[test]
fn brain_op_decode_does_not_trust_a_count() {
    let huge = 4_000_000_000u32.to_le_bytes();
    let mut reports = vec![1u8]; // the `Reports` tag, then `now`
    reports.extend_from_slice(&[0; 8]);
    reports.extend_from_slice(&huge);
    let mut links = reports.clone();
    links[9..13].copy_from_slice(&1u32.to_le_bytes());
    links.extend_from_slice(&[0; 24]); // node, at, utilization
    links.extend_from_slice(&huge);
    for bytes in [reports, links] {
        assert!(bytes.len() <= 41);
        let before = REQUESTED.with(Cell::get);
        assert!(BrainOp::decode(&bytes).is_err());
        let requested = REQUESTED.with(Cell::get) - before;
        assert!(requested <= 512, "{requested} bytes requested for {} bytes", bytes.len());
    }
}
