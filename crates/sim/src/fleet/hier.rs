//! The Hier baseline's data plane at subscription granularity: the
//! VDN-like [`HierController`] pins every viewer to a static 4-hop path,
//! and each node on it caches the stream for as long as a session (or the
//! stream's own ingest) references it. The plane owns those refcounts and
//! their per-node sum, which only `hold`, `release` and `sweep` write.

use livenet_hier::{HierController, HierRoles};
use livenet_topology::Topology;
use livenet_types::{IdMap, NodeId, StreamId};
use std::collections::BTreeSet;

/// What one viewer attachment found.
#[derive(Debug)]
pub(super) struct HierAttach {
    /// `[producer L1, up L2, center, down L2, consumer L1]`; the viewer
    /// holds a reference on each.
    pub(super) nodes: Vec<NodeId>,
    /// The consumer edge already cached the stream.
    pub(super) hit: bool,
    /// On a miss: TCP fetch time up the tree to the first caching tier.
    pub(super) fetch_ms: f64,
}

/// The Hier data plane.
#[derive(Debug)]
pub(super) struct HierPlane {
    controller: HierController,
    /// Refcounts per (node, stream) (GoP caches).
    refs: IdMap<(NodeId, StreamId), u32>,
    /// Per-node sum of `refs`, so center queueing is O(1) per arrival
    /// instead of a full scan. Integer-valued, hence exact and
    /// order-independent.
    node_load: IdMap<NodeId, i64>,
    /// The reference each live stream's own ingest holds on its producer.
    ingest: IdMap<StreamId, NodeId>,
}

impl HierPlane {
    pub(super) fn new(roles: HierRoles) -> HierPlane {
        HierPlane {
            controller: HierController::new(roles),
            refs: IdMap::default(),
            node_load: IdMap::default(),
            ingest: IdMap::default(),
        }
    }

    fn hold(&mut self, node: NodeId, stream: StreamId) {
        *self.refs.entry((node, stream)).or_insert(0) += 1;
        *self.node_load.entry(node).or_insert(0) += 1;
    }

    /// Drop every refcount `doomed` selects, keeping the per-node sum.
    fn sweep(&mut self, doomed: impl Fn(NodeId, StreamId) -> bool) {
        let load = &mut self.node_load;
        self.refs.retain(|&(n, s), c| {
            if !doomed(n, s) {
                return true;
            }
            if let Some(l) = load.get_mut(&n) {
                *l -= i64::from(*c);
            }
            false
        });
    }

    /// Register the stream with the controller (it may find no L2 or
    /// center, in which case viewers fall back); the ingest itself caches
    /// the stream at the producer.
    pub(super) fn start_stream(&mut self, topology: &Topology, stream: StreamId, producer: NodeId) {
        let _ = self.controller.register_stream(topology, stream, producer);
        self.hold(producer, stream);
        self.ingest.insert(stream, producer);
    }

    /// Sessions were truncated to the block end, so refcounts should be
    /// drained; sweep any leftovers (e.g. the ingest's own reference).
    pub(super) fn end_stream(&mut self, stream: StreamId) {
        self.controller.unregister_stream(stream);
        self.ingest.remove(&stream);
        self.sweep(|_, s| s == stream);
    }

    /// Pin a viewer at `consumer` to its tree path and take a reference on
    /// every node of it. `None` when the controller has no path (stream
    /// not registered, no L2 reachable): nothing is held.
    pub(super) fn attach(
        &mut self,
        topology: &Topology,
        consumer: NodeId,
        stream: StreamId,
    ) -> Option<HierAttach> {
        let hit = self.refs.get(&(consumer, stream)).is_some_and(|&c| c > 0);
        let nodes = self
            .controller
            .path_for(topology, stream, consumer)
            .ok()?
            .nodes;
        for &n in &nodes {
            self.hold(n, stream);
        }
        // Cache miss: climb the tree until a tier has the stream cached —
        // i.e. somebody besides this viewer holds it there. `path_for`
        // returns five nodes on every `Ok`, so both indexes are in range.
        let mut fetch_ms = 0.0;
        if !hit {
            let mut cur = consumer;
            for tier in [nodes[3], nodes[2]] {
                if let Some(l) = topology.link(cur, tier) {
                    fetch_ms += l.rtt.as_millis_f64() * 1.5; // TCP request+slow start
                }
                cur = tier;
                if self.refs.get(&(tier, stream)).is_some_and(|&c| c > 1) {
                    break;
                }
            }
        }
        Some(HierAttach {
            nodes,
            hit,
            fetch_ms,
        })
    }

    /// A viewer that held `nodes` left. References already gone (purged,
    /// or swept with the stream) are skipped.
    pub(super) fn release(&mut self, nodes: &[NodeId], stream: StreamId) {
        for &n in nodes {
            if let Some(c) = self.refs.get_mut(&(n, stream)) {
                *c = c.saturating_sub(1);
                if let Some(l) = self.node_load.get_mut(&n) {
                    *l -= 1;
                }
                if *c == 0 {
                    self.refs.remove(&(n, stream));
                }
            }
        }
    }

    /// The `down` nodes lost their caches — every reference on them,
    /// ingest references included.
    pub(super) fn purge(&mut self, down: &BTreeSet<NodeId>) {
        self.sweep(|n, _| down.contains(&n));
        self.ingest.retain(|_, n| !down.contains(n));
    }

    /// Sum of the refcounts on `node` (all streams).
    pub(super) fn node_load(&self, node: NodeId) -> i64 {
        self.node_load.get(&node).copied().unwrap_or(0)
    }
}

/// Test-only inspection: nothing on the run path calls this.
#[cfg(test)]
impl HierPlane {
    /// Conservation audit: every refcount equals the sessions holding the
    /// node (one per occurrence in `holders`) plus the live ingest
    /// references, and the per-node sum equals the sum of the refcounts.
    /// Returns the violating `(node, stream)` keys, sorted; a bad per-node
    /// sum is reported under `StreamId::new(0)`.
    pub(super) fn audit<'a>(
        &self,
        holders: impl IntoIterator<Item = (&'a [NodeId], StreamId)>,
    ) -> Vec<(NodeId, StreamId)> {
        let mut expect: IdMap<(NodeId, StreamId), u32> = IdMap::default();
        for (&stream, &producer) in &self.ingest {
            *expect.entry((producer, stream)).or_insert(0) += 1;
        }
        for (nodes, stream) in holders {
            for &n in nodes {
                *expect.entry((n, stream)).or_insert(0) += 1;
            }
        }
        let mut sums: IdMap<NodeId, i64> = IdMap::default();
        for (&(n, _), &c) in &self.refs {
            *sums.entry(n).or_insert(0) += i64::from(c);
        }
        let mut bad: Vec<(NodeId, StreamId)> = self
            .refs
            .iter()
            .filter(|&(key, &c)| expect.remove(key).unwrap_or(0) != c)
            .map(|(&key, _)| key)
            .collect();
        bad.extend(expect.into_keys());
        bad.extend(
            self.node_load
                .iter()
                .filter(|&(n, &l)| sums.get(n).copied().unwrap_or(0) != l)
                .map(|(&n, _)| (n, StreamId::new(0))),
        );
        bad.sort();
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::testkit::five_nodes;

    const S: StreamId = StreamId::new(7);

    /// One center (n[2]) and two L2s (n[1], n[3]); `S` live at edge n[0].
    fn live() -> (Topology, [NodeId; 5], HierPlane) {
        let (topology, n) = five_nodes();
        let roles = HierRoles::assign(&topology, 1);
        assert_eq!(
            (roles.centers(), roles.l2_nodes()),
            (&[n[2]][..], &[n[1], n[3]][..])
        );
        let mut plane = HierPlane::new(roles);
        plane.start_stream(&topology, S, n[0]);
        (topology, n, plane)
    }

    #[test]
    fn a_miss_climbs_the_tree_and_a_second_viewer_hits() {
        let (topology, n, mut plane) = live();
        let a = plane.attach(&topology, n[4], S).expect("registered");
        assert_eq!(a.nodes, vec![n[0], n[1], n[2], n[3], n[4]]);
        assert!(!a.hit);
        // Nobody else holds the L2 or the center: both tiers are fetched,
        // 1.5 × 10 ms each.
        assert_eq!(a.fetch_ms, 30.0);
        assert_eq!(plane.node_load(n[0]), 2); // ingest + viewer
        assert_eq!(plane.node_load(n[2]), 1);
        let b = plane.attach(&topology, n[4], S).expect("registered");
        assert!(b.hit);
        assert_eq!(b.fetch_ms, 0.0);
        assert!(plane
            .audit([(&a.nodes[..], S), (&b.nodes[..], S)])
            .is_empty());
        assert_eq!(plane.audit([(&a.nodes[..], S)]).len(), 5);
    }

    #[test]
    fn tier_cache_hit_needs_a_second_holder() {
        let (topology, n, mut plane) = live();
        let a = plane.attach(&topology, n[4], S).expect("registered");
        plane.release(&a.nodes, S);
        // The first viewer left, so the tiers hold nothing: a full fetch.
        let b = plane.attach(&topology, n[4], S).expect("registered");
        assert_eq!((b.hit, b.fetch_ms), (false, 30.0));
        plane.release(&b.nodes, S);
        // Another session pinned through the down L2 keeps its cache warm.
        plane.hold(n[3], S);
        let c = plane.attach(&topology, n[4], S).expect("registered");
        assert_eq!((c.hit, c.fetch_ms), (false, 15.0));
    }

    #[test]
    fn releasing_a_purged_holder_is_a_no_op_and_the_sum_follows() {
        let (topology, n, mut plane) = live();
        let a = plane.attach(&topology, n[4], S).expect("registered");
        plane.purge(&BTreeSet::from([n[0], n[3]]));
        assert_eq!(plane.node_load(n[0]), 0);
        assert_eq!(plane.node_load(n[3]), 0);
        // The purged nodes left the viewer's held set; the ingest
        // reference on n[0] went with the node.
        let held: Vec<NodeId> = a
            .nodes
            .iter()
            .copied()
            .filter(|&x| x != n[0] && x != n[3])
            .collect();
        assert!(plane.audit([(&held[..], S)]).is_empty());
        // A later viewer re-creates a count on the purged L2 ...
        let b = plane.attach(&topology, n[4], S).expect("registered");
        // ... which releasing the stale full path would wrongly take.
        plane.release(&held, S);
        assert!(plane.audit([(&b.nodes[..], S)]).is_empty());
        assert_eq!(plane.node_load(n[3]), 1);
        plane.end_stream(S);
        for x in n {
            assert_eq!(plane.node_load(x), 0);
        }
        assert!(plane.attach(&topology, n[4], S).is_none());
        assert!(plane.audit([]).is_empty());
    }
}
