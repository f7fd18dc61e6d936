//! LiveNet's data plane at subscription granularity: per-(node, stream)
//! forwarding entries with reverse-path establishment, cache-hit
//! backtracking and the resulting long-chain effect — the §4.4 protocol
//! `livenet-node` implements packet by packet. The plane owns the entries
//! and the per-minute loads derived from them; the sequencer hands it a
//! Brain-computed path and gets back what was built.

use livenet_topology::Topology;
use livenet_types::{IdMap, NodeId, StreamId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-(node, stream) forwarding state.
///
/// All nodes on one establishment chain share a single path allocation:
/// each entry stores the chain's `Arc` buffer plus its own prefix length.
/// Cloning an entry's realized path is a refcount bump, not a `Vec` copy —
/// the per-session path clones used to dominate the fleet hot loop.
#[derive(Debug, Clone)]
struct Presence {
    upstream: Option<NodeId>,
    /// Shared chain buffer (producer → chain tail).
    path: Arc<[NodeId]>,
    /// This node's realized path is `path[..len]`.
    len: u32,
    /// Direct downstream subscribers (nodes + viewers).
    downstreams: u32,
}

impl Presence {
    /// A zero-hop entry for `node` (producers carry their own stream).
    fn zero_hop(node: NodeId) -> Presence {
        Presence {
            upstream: None,
            path: Arc::from(vec![node]),
            len: 1,
            downstreams: 0,
        }
    }

    /// Realized path from producer to this node (inclusive).
    fn realized(&self) -> &[NodeId] {
        &self.path[..self.len as usize]
    }
}

/// What one establishment built: the viewer's realized path is
/// `path[..len]`, a view into the chain's shared allocation.
#[derive(Debug)]
pub(super) struct Established {
    pub(super) path: Arc<[NodeId]>,
    pub(super) len: u32,
    /// Subscribe/ok round trips along the newly built hops.
    pub(super) establish_ms: f64,
    /// The long-chain switch re-established the full computed path.
    pub(super) switched: bool,
}

/// Subscribe/ok round trip + per-hop FIB/subscription work along `path`.
fn hop_cost_ms(topology: &Topology, path: &[NodeId]) -> f64 {
    let mut ms = 0.0;
    for w in path.windows(2) {
        if let Some(l) = topology.link(w[0], w[1]) {
            ms += l.rtt.as_millis_f64() + 10.0;
        }
    }
    ms
}

/// Per-minute loads derived from the entries (the ground truth): a node's
/// fan-out is the sum of its direct downstream subscribers; a link carries
/// one unit per stream flowing over it.
#[derive(Debug, Default)]
pub(super) struct Loads {
    pub(super) node_fanout: IdMap<NodeId, f64>,
    pub(super) link_sessions: IdMap<(NodeId, NodeId), f64>,
}

/// The LiveNet data plane.
#[derive(Debug, Default)]
pub(super) struct LiveNetPlane {
    presence: IdMap<(NodeId, StreamId), Presence>,
    loads: Loads,
}

impl LiveNetPlane {
    /// The producer itself carries the stream (zero-hop entry).
    pub(super) fn start_stream(&mut self, producer: NodeId, stream: StreamId) {
        self.presence
            .entry((producer, stream))
            .or_insert_with(|| Presence::zero_hop(producer));
    }

    /// Sessions were truncated to the block end, so the chains should be
    /// drained; sweep any leftovers (e.g. the producer's own entry).
    pub(super) fn end_stream(&mut self, stream: StreamId) {
        self.presence.retain(|&(_, s), _| s != stream);
    }

    /// The broadcaster re-pushed to `new` after its ingest node `old` died.
    pub(super) fn rehome(&mut self, stream: StreamId, old: NodeId, new: NodeId) {
        self.presence.remove(&(old, stream));
        self.start_stream(new, stream);
    }

    /// Realized path of the entry a viewer at `consumer` rides, if any.
    pub(super) fn realized(&self, consumer: NodeId, stream: StreamId) -> Option<&[NodeId]> {
        self.presence
            .get(&(consumer, stream))
            .map(Presence::realized)
    }

    /// Local hit: `consumer` already forwards `stream`, so the viewer just
    /// becomes one more downstream of its entry.
    pub(super) fn local_hit(
        &mut self,
        consumer: NodeId,
        stream: StreamId,
    ) -> Option<(Arc<[NodeId]>, u32)> {
        let p = self.presence.get_mut(&(consumer, stream))?;
        p.downstreams += 1;
        Some((p.path.clone(), p.len))
    }

    /// Reverse-path establishment of the Brain-computed `path` (producer →
    /// consumer) with cache-hit backtracking: walk upstream from the
    /// consumer; the deepest node already carrying the stream anchors the
    /// chain (which may create a long chain). If the realized chain would
    /// reach `switch_hops`, the full computed path is re-established from
    /// the producer instead — the consumer-driven switch of §4.4.
    pub(super) fn establish(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        stream: StreamId,
        switch_hops: usize,
    ) -> Established {
        let consumer = path[path.len() - 1];
        let mut anchor_idx = 0;
        for i in (0..path.len().saturating_sub(1)).rev() {
            if self.presence.contains_key(&(path[i], stream)) {
                anchor_idx = i;
                break;
            }
        }
        let anchor = self.presence.get(&(path[anchor_idx], stream));
        let anchor_len = anchor.map_or(1, |p| p.len as usize);
        let chained_hops = anchor_len - 1 + (path.len() - 1 - anchor_idx);
        let switched = chained_hops + 1 > switch_hops;
        let mut realized: Vec<NodeId> = Vec::with_capacity(anchor_len + path.len() - anchor_idx);
        if switched {
            anchor_idx = 0;
        }
        // Build the chain's realized path ONCE; every entry on the tail
        // then shares this one allocation via `Arc` + prefix len. An
        // anchor's realized prefix applies unless the switch reset the
        // chain to the producer.
        match self.presence.get(&(path[anchor_idx], stream)) {
            Some(p) if !switched => realized.extend_from_slice(p.realized()),
            Some(_) => realized.push(path[anchor_idx]),
            None => {
                // No carrier at all: the chain starts at the producer,
                // whose own entry a fault purged while the stream stayed
                // registered.
                realized.push(path[anchor_idx]);
                self.start_stream(path[anchor_idx], stream);
            }
        }
        realized.extend_from_slice(&path[anchor_idx + 1..]);
        realized.dedup();
        let shared: Arc<[NodeId]> = Arc::from(realized);

        // Create entries along the new tail.
        for j in (anchor_idx + 1)..path.len() {
            let node = path[j];
            let prefix_len = shared
                .iter()
                .position(|&n| n == node)
                .map(|p| p + 1)
                .unwrap_or(shared.len());
            let entry = self
                .presence
                .entry((node, stream))
                .or_insert_with(|| Presence {
                    upstream: Some(path[j - 1]),
                    path: shared.clone(),
                    len: prefix_len as u32,
                    downstreams: 0,
                });
            if j + 1 < path.len() {
                entry.downstreams += 1; // its downstream chain node
            }
        }
        // The anchor gains the first new downstream, the consumer its viewer.
        if anchor_idx + 1 < path.len() {
            if let Some(p) = self.presence.get_mut(&(path[anchor_idx], stream)) {
                p.downstreams += 1;
            }
        }
        if let Some(p) = self.presence.get_mut(&(consumer, stream)) {
            p.downstreams += 1;
        }
        Established {
            len: shared.len() as u32,
            path: shared,
            establish_ms: hop_cost_ms(topology, &path[anchor_idx..]),
            switched,
        }
    }

    /// A viewer left `consumer`: tear the chain down hop by hop until a
    /// node that still has other downstreams. Producers keep their
    /// zero-hop entry while the stream is live.
    pub(super) fn release(&mut self, consumer: NodeId, stream: StreamId) {
        let mut node = consumer;
        while let Some(p) = self.presence.get_mut(&(node, stream)) {
            p.downstreams = p.downstreams.saturating_sub(1);
            if p.downstreams > 0 {
                break;
            }
            let Some(up) = p.upstream else { break };
            self.presence.remove(&(node, stream));
            node = up;
        }
    }

    /// Whatever the `down` nodes carried is gone with them.
    pub(super) fn purge(&mut self, down: &BTreeSet<NodeId>) {
        self.presence.retain(|&(n, _), _| !down.contains(&n));
    }

    /// Recompute the per-minute loads from the entries.
    pub(super) fn loads(&mut self) -> &Loads {
        let loads = &mut self.loads;
        loads.node_fanout.clear();
        loads.link_sessions.clear();
        for (&(node, _), p) in &self.presence {
            *loads.node_fanout.entry(node).or_insert(0.0) += f64::from(p.downstreams);
            if let Some(up) = p.upstream {
                *loads.link_sessions.entry((up, node)).or_insert(0.0) += 1.0;
            }
        }
        loads
    }
}

/// Test-only inspection: nothing on the run path calls these.
#[cfg(test)]
impl LiveNetPlane {
    /// Number of forwarding entries.
    pub(super) fn entries(&self) -> usize {
        self.presence.len()
    }

    /// Conservation audit: every entry's `downstreams` equals the child
    /// entries naming it upstream plus the viewers attached to it, and no
    /// viewer or child hangs off a missing entry. Returns the violating
    /// `(node, stream)` keys, sorted.
    pub(super) fn audit(
        &self,
        attached: impl IntoIterator<Item = (NodeId, StreamId)>,
    ) -> Vec<(NodeId, StreamId)> {
        let mut expect: IdMap<(NodeId, StreamId), u32> = IdMap::default();
        for (&(_, stream), p) in &self.presence {
            if let Some(up) = p.upstream {
                *expect.entry((up, stream)).or_insert(0) += 1;
            }
        }
        for key in attached {
            *expect.entry(key).or_insert(0) += 1;
        }
        let mut bad: Vec<(NodeId, StreamId)> = self
            .presence
            .iter()
            .filter(|&(key, p)| expect.remove(key).unwrap_or(0) != p.downstreams)
            .map(|(&key, _)| key)
            .collect();
        bad.extend(expect.into_keys());
        bad.sort();
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::testkit::five_nodes;

    const S: StreamId = StreamId::new(7);

    /// A plane with `S` live at `n[0]`.
    fn live() -> (Topology, [NodeId; 5], LiveNetPlane) {
        let (topology, n) = five_nodes();
        let mut plane = LiveNetPlane::default();
        plane.start_stream(n[0], S);
        (topology, n, plane)
    }

    #[test]
    fn establishment_charges_every_new_hop_and_shares_one_path_buffer() {
        let (topology, n, mut plane) = live();
        let e = plane.establish(&topology, &[n[0], n[2], n[4]], S, 5);
        assert!(!e.switched);
        assert_eq!(&e.path[..e.len as usize], &[n[0], n[2], n[4]]);
        // (20 + 10) + (20 + 10): RTT is 10 ms per index step.
        assert_eq!(e.establish_ms, 60.0);
        assert_eq!(plane.realized(n[2], S), Some(&[n[0], n[2]][..]));
        assert_eq!(plane.entries(), 3);
        assert!(plane.audit([(n[4], S)]).is_empty());
        // A second viewer on the same edge is a local hit on that entry.
        let (path, len) = plane.local_hit(n[4], S).expect("entry exists");
        assert!(Arc::ptr_eq(&path, &e.path) && len == e.len);
        assert!(plane.audit([(n[4], S), (n[4], S)]).is_empty());
        assert_eq!(plane.audit([(n[4], S)]), vec![(n[4], S)]);
    }

    #[test]
    fn cache_hit_backtracking_anchors_on_the_deepest_carrier() {
        let (topology, n, mut plane) = live();
        plane.establish(&topology, &[n[0], n[1], n[2]], S, 5);
        // The Brain's path for n[4] goes producer → n[2] → n[4]; n[2]
        // already carries the stream over a longer chain, so the viewer
        // rides that chain and only the last hop is established.
        let e = plane.establish(&topology, &[n[0], n[2], n[4]], S, 5);
        assert!(!e.switched);
        assert_eq!(&e.path[..e.len as usize], &[n[0], n[1], n[2], n[4]]);
        assert_eq!(e.establish_ms, 30.0);
        assert!(plane.audit([(n[2], S), (n[4], S)]).is_empty());
    }

    #[test]
    fn long_chain_switch_re_establishes_from_the_producer() {
        let (topology, n, mut plane) = live();
        plane.establish(&topology, &[n[0], n[1], n[2], n[3]], S, 5);
        // Anchoring on n[3] would realize 4 hops: under a 5-hop threshold
        // that is a long chain, at 4 it triggers the switch.
        let chained = plane.establish(&topology, &[n[0], n[3], n[4]], S, 5);
        assert!(!chained.switched);
        assert_eq!(chained.len, 5);
        plane.release(n[4], S);
        let switched = plane.establish(&topology, &[n[0], n[3], n[4]], S, 4);
        assert!(switched.switched);
        assert_eq!(&switched.path[..switched.len as usize], &[n[0], n[3], n[4]]);
        // The whole computed path is charged, not just the last hop.
        assert_eq!(switched.establish_ms, 40.0 + 20.0);
    }

    #[test]
    fn release_tears_down_to_the_first_shared_node_and_keeps_the_producer() {
        let (topology, n, mut plane) = live();
        plane.establish(&topology, &[n[0], n[1], n[2]], S, 5);
        plane.establish(&topology, &[n[0], n[1], n[3]], S, 5);
        assert_eq!(plane.entries(), 4);
        plane.release(n[3], S);
        // n[1] still feeds n[2]; only the n[3] leaf went.
        assert_eq!(plane.entries(), 3);
        assert!(plane.realized(n[1], S).is_some());
        assert!(plane.audit([(n[2], S)]).is_empty());
        plane.release(n[2], S);
        // Everything drains except the producer's zero-hop entry.
        assert_eq!(plane.entries(), 1);
        assert_eq!(plane.realized(n[0], S), Some(&[n[0]][..]));
        assert!(plane.audit([]).is_empty());
        let loads = plane.loads();
        assert_eq!(loads.node_fanout[&n[0]], 0.0);
        assert!(loads.link_sessions.is_empty());
    }

    #[test]
    fn releasing_a_purged_holder_is_a_no_op() {
        let (topology, n, mut plane) = live();
        plane.establish(&topology, &[n[0], n[1], n[2]], S, 5);
        plane.establish(&topology, &[n[0], n[3], n[4]], S, 5);
        plane.purge(&BTreeSet::from([n[1], n[2]]));
        assert_eq!(plane.entries(), 3);
        plane.release(n[2], S);
        assert_eq!(plane.entries(), 3);
        assert_eq!(plane.loads().link_sessions.len(), 2);
        plane.end_stream(S);
        assert_eq!(plane.entries(), 0);
    }

    #[test]
    fn establish_restores_a_purged_producer_entry() {
        let (topology, n, mut plane) = live();
        // The producer's node went dark and came back while the stream
        // stayed registered: the first chain rebuilds the entry it hangs off.
        plane.purge(&BTreeSet::from([n[0]]));
        assert_eq!(plane.entries(), 0);
        plane.establish(&topology, &[n[0], n[2]], S, 5);
        assert!(plane.audit([(n[2], S)]).is_empty());
        // A viewer on the producer node itself counts once.
        plane.purge(&BTreeSet::from([n[0], n[2]]));
        let e = plane.establish(&topology, &[n[0]], S, 5);
        assert_eq!((e.len, e.establish_ms), (1, 0.0));
        assert!(plane.audit([(n[0], S)]).is_empty());
    }

    #[test]
    fn rehome_moves_the_zero_hop_entry() {
        let (_, n, mut plane) = live();
        plane.rehome(S, n[0], n[1]);
        assert!(plane.realized(n[0], S).is_none());
        assert_eq!(plane.realized(n[1], S), Some(&[n[1]][..]));
    }
}
