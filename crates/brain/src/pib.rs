//! The Path Information Base (PIB) and Stream Information Base (SIB).
//!
//! Both answer with a table read (paper §4.4: "As both information bases
//! are built on hash tables, the path lookup takes only a few
//! milliseconds"): the SIB maps stream ID → producer node in a hash map; the
//! PIB maps (producer, consumer) → candidate paths ordered by preference in
//! one flat table that the 10-minute job rewrites in place (DESIGN.md §2.3).

use livenet_types::{NodeId, SimTime, StreamId};
use std::collections::HashMap;

/// One computed overlay path: the node sequence from producer to consumer
/// (inclusive), with its abstracted weight.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayPath {
    /// Nodes from producer (first) to consumer (last).
    pub nodes: Vec<NodeId>,
    /// Abstracted weight (Eq. 2 sum) at computation time, in ms.
    pub weight: f64,
    /// When Global Routing computed the path.
    pub computed_at: SimTime,
    /// True when this is a reserved last-resort path (§4.3).
    pub last_resort: bool,
}

impl OverlayPath {
    /// Number of overlay hops (links). 0 when producer == consumer.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Producer end.
    pub fn producer(&self) -> NodeId {
        *self.nodes.first().expect("non-empty path")
    }

    /// Consumer end.
    pub fn consumer(&self) -> NodeId {
        *self.nodes.last().expect("non-empty path")
    }

    /// True when the path traverses `node`.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// True when the path traverses the directed link `from → to`.
    pub fn contains_link(&self, from: NodeId, to: NodeId) -> bool {
        self.nodes.windows(2).any(|w| w[0] == from && w[1] == to)
    }
}

/// Where `id` sits in `ids` (ascending, no duplicates). Node ids are
/// consecutive in every geography this repo generates, so `id − first id`
/// is tried, and verified (so a wrapped guess is a miss), before the binary
/// search.
pub(crate) fn position(ids: &[NodeId], id: NodeId) -> Option<usize> {
    let guess = id.raw().wrapping_sub(ids.first()?.raw()) as usize;
    if ids.get(guess) == Some(&id) {
        return Some(guess);
    }
    ids.binary_search(&id).ok()
}

/// The Path Information Base: the output of one Global Routing round.
///
/// One table over the round's routable nodes. Every ordered pair (s, d) of
/// positions in `ids` owns `k` slots, best path first, slot j at index
/// `(s·n + d)·k + j`. A slot is a weight and `1 + stride` cells: the path's
/// node count, then its nodes as positions in `ids`. A count of 0 is a slot
/// that is empty (the pair has fewer than K candidates, or step 2 filtered
/// the path) or that an overload alarm invalidated; readers skip it, so the
/// survivors keep their order. The diagonal's slots stay empty.
#[derive(Debug, Clone, Default)]
pub struct Pib {
    /// The round's routable nodes, ascending.
    ids: Vec<NodeId>,
    /// Slots per ordered pair (the round's K).
    k: usize,
    /// Node positions per slot (the round's hop limit + 1).
    stride: usize,
    /// When the round ran: the stamp of every path read from the table.
    computed_at: SimTime,
    weights: Vec<f64>,
    cells: Vec<u32>,
}

impl Pib {
    /// Empty PIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a round over `ids` (ascending): every slot empty, nothing of
    /// the previous round readable, the buffers kept.
    pub(crate) fn begin_round(&mut self, ids: &[NodeId], k: usize, max_hops: usize, now: SimTime) {
        assert!(
            u32::try_from(ids.len().max(max_hops + 1)).is_ok(),
            "a cell is a u32"
        );
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        (self.k, self.stride, self.computed_at) = (k, max_hops + 1, now);
        let slots = ids.len() * ids.len() * k;
        self.weights.resize(slots, 0.0);
        self.cells.clear();
        self.cells.resize(slots * (1 + self.stride), 0);
    }

    /// The round's one writer: `path` (positions in `ids`, `s` first and
    /// `d` last) is the pair's `rank`-th best.
    pub(crate) fn write(&mut self, s: usize, d: usize, rank: usize, weight: f64, path: &[usize]) {
        assert!(rank < self.k && path.len() <= self.stride);
        let slot = (s * self.ids.len() + d) * self.k + rank;
        self.weights[slot] = weight;
        let cells = &mut self.cells[slot * (1 + self.stride)..][..=path.len()];
        cells[0] = path.len() as u32;
        for (cell, &p) in cells[1..].iter_mut().zip(path) {
            *cell = p as u32;
        }
    }

    /// The pair's live paths that `keep` accepts, best first; `None` when
    /// the round has no such pair (an end that was not routable, or
    /// `src == dst`). `keep` sees a path's nodes before the path is built.
    pub(crate) fn lookup_if(
        &self,
        src: NodeId,
        dst: NodeId,
        mut keep: impl FnMut(&[NodeId]) -> bool,
    ) -> Option<Vec<OverlayPath>> {
        let (s, d) = (position(&self.ids, src)?, position(&self.ids, dst)?);
        if s == d {
            return None;
        }
        let first = (s * self.ids.len() + d) * self.k;
        let mut paths = Vec::new();
        // Moved into the path `keep` accepts, reused after one it rejects.
        let mut nodes = Vec::new();
        for slot in first..first + self.k {
            let cells = &self.cells[slot * (1 + self.stride)..];
            let count = cells[0] as usize;
            nodes.clear();
            nodes.extend(cells[1..][..count].iter().map(|&p| self.ids[p as usize]));
            if count > 0 && keep(&nodes) {
                paths.push(OverlayPath {
                    nodes: std::mem::take(&mut nodes),
                    weight: self.weights[slot],
                    computed_at: self.computed_at,
                    last_resort: false,
                });
            }
        }
        Some(paths)
    }

    /// Candidate paths for a pair, best first.
    pub fn lookup(&self, src: NodeId, dst: NodeId) -> Option<Vec<OverlayPath>> {
        self.lookup_if(src, dst, |_| true)
    }

    /// Number of pairs with entries.
    pub fn len(&self) -> usize {
        self.ids.len() * self.ids.len().saturating_sub(1)
    }

    /// True when the PIB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored paths.
    pub fn total_paths(&self) -> usize {
        self.cells
            .iter()
            .step_by(1 + self.stride)
            .filter(|&&count| count > 0)
            .count()
    }

    /// One walk of the slots: empty every live one whose path (positions in
    /// `ids`) `hit` accepts. Returns the number emptied.
    fn invalidate(&mut self, hit: impl Fn(&[u32]) -> bool) -> usize {
        let mut removed = 0;
        for slot in self.cells.chunks_exact_mut(1 + self.stride) {
            let count = slot[0] as usize;
            if count > 0 && hit(&slot[1..=count]) {
                slot[0] = 0;
                removed += 1;
            }
        }
        removed
    }

    /// `id` as a path cell: its position in `ids`, if it is a node of the
    /// round (one that is not is on no path).
    fn cell(&self, id: NodeId) -> Option<u32> {
        position(&self.ids, id).map(|p| p as u32)
    }

    /// Invalidate (remove) every path traversing `node` (overload alarm).
    /// Returns the number of paths removed.
    pub fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.cell(node)
            .map_or(0, |p| self.invalidate(|path| path.contains(&p)))
    }

    /// Invalidate every path traversing the directed link `from → to`.
    pub fn invalidate_link(&mut self, from: NodeId, to: NodeId) -> usize {
        let ends = self.cell(from).zip(self.cell(to));
        ends.map_or(0, |(f, t)| {
            self.invalidate(|path| path.windows(2).any(|hop| hop == [f, t]))
        })
    }

    /// Every pair with an entry, ascending, with its paths.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), Vec<OverlayPath>)> + '_ {
        let pairs = self
            .ids
            .iter()
            .flat_map(|&s| self.ids.iter().map(move |&d| (s, d)));
        pairs.filter_map(|(s, d)| Some(((s, d), self.lookup(s, d)?)))
    }
}

/// The Stream Information Base: stream ID → producer node.
#[derive(Debug, Clone, Default)]
pub struct Sib {
    streams: HashMap<StreamId, NodeId>,
}

impl Sib {
    /// Empty SIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new stream at its producer (stream upload request, §4.1).
    pub fn register(&mut self, stream: StreamId, producer: NodeId) {
        self.streams.insert(stream, producer);
    }

    /// Remove a finished stream.
    pub(crate) fn unregister(&mut self, stream: StreamId) -> Option<NodeId> {
        self.streams.remove(&stream)
    }

    /// Producer of a stream.
    pub fn producer_of(&self, stream: StreamId) -> Option<NodeId> {
        self.streams.get(&stream).copied()
    }

    /// Number of active streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no streams are registered.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// All active streams.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, NodeId)> + '_ {
        self.streams.iter().map(|(&s, &n)| (s, n))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::routing::{GlobalRouting, RoutingConfig};
    use livenet_topology::{LinkMetrics, NodeInfo, Topology};
    use livenet_types::{Bandwidth, SimDuration};

    fn path(nodes: &[u64], weight: f64) -> OverlayPath {
        OverlayPath {
            nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            weight,
            computed_at: SimTime::ZERO,
            last_resort: false,
        }
    }

    /// One default round (K = 3, 3 hops) over the directed links
    /// `(from, to, RTT in ms)` and the nodes they name, all idle and
    /// lossless: a path's weight is its RTT sum.
    pub(crate) fn round(links: &[(u64, u64, u64)]) -> Pib {
        let mut t = Topology::new();
        for id in links.iter().flat_map(|&(a, b, _)| [a, b]) {
            t.upsert_node(NodeInfo {
                id: NodeId::new(id),
                country: 0,
                capacity: Bandwidth::from_gbps(10),
                utilization: 0.0,
                last_resort: false,
                well_peered: false,
            });
        }
        for &(a, b, rtt) in links {
            let m = LinkMetrics::healthy(SimDuration::from_millis(rtt), Bandwidth::from_gbps(10));
            t.upsert_link(NodeId::new(a), NodeId::new(b), m)
                .expect("both ends exist");
        }
        let mut pib = Pib::new();
        GlobalRouting::new(RoutingConfig::default()).compute_into(&t, SimTime::ZERO, &mut pib);
        pib
    }

    #[test]
    fn hops_counts_links() {
        assert_eq!(path(&[1], 0.0).hops(), 0);
        assert_eq!(path(&[1, 2], 1.0).hops(), 1);
        assert_eq!(path(&[1, 2, 3], 2.0).hops(), 2);
    }

    #[test]
    fn contains_link_is_directed() {
        let p = path(&[1, 2, 3], 2.0);
        assert!(p.contains_link(NodeId::new(1), NodeId::new(2)));
        assert!(!p.contains_link(NodeId::new(2), NodeId::new(1)));
        assert!(!p.contains_link(NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    fn position_guesses_then_searches() {
        let ids = |raw: &[u64]| raw.iter().map(|&n| NodeId::new(n)).collect::<Vec<_>>();
        let max = u64::MAX;
        for ids in [
            ids(&[]),
            ids(&[0, 1, 2, 3]),
            ids(&[7, 8, 10, 11, 40]),
            ids(&[max - 9, max - 8, max]),
        ] {
            for probe in (0..50).chain(max - 12..=max).map(NodeId::new) {
                assert_eq!(
                    position(&ids, probe),
                    ids.iter().position(|&n| n == probe),
                    "{probe} in {ids:?}"
                );
            }
        }
    }

    #[test]
    fn pib_lookup_and_replace() {
        let pib = round(&[(1, 2, 4), (2, 3, 6), (1, 3, 20)]);
        let (a, b) = (NodeId::new(1), NodeId::new(3));
        assert_eq!(
            pib.lookup(a, b),
            Some(vec![path(&[1, 2, 3], 10.0), path(&[1, 3], 20.0)])
        );
        // A pair of the round with no path has an empty entry; a node the
        // round did not route, and the diagonal, have none.
        assert_eq!(pib.lookup(b, a), Some(vec![]));
        assert!(pib.lookup(a, NodeId::new(9)).is_none());
        assert!(pib.lookup(a, a).is_none());
        assert_eq!((pib.len(), pib.total_paths()), (6, 4));
    }

    #[test]
    fn invalidate_node_removes_traversing_paths() {
        let mut pib = round(&[(1, 2, 4), (2, 3, 6), (1, 3, 20), (2, 4, 8)]);
        assert_eq!(
            pib.lookup(NodeId::new(1), NodeId::new(4)),
            Some(vec![path(&[1, 2, 4], 12.0)])
        );
        assert_eq!(pib.total_paths(), 6);
        // Every path but 1→3 direct traverses node 2, ends included.
        let removed = pib.invalidate_node(NodeId::new(2));
        assert_eq!(removed, 5);
        assert_eq!(
            pib.lookup(NodeId::new(1), NodeId::new(3)),
            Some(vec![path(&[1, 3], 20.0)])
        );
        assert!(pib
            .lookup(NodeId::new(1), NodeId::new(4))
            .unwrap()
            .is_empty());
        assert_eq!((pib.len(), pib.total_paths()), (12, 1));
        assert_eq!(pib.invalidate_node(NodeId::new(2)), 0);
    }

    #[test]
    fn invalidate_link_is_directed() {
        let mut pib = round(&[(1, 2, 4), (2, 3, 6)]);
        assert_eq!(
            pib.lookup(NodeId::new(1), NodeId::new(3)),
            Some(vec![path(&[1, 2, 3], 10.0)])
        );
        assert_eq!(pib.invalidate_link(NodeId::new(2), NodeId::new(1)), 0);
        // 1→2 itself and 1→2→3.
        assert_eq!(pib.invalidate_link(NodeId::new(1), NodeId::new(2)), 2);
        assert_eq!(pib.lookup(NodeId::new(1), NodeId::new(3)), Some(vec![]));
        assert_eq!(
            pib.lookup(NodeId::new(2), NodeId::new(3)),
            Some(vec![path(&[2, 3], 6.0)])
        );
    }

    #[test]
    fn sib_register_lookup_unregister() {
        let mut sib = Sib::new();
        let s = StreamId::new(7);
        assert!(sib.producer_of(s).is_none());
        sib.register(s, NodeId::new(2));
        assert_eq!(sib.producer_of(s), Some(NodeId::new(2)));
        assert_eq!(sib.unregister(s), Some(NodeId::new(2)));
        assert!(sib.is_empty());
    }

    #[test]
    fn sib_reregister_moves_producer() {
        // Broadcaster mobility: the stream may re-home (§7.1).
        let mut sib = Sib::new();
        let s = StreamId::new(7);
        sib.register(s, NodeId::new(2));
        sib.register(s, NodeId::new(5));
        assert_eq!(sib.producer_of(s), Some(NodeId::new(5)));
        assert_eq!(sib.len(), 1);
    }
}
