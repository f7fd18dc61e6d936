//! Nodes, links and the overlay graph.

use livenet_types::{Bandwidth, Error, NodeId, Result, SimDuration};
use std::collections::BTreeSet;

/// Static + slowly-varying description of one CDN node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Node identity.
    pub id: NodeId,
    /// Country index the node resides in (inter- vs intra-national paths).
    pub country: u32,
    /// Total egress capacity of the cluster.
    pub capacity: Bandwidth,
    /// Combined load metric in [0, 1]: stream transmissions + CPU + memory
    /// (paper §4.2 footnote 4).
    pub utilization: f64,
    /// Whether this node is reserved as a last-resort relay (§4.3). Such
    /// nodes sit at well-peered locations (IXPs) and are excluded from
    /// normal routing.
    pub last_resort: bool,
    /// Whether the node sits in a well-peered network (backbone PoP / IXP).
    /// Long-haul links between two poorly-peered nodes take inefficient
    /// BGP routes, which is why relay paths through well-peered nodes beat
    /// direct overlay links — the effect behind the paper's 92%-of-paths-
    /// are-2-hops distribution (Table 2).
    pub well_peered: bool,
}

/// Measured state of a directed overlay link (from the 1-minute reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMetrics {
    /// Round-trip time between the two nodes.
    pub rtt: SimDuration,
    /// Packet loss rate in [0, 1].
    pub loss: f64,
    /// Link utilization in [0, 1].
    pub utilization: f64,
    /// Link capacity.
    pub capacity: Bandwidth,
}

impl LinkMetrics {
    /// A healthy link with the given RTT and capacity.
    pub fn healthy(rtt: SimDuration, capacity: Bandwidth) -> Self {
        LinkMetrics {
            rtt,
            loss: 0.0,
            utilization: 0.0,
            capacity,
        }
    }
}

/// The overlay graph: what exists and what was last measured.
///
/// Stored as id-sorted rows: `nodes` ascending by id and, parallel to it,
/// one out-link row per node ascending by far end. A full one-minute
/// refresh walks the rows; a point lookup is two binary searches. Every
/// iterator below yields in `(from, to)` ascending order, and every
/// downstream computation (KSP tie-breaks, report order, the float sum
/// behind `hourly_loss`) depends on that order.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Ascending by `id`, no duplicates.
    nodes: Vec<NodeInfo>,
    /// `rows[i]`: the out-links of `nodes[i]`. Always as long as `nodes`.
    rows: Vec<Row>,
    /// Nodes currently marked down by the fault layer. Kept separate from
    /// `NodeInfo` so liveness is orthogonal to the measured state: a node
    /// that comes back keeps its last-reported metrics.
    down_nodes: BTreeSet<NodeId>,
    /// Directed links currently marked down (beyond any down endpoints).
    down_links: BTreeSet<(NodeId, NodeId)>,
}

/// One node's out-links. The far ends are kept apart from the measurements
/// so that a caller can be handed the measurements to write while the sort
/// keys stay read-only.
#[derive(Debug, Clone, Default)]
struct Row {
    /// Ascending, no duplicates.
    far_ends: Vec<NodeId>,
    /// `metrics[j]`: measured on the link to `far_ends[j]`.
    metrics: Vec<LinkMetrics>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `id` in `nodes` (and of its row in `rows`). Ids are
    /// consecutive in every generated geography, so `id − first id` is
    /// tried, and verified (so a wrapped guess is a miss), before the
    /// binary search.
    fn index(&self, id: NodeId) -> Option<usize> {
        let guess = id.raw().wrapping_sub(self.nodes.first()?.id.raw()) as usize;
        if self.nodes.get(guess).is_some_and(|n| n.id == id) {
            return Some(guess);
        }
        self.nodes.binary_search_by_key(&id, |n| n.id).ok()
    }

    /// Add or replace a node. A new id gets an empty row; a known id keeps
    /// its links and its up/down state.
    pub fn upsert_node(&mut self, info: NodeInfo) {
        match self.nodes.binary_search_by_key(&info.id, |n| n.id) {
            Ok(i) => self.nodes[i] = info,
            Err(i) => {
                self.nodes.insert(i, info);
                self.rows.insert(i, Row::default());
            }
        }
    }

    /// Add or replace a directed link. Both endpoints must exist.
    pub fn upsert_link(&mut self, from: NodeId, to: NodeId, metrics: LinkMetrics) -> Result<()> {
        let Some(i) = self.index(from) else {
            return Err(Error::not_found(format!("node {from}")));
        };
        if self.index(to).is_none() {
            return Err(Error::not_found(format!("node {to}")));
        }
        if from == to {
            return Err(Error::constraint("self-loop link"));
        }
        let row = &mut self.rows[i];
        match row.far_ends.binary_search(&to) {
            Ok(j) => row.metrics[j] = metrics,
            Err(j) => {
                row.far_ends.insert(j, to);
                row.metrics.insert(j, metrics);
            }
        }
        Ok(())
    }

    /// Add a symmetric link pair.
    pub fn upsert_duplex(&mut self, a: NodeId, b: NodeId, metrics: LinkMetrics) -> Result<()> {
        self.upsert_link(a, b, metrics)?;
        self.upsert_link(b, a, metrics)
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
        self.index(id).map(|i| &self.nodes[i])
    }

    /// Mutable node lookup (load updates).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeInfo> {
        self.index(id).map(|i| &mut self.nodes[i])
    }

    /// The out-links of `from`, down links included: the far ends,
    /// ascending, and the link to each at the same position (both empty for
    /// an unknown node).
    pub fn row(&self, from: NodeId) -> (&[NodeId], &[LinkMetrics]) {
        let row = self.index(from).map(|i| &self.rows[i]);
        row.map_or((&[], &[]), |r| (&r.far_ends, &r.metrics))
    }

    /// [`Topology::row`] with the links writable: one node's share of a
    /// bulk measurement update.
    pub fn row_mut(&mut self, from: NodeId) -> (&[NodeId], &mut [LinkMetrics]) {
        let row = self.index(from).map(|i| &mut self.rows[i]);
        row.map_or((&[], &mut []), |r| (&r.far_ends, &mut r.metrics))
    }

    /// Link lookup.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&LinkMetrics> {
        let (far_ends, links) = self.row(from);
        Some(&links[far_ends.binary_search(&to).ok()?])
    }

    /// Mutable link lookup (measurement updates).
    pub fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkMetrics> {
        let (far_ends, links) = self.row_mut(from);
        Some(&mut links[far_ends.binary_search(&to).ok()?])
    }

    /// All nodes in deterministic (id) order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }

    /// Node IDs in deterministic order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }

    /// Non-last-resort, currently-up node IDs (the routable set).
    pub fn routable_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| !n.last_resort && !self.down_nodes.contains(&n.id))
            .map(|n| n.id)
    }

    /// Last-resort relay node IDs.
    pub fn last_resort_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|n| n.last_resort).map(|n| n.id)
    }

    /// Mark a node up or down. Down nodes drop out of `routable_node_ids`
    /// and `neighbors`, so path computation routes around them without the
    /// graph forgetting the node's links. No-op for unknown ids.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        if self.index(id).is_none() {
            return;
        }
        if up {
            self.down_nodes.remove(&id);
        } else {
            self.down_nodes.insert(id);
        }
    }

    /// Whether a node is currently up (unknown nodes count as down).
    pub fn node_is_up(&self, id: NodeId) -> bool {
        self.index(id).is_some() && !self.down_nodes.contains(&id)
    }

    /// Mark a directed link up or down without touching its metrics.
    pub fn set_link_up(&mut self, from: NodeId, to: NodeId, up: bool) {
        if self.link(from, to).is_none() {
            return;
        }
        if up {
            self.down_links.remove(&(from, to));
        } else {
            self.down_links.insert((from, to));
        }
    }

    /// Mark both directions of a link up or down.
    pub fn set_duplex_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.set_link_up(a, b, up);
        self.set_link_up(b, a, up);
    }

    /// Whether a directed link is usable: it exists, is not itself down,
    /// and both endpoints are up.
    pub fn link_is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.link(from, to).is_some()
            && !self.down_links.contains(&(from, to))
            && !self.down_nodes.contains(&from)
            && !self.down_nodes.contains(&to)
    }

    /// Directed links currently marked down themselves (a link through a
    /// down endpoint is not listed), deterministic order.
    pub fn down_link_ids(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.down_links.iter().copied()
    }

    /// All node IDs in the given country, deterministic order (region
    /// outage support).
    pub fn nodes_in_country(&self, country: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |n| n.country == country)
            .map(|n| n.id)
    }

    /// Out-neighbors of `from` with link metrics, deterministic order.
    /// Down links and links to down endpoints are excluded, so routing
    /// sees only the live graph.
    pub fn neighbors(&self, from: NodeId) -> impl Iterator<Item = (NodeId, &LinkMetrics)> {
        // Nearly every call finds nothing down: decide that once, not by
        // probing the sets per link.
        let all_up = self.down_nodes.is_empty() && self.down_links.is_empty();
        let from_up = all_up || !self.down_nodes.contains(&from);
        let (far_ends, links) = self.row(from);
        far_ends.iter().copied().zip(links).filter(move |(to, _)| {
            all_up
                || (from_up
                    && !self.down_links.contains(&(from, *to))
                    && !self.down_nodes.contains(to))
        })
    }

    /// All directed links `(from, to, metrics)` in deterministic order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, &LinkMetrics)> {
        self.nodes.iter().zip(&self.rows).flat_map(|(n, row)| {
            let links = row.far_ends.iter().zip(&row.metrics);
            links.map(move |(to, m)| (n.id, *to, m))
        })
    }

    /// All directed links mutably, same deterministic order as
    /// [`Topology::links`] (bulk measurement updates without per-link
    /// lookups).
    pub fn links_mut(&mut self) -> impl Iterator<Item = (NodeId, NodeId, &mut LinkMetrics)> {
        self.nodes.iter().zip(&mut self.rows).flat_map(|(n, row)| {
            let links = row.far_ends.iter().zip(&mut row.metrics);
            links.map(move |(to, m)| (n.id, *to, m))
        })
    }

    /// All nodes mutably in deterministic (id) order. Ids are the sort key:
    /// a caller writes measurements, never `id`.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut NodeInfo> {
        self.nodes.iter_mut()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.rows.iter().map(|r| r.far_ends.len()).sum()
    }

    /// True when broadcaster and viewer countries differ for the two nodes.
    pub fn is_international(&self, a: NodeId, b: NodeId) -> Option<bool> {
        Some(self.node(a)?.country != self.node(b)?.country)
    }

    /// Sum of RTTs along `path` (consecutive pairs); `None` if any link is
    /// missing. One-way delay is approximated as RTT/2 per hop.
    pub fn path_rtt(&self, path: &[NodeId]) -> Option<SimDuration> {
        let mut total = SimDuration::ZERO;
        for w in path.windows(2) {
            total += self.link(w[0], w[1])?.rtt;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64, country: u32) -> NodeInfo {
        NodeInfo {
            id: NodeId::new(id),
            country,
            capacity: Bandwidth::from_gbps(10),
            utilization: 0.0,
            last_resort: false,
            well_peered: false,
        }
    }

    fn link(rtt_ms: u64) -> LinkMetrics {
        LinkMetrics::healthy(SimDuration::from_millis(rtt_ms), Bandwidth::from_gbps(1))
    }

    #[test]
    fn upsert_and_lookup() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        t.upsert_node(node(2, 1));
        t.upsert_duplex(NodeId::new(1), NodeId::new(2), link(20))
            .unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.link_count(), 2);
        assert_eq!(
            t.link(NodeId::new(1), NodeId::new(2)).unwrap().rtt,
            SimDuration::from_millis(20)
        );
    }

    #[test]
    fn link_requires_both_endpoints() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        assert!(t
            .upsert_link(NodeId::new(1), NodeId::new(9), link(10))
            .is_err());
        assert!(t
            .upsert_link(NodeId::new(9), NodeId::new(1), link(10))
            .is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        assert!(t
            .upsert_link(NodeId::new(1), NodeId::new(1), link(1))
            .is_err());
    }

    #[test]
    fn international_detection() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        t.upsert_node(node(2, 0));
        t.upsert_node(node(3, 5));
        assert_eq!(
            t.is_international(NodeId::new(1), NodeId::new(2)),
            Some(false)
        );
        assert_eq!(
            t.is_international(NodeId::new(1), NodeId::new(3)),
            Some(true)
        );
        assert_eq!(t.is_international(NodeId::new(1), NodeId::new(99)), None);
    }

    #[test]
    fn path_rtt_sums_links() {
        let mut t = Topology::new();
        for i in 1..=3 {
            t.upsert_node(node(i, 0));
        }
        t.upsert_duplex(NodeId::new(1), NodeId::new(2), link(10))
            .unwrap();
        t.upsert_duplex(NodeId::new(2), NodeId::new(3), link(15))
            .unwrap();
        let path = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        assert_eq!(t.path_rtt(&path), Some(SimDuration::from_millis(25)));
        let broken = [NodeId::new(1), NodeId::new(3)];
        assert_eq!(t.path_rtt(&broken), None);
    }

    #[test]
    fn routable_excludes_last_resort() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        let mut lr = node(2, 0);
        lr.last_resort = true;
        t.upsert_node(lr);
        assert_eq!(t.routable_node_ids().count(), 1);
        assert_eq!(t.last_resort_ids().count(), 1);
    }

    #[test]
    fn down_node_leaves_routable_set_and_neighbor_lists() {
        let mut t = Topology::new();
        for i in 1..=3 {
            t.upsert_node(node(i, 0));
        }
        t.upsert_duplex(NodeId::new(1), NodeId::new(2), link(10))
            .unwrap();
        t.upsert_duplex(NodeId::new(2), NodeId::new(3), link(10))
            .unwrap();
        assert!(t.node_is_up(NodeId::new(2)));
        t.set_node_up(NodeId::new(2), false);
        assert!(!t.node_is_up(NodeId::new(2)));
        assert_eq!(t.routable_node_ids().count(), 2);
        assert_eq!(t.neighbors(NodeId::new(1)).count(), 0);
        assert_eq!(t.neighbors(NodeId::new(2)).count(), 0);
        assert!(!t.link_is_up(NodeId::new(1), NodeId::new(2)));
        // Metrics survive the outage.
        assert!(t.link(NodeId::new(1), NodeId::new(2)).is_some());
        t.set_node_up(NodeId::new(2), true);
        assert_eq!(t.routable_node_ids().count(), 3);
        assert_eq!(t.neighbors(NodeId::new(1)).count(), 1);
    }

    #[test]
    fn down_link_is_directional_and_duplex_helper_covers_both() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        t.upsert_node(node(2, 0));
        t.upsert_duplex(NodeId::new(1), NodeId::new(2), link(10))
            .unwrap();
        t.set_link_up(NodeId::new(1), NodeId::new(2), false);
        assert!(!t.link_is_up(NodeId::new(1), NodeId::new(2)));
        assert!(t.link_is_up(NodeId::new(2), NodeId::new(1)));
        assert_eq!(t.neighbors(NodeId::new(1)).count(), 0);
        assert_eq!(t.neighbors(NodeId::new(2)).count(), 1);
        t.set_duplex_up(NodeId::new(1), NodeId::new(2), false);
        assert!(!t.link_is_up(NodeId::new(2), NodeId::new(1)));
        t.set_duplex_up(NodeId::new(1), NodeId::new(2), true);
        assert!(t.link_is_up(NodeId::new(1), NodeId::new(2)));
        assert!(t.link_is_up(NodeId::new(2), NodeId::new(1)));
    }

    #[test]
    fn nodes_in_country_selects_region() {
        let mut t = Topology::new();
        t.upsert_node(node(1, 0));
        t.upsert_node(node(2, 7));
        t.upsert_node(node(3, 7));
        let region: Vec<u64> = t.nodes_in_country(7).map(NodeId::raw).collect();
        assert_eq!(region, vec![2, 3]);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut t = Topology::new();
        for i in [5, 3, 9, 1] {
            t.upsert_node(node(i, 0));
        }
        let ids: Vec<u64> = t.node_ids().map(NodeId::raw).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }
}
