//! The Hier controller: VDN-like centralized L1→L2 mapping (paper §2.2).
//!
//! "We implemented a centralized control to coordinately map L1 nodes to L2
//! nodes for individual streams. The control ... has a global view of the
//! CDN overlay state and computes the map to optimize the predefined
//! utility. By doing so, we avoid path congestion due to static mapping."
//!
//! The utility here is the natural one: pick, per (L1, stream), the L2
//! whose combination of link RTT and current load is cheapest, and pin the
//! full 4-hop path L1 → L2 → center → L2' → L1'.

use crate::roles::HierRoles;
use livenet_topology::Topology;
use livenet_types::{Error, IdMap, NodeId, Result, StreamId};

/// A pinned hierarchical path (always 4 hops / 5 nodes, unless degenerate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierPath {
    /// L1 ingest (broadcaster side), up-L2, center, down-L2, L1 egress.
    pub nodes: Vec<NodeId>,
}

impl HierPath {
    /// Number of overlay hops.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

/// Per-L2 load counter used by the mapping utility.
#[derive(Debug, Default, Clone)]
struct L2Load {
    streams: u32,
}

/// Where an active stream enters the tree, pinned for its life.
#[derive(Debug, Clone, Copy)]
struct Pinned {
    /// The producer L1.
    producer: NodeId,
    /// The uplink L2.
    uplink: NodeId,
    /// The center.
    center: NodeId,
}

/// The centralized Hier controller.
#[derive(Debug)]
pub struct HierController {
    roles: HierRoles,
    /// Producer, uplink L2 and center of each active stream: one entry,
    /// so a registered stream always has all three.
    streams: IdMap<StreamId, Pinned>,
    /// Load counters per L2.
    l2_load: IdMap<NodeId, L2Load>,
}

impl HierController {
    /// New controller over a role assignment.
    pub fn new(roles: HierRoles) -> Self {
        HierController {
            roles,
            streams: IdMap::default(),
            l2_load: IdMap::default(),
        }
    }

    /// Role map access.
    pub fn roles(&self) -> &HierRoles {
        &self.roles
    }

    /// Register a new stream uploading at L1 `producer`; picks and pins the
    /// uplink L2 and center.
    pub fn register_stream(
        &mut self,
        topology: &Topology,
        stream: StreamId,
        producer: NodeId,
    ) -> Result<()> {
        let l2 = self
            .best_l2(topology, producer)
            .ok_or_else(|| Error::exhausted("no L2 reachable from producer"))?;
        let center = self
            .best_center(topology, l2)
            .ok_or_else(|| Error::exhausted("no center reachable"))?;
        let pinned = Pinned {
            producer,
            uplink: l2,
            center,
        };
        self.streams.insert(stream, pinned);
        self.l2_load.entry(l2).or_default().streams += 1;
        Ok(())
    }

    /// Remove a finished stream.
    pub fn unregister_stream(&mut self, stream: StreamId) {
        if let Some(pinned) = self.streams.remove(&stream) {
            if let Some(load) = self.l2_load.get_mut(&pinned.uplink) {
                load.streams = load.streams.saturating_sub(1);
            }
        }
    }

    /// Producer of a stream.
    pub fn producer_of(&self, stream: StreamId) -> Option<NodeId> {
        self.streams.get(&stream).map(|p| p.producer)
    }

    /// Compute the 4-hop path for a viewer attached to L1 `consumer`.
    ///
    /// When producer == consumer the content still climbs to the center and
    /// back (the rigidity the paper criticizes): L1 → L2 → C → L2 → L1.
    pub fn path_for(
        &mut self,
        topology: &Topology,
        stream: StreamId,
        consumer: NodeId,
    ) -> Result<HierPath> {
        let Pinned {
            producer,
            uplink,
            center,
        } = *self
            .streams
            .get(&stream)
            .ok_or_else(|| Error::not_found(format!("stream {stream}")))?;
        let down_l2 = self
            .best_l2(topology, consumer)
            .ok_or_else(|| Error::exhausted("no L2 reachable from consumer"))?;
        self.l2_load.entry(down_l2).or_default().streams += 1;
        Ok(HierPath {
            nodes: vec![producer, uplink, center, down_l2, consumer],
        })
    }

    /// The VDN-like utility: minimize RTT × (1 + load-pressure).
    fn best_l2(&self, topology: &Topology, l1: NodeId) -> Option<NodeId> {
        self.roles
            .l2_nodes()
            .iter()
            .filter_map(|&l2| {
                let rtt = topology.link(l1, l2)?.rtt.as_millis_f64();
                let load = self
                    .l2_load
                    .get(&l2)
                    .map(|l| f64::from(l.streams))
                    .unwrap_or(0.0);
                // Each pinned stream adds pressure; 50 streams double cost.
                Some((l2, rtt * (1.0 + load / 50.0)))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(l2, _)| l2)
    }

    fn best_center(&self, topology: &Topology, l2: NodeId) -> Option<NodeId> {
        self.roles
            .centers()
            .iter()
            .filter_map(|&c| {
                let rtt = topology.link(l2, c)?.rtt.as_millis_f64();
                Some((c, rtt))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{HierRoles, Layer};
    use livenet_topology::{GeoConfig, GeoTopology};

    fn setup(seed: u64) -> (Topology, HierController, Vec<NodeId>) {
        let g = GeoTopology::generate(&GeoConfig::paper_scale(seed));
        let roles = HierRoles::assign(&g.topology, 2);
        let l1: Vec<NodeId> = g
            .topology
            .node_ids()
            .filter(|&n| roles.layer(n) == Some(Layer::L1))
            .collect();
        (g.topology, HierController::new(roles), l1)
    }

    /// Streams pinned through `l2`.
    fn streams_on(ctl: &HierController, l2: NodeId) -> u32 {
        ctl.l2_load.get(&l2).map(|l| l.streams).unwrap_or(0)
    }

    #[test]
    fn path_is_always_four_hops() {
        let (topo, mut ctl, l1) = setup(1);
        let s = StreamId::new(1);
        ctl.register_stream(&topo, s, l1[0]).unwrap();
        let p = ctl.path_for(&topo, s, l1[5]).unwrap();
        assert_eq!(p.hops(), 4);
        assert_eq!(p.nodes[0], l1[0]);
        assert_eq!(p.nodes[4], l1[5]);
        // Middle node is a center.
        assert!(ctl.roles().centers().contains(&p.nodes[2]));
        assert!(ctl.roles().l2_nodes().contains(&p.nodes[1]));
        assert!(ctl.roles().l2_nodes().contains(&p.nodes[3]));
    }

    #[test]
    fn same_node_viewer_still_climbs_the_tree() {
        let (topo, mut ctl, l1) = setup(2);
        let s = StreamId::new(1);
        ctl.register_stream(&topo, s, l1[0]).unwrap();
        let p = ctl.path_for(&topo, s, l1[0]).unwrap();
        assert_eq!(p.hops(), 4, "Hier has no zero-hop shortcut");
    }

    #[test]
    fn unknown_stream_errors() {
        let (topo, mut ctl, l1) = setup(3);
        assert!(ctl.path_for(&topo, StreamId::new(9), l1[0]).is_err());
    }

    #[test]
    fn load_spreads_across_l2s() {
        let (topo, mut ctl, l1) = setup(4);
        // Pin many streams from the same producer; the load-aware utility
        // must not put them all on one L2.
        for i in 0..200 {
            ctl.register_stream(&topo, StreamId::new(i), l1[0]).unwrap();
        }
        let loads: Vec<u32> = ctl
            .roles()
            .l2_nodes()
            .to_vec()
            .iter()
            .map(|&l2| streams_on(&ctl, l2))
            .collect();
        let used = loads.iter().filter(|&&l| l > 0).count();
        assert!(used >= 2, "all streams pinned to one L2: {loads:?}");
    }

    #[test]
    fn unregister_releases_load() {
        let (topo, mut ctl, l1) = setup(5);
        let s = StreamId::new(1);
        ctl.register_stream(&topo, s, l1[0]).unwrap();
        let l2 = ctl.streams[&s].uplink;
        assert_eq!(streams_on(&ctl, l2), 1);
        ctl.unregister_stream(s);
        assert_eq!(streams_on(&ctl, l2), 0);
        assert!(ctl.producer_of(s).is_none());
    }
}
