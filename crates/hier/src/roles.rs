//! Static role assignment for the hierarchical CDN.
//!
//! Unlike LiveNet's flat design, Hier pins every node to a fixed layer:
//! well-peered hub nodes become L2 aggregation nodes, everything else is an
//! L1 edge, and the streaming center lives in a small set of data-center
//! locations (we pick the best-connected hubs). This is the rigidity the
//! paper's §2.3 complains about: "many of our edge (leaf) nodes remain
//! underutilized, while our root nodes are heavily overloaded".

use livenet_topology::Topology;
use livenet_types::NodeId;
use std::collections::BTreeMap;

/// A node's fixed layer in Hier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Edge node serving broadcasters and viewers.
    L1,
    /// Aggregation node with more bandwidth/storage.
    L2,
    /// The streaming center (media processing + management).
    Center,
}

/// The static layer map.
#[derive(Debug, Clone)]
pub struct HierRoles {
    layers: BTreeMap<NodeId, Layer>,
    l2_nodes: Vec<NodeId>,
    centers: Vec<NodeId>,
}

impl HierRoles {
    /// Assign layers from the shared topology: well-peered nodes → L2,
    /// `num_centers` of them (the best-connected, i.e. lowest mean RTT to
    /// other hubs) → streaming-center replicas, the rest → L1.
    pub fn assign(topology: &Topology, num_centers: usize) -> HierRoles {
        let hubs: Vec<NodeId> = topology
            .nodes()
            .filter(|n| n.well_peered && !n.last_resort)
            .map(|n| n.id)
            .collect();
        // Rank hubs by mean RTT to the other hubs (center candidates).
        let mut ranked: Vec<(NodeId, f64)> = hubs
            .iter()
            .map(|&h| {
                let mut total = 0.0;
                let mut count = 0u32;
                for &other in &hubs {
                    if other != h {
                        if let Some(l) = topology.link(h, other) {
                            total += l.rtt.as_millis_f64();
                            count += 1;
                        }
                    }
                }
                (
                    h,
                    if count == 0 {
                        f64::MAX
                    } else {
                        total / f64::from(count)
                    },
                )
            })
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let centers: Vec<NodeId> = ranked
            .iter()
            .take(num_centers.max(1))
            .map(|(n, _)| *n)
            .collect();

        let mut layers = BTreeMap::new();
        let mut l2_nodes = Vec::new();
        for info in topology.nodes() {
            if info.last_resort {
                continue; // not part of Hier
            }
            let layer = if centers.contains(&info.id) {
                Layer::Center
            } else if info.well_peered {
                l2_nodes.push(info.id);
                Layer::L2
            } else {
                Layer::L1
            };
            layers.insert(info.id, layer);
        }
        HierRoles {
            layers,
            l2_nodes,
            centers,
        }
    }

    /// Layer of a node (None for nodes outside Hier, e.g. last-resort).
    pub fn layer(&self, node: NodeId) -> Option<Layer> {
        self.layers.get(&node).copied()
    }

    /// All L2 aggregation nodes.
    pub fn l2_nodes(&self) -> &[NodeId] {
        &self.l2_nodes
    }

    /// Streaming-center replicas.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::{GeoConfig, GeoTopology};

    #[test]
    fn assign_produces_all_three_layers() {
        let g = GeoTopology::generate(&GeoConfig::paper_scale(1));
        let roles = HierRoles::assign(&g.topology, 2);
        assert_eq!(roles.centers().len(), 2);
        assert!(!roles.l2_nodes().is_empty());
        let l1 = roles.layers.values().filter(|&&l| l == Layer::L1).count();
        assert!(l1 > roles.l2_nodes().len());
    }

    #[test]
    fn centers_are_hubs_and_not_l2() {
        let g = GeoTopology::generate(&GeoConfig::paper_scale(2));
        let roles = HierRoles::assign(&g.topology, 2);
        for &c in roles.centers() {
            assert_eq!(roles.layer(c), Some(Layer::Center));
            assert!(g.topology.node(c).unwrap().well_peered);
            assert!(!roles.l2_nodes().contains(&c));
        }
    }

    #[test]
    fn last_resort_nodes_excluded() {
        let g = GeoTopology::generate(&GeoConfig::paper_scale(3));
        let roles = HierRoles::assign(&g.topology, 1);
        for lr in g.topology.last_resort_ids() {
            assert_eq!(roles.layer(lr), None);
        }
    }

    #[test]
    fn deterministic_assignment() {
        let g = GeoTopology::generate(&GeoConfig::paper_scale(4));
        let a = HierRoles::assign(&g.topology, 2);
        let b = HierRoles::assign(&g.topology, 2);
        assert_eq!(a.centers(), b.centers());
        assert_eq!(a.l2_nodes(), b.l2_nodes());
    }
}
