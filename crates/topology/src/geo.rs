//! Geo-topology generator.
//!
//! Generates an overlay that mirrors the paper's deployment shape: nodes
//! spread over many countries, with short intra-national RTTs and long
//! inter-national RTTs, a handful of well-peered last-resort relays, and a
//! full-mesh overlay (any node pair *may* form an overlay link — the flat
//! CDN's defining property).
//!
//! Countries are placed on a 2-D plane; link RTT is a base propagation term
//! proportional to distance plus noise. The generator is deterministic in
//! the seed.

use crate::graph::{LinkMetrics, NodeInfo, Topology};
use livenet_types::{Bandwidth, DetRng, NodeId, SimDuration};

/// Egress capacity per node.
const NODE_CAPACITY: Bandwidth = Bandwidth::from_gbps(40);
/// Capacity per overlay link.
const LINK_CAPACITY: Bandwidth = Bandwidth::from_gbps(10);
/// Mean one-way intra-national propagation delay.
const INTRA_DELAY_MS: f64 = 9.0;
/// Propagation delay per unit of inter-country distance (ms).
const INTER_DELAY_PER_UNIT_MS: f64 = 40.0;
/// Baseline packet loss applied to all links.
pub const BASE_LOSS: f64 = 0.0005;
/// Fraction of (non-last-resort) nodes sitting in well-peered networks
/// (backbone PoPs / IXP-adjacent clusters).
const WELL_PEERED_FRACTION: f64 = 0.30;
/// RTT multiplier for links between two poorly-peered edge nodes
/// (inefficient public-internet detours). This is what makes 2-hop
/// relay paths through well-peered hubs beat direct edge-to-edge links,
/// giving the paper's Table-2 path-length distribution.
const POOR_PEERING_PENALTY: f64 = 2.2;
/// RTT multiplier for hub↔hub long-haul links (private backbone).
const BACKBONE_BONUS: f64 = 0.95;

const _: () = assert!(0.0 < WELL_PEERED_FRACTION && WELL_PEERED_FRACTION < 1.0);

/// Parameters for the generator: the footprint and the seed. The link and
/// peering model is the constants above.
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// Number of countries.
    pub countries: u32,
    /// Number of CDN nodes (excluding last-resort relays).
    pub nodes: u32,
    /// Number of reserved last-resort relay nodes.
    pub last_resort_nodes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeoConfig {
    fn default() -> Self {
        GeoConfig {
            countries: 12,
            nodes: 60,
            last_resort_nodes: 3,
            seed: 1,
        }
    }
}

impl GeoConfig {
    /// A small config for unit tests (fast KSP).
    pub fn tiny(seed: u64) -> Self {
        GeoConfig {
            countries: 3,
            nodes: 9,
            last_resort_nodes: 1,
            seed,
        }
    }

    /// A config shaped like the paper's deployment, scaled down ~10×:
    /// 60 nodes across 12 countries (paper: 600+ nodes, 70+ countries).
    pub fn paper_scale(seed: u64) -> Self {
        GeoConfig {
            seed,
            ..Default::default()
        }
    }
}

/// The generated topology plus the geography behind it.
#[derive(Debug, Clone)]
pub struct GeoTopology {
    /// The overlay graph (full mesh over all nodes incl. last-resort).
    pub topology: Topology,
    /// Country positions on the plane (one per country).
    pub country_pos: Vec<(f64, f64)>,
    /// Country of each node, indexed by position in `node_ids`.
    pub node_ids: Vec<NodeId>,
}

impl GeoTopology {
    /// Generate from a config.
    pub fn generate(config: &GeoConfig) -> GeoTopology {
        let mut rng = DetRng::seed(config.seed).fork("geo");
        let mut topology = Topology::new();

        // Scatter countries on a unit-ish plane; distances drive inter RTTs.
        let country_pos: Vec<(f64, f64)> = (0..config.countries)
            .map(|_| (rng.range_f64(0.0, 4.0), rng.range_f64(0.0, 4.0)))
            .collect();

        // Nodes round-robin over countries so every country gets coverage,
        // like a real CDN footprint; extra nodes land in populous (early)
        // countries.
        let mut node_ids = Vec::new();
        let total = config.nodes + config.last_resort_nodes;
        for i in 0..total {
            let id = NodeId::new(u64::from(i) + 1);
            let last_resort = i >= config.nodes;
            let country = if last_resort {
                // Last-resort nodes sit in the most-connected (first)
                // countries, modeling IXP placement.
                i % config.countries.min(3)
            } else {
                i % config.countries
            };
            // Every country's first node is a backbone PoP (a real CDN
            // footprint always includes one well-peered cluster per
            // region); additional hubs appear at the configured rate.
            let well_peered =
                last_resort || i < config.countries || rng.chance(WELL_PEERED_FRACTION);
            topology.upsert_node(NodeInfo {
                id,
                country,
                capacity: NODE_CAPACITY,
                utilization: 0.0,
                last_resort,
                well_peered,
            });
            node_ids.push(id);
        }

        // Full mesh of overlay links. RTT = 2 * one-way; one-way =
        // intra base + distance * per-unit + lognormal-ish noise.
        let ids = node_ids.clone();
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1) {
                let ca = topology.node(a).expect("node exists").country as usize;
                let cb = topology.node(b).expect("node exists").country as usize;
                let peered_a = topology.node(a).expect("a").well_peered;
                let peered_b = topology.node(b).expect("b").well_peered;
                // Peering-class multiplier: hub↔hub long-hauls ride the
                // private backbone; edge↔hub rides decent transit;
                // edge↔edge rides whatever BGP gives it.
                let class_factor = if peered_a && peered_b {
                    BACKBONE_BONUS * rng.range_f64(0.95, 1.05)
                } else if peered_a || peered_b {
                    rng.range_f64(0.95, 1.15)
                } else {
                    POOR_PEERING_PENALTY * rng.range_f64(0.85, 1.15)
                };
                let one_way_ms = if ca == cb {
                    // Intra-national: short, varied by metro distance. The
                    // peering class matters here too, but more mildly: the
                    // hubs sit on the national backbone.
                    let f = if peered_a && peered_b {
                        0.85
                    } else if peered_a || peered_b {
                        1.0
                    } else {
                        // Domestic edge↔edge public-internet paths carry
                        // the full peering penalty and then some: they
                        // hairpin through congested metro exchanges.
                        POOR_PEERING_PENALTY * 1.45
                    };
                    (INTRA_DELAY_MS * rng.range_f64(0.6, 1.55) * f).max(1.0)
                } else {
                    let (xa, ya) = country_pos[ca];
                    let (xb, yb) = country_pos[cb];
                    let dist = ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt();
                    let base = INTRA_DELAY_MS
                        + dist * INTER_DELAY_PER_UNIT_MS * rng.range_f64(0.9, 1.1);
                    (base * class_factor).max(5.0)
                };
                let metrics = LinkMetrics {
                    rtt: SimDuration::from_millis_f64(2.0 * one_way_ms),
                    loss: BASE_LOSS * rng.range_f64(0.2, 2.0),
                    utilization: 0.0,
                    capacity: LINK_CAPACITY,
                };
                topology
                    .upsert_duplex(a, b, metrics)
                    .expect("endpoints exist");
            }
        }

        GeoTopology {
            topology,
            country_pos,
            node_ids,
        }
    }

    /// Nodes in a given country.
    pub fn nodes_in_country(&self, country: u32) -> Vec<NodeId> {
        self.topology
            .nodes()
            .filter(|n| n.country == country && !n.last_resort)
            .map(|n| n.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_counts() {
        let g = GeoTopology::generate(&GeoConfig::tiny(1));
        assert_eq!(g.topology.node_count(), 10);
        assert_eq!(g.topology.last_resort_ids().count(), 1);
        // Full mesh: n*(n-1) directed links.
        assert_eq!(g.topology.link_count(), 10 * 9);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = GeoTopology::generate(&GeoConfig::tiny(7));
        let b = GeoTopology::generate(&GeoConfig::tiny(7));
        for (f, t, m) in a.topology.links() {
            assert_eq!(b.topology.link(f, t).unwrap(), m);
        }
        let c = GeoTopology::generate(&GeoConfig::tiny(8));
        let differs = a
            .topology
            .links()
            .any(|(f, t, m)| c.topology.link(f, t).unwrap().rtt != m.rtt);
        assert!(differs);
    }

    #[test]
    fn intra_national_links_are_shorter_on_average() {
        let g = GeoTopology::generate(&GeoConfig::paper_scale(3));
        let mut intra = (0.0, 0u32);
        let mut inter = (0.0, 0u32);
        for (f, t, m) in g.topology.links() {
            let international = g.topology.is_international(f, t).unwrap();
            let ms = m.rtt.as_millis_f64();
            if international {
                inter = (inter.0 + ms, inter.1 + 1);
            } else {
                intra = (intra.0 + ms, intra.1 + 1);
            }
        }
        let intra_mean = intra.0 / f64::from(intra.1);
        let inter_mean = inter.0 / f64::from(inter.1);
        assert!(
            inter_mean > intra_mean * 2.0,
            "intra={intra_mean:.1}ms inter={inter_mean:.1}ms"
        );
    }

    #[test]
    fn every_country_has_nodes() {
        let cfg = GeoConfig::paper_scale(2);
        let g = GeoTopology::generate(&cfg);
        for c in 0..cfg.countries {
            assert!(!g.nodes_in_country(c).is_empty(), "country {c} empty");
        }
    }

    #[test]
    fn base_loss_is_small_backbone_like() {
        let cfg = GeoConfig::paper_scale(4);
        let g = GeoTopology::generate(&cfg);
        // Paper: backbone loss < 0.175% even at peak.
        for (_, _, m) in g.topology.links() {
            assert!(m.loss < 0.00175, "loss={}", m.loss);
        }
    }
}
