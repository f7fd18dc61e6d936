//! Property-based tests for the geo-topology generator and the row store.

use livenet_topology::{GeoConfig, GeoTopology, LinkMetrics, NodeInfo, Topology};
use livenet_types::{Bandwidth, DetRng, NodeId, SimDuration};
use proptest::prelude::*;

/// The oracle: the map-of-maps body `Topology` shipped before the row
/// store, bodies unchanged. The row store must answer every read the same
/// way, in value and in order, after any sequence of writes.
mod oracle {
    use livenet_topology::{LinkMetrics, NodeInfo};
    use livenet_types::{Error, NodeId, Result, SimDuration};
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Default)]
    pub struct MapTopology {
        pub nodes: BTreeMap<NodeId, NodeInfo>,
        pub links: BTreeMap<NodeId, BTreeMap<NodeId, LinkMetrics>>,
        pub down_nodes: BTreeSet<NodeId>,
        pub down_links: BTreeSet<(NodeId, NodeId)>,
    }

    impl MapTopology {
        pub fn upsert_node(&mut self, info: NodeInfo) {
            self.nodes.insert(info.id, info);
        }

        pub fn upsert_link(&mut self, from: NodeId, to: NodeId, metrics: LinkMetrics) -> Result<()> {
            if !self.nodes.contains_key(&from) {
                return Err(Error::not_found(format!("node {from}")));
            }
            if !self.nodes.contains_key(&to) {
                return Err(Error::not_found(format!("node {to}")));
            }
            if from == to {
                return Err(Error::constraint("self-loop link"));
            }
            self.links.entry(from).or_default().insert(to, metrics);
            Ok(())
        }

        pub fn upsert_duplex(&mut self, a: NodeId, b: NodeId, metrics: LinkMetrics) -> Result<()> {
            self.upsert_link(a, b, metrics)?;
            self.upsert_link(b, a, metrics)
        }

        pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
            self.nodes.get(&id)
        }

        pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeInfo> {
            self.nodes.get_mut(&id)
        }

        pub fn link(&self, from: NodeId, to: NodeId) -> Option<&LinkMetrics> {
            self.links.get(&from)?.get(&to)
        }

        pub fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkMetrics> {
            self.links.get_mut(&from)?.get_mut(&to)
        }

        pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> {
            self.nodes.values()
        }

        pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.nodes.keys().copied()
        }

        pub fn routable_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.nodes
                .values()
                .filter(|n| !n.last_resort && !self.down_nodes.contains(&n.id))
                .map(|n| n.id)
        }

        pub fn last_resort_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.nodes.values().filter(|n| n.last_resort).map(|n| n.id)
        }

        pub fn set_node_up(&mut self, id: NodeId, up: bool) {
            if !self.nodes.contains_key(&id) {
                return;
            }
            if up {
                self.down_nodes.remove(&id);
            } else {
                self.down_nodes.insert(id);
            }
        }

        pub fn node_is_up(&self, id: NodeId) -> bool {
            self.nodes.contains_key(&id) && !self.down_nodes.contains(&id)
        }

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

        pub fn set_duplex_up(&mut self, a: NodeId, b: NodeId, up: bool) {
            self.set_link_up(a, b, up);
            self.set_link_up(b, a, up);
        }

        pub fn link_is_up(&self, from: NodeId, to: NodeId) -> bool {
            self.link(from, to).is_some()
                && !self.down_links.contains(&(from, to))
                && self.node_is_up(from)
                && self.node_is_up(to)
        }

        pub fn down_link_ids(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
            self.down_links.iter().copied()
        }

        pub fn nodes_in_country(&self, country: u32) -> impl Iterator<Item = NodeId> + '_ {
            self.nodes
                .values()
                .filter(move |n| n.country == country)
                .map(|n| n.id)
        }

        pub fn neighbors(&self, from: NodeId) -> impl Iterator<Item = (NodeId, &LinkMetrics)> {
            self.links
                .get(&from)
                .into_iter()
                .flat_map(|m| m.iter().map(|(k, v)| (*k, v)))
                .filter(move |(to, _)| {
                    !self.down_links.contains(&(from, *to))
                        && !self.down_nodes.contains(&from)
                        && !self.down_nodes.contains(to)
                })
        }

        pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, &LinkMetrics)> {
            self.links
                .iter()
                .flat_map(|(f, m)| m.iter().map(move |(t, v)| (*f, *t, v)))
        }

        pub fn links_mut(&mut self) -> impl Iterator<Item = (NodeId, NodeId, &mut LinkMetrics)> {
            self.links.iter_mut().flat_map(|(f, m)| {
                let from = *f;
                m.iter_mut().map(move |(t, v)| (from, *t, v))
            })
        }

        pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut NodeInfo> {
            self.nodes.values_mut()
        }

        pub fn node_count(&self) -> usize {
            self.nodes.len()
        }

        pub fn link_count(&self) -> usize {
            self.links.values().map(BTreeMap::len).sum()
        }

        pub fn is_international(&self, a: NodeId, b: NodeId) -> Option<bool> {
            Some(self.node(a)?.country != self.node(b)?.country)
        }

        pub fn path_rtt(&self, path: &[NodeId]) -> Option<SimDuration> {
            let mut total = SimDuration::ZERO;
            for w in path.windows(2) {
                total += self.link(w[0], w[1])?.rtt;
            }
            Some(total)
        }
    }
}

/// Ids the write sequences draw from: few enough that most writes hit an
/// existing node or link, with the top of the range usually absent.
const IDS: u64 = 12;

/// Which twelve ids: `first + gap · slot`. The row store guesses a node's
/// position as `id − first id` before it searches; only `(0, 1)` and
/// `(5, 1)` can make that guess right, and only once every lower slot is
/// filled.
#[derive(Clone, Copy)]
struct IdSet {
    first: u64,
    gap: u64,
}

const ID_SETS: [IdSet; 5] = [
    IdSet { first: 0, gap: 1 },
    IdSet { first: 5, gap: 1 },
    IdSet { first: 7, gap: 3 },
    IdSet { first: u64::MAX - IDS + 1, gap: 1 },
    IdSet { first: u64::MAX - 3 * IDS, gap: 3 },
];

impl IdSet {
    fn id(self, slot: u64) -> NodeId {
        NodeId::new(self.first + self.gap * slot)
    }

    fn draw(self, rng: &mut DetRng) -> NodeId {
        self.id(rng.range_u64(0, IDS))
    }

    /// Every id a write can have used, then ids no write uses: below the
    /// first id (where `id − first id` wraps), inside a gap, and both ends
    /// of the id range.
    fn probes(self) -> impl Iterator<Item = NodeId> {
        let absent = [self.first.wrapping_sub(1), 0, 1, u64::MAX];
        let absent = absent.into_iter().chain((self.gap > 1).then_some(self.first + 1));
        let unused = move |id: &u64| (0..IDS).all(|slot| self.id(slot).raw() != *id);
        (0..IDS).map(move |slot| self.id(slot)).chain(absent.filter(unused).map(NodeId::new))
    }
}

/// Every read of the public API, row store against oracle, order included.
fn assert_same_reads(t: &Topology, o: &oracle::MapTopology, set: IdSet, rng: &mut DetRng) {
    let ids = || set.probes();
    assert_eq!(t.node_count(), o.node_count());
    assert_eq!(t.link_count(), o.link_count());
    assert!(t.nodes().eq(o.nodes()));
    assert!(t.node_ids().eq(o.node_ids()));
    assert!(t.routable_node_ids().eq(o.routable_node_ids()));
    assert!(t.last_resort_ids().eq(o.last_resort_ids()));
    assert!(t.down_link_ids().eq(o.down_link_ids()));
    assert!(t.links().eq(o.links()));
    for country in 0..3 {
        assert!(t.nodes_in_country(country).eq(o.nodes_in_country(country)));
    }
    for a in ids() {
        assert_eq!(t.node(a), o.node(a));
        assert_eq!(t.node_is_up(a), o.node_is_up(a));
        assert!(t.neighbors(a).eq(o.neighbors(a)), "neighbors of {a}");
        let (far_ends, links) = t.row(a);
        let row = o.links.get(&a).into_iter().flatten();
        assert!(far_ends.iter().zip(links).eq(row), "row of {a}");
        assert_eq!(far_ends.len(), links.len());
        for b in ids() {
            assert_eq!(t.link(a, b), o.link(a, b));
            assert_eq!(t.link_is_up(a, b), o.link_is_up(a, b));
            assert_eq!(t.is_international(a, b), o.is_international(a, b));
        }
    }
    for _ in 0..8 {
        let path: Vec<NodeId> = (0..rng.range_u64(0, 5)).map(|_| set.draw(rng)).collect();
        assert_eq!(t.path_rtt(&path), o.path_rtt(&path));
    }
}

/// Apply `steps` random writes to both stores, comparing every read after
/// each one.
fn check_row_store_against_oracle(seed: u64, steps: u32, set: IdSet) {
    let rng = &mut DetRng::seed(seed);
    let (mut t, mut o) = (Topology::new(), oracle::MapTopology::default());
    let id = |rng: &mut DetRng| set.draw(rng);
    let metrics = |rng: &mut DetRng| LinkMetrics {
        rtt: SimDuration::from_millis(rng.range_u64(1, 300)),
        loss: rng.f64() * 0.01,
        utilization: rng.f64(),
        capacity: Bandwidth::from_gbps(rng.range_u64(1, 10)),
    };
    for _ in 0..steps {
        match rng.range_u64(0, 12) {
            // Ids arrive out of order and land in the middle of the node
            // list; a repeated id replaces the info only.
            0 | 1 => {
                let info = NodeInfo {
                    id: id(rng),
                    country: rng.range_u64(0, 3) as u32,
                    capacity: Bandwidth::from_gbps(10),
                    utilization: rng.f64(),
                    last_resort: rng.chance(0.2),
                    well_peered: rng.chance(0.3),
                };
                t.upsert_node(info.clone());
                o.upsert_node(info);
            }
            2 | 3 => {
                let (a, b, m) = (id(rng), id(rng), metrics(rng));
                assert_eq!(
                    t.upsert_link(a, b, m).map_err(|e| e.to_string()),
                    o.upsert_link(a, b, m).map_err(|e| e.to_string())
                );
            }
            4 | 5 => {
                let (a, b, m) = (id(rng), id(rng), metrics(rng));
                assert_eq!(
                    t.upsert_duplex(a, b, m).map_err(|e| e.to_string()),
                    o.upsert_duplex(a, b, m).map_err(|e| e.to_string())
                );
            }
            6 => {
                let (a, up) = (id(rng), rng.chance(0.5));
                t.set_node_up(a, up);
                o.set_node_up(a, up);
            }
            7 => {
                let (a, b, up) = (id(rng), id(rng), rng.chance(0.5));
                if rng.chance(0.5) {
                    t.set_link_up(a, b, up);
                    o.set_link_up(a, b, up);
                } else {
                    t.set_duplex_up(a, b, up);
                    o.set_duplex_up(a, b, up);
                }
            }
            8 => {
                let (a, b, m) = (id(rng), id(rng), metrics(rng));
                assert_eq!(
                    t.link_mut(a, b).map(|l| *l = m),
                    o.link_mut(a, b).map(|l| *l = m)
                );
            }
            9 => {
                let (a, u) = (id(rng), rng.f64());
                assert_eq!(
                    t.node_mut(a).map(|n| n.utilization = u),
                    o.node_mut(a).map(|n| n.utilization = u)
                );
            }
            // One node's row, written by position.
            10 => {
                let (a, loss) = (id(rng), rng.f64());
                let (far_ends, links) = t.row_mut(a);
                for (to, l) in far_ends.iter().zip(links) {
                    l.loss = loss * to.raw() as f64;
                }
                for (to, l) in o.links.get_mut(&a).into_iter().flatten() {
                    l.loss = loss * to.raw() as f64;
                }
            }
            // The two bulk walks, whose order is the contract.
            _ => {
                let u = rng.f64();
                let walk = |(f, to, l): (NodeId, NodeId, &mut LinkMetrics)| {
                    l.utilization = u / (1 + f.raw() % 13 + to.raw() % 7) as f64;
                    (f, to)
                };
                assert!(t.links_mut().map(walk).eq(o.links_mut().map(walk)));
                let walk = |n: &mut NodeInfo| {
                    n.utilization = u / (1 + n.id.raw() % 13) as f64;
                    n.id
                };
                assert!(t.nodes_mut().map(walk).eq(o.nodes_mut().map(walk)));
            }
        }
        assert_same_reads(&t, &o, set, rng);
    }
}

fn arb_config() -> impl Strategy<Value = GeoConfig> {
    (2u32..8, 6u32..30, 0u32..4, any::<u64>()).prop_map(
        |(countries, nodes, last_resort, seed)| GeoConfig {
            countries,
            nodes: nodes.max(countries), // every country needs a node
            last_resort_nodes: last_resort,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The row store reads like the map-of-maps it replaced, in value and
    /// in order, after any sequence of writes, whatever the ids: dense from
    /// zero, dense from elsewhere, with gaps, and up against `u64::MAX`.
    #[test]
    fn row_store_equals_map_oracle(seed in any::<u64>(), steps in 1u32..120, set in 0usize..5) {
        check_row_store_against_oracle(seed, steps, ID_SETS[set]);
    }

    /// The generator always produces a full mesh with positive RTTs,
    /// symmetric link existence, and loss under the paper's cap.
    #[test]
    fn generated_topology_wellformed(cfg in arb_config()) {
        let g = GeoTopology::generate(&cfg);
        let t = &g.topology;
        let n = (cfg.nodes + cfg.last_resort_nodes) as usize;
        prop_assert_eq!(t.node_count(), n);
        prop_assert_eq!(t.link_count(), n * (n - 1));
        for (a, b, m) in t.links() {
            prop_assert!(m.rtt.as_nanos() > 0);
            prop_assert!(m.loss >= 0.0 && m.loss < 0.0045);
            prop_assert!(t.link(b, a).is_some(), "asymmetric mesh");
        }
        prop_assert_eq!(t.last_resort_ids().count(), cfg.last_resort_nodes as usize);
    }

    /// Every country hosts at least one node and one well-peered hub.
    #[test]
    fn every_country_covered(cfg in arb_config()) {
        let g = GeoTopology::generate(&cfg);
        for c in 0..cfg.countries {
            let in_country: Vec<_> = g
                .topology
                .nodes()
                .filter(|n| n.country == c && !n.last_resort)
                .collect();
            prop_assert!(!in_country.is_empty(), "country {c} empty");
            prop_assert!(
                in_country.iter().any(|n| n.well_peered),
                "country {c} has no hub"
            );
        }
    }

    /// Same seed → identical topology; different seed → different RTTs.
    #[test]
    fn seed_determinism(cfg in arb_config()) {
        let a = GeoTopology::generate(&cfg);
        let b = GeoTopology::generate(&cfg);
        for (f, t, m) in a.topology.links() {
            prop_assert_eq!(b.topology.link(f, t).unwrap(), m);
        }
    }

    /// Intra-national mean RTT is below inter-national mean RTT whenever
    /// both kinds exist.
    #[test]
    fn locality_gradient(cfg in arb_config()) {
        prop_assume!(cfg.countries >= 2);
        let g = GeoTopology::generate(&cfg);
        let (mut intra, mut ni) = (0.0, 0u32);
        let (mut inter, mut ne) = (0.0, 0u32);
        for (f, t, m) in g.topology.links() {
            match g.topology.is_international(f, t) {
                Some(true) => { inter += m.rtt.as_millis_f64(); ne += 1; }
                Some(false) => { intra += m.rtt.as_millis_f64(); ni += 1; }
                None => {}
            }
        }
        prop_assume!(ni > 0 && ne > 0);
        prop_assert!(intra / f64::from(ni) < inter / f64::from(ne));
    }
}
