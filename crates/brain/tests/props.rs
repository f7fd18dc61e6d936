//! Property-based tests for the routing algorithms, report absorption and
//! the PIB.

use livenet_brain::discovery::OverloadAlarm;
use livenet_brain::{
    dijkstra, link_weight, sigmoid_factor, yen_ksp, BrainConfig, GlobalRouting, OverlayPath,
    RoutingConfig, StreamingBrain, WeightParams, WeightedGraph,
};
use livenet_topology::{LinkMetrics, LinkReport, NodeInfo, NodeReport, Topology};
use livenet_types::{Bandwidth, DetRng, NodeId, SimDuration, SimTime, StreamId};
use livenet_cases::prelude::*;
use std::collections::HashSet;

/// The oracle: the `GlobalView` that Global Discovery kept beside the
/// working topology before the measurements moved into the topology's
/// rows, with the alarm scan and the per-report write-through that ran
/// around it, bodies unchanged. Absorbing the same reports through
/// `StreamingBrain::absorb_report` must leave the same working topology,
/// bit for bit, and raise the same alarms.
mod oracle {
    use livenet_brain::discovery::OverloadAlarm;
    use livenet_topology::{LinkReport, NodeReport, Topology, OVERLOAD_TARGET};
    use livenet_types::{NodeId, SimTime};
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct GlobalView {
        node_util: HashMap<NodeId, (SimTime, f64)>,
        link_state: HashMap<(NodeId, NodeId), (SimTime, LinkReport)>,
    }

    impl GlobalView {
        fn absorb(&mut self, report: &NodeReport) {
            let entry = self.node_util.entry(report.node).or_insert((report.at, 0.0));
            if report.at >= entry.0 {
                *entry = (report.at, report.utilization);
            }
            for lr in &report.links {
                let key = (report.node, lr.to);
                let entry = self.link_state.entry(key).or_insert((report.at, *lr));
                if report.at >= entry.0 {
                    *entry = (report.at, *lr);
                }
            }
        }

        fn apply_report(&self, report: &NodeReport, topology: &mut Topology) {
            if let Some(&(_, util)) = self.node_util.get(&report.node) {
                if let Some(n) = topology.node_mut(report.node) {
                    n.utilization = util;
                }
            }
            for lr in &report.links {
                let Some(&(_, stored)) = self.link_state.get(&(report.node, lr.to)) else {
                    continue;
                };
                if let Some(l) = topology.link_mut(report.node, lr.to) {
                    l.rtt = stored.rtt;
                    l.loss = stored.loss;
                    l.utilization = stored.utilization;
                }
            }
        }

        /// `GlobalDiscovery::absorb_report`, then the write-through
        /// `StreamingBrain::absorb_report` did after it.
        pub fn absorb_report(
            &mut self,
            report: &NodeReport,
            topology: &mut Topology,
        ) -> Vec<OverloadAlarm> {
            self.absorb(report);
            let mut alarms = Vec::new();
            if report.utilization >= OVERLOAD_TARGET {
                alarms.push(OverloadAlarm::Node(report.node));
            }
            for l in &report.links {
                if l.utilization >= OVERLOAD_TARGET {
                    alarms.push(OverloadAlarm::Link(report.node, l.to));
                }
            }
            self.apply_report(report, topology);
            alarms
        }
    }
}

/// The oracle: the map-of-`Vec`s PIB that `PathDecision` owned before the
/// flat table — lookup and the two `retain`-based invalidations, bodies
/// unchanged — filled, as it was, from `GlobalRouting::compute_all`.
mod map_pib {
    use livenet_brain::OverlayPath;
    use livenet_types::NodeId;
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct Pib {
        paths: HashMap<(NodeId, NodeId), Vec<OverlayPath>>,
    }

    impl Pib {
        pub fn replace_all(&mut self, entries: HashMap<(NodeId, NodeId), Vec<OverlayPath>>) {
            self.paths = entries;
        }

        pub fn lookup(&self, src: NodeId, dst: NodeId) -> Option<&[OverlayPath]> {
            self.paths.get(&(src, dst)).map(Vec::as_slice)
        }

        pub fn len(&self) -> usize {
            self.paths.len()
        }

        pub fn total_paths(&self) -> usize {
            self.paths.values().map(Vec::len).sum()
        }

        pub fn invalidate_node(&mut self, node: NodeId) -> usize {
            let mut removed = 0;
            for paths in self.paths.values_mut() {
                let before = paths.len();
                paths.retain(|p| !p.contains_node(node));
                removed += before - paths.len();
            }
            removed
        }

        pub fn invalidate_link(&mut self, from: NodeId, to: NodeId) -> usize {
            let mut removed = 0;
            for paths in self.paths.values_mut() {
                let before = paths.len();
                paths.retain(|p| !p.contains_link(from, to));
                removed += before - paths.len();
            }
            removed
        }
    }
}

/// `n` nodes with gaps between their ids (so an unknown id can sort into
/// the middle of a row) and about two thirds of the possible links.
fn sparse_topology(n: u64, rng: &mut DetRng) -> Topology {
    let mut t = Topology::new();
    for i in 0..n {
        t.upsert_node(NodeInfo {
            id: NodeId::new(3 * i + 1),
            country: (i % 3) as u32,
            capacity: Bandwidth::from_gbps(10),
            utilization: rng.f64() * 0.5,
            last_resort: i == n - 1,
            well_peered: i % 2 == 0,
        });
    }
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.chance(0.66) {
                let m = LinkMetrics {
                    rtt: SimDuration::from_millis(rng.range_u64(1, 200)),
                    loss: rng.f64() * 0.002,
                    utilization: rng.f64() * 0.5,
                    capacity: Bandwidth::from_gbps(1),
                };
                t.upsert_link(NodeId::new(3 * a + 1), NodeId::new(3 * b + 1), m)
                    .expect("both ends exist");
            }
        }
    }
    t
}

/// A measurement as it may come off the wire: mostly a share in [0, 1),
/// sometimes over the alarm target, sometimes not a number at all.
fn measurement(rng: &mut DetRng) -> f64 {
    match rng.range_u64(0, 12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.8 + rng.f64() * 0.4,
        _ => rng.f64() * 0.8,
    }
}

/// One report: any time in a short window (so reports arrive out of order
/// and tie), from a node the topology may not have, about links it may not
/// have, complete or partial, in row order or not, far ends repeated or
/// not.
fn arbitrary_report(topology: &Topology, n: u64, rng: &mut DetRng) -> NodeReport {
    let any_id = |rng: &mut DetRng| NodeId::new(rng.range_u64(0, 3 * n + 2));
    let node = if rng.chance(0.9) {
        NodeId::new(3 * rng.range_u64(0, n) + 1)
    } else {
        any_id(rng)
    };
    let mut to = topology.row(node).0.to_vec();
    if rng.chance(0.5) {
        to.retain(|_| rng.chance(0.7));
    }
    if rng.chance(0.3) {
        for _ in 0..rng.range_u64(1, 4) {
            let at = rng.range_u64(0, to.len() as u64 + 1) as usize;
            // A far end that repeats one of the list, or any id at all
            // (unknown, the reporter itself, a node without such a link).
            let id = if rng.chance(0.5) && !to.is_empty() {
                *rng.choose(&to)
            } else {
                any_id(rng)
            };
            to.insert(at, id);
        }
    }
    if rng.chance(0.25) {
        rng.shuffle(&mut to);
    }
    NodeReport {
        node,
        at: SimTime::from_secs(rng.range_u64(0, 6)),
        utilization: measurement(rng),
        links: to
            .into_iter()
            .map(|to| LinkReport {
                to,
                rtt: SimDuration::from_millis(rng.range_u64(1, 500)),
                loss: measurement(rng),
                utilization: measurement(rng),
                from_transport: rng.chance(0.5),
            })
            .collect(),
    }
}

/// What a report full of non-numbers may not do to the last-resort lists:
/// a relay is offered exactly when both its legs are up and weigh a finite,
/// non-negative amount, and the list is ordered.
fn check_last_resort_lists(brain: &StreamingBrain) {
    let (t, routing) = (brain.topology(), brain.routing());
    let leg = |a, b| {
        let m = t.link(a, b).filter(|_| t.link_is_up(a, b))?;
        Some(link_weight(m.rtt, m.loss, 0.0, routing.config().weight)).filter(|w| w.is_finite() && *w >= 0.0)
    };
    for src in t.node_ids() {
        for dst in t.node_ids() {
            let paths = routing.last_resort_paths(t, src, dst, SimTime::ZERO);
            let mut offered: Vec<(u64, NodeId)> = t
                .last_resort_ids()
                .filter_map(|lr| Some(((leg(src, lr)? + leg(lr, dst)?).to_bits(), lr)))
                .collect();
            // Non-negative floats order as their bits do.
            offered.sort();
            let got: Vec<(u64, NodeId)> = paths.iter().map(|p| (p.weight.to_bits(), p.nodes[1])).collect();
            assert_eq!(got, offered, "{src} -> {dst}");
            assert!(paths.iter().all(|p| p.last_resort && p.nodes == [src, p.nodes[1], dst]));
        }
    }
}

fn node_bits(n: &NodeInfo) -> (NodeId, u64) {
    (n.id, n.utilization.to_bits())
}

fn link_bits((from, to, l): (NodeId, NodeId, &LinkMetrics)) -> (NodeId, NodeId, SimDuration, u64, u64) {
    (from, to, l.rtt, l.loss.to_bits(), l.utilization.to_bits())
}

fn check_absorb_against_oracle(n: u64, seed: u64, reports: u32) {
    let rng = &mut DetRng::seed(seed);
    let mut expected = sparse_topology(n, rng);
    let (nodes, links) = (expected.node_count(), expected.link_count());
    let mut brain = StreamingBrain::new(expected.clone(), BrainConfig::default());
    let mut view = oracle::GlobalView::default();
    let mut unknown = 0;
    for _ in 0..reports {
        let report = arbitrary_report(&expected, n, rng);
        unknown += if expected.node(report.node).is_none() {
            1 + report.links.len()
        } else {
            let missing = |l: &&LinkReport| expected.link(report.node, l.to).is_none();
            report.links.iter().filter(missing).count()
        } as u64;
        let alarms: Vec<OverloadAlarm> = view.absorb_report(&report, &mut expected);
        assert_eq!(brain.absorb_report(&report), alarms, "{report:?}");
        let got = brain.topology();
        assert!(got.nodes().map(node_bits).eq(expected.nodes().map(node_bits)), "{report:?}");
        assert!(got.links().map(link_bits).eq(expected.links().map(link_bits)), "{report:?}");
        assert_eq!(brain.discovery().unknown_keys, unknown, "{report:?}");
    }
    check_last_resort_lists(&brain);
    // No report adds a node or a link.
    assert_eq!((brain.topology().node_count(), brain.topology().link_count()), (nodes, links));
}

fn path_bits(p: &OverlayPath) -> (&[NodeId], u64, SimTime, bool) {
    (&p.nodes, p.weight.to_bits(), p.computed_at, p.last_resort)
}

/// Every read of the flat PIB against the map oracle: each pair's list in
/// order and `to_bits` — over every id, known or not, so a node that is
/// down or reserved has no entry on either side — the two counts, and each
/// pair's path request against the map's filter-then-take.
fn assert_same_pib(brain: &mut StreamingBrain, oracle: &map_pib::Pib, n: u64, now: SimTime) {
    let routing = brain.routing().clone();
    let routable: Vec<NodeId> = brain.topology().routable_node_ids().collect();
    let pib = &brain.decision().pib;
    assert_eq!((pib.len(), pib.total_paths()), (oracle.len(), oracle.total_paths()));
    assert_eq!(pib.is_empty(), oracle.len() == 0);
    assert_eq!(pib.len(), routable.len() * routable.len().saturating_sub(1));
    for src in (0..3 * n + 2).map(NodeId::new) {
        for dst in (0..3 * n + 2).map(NodeId::new) {
            let (got, expected) = (brain.decision().pib.lookup(src, dst), oracle.lookup(src, dst));
            assert_eq!(got.is_some(), src != dst && routable.contains(&src) && routable.contains(&dst));
            assert_eq!(
                got.as_ref().map(|l| l.iter().map(path_bits).collect::<Vec<_>>()),
                expected.map(|l| l.iter().map(path_bits).collect()),
                "{src} -> {dst}"
            );
            if src == dst || brain.producer_of(StreamId::new(src.raw())).is_none() {
                continue;
            }
            let valid: Vec<&OverlayPath> = expected
                .unwrap_or(&[])
                .iter()
                .filter(|p| routing.satisfies_constraints(brain.topology(), &p.nodes))
                .take(routing.config().k)
                .collect();
            match brain.path_request(StreamId::new(src.raw()), dst, now) {
                Ok(a) if !a.last_resort => {
                    assert!(a.paths.iter().map(path_bits).eq(valid.into_iter().map(path_bits)), "{src} -> {dst}")
                }
                _ => assert!(valid.is_empty(), "{src} -> {dst}"),
            }
        }
    }
}

/// Rounds, alarms and node failures in any order, on an overlay with down
/// nodes and links, overloaded ones (so a pair's best slot can be the empty
/// one) and several reserved relays: the table the Brain rewrites in place
/// reads like a map replaced wholesale.
fn check_pib_against_map_oracle(n: u64, seed: u64, k: usize, max_hops: usize, ops: u32) {
    let rng = &mut DetRng::seed(seed);
    let mut topology = sparse_topology(n, rng);
    let ids: Vec<NodeId> = topology.node_ids().collect();
    for &a in &ids {
        let node = topology.node_mut(a).expect("listed");
        node.last_resort |= rng.chance(0.1);
        if rng.chance(0.15) {
            node.utilization = 0.9;
        }
        if rng.chance(0.12) {
            topology.set_node_up(a, false);
        }
        for &b in &ids {
            if rng.chance(0.08) {
                topology.set_link_up(a, b, false);
            }
            if let Some(l) = topology.link_mut(a, b).filter(|_| rng.chance(0.1)) {
                l.utilization = 0.9;
            }
        }
    }
    let config = RoutingConfig { k, max_hops, ..RoutingConfig::default() };
    let routing = GlobalRouting::new(config);
    let mut brain = StreamingBrain::new(topology, BrainConfig { routing: config });
    for &id in &ids {
        brain.register_stream(StreamId::new(id.raw()), id);
    }
    let mut oracle = map_pib::Pib::default();
    let mut stamp = SimTime::ZERO;
    oracle.replace_all(routing.compute_all(brain.topology(), stamp));
    assert_same_pib(&mut brain, &oracle, n, stamp);
    // Mostly a node of the topology (routable, down or reserved), now and
    // then an id it does not have.
    let any_id = |rng: &mut DetRng| match rng.chance(0.85) {
        true => *rng.choose(&ids),
        false => NodeId::new(rng.range_u64(0, 3 * n + 2)),
    };
    for op in 0..ops {
        match rng.range_u64(0, 6) {
            0 => {
                stamp = SimTime::from_secs(600 * (1 + op as u64));
                brain.force_recompute(stamp);
            }
            1 | 2 => {
                let node = any_id(rng);
                let removed = brain.overload_alarm(OverloadAlarm::Node(node));
                assert_eq!(removed, oracle.invalidate_node(node), "node {node}");
                continue;
            }
            3 => {
                let (a, b) = (any_id(rng), any_id(rng));
                let removed = brain.overload_alarm(OverloadAlarm::Link(a, b));
                assert_eq!(removed, oracle.invalidate_link(a, b), "link {a} -> {b}");
                continue;
            }
            // Both rebuild the table, over fewer or more nodes than it held.
            4 => brain.node_failed(any_id(rng)),
            _ => brain.node_recovered(any_id(rng)),
        }
        oracle.replace_all(routing.compute_all(brain.topology(), stamp));
        assert_same_pib(&mut brain, &oracle, n, stamp);
    }
    assert_same_pib(&mut brain, &oracle, n, stamp);
}

/// Random connected-ish digraph: n nodes, each with edges to a random
/// subset of others.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (3usize..10, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = livenet_types::DetRng::seed(seed);
        let ids: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.chance(0.6) {
                    edges.push((
                        ids[a],
                        ids[b],
                        rng.range_f64(1.0, 100.0),
                    ));
                }
            }
        }
        WeightedGraph::new(ids, edges)
    })
}

proptest! {
    /// Reports absorbed into the working topology's rows leave what the
    /// old `GlobalView` and its write-through left, and raise its alarms.
    #[test]
    fn absorb_equals_global_view_oracle(n in 2u64..9, seed in any::<u64>(), reports in 1u32..60) {
        check_absorb_against_oracle(n, seed, reports);
    }

    /// The flat PIB reads like the map of `Vec`s it replaced, through any
    /// sequence of rounds, alarms and failures.
    #[test]
    fn flat_pib_equals_map_oracle(
        n in 2u64..9,
        seed in any::<u64>(),
        k in 1usize..=4,
        max_hops in 0usize..=4,
        ops in 1u32..24,
    ) {
        check_pib_against_map_oracle(n, seed, k, max_hops, ops);
    }

    /// Yen's K paths: sorted by cost, loopless, distinct, within hop bound,
    /// and the first equals Dijkstra's answer.
    #[test]
    fn yen_invariants(g in arb_graph(), k in 1usize..5, max_hops in 1usize..5) {
        let n = g.len();
        for src in 0..n.min(3) {
            for dst in 0..n {
                if src == dst { continue; }
                let paths = yen_ksp(&g, src, dst, k, max_hops);
                prop_assert!(paths.len() <= k);
                for w in paths.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0 + 1e-9);
                }
                let mut seen = HashSet::new();
                for (cost, p) in &paths {
                    prop_assert!(p.len() - 1 <= max_hops, "hop bound");
                    prop_assert_eq!(p[0], src);
                    prop_assert_eq!(*p.last().unwrap(), dst);
                    let set: HashSet<usize> = p.iter().copied().collect();
                    prop_assert_eq!(set.len(), p.len(), "loopless");
                    prop_assert!(seen.insert(p.clone()), "distinct");
                    prop_assert!(cost.is_finite() && *cost >= 0.0);
                }
                let best = dijkstra(&g, src, dst, &HashSet::new(), &HashSet::new(), max_hops);
                match (paths.first(), best) {
                    (Some((c, p)), Some((bc, bp))) => {
                        prop_assert!((c - bc).abs() < 1e-9, "yen best != dijkstra");
                        prop_assert_eq!(p, &bp);
                    }
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "reachability mismatch {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// The weight function is monotone in every argument and ≥ RTT.
    #[test]
    fn weight_monotone(
        rtt_ms in 1u64..500,
        loss in 0.0f64..0.5,
        util in 0.0f64..1.0,
        d_rtt in 1u64..100,
        d_loss in 0.0f64..0.3,
        d_util in 0.0f64..0.5,
    ) {
        let p = WeightParams::default();
        let rtt = SimDuration::from_millis(rtt_ms);
        let base = link_weight(rtt, loss, util, p);
        prop_assert!(base >= rtt.as_millis_f64() * 0.999);
        prop_assert!(link_weight(SimDuration::from_millis(rtt_ms + d_rtt), loss, util, p) >= base);
        prop_assert!(link_weight(rtt, (loss + d_loss).min(1.0), util, p) >= base - 1e-9);
        prop_assert!(link_weight(rtt, loss, (util + d_util).min(1.0), p) >= base - 1e-9);
    }

    /// The sigmoid stays in (1, 2) and is monotone.
    #[test]
    fn sigmoid_bounds(u in 0.0f64..1.0, du in 0.0f64..1.0) {
        let p = WeightParams::default();
        let f = sigmoid_factor(u, p);
        prop_assert!((1.0..=2.0).contains(&f));
        prop_assert!(sigmoid_factor((u + du).min(1.0), p) >= f - 1e-12);
    }
}
