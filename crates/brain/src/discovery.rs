//! Global Discovery (paper §4.2).
//!
//! Writes the 1-minute reports from overlay nodes into the Brain's working
//! [`Topology`] — the global view Global Routing reads — and handles
//! *real-time overload alarms*: when a node reports itself or one of its
//! links at ≥ 80% utilization, the corresponding PIB entries are
//! invalidated immediately (without waiting for the 10-minute recompute).

use crate::pib::Pib;
use livenet_topology::{NodeReport, Topology, OVERLOAD_TARGET};
use livenet_types::{NodeId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An overload alarm raised by a node outside the periodic report cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverloadAlarm {
    /// The node itself crossed the target.
    Node(NodeId),
    /// A directed link crossed the target.
    Link(NodeId, NodeId),
}

/// When each of one reporter's measurements was taken: what newest-wins
/// compares (time zero until the first report, which therefore wins). Kept
/// here, not in `LinkMetrics` (the ground truth shares that type), and
/// keyed by far-end id, not row position (a link may be added to the row
/// later).
#[derive(Debug, Default)]
struct Seen {
    /// The node's own load.
    node: SimTime,
    /// Its links, ascending by far end.
    links: Vec<(NodeId, SimTime)>,
}

/// The Global Discovery module.
#[derive(Debug, Default)]
pub struct GlobalDiscovery {
    /// By reporter. Holds only keys the working topology has, so it is
    /// bounded by the topology's node and link counts.
    seen: BTreeMap<NodeId, Seen>,
    /// Alarms processed (telemetry).
    pub alarms_handled: u64,
    /// Paths invalidated by alarms (telemetry).
    pub paths_invalidated: u64,
    /// Reported keys dropped because the working topology has no such node
    /// or link: the reporter's own load and each of its links count one.
    pub unknown_keys: u64,
}

/// Where `key` sits in `sorted`: at `hint` when the caller is walking the
/// slice in order, else by binary search (`Err`: where it would go).
fn locate<T>(
    sorted: &[T],
    hint: usize,
    key: NodeId,
    id: impl Fn(&T) -> NodeId,
) -> Result<usize, usize> {
    match sorted.get(hint) {
        Some(at_hint) if id(at_hint) == key => Ok(hint),
        _ => sorted.binary_search_by_key(&key, id),
    }
}

impl GlobalDiscovery {
    /// Empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb a periodic node report into the working topology (newest
    /// wins per key). Returns any overload alarms implied by the report
    /// itself (≥ target utilization triggers the same path invalidation as
    /// an explicit alarm).
    pub fn absorb_report(
        &mut self,
        report: &NodeReport,
        topology: &mut Topology,
        pib: &mut Pib,
    ) -> Vec<OverloadAlarm> {
        self.write_through(report, topology);
        let mut alarms = Vec::new();
        if report.utilization >= OVERLOAD_TARGET {
            alarms.push(OverloadAlarm::Node(report.node));
        }
        for l in &report.links {
            if l.utilization >= OVERLOAD_TARGET {
                alarms.push(OverloadAlarm::Link(report.node, l.to));
            }
        }
        for &alarm in &alarms {
            self.handle_alarm(alarm, pib);
        }
        alarms
    }

    /// Write the report's measurements into the reporter's node and row.
    ///
    /// A node's report lists its links ascending by far end, as its row
    /// and its `Seen` list do, so each lookup is the element after the last
    /// one found. An entry that is not there (the list is partial, unsorted
    /// or repeats a far end) costs a binary search.
    fn write_through(&mut self, report: &NodeReport, topology: &mut Topology) {
        let at = report.at;
        let Some(info) = topology.node_mut(report.node) else {
            self.unknown_keys += 1 + report.links.len() as u64;
            return;
        };
        let seen = self.seen.entry(report.node).or_default();
        if at >= seen.node {
            seen.node = at;
            info.utilization = report.utilization;
        }
        let (far_ends, links) = topology.row_mut(report.node);
        let (mut next, mut next_seen) = (0, 0);
        for lr in &report.links {
            let Ok(j) = locate(far_ends, next, lr.to, |&to| to) else {
                self.unknown_keys += 1;
                continue;
            };
            next = j + 1;
            let i = locate(&seen.links, next_seen, lr.to, |t| t.0).unwrap_or_else(|i| {
                seen.links.insert(i, (lr.to, at));
                i
            });
            next_seen = i + 1;
            let newest = &mut seen.links[i].1;
            if at >= *newest {
                *newest = at;
                links[j].rtt = lr.rtt;
                links[j].loss = lr.loss;
                links[j].utilization = lr.utilization;
            }
        }
    }

    /// Handle an explicit real-time overload alarm: invalidate PIB paths.
    pub fn handle_alarm(&mut self, alarm: OverloadAlarm, pib: &mut Pib) -> usize {
        self.alarms_handled += 1;
        let removed = match alarm {
            OverloadAlarm::Node(n) => pib.invalidate_node(n),
            OverloadAlarm::Link(a, b) => pib.invalidate_link(a, b),
        };
        self.paths_invalidated += removed as u64;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::view::report_from_topology;
    use livenet_topology::{GeoConfig, GeoTopology, LinkReport};
    use livenet_types::SimDuration;

    /// Nodes 1..=10 in a full mesh.
    fn mesh() -> Topology {
        GeoTopology::generate(&GeoConfig::tiny(1)).topology
    }

    /// 1→3 has two paths, via 2 (weight 10) and via 4 (weight 12); with the
    /// four direct links that is six paths.
    fn pib_with_paths() -> Pib {
        crate::pib::tests::round(&[(1, 2, 4), (2, 3, 6), (1, 4, 5), (4, 3, 7)])
    }

    fn report_at(node: u64, at_ms: u64, util: f64, link_to: u64, link_util: f64) -> NodeReport {
        NodeReport {
            node: NodeId::new(node),
            at: SimTime::from_millis(at_ms),
            utilization: util,
            links: vec![LinkReport {
                to: NodeId::new(link_to),
                rtt: SimDuration::from_millis(20),
                loss: 0.001,
                utilization: link_util,
                from_transport: true,
            }],
        }
    }

    fn report(node: u64, util: f64, link_util: f64) -> NodeReport {
        report_at(node, 60_000, util, 3, link_util)
    }

    #[test]
    fn healthy_report_raises_no_alarm() {
        let mut d = GlobalDiscovery::new();
        let (mut topo, mut pib) = (mesh(), pib_with_paths());
        let alarms = d.absorb_report(&report(2, 0.4, 0.3), &mut topo, &mut pib);
        assert!(alarms.is_empty());
        assert_eq!(pib.total_paths(), 6);
        assert_eq!(topo.node(NodeId::new(2)).unwrap().utilization, 0.4);
    }

    #[test]
    fn node_overload_invalidates_traversing_paths() {
        let mut d = GlobalDiscovery::new();
        let (mut topo, mut pib) = (mesh(), pib_with_paths());
        let alarms = d.absorb_report(&report(2, 0.85, 0.3), &mut topo, &mut pib);
        assert_eq!(alarms, vec![OverloadAlarm::Node(NodeId::new(2))]);
        // Path via node 2 removed; via node 4 kept.
        let remaining = pib.lookup(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(remaining.len(), 1);
        assert!(remaining[0].contains_node(NodeId::new(4)));
        // 1→2→3 and the two direct links that end at node 2.
        assert_eq!(d.paths_invalidated, 3);
    }

    #[test]
    fn link_overload_invalidates_directed_link_paths() {
        let mut d = GlobalDiscovery::new();
        let (mut topo, mut pib) = (mesh(), pib_with_paths());
        // Node 2 reports link 2→3 overloaded.
        let alarms = d.absorb_report(&report(2, 0.1, 0.9), &mut topo, &mut pib);
        assert_eq!(
            alarms,
            vec![OverloadAlarm::Link(NodeId::new(2), NodeId::new(3))]
        );
        let remaining = pib.lookup(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(remaining.len(), 1);
        assert!(remaining[0].contains_node(NodeId::new(4)));
        assert_eq!(d.paths_invalidated, 2); // 2→3 and 1→2→3
    }

    #[test]
    fn explicit_alarm_counts() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        let removed = d.handle_alarm(OverloadAlarm::Node(NodeId::new(4)), &mut pib);
        assert_eq!(removed, 3); // 1→4, 4→3, 1→4→3
        assert_eq!(d.alarms_handled, 1);
    }

    // The next three lived beside `GlobalView` in livenet-topology; the
    // state they check is now the working topology.

    #[test]
    fn absorb_keeps_newest() {
        let mut d = GlobalDiscovery::new();
        let (mut topo, mut pib) = (mesh(), Pib::new());
        d.absorb_report(&report_at(1, 100, 0.5, 2, 0.1), &mut topo, &mut pib);
        d.absorb_report(&report_at(1, 50, 0.9, 2, 0.9), &mut topo, &mut pib); // stale, ignored
        assert_eq!(topo.node(NodeId::new(1)).unwrap().utilization, 0.5);
        assert_eq!(
            topo.link(NodeId::new(1), NodeId::new(2)).unwrap().utilization,
            0.1
        );
        d.absorb_report(&report_at(1, 200, 0.7, 2, 0.85), &mut topo, &mut pib);
        assert_eq!(topo.node(NodeId::new(1)).unwrap().utilization, 0.7);
    }

    #[test]
    fn apply_to_updates_topology() {
        let g = GeoTopology::generate(&GeoConfig::tiny(1));
        let mut topo = g.topology.clone();
        let a = g.node_ids[0];
        let b = g.node_ids[1];
        let mut d = GlobalDiscovery::new();
        d.absorb_report(
            &NodeReport {
                node: a,
                at: SimTime::from_secs(60),
                utilization: 0.42,
                links: vec![LinkReport {
                    to: b,
                    rtt: SimDuration::from_millis(99),
                    loss: 0.01,
                    utilization: 0.33,
                    from_transport: true,
                }],
            },
            &mut topo,
            &mut Pib::new(),
        );
        assert_eq!(topo.node(a).unwrap().utilization, 0.42);
        let l = topo.link(a, b).unwrap();
        assert_eq!(l.rtt, SimDuration::from_millis(99));
        assert_eq!(l.loss, 0.01);
        assert_eq!(l.utilization, 0.33);
    }

    #[test]
    fn report_from_topology_roundtrips() {
        let g = GeoTopology::generate(&GeoConfig::tiny(2));
        let a = g.node_ids[0];
        let rep = report_from_topology(&g.topology, a, SimTime::from_secs(60)).unwrap();
        assert_eq!(rep.node, a);
        assert_eq!(rep.links.len(), g.topology.neighbors(a).count());
        let mut d = GlobalDiscovery::new();
        d.absorb_report(&rep, &mut g.topology.clone(), &mut Pib::new());
        assert_eq!(d.seen.len(), 1);
    }
}
