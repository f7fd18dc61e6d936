//! The node reports that build the Brain's global view.
//!
//! CDN nodes report link latency (RTT), packet loss rate, link utilization
//! and node load on a 1-minute time scale (paper §4.2). The Brain's Global
//! Discovery module writes them into its working [`Topology`] — the input
//! to Global Routing — and raises overload alarms when a node or link
//! crosses the 80% target.

use crate::graph::Topology;
use livenet_types::{NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The pre-defined overload target (80%, paper §4.2 / §4.3 constraint ii).
pub const OVERLOAD_TARGET: f64 = 0.80;

/// One link measurement inside a node report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Far end of the measured link.
    pub to: NodeId,
    /// Measured round-trip time.
    pub rtt: SimDuration,
    /// Measured loss rate in [0, 1].
    pub loss: f64,
    /// Link utilization in [0, 1].
    pub utilization: f64,
    /// True when the node had recent traffic on the link and read these from
    /// the transport layer; false when it fell back to UDP-ping probing
    /// (paper §4.2).
    pub from_transport: bool,
}

/// A periodic report from one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Reporting node.
    pub node: NodeId,
    /// When the report was generated.
    pub at: SimTime,
    /// Combined node load in [0, 1].
    pub utilization: f64,
    /// Per-link measurements.
    pub links: Vec<LinkReport>,
}

/// Build the report a node would send given the true topology state —
/// used by simulations to produce 1-minute report streams. The links are
/// the node's live neighbors, ascending by far end.
pub fn report_from_topology(topology: &Topology, node: NodeId, at: SimTime) -> Option<NodeReport> {
    let info = topology.node(node)?;
    let links = topology
        .neighbors(node)
        .map(|(to, m)| LinkReport {
            to,
            rtt: m.rtt,
            loss: m.loss,
            utilization: m.utilization,
            from_transport: m.utilization > 0.0,
        })
        .collect();
    Some(NodeReport {
        node,
        at,
        utilization: info.utilization,
        links,
    })
}
