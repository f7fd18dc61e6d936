//! The Hier per-session delay model.
//!
//! Hier transports RTMP over TCP with full-stack, store-and-forward
//! processing at every hop (paper §2.2). The CDN path delay of a session
//! decomposes into:
//!
//! * per-hop propagation (half the link RTT),
//! * per-node application-stack processing — large for Hier because every
//!   node runs the whole RTMP stack and the streaming center additionally
//!   transcodes,
//! * expected TCP head-of-line/retransmission stalls on lossy hops
//!   (a lost segment stalls in-order delivery for about one RTT plus the
//!   retransmission; amortized over the loss probability).
//!
//! The constants were calibrated against the paper's Fig. 11: a 0-length
//! LiveNet path (pure processing) sits near 100–150 ms, and the fixed
//! 4-hop Hier path near 390–400 ms (Table 1).

use livenet_topology::Topology;
use livenet_types::{NodeId, SimDuration};

/// Full-stack store-and-forward processing per L1/L2 hop.
const HOP_PROCESSING: SimDuration = SimDuration::from_millis(47);
/// Streaming-center processing (media pipeline + transcoding).
const CENTER_PROCESSING: SimDuration = SimDuration::from_millis(128);
/// Multiplier on `loss × RTT` for expected TCP stall per hop.
const TCP_STALL_FACTOR: f64 = 1.5;

/// CDN path delay (ingress L1 → egress L1) for a pinned path, given as its
/// node sequence ([`crate::HierPath::nodes`]).
///
/// Returns `None` when the path references links missing from the
/// topology.
pub fn cdn_path_delay(topology: &Topology, nodes: &[NodeId]) -> Option<SimDuration> {
    let mut total = SimDuration::ZERO;
    for w in nodes.windows(2) {
        if w[0] == w[1] {
            continue; // degenerate hop (same node chosen twice)
        }
        let link = topology.link(w[0], w[1])?;
        total += link.rtt / 2;
        // Expected TCP stall: loss × RTT × factor.
        let stall_ms = link.loss * link.rtt.as_millis_f64() * TCP_STALL_FACTOR;
        total += SimDuration::from_millis_f64(stall_ms);
    }
    // Node processing: center transcodes, the others store-and-forward.
    // The egress L1 (last node) also runs the stack; the ingress L1's
    // receive-side cost is charged to the first-mile, matching how the
    // paper attributes encoding + first mile to the client side.
    let center = nodes.get(2).copied();
    for (i, &n) in nodes.iter().enumerate() {
        if i == 0 {
            continue;
        }
        if Some(n) == center && i == 2 {
            total += CENTER_PROCESSING;
        } else {
            total += HOP_PROCESSING;
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::HierController;
    use crate::roles::{HierRoles, Layer};
    use livenet_topology::{GeoConfig, GeoTopology};
    use livenet_types::{NodeId, StreamId};

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

    #[test]
    fn delay_includes_all_components() {
        let (topo, mut ctl, l1) = setup(1);
        let s = StreamId::new(1);
        ctl.register_stream(&topo, s, l1[0]).unwrap();
        let path = ctl.path_for(&topo, s, l1[7]).unwrap();
        let d = cdn_path_delay(&topo, &path.nodes).unwrap();
        // Floor: center processing + 3 hop processings (4 post-ingress
        // nodes, one of which is the center).
        let floor = SimDuration::from_millis(110 + 3 * 35);
        assert!(d > floor, "d={d} <= floor {floor}");
        // And it is bounded by something sane (< 2 s).
        assert!(d < SimDuration::from_secs(2), "d={d}");
    }

    #[test]
    fn lossier_links_increase_delay() {
        let (mut topo, mut ctl, l1) = setup(2);
        let s = StreamId::new(1);
        ctl.register_stream(&topo, s, l1[0]).unwrap();
        let path = ctl.path_for(&topo, s, l1[3]).unwrap();
        let before = cdn_path_delay(&topo, &path.nodes).unwrap();
        // Inject 5% loss on the first hop.
        topo.link_mut(path.nodes[0], path.nodes[1]).unwrap().loss = 0.05;
        let after = cdn_path_delay(&topo, &path.nodes).unwrap();
        assert!(after > before);
    }

    #[test]
    fn median_hier_delay_is_paper_scale() {
        // Over many L1 pairs, the median Hier CDN delay should land in the
        // paper's 350–450 ms band (Table 1: 393 ms).
        let (topo, mut ctl, l1) = setup(3);
        let mut delays: Vec<f64> = Vec::new();
        for (i, &prod) in l1.iter().enumerate() {
            let s = StreamId::new(i as u64);
            ctl.register_stream(&topo, s, prod).unwrap();
            for &cons in l1.iter().skip(i % 3).step_by(3) {
                let path = ctl.path_for(&topo, s, cons).unwrap();
                delays.push(cdn_path_delay(&topo, &path.nodes).unwrap().as_millis_f64());
            }
        }
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = delays[delays.len() / 2];
        assert!(
            (280.0..520.0).contains(&median),
            "median Hier delay {median} ms out of band"
        );
    }
}
