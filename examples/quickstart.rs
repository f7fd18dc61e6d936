//! Quickstart: a CDN footprint, the Streaming Brain, and one viewing
//! session end-to-end at packet level.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use livenet::emu::LossModel;
use livenet::prelude::*;

fn main() {
    // 1. Generate a geo-distributed CDN overlay (12 countries, 60 nodes,
    //    full mesh with realistic intra/inter-national RTTs).
    let geo = GeoTopology::generate(&GeoConfig::paper_scale(1));
    println!(
        "topology: {} nodes, {} directed links, {} last-resort relays",
        geo.topology.node_count(),
        geo.topology.link_count(),
        geo.topology.last_resort_ids().count(),
    );

    // 2. Start the Streaming Brain: it computes the K=3 shortest paths
    //    between every pair under the paper's Eq. 2–3 link weights.
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    let mut brain = StreamingBrain::new(geo.topology.clone(), BrainConfig::default());
    println!(
        "brain: PIB populated with {} candidate paths",
        brain.decision().pib.total_paths()
    );

    // 3. A broadcaster goes live at a producer node; a viewer shows up at
    //    a consumer node on the other side of the world.
    let stream = StreamId::new(42);
    let producer = nodes[0];
    let consumer = *nodes.last().expect("nodes");
    brain.register_stream(stream, producer);
    let lookup = brain
        .path_request(stream, consumer, SimTime::ZERO)
        .expect("path");
    let best = &lookup.paths[0];
    println!(
        "path {producer} → {consumer}: {:?} ({} hops, weight {:.1} ms)",
        best.nodes,
        best.hops(),
        best.weight
    );

    // 4. Replay that path at packet level: real overlay-node state
    //    machines over the discrete-event emulator, 1 % loss on the first
    //    hop to show the fast/slow-path recovery.
    let sc = Scenario::chain(best.hops().max(2), LossModel::Bernoulli { p: 0.01 }, 7);
    let run = sc.run().expect("chain preset is valid");
    let qoe = run.viewers[0].qoe;
    let recoveries = run.recovery_latencies_ms();
    println!(
        "viewer: startup {:?} (fast: {}), {} frames rendered, {} stalls",
        qoe.startup,
        qoe.fast_startup(),
        qoe.frames_rendered,
        qoe.stalls
    );
    println!(
        "slow path: {} holes recovered (mean {:.0} ms), {} retransmissions served",
        recoveries.len(),
        recoveries.iter().sum::<f64>() / recoveries.len().max(1) as f64,
        run.nodes.iter().map(|n| n.stats.rtx_served).sum::<u64>()
    );
}
