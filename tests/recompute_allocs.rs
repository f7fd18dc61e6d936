//! What the PIB costs the allocator, counted.
//!
//! The table is rewritten in place: a recompute allocates its snapshot of
//! the topology and nothing for its output (14,177 allocations when the PIB
//! was a map of `Vec`s, 14,160 of them the output's own), and a path
//! request that hits allocates what it hands back and nothing else.

use livenet::prelude::*;

#[path = "common/alloc.rs"]
mod alloc;

/// Allocator calls on this thread so far.
fn allocs() -> u64 {
    alloc::counts().calls
}

fn paper_scale_brain() -> (StreamingBrain, Vec<NodeId>) {
    let geo = GeoTopology::generate(&GeoConfig::paper_scale(20_221_122));
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    (
        StreamingBrain::new(geo.topology, BrainConfig::default()),
        nodes,
    )
}

#[test]
fn a_later_recompute_allocates_its_snapshot_only() {
    let (mut brain, nodes) = paper_scale_brain();
    assert_eq!(brain.decision().pib.len(), nodes.len() * (nodes.len() - 1));
    for round in 1..=3 {
        let before = allocs();
        brain.force_recompute(SimTime::from_secs(600 * round));
        let spent = allocs() - before;
        assert!(spent <= 16, "round {round}: {spent} allocations");
    }
    // A round over fewer nodes fits the buffers it has; so does the round
    // that brings the node back (the one more is the topology's down set).
    let before = allocs();
    brain.node_failed(nodes[7]);
    brain.node_recovered(nodes[7]);
    assert!(
        allocs() - before <= 2 * 16 + 1,
        "{} allocations",
        allocs() - before
    );
}

#[test]
fn a_path_request_that_hits_allocates_its_answer_only() {
    let (mut brain, nodes) = paper_scale_brain();
    for (i, &producer) in nodes.iter().enumerate() {
        brain.register_stream(StreamId::new(i as u64), producer);
    }
    let now = SimTime::from_secs(60);
    let (mut held, before) = (0, allocs());
    for i in 0..1_000 {
        let (stream, consumer) = (
            StreamId::new(i % 60),
            nodes[(7 * i as usize + 3) % nodes.len()],
        );
        let answer = brain
            .path_request(stream, consumer, now)
            .expect("a healthy mesh");
        assert!(!answer.last_resort);
        // The list, and each path's nodes.
        held += 1 + answer.paths.len() as u64;
    }
    assert_eq!(allocs() - before, held);
}
