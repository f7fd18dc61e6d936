//! Path Decision (paper §4.4, Algorithm 1's `GetPath`).
//!
//! Consumer nodes call [`PathDecision::get_path`] with a stream ID. The
//! stream ID is hashed into the SIB to find the producer; (producer,
//! consumer) keys the PIB for the candidate path list; invalid paths
//! (overloaded / stale) are filtered; when nothing survives, last-resort
//! paths are returned.

use crate::pib::{OverlayPath, Pib, Sib};
use crate::routing::GlobalRouting;
use livenet_topology::Topology;
use livenet_types::{Error, NodeId, Result, SimTime, StreamId};

/// Result of a path lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct PathLookup {
    /// Candidate paths, best first (the paper returns 3).
    pub paths: Vec<OverlayPath>,
    /// True when the lookup fell back to last-resort paths.
    pub last_resort: bool,
}

/// A fully-resolved path assignment for one (stream, consumer) pair — the
/// single answer shape every Brain entry point returns.
///
/// [`StreamingBrain::path_request`], `prefetch_paths` and
/// `rehome_producer` all used to hand back slightly different shapes
/// (bare [`PathLookup`]s, `(NodeId, PathLookup)` tuples); fleet shard
/// workers and the tokio transport now consume this one type.
///
/// [`StreamingBrain::path_request`]: crate::StreamingBrain::path_request
#[derive(Debug, Clone, PartialEq)]
pub struct PathAssignment {
    /// The stream the paths carry.
    pub stream: StreamId,
    /// The consumer node the paths terminate at.
    pub consumer: NodeId,
    /// The producer node the paths originate from (SIB resolution).
    pub producer: NodeId,
    /// Candidate paths, best first (the paper returns 3). Never empty:
    /// lookups that find nothing error instead.
    pub paths: Vec<OverlayPath>,
    /// True when the lookup fell back to last-resort paths.
    pub last_resort: bool,
}

impl PathAssignment {
    /// Wrap a decision-layer lookup into the unified shape.
    pub(crate) fn from_lookup(stream: StreamId, consumer: NodeId, lookup: PathLookup) -> Self {
        let producer = lookup
            .paths
            .first()
            .map(|p| p.producer())
            .unwrap_or(consumer);
        PathAssignment {
            stream,
            consumer,
            producer,
            paths: lookup.paths,
            last_resort: lookup.last_resort,
        }
    }

    /// The best candidate path.
    ///
    /// # Panics
    /// If `paths` is empty — the Brain never produces such an assignment.
    pub fn best(&self) -> &OverlayPath {
        &self.paths[0]
    }

    /// Overlay hops of the best candidate.
    pub fn hops(&self) -> usize {
        self.best().hops()
    }
}

/// The Path Decision module: owns the PIB and SIB.
#[derive(Debug, Default)]
pub struct PathDecision {
    /// The Path Information Base.
    pub pib: Pib,
    /// The Stream Information Base.
    pub sib: Sib,
    /// Path requests served (telemetry; drives Fig. 10a).
    pub requests_served: u64,
    /// Requests that fell back to last-resort paths (paper: ~2%).
    pub last_resort_served: u64,
}

impl PathDecision {
    /// Empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Algorithm 1 `GetPath(sid, DstNd)`: resolve the producer via the SIB,
    /// fetch candidates from the PIB, drop invalid ones, and fall back to
    /// last-resort paths when the list empties.
    ///
    /// `routing` and `topology` supply the constraint predicate and the
    /// last-resort construction.
    pub(crate) fn get_path(
        &mut self,
        stream: StreamId,
        consumer: NodeId,
        routing: &GlobalRouting,
        topology: &Topology,
        now: SimTime,
    ) -> Result<PathLookup> {
        self.requests_served += 1;
        let producer = self
            .sib
            .producer_of(stream)
            .ok_or_else(|| Error::not_found(format!("stream {stream} not in SIB")))?;

        if producer == consumer {
            // Zero-hop path: the consumer already hosts the stream ingest.
            return Ok(PathLookup {
                paths: vec![OverlayPath {
                    nodes: vec![producer],
                    weight: 0.0,
                    computed_at: now,
                    last_resort: false,
                }],
                last_resort: false,
            });
        }

        let still_valid = |nodes: &[NodeId]| routing.satisfies_constraints(topology, nodes);
        let candidates = self
            .pib
            .lookup_if(producer, consumer, still_valid)
            .unwrap_or_default();

        if !candidates.is_empty() {
            return Ok(PathLookup {
                paths: candidates,
                last_resort: false,
            });
        }

        // Last resort (§4.3): producer → reserved relay → consumer.
        let lr = routing.last_resort_paths(topology, producer, consumer, now);
        if lr.is_empty() {
            return Err(Error::exhausted(format!(
                "no path from {producer} to {consumer}"
            )));
        }
        self.last_resort_served += 1;
        Ok(PathLookup {
            paths: lr.into_iter().take(routing.config().k).collect(),
            last_resort: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingConfig;
    use livenet_topology::{GeoConfig, GeoTopology};

    struct Fixture {
        topology: Topology,
        routing: GlobalRouting,
        decision: PathDecision,
        nodes: Vec<NodeId>,
    }

    fn fixture(seed: u64) -> Fixture {
        let g = GeoTopology::generate(&GeoConfig::tiny(seed));
        let topology = g.topology;
        let routing = GlobalRouting::new(RoutingConfig::default());
        let mut decision = PathDecision::new();
        routing.compute_into(&topology, SimTime::ZERO, &mut decision.pib);
        let nodes: Vec<NodeId> = topology.routable_node_ids().collect();
        Fixture {
            topology,
            routing,
            decision,
            nodes,
        }
    }

    #[test]
    fn lookup_returns_up_to_k_paths_best_first() {
        let mut f = fixture(1);
        let s = StreamId::new(5);
        f.decision.sib.register(s, f.nodes[0]);
        let r = f
            .decision
            .get_path(s, f.nodes[4], &f.routing, &f.topology, SimTime::ZERO)
            .unwrap();
        assert!(!r.last_resort);
        assert!(!r.paths.is_empty() && r.paths.len() <= 3);
        for w in r.paths.windows(2) {
            assert!(w[0].weight <= w[1].weight);
        }
        assert_eq!(r.paths[0].producer(), f.nodes[0]);
        assert_eq!(r.paths[0].consumer(), f.nodes[4]);
    }

    #[test]
    fn unknown_stream_errors() {
        let mut f = fixture(2);
        let err = f
            .decision
            .get_path(
                StreamId::new(99),
                f.nodes[0],
                &f.routing,
                &f.topology,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, Error::NotFound(_)));
    }

    #[test]
    fn producer_equals_consumer_gives_zero_hop() {
        let mut f = fixture(3);
        let s = StreamId::new(5);
        f.decision.sib.register(s, f.nodes[2]);
        let r = f
            .decision
            .get_path(s, f.nodes[2], &f.routing, &f.topology, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.paths.len(), 1);
        assert_eq!(r.paths[0].hops(), 0);
    }

    #[test]
    fn falls_back_to_last_resort_when_candidates_invalidated() {
        let mut f = fixture(4);
        let s = StreamId::new(5);
        let (src, dst) = (f.nodes[0], f.nodes[3]);
        f.decision.sib.register(s, src);
        // Invalidate by overloading the producer's links in the *topology*
        // (constraint check kills every normal path from src).
        let targets: Vec<NodeId> = f.topology.routable_node_ids().collect();
        for t in targets {
            if t != src {
                if let Some(l) = f.topology.link_mut(src, t) {
                    l.utilization = 0.95;
                }
            }
        }
        // Last-resort links from src stay healthy (they're to LR nodes —
        // also overloaded above? LR nodes are not routable; set them back).
        let lrs: Vec<NodeId> = f.topology.last_resort_ids().collect();
        for lr in &lrs {
            if let Some(l) = f.topology.link_mut(src, *lr) {
                l.utilization = 0.0;
            }
        }
        let r = f
            .decision
            .get_path(s, dst, &f.routing, &f.topology, SimTime::ZERO)
            .unwrap();
        assert!(r.last_resort);
        assert_eq!(r.paths[0].hops(), 2);
        assert!(lrs.contains(&r.paths[0].nodes[1]));
        assert_eq!(f.decision.last_resort_served, 1);
    }

    #[test]
    fn request_counters_track() {
        let mut f = fixture(5);
        let s = StreamId::new(1);
        f.decision.sib.register(s, f.nodes[0]);
        for i in 1..4 {
            let dst = f.nodes[i];
            f.decision
                .get_path(s, dst, &f.routing, &f.topology, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(f.decision.requests_served, 3);
        assert_eq!(f.decision.last_resort_served, 0);
    }
}
