//! The Streaming Brain facade.
//!
//! Ties Global Discovery, Global Routing, Path Decision and Stream
//! Management together behind one API, the way Fig. 4 wires the modules:
//! reports flow in, the PIB refreshes every 10 minutes, path requests are
//! served from the PIB with overload filtering, and popular broadcasters
//! get their paths prefetched to all nodes.

use crate::decision::{PathAssignment, PathDecision};
use crate::discovery::{GlobalDiscovery, OverloadAlarm};
use crate::routing::{GlobalRouting, RoutingConfig};
use livenet_telemetry::{ids, MetricSink};
use livenet_topology::{NodeReport, Topology};
use livenet_types::{NodeId, Result, SimDuration, SimTime, StreamId};
use std::collections::BTreeSet;

/// Brain-level configuration.
#[derive(Debug, Clone, Default)]
pub struct BrainConfig {
    /// Routing parameters (K, hop limit, weight params, period).
    pub routing: RoutingConfig,
}

/// The logically centralized controller.
#[derive(Debug)]
pub struct StreamingBrain {
    topology: Topology,
    routing: GlobalRouting,
    discovery: GlobalDiscovery,
    decision: PathDecision,
    popular: BTreeSet<StreamId>,
    last_recompute: Option<SimTime>,
    /// Completed recompute rounds (telemetry).
    pub recompute_rounds: u64,
    /// Producer rehome operations performed (telemetry, §7.1).
    pub rehomes: u64,
    /// KSP path entries computed across all recompute rounds (work proxy).
    pub ksp_paths_computed: u64,
    /// Node-failed notifications processed.
    pub nodes_failed: u64,
    /// Node-recovered notifications processed.
    pub nodes_recovered: u64,
}

impl StreamingBrain {
    /// New brain over an initial topology; computes the first PIB at t=0.
    pub fn new(topology: Topology, config: BrainConfig) -> Self {
        let routing = GlobalRouting::new(config.routing);
        let mut brain = StreamingBrain {
            topology,
            routing,
            discovery: GlobalDiscovery::new(),
            decision: PathDecision::new(),
            popular: BTreeSet::new(),
            last_recompute: None,
            recompute_rounds: 0,
            rehomes: 0,
            ksp_paths_computed: 0,
            nodes_failed: 0,
            nodes_recovered: 0,
        };
        brain.force_recompute(SimTime::ZERO);
        brain
    }

    /// The working topology (the Brain's latest view).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Scoped mutation of the Brain's working topology.
    ///
    /// Runs `f` against the topology, then invalidates the routing state
    /// derived from the old topology by recomputing the PIB in place (at
    /// the last recompute's timestamp, so the 10-minute periodic schedule
    /// is unaffected). This replaces the removed `topology_mut` accessor,
    /// which let callers edit links/nodes while stale paths kept serving.
    pub(crate) fn update_topology<R>(&mut self, f: impl FnOnce(&mut Topology) -> R) -> R {
        let out = f(&mut self.topology);
        let at = self.last_recompute.unwrap_or(SimTime::ZERO);
        self.force_recompute(at);
        out
    }

    /// Routing module (constraint predicate, config).
    pub fn routing(&self) -> &GlobalRouting {
        &self.routing
    }

    /// Path Decision module (telemetry counters).
    pub fn decision(&self) -> &PathDecision {
        &self.decision
    }

    /// Discovery module (alarm counters).
    pub fn discovery(&self) -> &GlobalDiscovery {
        &self.discovery
    }

    /// Export the Brain's lifetime counters — the Path Decision log
    /// analogue (§6.1) — into a metric sink.  Counters are cumulative
    /// totals, so record into a sink that has not seen this brain before
    /// (e.g. a per-run [`livenet_telemetry::TelemetryHub`]).
    pub fn record_telemetry(&self, sink: &mut impl MetricSink) {
        sink.add(ids::BRAIN_RECOMPUTE_ROUNDS, self.recompute_rounds);
        sink.add(ids::BRAIN_KSP_PATHS, self.ksp_paths_computed);
        sink.add(ids::BRAIN_REHOMES, self.rehomes);
        sink.add(ids::BRAIN_NODE_FAILED, self.nodes_failed);
        sink.add(ids::BRAIN_NODE_RECOVERED, self.nodes_recovered);
        sink.add(ids::BRAIN_REQUESTS, self.decision.requests_served);
        sink.add(ids::BRAIN_LAST_RESORT, self.decision.last_resort_served);
        let unknown = self.discovery.unknown_keys;
        if unknown > 0 {
            sink.add(ids::BRAIN_UNKNOWN_KEYS, unknown);
        }
    }

    /// Absorb one node report: writes its measurements into the working
    /// topology (newest wins per key) and handles any implied overload
    /// alarms (PIB invalidation).
    pub fn absorb_report(&mut self, report: &NodeReport) -> Vec<OverloadAlarm> {
        self.discovery
            .absorb_report(report, &mut self.topology, &mut self.decision.pib)
    }

    /// Handle an explicit real-time overload alarm.
    pub fn overload_alarm(&mut self, alarm: OverloadAlarm) -> usize {
        self.discovery.handle_alarm(alarm, &mut self.decision.pib)
    }

    /// Recompute the PIB if the 10-minute period elapsed. Returns true when
    /// a recompute ran.
    pub fn maybe_recompute(&mut self, now: SimTime) -> bool {
        let period = SimDuration::from_secs(self.routing.config().period_secs);
        let due = match self.last_recompute {
            None => true,
            Some(last) => now.saturating_since(last) >= period,
        };
        if due {
            self.force_recompute(now);
        }
        due
    }

    /// Unconditionally recompute the PIB from the current topology, in
    /// place.
    pub fn force_recompute(&mut self, now: SimTime) {
        self.routing
            .compute_into(&self.topology, now, &mut self.decision.pib);
        self.ksp_paths_computed += self.decision.pib.total_paths() as u64;
        self.last_recompute = Some(now);
        self.recompute_rounds += 1;
    }

    /// Stream Management: a producer registered a new upload (§4.1).
    pub fn register_stream(&mut self, stream: StreamId, producer: NodeId) {
        self.decision.sib.register(stream, producer);
    }

    /// Broadcaster mobility (§7.1): the broadcaster moved to a new
    /// producer node. The SIB re-homes the stream (new viewers route to
    /// the new producer) and the best path from the new producer to the
    /// old one is returned, so the driver can instruct the old producer to
    /// subscribe to the new one — existing overlay paths stay intact.
    pub fn rehome_producer(
        &mut self,
        stream: StreamId,
        new_producer: NodeId,
        now: SimTime,
    ) -> Result<PathAssignment> {
        let old = self
            .decision
            .sib
            .producer_of(stream)
            .ok_or_else(|| livenet_types::Error::not_found(format!("stream {stream}")))?;
        self.decision.sib.register(stream, new_producer);
        self.rehomes += 1;
        // Path from the NEW producer to the OLD one (the old producer acts
        // as a consumer of the re-homed stream).
        self.path_request(stream, old, now)
    }

    // ------------------------------------------------------------------
    // Failure handling (§6.5, §7.2): mark elements down and recompute
    // around them via the scoped topology update, so every later path
    // request — and the rehoming of streams produced on dead nodes —
    // avoids the failed element until it recovers.
    // ------------------------------------------------------------------

    /// A node was observed dead (missed reports / operator signal): mark
    /// it down and rebuild the PIB around it.
    pub fn node_failed(&mut self, node: NodeId) {
        self.nodes_failed += 1;
        self.update_topology(|t| t.set_node_up(node, false));
    }

    /// A failed node came back; paths may use it again.
    pub fn node_recovered(&mut self, node: NodeId) {
        self.nodes_recovered += 1;
        self.update_topology(|t| t.set_node_up(node, true));
    }

    /// Both directions of a link failed.
    pub fn link_failed(&mut self, a: NodeId, b: NodeId) {
        self.update_topology(|t| t.set_duplex_up(a, b, false));
    }

    /// A failed link recovered.
    pub fn link_recovered(&mut self, a: NodeId, b: NodeId) {
        self.update_topology(|t| t.set_duplex_up(a, b, true));
    }

    /// A whole region (country) went dark — the §6.5 Double-12 outage
    /// scenario. Every node there goes down in ONE recompute. Returns the
    /// affected node ids (deterministic order) so the driver can rehome
    /// or tear down the streams produced there.
    pub fn region_failed(&mut self, country: u32) -> Vec<NodeId> {
        self.update_topology(|t| {
            let victims: Vec<NodeId> = t.nodes_in_country(country).collect();
            for &n in &victims {
                t.set_node_up(n, false);
            }
            victims
        })
    }

    /// The region's nodes recovered.
    pub fn region_recovered(&mut self, country: u32) -> Vec<NodeId> {
        self.update_topology(|t| {
            let back: Vec<NodeId> = t.nodes_in_country(country).collect();
            for &n in &back {
                t.set_node_up(n, true);
            }
            back
        })
    }

    /// Streams currently produced on `node` (deterministic order) — the
    /// set that needs rehoming when the node dies.
    pub fn streams_on(&self, node: NodeId) -> Vec<StreamId> {
        let mut streams: Vec<StreamId> = self
            .decision
            .sib
            .iter()
            .filter(|&(_, p)| p == node)
            .map(|(s, _)| s)
            .collect();
        // The SIB is a HashMap; callers (fault rehoming) need a
        // deterministic order.
        streams.sort_unstable();
        streams
    }

    /// Stream Management: a stream ended.
    pub fn unregister_stream(&mut self, stream: StreamId) {
        self.decision.sib.unregister(stream);
        self.popular.remove(&stream);
    }

    /// Producer currently registered for a stream.
    pub fn producer_of(&self, stream: StreamId) -> Option<NodeId> {
        self.decision.sib.producer_of(stream)
    }

    /// Serve a path request from a consumer node (Algorithm 1 `GetPath`).
    ///
    /// Returns the unified [`PathAssignment`] shape shared with
    /// [`Self::prefetch_paths`] and [`Self::rehome_producer`].
    pub fn path_request(
        &mut self,
        stream: StreamId,
        consumer: NodeId,
        now: SimTime,
    ) -> Result<PathAssignment> {
        let lookup =
            self.decision
                .get_path(stream, consumer, &self.routing, &self.topology, now)?;
        Ok(PathAssignment::from_lookup(stream, consumer, lookup))
    }

    /// Mark a broadcaster's stream as popular (historical viewing stats or
    /// advance notice of a campaign, §4.4 footnote 7).
    pub fn mark_popular(&mut self, stream: StreamId) {
        self.popular.insert(stream);
    }

    /// Build the proactive prefetch set for a popular stream: the best path
    /// to *every* routable node, pushed before any viewer arrives (§4.4).
    ///
    /// Each entry carries its consumer inside the [`PathAssignment`] — the
    /// same shape [`Self::path_request`] serves on demand.
    pub fn prefetch_paths(&mut self, stream: StreamId, now: SimTime) -> Vec<PathAssignment> {
        if !self.popular.contains(&stream) {
            return Vec::new();
        }
        let consumers: Vec<NodeId> = self.topology.routable_node_ids().collect();
        let mut out = Vec::new();
        for consumer in consumers {
            if let Ok(lookup) =
                self.decision
                    .get_path(stream, consumer, &self.routing, &self.topology, now)
            {
                out.push(PathAssignment::from_lookup(stream, consumer, lookup));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::{GeoConfig, GeoTopology, LinkReport};
    use livenet_types::SimDuration;

    fn brain(seed: u64) -> (StreamingBrain, Vec<NodeId>) {
        let g = GeoTopology::generate(&GeoConfig::tiny(seed));
        let nodes: Vec<NodeId> = g.topology.routable_node_ids().collect();
        (
            StreamingBrain::new(g.topology, BrainConfig::default()),
            nodes,
        )
    }

    #[test]
    fn record_telemetry_exports_lifetime_counters() {
        let (mut b, nodes) = brain(6);
        let s = StreamId::new(1);
        b.register_stream(s, nodes[0]);
        b.path_request(s, nodes[1], SimTime::ZERO).unwrap();
        b.rehome_producer(s, nodes[2], SimTime::ZERO).unwrap();
        b.node_failed(nodes[3]);
        b.node_recovered(nodes[3]);
        let mut hub = livenet_telemetry::TelemetryHub::new();
        b.record_telemetry(&mut hub);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("brain.recompute_rounds"), b.recompute_rounds);
        assert_eq!(snap.counter("brain.rehomes"), 1);
        assert_eq!(snap.counter("brain.node_failed"), 1);
        assert_eq!(snap.counter("brain.node_recovered"), 1);
        assert_eq!(
            snap.counter("brain.requests_served"),
            b.decision().requests_served
        );
        assert!(snap.counter("brain.ksp_paths_computed") > 0);
        // A drop counter is recorded once something was dropped.
        assert!(!snap.counters.iter().any(|(n, _)| n == "brain.unknown_keys"));
        b.absorb_report(&NodeReport {
            node: NodeId::new(u64::MAX),
            at: SimTime::from_secs(60),
            utilization: 0.5,
            links: vec![],
        });
        let mut hub = livenet_telemetry::TelemetryHub::new();
        b.record_telemetry(&mut hub);
        assert_eq!(hub.snapshot().counter("brain.unknown_keys"), 1);
    }

    #[test]
    fn initial_pib_is_populated() {
        let (b, nodes) = brain(1);
        let n = nodes.len();
        assert_eq!(b.decision().pib.len(), n * (n - 1));
        assert_eq!(b.recompute_rounds, 1);
    }

    #[test]
    fn periodic_recompute_respects_period() {
        let (mut b, _) = brain(2);
        assert!(!b.maybe_recompute(SimTime::from_secs(599)));
        assert!(b.maybe_recompute(SimTime::from_secs(600)));
        assert_eq!(b.recompute_rounds, 2);
        assert!(!b.maybe_recompute(SimTime::from_secs(700)));
    }

    #[test]
    fn stream_lifecycle_and_path_request() {
        let (mut b, nodes) = brain(3);
        let s = StreamId::new(10);
        b.register_stream(s, nodes[0]);
        assert_eq!(b.producer_of(s), Some(nodes[0]));
        let r = b.path_request(s, nodes[5], SimTime::ZERO).unwrap();
        assert_eq!(r.paths[0].producer(), nodes[0]);
        b.unregister_stream(s);
        assert!(b.path_request(s, nodes[5], SimTime::ZERO).is_err());
    }

    #[test]
    fn overload_report_invalidates_then_recompute_heals() {
        let (mut b, nodes) = brain(4);
        let victim = nodes[1];
        let total_before = b.decision().pib.total_paths();
        let report = NodeReport {
            node: victim,
            at: SimTime::from_secs(60),
            utilization: 0.9,
            links: vec![],
        };
        let alarms = b.absorb_report(&report);
        assert_eq!(alarms.len(), 1);
        assert!(b.decision().pib.total_paths() < total_before);
        // The working topology now sees the node loaded; recompute avoids it.
        b.force_recompute(SimTime::from_secs(120));
        for (_, paths) in b.decision().pib.iter() {
            for p in paths {
                assert!(
                    !p.contains_node(victim) || p.producer() == victim || p.consumer() == victim
                );
            }
        }
    }

    #[test]
    fn link_report_updates_working_topology() {
        let (mut b, nodes) = brain(5);
        let report = NodeReport {
            node: nodes[0],
            at: SimTime::from_secs(60),
            utilization: 0.2,
            links: vec![LinkReport {
                to: nodes[1],
                rtt: SimDuration::from_millis(123),
                loss: 0.004,
                utilization: 0.5,
                from_transport: true,
            }],
        };
        b.absorb_report(&report);
        let l = b.topology().link(nodes[0], nodes[1]).unwrap();
        assert_eq!(l.rtt, SimDuration::from_millis(123));
        assert_eq!(l.loss, 0.004);
    }

    /// A measurement that is not a number makes its link unusable, in
    /// every build profile. It used to reach `WeightedGraph::new`, whose
    /// `debug_assert` (`bad edge weight NaN`) panicked this test profile
    /// while a release build dropped the link.
    #[test]
    fn non_finite_measurement_drops_its_link_and_nothing_else() {
        let (mut expected, nodes) = brain(14);
        let (a, b) = (nodes[0], nodes[1]);
        expected.update_topology(|t| t.set_link_up(a, b, false));
        let rtt = expected.topology().link(a, b).unwrap().rtt;
        let report = |node, utilization, links| NodeReport {
            node,
            at: SimTime::from_secs(60),
            utilization,
            links,
        };
        let link = |loss, utilization| LinkReport {
            to: b,
            rtt,
            loss,
            utilization,
            from_transport: true,
        };
        let nan = f64::NAN;
        let cases = [
            vec![report(a, 0.0, vec![link(nan, 0.0)])],
            // Eq. 2's `u_AB` is a max, which skips a NaN operand: the load
            // is NaN only when the link and both its ends report one.
            vec![report(a, nan, vec![link(0.0, nan)]), report(b, nan, vec![])],
        ];
        for reports in cases {
            let (mut brain, _) = brain(14);
            for r in &reports {
                assert!(brain.absorb_report(r).is_empty());
            }
            brain.force_recompute(SimTime::ZERO);
            let pib = &brain.decision().pib;
            assert_eq!(pib.len(), expected.decision().pib.len());
            for ((src, dst), paths) in pib.iter() {
                assert!(paths.iter().all(|p| !p.contains_link(a, b)));
                assert_eq!(Some(paths), expected.decision().pib.lookup(src, dst));
            }
        }
        // Loss that is infinite or negative is clamped into [0, 1]: the
        // link stays usable.
        let (mut brain, _) = brain(14);
        for loss in [f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let weight = crate::link_weight(rtt, loss, 0.0, Default::default());
            assert!(weight.is_finite() && weight >= 0.0, "loss {loss}: {weight}");
            brain.absorb_report(&report(a, 0.0, vec![link(loss, 0.0)]));
            brain.force_recompute(SimTime::ZERO);
            let graph = brain.routing().build_graph(brain.topology());
            assert_eq!((graph.ids[0], graph.ids[1]), (a, b));
            assert!(graph.adj[0].contains(&(1, weight)), "loss {loss}");
        }
    }

    #[test]
    fn prefetch_only_for_popular_streams() {
        let (mut b, nodes) = brain(6);
        let s = StreamId::new(77);
        b.register_stream(s, nodes[0]);
        assert!(b.prefetch_paths(s, SimTime::ZERO).is_empty());
        b.mark_popular(s);
        let prefetched = b.prefetch_paths(s, SimTime::ZERO);
        assert_eq!(prefetched.len(), nodes.len());
        // Every consumer gets a usable path (zero-hop for the producer),
        // stamped with its own consumer and the SIB producer.
        assert!(prefetched.iter().all(|a| !a.paths.is_empty()));
        assert!(prefetched
            .iter()
            .all(|a| a.stream == s && a.producer == nodes[0]));
        let consumers: BTreeSet<NodeId> = prefetched.iter().map(|a| a.consumer).collect();
        assert_eq!(consumers.len(), nodes.len());
    }

    #[test]
    fn update_topology_recomputes_routing_state() {
        let (mut b, nodes) = brain(9);
        let rounds_before = b.recompute_rounds;
        let s = StreamId::new(3);
        b.register_stream(s, nodes[0]);
        // Degrade every link out of an intermediate node so recomputed
        // paths route around it.
        let victim = nodes[1];
        let rtt = b.update_topology(|t| {
            let peers: Vec<NodeId> = t.routable_node_ids().collect();
            for p in peers {
                if p != victim {
                    if let Some(l) = t.link_mut(victim, p) {
                        l.utilization = 0.95;
                    }
                }
            }
            t.link(victim, nodes[0]).map(|l| l.rtt)
        });
        assert!(rtt.is_some());
        // The closure ran exactly once and the PIB was rebuilt on exit.
        assert_eq!(b.recompute_rounds, rounds_before + 1);
        for (_, paths) in b.decision().pib.iter() {
            for p in paths {
                assert!(
                    !p.contains_node(victim) || p.producer() == victim || p.consumer() == victim
                );
            }
        }
        // The periodic schedule is unaffected: the rebuild reused the last
        // recompute timestamp, so the next due time is unchanged.
        assert!(!b.maybe_recompute(SimTime::from_secs(599)));
        assert!(b.maybe_recompute(SimTime::from_secs(600)));
    }

    #[test]
    fn rehome_producer_updates_sib_and_returns_bridge_path() {
        let (mut b, nodes) = brain(8);
        let s = StreamId::new(5);
        b.register_stream(s, nodes[0]);
        let lookup = b.rehome_producer(s, nodes[3], SimTime::ZERO).unwrap();
        // SIB re-homed: new viewers resolve to the new producer.
        assert_eq!(b.producer_of(s), Some(nodes[3]));
        // The bridge path runs from the NEW producer to the OLD one.
        assert_eq!(lookup.paths[0].producer(), nodes[3]);
        assert_eq!(lookup.paths[0].consumer(), nodes[0]);
        // Unknown stream errors.
        assert!(b
            .rehome_producer(StreamId::new(99), nodes[1], SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn node_failure_reroutes_and_recovery_restores() {
        let (mut b, nodes) = brain(10);
        let victim = nodes[1];
        let rounds = b.recompute_rounds;
        b.node_failed(victim);
        assert_eq!(b.recompute_rounds, rounds + 1);
        // No PIB path touches the dead node at all (it is not merely
        // deprioritized — it is out of the routable set).
        for (_, paths) in b.decision().pib.iter() {
            for p in paths {
                assert!(!p.contains_node(victim), "path {p:?} crosses dead node");
            }
        }
        // A path request between live nodes still succeeds.
        let s = StreamId::new(4);
        b.register_stream(s, nodes[0]);
        let r = b.path_request(s, nodes[4], SimTime::ZERO).unwrap();
        assert!(r.paths.iter().all(|p| !p.contains_node(victim)));
        // Recovery restores the full mesh.
        b.node_recovered(victim);
        let n = b.topology().routable_node_ids().count();
        assert_eq!(b.decision().pib.len(), n * (n - 1));
    }

    #[test]
    fn link_failure_routes_around_and_back() {
        let (mut b, nodes) = brain(11);
        let s = StreamId::new(6);
        b.register_stream(s, nodes[0]);
        let direct = b.topology().link(nodes[0], nodes[2]).is_some();
        b.link_failed(nodes[0], nodes[2]);
        assert!(!b.topology().link_is_up(nodes[0], nodes[2]));
        // Paths between the endpoints never use the dead link directly.
        if direct {
            let r = b.path_request(s, nodes[2], SimTime::ZERO).unwrap();
            for p in &r.paths {
                for w in p.nodes.windows(2) {
                    assert!(
                        !(w[0] == nodes[0] && w[1] == nodes[2]),
                        "path uses the failed link"
                    );
                }
            }
        }
        b.link_recovered(nodes[0], nodes[2]);
        assert_eq!(b.topology().link_is_up(nodes[0], nodes[2]), direct);
    }

    #[test]
    fn region_failure_downs_every_node_in_country() {
        let (mut b, _) = brain(12);
        let country = b.topology().nodes().next().unwrap().country;
        let victims = b.region_failed(country);
        assert!(!victims.is_empty());
        for &v in &victims {
            assert!(!b.topology().node_is_up(v));
        }
        for (_, paths) in b.decision().pib.iter() {
            for p in paths {
                for &v in &victims {
                    assert!(!p.contains_node(v));
                }
            }
        }
        let back = b.region_recovered(country);
        assert_eq!(victims, back);
        for &v in &back {
            assert!(b.topology().node_is_up(v));
        }
    }

    #[test]
    fn streams_on_lists_dead_nodes_streams_for_rehoming() {
        let (mut b, nodes) = brain(13);
        let s1 = StreamId::new(1);
        let s2 = StreamId::new(2);
        let s3 = StreamId::new(3);
        b.register_stream(s1, nodes[0]);
        b.register_stream(s2, nodes[1]);
        b.register_stream(s3, nodes[0]);
        assert_eq!(b.streams_on(nodes[0]), vec![s1, s3]);
        assert_eq!(b.streams_on(nodes[1]), vec![s2]);
        // Failure + rehoming flow: the dead producer's streams move.
        b.node_failed(nodes[0]);
        for s in b.streams_on(nodes[0]) {
            // SIB rehoming happens before the bridge-path lookup, which may
            // legitimately fail while the old producer is still down.
            let _ = b.rehome_producer(s, nodes[2], SimTime::ZERO);
        }
        assert_eq!(b.producer_of(s1), Some(nodes[2]));
        assert_eq!(b.producer_of(s3), Some(nodes[2]));
        assert!(b.streams_on(nodes[0]).is_empty());
    }

    #[test]
    fn unregister_clears_popular_flag() {
        let (mut b, nodes) = brain(7);
        let s = StreamId::new(8);
        b.register_stream(s, nodes[0]);
        b.mark_popular(s);
        assert!(!b.prefetch_paths(s, SimTime::ZERO).is_empty());
        b.unregister_stream(s);
        // A stream that comes back under the same id is not prefetched.
        b.register_stream(s, nodes[0]);
        assert!(b.prefetch_paths(s, SimTime::ZERO).is_empty());
    }
}
