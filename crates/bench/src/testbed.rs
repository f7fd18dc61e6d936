//! `exp wire`'s harness: a complete LiveNet overlay on 127.0.0.1.
//!
//! Spawns the brain + N [`UdpOverlayNode`]s wired along a configured edge
//! list, drives a `livenet-media` [`VideoEncoder`] at wall-clock pace into
//! the producer node, and attaches real-socket viewers. As in `Scenario`,
//! the source ingests each frame at its capture instant; every node paces
//! each of its subscribers through its own pacer. Each viewer is a
//! `livenet-sim` [`ViewerClient`] — the same client the emulator's
//! `Scenario` drives — behind a socket: the task here only waits, binds,
//! attaches, feeds it received datagrams, fires its playback ticks, and
//! sends its RTCP receiver reports plus keepalives back, the client-sourced
//! half of the datapath the emulator models with passive clients. Every
//! node records into one [`SharedTelemetry`] hub, so a run ends with a
//! single snapshot spanning the wire datapath and the node cores.
//!
//! A [`TestbedConfig`] is a plain struct: start from
//! [`TestbedConfig::geo_fleet`], change fields with struct-update syntax,
//! and [`run`] validates it — the one gate. `geo_fleet` grows the overlay
//! to a 50+ node geography: region-clustered edge nodes around a full-mesh
//! core of per-country hubs, edges and RTTs taken from a `livenet-topology`
//! [`GeoTopology`] rather than hand-wired, and viewer arrival times drawn
//! from `livenet-sim`'s Taobao-shaped workload and compressed into the
//! broadcast window.
//!
//! Because the client is the emulator's, the harness measures the same
//! quantities on real sockets: startup is playback start after I-frame
//! sync, stalls and the E2E delay field come from the same playback model,
//! and delivery is counted by RTP timestamp against what the broadcaster
//! ingested.

use bytes::Bytes;
use livenet_brain::{BrainConfig, StreamingBrain};
use livenet_cc::RateDecisionStats;
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeConfig, OverlayMsg};
use livenet_packet::RtcpPacket;
use livenet_sim::workload::{Workload, WorkloadConfig};
use livenet_sim::{ViewerClient, ViewerRun};
use livenet_telemetry::{ids, MetricSink, Snapshot};
use livenet_topology::{GeoConfig, GeoTopology, LinkMetrics, NodeInfo, Topology};
use livenet_transport::{
    BatchBackend, BatchSocket, NodeCommand, NodeHandle, RecvBatch, SendDatagram, SharedTelemetry,
    UdpOverlayNode, WallClock, WireNodeConfig, MAX_BATCH,
};
use livenet_types::{Bandwidth, ClientId, Error, NodeId, SimDuration, SimTime, StreamId};
use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

/// Most overlay nodes one loopback harness will spawn. Each node binds
/// one socket and runs its own event loop on the single-threaded
/// executor; past a few hundred the harness stops resembling a testbed.
const MAX_TESTBED_NODES: usize = 256;

/// Most concurrent viewers one harness run will drive.
const MAX_TESTBED_VIEWERS: usize = 1024;

/// Per-datagram payload cap on every node (`NodeConfig::max_datagram_bytes`,
/// one value so the whole overlay agrees).
const MAX_DATAGRAM_BYTES: usize = 1400;

/// The broadcast stream.
const STREAM: StreamId = StreamId(900);

/// Video bitrate of the source.
pub(crate) const BITRATE: Bandwidth = Bandwidth::from_kbps(400);

/// Viewer receiver-report cadence; a keepalive goes out at half of it
/// when no report is due.
const RR_INTERVAL: Duration = Duration::from_millis(500);

/// Wall-clock time between wiring and attach and the first frame, letting
/// reverse-path subscriptions establish.
const SETTLE: Duration = Duration::from_millis(400);

/// Downlink estimate every viewer passes to `ClientAttach`.
const DOWNLINK: Bandwidth = Bandwidth::from_mbps(50);

/// One real-socket viewer in the harness.
#[derive(Debug, Clone)]
pub(crate) struct WireViewer {
    /// Index (into the harness node list) of the consumer node.
    pub(crate) node: usize,
    /// When set, receiver reports sent after the given wall-clock offset
    /// claim this loss fraction — a synthetic congestion signal used to
    /// demonstrate client feedback driving the sender-side cc loop.
    pub(crate) lossy_rr: Option<(Duration, f64)>,
    /// Wall-clock delay from broadcast start to this viewer's attach.
    /// Zero means "attached before the first frame" (the harness settles
    /// the subscription during the settle window).
    pub(crate) join_after: Duration,
}

impl WireViewer {
    /// A well-behaved viewer at `node` ([`TestbedConfig::validate`] checks
    /// the index).
    fn at(node: usize) -> Self {
        WireViewer {
            node,
            lossy_rr: None,
            join_after: Duration::ZERO,
        }
    }

    /// Stagger this viewer's attach into the broadcast window.
    fn join_after(mut self, after: Duration) -> Self {
        self.join_after = after;
        self
    }
}

/// Harness configuration: topology, viewers and run length, one validated
/// surface. The source's stream, bitrate and GoP, the settle window and
/// the viewers' report cadence and downlink are constants.
///
/// Start from [`TestbedConfig::geo_fleet`] and set fields directly; [`run`]
/// calls [`TestbedConfig::validate`] before spawning anything.
#[derive(Debug, Clone)]
pub(crate) struct TestbedConfig {
    /// Number of overlay nodes (ids are assigned 1..=nodes).
    pub(crate) nodes: usize,
    /// Duplex overlay edges as `(a, b, rtt)` node-index pairs.
    pub(crate) edges: Vec<(usize, usize, SimDuration)>,
    /// Country of each node (indexed like the node list); used for
    /// per-region reporting. Empty means "all country 0".
    pub(crate) countries: Vec<u32>,
    /// Index of the producer (broadcaster ingest) node.
    pub(crate) producer: usize,
    /// The viewers.
    pub(crate) viewers: Vec<WireViewer>,
    /// Wall-clock broadcast length.
    pub(crate) broadcast: Duration,
    /// Extra wall-clock time viewers keep draining after the broadcast.
    pub(crate) drain: Duration,
}

impl TestbedConfig {
    /// Check the whole surface; every violation is `Error::InvalidConfig`.
    fn validate(&self) -> livenet_types::Result<()> {
        if self.nodes == 0 || self.nodes > MAX_TESTBED_NODES {
            return Err(Error::invalid_config(format!(
                "nodes must be in 1..={MAX_TESTBED_NODES}, got {}",
                self.nodes
            )));
        }
        if self.producer >= self.nodes {
            return Err(Error::invalid_config(format!(
                "producer index {} out of range for {} nodes",
                self.producer, self.nodes
            )));
        }
        for &(a, b, _) in &self.edges {
            if a >= self.nodes || b >= self.nodes {
                return Err(Error::invalid_config(format!(
                    "edge ({a}, {b}) out of range for {} nodes",
                    self.nodes
                )));
            }
            if a == b {
                return Err(Error::invalid_config(format!("self-edge at node {a}")));
            }
        }
        if !self.countries.is_empty() && self.countries.len() != self.nodes {
            return Err(Error::invalid_config(format!(
                "countries has {} entries for {} nodes",
                self.countries.len(),
                self.nodes
            )));
        }
        if self.viewers.is_empty() || self.viewers.len() > MAX_TESTBED_VIEWERS {
            return Err(Error::invalid_config(format!(
                "viewers must be in 1..={MAX_TESTBED_VIEWERS}, got {}",
                self.viewers.len()
            )));
        }
        for (i, v) in self.viewers.iter().enumerate() {
            if v.node >= self.nodes {
                return Err(Error::invalid_config(format!(
                    "viewer {i} at node {} out of range for {} nodes",
                    v.node, self.nodes
                )));
            }
            if v.join_after > self.broadcast {
                return Err(Error::invalid_config(format!(
                    "viewer {i} joins {}ms after a {}ms broadcast",
                    v.join_after.as_millis(),
                    self.broadcast.as_millis()
                )));
            }
        }
        if self.broadcast.is_zero() {
            return Err(Error::invalid_config("broadcast length must be > 0"));
        }
        Ok(())
    }

    /// Country of node index `i` (0 when `countries` is unset).
    pub(crate) fn country_of(&self, i: usize) -> u32 {
        self.countries.get(i).copied().unwrap_or(0)
    }

    /// A 50+ node geography built from `livenet-topology` data.
    ///
    /// The wired overlay is the region-clustered shape of the paper's
    /// deployment rather than the generator's full mesh: per-country hub
    /// nodes (every country's first, well-peered node) form a full-mesh
    /// backbone core, each remaining edge node wires to `fanout` hubs
    /// (its own country's first, then nearby ones), and last-resort
    /// relays wire to every hub. Edge RTTs are the generated
    /// [`GeoTopology`] link metrics, so intra-country spokes are short
    /// and the backbone carries the long-haul delay.
    ///
    /// `viewer_count` viewer arrivals are drawn from the `livenet-sim`
    /// workload (`workload_seed` selects the replay): each session's
    /// country picks an edge node in that country and its Poisson
    /// arrival time is compressed into the first half of the broadcast
    /// window, so attach load ramps the way the fleet sim's does.
    pub(crate) fn geo_fleet(
        geo: &GeoConfig,
        viewer_count: usize,
        fanout: usize,
        workload_seed: u64,
    ) -> livenet_types::Result<TestbedConfig> {
        let broadcast = Duration::from_secs(6);
        if fanout == 0 || fanout > 8 {
            return Err(Error::invalid_config(format!(
                "geo_fleet fanout must be in 1..=8, got {fanout}"
            )));
        }
        if viewer_count == 0 || viewer_count > MAX_TESTBED_VIEWERS {
            return Err(Error::invalid_config(format!(
                "geo_fleet viewer count must be in 1..={MAX_TESTBED_VIEWERS}, \
                 got {viewer_count}"
            )));
        }
        let g = GeoTopology::generate(geo);
        let n = g.node_ids.len();
        if n > MAX_TESTBED_NODES {
            return Err(Error::invalid_config(format!(
                "geo config generates {n} nodes, cap is {MAX_TESTBED_NODES}"
            )));
        }
        let info: Vec<&NodeInfo> = g
            .node_ids
            .iter()
            .map(|&id| g.topology.node(id).expect("generated node"))
            .collect();
        let countries: Vec<u32> = info.iter().map(|i| i.country).collect();
        // One hub per country: the first (always well-peered) node.
        let mut hub_of_country: Vec<Option<usize>> = vec![None; geo.countries as usize];
        for (i, inf) in info.iter().enumerate() {
            if !inf.last_resort && hub_of_country[inf.country as usize].is_none() {
                hub_of_country[inf.country as usize] = Some(i);
            }
        }
        let hubs: Vec<usize> = hub_of_country.iter().filter_map(|&h| h).collect();
        let rtt_of = |a: usize, bx: usize| -> SimDuration {
            g.topology
                .link(g.node_ids[a], g.node_ids[bx])
                .expect("full-mesh generator links every pair")
                .rtt
        };
        let mut edges: Vec<(usize, usize, SimDuration)> = Vec::new();
        // Backbone: hub full mesh.
        for (hi, &a) in hubs.iter().enumerate() {
            for &bx in hubs.iter().skip(hi + 1) {
                edges.push((a, bx, rtt_of(a, bx)));
            }
        }
        // Spokes: every other node wires to `fanout` hubs, own country
        // first, then the closest foreign hubs (by generated RTT).
        for (i, inf) in info.iter().enumerate() {
            if hubs.contains(&i) {
                continue;
            }
            let mut targets: Vec<usize> = if inf.last_resort {
                hubs.clone()
            } else {
                let home = hub_of_country[inf.country as usize].expect("every country has a hub");
                let mut rest: Vec<usize> = hubs.iter().copied().filter(|&h| h != home).collect();
                rest.sort_by_key(|&x| rtt_of(i, x));
                let mut t = vec![home];
                t.extend(rest.into_iter().take(fanout - 1));
                t
            };
            targets.truncate(hubs.len());
            for h in targets {
                edges.push((i, h, rtt_of(i, h)));
            }
        }
        // Viewer arrivals: the fleet workload's Poisson/diurnal stream,
        // compressed into the first half of the broadcast so every viewer
        // still has a streaming phase to measure.
        let wl_cfg = WorkloadConfig {
            seed: workload_seed,
            ..WorkloadConfig::smoke(workload_seed)
        };
        let mut wl = Workload::new(wl_cfg, geo.countries);
        let mut sessions = Vec::with_capacity(viewer_count);
        while sessions.len() < viewer_count {
            match wl.next_session() {
                Some(s) => sessions.push(s),
                None => break,
            }
        }
        if sessions.len() < viewer_count {
            return Err(Error::invalid_config(format!(
                "workload horizon produced only {} of {viewer_count} arrivals",
                sessions.len()
            )));
        }
        let span = sessions
            .last()
            .map(|s| s.at.as_secs_f64())
            .filter(|&s| s > 0.0)
            .unwrap_or(1.0);
        let join_window = broadcast.as_secs_f64() * 0.5;
        // Per-country round-robin over that country's non-hub edge nodes
        // (hub fallback keeps single-node countries servable).
        let mut edge_nodes: Vec<Vec<usize>> = vec![Vec::new(); geo.countries as usize];
        for (i, inf) in info.iter().enumerate() {
            if !inf.last_resort && !hubs.contains(&i) {
                edge_nodes[inf.country as usize].push(i);
            }
        }
        let mut rr_cursor = vec![0usize; geo.countries as usize];
        let viewers: Vec<WireViewer> = sessions
            .iter()
            .map(|s| {
                let c = (s.viewer_country as usize) % edge_nodes.len();
                let pool = &edge_nodes[c];
                let node = if pool.is_empty() {
                    hub_of_country[c].expect("every country has a hub")
                } else {
                    let k = pool[rr_cursor[c] % pool.len()];
                    rr_cursor[c] += 1;
                    k
                };
                let after = s.at.as_secs_f64() / span * join_window;
                WireViewer::at(node).join_after(Duration::from_secs_f64(after))
            })
            .collect();
        Ok(TestbedConfig {
            nodes: n,
            edges,
            countries,
            producer: hubs[0],
            viewers,
            broadcast,
            drain: Duration::from_millis(1500),
        })
    }
}

/// What one viewer saw.
#[derive(Debug)]
pub(crate) struct ViewerReport {
    /// The client id used on the wire.
    client: ClientId,
    /// The consumer node the viewer attached to.
    node: NodeId,
    /// When (harness clock) the viewer attached; its client's request
    /// time, so `run.qoe.startup` and `run.first_packet` count from here.
    attach_at: SimTime,
    /// Frames the broadcaster ingested during this viewer's streaming
    /// phase (attach + playback startup → end of broadcast); filled by
    /// [`run`]. The denominator of [`ViewerReport::delivery`].
    expected_frames: u64,
    /// Of those frames, the ones the viewer completed, matched by RTP
    /// timestamp; filled by [`run`].
    delivered_frames: u64,
    /// Receiver reports the viewer's socket accepted.
    pub(crate) rr_sent: u64,
    /// What the viewer's client saw.
    pub(crate) run: ViewerRun,
}

impl ViewerReport {
    /// Streaming-phase delivery: the share of the frames broadcast while
    /// this viewer was playing that it completed; 1.0 when it was owed
    /// none (playback started after the last ingest).
    fn delivery(&self) -> f64 {
        if self.expected_frames == 0 {
            return 1.0;
        }
        self.delivered_frames as f64 / self.expected_frames as f64
    }
}

/// The outcome of one loopback run.
#[derive(Debug)]
pub(crate) struct WireRunReport {
    /// Frames the broadcaster ingested at the producer.
    pub(crate) frames_broadcast: u64,
    /// Per-viewer delivery and latency figures, in `TestbedConfig::viewers`
    /// order.
    pub(crate) viewers: Vec<ViewerReport>,
    /// Final pacing rate toward each client, from the consumer core, in
    /// the same order.
    pub(crate) client_rates: Vec<(ClientId, Option<Bandwidth>)>,
    /// Sender-side cc decision totals summed over every node core.
    pub(crate) cc: RateDecisionStats,
    /// Per-node cc decision totals, indexed by node list position.
    node_cc: Vec<(NodeId, RateDecisionStats)>,
    /// Country of each node, indexed by node list position.
    countries: Vec<u32>,
    /// Snapshot of the shared hub (transport counters, spans, core stats).
    pub(crate) telemetry: Snapshot,
}

impl WireRunReport {
    /// Streaming-phase delivery of the worst-off viewer.
    pub(crate) fn worst_delivery(&self) -> f64 {
        self.viewers
            .iter()
            .map(ViewerReport::delivery)
            .fold(1.0, f64::min)
    }

    /// Sum of cc rate decreases over the nodes of one country.
    pub(crate) fn cc_decreases_in_country(&self, country: u32) -> u64 {
        self.node_cc
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.countries.get(i).copied().unwrap_or(0) == country)
            .map(|(_, (_, s))| s.decreases)
            .sum()
    }
}

fn local() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback addr")
}

/// Everything one viewer task needs to join, watch, and report.
struct ViewerPlan {
    client: ClientId,
    /// The viewer's synthetic loss, as in [`WireViewer::lossy_rr`].
    lossy_rr: Option<(Duration, f64)>,
    node: NodeHandle,
    /// The Brain's producer-first path to the consumer (`None` at the
    /// producer itself).
    path: Option<Vec<NodeId>>,
    /// Wall-clock delay before attaching (zero = attach immediately; the
    /// harness then settles before media flows).
    attach_delay: Duration,
    deadline: tokio::time::Instant,
    clock: WallClock,
    telemetry: SharedTelemetry,
}

/// Run one full loopback overlay session and report what happened.
///
/// Config problems (including out-of-range viewer node indices, which
/// formerly panicked) surface as `Error::InvalidConfig`. Harness-level
/// failures (bind errors, a node dying mid-run) still panic: the callers
/// are `exp wire` and tests, where aborting loudly is right.
pub(crate) async fn run(cfg: TestbedConfig) -> livenet_types::Result<WireRunReport> {
    cfg.validate()?;
    let clock = WallClock::new();
    let telemetry = SharedTelemetry::new();
    let ids_v: Vec<NodeId> = (0..cfg.nodes).map(|i| NodeId::new(i as u64 + 1)).collect();

    // Brain: the same Topology/StreamingBrain the emulator uses, fed
    // exactly the wired edges (not the generator's full mesh), so every
    // path it hands out is routable on the harness overlay.
    let mut topo = Topology::new();
    for (i, &id) in ids_v.iter().enumerate() {
        topo.upsert_node(NodeInfo {
            id,
            country: cfg.country_of(i),
            capacity: Bandwidth::from_gbps(10),
            utilization: 0.1,
            last_resort: false,
            well_peered: true,
        });
    }
    for &(a, b, rtt) in &cfg.edges {
        topo.upsert_duplex(
            ids_v[a],
            ids_v[b],
            LinkMetrics::healthy(rtt, Bandwidth::from_gbps(10)),
        )
        .expect("edge endpoints were upserted above");
    }
    let mut brain = StreamingBrain::new(topo, BrainConfig::default());
    brain.register_stream(STREAM, ids_v[cfg.producer]);

    // Overlay nodes, all recording into one hub.
    let mut handles: Vec<NodeHandle> = Vec::new();
    let mut joins = Vec::new();
    for &id in &ids_v {
        let mut node = NodeConfig::new(id);
        node.max_datagram_bytes = MAX_DATAGRAM_BYTES;
        let (h, _events, join) = UdpOverlayNode::spawn_wire(
            WireNodeConfig::new(node),
            local(),
            clock,
            telemetry.clone(),
        )
        .await
        .expect("bind overlay node");
        handles.push(h);
        joins.push(join);
    }
    for &(a, b, rtt) in &cfg.edges {
        for (x, y) in [(a, b), (b, a)] {
            handles[x]
                .send(NodeCommand::AddPeer {
                    node: handles[y].id,
                    addr: handles[y].addr,
                    rtt,
                })
                .await
                .expect("node alive during wiring");
        }
    }
    handles[cfg.producer]
        .send(NodeCommand::RegisterProducer {
            stream: STREAM,
            ladder: None,
        })
        .await
        .expect("producer alive");

    // Viewers: each runs its whole session (delayed attach included) as
    // one task, so arrivals stagger like the workload says while the
    // broadcaster keeps ingesting. Nothing moves the Brain during a run, so
    // each viewer's path is asked for here, when the viewer is planned.
    let run_deadline = tokio::time::Instant::now() + SETTLE + cfg.broadcast + cfg.drain;
    let mut viewer_joins = Vec::new();
    for (vi, spec) in cfg.viewers.iter().enumerate() {
        let path = (spec.node != cfg.producer).then(|| {
            let assign = brain
                .path_request(STREAM, ids_v[spec.node], clock.now())
                .expect("brain finds a path in the configured topology");
            assign.paths[0].nodes.clone()
        });
        let plan = ViewerPlan {
            client: ClientId::new(vi as u64 + 1),
            lossy_rr: spec.lossy_rr,
            node: handles[spec.node].clone(),
            path,
            attach_delay: if spec.join_after.is_zero() {
                Duration::ZERO
            } else {
                SETTLE + spec.join_after
            },
            deadline: run_deadline,
            clock,
            telemetry: telemetry.clone(),
        };
        viewer_joins.push(tokio::spawn(viewer_session(plan)));
    }

    // Let the zero-join reverse-path subscriptions establish before media
    // flows.
    tokio::time::sleep(SETTLE).await;

    let ingests = broadcast(&cfg, clock, &handles[cfg.producer]).await;

    // Harvest viewers (they stop at their deadline), then the nodes.
    let mut viewers = Vec::new();
    for join in viewer_joins {
        viewers.push(join.await.expect("viewer task"));
    }
    for h in &handles {
        h.send(NodeCommand::Shutdown)
            .await
            .expect("node alive at shutdown");
    }
    let mut cores = Vec::new();
    for join in joins {
        cores.push(join.await.expect("node join"));
    }

    // Per-viewer delivery, by RTP timestamp: of the frames ingested from
    // attach + playback startup onward, the ones the viewer completed. A
    // GoP-cache burst ingested before the viewer attached is owed nothing.
    for v in &mut viewers {
        let from = v.attach_at + v.run.qoe.startup.unwrap_or(SimDuration::ZERO);
        let owed: BTreeSet<u32> = ingests
            .iter()
            .filter(|i| i.0 >= from)
            .map(|i| i.1)
            .collect();
        let completed: BTreeSet<u32> = v.run.frames.iter().map(|&(_, ts, _)| ts).collect();
        v.expected_frames = owed.len() as u64;
        v.delivered_frames = owed.intersection(&completed).count() as u64;
    }

    // Stage telemetry on the shared hub: the ids the fleet's session
    // records use, measured over real sockets.
    telemetry.with(|h| {
        for v in &viewers {
            if let Some(d) = v.run.first_packet {
                h.observe(ids::STAGE_FIRST_PACKET_MS, d.as_millis_f64());
            }
            if let Some(d) = v.run.qoe.startup {
                h.observe(ids::STAGE_STARTUP_MS, d.as_millis_f64());
            }
            if let Some(ms) = v.run.mean_delay_field_ms() {
                h.observe(ids::STAGE_STREAMING_MS, ms);
            }
        }
    });

    let client_rates = viewers
        .iter()
        .map(|v| {
            let core = cores
                .iter()
                .find(|c| c.id() == v.node)
                .expect("core for viewer node");
            (v.client, core.client_pacing_rate(v.client))
        })
        .collect();
    let mut cc = RateDecisionStats::default();
    let mut node_cc = Vec::with_capacity(cores.len());
    for core in &cores {
        let t = core.cc_decision_totals();
        cc.increases += t.increases;
        cc.holds += t.holds;
        cc.decreases += t.decreases;
        node_cc.push((core.id(), t));
    }
    let countries = (0..cfg.nodes).map(|i| cfg.country_of(i)).collect();

    Ok(WireRunReport {
        frames_broadcast: ingests.len() as u64,
        viewers,
        client_rates,
        cc,
        node_cc,
        countries,
        telemetry: telemetry.snapshot(),
    })
}

/// The broadcaster: encode at wall-clock pace and ingest each frame at the
/// producer the moment it is captured. Returns the ingest time and RTP
/// timestamp of every frame (the data for per-viewer delivery accounting).
async fn broadcast(
    cfg: &TestbedConfig,
    clock: WallClock,
    producer: &NodeHandle,
) -> Vec<(SimTime, u32)> {
    // The default GoP, as the emulator counterpart of `exp wire` streams.
    let gop = GopConfig::default();
    let mut encoder = VideoEncoder::new(STREAM, gop, BITRATE, clock.now());
    let interval = Duration::from_nanos(gop.frame_interval().as_nanos());
    let total = (cfg.broadcast.as_nanos() / interval.as_nanos()).max(1) as usize;
    let mut ingests = Vec::with_capacity(total);
    for _ in 0..total {
        let frame = encoder.next_frame();
        let rtp_timestamp = frame.rtp_timestamp;
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        producer
            .send(NodeCommand::Ingest { frame, payload })
            .await
            .expect("producer alive during broadcast");
        ingests.push((clock.now(), rtp_timestamp));
        tokio::time::sleep(interval).await;
    }
    ingests
}

/// One viewer's whole session: wait out the staggered join, bind, attach
/// along its planned path, then feed every datagram to a [`ViewerClient`],
/// fire the playback ticks it arms as they fall due, and send its receiver
/// reports and keepalives. RX goes through the node driver's batched
/// [`BatchSocket`] path: a paced burst costs one syscall.
async fn viewer_session(plan: ViewerPlan) -> ViewerReport {
    if !plan.attach_delay.is_zero() {
        tokio::time::sleep(plan.attach_delay).await;
    }
    let sock = BatchSocket::bind(local(), BatchBackend::auto()).expect("bind viewer socket");
    let attach_at = plan.clock.now();
    plan.node
        .send(NodeCommand::ClientAttach {
            client: plan.client,
            stream: STREAM,
            downlink: Some(DOWNLINK),
            path: plan.path,
            addr: sock.local_addr(),
        })
        .await
        .expect("consumer alive");
    // One datagram to the consumer; `false` when the socket refused it
    // (`Ok(0)` is a full send buffer), which the hub counts as a send
    // error, as the nodes count theirs.
    let send = |payload| {
        let to = plan.node.addr;
        let accepted = matches!(sock.try_send_batch(&[SendDatagram { to, payload }]), Ok(1));
        if !accepted {
            plan.telemetry.with(|h| h.incr(ids::TRANSPORT_SEND_ERRORS));
        }
        accepted
    };

    let started = tokio::time::Instant::now();
    // The broadcaster's GoP sets the frame rate the client plays at.
    let mut viewer = ViewerClient::new(attach_at, GopConfig::default().fps);
    // Armed playback ticks; each is 100 ms after a datagram, so they fall
    // due in the order they were armed.
    let mut ticks: VecDeque<SimTime> = VecDeque::new();
    // Datagrams from the consumer are MTU-bounded RTP (plus small RTCP);
    // 2 KiB slots leave generous headroom and the one-byte truncation
    // sentinel still catches anything oversized.
    let mut batch = RecvBatch::new(MAX_BATCH, 2048);
    let mut rr_sent = 0u64;
    let mut last_rr = tokio::time::Instant::now();
    let mut last_keepalive = tokio::time::Instant::now();

    loop {
        let now_i = tokio::time::Instant::now();
        if now_i >= plan.deadline {
            break;
        }
        // [`BatchSocket::recv_batch`] is poll-driven (it registers no
        // waker), so under `timeout` the socket is probed when the slice
        // expires: a short slice bounds the added receive latency while a
        // paced burst still drains in one batched syscall.
        let slice = Duration::from_millis(5).min(plan.deadline - now_i);
        if let Ok(Ok(_count)) = tokio::time::timeout(slice, sock.recv_batch(&mut batch)).await {
            plan.telemetry.with(|h| {
                h.incr(ids::TRANSPORT_BATCH_RX_SYSCALLS);
                h.observe(ids::TRANSPORT_BATCH_RX_FILL, batch.len() as f64);
            });
            let now = plan.clock.now();
            for d in batch.iter() {
                // A truncated read is not the datagram that was sent: the
                // client gets nothing, which it counts as undecodable.
                let payload = if d.truncated {
                    Bytes::new()
                } else {
                    Bytes::copy_from_slice(d.data)
                };
                ticks.extend(viewer.on_datagram(now, payload));
            }
        }
        let now = plan.clock.now();
        while ticks.front().is_some_and(|&at| at <= now) {
            ticks.pop_front();
            viewer.on_tick(now);
        }

        // Feedback: honest (or synthetically lossy) RRs at the report
        // cadence, keepalives in between.
        if last_rr.elapsed() >= RR_INTERVAL {
            if let Some(mut rr) = viewer.receiver_report() {
                if let Some((after, loss)) = plan.lossy_rr {
                    if started.elapsed() >= after {
                        rr.loss_fraction = loss;
                    }
                }
                let packet = RtcpPacket::ReceiverReport(rr).encode();
                let msg = OverlayMsg::Rtcp {
                    stream: STREAM,
                    packet,
                };
                if send(msg.encode()) {
                    rr_sent += 1;
                }
                last_rr = tokio::time::Instant::now();
            }
        } else if last_keepalive.elapsed() >= RR_INTERVAL / 2 {
            send(OverlayMsg::Keepalive.encode());
            last_keepalive = tokio::time::Instant::now();
        }
    }

    ViewerReport {
        client: plan.client,
        node: plan.node.id,
        attach_at,
        expected_frames: 0,
        delivered_frames: 0,
        rr_sent,
        run: viewer.finish(plan.clock.now()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid starting point: one node, producer 0, one viewer
    /// at the producer.
    fn one_node() -> TestbedConfig {
        TestbedConfig {
            nodes: 1,
            edges: Vec::new(),
            countries: Vec::new(),
            producer: 0,
            viewers: vec![WireViewer::at(0)],
            broadcast: Duration::from_secs(3),
            drain: Duration::from_millis(900),
        }
    }

    /// The historical 4-node acceptance diamond 0→{1,2}→3.
    fn diamond() -> TestbedConfig {
        let ms = SimDuration::from_millis;
        TestbedConfig {
            nodes: 4,
            edges: vec![(0, 1, ms(8)), (0, 2, ms(12)), (1, 3, ms(8)), (2, 3, ms(12))],
            viewers: vec![WireViewer::at(3), WireViewer::at(3)],
            ..one_node()
        }
    }

    /// The full acceptance loop, shortened: a 4-node diamond with two
    /// feedback-sending viewers over real UDP. Client RTCP receiver reports
    /// must reach the consumer core (cc decisions recorded), a synthetically
    /// lossy viewer must drive the pacing rate down, and delivery must stay
    /// ≥ 99% of broadcast frames.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn client_feedback_round_trip_drives_cc_over_udp() {
        let mut cfg = TestbedConfig {
            broadcast: Duration::from_millis(1600),
            drain: Duration::from_millis(700),
            ..diamond()
        };
        // Viewer 1 turns synthetically lossy after 800 ms.
        cfg.viewers[1].lossy_rr = Some((Duration::from_millis(800), 0.3));

        let report = run(cfg).await.expect("validated config runs");

        assert!(
            report.frames_broadcast >= 20,
            "broadcast too short: {}",
            report.frames_broadcast
        );
        for v in &report.viewers {
            assert!(
                v.rr_sent >= 2,
                "viewer {:?} sent only {} RRs",
                v.client,
                v.rr_sent
            );
            assert!(
                v.run.qoe.startup.is_some(),
                "viewer {:?} never started playback",
                v.client
            );
        }
        let delivery = report.worst_delivery();
        assert!(
            delivery >= 0.99,
            "worst viewer delivered only {delivery:.3} of frames"
        );

        // Feedback round-trip: the consumer core built sender-side cc state
        // for the clients and the lossy viewer forced decreases.
        let total = report.cc.increases + report.cc.holds + report.cc.decreases;
        assert!(
            total > 0,
            "no cc decisions recorded — client RTCP never reached the core"
        );
        assert!(
            report.cc.decreases >= 1,
            "lossy client RRs drove no rate decrease: {:?}",
            report.cc
        );

        // And the decreased rate is visible on the lossy viewer's pacer.
        let lossy = report.viewers[1].client;
        let rate = report
            .client_rates
            .iter()
            .find(|(c, _)| *c == lossy)
            .and_then(|(_, r)| *r)
            .expect("lossy client still attached at shutdown");
        assert!(
            rate < Bandwidth::from_mbps(20),
            "rate never moved below the 20 Mbps initial: {rate:?}"
        );

        // The shared hub saw the wire datapath.
        assert!(report
            .telemetry
            .counters
            .iter()
            .any(|(k, v)| k == "transport.rx_datagrams" && *v > 0));
    }

    /// Every class of bad input surfaces as `Error::InvalidConfig` from
    /// `validate()` or the preset — including the out-of-range viewer index
    /// that used to panic deep inside `run`.
    #[test]
    fn builder_rejects_invalid_configs() {
        let with_viewers = |viewers: Vec<WireViewer>| {
            TestbedConfig {
                viewers,
                ..diamond()
            }
            .validate()
        };
        let geo_fleet = |viewers, fanout| {
            TestbedConfig::geo_fleet(&GeoConfig::tiny(1), viewers, fanout, 1).map(|_| ())
        };
        let cases: Vec<(&str, livenet_types::Result<()>)> = vec![
            (
                "viewer node out of range",
                with_viewers(vec![
                    WireViewer::at(3),
                    WireViewer::at(3),
                    WireViewer::at(9),
                ]),
            ),
            (
                "edge endpoint out of range",
                TestbedConfig {
                    nodes: 2,
                    edges: vec![(0, 5, SimDuration::from_millis(5))],
                    ..one_node()
                }
                .validate(),
            ),
            (
                "producer out of range",
                TestbedConfig {
                    producer: 3,
                    ..one_node()
                }
                .validate(),
            ),
            ("no viewers", with_viewers(Vec::new())),
            ("geo fan-out of zero", geo_fleet(4, 0)),
            ("geo viewer count of zero", geo_fleet(0, 2)),
        ];
        for (what, result) in cases {
            match result {
                Err(Error::InvalidConfig(_)) => {}
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    /// `run` validates, so a corrupted config errors instead of panicking
    /// mid-harness.
    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn run_rejects_corrupted_config() {
        let mut cfg = diamond();
        cfg.validate().expect("valid");
        cfg.viewers[0].node = 99;
        match run(cfg).await {
            Err(Error::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// A 50+ node geo fleet (region hubs in a full-mesh core,
    /// workload-staggered viewers on country edge nodes) over real loopback
    /// sockets, time-capped. Delivery must stay ≥ 99 % for every viewer
    /// and each congested region must record at least one cc rate decrease
    /// at its edge nodes.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn geo_fleet_smoke_fifty_nodes() {
        let geo = GeoConfig::paper_scale(7);
        let mut cfg = TestbedConfig {
            broadcast: Duration::from_secs(3),
            drain: Duration::from_millis(1200),
            ..TestbedConfig::geo_fleet(&geo, 24, 2, 11).expect("geo fleet preset is valid")
        };
        assert!(cfg.nodes >= 50, "geo fleet too small: {} nodes", cfg.nodes);
        assert!(
            cfg.viewers.iter().any(|v| !v.join_after.is_zero()),
            "workload produced no staggered arrivals"
        );

        // Congest the two busiest viewer regions: every viewer there turns
        // synthetically lossy late in its session.
        let countries = cfg.countries.clone();
        let mut by_country = std::collections::BTreeMap::<u32, usize>::new();
        for v in &cfg.viewers {
            *by_country.entry(countries[v.node]).or_insert(0) += 1;
        }
        let mut ranked: Vec<(usize, u32)> = by_country.iter().map(|(&c, &n)| (n, c)).collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        let congested: Vec<u32> = ranked.iter().take(2).map(|&(_, c)| c).collect();
        for v in &mut cfg.viewers {
            if congested.contains(&countries[v.node]) {
                v.lossy_rr = Some((Duration::from_millis(900), 0.3));
            }
        }

        let report = run(cfg).await.expect("geo fleet runs");

        assert!(
            report.frames_broadcast >= 30,
            "broadcast too short: {}",
            report.frames_broadcast
        );
        for v in &report.viewers {
            assert!(
                v.run.qoe.startup.is_some(),
                "viewer {:?} at node {:?} never started playback",
                v.client,
                v.node
            );
        }
        let delivery = report.worst_delivery();
        if delivery < 0.99 {
            for v in &report.viewers {
                if v.delivery() < 0.99 {
                    panic!(
                        "viewer {:?} at node {:?}: delivered {}/{} (attach {:?}, \
                         startup {:?}, packets {})",
                        v.client,
                        v.node,
                        v.delivered_frames,
                        v.expected_frames,
                        v.attach_at,
                        v.run.qoe.startup,
                        v.run.packets
                    );
                }
            }
        }
        for &c in &congested {
            assert!(
                report.cc_decreases_in_country(c) >= 1,
                "congested country {c} recorded no cc decrease: {:?}",
                report.node_cc
            );
        }
        // The batched hot path actually engaged.
        assert!(report
            .telemetry
            .counters
            .iter()
            .any(|(k, v)| k == "transport.batch_rx_syscalls" && *v > 0));
        // Every datagram came from a peer or client the receiving node knows,
        // at the address it knows, and fit its receive slot; every datagram
        // a node or a viewer sent, its socket accepted.
        assert_eq!(
            report.telemetry.counter("transport.unknown_source_drops"),
            0
        );
        assert_eq!(report.telemetry.counter("transport.recv_truncated"), 0);
        assert_eq!(report.telemetry.counter("transport.send_errors"), 0);
        // And every datagram a viewer's client got decoded.
        assert!(report.viewers.iter().all(|v| v.run.undecodable == 0));
    }
}
