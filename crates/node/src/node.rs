//! The overlay node state machine: fast path + slow path (paper §5, Fig. 7).
//!
//! `OverlayNode` is sans-I/O: drivers feed it datagrams and timer expiries,
//! and it returns [`NodeAction`]s (datagrams to send, timers to arm,
//! instrumentation events). The same core runs under the discrete-event
//! emulator and the tokio transport.
//!
//! The two packet pipelines:
//!
//! * **Fast path** — an arriving RTP packet is immediately looked up in the
//!   Stream FIB and enqueued to every subscriber's pacer, without loss
//!   detection or congestion control. The delay field is incremented by
//!   this node's processing time plus half the next hop's RTT (§6.1).
//! * **Slow path** — a copy feeds, per stream: the receive state (hole
//!   detection, 50 ms NACK scans), the per-upstream GCC delay estimator,
//!   and the packet/GoP cache (retransmission + fast startup), which reads
//!   frame and GoP boundaries from each packet's 1-byte fragment header.
//!   Slow-path copies are never forwarded.
//!
//! State lives in three ordered maps next to the Stream FIB and the
//! attached clients: `streams` (`stream.rs`), `peers` and `neighbors`
//! (`peer.rs`). This file is configuration, the public API and dispatch.

use crate::cache::StreamCache;
use crate::client::ClientControl;
use crate::fib::{StreamFib, Subscriber};
use crate::msg::OverlayMsg;
use crate::peer::{Neighbor, Peer};
use crate::stream::{rtcp_to, to_node, StreamState};
use bytes::Bytes;
use livenet_cc::{PacerConfig, RateDecisionStats};
use livenet_media::{EncodedFrame, FrameKind};
use livenet_packet::rtp::ssrc_for_stream;
use livenet_packet::{frag_meta, Packetizer, RtcpPacket, RtpPacket};
use livenet_packet::{Nack, ReceiverReport, Remb, RtxMiss};
use livenet_types::{Bandwidth, ClientId, NodeId, Result, SeqNo, SimDuration, SimTime, StreamId};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

/// Timer kinds multiplexed over the driver's single timer key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The 50 ms slow-path loss scan.
    LossScan,
    /// The periodic receiver-report / REMB tick.
    RrTick,
    /// A pacer for one peer has queued data.
    PacerPoll(Subscriber),
    /// The upstream-liveness check (RTCP-silence failure detection, §7.1).
    Liveness,
}

const KIND_SCAN: u64 = 1;
const KIND_RR: u64 = 2;
const KIND_PACER: u64 = 3;
const KIND_LIVENESS: u64 = 4;
const CLIENT_BIT: u64 = 1 << 55;

impl TimerKind {
    /// Pack into a u64 timer key.
    pub fn encode(self) -> u64 {
        match self {
            TimerKind::LossScan => KIND_SCAN << 56,
            TimerKind::RrTick => KIND_RR << 56,
            TimerKind::PacerPoll(Subscriber::Node(n)) => (KIND_PACER << 56) | n.raw(),
            TimerKind::PacerPoll(Subscriber::Client(c)) => {
                (KIND_PACER << 56) | CLIENT_BIT | c.raw()
            }
            TimerKind::Liveness => KIND_LIVENESS << 56,
        }
    }

    /// Unpack from a u64 timer key.
    pub fn decode(key: u64) -> Option<TimerKind> {
        match key >> 56 {
            KIND_SCAN => Some(TimerKind::LossScan),
            KIND_RR => Some(TimerKind::RrTick),
            KIND_LIVENESS => Some(TimerKind::Liveness),
            KIND_PACER => {
                let aux = key & ((1 << 56) - 1);
                if aux & CLIENT_BIT != 0 {
                    Some(TimerKind::PacerPoll(Subscriber::Client(ClientId::new(
                        aux & !CLIENT_BIT,
                    ))))
                } else {
                    Some(TimerKind::PacerPoll(Subscriber::Node(NodeId::new(aux))))
                }
            }
            _ => None,
        }
    }
}

/// Per-packet processing latency added on the fast path.
const PROCESSING_DELAY: SimDuration = SimDuration::from_millis(2);
/// Slow-path loss-scan period (paper: 50 ms).
pub const LOSS_SCAN_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Minimum spacing between NACKs for the same sequence number.
pub(crate) const NACK_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Receiver-report / REMB period.
const RR_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// GCC rate floor.
pub(crate) const MIN_RATE: Bandwidth = Bandwidth::from_kbps(200);
/// GCC rate ceiling (≈ link capacity share).
pub(crate) const MAX_RATE: Bandwidth = Bandwidth::from_gbps(2);
/// Liveness-check period for upstream-death detection.
const LIVENESS_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Silence threshold after which an upstream is declared dead: no RTP
/// or RTCP heard for this long. Exceeds several RR intervals so a
/// healthy-but-idle upstream (which still reports) is never declared
/// dead on media gaps alone.
pub(crate) const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_millis(2500);
/// How long an unserviceable downstream NACK may stay parked before the
/// loss-scan sweep evicts it. By then the downstream has either recovered
/// elsewhere or abandoned the hole, so serving it would only produce
/// duplicates.
pub(crate) const PENDING_RTX_TTL: SimDuration = SimDuration::from_millis(1000);

const _: () = {
    assert!(UPSTREAM_TIMEOUT.as_nanos() >= 3 * RR_INTERVAL.as_nanos());
    assert!(LIVENESS_INTERVAL.as_nanos() <= UPSTREAM_TIMEOUT.as_nanos());
    assert!(MIN_RATE.as_bps() < MAX_RATE.as_bps());
    // A retry cannot fire between scans.
    assert!(NACK_RETRY_INTERVAL.as_nanos() >= LOSS_SCAN_INTERVAL.as_nanos());
};

/// Static node configuration: what two runs set differently. The paper's
/// fixed operating point is the constants above.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's identity.
    pub id: NodeId,
    /// NACK retries before a hole is abandoned.
    pub nack_retry_limit: u32,
    /// Per-stream packet-cache capacity (packets ≈ a few GoPs).
    pub cache_packets: usize,
    /// Pacer settings (I-frame gain 1.5, backlog threshold).
    pub pacer: PacerConfig,
    /// Initial pacing rate per peer.
    pub initial_rate: Bandwidth,
    /// Serve GoP-cache startup bursts to new subscribers (§5.1). Disabled
    /// only by the ablation harness — without it, a new viewer waits for
    /// the next I frame.
    pub startup_burst: bool,
    /// Largest overlay datagram a socket driver should accept without
    /// truncation. Socket drivers size their receive buffer from this;
    /// they additionally cap it at 64 KiB, the UDP maximum.
    pub max_datagram_bytes: usize,
    /// Alternate RTX suppliers to re-NACK when the primary upstream
    /// reports a cache miss (AutoRec-style multi-supplier recovery).
    /// Candidates come from the cached backup paths, liveness-filtered
    /// and RTT-ordered. `0` disables the alternate path entirely: misses
    /// park on the primary and wait out its own recovery.
    pub rtx_alt_suppliers: usize,
}

impl NodeConfig {
    /// Defaults matching the paper's parameters.
    pub fn new(id: NodeId) -> Self {
        NodeConfig {
            id,
            nack_retry_limit: 5,
            cache_packets: 2048,
            pacer: PacerConfig::default(),
            initial_rate: Bandwidth::from_mbps(20),
            startup_burst: true,
            max_datagram_bytes: 64 * 1024,
            rtx_alt_suppliers: 1,
        }
    }
}

/// Instrumentation events emitted by the node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    /// A subscription was forwarded upstream (cache miss, backtracking).
    SubscribeForwarded {
        /// Stream being subscribed.
        stream: StreamId,
        /// The upstream hop chosen from the path remainder.
        upstream: NodeId,
    },
    /// A subscription hit local state (the stream was already here).
    CacheHit {
        /// Stream requested.
        stream: StreamId,
        /// Who asked.
        subscriber: Subscriber,
    },
    /// Our own upstream subscription was confirmed.
    SubscriptionEstablished {
        /// Stream now flowing.
        stream: StreamId,
        /// The confirmed upstream.
        upstream: NodeId,
    },
    /// A fast-startup GoP burst was sent to a new subscriber.
    StartupBurst {
        /// Stream.
        stream: StreamId,
        /// Recipient.
        to: Subscriber,
        /// Packets in the burst.
        packets: usize,
    },
    /// A hole was recovered via retransmission.
    HoleRecovered {
        /// Stream.
        stream: StreamId,
        /// Detection-to-recovery latency.
        after: SimDuration,
        /// The recovery came from an alternate supplier, not the
        /// established upstream (multi-supplier RTX).
        alternate: bool,
    },
    /// A client's pending co-stream switch completed seamlessly.
    SwitchCompleted {
        /// The client switched.
        client: ClientId,
        /// Old stream.
        from: StreamId,
        /// New stream.
        to: StreamId,
    },
    /// An upstream was declared dead after RTCP silence (§7.1 failover).
    UpstreamDead {
        /// Stream whose feed stopped.
        stream: StreamId,
        /// The silent upstream.
        upstream: NodeId,
    },
    /// No cached backup path avoids the dead element: the driver must ask
    /// the Brain for a fresh path (the slow recovery path).
    PathRequestNeeded {
        /// Stream that needs a new path.
        stream: StreamId,
        /// The failed upstream to route around.
        dead: NodeId,
    },
}

/// Actions requested by the node.
#[derive(Debug, Clone)]
pub enum NodeAction {
    /// Transmit a datagram to a peer.
    Send {
        /// Destination (overlay node or attached client).
        to: Subscriber,
        /// Message.
        msg: OverlayMsg,
    },
    /// Arm a timer; the driver must call [`OverlayNode::on_timer`] at `at`.
    SetTimer {
        /// Absolute expiry.
        at: SimTime,
        /// Opaque key (a packed [`TimerKind`]).
        key: u64,
    },
    /// Instrumentation.
    Event(NodeEvent),
}

impl From<NodeEvent> for NodeAction {
    fn from(event: NodeEvent) -> NodeAction {
        NodeAction::Event(event)
    }
}

/// Telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// RTP packets forwarded on the fast path (per subscriber fan-out).
    pub forwarded: u64,
    /// RTP packets ingested from a local broadcaster.
    pub ingested: u64,
    /// Retransmissions served to downstream NACKs.
    pub rtx_served: u64,
    /// NACKed sequences we did not have cached.
    pub rtx_unavailable: u64,
    /// Lost sequence numbers NACKed upstream (one per seq, not per
    /// message — comparable with `rtx_served`/`rtx_unavailable`).
    pub nacks_sent: u64,
    /// NACK messages sent upstream (each batches one scan's seqs).
    pub nack_batches: u64,
    /// Parked downstream NACK waiters evicted without being served
    /// (stream reset purge or TTL sweep).
    pub rtx_pending_expired: u64,
    /// Lost sequences re-NACKed to an alternate supplier after the
    /// primary reported a cache miss.
    pub rtx_alternate_requests: u64,
    /// Holes recovered by a retransmission from an alternate supplier.
    pub rtx_alternate_recovered: u64,
    /// Cache-missed sequences with no live alternate supplier available
    /// (fell back to parking on the primary).
    pub rtx_alternate_exhausted: u64,
    /// Duplicate packets discarded by the slow path.
    pub duplicates: u64,
    /// Subscription requests received.
    pub subs_received: u64,
    /// Local hits (stream already present when a subscription arrived).
    pub local_hits: u64,
    /// Upstreams declared dead and failed over (fast or slow path).
    pub upstream_failovers: u64,
    /// Datagrams dropped because their envelope, or the RTP or RTCP
    /// packet inside it, did not decode.
    pub malformed: u64,
    /// Timer fires that found nothing due (see [`OverlayNode::on_timer`]).
    pub stale_timers: u64,
}

impl NodeStats {
    /// Export these counters — the consumer-node log analogue (§6.1) —
    /// into a metric sink.  Values are cumulative totals, so record into a
    /// sink that has not seen this node before (e.g. a per-run hub), or
    /// diff externally.
    pub fn record_into(&self, sink: &mut impl livenet_telemetry::MetricSink) {
        use livenet_telemetry::ids;
        sink.add(ids::NODE_FORWARDED, self.forwarded);
        sink.add(ids::NODE_INGESTED, self.ingested);
        sink.add(ids::NODE_RTX_SERVED, self.rtx_served);
        sink.add(ids::NODE_RTX_UNAVAILABLE, self.rtx_unavailable);
        sink.add(ids::NODE_NACKS_SENT, self.nacks_sent);
        sink.add(ids::NODE_NACK_BATCHES, self.nack_batches);
        sink.add(ids::NODE_RTX_PENDING_EXPIRED, self.rtx_pending_expired);
        sink.add(
            ids::NODE_RTX_ALTERNATE_REQUESTS,
            self.rtx_alternate_requests,
        );
        sink.add(
            ids::NODE_RTX_ALTERNATE_RECOVERED,
            self.rtx_alternate_recovered,
        );
        sink.add(
            ids::NODE_RTX_ALTERNATE_EXHAUSTED,
            self.rtx_alternate_exhausted,
        );
        sink.add(ids::NODE_DUPLICATES, self.duplicates);
        sink.add(ids::NODE_SUBS_RECEIVED, self.subs_received);
        sink.add(ids::NODE_LOCAL_HITS, self.local_hits);
        sink.add(ids::NODE_FAILOVERS, self.upstream_failovers);
        sink.add(ids::NODE_MALFORMED, self.malformed);
        sink.add(ids::NODE_STALE_TIMERS, self.stale_timers);
    }
}

/// How many entries each of a node's state tables holds: "nothing
/// outlives what referenced it" is an equality between two footprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFootprint {
    /// Streams with any state (cache, receive state, subscription).
    pub streams: usize,
    /// Subscribers with a pacer and a rate controller.
    pub peers: usize,
    /// Overlay neighbors known by RTT hint or by having been heard.
    pub neighbors: usize,
    /// Attached viewers.
    pub clients: usize,
    /// Candidate paths cached across all streams.
    pub cached_paths: usize,
    /// Downstream NACKs parked across all streams.
    pub parked_rtx: usize,
}

/// The overlay node.
pub struct OverlayNode {
    cfg: NodeConfig,
    fib: StreamFib,
    /// Per-stream state; an entry lives while something references the
    /// stream, and [`Self::release_stream`] is the only remover.
    streams: BTreeMap<StreamId, StreamState>,
    /// Send-side state per subscriber; an entry lives while the subscriber
    /// holds a FIB entry, and [`Self::unsubscribe`] is the only remover.
    peers: BTreeMap<Subscriber, Peer>,
    /// Receive-side state per overlay neighbor. Never removed one by one
    /// (the overlay's membership bounds them); what the network taught us
    /// is forgotten when the neighbor is declared dead.
    neighbors: BTreeMap<NodeId, Neighbor>,
    clients: BTreeMap<ClientId, ClientControl>,
    /// Telemetry.
    pub stats: NodeStats,
}

/// `from` was heard from at `now`.
fn heard(neighbors: &mut BTreeMap<NodeId, Neighbor>, from: NodeId, now: SimTime) -> &mut Neighbor {
    let neighbor = neighbors.entry(from).or_default();
    neighbor.last_heard = Some(now);
    neighbor
}

/// The state of `stream`, created empty on first mention.
fn stream_entry<'a>(
    streams: &'a mut BTreeMap<StreamId, StreamState>,
    cfg: &NodeConfig,
    stream: StreamId,
) -> &'a mut StreamState {
    streams
        .entry(stream)
        .or_insert_with(|| StreamState::new(stream, cfg.cache_packets))
}

impl OverlayNode {
    /// Build a node. Call [`Self::start`] to arm the periodic timers.
    pub fn new(cfg: NodeConfig) -> Self {
        OverlayNode {
            cfg,
            fib: StreamFib::new(),
            streams: BTreeMap::new(),
            peers: BTreeMap::new(),
            neighbors: BTreeMap::new(),
            clients: BTreeMap::new(),
            stats: NodeStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// The Stream FIB (read access for drivers/tests).
    pub fn fib(&self) -> &StreamFib {
        &self.fib
    }

    /// The packet cache of a stream, if the node holds state for it.
    pub fn cache(&self, stream: StreamId) -> Option<&StreamCache> {
        self.streams.get(&stream).map(|st| &st.cache)
    }

    /// A client's control state.
    pub fn client(&self, client: ClientId) -> Option<&ClientControl> {
        self.clients.get(&client)
    }

    /// Established upstream of a stream.
    pub fn upstream_of(&self, stream: StreamId) -> Option<NodeId> {
        self.streams.get(&stream)?.upstream
    }

    /// Sizes of the node's state tables.
    pub fn footprint(&self) -> NodeFootprint {
        NodeFootprint {
            streams: self.streams.len(),
            peers: self.peers.len(),
            neighbors: self.neighbors.len(),
            clients: self.clients.len(),
            cached_paths: self.streams.values().map(StreamState::cached_paths).sum(),
            parked_rtx: self.streams.values().map(StreamState::parked_rtx).sum(),
        }
    }

    /// Provide an RTT hint for a neighbor (used for the delay field's
    /// half-next-hop-RTT increment). Drivers refresh this from probes.
    pub fn set_neighbor_rtt(&mut self, neighbor: NodeId, rtt: SimDuration) {
        self.neighbors.entry(neighbor).or_default().rtt = Some(rtt);
    }

    /// Arm the periodic slow-path timers. Call once at startup.
    pub fn start(&mut self, now: SimTime) -> Vec<NodeAction> {
        vec![
            NodeAction::SetTimer {
                at: now + LOSS_SCAN_INTERVAL,
                key: TimerKind::LossScan.encode(),
            },
            NodeAction::SetTimer {
                at: now + RR_INTERVAL,
                key: TimerKind::RrTick.encode(),
            },
            NodeAction::SetTimer {
                at: now + LIVENESS_INTERVAL,
                key: TimerKind::Liveness.encode(),
            },
        ]
    }

    /// Install candidate paths (producer-first, ending at this node) for a
    /// stream — the Brain's K-path lookup result or prefetched backups.
    /// The upstream-failover fast path picks from these.
    pub fn install_paths(&mut self, stream: StreamId, paths: &[Vec<NodeId>]) {
        stream_entry(&mut self.streams, &self.cfg, stream).install_paths(paths);
    }

    /// Drop all volatile state after a process crash, keeping only the
    /// static config, the counters and the driver-provided neighbor RTT
    /// hints. The restarted process re-arms its timers via [`Self::start`]
    /// and re-learns everything else from the network.
    pub fn crash_reset(&mut self) {
        let mut fresh = OverlayNode::new(self.cfg.clone());
        fresh.stats = self.stats;
        for (&id, neighbor) in &self.neighbors {
            if let Some(rtt) = neighbor.rtt {
                fresh.set_neighbor_rtt(id, rtt);
            }
        }
        *self = fresh;
    }

    // ------------------------------------------------------------------
    // Producer role
    // ------------------------------------------------------------------

    /// Register this node as the producer of `stream` (broadcaster mapped
    /// here by DNS). `ladder` is always `None`; a placeholder that ROADMAP
    /// item 1 removes.
    pub fn register_producer(&mut self, stream: StreamId, ladder: Option<Infallible>) {
        let None = ladder;
        self.register_producer_continuation(stream, SeqNo::ZERO);
    }

    /// [`Self::register_producer`] continuing an existing sequence space —
    /// broadcaster-mobility handover (§7.1): the new producer resumes the
    /// stream at `next_seq` so downstream slow paths see a contiguous
    /// sequence rather than a stale-looking restart.
    pub fn register_producer_continuation(&mut self, stream: StreamId, next_seq: SeqNo) {
        let st = stream_entry(&mut self.streams, &self.cfg, stream);
        st.producer
            .get_or_insert_with(|| Packetizer::new(ssrc_for_stream(stream), next_seq));
    }

    /// The next sequence number this producer will emit (handover state
    /// for broadcaster mobility).
    pub fn producer_next_seq(&self, stream: StreamId) -> Option<SeqNo> {
        let packetizer = self.streams.get(&stream)?.producer.as_ref()?;
        Some(packetizer.next_seq())
    }

    /// True when this node produces the stream.
    pub fn is_producer(&self, stream: StreamId) -> bool {
        self.producer_next_seq(stream).is_some()
    }

    /// Broadcaster mobility (§7.1): the broadcaster re-homed to a new
    /// producer node. This (old) producer stops ingesting and instead
    /// subscribes to the new producer along `path_to_new` (producer-first,
    /// ending at this node), so every existing downstream path keeps
    /// working — "the Streaming Brain instructs the old producer node to
    /// subscribe to the new one. By doing so, the existing overlay paths
    /// do not need to change."
    pub fn demote_to_relay(
        &mut self,
        _now: SimTime,
        stream: StreamId,
        path_to_new: &[NodeId],
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        if let Some(st) = self.streams.get_mut(&stream) {
            // Keep the cache (it still serves startups and RTX for old
            // data), and pull the stream from the new producer.
            if st.producer.take().is_some() {
                st.subscribe_along(self.cfg.id, path_to_new, &mut actions);
            }
        }
        actions
    }

    /// Ingest one encoded frame from a local broadcaster: packetize, cache,
    /// and fan out on the fast path.
    pub fn ingest_frame(
        &mut self,
        now: SimTime,
        frame: &EncodedFrame,
        payload: &Bytes,
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        let stream = frame.id.stream;
        let Some(packets) = self
            .streams
            .get_mut(&stream)
            .and_then(|st| st.packetize(frame, payload))
        else {
            return actions; // not our stream; drop
        };
        self.stats.ingested += packets.len() as u64;
        for pkt in packets {
            let st = stream_entry(&mut self.streams, &self.cfg, stream);
            st.cache.insert(pkt.clone());
            self.try_complete_switches(now, stream, &mut actions);
            self.fast_path_forward(now, stream, &pkt, &mut actions);
        }
        actions
    }

    // ------------------------------------------------------------------
    // Consumer role: client attach/detach and stream control
    // ------------------------------------------------------------------

    /// Attach a viewer client. If the node does not yet carry the stream,
    /// `path` (producer-first node list ending at this node) drives the
    /// reverse-path subscription.
    pub fn client_attach(
        &mut self,
        now: SimTime,
        client: ClientId,
        stream: StreamId,
        downlink: Option<Bandwidth>,
        path: Option<&[NodeId]>,
        actions: &mut Vec<NodeAction>,
    ) {
        let ctl = ClientControl::new(client, stream);
        self.clients.insert(client, ctl);
        // Per-client pacer at the downlink estimate.
        let rate = downlink.unwrap_or(self.cfg.initial_rate);
        let peer = Subscriber::Client(client);
        self.peers
            .entry(peer)
            .or_insert_with(|| Peer::new(&self.cfg, rate))
            .pacer
            .set_rate(rate);

        if self.admit(stream, peer, actions) {
            self.send_startup_burst(now, stream, peer, actions);
        } else if let Some(path) = path {
            let st = stream_entry(&mut self.streams, &self.cfg, stream);
            st.install_paths(std::slice::from_ref(&path.to_vec()));
            st.subscribe_along(self.cfg.id, path, actions);
        }
    }

    /// Detach a viewer.
    pub fn client_detach(
        &mut self,
        _now: SimTime,
        client: ClientId,
        actions: &mut Vec<NodeAction>,
    ) {
        let Some(ctl) = self.clients.remove(&client) else {
            return;
        };
        self.unsubscribe(ctl.stream, Subscriber::Client(client), actions);
        if let Some(target) = ctl.pending_switch() {
            self.cancel_switch(client, target, actions);
        }
    }

    /// Current pacing rate toward an attached client, `None` when the
    /// client is unknown. Observes the sender-side cc loop from outside —
    /// the wire harness uses this to show client feedback moving the rate.
    pub fn client_pacing_rate(&self, client: ClientId) -> Option<Bandwidth> {
        self.peers
            .get(&Subscriber::Client(client))
            .map(|p| p.pacer.rate())
    }

    /// Sum of sender-side rate decisions across every per-subscriber GCC
    /// controller (nodes and clients alike).
    pub fn cc_decision_totals(&self) -> RateDecisionStats {
        let mut total = RateDecisionStats::default();
        for decisions in self.peers.values().map(|p| p.gcc.decisions) {
            total.increases += decisions.increases;
            total.holds += decisions.holds;
            total.decreases += decisions.decreases;
        }
        total
    }

    /// Begin a seamless co-stream switch for a client (§5.2). The consumer
    /// subscribes to the co-broadcast stream itself; once a complete GoP is
    /// cached the client is flipped without a stall.
    pub fn begin_costream_switch(
        &mut self,
        now: SimTime,
        client: ClientId,
        new_stream: StreamId,
        path: Option<&[NodeId]>,
        actions: &mut Vec<NodeAction>,
    ) {
        let Some(ctl) = self.clients.get_mut(&client) else {
            return;
        };
        let previous = ctl.pending_switch();
        ctl.begin_switch(new_stream);
        if ctl.pending_switch() != Some(new_stream) {
            return; // already on that stream
        }
        if let Some(previous) = previous.filter(|&p| p != new_stream) {
            self.cancel_switch(client, previous, actions);
        }
        let st = stream_entry(&mut self.streams, &self.cfg, new_stream);
        st.switch_waiters.insert(client);
        if st.is_live() {
            self.try_complete_switches(now, new_stream, actions);
        } else if let Some(path) = path {
            st.subscribe_along(self.cfg.id, path, actions);
        }
    }

    /// Switch this node's upstream for `stream` onto a new overlay path
    /// (producer-first, ending at this node), make-before-break: the old
    /// upstream keeps feeding the fast path until the new subscription is
    /// confirmed, and duplicate packets arriving from both paths during
    /// the overlap are absorbed by the slow path's duplicate detection.
    ///
    /// This is §7.1's consumer-side re-routing: "consumer nodes can
    /// autonomously switch to the backup path when the primary one
    /// encounters a high delay or packet loss", and also §4.4's remedy for
    /// the long-chain problem.
    pub fn switch_path(
        &mut self,
        _now: SimTime,
        stream: StreamId,
        new_path: &[NodeId],
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        let me = self.cfg.id;
        let st = stream_entry(&mut self.streams, &self.cfg, stream);
        st.install_paths(std::slice::from_ref(&new_path.to_vec()));
        let hops = new_path.strip_suffix(&[me]).unwrap_or(new_path);
        match st.upstream {
            // Nothing established yet: treat as a fresh subscription.
            None => {
                st.subscribe_along(me, new_path, &mut actions);
            }
            Some(old) if hops.last() == Some(&old) => {} // same next hop
            Some(_) => {
                st.subscribe_via(hops.to_vec(), &mut actions);
            }
        }
        actions
    }

    // ------------------------------------------------------------------
    // Datagram handling
    // ------------------------------------------------------------------

    /// Handle one incoming overlay datagram.
    pub fn on_datagram(&mut self, now: SimTime, from: NodeId, payload: Bytes) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        if self.dispatch(now, from, payload, &mut actions).is_err() {
            self.stats.malformed += 1;
        }
        actions
    }

    /// Decode a datagram completely — the envelope and the RTP or RTCP
    /// packet inside it — and only then act on it: `Err` touched nothing.
    fn dispatch(
        &mut self,
        now: SimTime,
        from: NodeId,
        payload: Bytes,
        actions: &mut Vec<NodeAction>,
    ) -> Result<()> {
        let sender = Subscriber::Node(from);
        match OverlayMsg::decode(payload)? {
            OverlayMsg::Rtp {
                stream,
                sent_at,
                packet,
                retransmit,
            } => {
                let packet = RtpPacket::decode(packet)?;
                // Slow path: GCC receiver estimator per upstream neighbor.
                let neighbor = heard(&mut self.neighbors, from, now);
                neighbor.on_media(&self.cfg, sent_at, now, packet.wire_len());
                self.on_rtp(now, from, stream, sent_at, packet, retransmit, actions);
            }
            OverlayMsg::Rtcp { stream, packet } => {
                let rtcp = RtcpPacket::decode(packet)?;
                heard(&mut self.neighbors, from, now);
                self.on_rtcp(now, sender, stream, rtcp, actions);
            }
            control => {
                heard(&mut self.neighbors, from, now);
                match control {
                    OverlayMsg::Subscribe { stream, remainder } => {
                        self.on_subscribe(now, from, stream, &remainder, actions)
                    }
                    OverlayMsg::SubscribeOk { stream } => {
                        if let Some(st) = self.streams.get_mut(&stream) {
                            st.confirm(from, actions);
                        }
                    }
                    OverlayMsg::Unsubscribe { stream } => self.unsubscribe(stream, sender, actions),
                    // Having been heard is a keepalive's entire effect.
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Handle one datagram arriving from an attached viewer client — the
    /// client-sourced half of the datapath. Clients never carry RTP or the
    /// subscription protocol; the only meaningful traffic is RTCP feedback
    /// (NACKs, receiver reports, REMB) and keepalives. Feedback drives the
    /// same per-subscriber GCC sender and pacer as node feedback does, so
    /// rate adaptation and loss recovery work for last-mile viewers too.
    pub fn on_client_datagram(
        &mut self,
        now: SimTime,
        from: ClientId,
        payload: Bytes,
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        let feedback = OverlayMsg::decode(payload).and_then(|msg| match msg {
            OverlayMsg::Rtcp { stream, packet } => Ok(Some((stream, RtcpPacket::decode(packet)?))),
            // Clients do not speak the node-to-node protocol.
            _ => Ok(None),
        });
        match feedback {
            Ok(Some((stream, rtcp))) => {
                self.on_rtcp(now, Subscriber::Client(from), stream, rtcp, &mut actions)
            }
            Ok(None) => {}
            Err(_) => self.stats.malformed += 1,
        }
        actions
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rtp(
        &mut self,
        now: SimTime,
        from: NodeId,
        stream: StreamId,
        sent_at: SimTime,
        packet: RtpPacket,
        retransmit: bool,
        actions: &mut Vec<NodeAction>,
    ) {
        let st = stream_entry(&mut self.streams, &self.cfg, stream);
        let stats = &mut self.stats;
        let Some(waiters) = st.receive(now, from, sent_at, &packet, retransmit, stats, actions)
        else {
            return;
        };
        self.try_complete_switches(now, stream, actions);
        // Downstream nodes whose NACK for this sequence number arrived
        // before we had the packet ourselves.
        for peer in waiters {
            self.stats.rtx_served += 1;
            self.enqueue_to_peer(
                now,
                Subscriber::Node(peer),
                stream,
                packet.clone(),
                true,
                actions,
            );
        }

        // Fast path: retransmissions are recoveries for *this* node's slow
        // path; downstream NODES request their own via NACK (§3's A→B→C
        // example — "this copied packet ... will not be forwarded to the
        // downstream nodes"). Locally-attached viewers, however, receive
        // the recovered packet directly: the consumer is the client's
        // reliability delegate (§5.2 thin clients).
        if !retransmit {
            return self.fast_path_forward(now, stream, &packet, actions);
        }
        let clients: Vec<Subscriber> = self.fib.subscribers(stream).collect();
        for sub in clients {
            if let Subscriber::Client(_) = sub {
                let fwd = packet.with_added_delay(PROCESSING_DELAY);
                self.enqueue_to_peer(now, sub, stream, fwd, true, actions);
            }
        }
    }

    /// RTCP from a downstream node or an attached client.
    fn on_rtcp(
        &mut self,
        now: SimTime,
        peer: Subscriber,
        stream: StreamId,
        rtcp: RtcpPacket,
        actions: &mut Vec<NodeAction>,
    ) {
        match rtcp {
            RtcpPacket::Nack(Nack { lost, .. }) => {
                // Serve retransmissions from the packet cache.
                let (hits, misses) = match self.streams.get_mut(&stream) {
                    Some(st) => st.answer_nack(now, peer, lost),
                    None => (Vec::new(), lost),
                };
                for pkt in hits {
                    self.stats.rtx_served += 1;
                    self.enqueue_to_peer(now, peer, stream, pkt, true, actions);
                }
                self.stats.rtx_unavailable += misses.len() as u64;
                // Tell a node requester which seqs missed the cache so it
                // can chase an alternate supplier immediately instead of
                // waiting out our own recovery (its parked NACK stays as
                // the backstop: duplicates are absorbed downstream).
                if let (Subscriber::Node(to), false) = (peer, misses.is_empty()) {
                    let miss = RtcpPacket::RtxMiss(RtxMiss {
                        ssrc: ssrc_for_stream(stream),
                        missing: misses,
                    });
                    actions.push(rtcp_to(to, stream, &miss));
                }
            }
            RtcpPacket::RtxMiss(RtxMiss { missing, .. }) => {
                // Clients never supply RTX.
                if let (Subscriber::Node(from), Some(st)) = (peer, self.streams.get_mut(&stream)) {
                    let (cfg, neighbors, stats) = (&self.cfg, &self.neighbors, &mut self.stats);
                    st.chase_alternates(now, cfg, from, &missing, neighbors, stats, actions);
                }
            }
            RtcpPacket::ReceiverReport(ReceiverReport { loss_fraction, .. }) => {
                if let Some(p) = self.peers.get_mut(&peer) {
                    p.feedback(|gcc| gcc.on_loss_report(now, loss_fraction));
                }
            }
            RtcpPacket::Remb(Remb { bitrate_bps, .. }) => {
                if let Some(p) = self.peers.get_mut(&peer) {
                    p.feedback(|gcc| gcc.on_remb(Bandwidth::from_bps(bitrate_bps)));
                }
            }
        }
    }

    fn on_subscribe(
        &mut self,
        now: SimTime,
        from: NodeId,
        stream: StreamId,
        remainder: &[NodeId],
        actions: &mut Vec<NodeAction>,
    ) {
        let peer = Subscriber::Node(from);
        let hit = self.admit(stream, peer, actions);
        let st = stream_entry(&mut self.streams, &self.cfg, stream);
        if hit && st.is_flowing() {
            actions.push(to_node(from, OverlayMsg::SubscribeOk { stream }));
            self.send_startup_burst(now, stream, peer, actions);
        } else if hit || st.subscribe_along(self.cfg.id, remainder, actions) {
            // Still establishing ourselves, or (a miss) backtracking on
            // along the reverse path — `remainder` is producer-first and
            // may list us last: relay the Ok when it comes.
            st.waiting_ok.push(from);
        } else {
            // We are the path's head but not the producer: the stream
            // has ended or the path is stale. Drop the FIB entry.
            self.unsubscribe(stream, peer, actions);
        }
    }

    /// Enter a subscriber in the FIB. True on a local hit — the stream is
    /// already carried, or about to be — which stops backtracking (§4.4);
    /// this is where the long-chain effect comes from.
    fn admit(&mut self, stream: StreamId, sub: Subscriber, actions: &mut Vec<NodeAction>) -> bool {
        self.stats.subs_received += 1;
        self.fib.subscribe(stream, sub);
        let hit = stream_entry(&mut self.streams, &self.cfg, stream).is_live();
        if hit {
            self.stats.local_hits += 1;
            actions.push(NodeAction::Event(NodeEvent::CacheHit {
                stream,
                subscriber: sub,
            }));
        }
        hit
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handle a timer expiry for `key` (a packed [`TimerKind`]). Drivers
    /// arm a timer and forget it: a pacer poll runs only when its peer's
    /// armed deadline has come, and any other fire — superseded by an
    /// earlier re-arm, outliving its subscriber, or a key that does not
    /// decode — is stale, counted and answered with no action.
    pub fn on_timer(&mut self, now: SimTime, key: u64) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        let rearm = |kind: TimerKind, after: SimDuration| NodeAction::SetTimer {
            at: now + after,
            key: kind.encode(),
        };
        match TimerKind::decode(key) {
            Some(TimerKind::LossScan) => {
                for st in self.streams.values_mut() {
                    st.scan(now, &self.cfg, &mut self.stats, &mut actions);
                }
                actions.push(rearm(TimerKind::LossScan, LOSS_SCAN_INTERVAL));
            }
            Some(TimerKind::RrTick) => {
                self.rr_tick(&mut actions);
                actions.push(rearm(TimerKind::RrTick, RR_INTERVAL));
            }
            Some(TimerKind::PacerPoll(to)) => match self.peers.get_mut(&to) {
                Some(peer) if peer.armed.is_some_and(|t| t <= now) => {
                    peer.armed = None;
                    self.stats.forwarded += peer.flush(now, to, &mut actions);
                }
                _ => self.stats.stale_timers += 1,
            },
            Some(TimerKind::Liveness) => {
                self.liveness_check(now, &mut actions);
                actions.push(rearm(TimerKind::Liveness, LIVENESS_INTERVAL));
            }
            None => self.stats.stale_timers += 1,
        }
        actions
    }

    /// Declare upstreams dead after prolonged silence and route every
    /// stream they fed onto a different path.
    fn liveness_check(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        let silent = |up: &NodeId| {
            self.neighbors
                .get(up)
                .is_some_and(|n| n.silent_for(now, UPSTREAM_TIMEOUT))
        };
        let upstreams = self.streams.values().flat_map(|st| st.upstreams());
        let dead: BTreeSet<NodeId> = upstreams.filter(silent).collect();
        for up in dead {
            // Forget what the network taught us about it; the hint stays.
            if let Some(neighbor) = self.neighbors.get_mut(&up) {
                (neighbor.last_heard, neighbor.gcc_rx) = (None, None);
            }
            for st in self.streams.values_mut() {
                if st.fail_over(self.cfg.id, up, actions) {
                    self.stats.upstream_failovers += 1;
                }
            }
        }
    }

    fn rr_tick(&mut self, actions: &mut Vec<NodeAction>) {
        // A receiver report per stream to its upstream, then one REMB per
        // upstream, attached to the lowest of its streams.
        let mut rembs: BTreeMap<NodeId, StreamId> = BTreeMap::new();
        for (&stream, st) in self.streams.iter_mut() {
            if let Some(up) = st.report(actions) {
                rembs.entry(up).or_insert(stream);
            }
        }
        for (up, stream) in rembs {
            if let Some(est) = self.neighbors.get(&up).and_then(|n| n.gcc_rx.as_ref()) {
                let remb = RtcpPacket::Remb(Remb {
                    ssrc: ssrc_for_stream(stream),
                    bitrate_bps: est.estimate().as_bps(),
                });
                actions.push(rtcp_to(up, stream, &remb));
            }
        }
        // Housekeeping: media still in flight when a stream was released
        // re-creates its state with nothing referencing it.
        for stream in self.streams.keys().copied().collect::<Vec<_>>() {
            self.release_stream(stream, actions);
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Tear down a stream nothing references any more — no local
    /// broadcaster, no subscriber, no client waiting to switch onto it:
    /// unsubscribe from its upstreams and drop its state, whole.
    fn release_stream(&mut self, stream: StreamId, actions: &mut Vec<NodeAction>) {
        let Some(st) = self.streams.get(&stream) else {
            return;
        };
        if !self.fib.has_stream(stream) && st.producer.is_none() && st.switch_waiters.is_empty() {
            st.release(actions);
            self.streams.remove(&stream);
        }
    }

    /// Remove one FIB entry and whatever it was the last reference to: the
    /// stream's state, and the subscriber's send-side state once it holds
    /// no FIB entry on any stream.
    fn unsubscribe(&mut self, stream: StreamId, sub: Subscriber, actions: &mut Vec<NodeAction>) {
        if self.fib.unsubscribe(stream, sub) {
            self.release_stream(stream, actions);
        }
        if !self.fib.has_subscriber(sub) {
            self.peers.remove(&sub);
        }
    }

    /// `client` no longer waits to switch onto `target`.
    fn cancel_switch(&mut self, client: ClientId, target: StreamId, actions: &mut Vec<NodeAction>) {
        if let Some(st) = self.streams.get_mut(&target) {
            st.switch_waiters.remove(&client);
        }
        self.release_stream(target, actions);
    }

    /// Complete the client co-stream switches waiting on this stream.
    ///
    /// Runs after every media insert and when a switch begins. It returns
    /// at once when no client waits, so the cache walk that finds where
    /// the switch burst would begin runs only while one does; the packets
    /// are cloned only for a client whose switch completes.
    fn try_complete_switches(
        &mut self,
        now: SimTime,
        stream: StreamId,
        actions: &mut Vec<NodeAction>,
    ) {
        let Some(st) = self.streams.get_mut(&stream) else {
            return;
        };
        if st.switch_waiters.is_empty() {
            return;
        }
        // §5.2: the client flips only once a COMPLETE GoP of the new
        // stream is cached (the switch burst spans two I-frame starts).
        let Some(start) = st.cache.switch_start() else {
            return;
        };
        let mut burst = None;
        for client in std::mem::take(&mut st.switch_waiters) {
            let Some(old) = self
                .clients
                .get_mut(&client)
                .and_then(ClientControl::complete_switch)
            else {
                continue;
            };
            let peer = Subscriber::Client(client);
            self.fib.subscribe(stream, peer);
            actions.push(NodeAction::Event(NodeEvent::SwitchCompleted {
                client,
                from: old,
                to: stream,
            }));
            // Deliver the complete-GoP burst so the client's buffer is
            // full the instant the timeline flips. Built at the first
            // completion, before any `unsubscribe` below can touch a cache.
            let burst = burst.get_or_insert_with(|| self.streams[&stream].cache.clone_run(start));
            self.send_burst(now, stream, peer, burst, actions);
            self.unsubscribe(old, peer, actions);
        }
    }

    // ------------------------------------------------------------------
    // Fast path
    // ------------------------------------------------------------------

    /// Fast path: FIB lookup + per-subscriber enqueue.
    fn fast_path_forward(
        &mut self,
        now: SimTime,
        stream: StreamId,
        packet: &RtpPacket,
        actions: &mut Vec<NodeAction>,
    ) {
        let subscribers: Vec<Subscriber> = self.fib.subscribers(stream).collect();
        let kind = frag_meta(&packet.payload).and_then(FrameKind::from_nibble);
        for sub in subscribers {
            match sub {
                Subscriber::Node(next) => {
                    // Delay field: our processing + half next-hop RTT (§6.1).
                    let rtt = self.neighbors.get(&next).and_then(|n| n.rtt);
                    let half_rtt = rtt.unwrap_or(SimDuration::ZERO) / 2;
                    let fwd = packet.with_added_delay(PROCESSING_DELAY + half_rtt);
                    self.enqueue_to_peer(now, sub, stream, fwd, false, actions);
                }
                Subscriber::Client(client) => {
                    // Consumer-side per-client control: frame dropping.
                    let backlogged = self
                        .peers
                        .get(&sub)
                        .is_some_and(|p| p.pacer.is_backlogged());
                    let Some(ctl) = self.clients.get_mut(&client) else {
                        continue;
                    };
                    if ctl.stream != stream {
                        continue; // stale FIB entry mid-switch
                    }
                    if !ctl.admit(now, kind, backlogged) {
                        // Frame dropper rejected this packet; also purge any
                        // already-queued packets of the same frame.
                        if let Some(p) = self.peers.get_mut(&sub) {
                            p.drop_frame(stream, packet.header.timestamp);
                        }
                        continue;
                    }
                    let fwd = packet.with_added_delay(PROCESSING_DELAY);
                    self.enqueue_to_peer(now, sub, stream, fwd, false, actions);
                }
            }
        }
    }

    /// Enqueue a packet into a peer's pacer and flush/arm the pacer timer.
    fn enqueue_to_peer(
        &mut self,
        now: SimTime,
        to: Subscriber,
        stream: StreamId,
        packet: RtpPacket,
        retransmit: bool,
        actions: &mut Vec<NodeAction>,
    ) {
        let peer = self
            .peers
            .entry(to)
            .or_insert_with(|| Peer::new(&self.cfg, self.cfg.initial_rate));
        peer.enqueue(stream, packet, retransmit);
        self.stats.forwarded += peer.flush(now, to, actions);
    }

    /// Send the most recent complete GoP to a new subscriber (fast startup).
    fn send_startup_burst(
        &mut self,
        now: SimTime,
        stream: StreamId,
        to: Subscriber,
        actions: &mut Vec<NodeAction>,
    ) {
        if !self.cfg.startup_burst {
            return;
        }
        if let Some(st) = self.streams.get(&stream) {
            let burst = st.cache.startup_burst();
            self.send_burst(now, stream, to, &burst, actions);
        }
    }

    /// Queue a non-empty burst for `to` and say so.
    fn send_burst(
        &mut self,
        now: SimTime,
        stream: StreamId,
        to: Subscriber,
        burst: &[RtpPacket],
        actions: &mut Vec<NodeAction>,
    ) {
        if burst.is_empty() {
            return;
        }
        for pkt in burst {
            self.enqueue_to_peer(now, to, stream, pkt.clone(), false, actions);
        }
        actions.push(NodeAction::Event(NodeEvent::StartupBurst {
            stream,
            to,
            packets: burst.len(),
        }));
    }
}
