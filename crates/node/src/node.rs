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
//!   the packet/GoP cache (retransmission + fast startup), and the framing
//!   module (GoP assembly). Slow-path copies are never forwarded.

use crate::cache::StreamCache;
use crate::client::ClientControl;
use crate::fib::{StreamFib, Subscriber};
use crate::msg::OverlayMsg;
use crate::rx::{RxOutcome, RxState};
use bytes::Bytes;
use livenet_cc::{
    DelayBasedEstimator, GccSender, PacedPacket, Pacer, PacerConfig, RateDecisionStats,
    SendPriority,
};
use livenet_media::{EncodedFrame, FrameKind, SimulcastLadder};
use livenet_packet::{frag_meta, MediaKind, Packetizer, RtcpPacket, RtpPacket};
use livenet_packet::rtp::ssrc_for_stream;
use livenet_packet::{Nack, ReceiverReport, Remb, RtxMiss};
use livenet_types::{
    Bandwidth, ClientId, NodeId, SeqNo, SimDuration, SimTime, StreamId,
};
use std::collections::{BTreeMap, HashMap};

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

/// Static node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's identity.
    pub id: NodeId,
    /// Per-packet processing latency added on the fast path.
    pub processing_delay: SimDuration,
    /// Slow-path loss-scan period (paper: 50 ms).
    pub loss_scan_interval: SimDuration,
    /// Minimum spacing between NACKs for the same sequence number.
    pub nack_retry_interval: SimDuration,
    /// NACK retries before a hole is abandoned.
    pub nack_retry_limit: u32,
    /// Receiver-report / REMB period.
    pub rr_interval: SimDuration,
    /// Per-stream packet-cache capacity (packets ≈ a few GoPs).
    pub cache_packets: usize,
    /// Pacer settings (I-frame gain 1.5, backlog threshold).
    pub pacer: PacerConfig,
    /// Initial pacing rate per peer.
    pub initial_rate: Bandwidth,
    /// GCC rate floor.
    pub min_rate: Bandwidth,
    /// GCC rate ceiling (≈ link capacity share).
    pub max_rate: Bandwidth,
    /// Serve GoP-cache startup bursts to new subscribers (§5.1). Disabled
    /// only by the ablation harness — without it, a new viewer waits for
    /// the next I frame.
    pub startup_burst: bool,
    /// Liveness-check period for upstream-death detection.
    pub liveness_interval: SimDuration,
    /// Silence threshold after which an upstream is declared dead: no RTP
    /// or RTCP heard for this long. Must exceed several RR intervals so a
    /// healthy-but-idle upstream (which still reports) is never declared
    /// dead on media gaps alone.
    pub upstream_timeout: SimDuration,
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
    /// How long an unserviceable downstream NACK may stay parked in
    /// `pending_rtx` before the loss-scan sweep evicts it. By then the
    /// downstream has either recovered elsewhere or abandoned the hole,
    /// so serving it would only produce duplicates.
    pub pending_rtx_ttl: SimDuration,
}

impl NodeConfig {
    /// Defaults matching the paper's parameters.
    pub fn new(id: NodeId) -> Self {
        NodeConfig {
            id,
            processing_delay: SimDuration::from_millis(2),
            loss_scan_interval: SimDuration::from_millis(50),
            nack_retry_interval: SimDuration::from_millis(50),
            nack_retry_limit: 5,
            rr_interval: SimDuration::from_millis(500),
            cache_packets: 2048,
            pacer: PacerConfig::default(),
            initial_rate: Bandwidth::from_mbps(20),
            min_rate: Bandwidth::from_kbps(200),
            max_rate: Bandwidth::from_gbps(2),
            startup_burst: true,
            liveness_interval: SimDuration::from_millis(500),
            upstream_timeout: SimDuration::from_millis(2500),
            max_datagram_bytes: 64 * 1024,
            rtx_alt_suppliers: 1,
            pending_rtx_ttl: SimDuration::from_millis(1000),
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
    /// The framing module completed a frame (slow path).
    FrameAssembled {
        /// Stream.
        stream: StreamId,
        /// RTP timestamp of the frame.
        timestamp: u32,
        /// Frame kind decoded from the fragment header.
        kind: Option<FrameKind>,
        /// Cumulative delay field, when the frame carried one.
        delay_field: Option<SimDuration>,
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
    /// A client was stepped down to a lower bitrate rendition.
    SteppedDown {
        /// The client.
        client: ClientId,
        /// New (lower) rendition stream.
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
        sink.add(ids::NODE_RTX_ALTERNATE_REQUESTS, self.rtx_alternate_requests);
        sink.add(ids::NODE_RTX_ALTERNATE_RECOVERED, self.rtx_alternate_recovered);
        sink.add(ids::NODE_RTX_ALTERNATE_EXHAUSTED, self.rtx_alternate_exhausted);
        sink.add(ids::NODE_DUPLICATES, self.duplicates);
        sink.add(ids::NODE_SUBS_RECEIVED, self.subs_received);
        sink.add(ids::NODE_LOCAL_HITS, self.local_hits);
        sink.add(ids::NODE_FAILOVERS, self.upstream_failovers);
    }
}

/// A packet waiting in a peer's pacer.
#[derive(Debug, Clone)]
struct OutPkt {
    stream: StreamId,
    packet: RtpPacket,
    retransmit: bool,
}

/// Per-stream producer state.
struct ProducerState {
    packetizer: Packetizer,
}

/// The overlay node.
pub struct OverlayNode {
    cfg: NodeConfig,
    fib: StreamFib,
    /// Established upstream per stream.
    upstream: HashMap<StreamId, NodeId>,
    /// Subscription sent upstream, awaiting SubscribeOk.
    pending: HashMap<StreamId, NodeId>,
    /// Mid-stream path switch in flight: stream → old upstream to release
    /// once the new subscription confirms (§7.1 "Maintaining Multiple
    /// Paths": consumers re-route on local quality observations).
    switching_from: HashMap<StreamId, NodeId>,
    /// Downstream nodes awaiting our SubscribeOk relay.
    waiting_ok: HashMap<StreamId, Vec<NodeId>>,
    caches: HashMap<StreamId, StreamCache>,
    rx: HashMap<StreamId, RxState>,
    depack: HashMap<StreamId, livenet_packet::Depacketizer>,
    gcc_rx: HashMap<NodeId, DelayBasedEstimator>,
    gcc_tx: BTreeMap<Subscriber, GccSender>,
    pacers: BTreeMap<Subscriber, Pacer<OutPkt>>,
    /// Pacer timers currently armed (avoid duplicate timers per peer).
    pacer_armed: BTreeMap<Subscriber, SimTime>,
    clients: BTreeMap<ClientId, ClientControl>,
    producers: HashMap<StreamId, ProducerState>,
    ladders: HashMap<StreamId, SimulcastLadder>,
    neighbor_rtt: HashMap<NodeId, SimDuration>,
    /// Last time anything (RTP or RTCP) was heard from each neighbor;
    /// feeds the upstream-liveness check.
    last_heard: HashMap<NodeId, SimTime>,
    /// Cached candidate paths per stream (producer-first, ending here):
    /// the Brain's K paths from the original lookup plus any prefetched
    /// backups. The fast failover path re-subscribes along the first
    /// cached path that avoids the failed element (§7.1 backup paths).
    path_cache: HashMap<StreamId, Vec<Vec<NodeId>>>,
    /// Downstream NACKs we could not serve because the packet was missing
    /// from our own cache (lost on our upstream link too). Served the
    /// moment the packet arrives — typically as our own recovery — instead
    /// of making the downstream wait out another NACK retry round.
    /// Entries are purged on stream reset and swept by TTL in the loss
    /// scan so stale waiters cannot eat the cap.
    pending_rtx: HashMap<StreamId, BTreeMap<u16, PendingRtx>>,
    /// Telemetry.
    pub stats: NodeStats,
}

/// One parked downstream NACK: who is waiting, and since when (drives the
/// TTL sweep).
#[derive(Debug, Clone)]
struct PendingRtx {
    waiters: Vec<NodeId>,
    parked_at: SimTime,
}

/// Bound on remembered unserviceable NACKs per stream.
const MAX_PENDING_RTX: usize = 1_024;

impl OverlayNode {
    /// Build a node. Call [`Self::start`] to arm the periodic timers.
    pub fn new(cfg: NodeConfig) -> Self {
        OverlayNode {
            cfg,
            fib: StreamFib::new(),
            upstream: HashMap::new(),
            pending: HashMap::new(),
            switching_from: HashMap::new(),
            waiting_ok: HashMap::new(),
            caches: HashMap::new(),
            rx: HashMap::new(),
            depack: HashMap::new(),
            gcc_rx: HashMap::new(),
            gcc_tx: BTreeMap::new(),
            pacers: BTreeMap::new(),
            pacer_armed: BTreeMap::new(),
            clients: BTreeMap::new(),
            producers: HashMap::new(),
            ladders: HashMap::new(),
            neighbor_rtt: HashMap::new(),
            last_heard: HashMap::new(),
            path_cache: HashMap::new(),
            pending_rtx: HashMap::new(),
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

    /// The packet cache of a stream, if any.
    pub fn cache(&self, stream: StreamId) -> Option<&StreamCache> {
        self.caches.get(&stream)
    }

    /// A client's control state.
    pub fn client(&self, client: ClientId) -> Option<&ClientControl> {
        self.clients.get(&client)
    }

    /// Established upstream of a stream.
    pub fn upstream_of(&self, stream: StreamId) -> Option<NodeId> {
        self.upstream.get(&stream).copied()
    }

    /// Provide an RTT hint for a neighbor (used for the delay field's
    /// half-next-hop-RTT increment). Drivers refresh this from probes.
    pub fn set_neighbor_rtt(&mut self, neighbor: NodeId, rtt: SimDuration) {
        self.neighbor_rtt.insert(neighbor, rtt);
    }

    /// Arm the periodic slow-path timers. Call once at startup.
    pub fn start(&mut self, now: SimTime) -> Vec<NodeAction> {
        vec![
            NodeAction::SetTimer {
                at: now + self.cfg.loss_scan_interval,
                key: TimerKind::LossScan.encode(),
            },
            NodeAction::SetTimer {
                at: now + self.cfg.rr_interval,
                key: TimerKind::RrTick.encode(),
            },
            NodeAction::SetTimer {
                at: now + self.cfg.liveness_interval,
                key: TimerKind::Liveness.encode(),
            },
        ]
    }

    /// Install candidate paths (producer-first, ending at this node) for a
    /// stream — the Brain's K-path lookup result or prefetched backups.
    /// The upstream-failover fast path picks from these.
    pub fn install_paths(&mut self, stream: StreamId, paths: &[Vec<NodeId>]) {
        let entry = self.path_cache.entry(stream).or_default();
        for p in paths {
            if p.len() >= 2 && !entry.contains(p) {
                entry.push(p.clone());
            }
        }
    }

    /// Cached candidate paths for a stream.
    pub fn cached_paths(&self, stream: StreamId) -> &[Vec<NodeId>] {
        self.path_cache
            .get(&stream)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Drop all volatile state after a process crash, keeping only the
    /// static config and the driver-provided neighbor RTT hints. The
    /// restarted process re-arms its timers via [`Self::start`] and
    /// re-learns everything else from the network.
    pub fn crash_reset(&mut self) {
        self.fib = StreamFib::new();
        self.upstream.clear();
        self.pending.clear();
        self.switching_from.clear();
        self.waiting_ok.clear();
        self.caches.clear();
        self.rx.clear();
        self.depack.clear();
        self.gcc_rx.clear();
        self.gcc_tx.clear();
        self.pacers.clear();
        self.pacer_armed.clear();
        self.clients.clear();
        self.producers.clear();
        self.ladders.clear();
        self.last_heard.clear();
        self.path_cache.clear();
        self.pending_rtx.clear();
    }

    // ------------------------------------------------------------------
    // Producer role
    // ------------------------------------------------------------------

    /// Register this node as the producer of `stream` (broadcaster mapped
    /// here by DNS). Optionally records the stream's simulcast ladder so
    /// consumer-side selection can use it.
    pub fn register_producer(&mut self, stream: StreamId, ladder: Option<SimulcastLadder>) {
        self.register_producer_continuation(stream, ladder, SeqNo::ZERO);
    }

    /// [`Self::register_producer`] continuing an existing sequence space —
    /// broadcaster-mobility handover (§7.1): the new producer resumes the
    /// stream at `next_seq` so downstream slow paths see a contiguous
    /// sequence rather than a stale-looking restart.
    pub fn register_producer_continuation(
        &mut self,
        stream: StreamId,
        ladder: Option<SimulcastLadder>,
        next_seq: SeqNo,
    ) {
        self.producers.entry(stream).or_insert_with(|| ProducerState {
            packetizer: Packetizer::new(ssrc_for_stream(stream), next_seq),
        });
        self.caches
            .entry(stream)
            .or_insert_with(|| StreamCache::new(self.cfg.cache_packets));
        if let Some(l) = ladder {
            for r in l.renditions() {
                self.ladders.insert(r.stream, l.clone());
            }
        }
    }

    /// The next sequence number this producer will emit (handover state
    /// for broadcaster mobility).
    pub fn producer_next_seq(&self, stream: StreamId) -> Option<SeqNo> {
        self.producers.get(&stream).map(|p| p.packetizer.next_seq())
    }

    /// True when this node produces the stream.
    pub fn is_producer(&self, stream: StreamId) -> bool {
        self.producers.contains_key(&stream)
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
        now: SimTime,
        stream: StreamId,
        path_to_new: &[NodeId],
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        if self.producers.remove(&stream).is_none() {
            return actions; // we weren't the producer
        }
        // Keep the cache (it still serves startups and RTX for old data),
        // and pull the stream from the new producer.
        self.subscribe_upstream(now, stream, path_to_new, &mut actions);
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
        let Some(prod) = self.producers.get_mut(&stream) else {
            return actions; // not our stream; drop
        };
        let media = if frame.kind == FrameKind::Audio {
            MediaKind::Audio
        } else {
            MediaKind::Video
        };
        // The delay field starts at the encoder delay (paper §6.1: the
        // broadcaster adds frame encoding time + queue + half first RTT;
        // the first-mile part is added by the driver).
        let delay0 = if frame.kind == FrameKind::I {
            Some(SimDuration::from_nanos(frame.encode_delay_ns))
        } else {
            None
        };
        let packets = prod.packetizer.packetize_with_meta(
            media,
            frame.rtp_timestamp,
            payload,
            delay0,
            frame.kind.to_nibble(),
        );
        self.stats.ingested += packets.len() as u64;
        for pkt in packets {
            self.slow_path_insert(now, stream, &pkt, &mut actions);
            self.fast_path_forward(now, stream, &pkt, false, &mut actions);
        }
        actions
    }

    // ------------------------------------------------------------------
    // Consumer role: client attach/detach and stream control
    // ------------------------------------------------------------------

    /// Attach a viewer client. If the node does not yet carry the stream,
    /// `path` (producer-first node list ending at this node) drives the
    /// reverse-path subscription. Returns the selected rendition.
    pub fn client_attach(
        &mut self,
        now: SimTime,
        client: ClientId,
        requested: StreamId,
        downlink: Option<Bandwidth>,
        path: Option<&[NodeId]>,
        actions: &mut Vec<NodeAction>,
    ) -> StreamId {
        let ladder = self.ladders.get(&requested).cloned();
        let ctl = ClientControl::new(client, requested, ladder, downlink, now);
        let stream = ctl.stream;
        self.clients.insert(client, ctl);
        // Per-client pacer at the downlink estimate.
        let rate = downlink.unwrap_or(self.cfg.initial_rate);
        let peer = Subscriber::Client(client);
        self.pacers
            .entry(peer)
            .or_insert_with(|| Pacer::new(self.cfg.pacer, rate))
            .set_rate(rate);

        self.stats.subs_received += 1;
        let had = self.carries(stream);
        self.fib.subscribe(stream, peer);
        if had {
            self.stats.local_hits += 1;
            actions.push(NodeAction::Event(NodeEvent::CacheHit {
                stream,
                subscriber: peer,
            }));
            self.send_startup_burst(now, stream, peer, actions);
        } else if let Some(path) = path {
            self.install_paths(stream, std::slice::from_ref(&path.to_vec()));
            self.subscribe_upstream(now, stream, path, actions);
        }
        stream
    }

    /// Detach a viewer.
    pub fn client_detach(
        &mut self,
        now: SimTime,
        client: ClientId,
        actions: &mut Vec<NodeAction>,
    ) {
        let Some(ctl) = self.clients.remove(&client) else {
            return;
        };
        let peer = Subscriber::Client(client);
        let mut streams = vec![ctl.stream];
        if let Some(p) = ctl.pending_switch() {
            streams.push(p);
        }
        for stream in streams {
            if self.fib.unsubscribe(stream, peer) {
                self.maybe_release_stream(now, stream, actions);
            }
        }
        self.pacers.remove(&peer);
        self.pacer_armed.remove(&peer);
        self.gcc_tx.remove(&peer);
    }

    /// Update a client's estimated downlink (mobile bandwidth variation).
    pub fn set_client_downlink(&mut self, client: ClientId, rate: Bandwidth) {
        if let Some(p) = self.pacers.get_mut(&Subscriber::Client(client)) {
            p.set_rate(rate);
        }
    }

    /// Current pacing rate toward an attached client, `None` when the
    /// client is unknown. Observes the sender-side cc loop from outside —
    /// the wire harness uses this to show client feedback moving the rate.
    pub fn client_pacing_rate(&self, client: ClientId) -> Option<Bandwidth> {
        self.pacers
            .get(&Subscriber::Client(client))
            .map(|p| p.rate())
    }

    /// Sum of sender-side rate decisions across every per-subscriber GCC
    /// controller (nodes and clients alike).
    pub fn cc_decision_totals(&self) -> RateDecisionStats {
        let mut total = RateDecisionStats::default();
        for sender in self.gcc_tx.values() {
            total.increases += sender.decisions.increases;
            total.holds += sender.decisions.holds;
            total.decreases += sender.decisions.decreases;
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
        ctl.begin_switch(new_stream);
        if !self.carries(new_stream) {
            if let Some(path) = path {
                self.subscribe_upstream(now, new_stream, path, actions);
            }
        } else {
            self.try_complete_switches(now, new_stream, actions);
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
        now: SimTime,
        stream: StreamId,
        new_path: &[NodeId],
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        self.install_paths(stream, std::slice::from_ref(&new_path.to_vec()));
        let Some(&old) = self.upstream.get(&stream) else {
            // Nothing established yet: treat as a fresh subscription.
            self.subscribe_upstream(now, stream, new_path, &mut actions);
            return actions;
        };
        let mut remainder: Vec<NodeId> = new_path.to_vec();
        if remainder.last() == Some(&self.cfg.id) {
            remainder.pop();
        }
        if remainder.last() == Some(&old) {
            return actions; // same next hop: nothing to switch
        }
        self.switching_from.insert(stream, old);
        self.subscribe_upstream_remainder(now, stream, remainder, &mut actions);
        actions
    }

    // ------------------------------------------------------------------
    // Datagram handling
    // ------------------------------------------------------------------

    /// Handle one incoming overlay datagram.
    pub fn on_datagram(
        &mut self,
        now: SimTime,
        from: NodeId,
        payload: Bytes,
    ) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        self.last_heard.insert(from, now);
        let Ok(msg) = OverlayMsg::decode(payload) else {
            return actions; // malformed; drop
        };
        match msg {
            OverlayMsg::Rtp {
                stream,
                sent_at,
                packet,
                retransmit,
            } => self.on_rtp(now, from, stream, sent_at, packet, retransmit, &mut actions),
            OverlayMsg::Rtcp { stream, packet } => {
                self.on_rtcp(now, from, stream, packet, &mut actions)
            }
            OverlayMsg::Subscribe { stream, remainder } => {
                self.on_subscribe(now, from, stream, remainder, &mut actions)
            }
            OverlayMsg::SubscribeOk { stream } => {
                self.on_subscribe_ok(now, from, stream, &mut actions)
            }
            OverlayMsg::Unsubscribe { stream } => {
                if self.fib.unsubscribe(stream, Subscriber::Node(from)) {
                    self.maybe_release_stream(now, stream, &mut actions);
                }
            }
            // The `last_heard` refresh above is the entire effect.
            OverlayMsg::Keepalive => {}
        }
        actions
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
        let Ok(msg) = OverlayMsg::decode(payload) else {
            return actions; // malformed; drop
        };
        match msg {
            OverlayMsg::Rtcp { stream, packet } => {
                self.on_rtcp_from(now, Subscriber::Client(from), stream, packet, &mut actions)
            }
            OverlayMsg::Keepalive => {}
            // Clients do not speak the node-to-node protocol.
            _ => {}
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
        packet_bytes: Bytes,
        retransmit: bool,
        actions: &mut Vec<NodeAction>,
    ) {
        let Ok(packet) = RtpPacket::decode(packet_bytes) else {
            return;
        };
        // Slow path: GCC receiver estimator per upstream neighbor.
        let est = self.gcc_rx.entry(from).or_insert_with(|| {
            DelayBasedEstimator::new(
                self.cfg.initial_rate,
                self.cfg.min_rate,
                self.cfg.max_rate,
            )
        });
        est.on_packet(sent_at, now, packet.wire_len());

        // Slow path: receive state (loss detection + recovery accounting).
        let transit = now.saturating_since(sent_at);
        let outcome = self
            .rx
            .entry(stream)
            .or_default()
            .on_packet(now, packet.header.seq, transit);
        match outcome {
            RxOutcome::Duplicate => {
                self.stats.duplicates += 1;
                return; // nothing further: not forwarded, not re-cached
            }
            RxOutcome::Recovered { after } => {
                // A retransmission from anyone but the established
                // upstream means an alternate supplier closed the hole.
                let alternate = retransmit && self.upstream.get(&stream) != Some(&from);
                if alternate {
                    self.stats.rtx_alternate_recovered += 1;
                }
                actions.push(NodeAction::Event(NodeEvent::HoleRecovered {
                    stream,
                    after,
                    alternate,
                }));
            }
            RxOutcome::Fresh => {}
            RxOutcome::Reset => {
                // The sequence space restarted: parked downstream waiters
                // keyed to the old space can never be served.
                self.purge_pending_rtx(stream);
            }
        }

        self.slow_path_insert(now, stream, &packet, actions);
        self.serve_pending_rtx(now, stream, &packet, actions);

        // Fast path: retransmissions are recoveries for *this* node's slow
        // path; downstream NODES request their own via NACK (§3's A→B→C
        // example — "this copied packet ... will not be forwarded to the
        // downstream nodes"). Locally-attached viewers, however, receive
        // the recovered packet directly: the consumer is the client's
        // reliability delegate (§5.2 thin clients).
        if retransmit {
            self.forward_recovery_to_clients(now, stream, &packet, actions);
        } else {
            self.fast_path_forward(now, stream, &packet, false, actions);
        }
    }

    /// Serve downstream nodes whose NACK for this sequence number arrived
    /// before we had the packet ourselves.
    fn serve_pending_rtx(
        &mut self,
        now: SimTime,
        stream: StreamId,
        packet: &RtpPacket,
        actions: &mut Vec<NodeAction>,
    ) {
        let Some(pend) = self.pending_rtx.get_mut(&stream) else {
            return;
        };
        let Some(entry) = pend.remove(&packet.header.seq.0) else {
            return;
        };
        if pend.is_empty() {
            self.pending_rtx.remove(&stream);
        }
        for peer in entry.waiters {
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
    }

    /// Drop every parked downstream waiter of a stream (stream reset: the
    /// old sequence space will never be served).
    fn purge_pending_rtx(&mut self, stream: StreamId) {
        if let Some(pend) = self.pending_rtx.remove(&stream) {
            self.stats.rtx_pending_expired += pend.len() as u64;
        }
    }

    /// Deliver a recovered packet to client subscribers only.
    fn forward_recovery_to_clients(
        &mut self,
        now: SimTime,
        stream: StreamId,
        packet: &RtpPacket,
        actions: &mut Vec<NodeAction>,
    ) {
        let clients: Vec<Subscriber> = self
            .fib
            .subscribers(stream)
            .filter(|s| matches!(s, Subscriber::Client(_)))
            .collect();
        for sub in clients {
            let fwd = packet.with_added_delay(self.cfg.processing_delay);
            self.enqueue_to_peer(now, sub, stream, fwd, true, actions);
        }
    }

    fn on_rtcp(
        &mut self,
        now: SimTime,
        from: NodeId,
        stream: StreamId,
        packet: Bytes,
        actions: &mut Vec<NodeAction>,
    ) {
        self.on_rtcp_from(now, Subscriber::Node(from), stream, packet, actions);
    }

    /// Shared RTCP handling for node- and client-sourced feedback.
    fn on_rtcp_from(
        &mut self,
        now: SimTime,
        peer: Subscriber,
        stream: StreamId,
        packet: Bytes,
        actions: &mut Vec<NodeAction>,
    ) {
        let Ok(rtcp) = RtcpPacket::decode(packet) else {
            return;
        };
        match rtcp {
            RtcpPacket::Nack(Nack { lost, .. }) => {
                // Serve retransmissions from the packet cache; remember
                // what we could not serve so the arrival of our own
                // recovery forwards it without another downstream retry.
                let mut to_send = Vec::new();
                let mut unavailable = Vec::new();
                if let Some(cache) = self.caches.get(&stream) {
                    for seq in lost {
                        match cache.get(seq) {
                            Some(pkt) => to_send.push(pkt.clone()),
                            None => unavailable.push(seq),
                        }
                    }
                } else {
                    unavailable = lost;
                }
                for pkt in to_send {
                    self.stats.rtx_served += 1;
                    self.enqueue_to_peer(now, peer, stream, pkt, true, actions);
                }
                self.stats.rtx_unavailable += unavailable.len() as u64;
                // Only node waiters are parked: when our own recovery
                // arrives, `forward_recovery_to_clients` already fans
                // the retransmission out to every client subscriber.
                let Subscriber::Node(from) = peer else {
                    return;
                };
                if unavailable.is_empty() {
                    return;
                }
                for &seq in &unavailable {
                    let pend = self.pending_rtx.entry(stream).or_default();
                    if pend.len() < MAX_PENDING_RTX {
                        let entry = pend.entry(seq.0).or_insert_with(|| PendingRtx {
                            waiters: Vec::new(),
                            parked_at: now,
                        });
                        if !entry.waiters.contains(&from) {
                            entry.waiters.push(from);
                        }
                    }
                }
                // Tell the requester which seqs missed the cache so it can
                // chase an alternate supplier immediately instead of
                // waiting out our own recovery (parking stays as the
                // backstop: duplicates are absorbed downstream).
                let miss = RtcpPacket::RtxMiss(RtxMiss {
                    ssrc: ssrc_for_stream(stream),
                    missing: unavailable,
                });
                actions.push(NodeAction::Send {
                    to: peer,
                    msg: OverlayMsg::Rtcp {
                        stream,
                        packet: miss.encode(),
                    },
                });
            }
            RtcpPacket::RtxMiss(RtxMiss { missing, .. }) => {
                let Subscriber::Node(from) = peer else {
                    return; // clients never supply RTX
                };
                self.on_rtx_miss(now, from, stream, missing, actions);
            }
            RtcpPacket::ReceiverReport(ReceiverReport { loss_fraction, .. }) => {
                let sender = self.tx_sender(peer);
                sender.on_loss_report(now, loss_fraction);
                let rate = sender.pacing_rate();
                if let Some(p) = self.pacers.get_mut(&peer) {
                    p.set_rate(rate);
                }
            }
            RtcpPacket::Remb(Remb { bitrate_bps, .. }) => {
                let sender = self.tx_sender(peer);
                sender.on_remb(Bandwidth::from_bps(bitrate_bps));
                let rate = sender.pacing_rate();
                if let Some(p) = self.pacers.get_mut(&peer) {
                    p.set_rate(rate);
                }
            }
        }
    }

    /// The upstream reported a cache miss for `missing`: immediately
    /// re-NACK the still-outstanding holes to the best alternate suppliers
    /// from the cached backup paths (AutoRec-style multi-supplier RTX).
    /// With no live alternate, the parked waiter on the primary remains
    /// the only recovery path — exactly the old single-supplier behavior.
    fn on_rtx_miss(
        &mut self,
        now: SimTime,
        from: NodeId,
        stream: StreamId,
        missing: Vec<SeqNo>,
        actions: &mut Vec<NodeAction>,
    ) {
        if self.cfg.rtx_alt_suppliers == 0 {
            return;
        }
        let Some(rx) = self.rx.get(&stream) else {
            return;
        };
        let chase = rx.still_missing(&missing, self.cfg.nack_retry_limit);
        if chase.is_empty() {
            return;
        }
        let alternates = self.alternate_suppliers(now, stream, from);
        if alternates.is_empty() {
            self.stats.rtx_alternate_exhausted += chase.len() as u64;
            return;
        }
        if let Some(rx) = self.rx.get_mut(&stream) {
            for &seq in &chase {
                rx.note_nack(now, seq);
            }
        }
        for alt in alternates {
            self.stats.rtx_alternate_requests += chase.len() as u64;
            self.stats.nacks_sent += chase.len() as u64;
            self.stats.nack_batches += 1;
            let rtcp = RtcpPacket::Nack(Nack {
                ssrc: ssrc_for_stream(stream),
                lost: chase.clone(),
            });
            actions.push(NodeAction::Send {
                to: Subscriber::Node(alt),
                msg: OverlayMsg::Rtcp {
                    stream,
                    packet: rtcp.encode(),
                },
            });
        }
    }

    /// Candidate alternate RTX suppliers for a stream: the penultimate hop
    /// of every cached backup path ending here (the neighbor that would
    /// feed us on that path), excluding the miss sender and ourselves,
    /// liveness-filtered, RTT-ordered (unknown RTT last, ties by id so the
    /// choice is deterministic), capped at `rtx_alt_suppliers`.
    fn alternate_suppliers(&self, now: SimTime, stream: StreamId, exclude: NodeId) -> Vec<NodeId> {
        let timeout = self.cfg.upstream_timeout;
        let mut cands: Vec<NodeId> = Vec::new();
        for path in self.cached_paths(stream) {
            if path.len() < 2 || path.last() != Some(&self.cfg.id) {
                continue;
            }
            let hop = path[path.len() - 2];
            if hop == exclude || hop == self.cfg.id || cands.contains(&hop) {
                continue;
            }
            // Liveness: a supplier that went silent on us would eat the
            // re-NACK and give the hole nothing. Never-heard candidates
            // are tried optimistically — the NACK doubles as a probe.
            let alive = match self.last_heard.get(&hop) {
                Some(&heard) => now.saturating_since(heard) < timeout,
                None => true,
            };
            if alive {
                cands.push(hop);
            }
        }
        cands.sort_by_key(|n| {
            (
                self.neighbor_rtt
                    .get(n)
                    .copied()
                    .unwrap_or(SimDuration::MAX),
                *n,
            )
        });
        cands.truncate(self.cfg.rtx_alt_suppliers);
        cands
    }

    fn tx_sender(&mut self, peer: Subscriber) -> &mut GccSender {
        self.gcc_tx.entry(peer).or_insert_with(|| {
            GccSender::new(self.cfg.initial_rate, self.cfg.min_rate, self.cfg.max_rate)
        })
    }

    fn on_subscribe(
        &mut self,
        now: SimTime,
        from: NodeId,
        stream: StreamId,
        mut remainder: Vec<NodeId>,
        actions: &mut Vec<NodeAction>,
    ) {
        self.stats.subs_received += 1;
        let peer = Subscriber::Node(from);
        let had = self.carries(stream);
        self.fib.subscribe(stream, peer);

        if had {
            // Cache hit: stop backtracking (§4.4) — this is where the
            // long-chain effect comes from.
            self.stats.local_hits += 1;
            actions.push(NodeAction::Event(NodeEvent::CacheHit {
                stream,
                subscriber: peer,
            }));
            if self.upstream.contains_key(&stream) || self.is_producer(stream) {
                actions.push(NodeAction::Send {
                    to: peer,
                    msg: OverlayMsg::SubscribeOk { stream },
                });
                self.send_startup_burst(now, stream, peer, actions);
            } else {
                // Still establishing ourselves: relay the Ok when it comes.
                self.waiting_ok.entry(stream).or_default().push(from);
            }
            return;
        }

        // Cache miss: continue backtracking along the reverse path.
        // `remainder` is producer-first; the next hop is the last element.
        match remainder.pop() {
            Some(next) if next == self.cfg.id => {
                // Path listed us (consumer hop); recurse with the rest.
                self.waiting_ok.entry(stream).or_default().push(from);
                let mut inner = Vec::new();
                self.subscribe_upstream_remainder(now, stream, remainder, &mut inner);
                actions.extend(inner);
            }
            Some(next) => {
                self.waiting_ok.entry(stream).or_default().push(from);
                self.pending.insert(stream, next);
                actions.push(NodeAction::Send {
                    to: Subscriber::Node(next),
                    msg: OverlayMsg::Subscribe {
                        stream,
                        remainder,
                    },
                });
                actions.push(NodeAction::Event(NodeEvent::SubscribeForwarded {
                    stream,
                    upstream: next,
                }));
            }
            None => {
                // We are the path's head but not the producer: the stream
                // has ended or the path is stale. Drop the FIB entry.
                self.fib.unsubscribe(stream, peer);
            }
        }
    }

    fn on_subscribe_ok(
        &mut self,
        _now: SimTime,
        from: NodeId,
        stream: StreamId,
        actions: &mut Vec<NodeAction>,
    ) {
        if self.pending.remove(&stream).is_some() {
            // A mid-stream path switch completes here: release the old
            // upstream only after the new one confirmed (make-before-break,
            // so the fast path never starves).
            if let Some(old) = self.switching_from.remove(&stream) {
                if old != from {
                    actions.push(NodeAction::Send {
                        to: Subscriber::Node(old),
                        msg: OverlayMsg::Unsubscribe { stream },
                    });
                }
            }
            self.upstream.insert(stream, from);
            actions.push(NodeAction::Event(NodeEvent::SubscriptionEstablished {
                stream,
                upstream: from,
            }));
        }
        // Relay the Ok to downstream requesters that were waiting on us.
        for d in self.waiting_ok.remove(&stream).unwrap_or_default() {
            actions.push(NodeAction::Send {
                to: Subscriber::Node(d),
                msg: OverlayMsg::SubscribeOk { stream },
            });
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handle a timer expiry for `key` (a packed [`TimerKind`]).
    pub fn on_timer(&mut self, now: SimTime, key: u64) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        match TimerKind::decode(key) {
            Some(TimerKind::LossScan) => {
                self.loss_scan(now, &mut actions);
                actions.push(NodeAction::SetTimer {
                    at: now + self.cfg.loss_scan_interval,
                    key: TimerKind::LossScan.encode(),
                });
            }
            Some(TimerKind::RrTick) => {
                self.rr_tick(now, &mut actions);
                actions.push(NodeAction::SetTimer {
                    at: now + self.cfg.rr_interval,
                    key: TimerKind::RrTick.encode(),
                });
            }
            Some(TimerKind::PacerPoll(peer)) => {
                self.pacer_armed.remove(&peer);
                self.flush_pacer(now, peer, &mut actions);
            }
            Some(TimerKind::Liveness) => {
                self.liveness_check(now, &mut actions);
                actions.push(NodeAction::SetTimer {
                    at: now + self.cfg.liveness_interval,
                    key: TimerKind::Liveness.encode(),
                });
            }
            None => {}
        }
        actions
    }

    /// Declare upstreams dead after prolonged silence and fail over: first
    /// to a cached backup path avoiding the dead element (fast, ≈ one
    /// subscribe RTT), otherwise surface [`NodeEvent::PathRequestNeeded`]
    /// so the driver asks the Brain (slow, a control-plane round trip).
    fn liveness_check(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        let timeout = self.cfg.upstream_timeout;
        // Silent upstreams, deduped and sorted: HashMap iteration order is
        // not deterministic across processes, and the emitted action order
        // must be.
        let mut dead: Vec<NodeId> = self
            .upstream
            .values()
            .chain(self.pending.values())
            .copied()
            .filter(|up| {
                self.last_heard
                    .get(up)
                    .is_some_and(|&heard| now.saturating_since(heard) >= timeout)
            })
            .collect();
        dead.sort();
        dead.dedup();
        for up in dead {
            self.fail_over_upstream(now, up, actions);
        }
    }

    /// Route every stream fed by `dead` onto a different path.
    fn fail_over_upstream(
        &mut self,
        now: SimTime,
        dead: NodeId,
        actions: &mut Vec<NodeAction>,
    ) {
        let mut streams: Vec<StreamId> = self
            .upstream
            .iter()
            .filter(|&(_, &u)| u == dead)
            .map(|(&s, _)| s)
            .chain(
                self.pending
                    .iter()
                    .filter(|&(_, &u)| u == dead)
                    .map(|(&s, _)| s),
            )
            .collect();
        streams.sort();
        streams.dedup();
        self.last_heard.remove(&dead);
        self.gcc_rx.remove(&dead);
        for stream in streams {
            self.upstream.remove(&stream);
            self.pending.remove(&stream);
            self.switching_from.remove(&stream);
            self.stats.upstream_failovers += 1;
            actions.push(NodeAction::Event(NodeEvent::UpstreamDead {
                stream,
                upstream: dead,
            }));
            let backup = self.path_cache.get(&stream).and_then(|paths| {
                paths
                    .iter()
                    .find(|p| p.len() >= 2 && !p.contains(&dead))
                    .cloned()
            });
            match backup {
                Some(path) => self.subscribe_upstream(now, stream, &path, actions),
                None => actions.push(NodeAction::Event(NodeEvent::PathRequestNeeded {
                    stream,
                    dead,
                })),
            }
        }
    }

    fn loss_scan(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        let interval = self.cfg.nack_retry_interval;
        let limit = self.cfg.nack_retry_limit;
        let mut nacks: Vec<(StreamId, NodeId, Vec<SeqNo>)> = Vec::new();
        for (&stream, rx) in self.rx.iter_mut() {
            let Some(&up) = self.upstream.get(&stream) else {
                continue; // producer-local stream: nothing to NACK
            };
            let lost = rx.scan(now, interval, limit);
            if !lost.is_empty() {
                nacks.push((stream, up, lost));
            }
        }
        // `self.rx` is a HashMap: sort so the emitted NACK order (and thus
        // downstream packet interleaving) is identical across processes.
        nacks.sort_by_key(|&(stream, up, _)| (stream, up));
        for (stream, up, lost) in nacks {
            self.stats.nacks_sent += lost.len() as u64;
            self.stats.nack_batches += 1;
            let rtcp = RtcpPacket::Nack(Nack {
                ssrc: ssrc_for_stream(stream),
                lost,
            });
            actions.push(NodeAction::Send {
                to: Subscriber::Node(up),
                msg: OverlayMsg::Rtcp {
                    stream,
                    packet: rtcp.encode(),
                },
            });
        }
        self.sweep_pending_rtx(now);
    }

    /// Evict parked downstream waiters older than the TTL. Without this,
    /// waiters whose packet never arrives here (and stale entries left by
    /// downstream abandonment) would sit until stream teardown, eating the
    /// `MAX_PENDING_RTX` cap and starving live NACKs.
    fn sweep_pending_rtx(&mut self, now: SimTime) {
        let ttl = self.cfg.pending_rtx_ttl;
        let mut expired = 0u64;
        self.pending_rtx.retain(|_, pend| {
            pend.retain(|_, entry| {
                let stale = now.saturating_since(entry.parked_at) >= ttl;
                if stale {
                    expired += 1;
                }
                !stale
            });
            !pend.is_empty()
        });
        self.stats.rtx_pending_expired += expired;
    }

    fn rr_tick(&mut self, _now: SimTime, actions: &mut Vec<NodeAction>) {
        // Receiver reports per (stream, upstream).
        let mut reports = Vec::new();
        for (&stream, rx) in self.rx.iter_mut() {
            let Some(&up) = self.upstream.get(&stream) else {
                continue;
            };
            // No report until the first packet: a `highest_seq` of zero
            // would read as "receiver is a full window behind".
            let Some((loss, highest, jitter)) = rx.rr_stats() else {
                continue;
            };
            reports.push((up, stream, loss, highest, jitter));
        }
        for (up, stream, loss, highest, jitter) in reports {
            let rr = RtcpPacket::ReceiverReport(ReceiverReport {
                ssrc: ssrc_for_stream(stream),
                loss_fraction: loss,
                highest_seq: highest,
                jitter_us: jitter,
            });
            actions.push(NodeAction::Send {
                to: Subscriber::Node(up),
                msg: OverlayMsg::Rtcp {
                    stream,
                    packet: rr.encode(),
                },
            });
        }
        // REMB per upstream neighbor (attach to one of its streams).
        let mut rembs = Vec::new();
        for (&stream, &up) in self.upstream.iter() {
            if rembs.iter().any(|(u, _, _)| *u == up) {
                continue;
            }
            if let Some(est) = self.gcc_rx.get(&up) {
                rembs.push((up, stream, est.estimate()));
            }
        }
        for (up, stream, rate) in rembs {
            let remb = RtcpPacket::Remb(Remb {
                ssrc: ssrc_for_stream(stream),
                bitrate_bps: rate.as_bps(),
            });
            actions.push(NodeAction::Send {
                to: Subscriber::Node(up),
                msg: OverlayMsg::Rtcp {
                    stream,
                    packet: remb.encode(),
                },
            });
        }
        // Housekeeping: bound depacketizer memory.
        for d in self.depack.values_mut() {
            d.gc(8);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Does this node already carry (or is establishing) the stream?
    fn carries(&self, stream: StreamId) -> bool {
        self.is_producer(stream)
            || self.upstream.contains_key(&stream)
            || self.pending.contains_key(&stream)
    }

    /// Initiate our own upstream subscription along `path` (producer-first,
    /// ending at this node).
    fn subscribe_upstream(
        &mut self,
        now: SimTime,
        stream: StreamId,
        path: &[NodeId],
        actions: &mut Vec<NodeAction>,
    ) {
        if self.carries(stream) {
            return;
        }
        let mut remainder: Vec<NodeId> = path.to_vec();
        // Strip ourselves off the tail.
        if remainder.last() == Some(&self.cfg.id) {
            remainder.pop();
        }
        self.subscribe_upstream_remainder(now, stream, remainder, actions);
    }

    fn subscribe_upstream_remainder(
        &mut self,
        _now: SimTime,
        stream: StreamId,
        mut remainder: Vec<NodeId>,
        actions: &mut Vec<NodeAction>,
    ) {
        let Some(next) = remainder.pop() else {
            return;
        };
        self.pending.insert(stream, next);
        actions.push(NodeAction::Send {
            to: Subscriber::Node(next),
            msg: OverlayMsg::Subscribe { stream, remainder },
        });
        actions.push(NodeAction::Event(NodeEvent::SubscribeForwarded {
            stream,
            upstream: next,
        }));
    }

    /// Tear down per-stream state when the last subscriber leaves.
    fn maybe_release_stream(
        &mut self,
        _now: SimTime,
        stream: StreamId,
        actions: &mut Vec<NodeAction>,
    ) {
        if self.fib.has_stream(stream) || self.is_producer(stream) {
            return;
        }
        if let Some(up) = self.upstream.remove(&stream) {
            actions.push(NodeAction::Send {
                to: Subscriber::Node(up),
                msg: OverlayMsg::Unsubscribe { stream },
            });
        }
        self.pending.remove(&stream);
        self.rx.remove(&stream);
        self.depack.remove(&stream);
        self.caches.remove(&stream);
        self.pending_rtx.remove(&stream);
    }

    /// Slow-path: cache + framing (§5.1's GoP caching and Framing Control).
    fn slow_path_insert(
        &mut self,
        now: SimTime,
        stream: StreamId,
        packet: &RtpPacket,
        actions: &mut Vec<NodeAction>,
    ) {
        self.caches
            .entry(stream)
            .or_insert_with(|| StreamCache::new(self.cfg.cache_packets))
            .insert(packet.clone());
        let depack = self.depack.entry(stream).or_default();
        let kind = frag_meta(&packet.payload).and_then(FrameKind::from_nibble);
        depack.push(packet.clone());
        for frame in depack.drain() {
            actions.push(NodeAction::Event(NodeEvent::FrameAssembled {
                stream,
                timestamp: frame.timestamp,
                kind,
                delay_field: frame.delay_field,
            }));
        }
        self.try_complete_switches(now, stream, actions);
    }

    /// Complete any client co-stream switches waiting on this stream.
    fn try_complete_switches(
        &mut self,
        now: SimTime,
        stream: StreamId,
        actions: &mut Vec<NodeAction>,
    ) {
        let _ = now;
        // §5.2: the client flips only once a COMPLETE GoP of the new
        // stream is cached (the switch burst spans two I-frame starts).
        let burst = self
            .caches
            .get(&stream)
            .map(|c| c.switch_burst())
            .unwrap_or_default();
        if burst.is_empty() {
            return;
        }
        let waiting: Vec<ClientId> = self
            .clients
            .iter()
            .filter(|(_, c)| c.pending_switch() == Some(stream))
            .map(|(&id, _)| id)
            .collect();
        for client in waiting {
            let Some(ctl) = self.clients.get_mut(&client) else {
                continue;
            };
            let Some(old) = ctl.complete_switch() else {
                continue;
            };
            let peer = Subscriber::Client(client);
            self.fib.unsubscribe(old, peer);
            self.fib.subscribe(stream, peer);
            actions.push(NodeAction::Event(NodeEvent::SwitchCompleted {
                client,
                from: old,
                to: stream,
            }));
            // Deliver the complete-GoP burst so the client's buffer is
            // full the instant the timeline flips.
            let n = burst.len();
            for pkt in burst.clone() {
                self.enqueue_to_peer(now, peer, stream, pkt, false, actions);
            }
            actions.push(NodeAction::Event(NodeEvent::StartupBurst {
                stream,
                to: peer,
                packets: n,
            }));
            self.maybe_release_stream(now, old, actions);
        }
    }

    /// Fast path: FIB lookup + per-subscriber enqueue.
    fn fast_path_forward(
        &mut self,
        now: SimTime,
        stream: StreamId,
        packet: &RtpPacket,
        retransmit: bool,
        actions: &mut Vec<NodeAction>,
    ) {
        let subscribers: Vec<Subscriber> = self.fib.subscribers(stream).collect();
        let kind = frag_meta(&packet.payload).and_then(FrameKind::from_nibble);
        for sub in subscribers {
            match sub {
                Subscriber::Node(next) => {
                    // Delay field: our processing + half next-hop RTT (§6.1).
                    let half_rtt = self
                        .neighbor_rtt
                        .get(&next)
                        .copied()
                        .unwrap_or(SimDuration::ZERO)
                        / 2;
                    let fwd = packet.with_added_delay(self.cfg.processing_delay + half_rtt);
                    self.enqueue_to_peer(now, sub, stream, fwd, retransmit, actions);
                }
                Subscriber::Client(client) => {
                    // Consumer-side per-client control: frame dropping,
                    // bitrate step-down.
                    let backlogged = self
                        .pacers
                        .get(&sub)
                        .map(|p| p.is_backlogged())
                        .unwrap_or(false);
                    let Some(ctl) = self.clients.get_mut(&client) else {
                        continue;
                    };
                    if ctl.stream != stream {
                        continue; // stale FIB entry mid-switch
                    }
                    if !ctl.admit(now, kind, backlogged) {
                        // Frame dropper rejected this packet; also purge any
                        // already-queued packets of the same frame.
                        let ts = packet.header.timestamp;
                        if let Some(p) = self.pacers.get_mut(&sub) {
                            p.drop_video_where(|o| {
                                o.stream == stream && o.packet.header.timestamp == ts
                            });
                        }
                        continue;
                    }
                    if ctl.wants_lower_bitrate(now) {
                        if let Some(lower) = ctl.lower_rendition() {
                            ctl.apply_step_down(lower, now);
                            let peer = Subscriber::Client(client);
                            self.fib.unsubscribe(stream, peer);
                            self.fib.subscribe(lower, peer);
                            actions.push(NodeAction::Event(NodeEvent::SteppedDown {
                                client,
                                to: lower,
                            }));
                            // NOTE: the lower rendition must already flow to
                            // this node (simulcast uploads all renditions to
                            // the producer; consumers subscribe per need).
                            // The driver subscribes us if it does not.
                            continue;
                        }
                    }
                    let fwd = packet.with_added_delay(self.cfg.processing_delay);
                    self.enqueue_to_peer(now, sub, stream, fwd, retransmit, actions);
                }
            }
        }
    }

    /// Enqueue a packet into a peer's pacer and flush/arm the pacer timer.
    fn enqueue_to_peer(
        &mut self,
        now: SimTime,
        peer: Subscriber,
        stream: StreamId,
        packet: RtpPacket,
        retransmit: bool,
        actions: &mut Vec<NodeAction>,
    ) {
        let kind = frag_meta(&packet.payload).and_then(FrameKind::from_nibble);
        let priority = if packet.header.kind == MediaKind::Audio {
            SendPriority::Audio
        } else if retransmit {
            SendPriority::Retransmission
        } else {
            SendPriority::Video
        };
        let is_iframe = kind == Some(FrameKind::I);
        let bytes = packet.wire_len() + 18; // envelope overhead
        let pacer = self
            .pacers
            .entry(peer)
            .or_insert_with(|| Pacer::new(self.cfg.pacer, self.cfg.initial_rate));
        pacer.enqueue(PacedPacket {
            priority,
            bytes,
            is_iframe,
            payload: OutPkt {
                stream,
                packet,
                retransmit,
            },
        });
        self.flush_pacer(now, peer, actions);
    }

    /// Poll a peer's pacer: emit sends, then arm the next poll timer.
    fn flush_pacer(&mut self, now: SimTime, peer: Subscriber, actions: &mut Vec<NodeAction>) {
        let Some(pacer) = self.pacers.get_mut(&peer) else {
            return;
        };
        for released in pacer.poll(now) {
            self.stats.forwarded += 1;
            let out = released.payload;
            actions.push(NodeAction::Send {
                to: peer,
                msg: OverlayMsg::Rtp {
                    stream: out.stream,
                    sent_at: now,
                    packet: out.packet.encode(),
                    retransmit: out.retransmit,
                },
            });
        }
        if let Some(next) = pacer.next_send_time(now) {
            let next = next.max(now + SimDuration::from_micros(100));
            let armed = self.pacer_armed.get(&peer).copied();
            if armed.is_none_or(|t| t > next) {
                self.pacer_armed.insert(peer, next);
                actions.push(NodeAction::SetTimer {
                    at: next,
                    key: TimerKind::PacerPoll(peer).encode(),
                });
            }
        }
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
        let burst = match self.caches.get(&stream) {
            Some(c) => c.startup_burst(),
            None => Vec::new(),
        };
        if burst.is_empty() {
            return;
        }
        let n = burst.len();
        for pkt in burst {
            self.enqueue_to_peer(now, to, stream, pkt, false, actions);
        }
        actions.push(NodeAction::Event(NodeEvent::StartupBurst {
            stream,
            to,
            packets: n,
        }));
    }
}
