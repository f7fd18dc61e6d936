//! A UDP overlay node: the sans-I/O core + a tokio event loop.
//!
//! The driver owns everything the core deliberately does not: the sockets,
//! the address books (peer ⇄ addr, client ⇄ addr), the timer wheel, and
//! the command channel. Datagrams are routed into the core by source
//! address — peer addresses through [`OverlayNode::on_datagram`], attached
//! client addresses through [`OverlayNode::on_client_datagram`] (so client
//! RTCP feedback drives cc and loss recovery on the wire exactly as in the
//! emulator), and unknown sources are dropped and counted.
//!
//! Two scale mechanisms ride under the same command API ([`WireNodeConfig`]):
//!
//! * **Batched I/O** — datagrams are received and sent through
//!   [`BatchSocket`] (`sendmmsg`/`recvmmsg` on Linux, a portable loop
//!   elsewhere), so a busy reflector pays ~1/32 of a syscall per datagram
//!   instead of one.
//! * **Socket sharding** — a node may bind several sockets; each remote
//!   (peer or client) is pinned to the shard `remote_id % shards` on
//!   *this* node's side, for both directions. A peer therefore always
//!   talks to the same local socket, kernel receive buffers multiply with
//!   the shard count, and per-shard recv loops stop serializing behind one
//!   another. Wiring code asks the *destination* handle which address a
//!   given source should target ([`NodeHandle::addr_for_peer`] /
//!   [`NodeHandle::addr_for_client`]).

use crate::batch::{self, BatchBackend, BatchSocket, RecvBatch, SendDatagram, MAX_BATCH};
use crate::clock::WallClock;
use crate::telemetry::SharedTelemetry;
use bytes::Bytes;
use livenet_media::{EncodedFrame, SimulcastLadder};
use livenet_node::{NodeAction, NodeConfig, NodeEvent, OverlayNode, Subscriber, TimerKind};
use livenet_telemetry::{ids, MetricSink, Span};
use livenet_types::{Bandwidth, ClientId, Error, NodeId, SimDuration, SimTime, StreamId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::sync::mpsc;

/// The UDP payload ceiling: receive buffers never need to exceed this,
/// whatever `NodeConfig::max_datagram_bytes` says.
const MAX_UDP_DATAGRAM: usize = 64 * 1024;

/// Most shards a single node may bind. Past this the fan-in win is gone
/// and the per-shard poll cost starts to dominate.
const MAX_RECV_SHARDS: usize = 16;

/// Flush-loop yields tolerated before the rest of a send batch is dropped
/// (and counted as send errors). UDP send buffers drain in kernel time, so
/// hitting this means the socket is wedged, not slow.
const MAX_FLUSH_RETRIES: u64 = 10_000;

/// The validated configuration surface for one wire node: the sans-I/O
/// core's [`NodeConfig`] plus the driver-level batching and sharding
/// knobs that only exist on real sockets.
#[derive(Debug, Clone)]
pub struct WireNodeConfig {
    /// The protocol core's configuration (including
    /// `max_datagram_bytes`, which sizes the receive slots here).
    pub node: NodeConfig,
    /// Max datagrams moved per batch syscall (1..=[`MAX_BATCH`]).
    pub batch: usize,
    /// Sockets this node binds (1..=16). Remotes are pinned to shard
    /// `id % recv_shards` for both directions.
    pub recv_shards: usize,
    /// I/O backend; [`BatchBackend::auto`] picks `mmsg` where available.
    pub backend: BatchBackend,
}

impl WireNodeConfig {
    /// Driver defaults (batch 32, one shard, auto backend) around a core
    /// config.
    pub fn new(node: NodeConfig) -> WireNodeConfig {
        WireNodeConfig {
            node,
            batch: 32,
            recv_shards: 1,
            backend: BatchBackend::auto(),
        }
    }

    /// Set the batch size (validated by [`WireNodeConfig::validate`]).
    pub fn with_batch(mut self, batch: usize) -> WireNodeConfig {
        self.batch = batch;
        self
    }

    /// Set the shard count (validated by [`WireNodeConfig::validate`]).
    pub fn with_recv_shards(mut self, shards: usize) -> WireNodeConfig {
        self.recv_shards = shards;
        self
    }

    /// Force an I/O backend (tests pin `Sequential` to compare paths).
    pub fn with_backend(mut self, backend: BatchBackend) -> WireNodeConfig {
        self.backend = backend;
        self
    }

    /// Reject configurations that would bind no sockets, issue empty
    /// batch syscalls, or truncate every datagram.
    pub fn validate(&self) -> livenet_types::Result<()> {
        if self.batch == 0 || self.batch > MAX_BATCH {
            return Err(Error::invalid_config(format!(
                "batch must be in 1..={MAX_BATCH}, got {}",
                self.batch
            )));
        }
        if self.recv_shards == 0 || self.recv_shards > MAX_RECV_SHARDS {
            return Err(Error::invalid_config(format!(
                "recv_shards must be in 1..={MAX_RECV_SHARDS}, got {}",
                self.recv_shards
            )));
        }
        if self.node.max_datagram_bytes < 512 {
            return Err(Error::invalid_config(format!(
                "max_datagram_bytes must be >= 512 (one RTP packet), got {}",
                self.node.max_datagram_bytes
            )));
        }
        Ok(())
    }
}

/// Commands accepted by a running node.
#[derive(Debug)]
pub enum NodeCommand {
    /// Declare this node the producer of a stream.
    RegisterProducer {
        /// The stream.
        stream: StreamId,
        /// Optional simulcast ladder for consumer-side selection.
        ladder: Option<SimulcastLadder>,
    },
    /// Ingest one encoded frame from a local broadcaster.
    Ingest {
        /// Frame metadata.
        frame: EncodedFrame,
        /// Encoded payload.
        payload: Bytes,
    },
    /// Register a peer overlay node's address.
    AddPeer {
        /// Peer id.
        node: NodeId,
        /// Peer socket address — the shard of the *peer* that this node
        /// should target, i.e. `peer_handle.addr_for_peer(my_id)`.
        addr: SocketAddr,
        /// RTT hint for the delay field.
        rtt: SimDuration,
    },
    /// Attach a viewer client (delivery over UDP to `addr`).
    ClientAttach {
        /// Client id.
        client: ClientId,
        /// Requested stream.
        stream: StreamId,
        /// Estimated downlink.
        downlink: Option<Bandwidth>,
        /// Producer-first path for reverse subscription (None = local hit
        /// expected).
        path: Option<Vec<NodeId>>,
        /// Where to send the client's packets — and where its RTCP
        /// feedback will come from.
        addr: SocketAddr,
    },
    /// Detach a viewer.
    ClientDetach {
        /// Client id.
        client: ClientId,
    },
    /// Stop the event loop.
    Shutdown,
}

/// Error returned by [`NodeHandle::send`] when the node task has exited
/// (shut down, panicked, or been aborted) and the command channel closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeGone;

impl std::fmt::Display for NodeGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "overlay node task has exited")
    }
}

impl std::error::Error for NodeGone {}

/// Handle to a spawned node.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    tx: mpsc::Sender<NodeCommand>,
    /// The node's primary (shard-0) socket address.
    pub addr: SocketAddr,
    /// All shard socket addresses, in shard order.
    pub shard_addrs: Arc<[SocketAddr]>,
    /// The node's overlay id.
    pub id: NodeId,
}

impl NodeHandle {
    /// Send a command to the node's event loop. Errors (instead of
    /// panicking) when the task is gone, so shutdown races — a command
    /// sent while the node is draining — stay recoverable.
    pub async fn send(&self, cmd: NodeCommand) -> Result<(), NodeGone> {
        self.tx.send(cmd).await.map_err(|_| NodeGone)
    }

    /// The shard address peer `from` must target when sending to this
    /// node (and the source address this node uses toward `from`).
    pub fn addr_for_peer(&self, from: NodeId) -> SocketAddr {
        self.shard_addrs[(from.raw() as usize) % self.shard_addrs.len()]
    }

    /// The shard address client `from` must target when sending to this
    /// node (and the source address this node uses toward `from`).
    pub fn addr_for_client(&self, from: ClientId) -> SocketAddr {
        self.shard_addrs[(from.raw() as usize) % self.shard_addrs.len()]
    }
}

/// The tokio driver around one [`OverlayNode`].
pub struct UdpOverlayNode {
    core: OverlayNode,
    sockets: Vec<BatchSocket>,
    clock: WallClock,
    peers: HashMap<NodeId, SocketAddr>,
    peer_of_addr: HashMap<SocketAddr, NodeId>,
    clients: HashMap<ClientId, SocketAddr>,
    client_of_addr: HashMap<SocketAddr, ClientId>,
    /// Pending timers as `(deadline, key, generation)`. A popped entry
    /// whose generation no longer matches `timer_gen[key]` was cancelled
    /// and is skipped instead of fired.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    timer_gen: HashMap<u64, u64>,
    /// Receive slot capacity (from `NodeConfig::max_datagram_bytes`,
    /// capped at [`MAX_UDP_DATAGRAM`]).
    recv_cap: usize,
    /// Max datagrams per batch syscall.
    batch: usize,
    /// Per-shard outbound queues, filled by `apply` and drained by
    /// `flush_sends` in batch syscalls.
    out: Vec<Vec<SendDatagram>>,
    rx: mpsc::Receiver<NodeCommand>,
    /// Instrumentation events observed (bounded ring would be production
    /// behaviour; tests drain it via the returned channel).
    events_tx: mpsc::UnboundedSender<(SimTime, NodeEvent)>,
    telemetry: SharedTelemetry,
}

impl UdpOverlayNode {
    /// Bind `config.recv_shards` sockets and spawn the node's event loop,
    /// recording into `telemetry` — one hub can aggregate a whole overlay.
    /// On exit the node also records its core's
    /// [`livenet_node::NodeStats`] and cc decision totals.
    ///
    /// Returns the handle, an event stream, and the join handle (which
    /// resolves to the sans-I/O core for post-mortem inspection). The
    /// driver config is validated first; an invalid one surfaces as
    /// `InvalidInput` rather than binding half a node.
    pub async fn spawn_wire(
        config: WireNodeConfig,
        bind: SocketAddr,
        clock: WallClock,
        telemetry: SharedTelemetry,
    ) -> std::io::Result<(
        NodeHandle,
        mpsc::UnboundedReceiver<(SimTime, NodeEvent)>,
        tokio::task::JoinHandle<OverlayNode>,
    )> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut sockets = Vec::with_capacity(config.recv_shards);
        for _ in 0..config.recv_shards {
            sockets.push(BatchSocket::bind(bind, config.backend)?);
        }
        let shard_addrs: Arc<[SocketAddr]> =
            sockets.iter().map(BatchSocket::local_addr).collect();
        let addr = shard_addrs[0];
        let id = config.node.id;
        let recv_cap = config.node.max_datagram_bytes.min(MAX_UDP_DATAGRAM);
        let batch = config.batch;
        let (tx, rx) = mpsc::channel(256);
        let (events_tx, events_rx) = mpsc::unbounded_channel();
        let out = (0..config.recv_shards).map(|_| Vec::new()).collect();
        let mut node = UdpOverlayNode {
            core: OverlayNode::new(config.node),
            sockets,
            clock,
            peers: HashMap::new(),
            peer_of_addr: HashMap::new(),
            clients: HashMap::new(),
            client_of_addr: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_gen: HashMap::new(),
            recv_cap,
            batch,
            out,
            rx,
            events_tx,
            telemetry,
        };
        let join = tokio::spawn(async move {
            node.run().await;
            node.finish()
        });
        Ok((
            NodeHandle {
                tx,
                addr,
                shard_addrs,
                id,
            },
            events_rx,
            join,
        ))
    }

    /// The local socket index all traffic to/from peer `node` uses.
    fn shard_for_peer(&self, node: NodeId) -> usize {
        (node.raw() as usize) % self.sockets.len()
    }

    /// The local socket index all traffic to/from client `client` uses.
    fn shard_for_client(&self, client: ClientId) -> usize {
        (client.raw() as usize) % self.sockets.len()
    }

    async fn run(&mut self) {
        let start_actions = self.core.start(self.clock.now());
        self.apply(start_actions).await;
        // One extra byte past the cap per slot: a slot filled to `cap + 1`
        // proves the datagram was larger than the cap and got truncated by
        // the kernel, which an exact-cap read could not distinguish.
        let mut batch = RecvBatch::new(self.batch, self.recv_cap);
        let mut next_shard = 0usize;
        loop {
            let next_timer = self.timers.peek().map(|Reverse((t, _, _))| *t);
            let sleep_until = next_timer
                .map(|t| self.clock.instant_at(t))
                .unwrap_or_else(|| {
                    self.clock.instant_at(self.clock.now() + SimDuration::from_secs(3600))
                });
            tokio::select! {
                biased;
                cmd = self.rx.recv() => {
                    match cmd {
                        None | Some(NodeCommand::Shutdown) => return,
                        Some(cmd) => self.handle_command(cmd).await,
                    }
                }
                recv = batch::recv_any(&self.sockets, next_shard, &mut batch) => {
                    if let Ok((shard, _count)) = recv {
                        // Round-robin fairness: resume the scan after the
                        // shard that just produced, so a firehose shard
                        // cannot starve its siblings.
                        next_shard = (shard + 1) % self.sockets.len();
                        self.dispatch_batch(&batch).await;
                    }
                }
                _ = tokio::time::sleep_until(sleep_until) => {
                    self.fire_due_timers().await;
                }
            }
        }
    }

    /// Route one received batch into the core by source address.
    async fn dispatch_batch(&mut self, batch: &RecvBatch) {
        let fill = batch.len() as u64;
        self.telemetry.with(|h| {
            h.incr(ids::TRANSPORT_BATCH_RX_SYSCALLS);
            h.observe(ids::TRANSPORT_BATCH_RX_FILL, fill as f64);
        });
        let mut truncated = 0u64;
        let mut unknown = 0u64;
        let mut dispatched = 0u64;
        let started = self.clock.now();
        let span = Span::begin(ids::TRANSPORT_RX_DISPATCH_MS, started);
        for d in batch.iter() {
            if d.truncated {
                // Truncated by the kernel: the tail is gone, decoding
                // would at best produce a corrupt packet. Drop loudly.
                truncated += 1;
                continue;
            }
            let now = self.clock.now();
            let actions = if let Some(&from) = self.peer_of_addr.get(&d.src) {
                self.core.on_datagram(now, from, Bytes::copy_from_slice(d.data))
            } else if let Some(&client) = self.client_of_addr.get(&d.src) {
                self.core
                    .on_client_datagram(now, client, Bytes::copy_from_slice(d.data))
            } else {
                unknown += 1;
                continue;
            };
            dispatched += 1;
            self.apply(actions).await;
        }
        let end = self.clock.now();
        self.telemetry.with(|h| {
            if truncated > 0 {
                h.add(ids::TRANSPORT_RECV_TRUNCATED, truncated);
            }
            if unknown > 0 {
                h.add(ids::TRANSPORT_UNKNOWN_SOURCE_DROPS, unknown);
            }
            if dispatched > 0 {
                h.add(ids::TRANSPORT_RX_DATAGRAMS, dispatched);
            }
            span.end(h, end);
        });
    }

    async fn fire_due_timers(&mut self) {
        // Pop-one / fire / re-read the clock: `apply` can itself arm a
        // timer for an instant earlier than the next heap entry (a pacer
        // re-poll, say), and re-evaluating `now` and the heap head after
        // every apply fires it in this same pass instead of letting it
        // wait out a full sleep cycle.
        loop {
            let now = self.clock.now();
            let Some(&Reverse((t, key, gen))) = self.timers.peek() else {
                break;
            };
            if t > now {
                break;
            }
            self.timers.pop();
            if self.timer_gen.get(&key).copied().unwrap_or(0) != gen {
                self.telemetry
                    .with(|h| h.incr(ids::TRANSPORT_TIMERS_CANCELLED));
                continue;
            }
            let actions = self.core.on_timer(now, key);
            self.apply(actions).await;
        }
    }

    /// Invalidate every pending heap entry for `key` by bumping its
    /// generation; entries already in the heap are skipped when popped.
    fn cancel_timer(&mut self, key: u64) {
        *self.timer_gen.entry(key).or_insert(0) += 1;
    }

    async fn handle_command(&mut self, cmd: NodeCommand) {
        let now = self.clock.now();
        match cmd {
            NodeCommand::RegisterProducer { stream, ladder } => {
                self.core.register_producer(stream, ladder);
            }
            NodeCommand::Ingest { frame, payload } => {
                let actions = self.core.ingest_frame(now, &frame, &payload);
                self.apply(actions).await;
            }
            NodeCommand::AddPeer { node, addr, rtt } => {
                // A re-homed peer (same id, new address) must not keep
                // delivering datagrams under its old address mapping.
                if let Some(old) = self.peers.insert(node, addr) {
                    if old != addr && self.peer_of_addr.get(&old) == Some(&node) {
                        self.peer_of_addr.remove(&old);
                    }
                }
                self.peer_of_addr.insert(addr, node);
                self.core.set_neighbor_rtt(node, rtt);
            }
            NodeCommand::ClientAttach {
                client,
                stream,
                downlink,
                path,
                addr,
            } => {
                if let Some(old) = self.clients.insert(client, addr) {
                    if old != addr && self.client_of_addr.get(&old) == Some(&client) {
                        self.client_of_addr.remove(&old);
                    }
                }
                self.client_of_addr.insert(addr, client);
                let mut actions = Vec::new();
                self.core.client_attach(
                    now,
                    client,
                    stream,
                    downlink,
                    path.as_deref(),
                    &mut actions,
                );
                self.apply(actions).await;
            }
            NodeCommand::ClientDetach { client } => {
                let mut actions = Vec::new();
                self.core.client_detach(now, client, &mut actions);
                if let Some(addr) = self.clients.remove(&client) {
                    if self.client_of_addr.get(&addr) == Some(&client) {
                        self.client_of_addr.remove(&addr);
                    }
                }
                // The core dropped the client's pacer; its armed poll
                // timer must not fire against the stale key.
                self.cancel_timer(TimerKind::PacerPoll(Subscriber::Client(client)).encode());
                self.apply(actions).await;
            }
            NodeCommand::Shutdown => {}
        }
    }

    async fn apply(&mut self, actions: Vec<NodeAction>) {
        let mut queued = false;
        for action in actions {
            match action {
                NodeAction::Send { to, msg } => {
                    let route = match to {
                        Subscriber::Node(n) => self
                            .peers
                            .get(&n)
                            .copied()
                            .map(|addr| (self.shard_for_peer(n), addr)),
                        Subscriber::Client(c) => self
                            .clients
                            .get(&c)
                            .copied()
                            .map(|addr| (self.shard_for_client(c), addr)),
                    };
                    if let Some((shard, addr)) = route {
                        self.out[shard].push(SendDatagram {
                            to: addr,
                            payload: msg.encode(),
                        });
                        queued = true;
                    }
                }
                NodeAction::SetTimer { at, key } => {
                    let gen = self.timer_gen.get(&key).copied().unwrap_or(0);
                    self.timers.push(Reverse((at, key, gen)));
                }
                NodeAction::Event(e) => {
                    let _ = self.events_tx.send((self.clock.now(), e));
                }
            }
        }
        if queued {
            self.flush_sends().await;
        }
    }

    /// Drain every shard's outbound queue in batch syscalls. Best-effort,
    /// like the fast path demands: a wedged socket drops the remainder
    /// (counted), a failing head datagram is dropped (counted) and the
    /// rest of the batch proceeds.
    async fn flush_sends(&mut self) {
        let mut tx_datagrams = 0u64;
        let mut tx_bytes = 0u64;
        let mut send_errors = 0u64;
        let mut syscalls = 0u64;
        let mut retries = 0u64;
        let mut fills: Vec<u64> = Vec::new();
        for shard in 0..self.out.len() {
            let mut sent = 0usize;
            let mut budget = MAX_FLUSH_RETRIES;
            while sent < self.out[shard].len() {
                match self.sockets[shard].try_send_batch(&self.out[shard][sent..]) {
                    Ok(0) => {
                        retries += 1;
                        budget -= 1;
                        if budget == 0 {
                            send_errors += (self.out[shard].len() - sent) as u64;
                            break;
                        }
                        // The send buffer is full; let the receivers (and
                        // the kernel) drain it before retrying.
                        tokio::runtime::yield_now().await;
                    }
                    Ok(n) => {
                        syscalls += 1;
                        fills.push(n as u64);
                        for m in &self.out[shard][sent..sent + n] {
                            tx_bytes += m.payload.len() as u64;
                        }
                        tx_datagrams += n as u64;
                        sent += n;
                    }
                    Err(_) => {
                        // Head datagram is unsendable: drop it, move on.
                        send_errors += 1;
                        sent += 1;
                    }
                }
            }
            self.out[shard].clear();
        }
        if tx_datagrams > 0 || send_errors > 0 {
            self.telemetry.with(|h| {
                h.add(ids::TRANSPORT_TX_DATAGRAMS, tx_datagrams);
                h.add(ids::TRANSPORT_TX_BYTES, tx_bytes);
                h.add(ids::TRANSPORT_SEND_ERRORS, send_errors);
                h.add(ids::TRANSPORT_BATCH_TX_SYSCALLS, syscalls);
                h.add(ids::TRANSPORT_BATCH_TX_RETRIES, retries);
                for f in &fills {
                    h.observe(ids::TRANSPORT_BATCH_TX_FILL, *f as f64);
                }
            });
        }
    }

    /// Record the core's cumulative stats into the shared hub and hand the
    /// core back (the join handle's return value).
    fn finish(self) -> OverlayNode {
        let core = self.core;
        self.telemetry.with(|h| {
            core.stats.record_into(h);
            core.cc_decision_totals().record_into(h);
        });
        core
    }
}
