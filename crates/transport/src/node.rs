//! A UDP overlay node: the sans-I/O core + a tokio event loop.
//!
//! The driver owns everything the core deliberately does not: the socket,
//! the address books (peer ⇄ addr, client ⇄ addr), the timer calendar
//! and the command channel. Datagrams are routed into the core by source
//! address — peer addresses through [`OverlayNode::on_datagram`], attached
//! client addresses through [`OverlayNode::on_client_datagram`] (so client
//! RTCP feedback drives cc and loss recovery on the wire exactly as in the
//! emulator), and unknown sources are dropped and counted. A timer is
//! armed and forgotten, as in the emulator: whether a fire is still due
//! is the core's call ([`OverlayNode::on_timer`]).
//!
//! A node binds one [`BatchSocket`]: datagrams are received and sent in
//! batches (`sendmmsg`/`recvmmsg` on Linux, a portable loop elsewhere), so
//! a busy reflector pays ~1/32 of a syscall per datagram instead of one.

use crate::batch::{BatchBackend, BatchSocket, RecvBatch, SendDatagram};
use crate::clock::WallClock;
use crate::telemetry::SharedTelemetry;
use bytes::Bytes;
use livenet_media::EncodedFrame;
use livenet_node::{NodeAction, NodeConfig, NodeEvent, OverlayNode, Subscriber};
use livenet_telemetry::{ids, MetricSink, Span};
use livenet_types::{
    Bandwidth, ClientId, Error, EventQueue, NodeId, SimDuration, SimTime, StreamId,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use tokio::sync::mpsc;

/// The UDP payload ceiling: receive buffers never need to exceed this,
/// whatever `NodeConfig::max_datagram_bytes` says.
const MAX_UDP_DATAGRAM: usize = 64 * 1024;

/// Datagrams moved per receive syscall.
const BATCH: usize = 32;

/// Flush-loop yields tolerated before the rest of a send batch is dropped
/// (and counted as send errors). UDP send buffers drain in kernel time, so
/// hitting this means the socket is wedged, not slow.
const MAX_FLUSH_RETRIES: u64 = 10_000;

/// The validated configuration surface for one wire node: the sans-I/O
/// core's [`NodeConfig`] plus the socket's I/O backend.
#[derive(Debug, Clone)]
pub struct WireNodeConfig {
    /// The protocol core's configuration (including
    /// `max_datagram_bytes`, which sizes the receive slots here).
    pub node: NodeConfig,
    /// I/O backend; [`BatchBackend::auto`] picks `mmsg` where available.
    pub backend: BatchBackend,
}

impl WireNodeConfig {
    /// A core config on the platform's best backend
    /// ([`BatchBackend::auto`]).
    pub fn new(node: NodeConfig) -> WireNodeConfig {
        WireNodeConfig {
            node,
            backend: BatchBackend::auto(),
        }
    }

    /// Force an I/O backend (tests pin `Sequential` to compare paths).
    pub fn with_backend(mut self, backend: BatchBackend) -> WireNodeConfig {
        self.backend = backend;
        self
    }

    /// Reject a datagram cap that would truncate every RTP packet.
    pub fn validate(&self) -> livenet_types::Result<()> {
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
        /// Always `None`; a placeholder that ROADMAP item 1 removes.
        ladder: Option<std::convert::Infallible>,
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
        /// Peer socket address (the peer handle's `addr`).
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
    /// The node's socket address.
    pub addr: SocketAddr,
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

    /// The address peer `_from` sends to: the node's one socket.
    pub fn addr_for_peer(&self, _from: NodeId) -> SocketAddr {
        self.addr
    }

    /// The address client `_from` sends to: the node's one socket.
    pub fn addr_for_client(&self, _from: ClientId) -> SocketAddr {
        self.addr
    }
}

/// The tokio driver around one [`OverlayNode`].
pub struct UdpOverlayNode {
    core: OverlayNode,
    socket: BatchSocket,
    clock: WallClock,
    peers: HashMap<NodeId, SocketAddr>,
    peer_of_addr: HashMap<SocketAddr, NodeId>,
    clients: HashMap<ClientId, SocketAddr>,
    client_of_addr: HashMap<SocketAddr, ClientId>,
    /// Armed timer keys by deadline.
    timers: EventQueue<u64>,
    /// Receive slot capacity (from `NodeConfig::max_datagram_bytes`,
    /// capped at [`MAX_UDP_DATAGRAM`]).
    recv_cap: usize,
    /// The outbound queue, filled by `apply` and drained by `flush_sends`
    /// in batch syscalls.
    out: Vec<SendDatagram>,
    rx: mpsc::Receiver<NodeCommand>,
    /// Instrumentation events observed (bounded ring would be production
    /// behaviour; tests drain it via the returned channel).
    events_tx: mpsc::UnboundedSender<(SimTime, NodeEvent)>,
    telemetry: SharedTelemetry,
}

impl UdpOverlayNode {
    /// Bind the node's socket and spawn its event loop, recording into
    /// `telemetry` — one hub can aggregate a whole overlay. On exit the
    /// node also records its core's [`livenet_node::NodeStats`] and cc
    /// decision totals.
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
        let socket = BatchSocket::bind(bind, config.backend)?;
        let addr = socket.local_addr();
        let id = config.node.id;
        let recv_cap = config.node.max_datagram_bytes.min(MAX_UDP_DATAGRAM);
        let (tx, rx) = mpsc::channel(256);
        let (events_tx, events_rx) = mpsc::unbounded_channel();
        let mut node = UdpOverlayNode {
            core: OverlayNode::new(config.node),
            socket,
            clock,
            peers: HashMap::new(),
            peer_of_addr: HashMap::new(),
            clients: HashMap::new(),
            client_of_addr: HashMap::new(),
            timers: EventQueue::new(),
            recv_cap,
            out: Vec::new(),
            rx,
            events_tx,
            telemetry,
        };
        let join = tokio::spawn(async move {
            node.run().await;
            node.finish()
        });
        Ok((NodeHandle { tx, addr, id }, events_rx, join))
    }

    async fn run(&mut self) {
        let start_actions = self.core.start(self.clock.now());
        self.apply(start_actions).await;
        // One extra byte past the cap per slot: a slot filled to `cap + 1`
        // proves the datagram was larger than the cap and got truncated by
        // the kernel, which an exact-cap read could not distinguish.
        let mut batch = RecvBatch::new(BATCH, self.recv_cap);
        loop {
            let sleep_until = self
                .timers
                .peek_time()
                .map(|t| self.clock.instant_at(t))
                .unwrap_or_else(|| {
                    self.clock
                        .instant_at(self.clock.now() + SimDuration::from_secs(3600))
                });
            tokio::select! {
                biased;
                cmd = self.rx.recv() => {
                    match cmd {
                        None | Some(NodeCommand::Shutdown) => return,
                        Some(cmd) => self.handle_command(cmd).await,
                    }
                }
                recv = self.socket.recv_batch(&mut batch) => {
                    if recv.is_ok() {
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
                self.core
                    .on_datagram(now, from, Bytes::copy_from_slice(d.data))
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
        // timer for an instant earlier than the next queued one (a pacer
        // re-poll, say), and re-reading `now` after every apply fires it
        // in this same pass instead of letting it wait out a full sleep.
        loop {
            let now = self.clock.now();
            let Some((_, key)) = self.timers.pop_until(now) else {
                break;
            };
            let actions = self.core.on_timer(now, key);
            self.apply(actions).await;
        }
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
                    let dest = match to {
                        Subscriber::Node(n) => self.peers.get(&n),
                        Subscriber::Client(c) => self.clients.get(&c),
                    };
                    if let Some(&addr) = dest {
                        self.out.push(SendDatagram {
                            to: addr,
                            payload: msg.encode(),
                        });
                        queued = true;
                    }
                }
                NodeAction::SetTimer { at, key } => {
                    self.timers.schedule(at.max(self.timers.now()), key)
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

    /// Drain the outbound queue in batch syscalls. Best-effort, like the
    /// fast path demands: a wedged socket drops the remainder (counted), a
    /// failing head datagram is dropped (counted) and the rest of the
    /// batch proceeds.
    async fn flush_sends(&mut self) {
        let mut tx_datagrams = 0u64;
        let mut tx_bytes = 0u64;
        let mut send_errors = 0u64;
        let mut syscalls = 0u64;
        let mut retries = 0u64;
        let mut fills: Vec<u64> = Vec::new();
        let mut sent = 0usize;
        let mut budget = MAX_FLUSH_RETRIES;
        while sent < self.out.len() {
            match self.socket.try_send_batch(&self.out[sent..]) {
                Ok(0) => {
                    retries += 1;
                    budget -= 1;
                    if budget == 0 {
                        send_errors += (self.out.len() - sent) as u64;
                        break;
                    }
                    // The send buffer is full; let the receivers (and the
                    // kernel) drain it before retrying.
                    tokio::runtime::yield_now().await;
                }
                Ok(n) => {
                    syscalls += 1;
                    fills.push(n as u64);
                    for m in &self.out[sent..sent + n] {
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
        self.out.clear();
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
