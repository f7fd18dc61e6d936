//! Typed metric identifiers.
//!
//! A [`MetricId`] is a newtype over a `&'static str` so call sites can't mix
//! up a metric name with any other string, and so the set of metrics the
//! stack emits is enumerable in one place ([`ids`]).  Names are dotted paths
//! namespaced by the layer that owns them (`emu.*`, `node.*`, `brain.*`,
//! `cc.*`, `fleet.*`) plus `stage.*` for the per-stage latency attribution
//! the paper's client logs support (§6.1).

use core::fmt;

/// A typed metric identifier: a static dotted name such as
/// `"stage.first_packet_ms"`.
///
/// Ordering and equality are by name, so `MetricId` can key the hub's
/// `BTreeMap`s and snapshots sort identically everywhere.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(pub &'static str);

impl MetricId {
    /// The metric name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Debug for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricId({})", self.0)
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Canonical metric ids emitted by the stack.
///
/// Grouped by owning layer.  Everything here maps onto one of the paper's
/// three log pipelines; see DESIGN.md §9 for the full mapping.
pub mod ids {
    use super::MetricId;

    // ---- emu: the packet-level event loop (consumer-node log analogue) ----

    /// Packets delivered across any link.
    pub const EMU_DELIVERED: MetricId = MetricId("emu.delivered");
    /// Packets lost to the random / Gilbert-Elliott loss model.
    pub const EMU_LOST_RANDOM: MetricId = MetricId("emu.lost_random");
    /// Packets dropped because a link's queue was full.
    pub const EMU_LOST_QUEUE: MetricId = MetricId("emu.lost_queue");
    /// Packets dropped on links that were administratively down.
    pub const EMU_LOST_DOWN: MetricId = MetricId("emu.lost_down");
    /// Packets dropped because no link existed for the requested hop.
    pub const EMU_NO_ROUTE: MetricId = MetricId("emu.no_route_drops");
    /// Packets blackholed by injected faults (crashed hosts, dead links).
    pub const EMU_FAULT_DROPS: MetricId = MetricId("emu.fault_drops");
    /// Fault episodes applied, by kind.
    pub const EMU_FAULT_NODE_CRASH: MetricId = MetricId("emu.fault.node_crash");
    /// Node restarts applied.
    pub const EMU_FAULT_NODE_RESTART: MetricId = MetricId("emu.fault.node_restart");
    /// Links taken down by fault injection.
    pub const EMU_FAULT_LINK_DOWN: MetricId = MetricId("emu.fault.link_down");
    /// Links restored by fault injection.
    pub const EMU_FAULT_LINK_UP: MetricId = MetricId("emu.fault.link_up");
    /// Loss-burst episodes started.
    pub const EMU_FAULT_LOSS_BURST: MetricId = MetricId("emu.fault.loss_burst");
    /// Per-send snapshot of the chosen link's queue backlog, in packets.
    pub const EMU_QUEUE_DEPTH: MetricId = MetricId("emu.queue_depth_pkts");

    // ---- node: overlay forwarding (consumer-node log analogue) ----

    /// Media packets forwarded downstream.
    pub const NODE_FORWARDED: MetricId = MetricId("node.forwarded");
    /// Media packets ingested from upstream.
    pub const NODE_INGESTED: MetricId = MetricId("node.ingested");
    /// Retransmissions served from the local packet cache.
    pub const NODE_RTX_SERVED: MetricId = MetricId("node.rtx_served");
    /// NACKs that missed the local cache.
    pub const NODE_RTX_UNAVAILABLE: MetricId = MetricId("node.rtx_unavailable");
    /// Lost sequence numbers NACKed upstream (per seq, comparable with
    /// `node.rtx_served` / `node.rtx_unavailable`).
    pub const NODE_NACKS_SENT: MetricId = MetricId("node.nacks_sent");
    /// NACK messages sent upstream (each batches one scan's seqs).
    pub const NODE_NACK_BATCHES: MetricId = MetricId("node.nack_batches");
    /// Parked downstream RTX waiters evicted unserved (reset purge + TTL).
    pub const NODE_RTX_PENDING_EXPIRED: MetricId = MetricId("node.rtx_pending_expired");
    /// Sequences re-NACKed to an alternate supplier after a cache miss.
    pub const NODE_RTX_ALTERNATE_REQUESTS: MetricId = MetricId("node.rtx_alternate_requests");
    /// Holes recovered by an alternate supplier's retransmission.
    pub const NODE_RTX_ALTERNATE_RECOVERED: MetricId = MetricId("node.rtx_alternate_recovered");
    /// Cache-missed sequences with no live alternate supplier to chase.
    pub const NODE_RTX_ALTERNATE_EXHAUSTED: MetricId = MetricId("node.rtx_alternate_exhausted");
    /// Duplicate packets suppressed.
    pub const NODE_DUPLICATES: MetricId = MetricId("node.duplicates");
    /// Subscriptions received from downstream.
    pub const NODE_SUBS_RECEIVED: MetricId = MetricId("node.subs_received");
    /// Subscriptions answered from warm local state.
    pub const NODE_LOCAL_HITS: MetricId = MetricId("node.local_hits");
    /// Upstream failovers performed.
    pub const NODE_FAILOVERS: MetricId = MetricId("node.upstream_failovers");
    /// Datagrams dropped because their envelope, RTP or RTCP did not decode.
    pub const NODE_MALFORMED: MetricId = MetricId("node.malformed");
    /// Timer fires that found nothing due: a superseded pacer poll, one
    /// that outlived its subscriber, or a key that does not decode.
    pub const NODE_STALE_TIMERS: MetricId = MetricId("node.stale_timers");

    // ---- brain: centralized path decisions (Path Decision log analogue) ----

    /// Path requests served by the decision module.
    pub const BRAIN_REQUESTS: MetricId = MetricId("brain.requests_served");
    /// Path requests that fell back to the last-resort path.
    pub const BRAIN_LAST_RESORT: MetricId = MetricId("brain.last_resort_served");
    /// Full recompute rounds run by the brain.
    pub const BRAIN_RECOMPUTE_ROUNDS: MetricId = MetricId("brain.recompute_rounds");
    /// Producer rehome operations.
    pub const BRAIN_REHOMES: MetricId = MetricId("brain.rehomes");
    /// Node-failed notifications processed.
    pub const BRAIN_NODE_FAILED: MetricId = MetricId("brain.node_failed");
    /// Node-recovered notifications processed.
    pub const BRAIN_NODE_RECOVERED: MetricId = MetricId("brain.node_recovered");
    /// KSP path entries computed across all recompute rounds (work proxy).
    pub const BRAIN_KSP_PATHS: MetricId = MetricId("brain.ksp_paths_computed");
    /// Report entries (a node, or one link) dropped because the Brain's
    /// topology does not know the key. Recorded only once one was dropped.
    pub const BRAIN_UNKNOWN_KEYS: MetricId = MetricId("brain.unknown_keys");
    /// Leader failover latency (last decree before the crash → first
    /// lease granted to a live holder), ms.
    pub const BRAIN_FAILOVER_MS: MetricId = MetricId("brain.failover_ms");

    // ---- replication: the Paxos-backed Brain cluster (§7.1) ----

    /// State (non-lease) decrees chosen in the replicated log.
    pub const REPLICATION_OPS_COMMITTED: MetricId = MetricId("replication.ops_committed");
    /// Lease decrees that moved leadership (includes initial election).
    pub const REPLICATION_LEASE_GRANTS: MetricId = MetricId("replication.lease_grants");
    /// Lease decrees that renewed the incumbent leader.
    pub const REPLICATION_LEASE_RENEWALS: MetricId = MetricId("replication.lease_renewals");
    /// Heartbeat rounds that extended the leader's lease (a majority held
    /// the new expiry); they write nothing to the log.
    pub const REPLICATION_LEASE_EXTENSIONS: MetricId = MetricId("replication.lease_extensions");
    /// Ballots started (fresh proposals plus backoff retries).
    pub const REPLICATION_PROPOSALS: MetricId = MetricId("replication.proposals");
    /// Inter-replica Paxos messages put on the wire.
    pub const REPLICATION_MSGS_SENT: MetricId = MetricId("replication.msgs_sent");
    /// Inter-replica Paxos messages lost in flight.
    pub const REPLICATION_MSGS_DROPPED: MetricId = MetricId("replication.msgs_dropped");
    /// Client retries against the cluster (leader waits, ballot timeouts).
    pub const REPLICATION_CLIENT_RETRIES: MetricId = MetricId("replication.client_retries");
    /// Client redirects to a leader other than its cached hint.
    pub const REPLICATION_REDIRECTS: MetricId = MetricId("replication.redirects");
    /// Brain leader crashes injected by the fault plan.
    pub const REPLICATION_LEADER_CRASHES: MetricId = MetricId("replication.leader_crashes");
    /// Length of the canonical chosen log at end of run.
    pub const REPLICATION_DECIDED_SLOTS: MetricId = MetricId("replication.decided_slots");
    /// The most slots one cluster's log held at once (gauge, max across
    /// shards): compaction keeps it a small constant while every replica is
    /// up.
    pub const REPLICATION_LOG_SLOTS_MAX: MetricId = MetricId("replication.log_slots_max");

    // ---- cc: congestion control (client log analogue) ----

    /// Rate decisions that increased the pacing rate.
    pub const CC_RATE_INCREASES: MetricId = MetricId("cc.rate_increases");
    /// Rate decisions that held the pacing rate.
    pub const CC_RATE_HOLDS: MetricId = MetricId("cc.rate_holds");
    /// Rate decisions that decreased the pacing rate.
    pub const CC_RATE_DECREASES: MetricId = MetricId("cc.rate_decreases");

    // ---- fleet: session-level aggregation (client log analogue) ----

    /// Sessions attached, all systems.
    pub const FLEET_SESSIONS: MetricId = MetricId("fleet.sessions");
    /// Sessions whose path decision was a local (edge) hit.
    pub const FLEET_LOCAL_HITS: MetricId = MetricId("fleet.local_hits");
    /// Sessions served by a prefetched path (no brain round trip).
    pub const FLEET_PREFETCHED: MetricId = MetricId("fleet.prefetched");
    /// Sessions served by a live brain round trip.
    pub const FLEET_BRAIN_SERVED: MetricId = MetricId("fleet.brain_served");
    /// Sessions that fell back to the last-resort path.
    pub const FLEET_LAST_RESORT: MetricId = MetricId("fleet.last_resort");
    /// Sessions skipped because the chosen edge raced offline.
    pub const FLEET_RACED_OFFLINE: MetricId = MetricId("fleet.raced_offline");
    /// Fault episodes injected by the fleet fault plan.
    pub const FLEET_FAULTS_INJECTED: MetricId = MetricId("fleet.faults_injected");
    /// Recovery episodes recorded (detect→recover cycles).
    pub const FLEET_RECOVERIES: MetricId = MetricId("fleet.recoveries");
    /// Peak concurrent viewers observed across all days (gauge).
    pub const FLEET_PEAK_VIEWERS: MetricId = MetricId("fleet.peak_viewers");

    // ---- stage: per-stage latency attribution (client logs, Fig. 10) ----

    /// Brain lookup latency, ms (zero for local hits / prefetched paths).
    pub const STAGE_BRAIN_LOOKUP_MS: MetricId = MetricId("stage.brain_lookup_ms");
    /// First-packet latency, ms.
    pub const STAGE_FIRST_PACKET_MS: MetricId = MetricId("stage.first_packet_ms");
    /// End-to-end startup latency, ms.
    pub const STAGE_STARTUP_MS: MetricId = MetricId("stage.startup_ms");
    /// In-network CDN path delay, ms.
    pub const STAGE_CDN_PATH_MS: MetricId = MetricId("stage.cdn_path_ms");
    /// Steady-state streaming delay, ms.
    pub const STAGE_STREAMING_MS: MetricId = MetricId("stage.streaming_ms");
    /// Recovery detect→reroute latency, ms.
    pub const STAGE_RECOVERY_MS: MetricId = MetricId("stage.recovery_ms");

    // ---- transport: the real-socket (tokio UDP) driver ----

    /// Datagrams received and dispatched into the sans-I/O core.
    pub const TRANSPORT_RX_DATAGRAMS: MetricId = MetricId("transport.rx_datagrams");
    /// Datagrams sent on the socket.
    pub const TRANSPORT_TX_DATAGRAMS: MetricId = MetricId("transport.tx_datagrams");
    /// Bytes sent on the socket.
    pub const TRANSPORT_TX_BYTES: MetricId = MetricId("transport.tx_bytes");
    /// Datagrams dropped because the source address is neither a known
    /// peer nor an attached client.
    pub const TRANSPORT_UNKNOWN_SOURCE_DROPS: MetricId = MetricId("transport.unknown_source_drops");
    /// Datagrams dropped because they exceeded the configured receive
    /// buffer (`NodeConfig::max_datagram_bytes`) and were truncated.
    pub const TRANSPORT_RECV_TRUNCATED: MetricId = MetricId("transport.recv_truncated");
    /// Socket send errors (best-effort datapath; counted, not retried).
    pub const TRANSPORT_SEND_ERRORS: MetricId = MetricId("transport.send_errors");
    /// Wall-clock time spent dispatching one received datagram through
    /// the core and applying its actions, ms.
    pub const TRANSPORT_RX_DISPATCH_MS: MetricId = MetricId("transport.rx_dispatch_ms");

    // ---- transport.batch: batched datagram I/O (sendmmsg/recvmmsg) ----

    /// Send-side batch syscalls issued (`sendmmsg`, or one per datagram on
    /// the portable fallback backend).
    pub const TRANSPORT_BATCH_TX_SYSCALLS: MetricId = MetricId("transport.batch_tx_syscalls");
    /// Receive-side batch syscalls that returned at least one datagram.
    pub const TRANSPORT_BATCH_RX_SYSCALLS: MetricId = MetricId("transport.batch_rx_syscalls");
    /// Datagrams handed to the kernel per send-side batch syscall.
    pub const TRANSPORT_BATCH_TX_FILL: MetricId = MetricId("transport.batch_tx_fill");
    /// Datagrams returned per non-empty receive-side batch syscall.
    pub const TRANSPORT_BATCH_RX_FILL: MetricId = MetricId("transport.batch_rx_fill");
    /// Sends deferred because the socket buffer was full mid-batch (the
    /// flush loop yielded and retried).
    pub const TRANSPORT_BATCH_TX_RETRIES: MetricId = MetricId("transport.batch_tx_retries");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_orders_by_name() {
        let a = MetricId("a.one");
        let b = MetricId("b.two");
        assert!(a < b);
        assert_eq!(a, MetricId("a.one"));
        assert_eq!(format!("{a}"), "a.one");
    }
}
