//! The fleet's control plane: a single in-process Brain or a
//! Paxos-replicated [`BrainCluster`].
//!
//! `ControlPlane` is the one surface [`crate::FleetSim`] talks to, and
//! every mutation goes through its one `commit(BrainOp)`.  In `Single`
//! mode the op is applied straight to a [`StreamingBrain`], preserving the
//! pre-replication behavior (and RNG draw sequence) bit-for-bit.  In
//! `Replicated` mode it is serialized through the Paxos log and every
//! non-prefetched path request is a leader read under the lease — so the
//! fleet exercises the paper's §7.1 deployment: geo-replicated Brains,
//! leader failover, and client retry/redirect when the leader dies
//! mid-surge.
//!
//! Each shard owns an independent cluster seeded from the workload seed
//! and the shard index alone, so serial and parallel executions of the
//! same partition remain bit-identical.

use livenet_brain::{BrainConfig, PathAssignment, StreamingBrain};
use livenet_replication::{BrainCluster, BrainOp};
use livenet_telemetry::MetricSink;
use livenet_topology::Topology;
use livenet_types::{NodeId, Result, SimTime, StreamId};

/// Replicated-Brain deployment knobs: the cluster's own configuration
/// (the per-shard seed is filled in by the fleet).
pub use livenet_replication::ClusterConfig as ReplicationConfig;

/// Replicated-control-plane outcomes of one fleet run, merged across
/// shards and compared bit-exactly by [`crate::FleetReport::bit_identical`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicationSummary {
    /// Replicas per shard cluster.
    pub replicas: u32,
    /// State (non-lease) decrees chosen.
    pub ops_committed: u64,
    /// Lease decrees that moved leadership (incl. initial elections).
    pub lease_grants: u64,
    /// Lease decrees renewing incumbents.
    pub lease_renewals: u64,
    /// Leader crashes injected.
    pub leader_crashes: u64,
    /// Crashed replicas restarted.
    pub restarts: u64,
    /// Client retries (leader waits, ballot timeouts).
    pub client_retries: u64,
    /// Client leader redirects.
    pub redirects: u64,
    /// Client operations abandoned.
    pub give_ups: u64,
    /// Inter-replica messages sent.
    pub msgs_sent: u64,
    /// Inter-replica messages dropped.
    pub msgs_dropped: u64,
    /// Canonical chosen-log length (summed across shard clusters).
    pub decided_slots: u64,
    /// Slots where a replica's decided value diverged from the canon —
    /// any nonzero value is a safety violation.
    pub log_divergences: u64,
    /// Post-run sampled `PathAssignment` mismatches across replicas.
    pub assignment_mismatches: u64,
    /// Failover latencies (ms), shard-index order then crash order.
    pub failover_ms: Vec<f64>,
}

impl ReplicationSummary {
    /// Bit-exact equality (floats compared through their bit patterns).
    pub fn bit_identical(&self, other: &ReplicationSummary) -> bool {
        // Every field but `failover_ms` is an integer, so `==` is exact
        // there — and covers a field added later without an edit here.
        let split = |s: &ReplicationSummary| {
            let bits: Vec<u64> = s.failover_ms.iter().map(|f| f.to_bits()).collect();
            let mut rest = s.clone();
            rest.failover_ms.clear();
            (bits, rest)
        };
        split(self) == split(other)
    }

    /// Accumulate another shard's summary (shard-index order).
    pub fn absorb(&mut self, other: &ReplicationSummary) {
        self.replicas = self.replicas.max(other.replicas);
        self.ops_committed += other.ops_committed;
        self.lease_grants += other.lease_grants;
        self.lease_renewals += other.lease_renewals;
        self.leader_crashes += other.leader_crashes;
        self.restarts += other.restarts;
        self.client_retries += other.client_retries;
        self.redirects += other.redirects;
        self.give_ups += other.give_ups;
        self.msgs_sent += other.msgs_sent;
        self.msgs_dropped += other.msgs_dropped;
        self.decided_slots += other.decided_slots;
        self.log_divergences += other.log_divergences;
        self.assignment_mismatches += other.assignment_mismatches;
        self.failover_ms.extend_from_slice(&other.failover_ms);
    }
}

/// The control plane the fleet drives: one Brain, or N behind Paxos.
#[derive(Debug)]
pub(crate) enum ControlPlane {
    /// The pre-replication single in-process Brain.
    Single(Box<StreamingBrain>),
    /// A Paxos-replicated Brain cluster (paper §7.1).
    Replicated(Box<BrainCluster>),
}

impl ControlPlane {
    /// Build from the fleet config: replicated when `replication` is set.
    ///
    /// `seed` must be a pure function of the workload seed and shard
    /// index, so serial and parallel executions agree.
    pub(crate) fn new(
        topology: &Topology,
        brain_cfg: &BrainConfig,
        replication: Option<&ReplicationConfig>,
        seed: u64,
    ) -> ControlPlane {
        match replication {
            None => ControlPlane::Single(Box::new(StreamingBrain::new(
                topology.clone(),
                brain_cfg.clone(),
            ))),
            Some(r) => ControlPlane::Replicated(Box::new(BrainCluster::new(
                topology,
                brain_cfg,
                ReplicationConfig { seed, ..r.clone() },
            ))),
        }
    }

    /// The one mutating entry point: every PIB/SIB mutation is a
    /// [`BrainOp`]. A single Brain applies it; a cluster replicates it as
    /// one Paxos decree and every replica applies it through the same
    /// [`BrainOp::apply_to`] — so "single == replicated" holds by
    /// construction. A decree the cluster gives up on is counted in its
    /// `client_give_ups`; the fleet carries on, as it would in production.
    pub(crate) fn commit(&mut self, op: BrainOp, now: SimTime) {
        match self {
            ControlPlane::Single(b) => {
                op.apply_to(b);
            }
            ControlPlane::Replicated(c) => {
                let _ = c.replicate(&op, now);
            }
        }
    }

    /// Serve a path request.  Returns the assignment plus, in replicated
    /// mode, the measured control-plane latency in ms (`None` in single
    /// mode, where the fleet applies its legacy RTT model; prefetched
    /// requests are free in both modes).
    pub(crate) fn path_request(
        &mut self,
        stream: StreamId,
        consumer: NodeId,
        now: SimTime,
        prefetched: bool,
    ) -> Result<(PathAssignment, Option<f64>)> {
        match self {
            ControlPlane::Single(b) => b.path_request(stream, consumer, now).map(|a| (a, None)),
            ControlPlane::Replicated(c) => c
                .path_request(stream, consumer, now, prefetched)
                .map(|(a, ms)| (a, Some(ms))),
        }
    }

    /// Streams currently produced on `node`.
    pub(crate) fn streams_on(&mut self, node: NodeId) -> Vec<StreamId> {
        match self {
            ControlPlane::Single(b) => b.streams_on(node),
            ControlPlane::Replicated(c) => c.streams_on(node),
        }
    }

    /// Crash the Paxos leader (no-op for a single Brain — there is no
    /// replica to lose; the fault still counts as injected).
    pub(crate) fn crash_leader(&mut self, now: SimTime) {
        if let ControlPlane::Replicated(c) = self {
            c.crash_leader(now);
        }
    }

    /// Restart the crashed leader replica (no-op for a single Brain).
    pub(crate) fn restart_crashed(&mut self, now: SimTime) {
        if let ControlPlane::Replicated(c) = self {
            c.restart_crashed(now);
        }
    }

    /// Completed PIB recompute rounds.
    pub(crate) fn recompute_rounds(&self) -> u64 {
        match self {
            ControlPlane::Single(b) => b.recompute_rounds,
            ControlPlane::Replicated(c) => c.recompute_rounds(),
        }
    }

    /// Settle the cluster, audit replica consistency and summarize.
    /// `None` in single mode.
    pub(crate) fn finalize(&mut self, horizon: SimTime) -> Option<ReplicationSummary> {
        match self {
            ControlPlane::Single(_) => None,
            ControlPlane::Replicated(c) => {
                let audit = c.finalize(horizon);
                let s = c.stats();
                Some(ReplicationSummary {
                    replicas: c.replicas(),
                    ops_committed: s.state_ops_committed,
                    lease_grants: s.lease_grants,
                    lease_renewals: s.lease_renewals,
                    leader_crashes: s.leader_crashes,
                    restarts: s.restarts,
                    client_retries: s.client_retries,
                    redirects: s.client_redirects,
                    give_ups: s.client_give_ups,
                    msgs_sent: s.msgs_sent,
                    msgs_dropped: s.msgs_dropped,
                    decided_slots: audit.decided_slots,
                    log_divergences: audit.log_divergences,
                    assignment_mismatches: audit.assignment_mismatches,
                    failover_ms: c.failover_ms().to_vec(),
                })
            }
        }
    }

    /// Export control-plane lifetime counters into a metric sink.
    pub(crate) fn record_telemetry(&self, sink: &mut impl MetricSink) {
        match self {
            ControlPlane::Single(b) => b.record_telemetry(sink),
            ControlPlane::Replicated(c) => c.record_telemetry(sink),
        }
    }
}
