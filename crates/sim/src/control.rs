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
pub use livenet_replication::ReplicationSummary;

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
    /// `give_ups`; the fleet carries on, as it would in production.
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
            ControlPlane::Replicated(c) => Some(c.finalize(horizon)),
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
