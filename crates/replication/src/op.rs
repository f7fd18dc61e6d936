//! The replicated Brain operation log schema.
//!
//! Every PIB/SIB mutation the fleet performs against the Streaming Brain
//! is a [`BrainOp`]; a [`crate::BrainCluster`] wraps it in an `Arc` once,
//! Paxos passes that pointer around as its value, and every replica applies
//! the op it points to in decided-slot order, so all replicas converge to
//! the same routing state (paper §7.1). The paper specifies no wire format
//! and no op leaves the process, so there is no byte encoding.

use livenet_brain::{PathAssignment, StreamingBrain};
use livenet_topology::NodeReport;
use livenet_types::{NodeId, SimTime, StreamId};

use crate::paxos::ReplicaId;

/// One replicated mutation of the Brain's PIB/SIB state.
///
/// Applying the decided sequence of ops to a fresh
/// `livenet_brain::StreamingBrain` is the *only* way replicated state
/// changes — reads never mutate across replicas divergently because the
/// decision counters they bump are advanced identically during the final
/// audit.  `Lease` ops carry each election through the same log, so who
/// leads in which term is a replicated, totally ordered fact (the holder
/// then keeps its lease by heartbeat, outside the log).
#[derive(Debug, Clone, PartialEq)]
pub enum BrainOp {
    /// A batch of minute-tick node reports (Global Discovery input),
    /// followed by a periodic-recompute check at `now`.
    Reports {
        /// Virtual time of the batch (drives `maybe_recompute`).
        now: SimTime,
        /// The node reports, in deterministic fleet order.
        reports: Vec<NodeReport>,
    },
    /// Stream Management: a producer registered a new upload.
    RegisterStream {
        /// Stream being registered.
        stream: StreamId,
        /// Producer node it uploads to.
        producer: NodeId,
    },
    /// Stream Management: a stream ended.
    UnregisterStream {
        /// Stream being removed.
        stream: StreamId,
    },
    /// Mark a stream popular (prefetch set member, §4.4).
    MarkPopular {
        /// Stream being marked.
        stream: StreamId,
    },
    /// Broadcaster mobility (§7.1): re-home a stream to a new producer.
    RehomeProducer {
        /// Stream being re-homed.
        stream: StreamId,
        /// The new producer node.
        new_producer: NodeId,
        /// Virtual time of the rehome (bridge path lookup timestamp).
        now: SimTime,
    },
    /// A node was observed dead; recompute the PIB around it.
    NodeFailed {
        /// The dead node.
        node: NodeId,
    },
    /// A failed node came back.
    NodeRecovered {
        /// The recovered node.
        node: NodeId,
    },
    /// Both directions of a link failed.
    LinkFailed {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A failed link recovered.
    LinkRecovered {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Leader election: `holder` owns leadership for lease `term` until
    /// virtual time `until`, which its heartbeats then extend.
    Lease {
        /// The replica holding the lease.
        holder: ReplicaId,
        /// Monotonically increasing lease term.
        term: u64,
        /// Lease expiry (cluster virtual time).
        until: SimTime,
    },
}

impl BrainOp {
    /// Apply this decree to a Brain — the single op → `StreamingBrain`
    /// mapping, shared by every replica and by an unreplicated Brain.
    /// Returns the bridge-path assignment of a `RehomeProducer`; a `Lease`
    /// leaves the Brain untouched.
    pub fn apply_to(&self, brain: &mut StreamingBrain) -> Option<PathAssignment> {
        match *self {
            BrainOp::Reports { now, ref reports } => {
                for r in reports {
                    brain.absorb_report(r);
                }
                brain.maybe_recompute(now);
            }
            BrainOp::RegisterStream { stream, producer } => brain.register_stream(stream, producer),
            BrainOp::UnregisterStream { stream } => brain.unregister_stream(stream),
            BrainOp::MarkPopular { stream } => brain.mark_popular(stream),
            BrainOp::RehomeProducer {
                stream,
                new_producer,
                now,
            } => return brain.rehome_producer(stream, new_producer, now).ok(),
            BrainOp::NodeFailed { node } => brain.node_failed(node),
            BrainOp::NodeRecovered { node } => brain.node_recovered(node),
            BrainOp::LinkFailed { a, b } => brain.link_failed(a, b),
            BrainOp::LinkRecovered { a, b } => brain.link_recovered(a, b),
            BrainOp::Lease { .. } => {}
        }
        None
    }
}
