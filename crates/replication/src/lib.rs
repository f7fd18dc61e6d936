//! Paxos-replicated log for Streaming Brain state (paper §7.1).
//!
//! "While logically centralized, the Streaming Brain is deployed on
//! multiple geo-replicated data centers... We maintain consistency using a
//! Paxos-like scheme."
//!
//! This crate implements a classic multi-decree Paxos as a sans-I/O state
//! machine: each [`Replica`] plays proposer, acceptor and learner for a
//! sequence of slots, and the driver (tests, or a Brain deployment
//! harness) shuttles [`PaxosMsg`]s between replicas — dropping, delaying
//! and reordering them at will. Safety (no two replicas decide different
//! values for one slot) holds under any such schedule; liveness needs only
//! fair message delivery and proposer backoff, which the tests drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod op;
pub mod paxos;

pub use cluster::{BrainCluster, ClusterConfig, ReplicationSummary};
pub use op::BrainOp;
pub use paxos::{Ballot, Outbound, PaxosMsg, Replica, ReplicaId};
