//! Simulation harnesses reproducing the paper's evaluation (§6).
//!
//! Two fidelity levels (DESIGN.md §4):
//!
//! * `scenario` — full packet-level emulation: real [`OverlayNode`]
//!   state machines over the discrete-event network emulator, each viewer
//!   a [`ViewerClient`] (the client the wire testbed drives too). One
//!   [`Scenario`] builder (nodes, links,
//!   viewers on explicit paths, fault plan, scripted control plane) with
//!   two presets, [`Scenario::chain`] and [`Scenario::diamond`], carries
//!   every transmission-architecture experiment (fast/slow-path recovery,
//!   pacing, startup bursts, failover, multi-supplier RTX) and calibrates
//!   the per-hop constants in `calibrate.rs`.
//! * `fleet` — session-granularity simulation of 20 days of Taobao-Live-
//!   like workload over the *real* control plane (Streaming Brain, PIB/SIB,
//!   FIB subscription state with cache-hit backtracking and the long-chain
//!   effect), composing per-session delay/startup/stall metrics from link
//!   state plus the packet-level-calibrated constants. Runs LiveNet and
//!   the Hier baseline side by side on identical sessions, mirroring the
//!   paper's parallel-deployment methodology (§6.1). [`FleetSim`] is a
//!   sequencer over parts that own their state (DESIGN.md §2.2):
//!   `fleet/config.rs` (validated configuration, fault plan),
//!   `fleet/faults.rs` (the plan resolved against a topology),
//!   `fleet/livenet.rs` and `fleet/hier.rs` (the two data planes) and
//!   `fleet/rollup.rs` (hour/day series); `control` holds the Brain —
//!   single or Paxos-replicated — behind one `commit(BrainOp)`.
//!
//! Every fleet run goes through `runner`: [`FleetRunner`] validates, then
//! partitions the channel universe into independent shards (DESIGN.md §7)
//! and executes them serially or on a thread pool with bit-identical results.
//!
//! [`OverlayNode`]: livenet_node::OverlayNode

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod control;
mod fleet;
mod metrics;
mod runner;
mod scenario;
mod viewer;
pub mod workload;

pub use control::{ReplicationConfig, ReplicationSummary};
pub use fleet::{
    FaultPlanConfig, FleetConfig, FleetConfigBuilder, FleetFault, FleetReport, FleetSim,
    RecoveryRecord, LONG_CHAIN_SWITCH_HOPS,
};
pub use metrics::{summarize, DecisionOutcome, SessionRecord, SessionSummary};
pub use runner::{FleetRunner, ShardPlan};
pub use scenario::{Scenario, ScenarioRun, ScenarioSim, Viewer, COSTREAM, SCENARIO_STREAM};
pub use viewer::{ViewerClient, ViewerQoe, ViewerRun};
pub use workload::{Channel, WorkloadConfig};
