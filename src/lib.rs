//! # LiveNet — a low-latency video transport network (SIGCOMM '22 reproduction)
//!
//! This workspace is a from-scratch Rust reproduction of *LiveNet: A
//! Low-Latency Video Transport Network for Large-Scale Live Streaming*
//! (Li et al., SIGCOMM 2022): Alibaba's flat-CDN live streaming transport
//! with a centralized controller (the **Streaming Brain**) and a fast/slow
//! path data plane with fine-grained frame control.
//!
//! The umbrella crate re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `livenet-types` | IDs, simulated time, bandwidth, statistics |
//! | [`packet`] | `livenet-packet` | RTP/RTCP wire formats, delay-field extension, packetization |
//! | [`media`] | `livenet-media` | GoP model and the video encoder |
//! | [`emu`] | `livenet-emu` | deterministic discrete-event network emulator |
//! | [`topology`] | `livenet-topology` | overlay graph, geo generator, global view |
//! | [`cc`] | `livenet-cc` | GCC congestion control + priority pacer |
//! | [`brain`] | `livenet-brain` | Global Discovery/Routing, PIB/SIB, Path Decision |
//! | [`node`] | `livenet-node` | the overlay node: Stream FIB, fast/slow paths, GoP cache |
//! | [`hier`] | `livenet-hier` | the hierarchical-CDN baseline (Hier) |
//! | [`sim`] | `livenet-sim` | packet-level and fleet-level evaluation harnesses |
//! | [`replication`] | `livenet-replication` | Paxos log replicating Brain state |
//! | [`transport`] | `livenet-transport` | tokio/UDP driver for the same cores |
//!
//! ## Quickstart
//!
//! ```
//! use livenet::prelude::*;
//!
//! // Generate a CDN footprint, start the Brain, register a stream, and
//! // ask for a path the way a consumer node would (Algorithm 1).
//! let geo = GeoTopology::generate(&GeoConfig::tiny(1));
//! let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
//! let mut brain = StreamingBrain::new(geo.topology, BrainConfig::default());
//! brain.register_stream(StreamId::new(42), nodes[0]);
//! let assignment = brain
//!     .path_request(StreamId::new(42), nodes[4], SimTime::ZERO)
//!     .expect("stream registered");
//! assert_eq!(assignment.producer, nodes[0]);
//! assert!(!assignment.paths.is_empty());
//! assert!(assignment.hops() <= 3); // the paper's hop constraint
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the per-table/figure experiment harness (EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use livenet_brain as brain;
pub use livenet_cc as cc;
pub use livenet_emu as emu;
pub use livenet_hier as hier;
pub use livenet_media as media;
pub use livenet_node as node;
pub use livenet_packet as packet;
pub use livenet_replication as replication;
pub use livenet_sim as sim;
pub use livenet_topology as topology;
pub use livenet_transport as transport;
pub use livenet_types as types;

/// The most common imports for building on LiveNet.
pub mod prelude {
    pub use livenet_brain::{BrainConfig, OverlayPath, PathAssignment, PathLookup, StreamingBrain};
    pub use livenet_cc::{GccSender, PacedPacket, Pacer, PacerConfig, SendPriority};
    pub use livenet_media::{EncodedFrame, FrameKind, GopConfig, VideoEncoder};
    pub use livenet_node::{
        NodeAction, NodeConfig, NodeEvent, OverlayMsg, OverlayNode, StreamFib, Subscriber,
    };
    pub use livenet_packet::{MediaKind, Packetizer, RtcpPacket, RtpPacket};
    pub use livenet_sim::{
        FleetConfig, FleetConfigBuilder, FleetReport, FleetRunner, FleetSim, Scenario, ScenarioRun,
        SessionRecord, Viewer,
    };
    pub use livenet_topology::{GeoConfig, GeoTopology, Topology};
    pub use livenet_types::{Bandwidth, ClientId, NodeId, SeqNo, SimDuration, SimTime, StreamId};
}
