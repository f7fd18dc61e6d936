//! The Streaming Brain — LiveNet's logically centralized controller (§4).
//!
//! Four modules, mirroring Fig. 4 of the paper:
//!
//! * [`discovery`] — **Global Discovery**: absorbs 1-minute node reports
//!   into the global view and turns real-time overload alarms into PIB
//!   invalidations;
//! * [`routing`] — **Global Routing**: every 10 minutes, computes the K=3
//!   shortest paths between every pair of nodes over the abstracted link
//!   weights (Eq. 2–3), then filters paths violating the constraints
//!   (≤ 3 hops, no overloaded links/nodes);
//! * [`pib`] — the **Path Information Base**, one flat table per routing
//!   round, and the **Stream Information Base** hash table;
//! * [`decision`] — **Path Decision**: serves path lookups from consumer
//!   nodes (Algorithm 1's `GetPath`), falling back to last-resort paths;
//! * [`StreamingBrain`] — the facade tying the modules together, including
//!   stream management and popular-broadcaster path prefetch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brain;
pub mod decision;
pub mod discovery;
pub mod ksp;
pub mod pib;
pub mod routing;
pub mod weight;

pub use brain::{BrainConfig, StreamingBrain};
pub use decision::{PathAssignment, PathDecision, PathLookup};
pub use discovery::GlobalDiscovery;
pub use ksp::{dijkstra, yen_ksp, WeightedGraph};
pub use pib::{OverlayPath, Pib, Sib};
pub use routing::{GlobalRouting, RoutingConfig};
pub use weight::{link_weight, sigmoid_factor, WeightParams};
