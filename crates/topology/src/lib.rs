//! Overlay topology model.
//!
//! LiveNet runs on 600+ CDN nodes in 70+ countries (paper §6). This crate
//! models the overlay as the Streaming Brain sees it:
//!
//! * `graph` — nodes (clusters with capacity and a combined load metric)
//!   and directed overlay links with measured RTT / loss / utilization;
//! * `geo` — a generator that lays nodes out across countries and derives
//!   intra- vs inter-national link RTTs, mirroring the distinction the
//!   paper's evaluation draws (Table 2, Fig. 12);
//! * [`view`] — the 1-minute node reports the Global Discovery module
//!   writes into the Brain's working [`Topology`], and the report a node
//!   would send given the ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geo;
mod graph;
pub mod view;

pub use geo::{GeoConfig, GeoTopology, BASE_LOSS};
pub use graph::{LinkMetrics, NodeInfo, Topology};
pub use view::{LinkReport, NodeReport, OVERLOAD_TARGET};
