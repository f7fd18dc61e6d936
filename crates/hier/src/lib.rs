//! The `Hier` baseline (paper §2.2): Alibaba's first-generation
//! hierarchical video transport network.
//!
//! Hier organizes CDN nodes in two layers under a powerful streaming
//! center. Every stream climbs L1 → L2 → center and descends center → L2 →
//! L1 to each viewer: the path length is fixed at 4 overlay hops. A
//! VDN-like centralized controller maps L1 nodes to L2 nodes per stream to
//! avoid congested links, and L1/L2 nodes cache GoPs. Transport inside the
//! overlay is RTMP over TCP: reliable, in-order, store-and-forward at every
//! hop — which is exactly what makes Hier slow: full-stack processing per
//! hop and TCP head-of-line blocking under loss.
//!
//! This crate reuses the same [`livenet_topology::Topology`] ground truth
//! as LiveNet so the two systems are compared on identical footprints
//! (mirroring the paper's methodology, §6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
mod delay;
mod roles;

pub use control::{HierController, HierPath};
pub use delay::cdn_path_delay;
pub use roles::{HierRoles, Layer};
