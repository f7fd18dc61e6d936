//! Core vocabulary types shared by every LiveNet crate.
//!
//! This crate deliberately has no knowledge of packets, topologies or
//! simulation engines. It only defines:
//!
//! * strongly-typed identifiers ([`NodeId`], [`StreamId`], [`ClientId`], ...),
//! * a nanosecond-precision simulated clock ([`SimTime`], [`SimDuration`])
//!   and the event calendar every virtual-time engine runs on
//!   ([`EventQueue`]),
//! * bandwidth / bitrate arithmetic ([`Bandwidth`]),
//! * statistics helpers used by the evaluation harness ([`stats`]),
//! * deterministic RNG plumbing ([`rng`]).
//!
//! Everything downstream (the Streaming Brain, the overlay data plane, the
//! emulator, the benchmark harness) is written in terms of these types so that
//! the same protocol cores can be driven either by the discrete-event emulator
//! or by the tokio-based real transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod id;
mod queue;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{Error, Result};
pub use id::{ClientId, LinkId, NodeId, PathId, SeqNo, Ssrc, StreamId};
pub use queue::EventQueue;
pub use rate::Bandwidth;
pub use rng::{DetRng, ZipfTable};
pub use stats::{welch_t, Ecdf, OnlineStats, Quantiles};
pub use time::{SimDuration, SimTime};
