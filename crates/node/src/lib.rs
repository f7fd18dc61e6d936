//! The LiveNet overlay node data plane (paper §5).
//!
//! Every CDN node runs the same software stack (Fig. 7). This crate
//! implements it as a sans-I/O state machine, [`OverlayNode`]: events go in
//! (`(now, datagram)` or `(now, timer)`), actions come out (datagrams to
//! send, timers to arm, instrumentation events). The discrete-event
//! emulator and the tokio transport are two drivers of the same core.
//!
//! Layout:
//!
//! * [`msg`] — the overlay wire protocol: RTP/RTCP envelopes plus the
//!   subscription control messages that establish reverse paths;
//! * [`fib`] — the Stream FIB mapping stream → downstream subscribers;
//! * [`cache`] — the per-stream packet/GoP cache serving retransmissions
//!   and fast-startup bursts;
//! * [`rx`] — slow-path receive state: loss detection (50 ms scans), NACK
//!   bookkeeping, framing;
//! * [`client`] — consumer-side per-client control: bitrate selection,
//!   proactive frame dropping, seamless stream switching;
//! * `stream` — all state of one stream: its upstream subscription, the
//!   slow-path modules above, cached backup paths, parked RTX requests;
//! * `peer` — all state of one subscriber (pacer, GCC sender) and of one
//!   neighboring node (RTT hint, liveness, GCC receiver);
//! * [`node`] — [`OverlayNode`] itself: configuration, the public API, and
//!   the dispatch of datagrams and timers onto those entries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fib;
pub mod msg;
pub mod node;
mod peer;
pub mod rx;
mod stream;

pub use cache::StreamCache;
pub use client::{ClientControl, ClientQueueStats};
pub use fib::{StreamFib, Subscriber};
pub use msg::OverlayMsg;
pub use node::{
    NodeAction, NodeConfig, NodeEvent, NodeFootprint, NodeStats, OverlayNode, TimerKind,
    LOSS_SCAN_INTERVAL,
};
pub use rx::RxState;
