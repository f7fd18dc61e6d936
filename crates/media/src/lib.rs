//! Video source model.
//!
//! LiveNet transports *frames*: the broadcaster's encoder emits a GoP-
//! structured sequence of I/P/B video frames plus an audio track, in one or
//! more simulcast renditions (§5.2 of the paper). This crate models the
//! video side — deterministically, so whole experiments replay from a seed
//! (`FrameKind::Audio` names audio frames that arrive decoded off the wire):
//!
//! * [`FrameKind`] / [`EncodedFrame`] — the unit the data plane reasons about
//!   (the frame dropper drops unreferenced B frames first, then P, then the
//!   whole GoP; the pacer boosts I frames),
//! * [`GopConfig`] / [`VideoEncoder`] — a timed frame source with realistic
//!   size ratios between I, P and B frames,
//! * [`SimulcastLadder`] — the bitrate versions a broadcaster uploads in
//!   parallel; each rendition maps to its own [`StreamId`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;
mod frame;
mod simulcast;

pub use encoder::{GopConfig, VideoEncoder};
pub use frame::{EncodedFrame, FrameId, FrameKind};
pub use simulcast::{Rendition, SimulcastLadder};
