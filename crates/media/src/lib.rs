//! Video source model.
//!
//! LiveNet transports *frames*: the broadcaster's encoder emits a GoP-
//! structured sequence of I/P/B video frames (§5.2 of the paper). This crate
//! models that video track — deterministically, so whole experiments replay
//! from a seed:
//!
//! * [`FrameKind`] / [`EncodedFrame`] — the unit the data plane reasons about
//!   (the frame dropper drops unreferenced B frames first, then P, then the
//!   whole GoP; the pacer boosts I frames),
//! * [`GopConfig`] / [`VideoEncoder`] — a timed frame source with realistic
//!   size ratios between I, P and B frames.
//!
//! One rendition per stream: the paper's simulcast ladder (a broadcaster
//! uploading several bitrate versions, the consumer stepping a viewer down
//! when its queue keeps building) and its audio track are not reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;
mod frame;

pub use encoder::{GopConfig, VideoEncoder};
pub use frame::{EncodedFrame, FrameId, FrameKind};
