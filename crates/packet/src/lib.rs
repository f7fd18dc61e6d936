//! Wire formats for the LiveNet data plane.
//!
//! The overlay transports live video as RTP packets and control feedback as
//! RTCP packets (Fig. 6 of the paper). This crate implements, from scratch:
//!
//! * an RTP packet model and binary codec ([`rtp`]), including the paper's
//!   cumulative *delay field* header extension used to measure end-to-end
//!   streaming delay (§6.1),
//! * RTCP feedback messages (`rtcp`): NACKs for per-hop loss recovery,
//!   receiver reports carrying the slow path's loss/delay statistics, and a
//!   REMB-style bandwidth estimate used by GCC,
//! * packetization of encoded video frames into MTU-sized RTP packets and
//!   loss-tolerant reassembly (`frame`).
//!
//! Everything here is sans-I/O: codecs operate on [`bytes::Bytes`] buffers and
//! are driven by the emulator or the tokio transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod rtcp;
pub mod rtp;

pub use frame::{frag_is_start, frag_meta, Depacketizer, Packetizer, ReassembledFrame};
pub use rtcp::{Nack, ReceiverReport, Remb, RtcpPacket, RtxMiss};
pub use rtp::{MediaKind, RtpHeader, RtpPacket, MTU};
