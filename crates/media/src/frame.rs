//! Encoded frame model.

use livenet_types::{SimTime, StreamId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of an encoded video frame within its GoP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Intra-coded keyframe: starts a GoP, required by every later frame.
    I,
    /// Predicted frame: references the previous I/P frame.
    P,
    /// Bidirectional frame that other frames reference.
    B,
    /// Unreferenced B frame: nothing depends on it, so the consumer's
    /// proactive frame dropper discards these first (§5.2 — "dropping such
    /// frames only causes short blurring").
    BUnref,
    /// An audio frame. Modeled as a frame for uniform queueing, but never
    /// dropped and always prioritized by the pacer.
    Audio,
}

impl FrameKind {
    /// Encode as the 4-bit meta nibble carried in RTP fragment headers.
    pub fn to_nibble(self) -> u8 {
        match self {
            FrameKind::I => 1,
            FrameKind::P => 2,
            FrameKind::B => 3,
            FrameKind::BUnref => 4,
            FrameKind::Audio => 5,
        }
    }

    /// Decode from the meta nibble; `None` for unknown values.
    pub fn from_nibble(n: u8) -> Option<FrameKind> {
        match n {
            1 => Some(FrameKind::I),
            2 => Some(FrameKind::P),
            3 => Some(FrameKind::B),
            4 => Some(FrameKind::BUnref),
            5 => Some(FrameKind::Audio),
            _ => None,
        }
    }

    /// True when dropping this frame cannot corrupt any other frame.
    pub fn is_droppable_first(self) -> bool {
        matches!(self, FrameKind::BUnref)
    }

    /// Drop priority used by the proactive frame dropper: lower values are
    /// dropped earlier (BUnref < B < P < I; audio is never dropped).
    pub fn drop_rank(self) -> u8 {
        match self {
            FrameKind::BUnref => 0,
            FrameKind::B => 1,
            FrameKind::P => 2,
            FrameKind::I => 3,
            FrameKind::Audio => 4,
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameKind::I => "I",
            FrameKind::P => "P",
            FrameKind::B => "B",
            FrameKind::BUnref => "b",
            FrameKind::Audio => "A",
        };
        f.write_str(s)
    }
}

/// Globally unique frame identity: (stream, sequence-within-stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FrameId {
    /// The stream the frame belongs to.
    pub stream: StreamId,
    /// Monotone frame counter within the stream (capture order).
    pub index: u64,
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:f{}", self.stream, self.index)
    }
}

/// One encoded frame as produced by the broadcaster's encoder.
///
/// The payload content is synthetic (the emulator only cares about sizes and
/// timing); `size_bytes` is authoritative and is what the packetizer splits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedFrame {
    /// Frame identity.
    pub id: FrameId,
    /// I / P / B / unreferenced-B / audio.
    pub kind: FrameKind,
    /// Index of the GoP this frame belongs to (audio: GoP of same instant).
    pub gop_index: u64,
    /// Capture timestamp (when the camera produced the frame).
    pub capture_time: SimTime,
    /// RTP media timestamp (90 kHz video clock / 48 kHz audio clock ticks).
    pub rtp_timestamp: u32,
    /// Encoded size in bytes.
    pub size_bytes: u32,
    /// Time the encoder spent on this frame (contributes to the delay field).
    pub encode_delay_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_rank_ordering_matches_paper_ladder() {
        // B-unref first, then (referenced) B, then P, then whole GoP (I).
        assert!(FrameKind::BUnref.drop_rank() < FrameKind::B.drop_rank());
        assert!(FrameKind::B.drop_rank() < FrameKind::P.drop_rank());
        assert!(FrameKind::P.drop_rank() < FrameKind::I.drop_rank());
        assert!(FrameKind::I.drop_rank() < FrameKind::Audio.drop_rank());
    }

    #[test]
    fn only_unref_b_is_freely_droppable() {
        assert!(FrameKind::BUnref.is_droppable_first());
        assert!(!FrameKind::B.is_droppable_first());
        assert!(!FrameKind::I.is_droppable_first());
    }

    #[test]
    fn nibble_roundtrips() {
        for k in [
            FrameKind::I,
            FrameKind::P,
            FrameKind::B,
            FrameKind::BUnref,
            FrameKind::Audio,
        ] {
            assert_eq!(FrameKind::from_nibble(k.to_nibble()), Some(k));
        }
        assert_eq!(FrameKind::from_nibble(0), None);
        assert_eq!(FrameKind::from_nibble(15), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FrameKind::I.to_string(), "I");
        assert_eq!(FrameKind::BUnref.to_string(), "b");
        let id = FrameId {
            stream: StreamId::new(3),
            index: 17,
        };
        assert_eq!(id.to_string(), "st3:f17");
    }
}
