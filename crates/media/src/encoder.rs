//! Deterministic encoder models.
//!
//! The video encoder produces a GoP-structured frame sequence whose sizes
//! average to the target bitrate. Size ratios follow common x264-style
//! budgets: an I frame is several times a P frame, which is larger than a
//! B frame. Frame-to-frame size jitter is deterministic in the frame index,
//! so two encoders with the same config emit byte-identical sequences —
//! which is what lets the fleet simulator replay runs exactly.

use crate::frame::{EncodedFrame, FrameId, FrameKind};
use livenet_types::{Bandwidth, SimDuration, SimTime, StreamId};

/// Per-frame encode latency.
const ENCODE_DELAY: SimDuration = SimDuration::from_millis(20);

/// GoP structure configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopConfig {
    /// Frames per second.
    pub fps: u32,
    /// Frames per GoP (keyframe interval). Taobao-style low-latency live
    /// streams use 1–2 s GoPs; default 30 frames at 15 fps = 2 s.
    pub gop_frames: u32,
    /// Number of B frames between consecutive anchor (I/P) frames.
    pub b_between: u32,
    /// Fraction of B frames that are unreferenced (droppable first).
    pub unref_b_fraction: f64,
    /// I-frame size as a multiple of the mean frame size.
    pub i_ratio: f64,
    /// B-frame size as a multiple of the mean frame size.
    pub b_ratio: f64,
}

impl Default for GopConfig {
    fn default() -> Self {
        GopConfig {
            fps: 15,
            gop_frames: 30,
            b_between: 2,
            unref_b_fraction: 0.5,
            i_ratio: 6.0,
            b_ratio: 0.5,
        }
    }
}

impl GopConfig {
    /// Duration of one frame period.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / u64::from(self.fps))
    }

    /// The frame kind at position `pos` within a GoP.
    pub fn kind_at(&self, pos: u32) -> FrameKind {
        debug_assert!(pos < self.gop_frames);
        if pos == 0 {
            return FrameKind::I;
        }
        if self.b_between == 0 {
            return FrameKind::P;
        }
        // Pattern after the I frame: groups of `b_between` Bs then one P.
        let cycle = self.b_between + 1;
        let in_cycle = (pos - 1) % cycle;
        if in_cycle < self.b_between {
            // Alternate referenced/unreferenced B frames according to the
            // configured fraction (deterministic in position).
            let unref_every = if self.unref_b_fraction <= 0.0 {
                u32::MAX
            } else {
                (1.0 / self.unref_b_fraction).round().max(1.0) as u32
            };
            if unref_every != u32::MAX && in_cycle.is_multiple_of(unref_every) {
                FrameKind::BUnref
            } else {
                FrameKind::B
            }
        } else {
            FrameKind::P
        }
    }

    /// Mean frame size in bytes for a target bitrate.
    pub(crate) fn mean_frame_bytes(&self, bitrate: Bandwidth) -> f64 {
        bitrate.as_bps() as f64 / 8.0 / f64::from(self.fps)
    }

    /// Count of each kind in one GoP: (i, p, b, b_unref).
    pub fn gop_census(&self) -> (u32, u32, u32, u32) {
        let (mut i, mut p, mut b, mut bu) = (0, 0, 0, 0);
        for pos in 0..self.gop_frames {
            match self.kind_at(pos) {
                FrameKind::I => i += 1,
                FrameKind::P => p += 1,
                FrameKind::B => b += 1,
                FrameKind::BUnref => bu += 1,
                FrameKind::Audio => unreachable!(),
            }
        }
        (i, p, b, bu)
    }

    /// Size in bytes of the frame at GoP position `pos`, scaled so a whole
    /// GoP averages to the target bitrate.
    pub fn frame_bytes(&self, bitrate: Bandwidth, pos: u32, frame_index: u64) -> u32 {
        let mean = self.mean_frame_bytes(bitrate);
        let (i, p, b, bu) = self.gop_census();
        // Solve for the P-frame size so the weighted sum hits the budget:
        // i*I_r*x + p*x + (b+bu)*B_r*x = gop_frames * mean
        let weight_sum =
            f64::from(i) * self.i_ratio + f64::from(p) + f64::from(b + bu) * self.b_ratio;
        let p_bytes = f64::from(self.gop_frames) * mean / weight_sum;
        let base = match self.kind_at(pos) {
            FrameKind::I => p_bytes * self.i_ratio,
            FrameKind::P => p_bytes,
            FrameKind::B | FrameKind::BUnref => p_bytes * self.b_ratio,
            FrameKind::Audio => unreachable!(),
        };
        // Deterministic ±10% content jitter from a hash of the frame index.
        let h = frame_index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
        let jitter = 0.9 + 0.2 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        (base * jitter).max(64.0) as u32
    }
}

/// A deterministic timed video frame source for one rendition of one stream.
#[derive(Debug, Clone)]
pub struct VideoEncoder {
    stream: StreamId,
    config: GopConfig,
    bitrate: Bandwidth,
    start: SimTime,
    next_index: u64,
}

impl VideoEncoder {
    /// New encoder emitting frames from `start`.
    pub fn new(stream: StreamId, config: GopConfig, bitrate: Bandwidth, start: SimTime) -> Self {
        VideoEncoder {
            stream,
            config,
            bitrate,
            start,
            next_index: 0,
        }
    }

    /// The stream this encoder feeds.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The configured bitrate.
    pub fn bitrate(&self) -> Bandwidth {
        self.bitrate
    }

    /// The GoP configuration.
    pub fn config(&self) -> &GopConfig {
        &self.config
    }

    fn capture_at(&self, index: u64) -> SimTime {
        // Exact rational timing (index * 1s / fps) avoids drift from a
        // truncated per-frame interval.
        self.start
            + livenet_types::SimDuration::from_nanos(
                index * 1_000_000_000 / u64::from(self.config.fps),
            )
    }

    /// Capture time of the next frame.
    pub fn next_capture_time(&self) -> SimTime {
        self.capture_at(self.next_index)
    }

    /// Emit the next frame (capture-ordered).
    pub fn next_frame(&mut self) -> EncodedFrame {
        let index = self.next_index;
        self.next_index += 1;
        let pos = (index % u64::from(self.config.gop_frames)) as u32;
        let capture_time = self.capture_at(index);
        let ticks_per_frame = 90_000 / u64::from(self.config.fps);
        EncodedFrame {
            id: FrameId {
                stream: self.stream,
                index,
            },
            kind: self.config.kind_at(pos),
            gop_index: index / u64::from(self.config.gop_frames),
            capture_time,
            rtp_timestamp: (index * ticks_per_frame) as u32,
            size_bytes: self.config.frame_bytes(self.bitrate, pos, index),
            encode_delay_ns: ENCODE_DELAY.as_nanos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GopConfig {
        GopConfig::default()
    }

    #[test]
    fn gop_starts_with_i_frame() {
        assert_eq!(cfg().kind_at(0), FrameKind::I);
        let mut enc = VideoEncoder::new(
            StreamId::new(1),
            cfg(),
            Bandwidth::from_mbps(2),
            SimTime::ZERO,
        );
        let first = enc.next_frame();
        assert_eq!(first.kind, FrameKind::I);
    }

    #[test]
    fn gop_pattern_repeats() {
        let c = cfg();
        let mut enc =
            VideoEncoder::new(StreamId::new(1), c, Bandwidth::from_mbps(2), SimTime::ZERO);
        let frames: Vec<_> = (0..c.gop_frames * 2).map(|_| enc.next_frame()).collect();
        for i in 0..c.gop_frames as usize {
            assert_eq!(frames[i].kind, frames[i + c.gop_frames as usize].kind);
        }
        assert_eq!(frames[0].gop_index, 0);
        assert_eq!(frames[c.gop_frames as usize].gop_index, 1);
    }

    #[test]
    fn gop_bytes_hit_bitrate_budget() {
        let c = cfg();
        let bitrate = Bandwidth::from_mbps(3);
        let mut enc = VideoEncoder::new(StreamId::new(1), c, bitrate, SimTime::ZERO);
        let total: u64 = (0..c.gop_frames * 10)
            .map(|_| u64::from(enc.next_frame().size_bytes))
            .sum();
        let secs = (c.gop_frames * 10) as f64 / f64::from(c.fps);
        let measured_bps = total as f64 * 8.0 / secs;
        let target = bitrate.as_bps() as f64;
        assert!(
            (measured_bps - target).abs() / target < 0.05,
            "measured {measured_bps} vs target {target}"
        );
    }

    #[test]
    fn i_frames_are_much_larger_than_b_frames() {
        let c = cfg();
        let mut enc =
            VideoEncoder::new(StreamId::new(1), c, Bandwidth::from_mbps(2), SimTime::ZERO);
        let frames: Vec<_> = (0..c.gop_frames).map(|_| enc.next_frame()).collect();
        let i_size = frames
            .iter()
            .find(|f| f.kind == FrameKind::I)
            .unwrap()
            .size_bytes;
        let b = frames
            .iter()
            .find(|f| matches!(f.kind, FrameKind::B | FrameKind::BUnref))
            .unwrap()
            .size_bytes;
        assert!(i_size > b * 5, "I={i_size} B={b}");
    }

    #[test]
    fn capture_times_are_evenly_spaced() {
        let c = cfg();
        let mut enc = VideoEncoder::new(
            StreamId::new(1),
            c,
            Bandwidth::from_mbps(1),
            SimTime::from_secs(5),
        );
        let a = enc.next_frame();
        let b = enc.next_frame();
        assert_eq!(a.capture_time, SimTime::from_secs(5));
        let spacing = (b.capture_time - a.capture_time).as_nanos() as i64;
        let nominal = c.frame_interval().as_nanos() as i64;
        assert!((spacing - nominal).abs() <= 1, "spacing={spacing}");
    }

    #[test]
    fn two_encoders_same_config_identical_output() {
        let c = cfg();
        let mk = || VideoEncoder::new(StreamId::new(9), c, Bandwidth::from_mbps(2), SimTime::ZERO);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..100 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    #[test]
    fn census_covers_all_positions() {
        let c = cfg();
        let (i, p, b, bu) = c.gop_census();
        assert_eq!(i, 1);
        assert_eq!(i + p + b + bu, c.gop_frames);
        assert!(bu > 0, "default config should have droppable B frames");
    }

    #[test]
    fn zero_b_frames_config_yields_ipp() {
        let c = GopConfig {
            b_between: 0,
            ..cfg()
        };
        assert_eq!(c.kind_at(0), FrameKind::I);
        for pos in 1..c.gop_frames {
            assert_eq!(c.kind_at(pos), FrameKind::P);
        }
    }
}
