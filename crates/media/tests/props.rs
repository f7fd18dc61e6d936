//! Property-based tests for the video source model.

use livenet_media::{FrameKind, GopConfig, SimulcastLadder, VideoEncoder};
use livenet_types::{Bandwidth, SimTime, StreamId};
use proptest::prelude::*;

fn arb_gop() -> impl Strategy<Value = GopConfig> {
    (5u32..60, 10u32..90, 0u32..4, 0.0f64..1.0, 2.0f64..10.0, 0.2f64..0.9).prop_map(
        |(fps, gop_frames, b_between, unref, i_ratio, b_ratio)| GopConfig {
            fps,
            gop_frames,
            b_between,
            unref_b_fraction: unref,
            i_ratio,
            b_ratio,
        },
    )
}

proptest! {
    /// Every GoP config starts with an I frame and the census covers all
    /// positions exactly once.
    #[test]
    fn gop_structure_wellformed(cfg in arb_gop()) {
        prop_assert_eq!(cfg.kind_at(0), FrameKind::I);
        let (i, p, b, bu) = cfg.gop_census();
        prop_assert_eq!(i, 1);
        prop_assert_eq!(i + p + b + bu, cfg.gop_frames);
    }

    /// The encoder hits its bitrate budget within 6% over 10 GoPs, for any
    /// structure and bitrate.
    #[test]
    fn encoder_meets_bitrate(cfg in arb_gop(), kbps in 300u64..8_000) {
        let bitrate = Bandwidth::from_kbps(kbps);
        let mut enc = VideoEncoder::new(StreamId::new(1), cfg, bitrate, SimTime::ZERO);
        let frames = u64::from(cfg.gop_frames) * 10;
        let total: u64 = (0..frames).map(|_| u64::from(enc.next_frame().size_bytes)).sum();
        let secs = frames as f64 / f64::from(cfg.fps);
        let measured = total as f64 * 8.0 / secs;
        let target = bitrate.as_bps() as f64;
        prop_assert!(
            (measured - target).abs() / target < 0.06,
            "measured {measured}, target {target}"
        );
    }

    /// Capture times are non-decreasing and frame indices dense.
    #[test]
    fn encoder_timing_monotone(cfg in arb_gop(), n in 1u64..200) {
        let mut enc = VideoEncoder::new(
            StreamId::new(2),
            cfg,
            Bandwidth::from_mbps(1),
            SimTime::from_secs(1),
        );
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let f = enc.next_frame();
            prop_assert!(f.capture_time >= last);
            prop_assert_eq!(f.id.index, i);
            last = f.capture_time;
        }
    }

    /// Ladder selection always returns a rendition whose bitrate fits the
    /// budget when any fits, and the lowest rung otherwise.
    #[test]
    fn ladder_selection_sound(avail_kbps in 1u64..50_000, headroom in 1.0f64..2.0) {
        let ladder = SimulcastLadder::taobao_default(StreamId::new(100));
        let avail = Bandwidth::from_kbps(avail_kbps);
        let chosen = ladder.select(avail, headroom);
        let budget = (avail.as_bps() as f64 / headroom) as u64;
        let any_fits = ladder.renditions().iter().any(|r| r.bitrate.as_bps() <= budget);
        if any_fits {
            prop_assert!(chosen.bitrate.as_bps() <= budget);
            // And it is the highest fitting one.
            for r in ladder.renditions() {
                if r.bitrate.as_bps() <= budget {
                    prop_assert!(chosen.bitrate >= r.bitrate);
                }
            }
        } else {
            prop_assert_eq!(&chosen.stream, &ladder.renditions().last().unwrap().stream);
        }
    }
}
