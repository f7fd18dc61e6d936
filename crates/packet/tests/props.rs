//! Property-based tests for the wire formats and packetization.

use bytes::Bytes;
use livenet_cases::prelude::*;
use livenet_packet::{
    Depacketizer, MediaKind, Nack, Packetizer, ReceiverReport, Remb, RtcpPacket, RtpHeader,
    RtpPacket,
};
use livenet_types::{DetRng, SeqNo, SimDuration, Ssrc};

fn arb_header(
    marker: bool,
    pt_audio: bool,
    seq: u16,
    ts: u32,
    ssrc: u32,
    delay: Option<u64>,
) -> RtpHeader {
    RtpHeader {
        marker,
        kind: if pt_audio {
            MediaKind::Audio
        } else {
            MediaKind::Video
        },
        seq: SeqNo(seq),
        timestamp: ts,
        ssrc: Ssrc(ssrc),
        delay_field: delay.map(SimDuration::from_micros),
    }
}

proptest! {
    /// Any RTP packet survives an encode/decode roundtrip.
    #[test]
    fn rtp_roundtrip(
        marker: bool,
        audio: bool,
        seq: u16,
        ts: u32,
        ssrc: u32,
        delay in prop::option::of(0u64..(1 << 46)),
        payload in prop::collection::vec(any::<u8>(), 0..3000),
    ) {
        let pkt = RtpPacket {
            header: arb_header(marker, audio, seq, ts, ssrc, delay),
            payload: Bytes::from(payload),
        };
        let decoded = RtpPacket::decode(pkt.encode()).expect("roundtrip");
        prop_assert_eq!(&decoded, &pkt);
        prop_assert_eq!(pkt.encode().len(), pkt.wire_len());
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn rtp_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = RtpPacket::decode(Bytes::from(bytes));
    }

    /// The 48-bit delay extension: any microsecond value below 2^48
    /// roundtrips exactly through encode/decode; anything above saturates
    /// to the field's ceiling instead of wrapping.
    #[test]
    fn delay_field_48bit_roundtrip(us in 0u64..(1 << 50)) {
        let pkt = RtpPacket {
            header: arb_header(false, false, 1, 2, 3, Some(us)),
            payload: Bytes::from_static(b"x"),
        };
        let decoded = RtpPacket::decode(pkt.encode()).expect("decode");
        let expect = us.min((1 << 48) - 1);
        prop_assert_eq!(
            decoded.header.delay_field,
            Some(SimDuration::from_micros(expect))
        );
    }

    /// Per-hop accumulation (`with_added_delay`) survives the wire: the
    /// decoded field equals the saturating sum of both hops' delays.
    #[test]
    fn delay_field_accumulates_across_hops(a in 0u64..(1 << 47), b in 0u64..(1 << 47)) {
        let pkt = RtpPacket {
            header: arb_header(true, false, 9, 9, 9, Some(a)),
            payload: Bytes::from_static(b"y"),
        };
        let hopped = pkt.with_added_delay(SimDuration::from_micros(b));
        let decoded = RtpPacket::decode(hopped.encode()).expect("decode");
        prop_assert_eq!(
            decoded.header.delay_field.map(|d| d.as_micros()),
            Some((a + b).min((1 << 48) - 1))
        );
    }

    /// RTCP messages roundtrip.
    #[test]
    fn rtcp_roundtrip(
        ssrc: u32,
        lost in prop::collection::vec(any::<u16>(), 0..100),
        loss in 0.0f64..1.0,
        seq: u16,
        jitter: u32,
        bitrate: u64,
    ) {
        let nack = RtcpPacket::Nack(Nack {
            ssrc: Ssrc(ssrc),
            lost: lost.iter().map(|&s| SeqNo(s)).collect(),
        });
        prop_assert_eq!(RtcpPacket::decode(nack.encode()).expect("nack"), nack);

        let rr = RtcpPacket::ReceiverReport(ReceiverReport {
            ssrc: Ssrc(ssrc),
            loss_fraction: loss,
            highest_seq: SeqNo(seq),
            jitter_us: jitter,
        });
        match RtcpPacket::decode(rr.encode()).expect("rr") {
            RtcpPacket::ReceiverReport(d) => {
                prop_assert!((d.loss_fraction - loss).abs() <= 1.0 / 255.0 + 1e-9);
                prop_assert_eq!(d.highest_seq, SeqNo(seq));
            }
            other => prop_assert!(false, "wrong kind {:?}", other),
        }

        let remb = RtcpPacket::Remb(Remb { ssrc: Ssrc(ssrc), bitrate_bps: bitrate });
        prop_assert_eq!(RtcpPacket::decode(remb.encode()).expect("remb"), remb);
    }

    /// RTCP decode never panics on garbage.
    #[test]
    fn rtcp_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = RtcpPacket::decode(Bytes::from(bytes));
    }

    /// Packetize → shuffle → depacketize reproduces the payload exactly,
    /// for any frame size, meta nibble and start seq.
    #[test]
    fn packetize_depacketize_roundtrip(
        size in 0usize..20_000,
        first_seq: u16,
        ts: u32,
        meta in 0u8..16,
        shuffle_seed: u64,
    ) {
        let payload = Bytes::from((0..size).map(|i| (i % 255) as u8).collect::<Vec<u8>>());
        let mut p = Packetizer::new(Ssrc(1), SeqNo(first_seq));
        let mut pkts = p.packetize_with_meta(MediaKind::Video, ts, &payload, None, meta);
        let mut rng = DetRng::seed(shuffle_seed);
        rng.shuffle(&mut pkts);

        let mut d = Depacketizer::new();
        for pkt in pkts {
            d.push(pkt);
        }
        let frames = d.drain();
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0].payload, &payload);
        prop_assert_eq!(frames[0].timestamp, ts);
        prop_assert_eq!(d.pending_frames(), 0);
    }

    /// Multiple frames interleaved out of order all reassemble.
    #[test]
    fn multi_frame_interleaving(
        sizes in prop::collection::vec(1usize..5_000, 1..8),
        shuffle_seed: u64,
    ) {
        let mut p = Packetizer::new(Ssrc(9), SeqNo(0));
        let mut all = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let payload = Bytes::from(vec![i as u8; size]);
            all.extend(p.packetize(MediaKind::Video, (i as u32) * 3000, &payload, None));
        }
        let mut rng = DetRng::seed(shuffle_seed);
        rng.shuffle(&mut all);
        let mut d = Depacketizer::new();
        let mut done = 0;
        for pkt in all {
            d.push(pkt);
            done += d.drain().len();
        }
        prop_assert_eq!(done, sizes.len());
    }
}
