//! Property-based tests for the node data-plane structures.

use bytes::Bytes;
use livenet_media::FrameKind;
use livenet_node::{RxOutcome, RxState};
use livenet_node::{StreamCache, StreamFib, Subscriber};
use livenet_packet::{MediaKind, Packetizer};
use livenet_types::{ClientId, DetRng, NodeId, SeqNo, SimDuration, SimTime, Ssrc, StreamId};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum FibOp {
    Sub(u64, u64, bool),
    Unsub(u64, u64, bool),
}

fn arb_fib_ops() -> impl Strategy<Value = Vec<FibOp>> {
    prop::collection::vec(
        (0u64..5, 0u64..6, any::<bool>(), any::<bool>()).prop_map(|(s, p, client, sub)| {
            if sub {
                FibOp::Sub(s, p, client)
            } else {
                FibOp::Unsub(s, p, client)
            }
        }),
        0..100,
    )
}

proptest! {
    /// The FIB matches a reference model (HashSet) under any op sequence.
    #[test]
    fn fib_matches_reference(ops in arb_fib_ops()) {
        let mut fib = StreamFib::new();
        let mut model: HashSet<(u64, Subscriber)> = HashSet::new();
        for op in ops {
            match op {
                FibOp::Sub(s, p, client) => {
                    let sub = if client {
                        Subscriber::Client(ClientId::new(p))
                    } else {
                        Subscriber::Node(NodeId::new(p))
                    };
                    let added = fib.subscribe(StreamId::new(s), sub);
                    prop_assert_eq!(added, model.insert((s, sub)));
                }
                FibOp::Unsub(s, p, client) => {
                    let sub = if client {
                        Subscriber::Client(ClientId::new(p))
                    } else {
                        Subscriber::Node(NodeId::new(p))
                    };
                    let removed = fib.unsubscribe(StreamId::new(s), sub);
                    prop_assert_eq!(removed, model.remove(&(s, sub)));
                }
            }
            // Aggregate invariants hold at every step.
            prop_assert_eq!(fib.total_subscriptions(), model.len());
            for s in 0..5u64 {
                let count = model.iter().filter(|(ms, _)| *ms == s).count();
                prop_assert_eq!(fib.subscriber_count(StreamId::new(s)), count);
                prop_assert_eq!(fib.has_stream(StreamId::new(s)), count > 0);
            }
        }
    }

    /// RxState: received + outstanding + abandoned == expected, always.
    #[test]
    fn rx_accounting_invariant(
        deliveries in prop::collection::vec((0u16..500, any::<bool>()), 1..300),
        scans in 1u64..20,
    ) {
        let mut rx = RxState::new();
        let mut t = SimTime::ZERO;
        for (i, &(seq, deliver)) in deliveries.iter().enumerate() {
            t = SimTime::from_millis(i as u64 * 7);
            if deliver {
                rx.on_packet(t, SeqNo(seq), SimDuration::from_millis(5));
            }
        }
        for s in 0..scans {
            let _ = rx.scan(
                t + SimDuration::from_millis(s * 100),
                SimDuration::from_millis(50),
                3,
            );
        }
        prop_assert_eq!(
            rx.received + rx.outstanding_holes() as u64 + rx.abandoned,
            rx.expected,
            "accounting identity broken"
        );
        prop_assert!(rx.residual_loss() <= 1.0);
    }

    /// Cache: a contiguous insert sequence always yields a startup burst
    /// beginning at an I frame and ending at the newest packet, wherever
    /// the sequence numbers start; half the runs start within 128 of
    /// 65,535, so most of those wrap.
    #[test]
    fn cache_burst_invariants(
        first in (any::<bool>(), any::<u16>())
            .prop_map(|(near_wrap, seq)| if near_wrap { seq | 0xFF80 } else { seq }),
        frames in prop::collection::vec((any::<bool>(), 100usize..4000), 1..30),
        capacity in 64usize..512,
    ) {
        let mut cache = StreamCache::new(capacity);
        let mut p = Packetizer::new(Ssrc(3), SeqNo(first));
        let mut any_i = false;
        for (i, &(is_i, size)) in frames.iter().enumerate() {
            let kind = if is_i || i == 0 { FrameKind::I } else { FrameKind::P };
            any_i |= kind == FrameKind::I;
            let payload = Bytes::from(vec![0u8; size]);
            for pkt in p.packetize_with_meta(MediaKind::Video, i as u32 * 3000, &payload, None, kind.to_nibble()) {
                cache.insert(pkt);
            }
        }
        prop_assert!(cache.len() <= capacity.max(8));
        let burst = cache.startup_burst();
        if !burst.is_empty() {
            prop_assert!(any_i);
            prop_assert_eq!(cache.kind_of(burst[0].header.seq), Some(FrameKind::I));
            prop_assert_eq!(burst.last().unwrap().header.seq, cache.highest_seq().unwrap());
            for w in burst.windows(2) {
                prop_assert_eq!(w[1].header.seq, w[0].header.seq.next());
            }
        }
    }

    /// Duplicate delivery is always detected, never double-counted.
    #[test]
    fn rx_duplicates_detected(seqs in prop::collection::vec(0u16..100, 1..200)) {
        let mut rx = RxState::new();
        let mut rng = DetRng::seed(1);
        let mut delivered: HashSet<u16> = HashSet::new();
        let mut fresh_or_recovered = 0u64;
        for (i, &s) in seqs.iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            let out = rx.on_packet(t, SeqNo(s), SimDuration::from_millis(3));
            match out {
                RxOutcome::Fresh | RxOutcome::Reset | RxOutcome::Recovered { .. } => {
                    prop_assert!(delivered.insert(s), "double-counted {s}");
                    fresh_or_recovered += 1;
                }
                RxOutcome::Duplicate => {
                    // Either truly seen, or behind the window start.
                }
            }
            let _ = rng.f64();
        }
        prop_assert_eq!(rx.received, fresh_or_recovered);
    }
}

proptest! {
    /// A contiguous (wrapping) sequence run never manufactures holes or
    /// resets, wherever it starts — including runs that cross the 32,768
    /// midpoint and the 65,535 → 0 wrap.
    #[test]
    fn rx_contiguous_run_survives_wraparound(start in any::<u16>(), n in 1usize..2048) {
        let mut rx = RxState::new();
        let mut seq = SeqNo(start);
        for i in 0..n {
            let t = SimTime::from_millis(i as u64);
            let out = rx.on_packet(t, seq, SimDuration::from_millis(3));
            prop_assert!(matches!(out, RxOutcome::Fresh), "non-fresh at {i}");
            seq = seq.next();
        }
        prop_assert_eq!(rx.received, n as u64);
        prop_assert_eq!(rx.expected, n as u64);
        prop_assert_eq!(rx.outstanding_holes(), 0);
        prop_assert_eq!(rx.abandoned, 0);
    }

    /// A small forward jump marks exactly `gap − 1` holes even when the
    /// pair straddles the signed-midpoint (32,768) boundary or the u16
    /// wrap, and the accounting identity holds.
    #[test]
    fn rx_gap_accounting_wraps_cleanly(start in any::<u16>(), gap in 2u16..64) {
        let mut rx = RxState::new();
        rx.on_packet(SimTime::ZERO, SeqNo(start), SimDuration::from_millis(3));
        rx.on_packet(
            SimTime::from_millis(1),
            SeqNo(start).add(gap),
            SimDuration::from_millis(3),
        );
        prop_assert_eq!(rx.outstanding_holes(), usize::from(gap) - 1);
        prop_assert_eq!(rx.expected, u64::from(gap) + 1);
        prop_assert_eq!(rx.received, 2);
        prop_assert_eq!(
            rx.received + rx.outstanding_holes() as u64 + rx.abandoned,
            rx.expected
        );
    }

    /// `scan` never NACKs any hole more than `retry_limit` times, no
    /// matter how often it runs or how the holes are interleaved with
    /// recoveries; exhausted holes are abandoned, never re-NACKed.
    #[test]
    fn scan_respects_retry_limit_per_hole(
        gap in 3u16..120,
        retry_limit in 1u32..6,
        scans in 1u64..40,
        recover_stride in 0u16..5,
    ) {
        let mut rx = RxState::new();
        rx.on_packet(SimTime::ZERO, SeqNo(10), SimDuration::from_millis(3));
        rx.on_packet(
            SimTime::from_millis(1),
            SeqNo(10).add(gap),
            SimDuration::from_millis(3),
        );
        let interval = SimDuration::from_millis(50);
        let mut nacks: std::collections::HashMap<u16, u32> = std::collections::HashMap::new();
        for s in 0..scans {
            let now = SimTime::from_millis(10 + s * 60);
            for seq in rx.scan(now, interval, retry_limit) {
                *nacks.entry(seq.0).or_insert(0) += 1;
            }
            // Occasionally recover one of the holes mid-stream.
            if recover_stride > 0 && s % u64::from(recover_stride) == 0 {
                let victim = SeqNo(11).add((s % u64::from(gap - 1)) as u16);
                let _ = rx.on_packet(now, victim, SimDuration::from_millis(3));
            }
        }
        for (&seq, &n) in &nacks {
            prop_assert!(
                n <= retry_limit,
                "seq {seq} NACKed {n} times (limit {retry_limit})"
            );
        }
        prop_assert_eq!(
            rx.received + rx.outstanding_holes() as u64 + rx.abandoned,
            rx.expected
        );
    }

    /// Timer keys roundtrip for every kind and id.
    #[test]
    fn timer_kind_roundtrip(raw in 0u64..(1u64 << 48), client: bool) {
        use livenet_node::TimerKind;
        let kinds = [
            TimerKind::LossScan,
            TimerKind::RrTick,
            if client {
                TimerKind::PacerPoll(Subscriber::Client(ClientId::new(raw)))
            } else {
                TimerKind::PacerPoll(Subscriber::Node(NodeId::new(raw)))
            },
        ];
        for k in kinds {
            prop_assert_eq!(TimerKind::decode(k.encode()), Some(k));
        }
    }
}

/// Wire encodings a live relay would really receive, one per message kind.
fn valid_datagrams(stream: StreamId) -> Vec<Bytes> {
    use livenet_node::OverlayMsg;
    use livenet_packet::{Nack, ReceiverReport, Remb, RtcpPacket, RtxMiss};
    let ssrc = livenet_packet::rtp::ssrc_for_stream(stream);
    let rtp = Packetizer::new(ssrc, SeqNo(40))
        .packetize_with_meta(
            MediaKind::Video,
            9000,
            &Bytes::from(vec![7u8; 300]),
            Some(SimDuration::from_millis(3)),
            FrameKind::I.to_nibble(),
        )
        .remove(0);
    let rtcp = |packet: RtcpPacket| OverlayMsg::Rtcp {
        stream,
        packet: packet.encode(),
    };
    let seqs = vec![SeqNo(3), SeqNo(4), SeqNo(900)];
    [
        OverlayMsg::Rtp {
            stream,
            sent_at: SimTime::from_millis(5),
            packet: rtp.encode(),
            retransmit: false,
        },
        rtcp(RtcpPacket::Nack(Nack {
            ssrc,
            lost: seqs.clone(),
        })),
        rtcp(RtcpPacket::RtxMiss(RtxMiss {
            ssrc,
            missing: seqs,
        })),
        rtcp(RtcpPacket::ReceiverReport(ReceiverReport {
            ssrc,
            loss_fraction: 0.25,
            highest_seq: SeqNo(12),
            jitter_us: 800,
        })),
        rtcp(RtcpPacket::Remb(Remb {
            ssrc,
            bitrate_bps: 3_000_000,
        })),
        OverlayMsg::Subscribe {
            stream,
            remainder: vec![NodeId::new(1), NodeId::new(2)],
        },
        OverlayMsg::SubscribeOk { stream },
        OverlayMsg::Unsubscribe { stream },
        OverlayMsg::Keepalive,
    ]
    .iter()
    .map(OverlayMsg::encode)
    .collect()
}

/// What the node must accept: the envelope decodes, and so does the RTP
/// or RTCP packet it carries. Media from a client is ignored unread.
fn well_formed(datagram: &Bytes, from_client: bool) -> bool {
    use livenet_node::OverlayMsg;
    match OverlayMsg::decode(datagram.clone()) {
        Ok(OverlayMsg::Rtp { packet, .. }) => {
            from_client || livenet_packet::RtpPacket::decode(packet).is_ok()
        }
        Ok(OverlayMsg::Rtcp { packet, .. }) => livenet_packet::RtcpPacket::decode(packet).is_ok(),
        Ok(_) => true,
        Err(_) => false,
    }
}

proptest! {
    /// Bytes off a socket never panic a node and never leave a trace
    /// beyond the `malformed` counter: arbitrary bytes, and truncations
    /// and bit flips of valid datagrams, from known and unknown senders,
    /// into both entry points of a relay with a live stream and a viewer.
    #[test]
    fn hostile_datagrams_are_counted_and_leave_no_state(
        ops in prop::collection::vec(
            (0u8..3, 0usize..64, 0usize..4096, 0u8..4, prop::collection::vec(any::<u8>(), 0..80)),
            1..120,
        ),
    ) {
        use livenet_node::{NodeConfig, OverlayMsg, OverlayNode};
        let stream = StreamId::new(7);
        let valid = valid_datagrams(stream);
        let mut node = OverlayNode::new(NodeConfig::new(NodeId::new(2)));
        for neighbor in [1, 3] {
            node.set_neighbor_rtt(NodeId::new(neighbor), SimDuration::from_millis(20));
        }
        let subscribe = OverlayMsg::Subscribe { stream, remainder: vec![NodeId::new(1)] };
        node.on_datagram(SimTime::ZERO, NodeId::new(3), subscribe.encode());
        node.on_datagram(SimTime::ZERO, NodeId::new(1), OverlayMsg::SubscribeOk { stream }.encode());
        let mut actions = Vec::new();
        node.client_attach(SimTime::ZERO, ClientId::new(9), stream, None, None, &mut actions);
        node.on_datagram(SimTime::from_millis(10), NodeId::new(1), valid[0].clone());

        for (i, (shape, pick, at, sender, raw)) in ops.into_iter().enumerate() {
            let base = &valid[pick % valid.len()];
            let datagram = match shape {
                0 => Bytes::from(raw),
                1 => base.slice(0..at % base.len()),
                _ => {
                    let mut flipped = base.to_vec();
                    let bit = at % (flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    Bytes::from(flipped)
                }
            };
            let now = SimTime::from_millis(20 + i as u64);
            let footprint = node.footprint();
            let counted = node.stats.malformed;
            // Senders: the upstream, the downstream, a stranger, the viewer.
            let actions = match sender {
                3 => node.on_client_datagram(now, ClientId::new(9), datagram.clone()),
                s => node.on_datagram(now, NodeId::new([1, 3, 77][usize::from(s)]), datagram.clone()),
            };
            let rejected = node.stats.malformed - counted;
            prop_assert_eq!(
                rejected,
                u64::from(!well_formed(&datagram, sender == 3)),
                "datagram {:?}",
                datagram
            );
            if rejected == 1 {
                prop_assert!(actions.is_empty());
                prop_assert_eq!(node.footprint(), footprint);
            }
        }
    }
}
