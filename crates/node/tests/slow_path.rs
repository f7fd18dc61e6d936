//! The node's slow path driven directly, one `OverlayNode` and no
//! network: NACK retries and their counters, parked RTX waiters (the cap,
//! the TTL sweep, the purge on a stream reset), and a pacer poll fired
//! twice.

use bytes::Bytes;
use livenet_media::{FrameKind, GopConfig, VideoEncoder};
use livenet_node::{NodeAction, NodeConfig, OverlayMsg, OverlayNode, Subscriber, TimerKind};
use livenet_packet::rtp::ssrc_for_stream;
use livenet_packet::{MediaKind, Nack, Packetizer, RtcpPacket, RtxMiss};
use livenet_types::{Bandwidth, ClientId, NodeId, SeqNo, SimTime, StreamId};

const STREAM: StreamId = StreamId(7);

/// One encoded RTP overlay datagram (single small packet) with the given
/// sequence number.
fn rtp_datagram(seq: u16, sent_at: SimTime) -> Bytes {
    let mut p = Packetizer::new(ssrc_for_stream(STREAM), SeqNo(seq));
    let pkts = p.packetize_with_meta(
        MediaKind::Video,
        u32::from(seq).wrapping_mul(3000),
        &Bytes::from(vec![0u8; 64]),
        None,
        FrameKind::P.to_nibble(),
    );
    OverlayMsg::Rtp {
        stream: STREAM,
        sent_at,
        packet: pkts[0].encode(),
        retransmit: false,
    }
    .encode()
}

/// NACK sequence lists extracted from a node's emitted actions.
fn nack_batches_in(actions: &[NodeAction]) -> Vec<Vec<SeqNo>> {
    actions
        .iter()
        .filter_map(|a| match a {
            NodeAction::Send {
                msg: OverlayMsg::Rtcp { packet, .. },
                ..
            } => match RtcpPacket::decode(packet.clone()) {
                Ok(RtcpPacket::Nack(Nack { lost, .. })) => Some(lost),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

#[test]
fn pending_rtx_is_capped_and_swept_by_ttl() {
    // A downstream NACKs 1500 sequences the node cannot serve: only
    // MAX_PENDING_RTX (1024) may park, every miss is reported back in one
    // RTX-miss, and the loss-scan sweep evicts the parked entries once the
    // TTL passes — none earlier.
    let mut node = OverlayNode::new(NodeConfig::new(NodeId::new(2)));
    node.register_producer(STREAM, None); // empty cache: every seq misses
    let _ = node.start(SimTime::ZERO);
    let lost: Vec<SeqNo> = (0u16..1500).map(SeqNo).collect();
    let nack = RtcpPacket::Nack(Nack {
        ssrc: ssrc_for_stream(STREAM),
        lost,
    });
    let actions = node.on_datagram(
        SimTime::from_millis(10),
        NodeId::new(3),
        OverlayMsg::Rtcp {
            stream: STREAM,
            packet: nack.encode(),
        }
        .encode(),
    );
    assert_eq!(node.stats.rtx_unavailable, 1500);
    let miss_lens: Vec<usize> = actions
        .iter()
        .filter_map(|a| match a {
            NodeAction::Send {
                msg: OverlayMsg::Rtcp { packet, .. },
                ..
            } => match RtcpPacket::decode(packet.clone()) {
                Ok(RtcpPacket::RtxMiss(RtxMiss { missing, .. })) => Some(missing.len()),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert_eq!(miss_lens, vec![1500], "every missed seq must be reported");

    // Before the TTL: nothing expires.
    let _ = node.on_timer(SimTime::from_millis(500), TimerKind::LossScan.encode());
    assert_eq!(node.stats.rtx_pending_expired, 0);
    // After the TTL: exactly the capped population is evicted.
    let _ = node.on_timer(SimTime::from_millis(1200), TimerKind::LossScan.encode());
    assert_eq!(node.stats.rtx_pending_expired, 1024);
    // The sweep is complete: a later sweep finds nothing left.
    let _ = node.on_timer(SimTime::from_millis(2400), TimerKind::LossScan.encode());
    assert_eq!(node.stats.rtx_pending_expired, 1024);
}

#[test]
fn stream_reset_purges_parked_rtx_waiters() {
    // Waiters parked against the old sequence space can never be served
    // after a large forward jump (stream reset): they must be purged, not
    // left to rot against the cap.
    let mut node = OverlayNode::new(NodeConfig::new(NodeId::new(2)));
    node.on_datagram(
        SimTime::ZERO,
        NodeId::new(1),
        rtp_datagram(0, SimTime::ZERO),
    );
    let nack = RtcpPacket::Nack(Nack {
        ssrc: ssrc_for_stream(STREAM),
        lost: vec![SeqNo(2), SeqNo(3)],
    });
    node.on_datagram(
        SimTime::from_millis(5),
        NodeId::new(5),
        OverlayMsg::Rtcp {
            stream: STREAM,
            packet: nack.encode(),
        }
        .encode(),
    );
    assert_eq!(node.stats.rtx_unavailable, 2);
    assert_eq!(node.stats.rtx_pending_expired, 0);
    // Forward jump far past RESET_JUMP: the old space is gone.
    node.on_datagram(
        SimTime::from_millis(20),
        NodeId::new(1),
        rtp_datagram(5000, SimTime::from_millis(20)),
    );
    assert_eq!(
        node.stats.rtx_pending_expired, 2,
        "reset did not purge the parked waiters"
    );
}

/// Establish `upstream` (node 2) for STREAM on a fresh consumer node.
fn consumer_with_upstream() -> OverlayNode {
    let mut node = OverlayNode::new(NodeConfig::new(NodeId::new(3)));
    let mut actions = Vec::new();
    node.client_attach(
        SimTime::ZERO,
        ClientId::new(9),
        STREAM,
        None,
        Some(&[NodeId::new(2), NodeId::new(3)]),
        &mut actions,
    );
    node.on_datagram(
        SimTime::from_millis(5),
        NodeId::new(2),
        OverlayMsg::SubscribeOk { stream: STREAM }.encode(),
    );
    assert_eq!(node.upstream_of(STREAM), Some(NodeId::new(2)));
    node
}

#[test]
fn nack_retries_stop_at_retry_limit() {
    // One unrecovered hole: the node NACKs it exactly `nack_retry_limit`
    // times, then abandons it — no infinite retry stream.
    let mut node = consumer_with_upstream();
    node.on_datagram(
        SimTime::from_millis(10),
        NodeId::new(2),
        rtp_datagram(0, SimTime::from_millis(10)),
    );
    node.on_datagram(
        SimTime::from_millis(12),
        NodeId::new(2),
        rtp_datagram(2, SimTime::from_millis(12)),
    );
    let mut batches = Vec::new();
    for i in 1..=20u64 {
        let now = SimTime::from_millis(12 + i * 60);
        batches.extend(nack_batches_in(
            &node.on_timer(now, TimerKind::LossScan.encode()),
        ));
    }
    assert_eq!(batches.len(), 5, "hole must be NACKed exactly limit times");
    for b in &batches {
        assert_eq!(b.as_slice(), &[SeqNo(1)]);
    }
    assert_eq!(node.stats.nacks_sent, 5);
    assert_eq!(node.stats.nack_batches, 5);
}

#[test]
fn nacks_sent_counts_seqs_and_nack_batches_counts_messages() {
    // A 4-seq hole in one scan round is one NACK message but four lost
    // sequences: the two counters must diverge accordingly.
    let mut node = consumer_with_upstream();
    node.on_datagram(
        SimTime::from_millis(10),
        NodeId::new(2),
        rtp_datagram(0, SimTime::from_millis(10)),
    );
    node.on_datagram(
        SimTime::from_millis(12),
        NodeId::new(2),
        rtp_datagram(5, SimTime::from_millis(12)),
    );
    let actions = node.on_timer(SimTime::from_millis(80), TimerKind::LossScan.encode());
    let batches = nack_batches_in(&actions);
    assert_eq!(batches.len(), 1);
    assert_eq!(
        batches[0].as_slice(),
        &[SeqNo(1), SeqNo(2), SeqNo(3), SeqNo(4)]
    );
    assert_eq!(node.stats.nacks_sent, 4, "per-seq counter");
    assert_eq!(node.stats.nack_batches, 1, "per-message counter");
}

/// The pacer-poll deadlines among `actions` for `key`.
fn polls_armed(actions: &[NodeAction], key: u64) -> Vec<SimTime> {
    actions
        .iter()
        .filter_map(|a| match a {
            NodeAction::SetTimer { at, key: k } if *k == key => Some(*at),
            _ => None,
        })
        .collect()
}

#[test]
fn a_pacer_poll_fired_twice_is_stale_the_second_time() {
    // Drivers arm a timer and forget it, so the core decides whether a
    // fire is still due. A slow client backlogs one frame: its armed poll
    // flushes and re-arms once; the same deadline fired again finds
    // nothing due and must not start a second poll chain.
    let mut node = OverlayNode::new(NodeConfig::new(NodeId::new(1)));
    node.register_producer(STREAM, None);
    let client = ClientId::new(9);
    let mut actions = Vec::new();
    let slow = Some(Bandwidth::from_kbps(200));
    node.client_attach(SimTime::ZERO, client, STREAM, slow, None, &mut actions);
    let mut encoder = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(2),
        SimTime::ZERO,
    );
    let frame = encoder.next_frame();
    let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
    let poll = TimerKind::PacerPoll(Subscriber::Client(client)).encode();
    let armed = polls_armed(&node.ingest_frame(SimTime::ZERO, &frame, &payload), poll);
    assert_eq!(armed.len(), 1, "one poll armed for the backlog");

    let due = armed[0];
    assert_eq!(
        polls_armed(&node.on_timer(due, poll), poll).len(),
        1,
        "the due poll re-arms once"
    );
    assert!(
        node.on_timer(due, poll).is_empty(),
        "a second fire at the same deadline acts"
    );
    assert_eq!(node.stats.stale_timers, 1);

    // A key that does not decode is stale too.
    assert!(node.on_timer(due, u64::MAX).is_empty());
    assert_eq!(node.stats.stale_timers, 2);
}
