//! `OverlayNode` state-layout guarantees, driven through the public API
//! only: ordered emission, release of everything a stream or a subscriber
//! referenced, crash reset, and no per-packet copy of the cache for
//! switches nobody is waiting on.

use bytes::Bytes;
use livenet::media::FrameKind;
use livenet::node::{NodeAction, NodeConfig, NodeFootprint, OverlayMsg, OverlayNode, TimerKind};
use livenet::packet::rtp::ssrc_for_stream;
use livenet::packet::{MediaKind, Nack, Packetizer, ReceiverReport, RtcpPacket};
use livenet::types::{Bandwidth, ClientId, NodeId, SeqNo, SimDuration, SimTime, StreamId};

#[path = "common/alloc.rs"]
mod alloc;

/// Bytes this thread has asked the allocator for.
fn allocated() -> u64 {
    alloc::counts().bytes
}

fn n(id: u64) -> NodeId {
    NodeId::new(id)
}

fn at(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A node with an RTT hint for each of `neighbors`, as drivers set up.
fn node(id: u64, neighbors: &[u64]) -> OverlayNode {
    let mut node = OverlayNode::new(NodeConfig::new(n(id)));
    for &other in neighbors {
        node.set_neighbor_rtt(n(other), SimDuration::from_millis(20));
    }
    node
}

/// One single-packet frame of `stream` in an overlay RTP envelope.
fn rtp(stream: StreamId, seq: u16, kind: FrameKind, sent_at: SimTime) -> Bytes {
    let mut packets = Packetizer::new(ssrc_for_stream(stream), SeqNo(seq)).packetize_with_meta(
        MediaKind::Video,
        u32::from(seq) * 3000,
        &Bytes::from(vec![0u8; 100]),
        None,
        kind.to_nibble(),
    );
    OverlayMsg::Rtp {
        stream,
        sent_at,
        packet: packets.remove(0).encode(),
        retransmit: false,
    }
    .encode()
}

fn rtcp(stream: StreamId, packet: &RtcpPacket) -> Bytes {
    OverlayMsg::Rtcp {
        stream,
        packet: packet.encode(),
    }
    .encode()
}

/// `down` subscribes to `stream` at `relay` along a path whose next hop is
/// `up`, and `up` confirms.
fn subscribe_through(relay: &mut OverlayNode, now: SimTime, stream: StreamId, down: u64, up: u64) {
    let subscribe = OverlayMsg::Subscribe {
        stream,
        remainder: vec![n(up)],
    };
    relay.on_datagram(now, n(down), subscribe.encode());
    relay.on_datagram(now, n(up), OverlayMsg::SubscribeOk { stream }.encode());
    assert_eq!(relay.upstream_of(stream), Some(n(up)));
}

/// `(kind, destination, stream)` of every RTCP a node sent.
fn rtcp_sent(actions: &[NodeAction]) -> Vec<(&'static str, NodeId, StreamId)> {
    actions
        .iter()
        .filter_map(|a| match a {
            NodeAction::Send {
                to: livenet::node::Subscriber::Node(to),
                msg: OverlayMsg::Rtcp { stream, packet },
            } => {
                let kind = match RtcpPacket::decode(packet.clone()).expect("own RTCP decodes") {
                    RtcpPacket::ReceiverReport(_) => "rr",
                    RtcpPacket::Remb(_) => "remb",
                    RtcpPacket::Nack(_) => "nack",
                    RtcpPacket::RtxMiss(_) => "miss",
                };
                Some((kind, *to, *stream))
            }
            _ => None,
        })
        .collect()
}

/// (a) A relay fed 16 streams by two upstreams reports in stream order:
/// one RR per stream, then one REMB per upstream on its lowest stream —
/// the same from every freshly built node.
#[test]
fn rr_tick_emits_in_stream_order() {
    let streams: Vec<StreamId> = (100..116).map(StreamId::new).collect();
    let upstream = |s: StreamId| if s.raw().is_multiple_of(2) { 2 } else { 1 };
    let tick = || {
        let mut relay = node(3, &[1, 2, 9]);
        // Subscribed in descending order: arrival order must not matter.
        for &s in streams.iter().rev() {
            subscribe_through(&mut relay, at(0), s, 9, upstream(s));
            relay.on_datagram(at(10), n(upstream(s)), rtp(s, 0, FrameKind::P, at(0)));
        }
        rtcp_sent(&relay.on_timer(at(500), TimerKind::RrTick.encode()))
    };

    let sent = tick();
    let mut expected: Vec<_> = streams.iter().map(|&s| ("rr", n(upstream(s)), s)).collect();
    expected.push(("remb", n(1), streams[1]));
    expected.push(("remb", n(2), streams[0]));
    assert_eq!(sent, expected);
    assert_eq!(tick(), sent, "a second node reports in a different order");
}

/// (b) Whatever a stream or a subscriber brought into a node's tables
/// leaves with it.
#[test]
fn state_is_released_with_its_last_reference() {
    // A relay between upstream 1 and downstream 3, a new stream per round.
    let mut relay = node(2, &[1, 3]);
    let idle = relay.footprint();
    for round in 0..500u64 {
        let stream = StreamId::new(1_000 + round);
        let now = at(round * 100);
        subscribe_through(&mut relay, now, stream, 3, 1);
        for seq in [0u16, 1, 3] {
            relay.on_datagram(now, n(1), rtp(stream, seq, FrameKind::P, now));
        }
        // The downstream lost seq 2 as well: its NACK parks here.
        let nack = RtcpPacket::Nack(Nack {
            ssrc: ssrc_for_stream(stream),
            lost: vec![SeqNo(2)],
        });
        relay.on_datagram(now, n(3), rtcp(stream, &nack));
        let busy = relay.footprint();
        assert_eq!((busy.streams, busy.peers, busy.parked_rtx), (1, 1, 1));

        relay.on_datagram(now, n(3), OverlayMsg::Unsubscribe { stream }.encode());
        assert_eq!(relay.footprint(), idle, "round {round}");
        // Media already in flight when the Unsubscribe left still lands,
        // and is gone by the next housekeeping tick.
        relay.on_datagram(now, n(1), rtp(stream, 4, FrameKind::P, now));
        relay.on_timer(now, TimerKind::RrTick.encode());
        assert_eq!(relay.footprint(), idle, "round {round}, after stray media");
    }
    assert_eq!(relay.fib().total_subscriptions(), 0);

    // A consumer behind upstream 2, a new viewer per round.
    let stream = StreamId::new(7);
    let mut consumer = node(3, &[2, 4]);
    let idle = consumer.footprint();
    for round in 0..500u64 {
        let client = ClientId::new(round);
        let now = at(round * 100);
        let mut actions = Vec::new();
        consumer.client_attach(
            now,
            client,
            stream,
            Some(Bandwidth::from_mbps(10)),
            Some(&[n(1), n(2), n(3)]),
            &mut actions,
        );
        consumer.install_paths(stream, &[vec![n(1), n(4), n(3)]]);
        consumer.on_datagram(now, n(2), OverlayMsg::SubscribeOk { stream }.encode());
        consumer.on_datagram(now, n(2), rtp(stream, 0, FrameKind::I, now));
        let report = RtcpPacket::ReceiverReport(ReceiverReport {
            ssrc: ssrc_for_stream(stream),
            loss_fraction: 0.0,
            highest_seq: SeqNo(0),
            jitter_us: 0,
        });
        consumer.on_client_datagram(now, client, rtcp(stream, &report));
        let busy = consumer.footprint();
        assert_eq!(
            (busy.streams, busy.peers, busy.clients, busy.cached_paths),
            (1, 1, 1, 2)
        );

        consumer.client_detach(now, client, &mut actions);
        assert_eq!(consumer.footprint(), idle, "round {round}");
    }
}

/// (c) A crash forgets everything but the configuration and the RTT hints.
#[test]
fn crash_reset_leaves_a_new_node_plus_rtt_hints() {
    let stream = StreamId::new(7);
    let mut relay = node(2, &[1, 3, 4]);
    subscribe_through(&mut relay, at(0), stream, 3, 1);
    relay.on_datagram(at(5), n(8), OverlayMsg::Keepalive.encode());
    relay.on_datagram(at(10), n(1), rtp(stream, 0, FrameKind::I, at(0)));
    relay.install_paths(stream, &[vec![n(1), n(4), n(2)]]);
    relay.register_producer(StreamId::new(8), None);
    let mut actions = Vec::new();
    relay.client_attach(at(10), ClientId::new(1), stream, None, None, &mut actions);
    let busy = relay.footprint();
    assert_eq!(
        (busy.streams, busy.peers, busy.neighbors, busy.clients),
        (2, 2, 4, 1)
    );

    relay.crash_reset();
    assert_eq!(relay.footprint(), node(2, &[1, 3, 4]).footprint());
    assert_eq!(
        relay.footprint(),
        NodeFootprint {
            neighbors: 3,
            ..NodeFootprint::default()
        }
    );
    assert_eq!(relay.fib().total_subscriptions(), 0);
}

/// (d) With no client mid-switch, relaying a packet through a full cache
/// builds no switch burst: what one `on_datagram` allocates stays far
/// below the 2,048 cached packets a burst would clone.
///
/// `try_complete_switches` returns before it asks the cache anything when
/// `switch_waiters` is empty. The bound does not rest on that return:
/// while a client waits, the walk that finds where a burst would begin
/// borrows the cache and clones nothing, and the packets are copied only
/// for a switch that completes.
#[test]
fn relaying_through_a_full_cache_builds_no_switch_burst() {
    let stream = StreamId::new(7);
    let mut relay = node(2, &[1, 3]);
    subscribe_through(&mut relay, at(0), stream, 3, 1);
    let capacity = NodeConfig::new(n(2)).cache_packets as u16;
    // One packet per millisecond, an I frame every 50: several complete
    // GoPs are cached, so a switch burst could be assembled.
    let packet = |seq: u16| {
        let kind = if seq.is_multiple_of(50) {
            FrameKind::I
        } else {
            FrameKind::P
        };
        rtp(stream, seq, kind, at(u64::from(seq)))
    };
    for seq in 0..capacity + 100 {
        relay.on_datagram(at(u64::from(seq) + 10), n(1), packet(seq));
    }
    assert_eq!(
        relay.cache(stream).map(|c| c.len()),
        Some(usize::from(capacity))
    );

    for seq in capacity + 100..capacity + 150 {
        let datagram = packet(seq);
        let before = allocated();
        let actions = relay.on_datagram(at(u64::from(seq) + 10), n(1), datagram);
        let bytes = allocated() - before;
        assert!(!actions.is_empty(), "packet {seq} was not forwarded");
        assert!(
            bytes < 16_000,
            "on_datagram allocated {bytes} B for packet {seq}"
        );
    }
}
