//! Loopback integration for the fixed datapath: oversized-datagram
//! handling, a detached client's timers going stale in the core, the
//! re-homed-peer address book, `NodeGone` on a dead handle, and a detached
//! client's feedback being dropped. The whole-overlay runs are `exp wire`'s
//! harness tests, in `livenet-bench`.
//!
//! Everything binds 127.0.0.1:0 only.

use bytes::Bytes;
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeConfig, OverlayMsg};
use livenet_packet::{ReceiverReport, RtcpPacket};
use livenet_telemetry::ids;
use livenet_transport::{
    NodeCommand, NodeGone, SharedTelemetry, UdpOverlayNode, WallClock, WireNodeConfig,
};
use livenet_types::{Bandwidth, ClientId, NodeId, SeqNo, SimDuration, Ssrc, StreamId};
use std::net::SocketAddr;
use std::time::Duration;
use tokio::net::UdpSocket;

const STREAM: StreamId = StreamId(77);

fn local() -> SocketAddr {
    "127.0.0.1:0".parse().expect("valid addr")
}

fn counter(telemetry: &SharedTelemetry, id: livenet_telemetry::MetricId) -> u64 {
    telemetry.with(|h| h.counter(id))
}

/// Datagrams larger than `NodeConfig::max_datagram_bytes` are dropped and
/// counted instead of being silently truncated and fed to the core; the
/// node keeps running.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn oversized_datagram_is_counted_and_dropped() {
    let clock = WallClock::new();
    let telemetry = SharedTelemetry::new();
    let mut config = NodeConfig::new(NodeId::new(1));
    config.max_datagram_bytes = 1024;
    let (h, _events, join) = UdpOverlayNode::spawn_wire(
        WireNodeConfig::new(config),
        local(),
        clock,
        telemetry.clone(),
    )
    .await
    .expect("bind");

    let peer = UdpSocket::bind(local()).await.expect("peer bind");
    h.send(NodeCommand::AddPeer {
        node: NodeId::new(2),
        addr: peer.local_addr().expect("addr"),
        rtt: SimDuration::from_millis(1),
    })
    .await
    .expect("node alive");

    // Oversized (> 1024 B after the kernel copy): dropped + counted.
    let big = vec![0u8; 4096];
    peer.send_to(&big, h.addr).await.expect("send big");
    // A normal keepalive still gets through afterwards.
    peer.send_to(&OverlayMsg::Keepalive.encode(), h.addr)
        .await
        .expect("send keepalive");
    tokio::time::sleep(Duration::from_millis(120)).await;

    assert_eq!(counter(&telemetry, ids::TRANSPORT_RECV_TRUNCATED), 1);
    assert!(
        counter(&telemetry, ids::TRANSPORT_RX_DATAGRAMS) >= 1,
        "node stopped dispatching"
    );

    h.send(NodeCommand::Shutdown).await.expect("node alive");
    join.await.expect("join");
}

/// Detaching a client leaves its armed pacer poll in the driver's
/// calendar: the deadline reaches the core, which finds no peer, does
/// nothing and counts the fire stale.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn detached_client_timers_go_stale_in_the_core() {
    let clock = WallClock::new();
    let telemetry = SharedTelemetry::new();
    let (h, _events, join) = UdpOverlayNode::spawn_wire(
        WireNodeConfig::new(NodeConfig::new(NodeId::new(1))),
        local(),
        clock,
        telemetry.clone(),
    )
    .await
    .expect("bind");
    h.send(NodeCommand::RegisterProducer {
        stream: STREAM,
        ladder: None,
    })
    .await
    .expect("node alive");

    // A slow client: the pacer backlogs immediately, arming poll timers.
    let viewer = UdpSocket::bind(local()).await.expect("viewer bind");
    let client = ClientId::new(5);
    h.send(NodeCommand::ClientAttach {
        client,
        stream: STREAM,
        downlink: Some(Bandwidth::from_kbps(200)),
        path: None,
        addr: viewer.local_addr().expect("addr"),
    })
    .await
    .expect("node alive");

    // Burst several frames in, then detach before the pacer drains.
    let mut encoder = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(2),
        clock.now(),
    );
    for _ in 0..10 {
        let frame = encoder.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.send(NodeCommand::Ingest { frame, payload })
            .await
            .expect("node alive");
    }
    h.send(NodeCommand::ClientDetach { client })
        .await
        .expect("node alive");

    // Let the stale deadlines come due.
    tokio::time::sleep(Duration::from_millis(400)).await;
    h.send(NodeCommand::Shutdown).await.expect("node alive");
    let core = join.await.expect("join");
    assert!(
        core.stats.stale_timers >= 1,
        "the detached client's poll never reached the core"
    );
}

/// `AddPeer` for a known node at a new address removes the stale reverse
/// mapping: datagrams from the old address no longer resolve to the peer.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn rehomed_peer_old_address_is_unknown() {
    let clock = WallClock::new();
    let telemetry = SharedTelemetry::new();
    let (h, _events, join) = UdpOverlayNode::spawn_wire(
        WireNodeConfig::new(NodeConfig::new(NodeId::new(1))),
        local(),
        clock,
        telemetry.clone(),
    )
    .await
    .expect("bind");

    let old_home = UdpSocket::bind(local()).await.expect("old bind");
    let new_home = UdpSocket::bind(local()).await.expect("new bind");
    for sock in [&old_home, &new_home] {
        h.send(NodeCommand::AddPeer {
            node: NodeId::new(2),
            addr: sock.local_addr().expect("addr"),
            rtt: SimDuration::from_millis(1),
        })
        .await
        .expect("node alive");
    }

    // From the re-homed address: dispatched. From the stale one: dropped.
    new_home
        .send_to(&OverlayMsg::Keepalive.encode(), h.addr)
        .await
        .expect("send new");
    old_home
        .send_to(&OverlayMsg::Keepalive.encode(), h.addr)
        .await
        .expect("send old");
    tokio::time::sleep(Duration::from_millis(120)).await;

    assert_eq!(counter(&telemetry, ids::TRANSPORT_RX_DATAGRAMS), 1);
    assert_eq!(counter(&telemetry, ids::TRANSPORT_UNKNOWN_SOURCE_DROPS), 1);

    h.send(NodeCommand::Shutdown).await.expect("node alive");
    join.await.expect("join");
}

/// A handle whose node task has exited reports `NodeGone` instead of
/// panicking.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn send_to_dead_node_returns_node_gone() {
    let clock = WallClock::new();
    let (h, _events, join) = UdpOverlayNode::spawn_wire(
        WireNodeConfig::new(NodeConfig::new(NodeId::new(1))),
        local(),
        clock,
        SharedTelemetry::new(),
    )
    .await
    .expect("bind");
    h.send(NodeCommand::Shutdown).await.expect("first send ok");
    join.await.expect("join");
    let err = h
        .send(NodeCommand::ClientDetach {
            client: ClientId::new(1),
        })
        .await;
    assert_eq!(err, Err(NodeGone));
}

/// Client RTCP from an address that was attached and then detached no
/// longer reaches the core (the address book forgets the client).
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn detached_client_feedback_is_dropped() {
    let clock = WallClock::new();
    let telemetry = SharedTelemetry::new();
    let (h, _events, join) = UdpOverlayNode::spawn_wire(
        WireNodeConfig::new(NodeConfig::new(NodeId::new(1))),
        local(),
        clock,
        telemetry.clone(),
    )
    .await
    .expect("bind");
    let viewer = UdpSocket::bind(local()).await.expect("viewer bind");
    let client = ClientId::new(3);
    h.send(NodeCommand::RegisterProducer {
        stream: STREAM,
        ladder: None,
    })
    .await
    .expect("node alive");
    h.send(NodeCommand::ClientAttach {
        client,
        stream: STREAM,
        downlink: None,
        path: None,
        addr: viewer.local_addr().expect("addr"),
    })
    .await
    .expect("node alive");

    let rr = OverlayMsg::Rtcp {
        stream: STREAM,
        packet: RtcpPacket::ReceiverReport(ReceiverReport {
            ssrc: Ssrc(1),
            loss_fraction: 0.0,
            highest_seq: SeqNo(1),
            jitter_us: 0,
        })
        .encode(),
    };
    viewer
        .send_to(&rr.encode(), h.addr)
        .await
        .expect("send attached");
    tokio::time::sleep(Duration::from_millis(120)).await;
    assert_eq!(counter(&telemetry, ids::TRANSPORT_RX_DATAGRAMS), 1);

    h.send(NodeCommand::ClientDetach { client })
        .await
        .expect("node alive");
    viewer
        .send_to(&rr.encode(), h.addr)
        .await
        .expect("send detached");
    tokio::time::sleep(Duration::from_millis(120)).await;
    assert_eq!(counter(&telemetry, ids::TRANSPORT_UNKNOWN_SOURCE_DROPS), 1);

    h.send(NodeCommand::Shutdown).await.expect("node alive");
    join.await.expect("join");
}
