//! Loopback integration for the fixed datapath: client feedback reaching
//! the core, oversized-datagram handling, detach cancelling timers, the
//! re-homed-peer address book, `NodeGone` on a dead handle, the validated
//! `TestbedConfig` surface, and the 50+ node geo-fleet smoke run.
//!
//! Everything binds 127.0.0.1:0 only.

use bytes::Bytes;
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeConfig, OverlayMsg};
use livenet_packet::{ReceiverReport, RtcpPacket};
use livenet_telemetry::ids;
use livenet_topology::GeoConfig;
use livenet_transport::{
    testbed, NodeCommand, NodeGone, SharedTelemetry, TestbedConfig, UdpOverlayNode, WallClock,
    WireNodeConfig, WireViewer,
};
use livenet_types::{Bandwidth, ClientId, Error, NodeId, SeqNo, SimDuration, Ssrc, StreamId};
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

/// The full acceptance loop, shortened: a 4-node diamond with two
/// feedback-sending viewers over real UDP. Client RTCP receiver reports
/// must reach the consumer core (cc decisions recorded), a synthetically
/// lossy viewer must drive the pacing rate down, and delivery must stay
/// ≥ 99% of broadcast frames.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn client_feedback_round_trip_drives_cc_over_udp() {
    let mut cfg = TestbedConfig {
        broadcast: Duration::from_millis(1600),
        drain: Duration::from_millis(700),
        rr_interval: Duration::from_millis(250),
        ..TestbedConfig::diamond(STREAM)
    };
    // Viewer 1 turns synthetically lossy after 800 ms.
    cfg.viewers[1].lossy_rr = Some((Duration::from_millis(800), 0.3));

    let report = testbed::run(cfg).await.expect("validated config runs");

    assert!(report.frames_broadcast >= 20, "broadcast too short: {}", report.frames_broadcast);
    for v in &report.viewers {
        assert!(v.rr_sent >= 2, "viewer {:?} sent only {} RRs", v.client, v.rr_sent);
        assert!(v.startup_ms.is_some(), "viewer {:?} never completed a frame", v.client);
    }
    let delivery = report.worst_delivery();
    assert!(delivery >= 0.99, "worst viewer delivered only {delivery:.3} of frames");

    // Feedback round-trip: the consumer core built sender-side cc state
    // for the clients and the lossy viewer forced decreases.
    let total = report.cc.increases + report.cc.holds + report.cc.decreases;
    assert!(total > 0, "no cc decisions recorded — client RTCP never reached the core");
    assert!(report.cc.decreases >= 1, "lossy client RRs drove no rate decrease: {:?}", report.cc);

    // And the decreased rate is visible on the lossy viewer's pacer.
    let lossy = report.viewers[1].client;
    let rate = report
        .client_rates
        .iter()
        .find(|(c, _)| *c == lossy)
        .and_then(|(_, r)| *r)
        .expect("lossy client still attached at shutdown");
    assert!(
        rate < Bandwidth::from_mbps(20),
        "rate never moved below the 20 Mbps initial: {rate:?}"
    );

    // The shared hub saw the wire datapath.
    assert!(report
        .telemetry
        .counters
        .iter()
        .any(|(k, v)| k == "transport.rx_datagrams" && *v > 0));
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
    let (h, _events, join) =
        UdpOverlayNode::spawn_wire(WireNodeConfig::new(config), local(), clock, telemetry.clone())
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
    assert!(counter(&telemetry, ids::TRANSPORT_RX_DATAGRAMS) >= 1, "node stopped dispatching");

    h.send(NodeCommand::Shutdown).await.expect("node alive");
    join.await.expect("join");
}

/// Detaching a client cancels its armed pacer timers: the stale keys are
/// skipped (and counted) instead of firing into the core.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn detach_cancels_client_timers() {
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
    let mut encoder = VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), clock.now());
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
    assert!(
        counter(&telemetry, ids::TRANSPORT_TIMERS_CANCELLED) >= 1,
        "no stale timer was cancelled after detach"
    );

    h.send(NodeCommand::Shutdown).await.expect("node alive");
    join.await.expect("join");
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
    viewer.send_to(&rr.encode(), h.addr).await.expect("send attached");
    tokio::time::sleep(Duration::from_millis(120)).await;
    assert_eq!(counter(&telemetry, ids::TRANSPORT_RX_DATAGRAMS), 1);

    h.send(NodeCommand::ClientDetach { client })
        .await
        .expect("node alive");
    viewer.send_to(&rr.encode(), h.addr).await.expect("send detached");
    tokio::time::sleep(Duration::from_millis(120)).await;
    assert_eq!(counter(&telemetry, ids::TRANSPORT_UNKNOWN_SOURCE_DROPS), 1);

    h.send(NodeCommand::Shutdown).await.expect("node alive");
    join.await.expect("join");
}

/// Every class of bad input surfaces as `Error::InvalidConfig` from
/// `validate()` or the preset — including the out-of-range viewer index
/// that used to panic deep inside `run`.
#[test]
fn builder_rejects_invalid_configs() {
    let diamond = || TestbedConfig::diamond(STREAM);
    let with_viewers = |viewers: Vec<WireViewer>| TestbedConfig { viewers, ..diamond() }.validate();
    let geo_fleet = |viewers, fanout| {
        TestbedConfig::geo_fleet(STREAM, &GeoConfig::tiny(1), viewers, fanout, 1).map(|_| ())
    };
    let cases: Vec<(&str, livenet_types::Result<()>)> = vec![
        (
            "viewer node out of range",
            with_viewers(vec![WireViewer::at(3), WireViewer::at(3), WireViewer::at(9)]),
        ),
        (
            "edge endpoint out of range",
            TestbedConfig {
                nodes: 2,
                edges: vec![(0, 5, SimDuration::from_millis(5))],
                ..TestbedConfig::new(STREAM)
            }
            .validate(),
        ),
        (
            "producer out of range",
            TestbedConfig { producer: 3, ..TestbedConfig::new(STREAM) }.validate(),
        ),
        ("no viewers", with_viewers(Vec::new())),
        (
            "bitrate above the uplink",
            TestbedConfig { bitrate: Bandwidth::from_mbps(10), ..diamond() }.validate(),
        ),
        ("geo fan-out of zero", geo_fleet(4, 0)),
        ("geo viewer count of zero", geo_fleet(0, 2)),
    ];
    for (what, result) in cases {
        match result {
            Err(Error::InvalidConfig(_)) => {}
            other => panic!("{what}: expected InvalidConfig, got {other:?}"),
        }
    }
}

/// `run` validates, so a corrupted config errors instead of panicking
/// mid-harness.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn run_rejects_corrupted_config() {
    let mut cfg = TestbedConfig::diamond(STREAM);
    cfg.validate().expect("valid");
    cfg.viewers[0].node = 99;
    match testbed::run(cfg).await {
        Err(Error::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// The tentpole smoke: a 50+ node geo fleet (region hubs in a full-mesh
/// core, workload-staggered viewers on country edge nodes) over real
/// loopback sockets, time-capped. Delivery must stay ≥ 99 % for every
/// viewer and each congested region must record at least one cc rate
/// decrease at its edge nodes.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn geo_fleet_smoke_fifty_nodes() {
    let geo = GeoConfig::paper_scale(7);
    let mut cfg = TestbedConfig {
        broadcast: Duration::from_secs(3),
        drain: Duration::from_millis(1200),
        ..TestbedConfig::geo_fleet(STREAM, &geo, 24, 2, 11).expect("geo fleet preset is valid")
    };
    assert!(cfg.nodes >= 50, "geo fleet too small: {} nodes", cfg.nodes);
    assert!(
        cfg.viewers.iter().any(|v| !v.join_after.is_zero()),
        "workload produced no staggered arrivals"
    );

    // Congest the two busiest viewer regions: every viewer there turns
    // synthetically lossy late in its session.
    let countries = cfg.countries.clone();
    let mut by_country = std::collections::BTreeMap::<u32, usize>::new();
    for v in &cfg.viewers {
        *by_country.entry(countries[v.node]).or_insert(0) += 1;
    }
    let mut ranked: Vec<(usize, u32)> =
        by_country.iter().map(|(&c, &n)| (n, c)).collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    let congested: Vec<u32> = ranked.iter().take(2).map(|&(_, c)| c).collect();
    for v in &mut cfg.viewers {
        if congested.contains(&countries[v.node]) {
            v.lossy_rr = Some((Duration::from_millis(900), 0.3));
        }
    }

    let report = testbed::run(cfg).await.expect("geo fleet runs");

    assert!(report.frames_broadcast >= 30, "broadcast too short: {}", report.frames_broadcast);
    for v in &report.viewers {
        assert!(
            v.startup_ms.is_some(),
            "viewer {:?} at node {:?} never completed a frame",
            v.client,
            v.node
        );
    }
    let delivery = report.worst_delivery();
    if delivery < 0.99 {
        for v in &report.viewers {
            if v.delivery() < 0.99 {
                panic!(
                    "viewer {:?} at node {:?}: delivered {}/{} (attach {:?}, \
                     startup {:?} ms, packets {})",
                    v.client, v.node, v.frames_completed, v.expected_frames,
                    v.attach_at, v.startup_ms, v.packets
                );
            }
        }
    }
    for &c in &congested {
        assert!(
            report.cc_decreases_in_country(c) >= 1,
            "congested country {c} recorded no cc decrease: {:?}",
            report.node_cc
        );
    }
    // The batched hot path actually engaged.
    assert!(report
        .telemetry
        .counters
        .iter()
        .any(|(k, v)| k == "transport.batch_rx_syscalls" && *v > 0));
    // Every datagram came from a peer or client the receiving node knows,
    // at the address it knows, and fit its receive slot.
    assert_eq!(report.telemetry.counter("transport.unknown_source_drops"), 0);
    assert_eq!(report.telemetry.counter("transport.recv_truncated"), 0);
}
