//! Loopback integration: the same sans-I/O cores that run in the emulator
//! drive real UDP sockets through a 3-node chain A→B→C with a viewer.

use bytes::Bytes;
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeConfig, NodeEvent, OverlayMsg};
use livenet_packet::{Depacketizer, RtpPacket};
use livenet_transport::{
    NodeCommand, SharedTelemetry, UdpOverlayNode, WallClock, WireNodeConfig,
};
use livenet_types::{Bandwidth, ClientId, NodeId, SimDuration, StreamId};
use std::net::SocketAddr;
use tokio::net::UdpSocket;

const STREAM: StreamId = StreamId(7);

fn local() -> SocketAddr {
    "127.0.0.1:0".parse().expect("valid addr")
}

#[tokio::test]
async fn frames_flow_over_real_udp_chain() {
    let clock = WallClock::new();
    let ids = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
    let mut handles = Vec::new();
    let mut event_rxs = Vec::new();
    let mut joins = Vec::new();
    for &id in &ids {
        let (h, ev, join) = UdpOverlayNode::spawn_wire(
            WireNodeConfig::new(NodeConfig::new(id)),
            local(),
            clock,
            SharedTelemetry::new(),
        )
            .await
            .expect("bind");
        handles.push(h);
        event_rxs.push(ev);
        joins.push(join);
    }
    // Full peer wiring (chain neighbors suffice, but full mesh is fine).
    for a in 0..3 {
        for b in 0..3 {
            if a != b {
                handles[a]
                    .send(NodeCommand::AddPeer {
                        node: handles[b].id,
                        addr: handles[b].addr,
                        rtt: SimDuration::from_millis(1),
                    })
                    .await
            .expect("node alive");
            }
        }
    }
    // Producer at A.
    handles[0]
        .send(NodeCommand::RegisterProducer {
            stream: STREAM,
            ladder: None,
        })
        .await
            .expect("node alive");

    // A client socket attached at C.
    let client_sock = UdpSocket::bind(local()).await.expect("client bind");
    let client_addr = client_sock.local_addr().expect("addr");
    handles[2]
        .send(NodeCommand::ClientAttach {
            client: ClientId::new(9),
            stream: STREAM,
            downlink: Some(Bandwidth::from_mbps(50)),
            path: Some(vec![ids[0], ids[1], ids[2]]),
            addr: client_addr,
        })
        .await
        .expect("node alive");

    // Give the subscription a moment to establish over loopback.
    tokio::time::sleep(std::time::Duration::from_millis(150)).await;

    // Read the client socket CONCURRENTLY with ingest — a socket left
    // unread for the whole broadcast overflows its kernel buffer.
    let reader = tokio::spawn(async move {
        let mut depack = Depacketizer::new();
        let mut packets = 0u32;
        let mut frames = 0u32;
        let mut buf = vec![0u8; 2048];
        loop {
            let recv = tokio::time::timeout(
                std::time::Duration::from_millis(800),
                client_sock.recv_from(&mut buf),
            )
            .await;
            let Ok(Ok((len, _))) = recv else { break };
            let Ok(msg) = OverlayMsg::decode(Bytes::copy_from_slice(&buf[..len])) else {
                continue;
            };
            if let OverlayMsg::Rtp { packet, .. } = msg {
                if let Ok(rtp) = RtpPacket::decode(packet) {
                    packets += 1;
                    depack.push(rtp);
                    frames += depack.drain().len() as u32;
                }
            }
        }
        (packets, frames)
    });

    // Feed ~1.5 s of video through the producer in real time.
    let mut encoder = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(1),
        clock.now(),
    );
    for _ in 0..22 {
        let frame = encoder.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        handles[0]
            .send(NodeCommand::Ingest { frame, payload })
            .await
            .expect("node alive");
        tokio::time::sleep(std::time::Duration::from_millis(66)).await;
    }

    let (packets, frames) = reader.await.expect("reader");
    println!("packets={packets} frames={frames}");

    // The chain actually established through B (observe C's events).
    let mut established = false;
    while let Ok((_, e)) = event_rxs[2].try_recv() {
        if matches!(e, NodeEvent::SubscriptionEstablished { .. }) {
            established = true;
        }
    }
    assert!(established, "C never confirmed its upstream subscription");

    for h in &handles {
        h.send(NodeCommand::Shutdown).await
            .expect("node alive");
    }
    for (i, j) in joins.into_iter().enumerate() {
        let core = j.await.expect("join");
        println!(
            "node {i}: ingested={} forwarded={} dup={} nack_seqs={} nack_msgs={} rtx={}",
            core.stats.ingested, core.stats.forwarded, core.stats.duplicates,
            core.stats.nacks_sent, core.stats.nack_batches, core.stats.rtx_served,
        );
    }
    assert!(packets >= 20, "client received only {packets} RTP packets");
    assert!(frames >= 15, "client assembled only {frames} frames");
}

#[tokio::test]
async fn second_viewer_gets_local_hit_over_udp() {
    let clock = WallClock::new();
    let ids = [NodeId::new(1), NodeId::new(2)];
    let mut handles = Vec::new();
    let mut event_rxs = Vec::new();
    for &id in &ids {
        let (h, ev, _join) = UdpOverlayNode::spawn_wire(
            WireNodeConfig::new(NodeConfig::new(id)),
            local(),
            clock,
            SharedTelemetry::new(),
        )
            .await
            .expect("bind");
        handles.push(h);
        event_rxs.push(ev);
    }
    for a in 0..2 {
        let b = 1 - a;
        handles[a]
            .send(NodeCommand::AddPeer {
                node: handles[b].id,
                addr: handles[b].addr,
                rtt: SimDuration::from_millis(1),
            })
            .await
            .expect("node alive");
    }
    handles[0]
        .send(NodeCommand::RegisterProducer {
            stream: STREAM,
            ladder: None,
        })
        .await
            .expect("node alive");

    let c1 = UdpSocket::bind(local()).await.expect("bind");
    handles[1]
        .send(NodeCommand::ClientAttach {
            client: ClientId::new(1),
            stream: STREAM,
            downlink: Some(Bandwidth::from_mbps(50)),
            path: Some(vec![ids[0], ids[1]]),
            addr: c1.local_addr().expect("addr"),
        })
        .await
        .expect("node alive");
    tokio::time::sleep(std::time::Duration::from_millis(100)).await;

    // Stream a GoP so B's cache fills.
    let mut encoder = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(1),
        clock.now(),
    );
    for _ in 0..31 {
        let frame = encoder.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        handles[0]
            .send(NodeCommand::Ingest { frame, payload })
            .await
            .expect("node alive");
        tokio::time::sleep(std::time::Duration::from_millis(20)).await;
    }

    // Second viewer: must be a local hit with a startup burst.
    let c2 = UdpSocket::bind(local()).await.expect("bind");
    handles[1]
        .send(NodeCommand::ClientAttach {
            client: ClientId::new(2),
            stream: STREAM,
            downlink: Some(Bandwidth::from_mbps(50)),
            path: None,
            addr: c2.local_addr().expect("addr"),
        })
        .await
        .expect("node alive");
    tokio::time::sleep(std::time::Duration::from_millis(300)).await;

    let (mut hit, mut burst) = (false, false);
    while let Ok((_, e)) = event_rxs[1].try_recv() {
        match e {
            NodeEvent::CacheHit { .. } => hit = true,
            NodeEvent::StartupBurst { .. } => burst = true,
            _ => {}
        }
    }
    assert!(hit, "second viewer was not a local hit");
    assert!(burst, "no GoP-cache startup burst");

    // And the burst actually reached client 2's socket.
    let mut buf = vec![0u8; 2048];
    let got = tokio::time::timeout(
        std::time::Duration::from_millis(500),
        c2.recv_from(&mut buf),
    )
    .await;
    assert!(got.is_ok(), "client 2 received nothing");

    for h in &handles {
        h.send(NodeCommand::Shutdown).await
            .expect("node alive");
    }
}
