//! The same protocol cores over real UDP sockets (tokio driver).
//!
//! Spins up a 3-node overlay on loopback, streams 2 seconds of video
//! through it, and prints what a real client socket receives.
//!
//! ```sh
//! cargo run --release --example udp_overlay
//! ```

use bytes::Bytes;
use livenet::prelude::*;
use livenet::transport::{
    NodeCommand, SharedTelemetry, UdpOverlayNode, WallClock, WireNodeConfig,
};
use livenet::packet::Depacketizer;
use tokio::net::UdpSocket;

#[tokio::main(flavor = "multi_thread", worker_threads = 2)]
async fn main() -> std::io::Result<()> {
    let clock = WallClock::new();
    let stream = StreamId::new(7);
    let ids = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];

    // Spawn three overlay nodes on ephemeral loopback ports.
    let mut handles = Vec::new();
    for &id in &ids {
        let (h, _events, _join) =
            UdpOverlayNode::spawn_wire(
                WireNodeConfig::new(NodeConfig::new(id)),
                "127.0.0.1:0".parse().unwrap(),
                clock,
                SharedTelemetry::new(),
            )
            .await?;
        println!("node {id} listening on {}", h.addr);
        handles.push(h);
    }
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                handles[i]
                    .send(NodeCommand::AddPeer {
                        node: handles[j].id,
                        addr: handles[j].addr,
                        rtt: SimDuration::from_millis(1),
                    })
                    .await
            .expect("node alive");
            }
        }
    }
    handles[0]
        .send(NodeCommand::RegisterProducer {
            stream,
            ladder: Some(SimulcastLadder::taobao_default(stream)),
        })
        .await
        .expect("node alive");

    // A real client socket subscribes at node 3 via the path A→B→C.
    let client_sock = UdpSocket::bind("127.0.0.1:0").await?;
    println!("client listening on {}", client_sock.local_addr()?);
    handles[2]
        .send(NodeCommand::ClientAttach {
            client: ClientId::new(1),
            stream,
            downlink: Some(Bandwidth::from_mbps(50)),
            path: Some(ids.to_vec()),
            addr: client_sock.local_addr()?,
        })
        .await
        .expect("node alive");

    // Reader task: reassemble frames from the raw datagrams.
    let reader = tokio::spawn(async move {
        let mut depack = Depacketizer::new();
        let (mut packets, mut frames) = (0u32, 0u32);
        let mut buf = vec![0u8; 2048];
        while let Ok(Ok((len, _))) = tokio::time::timeout(
            std::time::Duration::from_millis(700),
            client_sock.recv_from(&mut buf),
        )
        .await
        {
            if let Ok(OverlayMsg::Rtp { packet, .. }) =
                OverlayMsg::decode(Bytes::copy_from_slice(&buf[..len]))
            {
                if let Ok(rtp) = RtpPacket::decode(packet) {
                    packets += 1;
                    depack.push(rtp);
                    frames += depack.drain().len() as u32;
                }
            }
        }
        (packets, frames)
    });

    // Broadcast 2 seconds of 15 fps video in real time.
    let mut encoder = VideoEncoder::new(
        stream,
        GopConfig::default(),
        Bandwidth::from_mbps(1),
        clock.now(),
    );
    for _ in 0..30 {
        let frame = encoder.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        handles[0].send(NodeCommand::Ingest { frame, payload }).await
            .expect("node alive");
        tokio::time::sleep(std::time::Duration::from_millis(66)).await;
    }

    let (packets, frames) = reader.await.expect("reader");
    println!("client received {packets} RTP datagrams, reassembled {frames} frames");
    for h in &handles {
        h.send(NodeCommand::Shutdown).await
            .expect("node alive");
    }
    Ok(())
}
