//! End-to-end tests of the overlay data plane on an in-process 3-node chain
//! (the paper's §3 example: A → B → C), with controllable per-link delay and
//! deterministic loss injection.

use bytes::Bytes;
use livenet_media::{FrameKind, GopConfig, VideoEncoder};
use livenet_node::{
    NodeAction, NodeConfig, NodeEvent, OverlayMsg, OverlayNode, Subscriber, TimerKind,
};
use livenet_packet::rtp::ssrc_for_stream;
use livenet_packet::{Depacketizer, MediaKind, Nack, Packetizer, RtcpPacket, RtpPacket, RtxMiss};
use livenet_types::{
    Bandwidth, ClientId, EventQueue, NodeId, SeqNo, SimDuration, SimTime, StreamId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Events flowing in the harness calendar.
enum Ev {
    Deliver {
        to: NodeId,
        from: NodeId,
        bytes: Bytes,
    },
    Timer {
        node: NodeId,
        key: u64,
    },
    ClientDeliver {
        client: ClientId,
        msg: OverlayMsg,
    },
}

/// A deterministic in-process driver for a set of overlay nodes.
struct Harness {
    nodes: BTreeMap<NodeId, OverlayNode>,
    queue: EventQueue<Ev>,
    link_delay: SimDuration,
    /// (from, to, nth-rtp-packet) triples to drop, counted per link.
    drop_rtp: Vec<(NodeId, NodeId, u64)>,
    /// Links on which every retransmission is dropped ("the network hates
    /// RTX"): models a link whose loss keeps eating the recovery traffic
    /// too, so the sender's own NACK retries never close its hole.
    drop_rtx: Vec<(NodeId, NodeId)>,
    rtp_sent: HashMap<(NodeId, NodeId), u64>,
    client_rx: HashMap<ClientId, Vec<OverlayMsg>>,
    events: Vec<(NodeId, NodeEvent)>,
    /// Frame reassembly of what the harness delivered, per (node, stream):
    /// the first delivery of each sequence number goes into the key's own
    /// depacketizer. Keyed by stream too, because a second stream may
    /// restart at timestamp 0.
    reassembly: BTreeMap<(NodeId, StreamId), (BTreeSet<u16>, Depacketizer)>,
    /// `(timestamp, delay field)` of each frame completed at a node, in
    /// completion order across its streams.
    frames: BTreeMap<NodeId, Vec<(u32, Option<SimDuration>)>>,
}

impl Harness {
    fn new(ids: &[u64], link_delay_ms: u64) -> Self {
        let mut nodes = BTreeMap::new();
        let mut queue = EventQueue::new();
        for &id in ids {
            let nid = NodeId::new(id);
            let mut node = OverlayNode::new(NodeConfig::new(nid));
            for &other in ids {
                if other != id {
                    node.set_neighbor_rtt(
                        NodeId::new(other),
                        SimDuration::from_millis(2 * link_delay_ms),
                    );
                }
            }
            for action in node.start(SimTime::ZERO) {
                if let NodeAction::SetTimer { at, key } = action {
                    queue.schedule(at, Ev::Timer { node: nid, key });
                }
            }
            nodes.insert(nid, node);
        }
        Harness {
            nodes,
            queue,
            link_delay: SimDuration::from_millis(link_delay_ms),
            drop_rtp: Vec::new(),
            drop_rtx: Vec::new(),
            rtp_sent: HashMap::new(),
            client_rx: HashMap::new(),
            events: Vec::new(),
            reassembly: BTreeMap::new(),
            frames: BTreeMap::new(),
        }
    }

    fn node(&self, id: u64) -> &OverlayNode {
        &self.nodes[&NodeId::new(id)]
    }

    fn apply(&mut self, from: NodeId, actions: Vec<NodeAction>) {
        let now = self.queue.now();
        for a in actions {
            match a {
                NodeAction::Send { to, msg } => match to {
                    Subscriber::Node(n) => {
                        // RTP loss injection by per-link packet index.
                        if matches!(msg, OverlayMsg::Rtp { .. }) {
                            let count = self.rtp_sent.entry((from, n)).or_insert(0);
                            let idx = *count;
                            *count += 1;
                            if self
                                .drop_rtp
                                .iter()
                                .any(|&(f, t, i)| f == from && t == n && i == idx)
                            {
                                continue; // dropped by "the network"
                            }
                            if matches!(
                                msg,
                                OverlayMsg::Rtp {
                                    retransmit: true,
                                    ..
                                }
                            ) && self.drop_rtx.iter().any(|&(f, t)| f == from && t == n)
                            {
                                continue; // recovery traffic eaten too
                            }
                        }
                        self.queue.schedule(
                            now + self.link_delay,
                            Ev::Deliver {
                                to: n,
                                from,
                                bytes: msg.encode(),
                            },
                        );
                    }
                    Subscriber::Client(c) => {
                        self.queue.schedule(
                            now + SimDuration::from_millis(1),
                            Ev::ClientDeliver { client: c, msg },
                        );
                    }
                },
                NodeAction::SetTimer { at, key } => {
                    self.queue.schedule(at, Ev::Timer { node: from, key });
                }
                NodeAction::Event(e) => self.events.push((from, e)),
            }
        }
    }

    fn run_until(&mut self, t: SimTime) {
        while let Some((_, ev)) = self.queue.pop_until(t) {
            match ev {
                Ev::Deliver { to, from, bytes } => {
                    let Some(node) = self.nodes.get_mut(&to) else {
                        continue;
                    };
                    if let Ok(OverlayMsg::Rtp { stream, packet, .. }) =
                        OverlayMsg::decode(bytes.clone())
                    {
                        let packet = RtpPacket::decode(packet).expect("RTP the node sent");
                        let (seen, depack) = self.reassembly.entry((to, stream)).or_default();
                        if seen.insert(packet.header.seq.0) {
                            depack.push(packet);
                            let frames = self.frames.entry(to).or_default();
                            frames.extend(
                                depack.drain().iter().map(|f| (f.timestamp, f.delay_field)),
                            );
                        }
                    }
                    let actions = node.on_datagram(self.queue.now(), from, bytes);
                    self.apply(to, actions);
                }
                Ev::Timer { node, key } => {
                    let Some(n) = self.nodes.get_mut(&node) else {
                        continue;
                    };
                    let actions = n.on_timer(self.queue.now(), key);
                    self.apply(node, actions);
                }
                Ev::ClientDeliver { client, msg } => {
                    self.client_rx.entry(client).or_default().push(msg);
                }
            }
        }
    }

    fn with_node(&mut self, id: u64, f: impl FnOnce(&mut OverlayNode, SimTime) -> Vec<NodeAction>) {
        let nid = NodeId::new(id);
        let now = self.queue.now();
        let actions = {
            let node = self.nodes.get_mut(&nid).expect("node");
            f(node, now)
        };
        self.apply(nid, actions);
    }

    /// `(timestamp, delay field)` of each frame the harness reassembled
    /// from what it delivered to node `id`.
    fn frames_at(&self, id: u64) -> &[(u32, Option<SimDuration>)] {
        self.frames.get(&NodeId::new(id)).map_or(&[], Vec::as_slice)
    }

    fn client_packets(&self, client: u64) -> usize {
        self.client_rx.get(&ClientId::new(client)).map_or(0, |v| {
            v.iter()
                .filter(|m| matches!(m, OverlayMsg::Rtp { .. }))
                .count()
        })
    }
}

const STREAM: StreamId = StreamId(7);

/// Build the A(1) → B(2) → C(3) chain with a client on C, producer on A,
/// and run the encoder for `secs` seconds.
fn run_chain(harness: &mut Harness, secs: u64) {
    harness.with_node(1, |n, _| {
        n.register_producer(STREAM, None);
        Vec::new()
    });
    // Client 9 attaches at C with path A → B → C.
    harness.with_node(3, |n, now| {
        let mut actions = Vec::new();
        n.client_attach(
            now,
            ClientId::new(9),
            STREAM,
            Some(Bandwidth::from_mbps(50)),
            Some(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)]),
            &mut actions,
        );
        actions
    });
    harness.run_until(SimTime::from_millis(200));

    // Feed encoder frames into the producer.
    let mut enc = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(2),
        SimTime::from_millis(200),
    );
    let end = SimTime::from_millis(200) + SimDuration::from_secs(secs);
    let mut next = enc.next_capture_time();
    while next < end {
        harness.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        harness.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    harness.run_until(end + SimDuration::from_secs(1));
}

#[test]
fn subscription_establishes_through_chain() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 1);
    // C's upstream is B; B's upstream is A.
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(2)));
    assert_eq!(h.node(2).upstream_of(STREAM), Some(NodeId::new(1)));
    assert!(h.node(1).is_producer(STREAM));
    // FIBs: A → {B}, B → {C}, C → {client 9}.
    assert_eq!(h.node(1).fib().subscriber_count(STREAM), 1);
    assert_eq!(h.node(2).fib().subscriber_count(STREAM), 1);
    assert_eq!(h.node(3).fib().subscriber_count(STREAM), 1);
    // Subscription events observed.
    assert!(h.events.iter().any(
        |(n, e)| *n == NodeId::new(3) && matches!(e, NodeEvent::SubscriptionEstablished { .. })
    ));
}

#[test]
fn client_receives_stream_through_chain() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 2);
    let got = h.client_packets(9);
    assert!(got > 50, "client got only {got} packets");
    // Every hop forwarded.
    assert!(h.node(1).stats.forwarded > 0);
    assert!(h.node(2).stats.forwarded > 0);
    assert!(h.node(3).stats.forwarded > 0);
}

#[test]
fn lost_packet_recovered_via_nack_from_upstream() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    // Drop the 20th RTP packet on A→B.
    h.drop_rtp.push((NodeId::new(1), NodeId::new(2), 20));
    run_chain(&mut h, 2);
    // B detected and recovered the hole (A retransmitted).
    let b = NodeId::new(2);
    assert!(
        h.events
            .iter()
            .any(|(n, e)| *n == b && matches!(e, NodeEvent::HoleRecovered { .. })),
        "B never recovered the hole"
    );
    assert!(h.node(1).stats.rtx_served >= 1, "A served no RTX");
    assert!(h.node(2).stats.nacks_sent >= 1, "B sent no NACK");
    // And the slow-path recovery is invisible to C: it sees a hole too
    // (fast path forwarded around the missing packet), NACKs B, and B
    // serves it from its recovered cache.
    let frames_at_c: usize = h.frames_at(3).len();
    assert!(frames_at_c > 20, "C assembled only {frames_at_c} frames");
}

#[test]
fn second_viewer_hits_cache_and_gets_startup_burst() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 2);
    let before = h.node(3).stats.local_hits;
    // A second client attaches at C: the stream is already there.
    h.with_node(3, |n, now| {
        let mut actions = Vec::new();
        n.client_attach(
            now,
            ClientId::new(10),
            STREAM,
            Some(Bandwidth::from_mbps(50)),
            None, // no path needed — local hit expected
            &mut actions,
        );
        actions
    });
    let t = h.queue.now() + SimDuration::from_millis(500);
    h.run_until(t);
    assert_eq!(h.node(3).stats.local_hits, before + 1);
    assert!(
        h.events.iter().any(|(n, e)| *n == NodeId::new(3)
            && matches!(
                e,
                NodeEvent::StartupBurst {
                    to: Subscriber::Client(c),
                    ..
                } if c.raw() == 10
            )),
        "no startup burst to the second client"
    );
    // The burst arrives promptly (fast startup), well before the next GoP.
    assert!(h.client_packets(10) > 0, "client 10 got nothing");
}

#[test]
fn relay_cache_hit_stops_backtracking() {
    // D(4) also subscribes via B: B already carries the stream → cache hit
    // at B; A's FIB must NOT gain a second subscriber.
    let mut h = Harness::new(&[1, 2, 3, 4], 10);
    run_chain(&mut h, 1);
    let a_subs_before = h.node(1).fib().subscriber_count(STREAM);
    h.with_node(4, |n, now| {
        let mut actions = Vec::new();
        n.client_attach(
            now,
            ClientId::new(11),
            STREAM,
            Some(Bandwidth::from_mbps(50)),
            Some(&[NodeId::new(1), NodeId::new(2), NodeId::new(4)]),
            &mut actions,
        );
        actions
    });
    let t = h.queue.now() + SimDuration::from_secs(1);
    h.run_until(t);
    assert_eq!(h.node(1).fib().subscriber_count(STREAM), a_subs_before);
    assert_eq!(h.node(4).upstream_of(STREAM), Some(NodeId::new(2)));
    assert!(h
        .events
        .iter()
        .any(|(n, e)| *n == NodeId::new(2) && matches!(e, NodeEvent::CacheHit { .. })));
    // B now fans out to C and D.
    assert_eq!(h.node(2).fib().subscriber_count(STREAM), 2);
}

#[test]
fn a_nodes_event_log_is_bounded_by_load_not_run_length() {
    // A lossless chain: after setup nothing happens that a driver must
    // act on, so a node emits no event per packet or per frame and a
    // longer run leaves the same number of events behind.
    let per_node = |secs| {
        let mut h = Harness::new(&[1, 2, 3], 10);
        run_chain(&mut h, secs);
        [1, 2, 3].map(|id| {
            h.events
                .iter()
                .filter(|(n, _)| *n == NodeId::new(id))
                .count()
        })
    };
    let (short, long) = (per_node(2), per_node(8));
    assert_eq!(short, long, "events at nodes 1-3 after 2 s and after 8 s");
}

#[test]
fn unsubscribe_tears_down_unused_branches() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 1);
    // Client leaves C; C should unsubscribe from B, B from A.
    h.with_node(3, |n, now| {
        let mut actions = Vec::new();
        n.client_detach(now, ClientId::new(9), &mut actions);
        actions
    });
    let t = h.queue.now() + SimDuration::from_millis(200);
    h.run_until(t);
    assert_eq!(h.node(3).upstream_of(STREAM), None);
    assert_eq!(h.node(2).upstream_of(STREAM), None);
    assert_eq!(h.node(1).fib().subscriber_count(STREAM), 0);
}

#[test]
fn delay_field_accumulates_across_hops() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 2);
    // Find I-frame delay fields assembled at C; they must exceed the sum of
    // per-hop processing (2 ms × hops) plus half-RTT increments.
    let max_delay = h
        .frames_at(3)
        .iter()
        .filter_map(|&(_, d)| d)
        .max()
        .unwrap_or(SimDuration::ZERO);
    // encoder 20ms + 2 hops × (2ms processing + 10ms half-RTT) = 44ms floor.
    assert!(
        max_delay >= SimDuration::from_millis(40),
        "delay field {max_delay} too small"
    );
}

#[test]
fn frame_dropping_kicks_in_on_constrained_client() {
    let mut h = Harness::new(&[1, 2, 3], 5);
    h.with_node(1, |n, _| {
        n.register_producer(STREAM, None);
        Vec::new()
    });
    // Client with a downlink far below the stream bitrate.
    h.with_node(3, |n, now| {
        let mut actions = Vec::new();
        n.client_attach(
            now,
            ClientId::new(9),
            STREAM,
            Some(Bandwidth::from_kbps(300)), // 2 Mbps stream → heavy backlog
            Some(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)]),
            &mut actions,
        );
        actions
    });
    h.run_until(SimTime::from_millis(200));
    let mut enc = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(2),
        SimTime::from_millis(200),
    );
    let end = SimTime::from_secs(6);
    let mut next = enc.next_capture_time();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));
    let ctl = h.node(3).client(ClientId::new(9)).unwrap();
    let s = ctl.stats;
    assert!(
        s.dropped_bunref + s.dropped_b + s.dropped_p + s.dropped_gop > 0,
        "no frames dropped despite 300 kbps downlink: {s:?}"
    );
    // Unreferenced B frames go first: they must dominate early drops.
    assert!(s.dropped_bunref > 0);
}

#[test]
fn costream_switch_is_seamless() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 2);
    // A co-broadcast stream starts at A.
    let co = StreamId::new(77);
    h.with_node(1, |n, _| {
        n.register_producer(co, None);
        Vec::new()
    });
    // Consumer C initiates the switch on the client's behalf.
    h.with_node(3, |n, now| {
        let mut actions = Vec::new();
        n.begin_costream_switch(
            now,
            ClientId::new(9),
            co,
            Some(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)]),
            &mut actions,
        );
        actions
    });
    // Feed frames of the co-stream until its first GoP lands at C.
    let start = h.queue.now();
    let mut enc = VideoEncoder::new(co, GopConfig::default(), Bandwidth::from_mbps(2), start);
    let end = start + SimDuration::from_secs(4);
    let mut next = enc.next_capture_time();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));
    let at_c: Vec<&NodeEvent> = h
        .events
        .iter()
        .filter(|(n, _)| *n == NodeId::new(3))
        .map(|(_, e)| e)
        .collect();
    let flip = at_c
        .iter()
        .position(|e| matches!(e, NodeEvent::SwitchCompleted { to, .. } if *to == co))
        .expect("switch never completed");
    // The flip is followed at once by the switch burst, to the client, on
    // the new stream: the longest cached run holding two I-frame starts,
    // which is 437 packets on this script.
    match at_c.get(flip + 1) {
        Some(NodeEvent::StartupBurst {
            stream,
            to,
            packets,
        }) => {
            assert_eq!((*stream, *to), (co, Subscriber::Client(ClientId::new(9))));
            assert_eq!(*packets, 437, "switch burst size");
        }
        other => panic!("no burst after the flip: {other:?}"),
    }
    let ctl = h.node(3).client(ClientId::new(9)).unwrap();
    assert_eq!(ctl.stream, co);
    assert_eq!(ctl.stats.switches, 1);
}

/// The event that follows the first `SwitchCompleted` for `client` in
/// `actions`; `None` when the client did not flip.
fn after_flip(actions: &[NodeAction], client: u64) -> Option<Option<&NodeEvent>> {
    let mut events = actions.iter().filter_map(|a| match a {
        NodeAction::Event(e) => Some(e),
        _ => None,
    });
    events.find(
        |e| matches!(e, NodeEvent::SwitchCompleted { client: c, .. } if *c == ClientId::new(client)),
    )?;
    Some(events.next())
}

#[test]
fn costream_switch_at_the_producer_completes_on_ingest() {
    // The client watches at the producer node A(1) itself, so the
    // co-stream's packets enter the cache through `ingest_frame`, not
    // `on_datagram`.
    let mut h = Harness::new(&[1], 10);
    let attach = |h: &mut Harness, client: u64| {
        h.with_node(1, |n, now| {
            let mut actions = Vec::new();
            n.client_attach(now, ClientId::new(client), STREAM, None, None, &mut actions);
            actions
        });
    };
    h.with_node(1, |n, _| {
        n.register_producer(STREAM, None);
        Vec::new()
    });
    attach(&mut h, 9);
    let co = StreamId::new(77);
    h.with_node(1, |n, _| {
        n.register_producer(co, None);
        Vec::new()
    });
    // The switch begins before any packet of the co-stream is cached.
    h.with_node(1, |n, now| {
        let mut actions = Vec::new();
        n.begin_costream_switch(now, ClientId::new(9), co, None, &mut actions);
        assert!(
            after_flip(&actions, 9).is_none(),
            "flipped with nothing cached"
        );
        actions
    });

    let start = h.queue.now();
    let mut enc = VideoEncoder::new(co, GopConfig::default(), Bandwidth::from_mbps(2), start);
    let mut i_frames = 0;
    loop {
        h.run_until(enc.next_capture_time());
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        if frame.kind == FrameKind::I {
            i_frames += 1;
        }
        let cached = h.node(1).cache(co).map_or(0, |c| c.len());
        let now = h.queue.now();
        let actions = h
            .nodes
            .get_mut(&NodeId::new(1))
            .unwrap()
            .ingest_frame(now, &frame, &payload);
        let Some(next) = after_flip(&actions, 9) else {
            assert!(i_frames < 2, "no flip once two I-frame starts are cached");
            h.apply(NodeId::new(1), actions);
            continue;
        };
        // The flip comes with the frame that caches the second I-frame
        // start, and the burst follows it at once: every packet cached
        // before that frame, plus its first.
        assert_eq!(i_frames, 2, "flipped before a complete GoP was cached");
        match next {
            Some(NodeEvent::StartupBurst {
                stream,
                to,
                packets,
            }) => {
                assert_eq!((*stream, *to), (co, Subscriber::Client(ClientId::new(9))));
                assert_eq!(*packets, cached + 1, "switch burst size");
            }
            other => panic!("no burst after the flip: {other:?}"),
        }
        break;
    }
    assert_eq!(h.node(1).client(ClientId::new(9)).unwrap().stream, co);

    // A second client asking for the same switch now has a complete GoP
    // cached: it flips inside `begin_costream_switch`.
    attach(&mut h, 10);
    let now = h.queue.now();
    let mut actions = Vec::new();
    h.nodes
        .get_mut(&NodeId::new(1))
        .unwrap()
        .begin_costream_switch(now, ClientId::new(10), co, None, &mut actions);
    match after_flip(&actions, 10) {
        Some(Some(NodeEvent::StartupBurst { stream, to, .. })) => {
            assert_eq!((*stream, *to), (co, Subscriber::Client(ClientId::new(10))));
        }
        other => panic!("the second switch did not complete at once: {other:?}"),
    }
    let ctl = h.node(1).client(ClientId::new(10)).unwrap();
    assert_eq!((ctl.stream, ctl.stats.switches), (co, 1));
}

#[test]
fn mid_stream_path_switch_is_make_before_break() {
    // A(1) → B(2) → C(3) serving a client; D(4) offers an alternative
    // relay. C switches its path to A → D → C mid-stream (§7.1): the old
    // branch keeps feeding until the new one confirms, then B is released.
    let mut h = Harness::new(&[1, 2, 3, 4], 10);
    run_chain(&mut h, 2);
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(2)));
    let frames_before: usize = h.frames_at(3).len();

    // Switch C onto A → D → C.
    h.with_node(3, |n, now| {
        n.switch_path(
            now,
            STREAM,
            &[NodeId::new(1), NodeId::new(4), NodeId::new(3)],
        )
    });

    // Continue streaming for 2 more seconds.
    let start = h.queue.now();
    let mut enc = VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), start);
    // Skip the encoder to fresh frame indices (timestamps don't collide
    // with the earlier run because sequence state lives in the producer).
    let end = start + SimDuration::from_secs(2);
    let mut next = enc.next_capture_time();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));

    // New upstream is D; B no longer carries the stream.
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(4)));
    assert_eq!(h.node(4).upstream_of(STREAM), Some(NodeId::new(1)));
    assert_eq!(
        h.node(2).fib().subscriber_count(STREAM),
        0,
        "B should have been released"
    );
    assert_eq!(
        h.node(2).upstream_of(STREAM),
        None,
        "B should unsubscribe from A"
    );
    // A now feeds D only.
    assert_eq!(h.node(1).fib().subscriber_count(STREAM), 1);

    // Frames kept flowing to C across the switch.
    let frames_after: usize = h.frames_at(3).len();
    assert!(
        frames_after > frames_before + 20,
        "stream starved across the switch: {frames_before} → {frames_after}"
    );
}

#[test]
fn switch_path_to_same_next_hop_is_noop() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 1);
    let before = h.node(3).upstream_of(STREAM);
    h.with_node(3, |n, now| {
        n.switch_path(
            now,
            STREAM,
            &[NodeId::new(1), NodeId::new(2), NodeId::new(3)],
        )
    });
    h.run_until(h.queue.now() + SimDuration::from_millis(500));
    assert_eq!(h.node(3).upstream_of(STREAM), before);
    assert_eq!(h.node(2).fib().subscriber_count(STREAM), 1);
}

#[test]
fn relay_failure_recovered_by_path_switch() {
    // B dies mid-stream; the consumer re-routes through D and the stream
    // resumes (the failure-circumvention flexibility of §7.2).
    let mut h = Harness::new(&[1, 2, 3, 4], 10);
    run_chain(&mut h, 1);
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(2)));

    // Kill B: the harness drops all events addressed to it.
    h.nodes.remove(&NodeId::new(2));

    // Keep streaming for a second: C starves (B is gone).
    let start = h.queue.now();
    let mut enc = VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), start);
    let feed = |h: &mut Harness, enc: &mut VideoEncoder, until: SimTime| {
        let mut next = enc.next_capture_time();
        while next < until {
            h.run_until(next);
            let frame = enc.next_frame();
            let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
            h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
            next = enc.next_capture_time();
        }
        h.run_until(until);
    };
    feed(&mut h, &mut enc, start + SimDuration::from_secs(1));
    let starved: usize = h.frames_at(3).len();

    // The consumer detects the dead path (driver-side health check) and
    // switches to A → D → C.
    h.with_node(3, |n, now| {
        n.switch_path(
            now,
            STREAM,
            &[NodeId::new(1), NodeId::new(4), NodeId::new(3)],
        )
    });
    feed(&mut h, &mut enc, start + SimDuration::from_secs(3));

    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(4)));
    let recovered: usize = h.frames_at(3).len();
    assert!(
        recovered > starved + 20,
        "stream did not resume after the relay died: {starved} → {recovered}"
    );
}

#[test]
fn upstream_death_fast_failover_via_cached_backup_path() {
    // B dies mid-stream. C's liveness check notices the RTCP silence,
    // declares B dead, and autonomously re-subscribes along the cached
    // backup path A → D → C — no Brain round trip (§7.1 fast recovery).
    let mut h = Harness::new(&[1, 2, 3, 4], 10);
    run_chain(&mut h, 1);
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(2)));
    h.with_node(3, |n, _| {
        n.install_paths(
            STREAM,
            &[vec![NodeId::new(1), NodeId::new(4), NodeId::new(3)]],
        );
        Vec::new()
    });

    // Kill B: the harness drops all events addressed to it.
    h.nodes.remove(&NodeId::new(2));

    // Keep the encoder running well past the upstream timeout.
    let start = h.queue.now();
    let mut enc = VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), start);
    let end = start + SimDuration::from_secs(6);
    let mut next = enc.next_capture_time();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));

    // C declared B dead and failed over to D without driver involvement.
    assert!(
        h.events.iter().any(|(n, e)| *n == NodeId::new(3)
            && matches!(
                e,
                NodeEvent::UpstreamDead { upstream, .. } if upstream.raw() == 2
            )),
        "C never declared B dead"
    );
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(4)));
    assert_eq!(h.node(4).upstream_of(STREAM), Some(NodeId::new(1)));
    assert_eq!(h.node(3).stats.upstream_failovers, 1);
    // No Brain request was needed: the cached backup covered it.
    assert!(
        !h.events
            .iter()
            .any(|(_, e)| matches!(e, NodeEvent::PathRequestNeeded { .. })),
        "fast path should not have asked for a new path"
    );
}

#[test]
fn upstream_death_without_backup_requests_brain_path() {
    // Same failure, but no alternate path is cached (the only cached path
    // runs through the dead node): the node surfaces PathRequestNeeded —
    // the driver must fetch a fresh path from the Brain (slow recovery).
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 1);
    h.nodes.remove(&NodeId::new(2));

    let start = h.queue.now();
    let mut enc = VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), start);
    let end = start + SimDuration::from_secs(6);
    let mut next = enc.next_capture_time();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));

    assert!(h
        .events
        .iter()
        .any(|(n, e)| *n == NodeId::new(3) && matches!(e, NodeEvent::UpstreamDead { .. })));
    assert!(
        h.events.iter().any(|(n, e)| *n == NodeId::new(3)
            && matches!(
                e,
                NodeEvent::PathRequestNeeded { dead, .. } if dead.raw() == 2
            )),
        "C never asked for a fresh path"
    );
    // The stream stays down until the driver supplies one.
    assert_eq!(h.node(3).upstream_of(STREAM), None);
}

#[test]
fn healthy_idle_upstream_is_not_declared_dead() {
    // The producer stops sending media but B and C stay alive: periodic
    // receiver reports keep flowing (which count as liveness), so silence
    // of the MEDIA alone must not trip failover... except RR stops too
    // when no packets ever arrive. Instead we verify the steady case: a
    // live chain never produces failovers.
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 4);
    assert_eq!(h.node(3).stats.upstream_failovers, 0);
    assert_eq!(h.node(2).stats.upstream_failovers, 0);
    assert!(h
        .events
        .iter()
        .all(|(_, e)| !matches!(e, NodeEvent::UpstreamDead { .. })));
}

#[test]
fn crash_reset_clears_volatile_state() {
    let mut h = Harness::new(&[1, 2, 3], 10);
    run_chain(&mut h, 1);
    h.with_node(2, |n, _| {
        n.crash_reset();
        Vec::new()
    });
    let b = h.node(2);
    assert_eq!(b.upstream_of(STREAM), None);
    assert_eq!(b.fib().subscriber_count(STREAM), 0);
    assert!(b.cache(STREAM).is_none());
    assert!(!b.is_producer(STREAM));
}

#[test]
fn broadcaster_mobility_rehomes_producer() {
    // The broadcaster moves: the new producer is D(4); the old producer
    // A(1) demotes to a relay and subscribes to D (§7.1), so C's existing
    // path A→B→C keeps delivering without resubscription.
    let mut h = Harness::new(&[1, 2, 3, 4], 10);
    run_chain(&mut h, 1);

    // The broadcaster re-homes to D; D becomes the producer, continuing
    // the sequence space from the handover state (A's next seq).
    let handover_seq = {
        let a = h.node(1);
        a.producer_next_seq(STREAM).expect("A was the producer")
    };
    h.with_node(4, |n, _| {
        n.register_producer_continuation(STREAM, None, handover_seq);
        Vec::new()
    });
    // The Brain instructs the OLD producer to subscribe to the new one
    // along D → A (what its path lookup returns).
    h.with_node(1, |n, now| {
        n.demote_to_relay(now, STREAM, &[NodeId::new(4), NodeId::new(1)])
    });

    // The (moved) broadcaster now uploads at D; continue the stream there.
    let start = h.queue.now();
    let mut enc = VideoEncoder::new(STREAM, GopConfig::default(), Bandwidth::from_mbps(2), start);
    let end = start + SimDuration::from_secs(2);
    let mut next = enc.next_capture_time();
    let frames_before: usize = h.frames_at(3).len();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(4, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));

    // A is now a relay: not a producer, upstream = D.
    assert!(!h.node(1).is_producer(STREAM));
    assert_eq!(h.node(1).upstream_of(STREAM), Some(NodeId::new(4)));
    // C never changed its subscription, yet keeps assembling frames.
    assert_eq!(h.node(3).upstream_of(STREAM), Some(NodeId::new(2)));
    let frames_after: usize = h.frames_at(3).len();
    assert!(
        frames_after > frames_before + 20,
        "stream did not survive the producer move: {frames_before} → {frames_after}"
    );
}

// ----------------------------------------------------------------------
// Multi-supplier RTX and pending-RTX lifecycle
// ----------------------------------------------------------------------

/// One encoded RTP overlay datagram (single small packet) with the given
/// sequence number, for direct-driving a node without the harness.
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
fn cache_miss_is_recovered_from_alternate_supplier() {
    // Diamond: A(1) feeds B(2) and D(4); C(3) subscribes via B with
    // A → D → C installed as a backup path. One packet is lost on A→B and
    // every retransmission on A→B dies too, so B can never serve C's NACK
    // (cache miss) nor close its own hole. B must answer with an RTX-miss
    // and C must immediately chase D — which is warm thanks to its own
    // viewer — instead of waiting out B's parked recovery.
    let mut h = Harness::new(&[1, 2, 3, 4], 10);
    h.drop_rtp.push((NodeId::new(1), NodeId::new(2), 20));
    h.drop_rtx.push((NodeId::new(1), NodeId::new(2)));
    h.with_node(1, |n, _| {
        n.register_producer(STREAM, None);
        Vec::new()
    });
    // A viewer at D keeps the alternate supplier's cache warm.
    h.with_node(4, |n, now| {
        let mut actions = Vec::new();
        n.client_attach(
            now,
            ClientId::new(12),
            STREAM,
            Some(Bandwidth::from_mbps(50)),
            Some(&[NodeId::new(1), NodeId::new(4)]),
            &mut actions,
        );
        actions
    });
    h.with_node(3, |n, now| {
        let mut actions = Vec::new();
        n.client_attach(
            now,
            ClientId::new(9),
            STREAM,
            Some(Bandwidth::from_mbps(50)),
            Some(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)]),
            &mut actions,
        );
        n.install_paths(
            STREAM,
            &[vec![NodeId::new(1), NodeId::new(4), NodeId::new(3)]],
        );
        actions
    });
    h.run_until(SimTime::from_millis(200));
    let mut enc = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(2),
        SimTime::from_millis(200),
    );
    let end = SimTime::from_millis(200) + SimDuration::from_secs(3);
    let mut next = enc.next_capture_time();
    while next < end {
        h.run_until(next);
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        h.with_node(1, |n, now| n.ingest_frame(now, &frame, &payload));
        next = enc.next_capture_time();
    }
    h.run_until(end + SimDuration::from_secs(1));

    // B missed the cache and said so instead of silently parking.
    assert!(h.node(2).stats.rtx_unavailable >= 1, "B never cache-missed");
    // C chased the alternate and the hole closed from D's retransmission.
    let c = h.node(3);
    assert!(
        c.stats.rtx_alternate_requests >= 1,
        "C never re-NACKed an alternate supplier"
    );
    assert!(
        c.stats.rtx_alternate_recovered >= 1,
        "no hole closed by the alternate: {:?}",
        c.stats
    );
    assert!(h.node(4).stats.rtx_served >= 1, "D served no RTX");
    assert!(
        h.events.iter().any(|(n, e)| *n == NodeId::new(3)
            && matches!(
                e,
                NodeEvent::HoleRecovered {
                    alternate: true,
                    ..
                }
            )),
        "no alternate-supplier recovery event at C"
    );
    // B's parked waiter for C could never be served: the TTL sweep must
    // have evicted it rather than leaving it until stream teardown.
    assert!(
        h.node(2).stats.rtx_pending_expired >= 1,
        "B's dead parked waiter was never swept"
    );
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
