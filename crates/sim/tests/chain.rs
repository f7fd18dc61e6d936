//! The overlay data plane end to end on the emulator: the paper's §3
//! example chain (A → B → C) and the §6.5 diamond (A → B → C with the
//! backup relay D), stepped with `Scenario::start` so a test can look at
//! and act on a node mid-stream. Node 1 is A, the producer; the first
//! viewer is client 1.

use bytes::Bytes;
use livenet_emu::{LinkConfig, LossModel};
use livenet_media::{FrameKind, GopConfig, VideoEncoder};
use livenet_node::{NodeAction, NodeEvent, OverlayMsg, Subscriber};
use livenet_sim::{Scenario, ScenarioRun, Viewer, COSTREAM, SCENARIO_STREAM};
use livenet_types::{Bandwidth, ClientId, NodeId, SimDuration, SimTime, StreamId};

const STREAM: StreamId = SCENARIO_STREAM;
/// The first viewer's client.
const VIEWER: ClientId = ClientId::new(1);

fn n(id: u64) -> NodeId {
    NodeId::new(id)
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// The lossless A → B → C chain broadcasting `secs` seconds: frames are
/// captured from 50 ms to `50 ms + secs`, and the viewer, waiting at C
/// before the first frame, joins over `A → B → C`.
fn chain(secs: u64) -> Scenario {
    let mut sc = Scenario::chain(2, LossModel::None, 1);
    sc.duration = SimDuration::from_secs(secs);
    sc.viewers[0].join_at = SimTime::ZERO;
    sc
}

/// The 10 ms diamond A(1), B(2), C(3), D(4), broadcasting `secs` seconds,
/// with the viewer at C on `A → B → C` and, when `backup`, `A → D → C`
/// cached at C.
fn diamond(secs: u64, backup: bool) -> Scenario {
    let mut sc = Scenario::diamond(LinkConfig::backbone(SimDuration::from_millis(10)), 1);
    sc.duration = SimDuration::from_secs(secs);
    if !backup {
        sc.viewers[0].backups.clear();
    }
    sc
}

/// Frames the first viewer completed by `t`.
fn frames_by(run: &ScenarioRun, t: SimTime) -> usize {
    run.viewers[0]
        .frames
        .iter()
        .filter(|&&(at, _, _)| at <= t)
        .count()
}

/// A predicate for `drop_outbound` that drops the `nth` (from 0) RTP
/// packet sent to `to` and, when `every_rtx`, every retransmission to it.
fn drop_rtp_to(
    to: NodeId,
    nth: u64,
    every_rtx: bool,
) -> impl FnMut(Subscriber, &OverlayMsg) -> bool {
    let mut sent = 0u64;
    move |dest, msg| {
        let OverlayMsg::Rtp { retransmit, .. } = msg else {
            return false;
        };
        if dest != Subscriber::Node(to) {
            return false;
        }
        sent += 1;
        sent - 1 == nth || (every_rtx && *retransmit)
    }
}

#[test]
fn subscription_establishes_through_chain() {
    let sc = chain(1);
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(2050));
    // C's upstream is B; B's upstream is A.
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(2)));
    assert_eq!(sim.node(n(2)).upstream_of(STREAM), Some(n(1)));
    assert!(sim.node(n(1)).is_producer(STREAM));
    // FIBs: A → {B}, B → {C}, C → {the viewer}.
    for id in 1..=3 {
        assert_eq!(sim.node(n(id)).fib().subscriber_count(STREAM), 1);
    }
    // Subscription events observed.
    let run = sim.finish();
    assert!(run
        .first_event(n(3), |e| matches!(
            e,
            NodeEvent::SubscriptionEstablished { .. }
        ))
        .is_some());
}

#[test]
fn client_receives_stream_through_chain() {
    let run = Scenario::chain(2, LossModel::Bernoulli { p: 0.0 }, 1)
        .run()
        .unwrap();
    assert_eq!(run.viewers.len(), 1);
    let got = run.viewers[0].packets;
    assert!(got > 50, "client got only {got} packets");
    // Every hop forwarded.
    for node in &run.nodes {
        assert!(
            node.stats.forwarded > 0,
            "node {} forwarded nothing",
            node.id
        );
    }
    // And the view was smooth: fast startup, no stall, no hole to recover.
    let qoe = run.viewers[0].qoe;
    assert!(qoe.fast_startup(), "startup {:?}", qoe.startup);
    assert_eq!(qoe.stalls, 0);
    assert!(qoe.frames_rendered > 100, "{}", qoe.frames_rendered);
    assert!(run.recovery_latencies_ms().is_empty());
}

#[test]
fn lost_packet_recovered_via_nack_from_upstream() {
    let sc = chain(2);
    let mut sim = sc.start().unwrap();
    // Drop the 20th RTP packet on A→B.
    sim.drop_outbound(n(1), drop_rtp_to(n(2), 20, false));
    let run = sim.finish();
    // B detected and recovered the hole (A retransmitted).
    assert!(
        run.first_event(n(2), |e| matches!(e, NodeEvent::HoleRecovered { .. }))
            .is_some(),
        "B never recovered the hole"
    );
    assert!(run.nodes[0].stats.rtx_served >= 1, "A served no RTX");
    assert!(run.nodes[1].stats.nacks_sent >= 1, "B sent no NACK");
    // And the slow-path recovery is invisible to C: it sees a hole too
    // (fast path forwarded around the missing packet), NACKs B, and B
    // serves it from its recovered cache.
    let frames_at_c = run.viewers[0].frames.len();
    assert!(frames_at_c > 20, "C delivered only {frames_at_c} frames");
}

#[test]
fn second_viewer_hits_cache_and_gets_startup_burst() {
    let mut sc = Scenario::chain(2, LossModel::Bernoulli { p: 0.0 }, 3);
    // A second viewer joins at C 6 s in: the stream is already there, so
    // startup is served from the GoP cache burst.
    sc.viewers.push(Viewer {
        join_at: SimTime::from_secs(6),
        ..sc.viewers[0].clone()
    });
    let second = ClientId::new(2);
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(5999));
    let before = sim.node(n(3)).stats.local_hits;
    sim.run_until(ms(6500));
    assert_eq!(sim.node(n(3)).stats.local_hits, before + 1);

    let run = sim.finish();
    assert_eq!(run.viewers.len(), 2);
    assert!(
        run.first_event(n(3), |e| matches!(
            e,
            NodeEvent::StartupBurst {
                to: Subscriber::Client(c),
                ..
            } if *c == second
        ))
        .is_some(),
        "no startup burst to the second client"
    );
    let bursts = run
        .nodes
        .iter()
        .flat_map(|n| &n.events)
        .filter(|(_, e)| matches!(e, NodeEvent::StartupBurst { .. }))
        .count();
    assert!(bursts >= 1);
    // The burst arrives promptly (fast startup), well before the next GoP.
    let late = &run.viewers[1];
    assert!(late.packets > 0, "the second client got nothing");
    assert!(
        late.qoe.fast_startup(),
        "late joiner startup {:?}",
        late.qoe.startup
    );
    // The burst makes startup much faster than one full GoP (2 s).
    assert!(late.qoe.startup.unwrap() < SimDuration::from_millis(800));
}

#[test]
fn relay_cache_hit_stops_backtracking() {
    // D(4) also subscribes via B: B already carries the stream → cache hit
    // at B; A's FIB must NOT gain a second subscriber.
    let mut sc = chain(2);
    sc.nodes.push(n(4));
    sc.links.push((
        n(2),
        n(4),
        LinkConfig::backbone(SimDuration::from_millis(10)),
    ));
    sc.viewers.push(Viewer {
        path: vec![n(1), n(2), n(4)],
        join_at: ms(1050),
        ..sc.viewers[0].clone()
    });
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(1049));
    let a_subs_before = sim.node(n(1)).fib().subscriber_count(STREAM);
    sim.run_until(ms(2050));
    assert_eq!(sim.node(n(1)).fib().subscriber_count(STREAM), a_subs_before);
    assert_eq!(sim.node(n(4)).upstream_of(STREAM), Some(n(2)));
    // B now fans out to C and D.
    assert_eq!(sim.node(n(2)).fib().subscriber_count(STREAM), 2);
    let run = sim.finish();
    assert!(run
        .first_event(n(2), |e| matches!(e, NodeEvent::CacheHit { .. }))
        .is_some());
}

#[test]
fn a_nodes_event_log_is_bounded_by_load_not_run_length() {
    // A lossless chain: after setup nothing happens that a driver must
    // act on, so a node emits no event per packet or per frame and a
    // longer run leaves the same number of events behind.
    let per_node = |secs| {
        let run = chain(secs).run().unwrap();
        run.nodes.iter().map(|n| n.events.len()).collect::<Vec<_>>()
    };
    let (short, long) = (per_node(2), per_node(8));
    assert_eq!(short, long, "events at nodes 1-3 after 2 s and after 8 s");
}

#[test]
fn unsubscribe_tears_down_unused_branches() {
    let sc = chain(1);
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(2050));
    // The viewer leaves C; C should unsubscribe from B, B from A.
    sim.with_node(n(3), |node, now| {
        let mut actions = Vec::new();
        node.client_detach(now, VIEWER, &mut actions);
        actions
    });
    sim.run_until(ms(2250));
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), None);
    assert_eq!(sim.node(n(2)).upstream_of(STREAM), None);
    assert_eq!(sim.node(n(1)).fib().subscriber_count(STREAM), 0);
}

#[test]
fn delay_field_accumulates_across_hops() {
    let run = chain(2).run().unwrap();
    // The largest delay field on a frame the viewer completed must exceed
    // the sum of per-hop processing (2 ms × hops) plus half-RTT increments.
    let max_delay = run.viewers[0]
        .frames
        .iter()
        .filter_map(|&(_, _, d)| d)
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
    let mut sc = chain(6);
    for link in &mut sc.links {
        link.2 = LinkConfig::backbone(SimDuration::from_millis(5));
    }
    // A viewer whose downlink is far below the stream bitrate.
    sc.viewers[0].access.bandwidth = Bandwidth::from_kbps(300); // 2 Mbps stream → heavy backlog
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(7050));
    let s = sim.node(n(3)).client(VIEWER).unwrap().stats;
    assert!(
        s.dropped_bunref + s.dropped_b + s.dropped_p + s.dropped_gop > 0,
        "no frames dropped despite 300 kbps downlink: {s:?}"
    );
    // Unreferenced B frames go first: they must dominate early drops.
    assert!(s.dropped_bunref > 0);
}

#[test]
fn costream_switch_is_seamless() {
    // A co-broadcast starts at A 3 s in, and the consumer C begins the
    // switch on the viewer's behalf.
    let mut sc = Scenario::chain(2, LossModel::Bernoulli { p: 0.0 }, 7);
    sc.costream_at = Some(SimTime::from_secs(3));
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(8050));
    let ctl = sim.node(n(3)).client(VIEWER).unwrap();
    assert_eq!(ctl.stream, COSTREAM);
    assert_eq!(ctl.stats.switches, 1);

    let run = sim.finish();
    assert_eq!(run.viewers[0].qoe.stalls, 0);
    let at_c: Vec<&NodeEvent> = run.nodes[2].events.iter().map(|(_, e)| e).collect();
    let flip = run.nodes[2]
        .events
        .iter()
        .position(|(_, e)| matches!(e, NodeEvent::SwitchCompleted { to, .. } if *to == COSTREAM))
        .expect("switch never completed");
    assert!(run.nodes[2].events[flip].0 > SimTime::from_secs(3));
    // The flip is followed at once by the switch burst, to the client, on
    // the new stream: the longest cached run holding two I-frame starts,
    // which is 437 packets on this script.
    match at_c.get(flip + 1) {
        Some(NodeEvent::StartupBurst {
            stream,
            to,
            packets,
        }) => {
            assert_eq!((*stream, *to), (COSTREAM, Subscriber::Client(VIEWER)));
            assert_eq!(*packets, 437, "switch burst size");
        }
        other => panic!("no burst after the flip: {other:?}"),
    }
}

/// The event that follows the first `SwitchCompleted` for `client` in
/// `actions`; `None` when the client did not flip.
fn after_flip(actions: &[NodeAction], client: ClientId) -> Option<Option<NodeEvent>> {
    let mut events = actions.iter().filter_map(|a| match a {
        NodeAction::Event(e) => Some(e),
        _ => None,
    });
    events.find(|e| matches!(e, NodeEvent::SwitchCompleted { client: c, .. } if *c == client))?;
    Some(events.next().cloned())
}

#[test]
fn costream_switch_at_the_producer_completes_on_ingest() {
    // Both viewers watch at the producer node A(1) itself, so the
    // co-stream's packets enter the cache through `ingest_frame`, not
    // `on_datagram`. The test feeds the co-stream itself, to see what
    // each of its frames does.
    let mut sc = Scenario::chain(0, LossModel::None, 1);
    sc.viewers.push(sc.viewers[0].clone());
    let second = ClientId::new(2);
    let co = StreamId::new(77);
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(200));
    // The switch begins before any packet of the co-stream is cached.
    sim.with_node(n(1), |node, now| {
        node.register_producer(co, None);
        let mut actions = Vec::new();
        node.begin_costream_switch(now, VIEWER, co, None, &mut actions);
        assert!(
            after_flip(&actions, VIEWER).is_none(),
            "flipped with nothing cached"
        );
        actions
    });

    let mut enc = VideoEncoder::new(co, GopConfig::default(), Bandwidth::from_mbps(2), ms(200));
    let mut i_frames = 0;
    loop {
        sim.run_until(enc.next_capture_time());
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        if frame.kind == FrameKind::I {
            i_frames += 1;
        }
        let mut flip = None;
        sim.with_node(n(1), |node, now| {
            let cached = node.cache(co).map_or(0, |c| c.len());
            let actions = node.ingest_frame(now, &frame, &payload);
            flip = after_flip(&actions, VIEWER).map(|next| (cached, next));
            actions
        });
        let Some((cached, next)) = flip else {
            assert!(i_frames < 2, "no flip once two I-frame starts are cached");
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
                assert_eq!((stream, to), (co, Subscriber::Client(VIEWER)));
                assert_eq!(packets, cached + 1, "switch burst size");
            }
            other => panic!("no burst after the flip: {other:?}"),
        }
        break;
    }
    assert_eq!(sim.node(n(1)).client(VIEWER).unwrap().stream, co);

    // A second viewer asking for the same switch now has a complete GoP
    // cached: it flips inside `begin_costream_switch`.
    let mut flip = None;
    sim.with_node(n(1), |node, now| {
        let mut actions = Vec::new();
        node.begin_costream_switch(now, second, co, None, &mut actions);
        flip = after_flip(&actions, second);
        actions
    });
    match flip {
        Some(Some(NodeEvent::StartupBurst { stream, to, .. })) => {
            assert_eq!((stream, to), (co, Subscriber::Client(second)));
        }
        other => panic!("the second switch did not complete at once: {other:?}"),
    }
    let ctl = sim.node(n(1)).client(second).unwrap();
    assert_eq!((ctl.stream, ctl.stats.switches), (co, 1));
}

#[test]
fn mid_stream_path_switch_is_make_before_break() {
    // A(1) → B(2) → C(3) serving a viewer; D(4) offers an alternative
    // relay. C switches its path to A → D → C mid-stream (§7.1): the old
    // branch keeps feeding until the new one confirms, then B is released.
    let sc = diamond(4, false);
    let mut sim = sc.start().unwrap();
    let switch_at = ms(2050);
    sim.run_until(switch_at);
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(2)));

    // Switch C onto A → D → C, and keep streaming for 2 more seconds.
    sim.with_node(n(3), |node, now| {
        node.switch_path(now, STREAM, &[n(1), n(4), n(3)])
    });
    let check_at = ms(5050);
    sim.run_until(check_at);

    // New upstream is D; B no longer carries the stream.
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(4)));
    assert_eq!(sim.node(n(4)).upstream_of(STREAM), Some(n(1)));
    assert_eq!(
        sim.node(n(2)).fib().subscriber_count(STREAM),
        0,
        "B should have been released"
    );
    assert_eq!(
        sim.node(n(2)).upstream_of(STREAM),
        None,
        "B should unsubscribe from A"
    );
    // A now feeds D only.
    assert_eq!(sim.node(n(1)).fib().subscriber_count(STREAM), 1);

    // Frames kept flowing to C's viewer across the switch.
    let run = sim.finish();
    let (frames_before, frames_after) = (frames_by(&run, switch_at), frames_by(&run, check_at));
    assert!(
        frames_after > frames_before + 20,
        "stream starved across the switch: {frames_before} → {frames_after}"
    );
}

#[test]
fn switch_path_to_same_next_hop_is_noop() {
    let sc = chain(1);
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(2050));
    let before = sim.node(n(3)).upstream_of(STREAM);
    sim.with_node(n(3), |node, now| {
        node.switch_path(now, STREAM, &[n(1), n(2), n(3)])
    });
    sim.run_until(ms(2550));
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), before);
    assert_eq!(sim.node(n(2)).fib().subscriber_count(STREAM), 1);
}

#[test]
fn relay_failure_recovered_by_path_switch() {
    // B dies mid-stream; the consumer re-routes through D and the stream
    // resumes (the failure-circumvention flexibility of §7.2).
    let mut sc = diamond(4, false);
    sc.faults.crash(ms(1050), n(2));
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(1049));
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(2)));

    // For a second after the crash C starves (B is gone). Then the
    // consumer detects the dead path (driver-side health check) and
    // switches to A → D → C.
    let switch_at = ms(2050);
    sim.run_until(switch_at);
    sim.with_node(n(3), |node, now| {
        node.switch_path(now, STREAM, &[n(1), n(4), n(3)])
    });
    let check_at = ms(4050);
    sim.run_until(check_at);
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(4)));

    let run = sim.finish();
    let (starved, recovered) = (frames_by(&run, switch_at), frames_by(&run, check_at));
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
    let mut sc = diamond(7, true);
    sc.faults.crash(ms(1050), n(2));
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(1049));
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(2)));

    // Keep the encoder running well past the upstream timeout.
    sim.run_until(ms(8050));
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(4)));
    assert_eq!(sim.node(n(4)).upstream_of(STREAM), Some(n(1)));
    assert_eq!(sim.node(n(3)).stats.upstream_failovers, 1);

    // C declared B dead and failed over to D without driver involvement.
    let run = sim.finish();
    assert!(
        run.first_event(n(3), |e| matches!(
            e,
            NodeEvent::UpstreamDead { upstream, .. } if *upstream == n(2)
        ))
        .is_some(),
        "C never declared B dead"
    );
    // No Brain request was needed: the cached backup covered it.
    assert!(
        !run.nodes
            .iter()
            .flat_map(|n| &n.events)
            .any(|(_, e)| matches!(e, NodeEvent::PathRequestNeeded { .. })),
        "fast path should not have asked for a new path"
    );
}

#[test]
fn upstream_death_without_backup_requests_brain_path() {
    // Same failure, but no alternate path is cached (the only cached path
    // runs through the dead node): the node surfaces PathRequestNeeded —
    // the driver must fetch a fresh path from the Brain (slow recovery).
    let mut sc = chain(7);
    sc.faults.crash(ms(1050), n(2));
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(8050));
    // The stream stays down until the driver supplies one.
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), None);

    let run = sim.finish();
    assert!(run
        .first_event(n(3), |e| matches!(e, NodeEvent::UpstreamDead { .. }))
        .is_some());
    assert!(
        run.first_event(n(3), |e| matches!(
            e,
            NodeEvent::PathRequestNeeded { dead, .. } if *dead == n(2)
        ))
        .is_some(),
        "C never asked for a fresh path"
    );
}

#[test]
fn healthy_idle_upstream_is_not_declared_dead() {
    // The producer stops sending media but B and C stay alive: periodic
    // receiver reports keep flowing (which count as liveness), so silence
    // of the MEDIA alone must not trip failover... except RR stops too
    // when no packets ever arrive. Instead we verify the steady case: a
    // live chain never produces failovers.
    let run = chain(4).run().unwrap();
    assert_eq!(run.nodes[2].stats.upstream_failovers, 0);
    assert_eq!(run.nodes[1].stats.upstream_failovers, 0);
    assert!(run
        .nodes
        .iter()
        .flat_map(|n| &n.events)
        .all(|(_, e)| !matches!(e, NodeEvent::UpstreamDead { .. })));
}

#[test]
fn crash_reset_clears_volatile_state() {
    let sc = chain(1);
    let mut sim = sc.start().unwrap();
    sim.run_until(ms(2050));
    sim.with_node(n(2), |node, _| {
        node.crash_reset();
        Vec::new()
    });
    let b = sim.node(n(2));
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
    let mut sc = chain(1);
    sc.nodes.push(n(4));
    sc.links.push((
        n(1),
        n(4),
        LinkConfig::backbone(SimDuration::from_millis(10)),
    ));
    let mut sim = sc.start().unwrap();
    let start = ms(2050);
    sim.run_until(start);

    // The broadcaster re-homes to D; D becomes the producer, continuing
    // the sequence space from the handover state (A's next seq).
    let handover_seq = sim
        .node(n(1))
        .producer_next_seq(STREAM)
        .expect("A was the producer");
    sim.with_node(n(4), |node, _| {
        node.register_producer_continuation(STREAM, handover_seq);
        Vec::new()
    });
    // The Brain instructs the OLD producer to subscribe to the new one
    // along D → A (what its path lookup returns).
    sim.with_node(n(1), |node, now| {
        node.demote_to_relay(now, STREAM, &[n(4), n(1)])
    });

    // The (moved) broadcaster now uploads at D, which the scenario's own
    // encoder (always at A) does not feed: continue the stream there. It
    // is the same broadcaster, so its frames continue the stream's
    // timeline, which began at the scenario's first capture, 50 ms.
    let mut enc = VideoEncoder::new(
        STREAM,
        GopConfig::default(),
        Bandwidth::from_mbps(2),
        ms(50),
    );
    while enc.next_capture_time() < start {
        enc.next_frame();
    }
    let end = start + SimDuration::from_secs(2);
    while enc.next_capture_time() < end {
        sim.run_until(enc.next_capture_time());
        let frame = enc.next_frame();
        let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
        sim.with_node(n(4), |node, now| node.ingest_frame(now, &frame, &payload));
    }
    let check_at = end + SimDuration::from_secs(1);
    sim.run_until(check_at);

    // A is now a relay: not a producer, upstream = D.
    assert!(!sim.node(n(1)).is_producer(STREAM));
    assert_eq!(sim.node(n(1)).upstream_of(STREAM), Some(n(4)));
    // C never changed its subscription, yet its viewer keeps completing
    // frames.
    assert_eq!(sim.node(n(3)).upstream_of(STREAM), Some(n(2)));
    let run = sim.finish();
    let (frames_before, frames_after) = (frames_by(&run, start), frames_by(&run, check_at));
    assert!(
        frames_after > frames_before + 20,
        "stream did not survive the producer move: {frames_before} → {frames_after}"
    );
}

#[test]
fn cache_miss_is_recovered_from_alternate_supplier() {
    // Diamond: A(1) feeds B(2) and D(4); C(3) subscribes via B with
    // A → D → C installed as a backup path. One packet is lost on A→B and
    // every retransmission on A→B dies too, so B can never serve C's NACK
    // (cache miss) nor close its own hole. B must answer with an RTX-miss
    // and C must immediately chase D — which is warm thanks to its own
    // viewer — instead of waiting out B's parked recovery.
    let mut sc = diamond(3, true);
    sc.viewers.push(Viewer {
        path: vec![n(1), n(4)],
        backups: Vec::new(),
        ..sc.viewers[0].clone()
    });
    let mut sim = sc.start().unwrap();
    sim.drop_outbound(n(1), drop_rtp_to(n(2), 20, true));
    let run = sim.finish();
    let stats = |id: usize| &run.nodes[id - 1].stats;

    // B missed the cache and said so instead of silently parking.
    assert!(stats(2).rtx_unavailable >= 1, "B never cache-missed");
    // C chased the alternate and the hole closed from D's retransmission.
    assert!(
        stats(3).rtx_alternate_requests >= 1,
        "C never re-NACKed an alternate supplier"
    );
    assert!(
        stats(3).rtx_alternate_recovered >= 1,
        "no hole closed by the alternate: {:?}",
        stats(3)
    );
    assert!(stats(4).rtx_served >= 1, "D served no RTX");
    assert!(
        run.first_event(n(3), |e| matches!(
            e,
            NodeEvent::HoleRecovered {
                alternate: true,
                ..
            }
        ))
        .is_some(),
        "no alternate-supplier recovery event at C"
    );
    // B's parked waiter for C could never be served: the TTL sweep must
    // have evicted it rather than leaving it until stream teardown.
    assert!(
        stats(2).rtx_pending_expired >= 1,
        "B's dead parked waiter was never swept"
    );
}
