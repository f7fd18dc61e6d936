//! The packet-level scenario: real [`OverlayNode`] state machines on the
//! discrete-event emulator, one encoder feeding the producer, viewers
//! attached along given overlay paths, link impairments and scheduled
//! faults, then one harvest of node events and client frames.
//!
//! Every transmission-architecture experiment is an edit of a preset:
//!
//! * [`Scenario::chain`] — the §3 example `A → B → …` with one viewer at
//!   the far end: fast/slow-path recovery under loss (§3, §5), the
//!   GoP-cache startup burst (§5.1), pacing (§5.2), seamless co-stream
//!   switching (§5.2, [`Scenario::costream_at`]).
//! * [`Scenario::diamond`] — producer P, primary relay B, consumer C and
//!   backup relay D: §6.5 failover when B crashes (backup cached at C =
//!   fast path; [`Scenario::control_rtt`] set = the slow path, with this
//!   driver playing the Brain), and multi-supplier RTX over a degraded
//!   P–B leg (DESIGN.md §14).
//!
//! Clients live in the same datagram namespace as nodes: viewer `i` is
//! client `i + 1` on emulator host `1_000_000 + i + 1`.

use crate::viewer::{ViewerClient, ViewerRun};
use bytes::Bytes;
use livenet_emu::{Ctx, FaultPlan, Host, LinkConfig, LinkStats, LossModel, NetSim};
use livenet_media::{GopConfig, VideoEncoder};
use livenet_node::{NodeAction, NodeConfig, NodeEvent, NodeStats, OverlayNode, Subscriber};
use livenet_types::{Bandwidth, ClientId, Error, NodeId, Result, SimDuration, SimTime, StreamId};

/// The stream every scenario broadcasts.
pub const SCENARIO_STREAM: StreamId = StreamId(900);
/// The co-broadcast stream of [`Scenario::costream_at`].
pub const COSTREAM: StreamId = StreamId(901);
/// Capture time of the first frame.
const SCENARIO_START: SimTime = SimTime::from_millis(50);

/// A viewer attached during the run.
#[derive(Debug, Clone)]
pub struct Viewer {
    /// Producer-first overlay path ending at the viewer's consumer node.
    pub path: Vec<NodeId>,
    /// Backup paths to the same consumer: cached at the consumer on
    /// attach, or — when [`Scenario::control_rtt`] is set — held back and
    /// handed out by the scripted Brain.
    pub backups: Vec<Vec<NodeId>>,
    /// When the viewer presses play.
    pub join_at: SimTime,
    /// Last-mile link between the consumer and the client; its bandwidth
    /// is also the downlink estimate the consumer paces at.
    pub access: LinkConfig,
}

impl Viewer {
    fn consumer(&self) -> NodeId {
        *self.path.last().expect("validated: path is non-empty")
    }
}

/// A packet-level experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Overlay nodes; the first is the producer.
    pub nodes: Vec<NodeId>,
    /// Duplex overlay links. Each end learns the link's RTT as its
    /// neighbor-RTT hint.
    pub links: Vec<(NodeId, NodeId, LinkConfig)>,
    /// Viewers, in attach order among equal `join_at`.
    pub viewers: Vec<Viewer>,
    /// Faults injected by the emulator.
    pub faults: FaultPlan,
    /// Scripted control plane. `None`: backup paths are cached at the
    /// consumer, so failover is the fast path. `Some(rtt)`: nothing is
    /// cached; when a consumer raises [`NodeEvent::PathRequestNeeded`] the
    /// driver plays the Brain and, `rtt` later, switches it onto the
    /// viewer's first backup that avoids the dead node — the slow path.
    pub control_rtt: Option<SimDuration>,
    /// Template for every node's configuration (`id` is overwritten).
    pub node: NodeConfig,
    /// A co-broadcast ([`COSTREAM`]) starts at the producer at this time
    /// and every attached viewer's consumer begins the seamless switch.
    pub costream_at: Option<SimTime>,
    /// Stream bitrate.
    pub bitrate: Bandwidth,
    /// Broadcast duration (frames stop after this).
    pub duration: SimDuration,
    /// Extra drain time after the last frame.
    pub drain: SimDuration,
    /// Seed of the emulator's single RNG stream (loss and jitter).
    pub seed: u64,
}

impl Scenario {
    /// The §3 example generalised: a chain `1 → 2 → … → hops + 1` of
    /// 10 ms backbone links with `first_hop_loss` on `1–2`, and one viewer
    /// at the far end joining 100 ms in over a 15 ms / 50 Mbps last mile
    /// with 2 ms jitter: 10 s of 2 Mbps video, 2 s drain.
    pub fn chain(hops: usize, first_hop_loss: LossModel, seed: u64) -> Scenario {
        let nodes: Vec<NodeId> = (1..=hops as u64 + 1).map(NodeId::new).collect();
        let hop = LinkConfig::backbone(SimDuration::from_millis(10));
        let mut links: Vec<_> = nodes.windows(2).map(|w| (w[0], w[1], hop)).collect();
        if let Some(first) = links.first_mut() {
            first.2.loss = first_hop_loss;
        }
        let viewer = Viewer {
            path: nodes.clone(),
            backups: Vec::new(),
            join_at: SimTime::from_millis(100),
            access: LinkConfig {
                jitter: SimDuration::from_millis(2),
                ..last_mile()
            },
        };
        Scenario {
            node: NodeConfig::new(nodes[0]),
            nodes,
            links,
            viewers: vec![viewer],
            faults: FaultPlan::new(),
            control_rtt: None,
            costream_at: None,
            bitrate: Bandwidth::from_mbps(2),
            duration: SimDuration::from_secs(10),
            drain: SimDuration::from_secs(2),
            seed,
        }
    }

    /// A diamond — nodes in order producer P (1), primary relay B (2),
    /// consumer C (3), backup relay D (4) — with the P–B leg as given and
    /// clean 10 ms hops B–C, P–D, D–C. One viewer at C attached before
    /// the stream starts over `P → B → C`, with `P → D → C` as its backup:
    /// 20 s of 2 Mbps video, 2 s drain.
    pub fn diamond(primary_leg: LinkConfig, seed: u64) -> Scenario {
        let [p, b, c, d] = [1, 2, 3, 4].map(NodeId::new);
        let hop = LinkConfig::backbone(SimDuration::from_millis(10));
        let viewer = Viewer {
            path: vec![p, b, c],
            backups: vec![vec![p, d, c]],
            join_at: SimTime::ZERO,
            access: last_mile(),
        };
        Scenario {
            nodes: vec![p, b, c, d],
            links: vec![(p, b, primary_leg), (b, c, hop), (p, d, hop), (d, c, hop)],
            viewers: vec![viewer],
            duration: SimDuration::from_secs(20),
            ..Scenario::chain(0, LossModel::None, seed)
        }
    }

    /// Check the topology: every failure is `Error::InvalidConfig`.
    pub fn validate(&self) -> Result<()> {
        let known = |n: &NodeId| self.nodes.contains(n);
        let Some(&producer) = self.nodes.first() else {
            return Err(Error::invalid_config("scenario has no nodes"));
        };
        for (i, n) in self.nodes.iter().enumerate() {
            if self.nodes[..i].contains(n) || n.raw() >= CLIENT_NODE_OFFSET {
                return Err(Error::invalid_config(format!(
                    "node {n} is listed twice or collides with the client host ids"
                )));
            }
        }
        for (a, b, _) in &self.links {
            if a == b || !known(a) || !known(b) {
                return Err(Error::invalid_config(format!(
                    "link {a}–{b} must join two distinct scenario nodes"
                )));
            }
        }
        let linked = |a: NodeId, b: NodeId| {
            self.links
                .iter()
                .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
        };
        for (i, v) in self.viewers.iter().enumerate() {
            for path in std::iter::once(&v.path).chain(&v.backups) {
                if path.first() != Some(&producer) || path.last() != v.path.last() {
                    return Err(Error::invalid_config(format!(
                        "viewer {i}: path {path:?} must run from producer {producer} to the viewer's consumer"
                    )));
                }
                if let Some(n) = path.iter().find(|n| !known(n)) {
                    return Err(Error::invalid_config(format!(
                        "viewer {i}: path {path:?} goes through unknown node {n}"
                    )));
                }
                if let Some(w) = path.windows(2).find(|w| !linked(w[0], w[1])) {
                    return Err(Error::invalid_config(format!(
                        "viewer {i}: path {path:?} needs a link {}–{}",
                        w[0], w[1]
                    )));
                }
            }
        }
        Ok(())
    }

    /// Run to completion.
    pub fn run(&self) -> Result<ScenarioRun> {
        self.validate()?;
        let producer = self.nodes[0];
        let gop = GopConfig::default();
        let mut sim: NetSim<EmuHost> = NetSim::new(self.seed);
        for &id in &self.nodes {
            let mut node = OverlayNode::new(NodeConfig {
                id,
                ..self.node.clone()
            });
            for &(a, b, link) in &self.links {
                if a == id {
                    node.set_neighbor_rtt(b, link.rtt());
                } else if b == id {
                    node.set_neighbor_rtt(a, link.rtt());
                }
            }
            if id == producer {
                node.register_producer(SCENARIO_STREAM, None);
                if self.costream_at.is_some() {
                    node.register_producer(COSTREAM, None);
                }
            }
            let events = Vec::new();
            sim.add_host(id, EmuHost::Node(NodeHostState { node, events }));
        }
        for &(a, b, link) in &self.links {
            sim.add_duplex(a, b, link);
        }
        let clients: Vec<ClientId> = (1..=self.viewers.len() as u64).map(ClientId::new).collect();
        for (v, &client) in self.viewers.iter().zip(&clients) {
            let host = client_host_id(client);
            sim.add_host(host, EmuHost::Client(ViewerClient::new(v.join_at, gop.fps)));
            sim.add_duplex(v.consumer(), host, v.access);
        }
        sim.schedule_fault_plan(&self.faults);

        // What the driver does besides feeding frames, earliest first.
        let mut agenda: Vec<(SimTime, Step)> = (0..self.viewers.len())
            .map(|i| (self.viewers[i].join_at, Step::Join(i)))
            .chain(self.costream_at.map(|at| (at, Step::Costream)))
            .collect();
        agenda.sort_by_key(|&(at, _)| at);
        let mut asked_brain = vec![false; self.viewers.len()];

        let mut encoder = VideoEncoder::new(SCENARIO_STREAM, gop, self.bitrate, SCENARIO_START);
        let mut co_encoder = self
            .costream_at
            .map(|at| VideoEncoder::new(COSTREAM, gop, self.bitrate, at));
        let end = SCENARIO_START + self.duration;
        let mut frames_sent = 0u64;
        loop {
            let co_first = co_encoder
                .as_ref()
                .is_some_and(|co| co.next_capture_time() < encoder.next_capture_time());
            let source = match &mut co_encoder {
                Some(co) if co_first => co,
                _ => &mut encoder,
            };
            let step_at = agenda.first().map(|&(at, _)| at);
            // At equal times the driver's own steps go before the frame.
            let next = match step_at {
                Some(at) if at <= source.next_capture_time() => at,
                _ => source.next_capture_time(),
            };
            if next >= end {
                break;
            }
            sim.run_until(next);
            if step_at == Some(next) {
                match agenda.remove(0).1 {
                    Step::Join(i) => {
                        let v = &self.viewers[i];
                        drive(&mut sim, v.consumer(), |node, now| {
                            let mut actions = Vec::new();
                            node.client_attach(
                                now,
                                clients[i],
                                SCENARIO_STREAM,
                                Some(v.access.bandwidth),
                                Some(&v.path),
                                &mut actions,
                            );
                            if self.control_rtt.is_none() && !v.backups.is_empty() {
                                node.install_paths(SCENARIO_STREAM, &v.backups);
                            }
                            actions
                        });
                    }
                    Step::Costream => {
                        for (v, &client) in self.viewers.iter().zip(&clients) {
                            drive(&mut sim, v.consumer(), |node, now| {
                                let mut actions = Vec::new();
                                node.begin_costream_switch(
                                    now,
                                    client,
                                    COSTREAM,
                                    Some(&v.path),
                                    &mut actions,
                                );
                                actions
                            });
                        }
                    }
                    Step::BrainReply(i, backup) => {
                        let v = &self.viewers[i];
                        drive(&mut sim, v.consumer(), |node, now| {
                            node.switch_path(now, SCENARIO_STREAM, &v.backups[backup])
                        });
                    }
                }
                continue;
            }
            let frame = source.next_frame();
            frames_sent += 1;
            let payload = Bytes::from(vec![0u8; frame.size_bytes as usize]);
            drive(&mut sim, producer, |node, now| {
                node.ingest_frame(now, &frame, &payload)
            });
            // The scripted Brain: a consumer's path request is answered
            // one control round trip after the driver sees it.
            if let Some(rtt) = self.control_rtt {
                for (i, v) in self.viewers.iter().enumerate() {
                    if asked_brain[i] {
                        continue;
                    }
                    let Some(EmuHost::Node(state)) = sim.host(v.consumer()) else {
                        continue;
                    };
                    let dead = state.events.iter().find_map(|(_, e)| match e {
                        NodeEvent::PathRequestNeeded { dead, .. } => Some(*dead),
                        _ => None,
                    });
                    let backup = dead
                        .and_then(|dead| v.backups.iter().position(|path| !path.contains(&dead)));
                    if let Some(backup) = backup {
                        asked_brain[i] = true;
                        let at = sim.now() + rtt;
                        let pos = agenda.partition_point(|&(t, _)| t <= at);
                        agenda.insert(pos, (at, Step::BrainReply(i, backup)));
                    }
                }
            }
        }
        let finish = end + self.drain;
        sim.run_until(finish);

        // Harvest.
        let links = sim.total_link_stats();
        let nodes = self
            .nodes
            .iter()
            .map(|&id| match sim.remove_host(id) {
                Some(EmuHost::Node(state)) => NodeRun {
                    id,
                    events: state.events,
                    stats: state.node.stats,
                },
                _ => unreachable!("node hosts are added above and never removed"),
            })
            .collect();
        let viewers = clients
            .iter()
            .map(|&client| match sim.remove_host(client_host_id(client)) {
                Some(EmuHost::Client(viewer)) => viewer.finish(finish),
                _ => unreachable!("client hosts are added above and never removed"),
            })
            .collect();
        Ok(ScenarioRun {
            nodes,
            viewers,
            links,
            frames_sent,
        })
    }
}

/// The 15 ms / 50 Mbps last mile of both presets.
fn last_mile() -> LinkConfig {
    LinkConfig {
        delay: SimDuration::from_millis(15),
        bandwidth: Bandwidth::from_mbps(50),
        queue_bytes: 1 << 20,
        loss: LossModel::None,
        jitter: SimDuration::ZERO,
    }
}

/// A driver action other than feeding the next frame.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Viewer `i` presses play.
    Join(usize),
    /// The co-broadcast starts; consumers begin the seamless switch.
    Costream,
    /// The scripted Brain hands viewer `i`'s consumer its `n`-th backup.
    BrainReply(usize, usize),
}

/// What one node did during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRun {
    /// The node.
    pub id: NodeId,
    /// Every instrumentation event it raised, in order.
    pub events: Vec<(SimTime, NodeEvent)>,
    /// Its cumulative counters at the end of the run.
    pub stats: NodeStats,
}

/// Everything harvested from one [`Scenario::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Per node, in [`Scenario::nodes`] order.
    pub nodes: Vec<NodeRun>,
    /// Per viewer, in [`Scenario::viewers`] order.
    pub viewers: Vec<ViewerRun>,
    /// Counters summed over every link, access links included.
    pub links: LinkStats,
    /// Frames ingested at the producer.
    pub frames_sent: u64,
}

impl ScenarioRun {
    /// When `node` first raised an event matching `pred`.
    pub fn first_event(&self, node: NodeId, pred: impl Fn(&NodeEvent) -> bool) -> Option<SimTime> {
        let run = self.nodes.iter().find(|n| n.id == node)?;
        run.events.iter().find(|(_, e)| pred(e)).map(|&(at, _)| at)
    }

    /// Detection-to-recovery latency (ms) of every hole any node closed.
    pub fn recovery_latencies_ms(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .flat_map(|n| &n.events)
            .filter_map(|(_, e)| match e {
                NodeEvent::HoleRecovered { after, .. } => Some(after.as_millis_f64()),
                _ => None,
            })
            .collect()
    }

    /// Capture-to-arrival delay (ms) of every frame at every client.
    pub fn frame_delays_ms(&self) -> Vec<f64> {
        self.viewers
            .iter()
            .flat_map(|v| &v.frames)
            .filter_map(|&(at, ts, _)| {
                let capture = SCENARIO_START.as_secs_f64() + f64::from(ts) / 90_000.0;
                let delay_ms = (at.as_secs_f64() - capture) * 1000.0;
                (delay_ms.is_finite() && delay_ms >= 0.0).then_some(delay_ms)
            })
            .collect()
    }
}

/// Offset separating client host ids from overlay-node host ids.
const CLIENT_NODE_OFFSET: u64 = 1_000_000;

/// Emulator host id of a client.
fn client_host_id(client: ClientId) -> NodeId {
    NodeId::new(CLIENT_NODE_OFFSET + client.raw())
}

/// Run `f` on overlay node `id` at the current sim time and apply the
/// actions it returns. A crashed node accepts no stimuli.
fn drive(
    sim: &mut NetSim<EmuHost>,
    id: NodeId,
    f: impl FnOnce(&mut OverlayNode, SimTime) -> Vec<NodeAction>,
) {
    sim.with_host(id, |host, ctx| {
        if let EmuHost::Node(state) = host {
            let actions = f(&mut state.node, ctx.now());
            apply_node_actions(state, ctx, actions);
        }
    });
}

/// A host in the scenario: an overlay node or a viewer.
// Hosts live once per simulated machine in a map the emulator owns;
// boxing the node state would add a pointer chase on every packet.
#[allow(clippy::large_enum_variant)]
enum EmuHost {
    Node(NodeHostState),
    Client(ViewerClient),
}

struct NodeHostState {
    /// The sans-I/O core.
    node: OverlayNode,
    /// Harvested events.
    events: Vec<(SimTime, NodeEvent)>,
}

/// Apply a node's actions to the emulator context.
fn apply_node_actions(state: &mut NodeHostState, ctx: &mut Ctx, actions: Vec<NodeAction>) {
    let now = ctx.now();
    for a in actions {
        match a {
            NodeAction::Send { to, msg } => {
                let dest = match to {
                    Subscriber::Node(n) => n,
                    Subscriber::Client(c) => client_host_id(c),
                };
                ctx.send(dest, msg.encode());
            }
            NodeAction::SetTimer { at, key } => ctx.set_timer_at(at.max(now), key),
            NodeAction::Event(e) => state.events.push((now, e)),
        }
    }
}

impl Host for EmuHost {
    fn on_datagram(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
        match self {
            EmuHost::Node(state) => {
                let actions = state.node.on_datagram(ctx.now(), from, payload);
                apply_node_actions(state, ctx, actions);
            }
            EmuHost::Client(viewer) => {
                if let Some(tick) = viewer.on_datagram(ctx.now(), payload) {
                    ctx.set_timer_at(tick, 1);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
        match self {
            EmuHost::Node(state) => {
                let actions = state.node.on_timer(ctx.now(), key);
                apply_node_actions(state, ctx, actions);
            }
            EmuHost::Client(viewer) => viewer.on_tick(ctx.now()),
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if let EmuHost::Node(state) = self {
            let actions = state.node.start(ctx.now());
            apply_node_actions(state, ctx, actions);
        }
    }

    fn on_crash(&mut self) {
        // A crashed node loses all volatile state (FIB, reassembly, pacing,
        // congestion control); config and measured neighbor RTTs survive as
        // they would on-disk. Harvested events survive too — they belong to
        // the experiment harness, not the node.
        if let EmuHost::Node(state) = self {
            state.node.crash_reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(loss: f64, seed: u64) -> Scenario {
        Scenario::chain(2, LossModel::Bernoulli { p: loss }, seed)
    }

    #[test]
    fn lossless_chain_delivers_smoothly() {
        let run = chain(0.0, 1).run().unwrap();
        assert_eq!(run.viewers.len(), 1);
        let qoe = run.viewers[0].qoe;
        assert!(qoe.fast_startup(), "startup {:?}", qoe.startup);
        assert_eq!(qoe.stalls, 0);
        assert!(qoe.frames_rendered > 100, "{}", qoe.frames_rendered);
        assert!(run.recovery_latencies_ms().is_empty());
    }

    #[test]
    fn lossy_first_hop_recovers_via_slow_path() {
        let run = chain(0.02, 2).run().unwrap();
        let qoe = run.viewers[0].qoe;
        // Recovery happened at the relay (B NACKs A).
        let recovery = run.recovery_latencies_ms();
        assert!(!recovery.is_empty(), "no recoveries observed");
        assert!(run.nodes[0].stats.rtx_served > 0, "A served no RTX");
        // The viewer still plays through ≥95% of frames.
        assert!(qoe.frames_rendered > 130, "{}", qoe.frames_rendered);
        // Retransmissions included, every datagram the client got decoded.
        assert!(run.viewers[0].packets > 0);
        assert_eq!(run.viewers[0].undecodable, 0);
        // Recovery latency ≈ scan wait + one hop RTT: well under 150 ms.
        let mean: f64 = recovery.iter().sum::<f64>() / recovery.len() as f64;
        assert!(mean < 150.0, "mean recovery {mean} ms");
    }

    #[test]
    fn mid_stream_joiner_gets_fast_startup_from_gop_cache() {
        let mut sc = chain(0.0, 3);
        // Second viewer joins 6 s in; the consumer already carries the
        // stream, so startup is served from the GoP cache burst.
        sc.viewers.push(Viewer {
            join_at: SimTime::from_secs(6),
            ..sc.viewers[0].clone()
        });
        let run = sc.run().unwrap();
        assert_eq!(run.viewers.len(), 2);
        let late = run.viewers[1].qoe;
        assert!(
            late.fast_startup(),
            "late joiner startup {:?}",
            late.startup
        );
        let bursts = run
            .nodes
            .iter()
            .flat_map(|n| &n.events)
            .filter(|(_, e)| matches!(e, NodeEvent::StartupBurst { .. }))
            .count();
        assert!(bursts >= 1);
        // The burst makes startup much faster than one full GoP (2 s).
        assert!(late.startup.unwrap() < SimDuration::from_millis(800));
    }

    #[test]
    fn frame_delay_is_consistent_with_hop_count() {
        let mut delays = chain(0.0, 4).run().unwrap().frame_delays_ms();
        assert!(!delays.is_empty());
        delays.sort_by(f64::total_cmp);
        let median = delays[delays.len() / 2];
        // 2 overlay hops (10 ms each) + access 15 ms + pacing/processing;
        // must sit well under a GoP length but above raw propagation.
        assert!(median > 35.0, "median {median}");
        assert!(median < 600.0, "median {median}");
    }

    #[test]
    fn costream_switch_completes_without_a_stall() {
        let mut sc = chain(0.0, 7);
        sc.costream_at = Some(SimTime::from_secs(3));
        let run = sc.run().unwrap();
        let consumer = *sc.nodes.last().unwrap();
        let switched = run.first_event(
            consumer,
            |e| matches!(e, NodeEvent::SwitchCompleted { to, .. } if *to == COSTREAM),
        );
        assert!(switched.is_some_and(|at| at > SimTime::from_secs(3)));
        assert_eq!(run.viewers[0].qoe.stalls, 0);
    }
}
