//! The network emulator proper: hosts, datagram delivery, timers.

use crate::fault::{FaultKind, FaultPlan};
use crate::link::{LinkConfig, LinkState, LinkStats, SendOutcome};
use bytes::Bytes;
use livenet_telemetry::{ids, MetricSink, Snapshot, TelemetryHub, QUEUE_DEPTH_BOUNDS};
use livenet_types::{DetRng, EventQueue, NodeId, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Nominal packet size used to express link backlog as a queue depth.
const MTU_BYTES: u64 = 1500;

/// An opaque timer key chosen by the host; redelivered on expiry.
pub type TimerKey = u64;

/// A datagram in flight or delivered.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload bytes (RTP or RTCP wire format in the LiveNet data plane).
    pub payload: Bytes,
}

/// Actions a host can request from the engine.
#[derive(Debug, Clone)]
pub enum Action {
    /// Send a datagram over the direct link to `to` (must exist).
    Send {
        /// Destination host.
        to: NodeId,
        /// Payload.
        payload: Bytes,
    },
    /// Fire `Host::on_timer(key)` at absolute time `at`.
    SetTimer {
        /// Expiry instant.
        at: SimTime,
        /// Key passed back on expiry.
        key: TimerKey,
    },
}

/// Execution context handed to host callbacks.
///
/// Collects requested actions; the engine applies them after the callback
/// returns (avoiding re-entrancy).
#[derive(Debug)]
pub struct Ctx {
    now: SimTime,
    actions: Vec<Action>,
}

impl Ctx {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queue a datagram for transmission.
    pub fn send(&mut self, to: NodeId, payload: Bytes) {
        self.actions.push(Action::Send { to, payload });
    }

    /// Request a timer callback at absolute time `at`.
    pub fn set_timer_at(&mut self, at: SimTime, key: TimerKey) {
        self.actions.push(Action::SetTimer { at, key });
    }

    /// Request a timer callback `after` from now.
    pub fn set_timer_after(&mut self, after: SimDuration, key: TimerKey) {
        let at = self.now + after;
        self.set_timer_at(at, key);
    }
}

/// A sans-I/O host state machine living inside the emulator.
pub trait Host {
    /// A datagram arrived.
    fn on_datagram(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes);
    /// A timer set via [`Ctx::set_timer_at`] expired.
    fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey);
    /// Called once when the simulation starts, to arm initial timers.
    fn on_start(&mut self, _ctx: &mut Ctx) {}
    /// The host's process crashed (fault injection): drop volatile state.
    /// No `Ctx` — a dead process sends nothing.
    fn on_crash(&mut self) {}
    /// The host restarts after a crash with its volatile state already
    /// cleared by [`Host::on_crash`]. Defaults to re-running start-up.
    fn on_restart(&mut self, ctx: &mut Ctx) {
        self.on_start(ctx);
    }
}

#[derive(Debug)]
enum Event {
    Arrival(Datagram),
    /// Timer with the owner's crash epoch at scheduling time: timers armed
    /// before a crash must not fire after the restart.
    Timer(NodeId, TimerKey, u64),
    Fault(FaultKind),
}

/// The deterministic network emulator.
pub struct NetSim<H: Host> {
    hosts: HashMap<NodeId, H>,
    links: HashMap<(NodeId, NodeId), LinkState>,
    queue: EventQueue<Event>,
    rng: DetRng,
    started: bool,
    /// Nodes currently crashed by fault injection.
    down: BTreeSet<NodeId>,
    /// Per-node crash epoch; bumping it cancels pre-crash timers.
    epochs: HashMap<NodeId, u64>,
    /// Count of sends addressed to nodes with no configured link (dropped).
    pub no_route_drops: u64,
    /// Count of datagrams blackholed at a crashed host.
    pub fault_drops: u64,
    /// Event-loop telemetry: send outcomes, queue depth, fault episodes.
    telemetry: TelemetryHub,
}

impl<H: Host> NetSim<H> {
    /// New emulator with the given RNG seed (drives all loss and jitter).
    pub fn new(seed: u64) -> Self {
        NetSim {
            hosts: HashMap::new(),
            links: HashMap::new(),
            queue: EventQueue::new(),
            rng: DetRng::seed(seed).fork("netsim"),
            started: false,
            down: BTreeSet::new(),
            epochs: HashMap::new(),
            no_route_drops: 0,
            fault_drops: 0,
            telemetry: TelemetryHub::new(),
        }
    }

    /// The emulator's telemetry hub (the consumer-node-log analogue:
    /// per-link send outcomes, queue depth and fault episodes).
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// Freeze current telemetry into a canonical [`Snapshot`].
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    /// Register a host.
    pub fn add_host(&mut self, id: NodeId, host: H) {
        let prev = self.hosts.insert(id, host);
        assert!(prev.is_none(), "duplicate host {id}");
    }

    /// Install a directed link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) {
        self.links.insert((from, to), LinkState::new(config));
    }

    /// Install a symmetric link pair.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_link(a, b, config);
        self.add_link(b, a, config);
    }

    /// Mutate a link's configuration mid-run (diurnal loss sweeps etc.).
    pub fn link_config_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkConfig> {
        self.links.get_mut(&(from, to)).map(|l| &mut l.config)
    }

    /// Read a link's counters.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.links.get(&(from, to)).map(|l| l.stats)
    }

    /// Aggregate counters over all links.
    pub fn total_link_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for l in self.links.values() {
            total.delivered += l.stats.delivered;
            total.lost_random += l.stats.lost_random;
            total.lost_queue += l.stats.lost_queue;
            total.bytes += l.stats.bytes;
        }
        total
    }

    /// Immutable access to a host.
    pub fn host(&self, id: NodeId) -> Option<&H> {
        self.hosts.get(&id)
    }

    /// Mutable access to a host (for injecting external requests between
    /// steps, e.g. a viewer arrival driven by the workload generator).
    pub fn host_mut(&mut self, id: NodeId) -> Option<&mut H> {
        self.hosts.get_mut(&id)
    }

    /// Remove a host from the simulation, returning it. Events addressed
    /// to it after removal are silently discarded.
    pub fn remove_host(&mut self, id: NodeId) -> Option<H> {
        self.hosts.remove(&id)
    }

    /// Schedule one fault for execution at `at`.
    pub fn schedule_fault(&mut self, at: SimTime, kind: FaultKind) {
        self.queue.schedule(at, Event::Fault(kind));
    }

    /// Schedule every event of a fault plan.
    pub fn schedule_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.schedule_fault(ev.at, ev.kind);
        }
    }

    /// Whether a node is currently crashed by fault injection.
    pub fn node_is_down(&self, id: NodeId) -> bool {
        self.down.contains(&id)
    }

    /// Whether a directed link is administratively up (true when absent
    /// links are queried returns false).
    pub fn link_is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.links.get(&(from, to)).is_some_and(|l| l.up)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Invoke a closure on a host with a [`Ctx`], applying resulting actions.
    /// Used to inject external stimuli (client requests) deterministically.
    /// Returns `None` for unknown hosts and for hosts currently crashed by
    /// fault injection (a dead process accepts no stimuli).
    pub fn with_host<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut H, &mut Ctx) -> R,
    ) -> Option<R> {
        if self.down.contains(&id) {
            return None;
        }
        let mut ctx = Ctx {
            now: self.queue.now(),
            actions: Vec::new(),
        };
        let host = self.hosts.get_mut(&id)?;
        let r = f(host, &mut ctx);
        self.apply_actions(id, ctx.actions);
        Some(r)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let ids: Vec<NodeId> = self.hosts.keys().copied().collect();
        for id in ids {
            let mut ctx = Ctx {
                now: self.queue.now(),
                actions: Vec::new(),
            };
            if let Some(h) = self.hosts.get_mut(&id) {
                h.on_start(&mut ctx);
            }
            self.apply_actions(id, ctx.actions);
        }
    }

    fn apply_actions(&mut self, from: NodeId, actions: Vec<Action>) {
        let now = self.queue.now();
        for action in actions {
            match action {
                Action::Send { to, payload } => {
                    let Some(link) = self.links.get_mut(&(from, to)) else {
                        self.no_route_drops += 1;
                        self.telemetry.incr(ids::EMU_NO_ROUTE);
                        continue;
                    };
                    let backlog_pkts = link
                        .config
                        .bandwidth
                        .bytes_in(link.busy_until.saturating_since(now))
                        / MTU_BYTES;
                    self.telemetry.observe_with(
                        ids::EMU_QUEUE_DEPTH,
                        QUEUE_DEPTH_BOUNDS,
                        backlog_pkts as f64,
                    );
                    match link.send(now, payload.len(), &mut self.rng) {
                        SendOutcome::Deliver { arrive_at } => {
                            self.telemetry.incr(ids::EMU_DELIVERED);
                            self.queue.schedule(
                                arrive_at,
                                Event::Arrival(Datagram { from, to, payload }),
                            );
                        }
                        SendOutcome::LostRandom => self.telemetry.incr(ids::EMU_LOST_RANDOM),
                        SendOutcome::LostQueue => self.telemetry.incr(ids::EMU_LOST_QUEUE),
                        SendOutcome::LostDown => self.telemetry.incr(ids::EMU_LOST_DOWN),
                    }
                }
                Action::SetTimer { at, key } => {
                    let epoch = self.epochs.get(&from).copied().unwrap_or(0);
                    self.queue
                        .schedule(at.max(now), Event::Timer(from, key, epoch));
                }
            }
        }
    }

    /// Process one event. Returns false when the calendar is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((now, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(now, event);
        true
    }

    /// Run until the calendar empties or simulated time exceeds `until`,
    /// leaving the clock exactly at `until` (so follow-up injections via
    /// [`Self::with_host`] carry the intended timestamp).
    pub fn run_until(&mut self, until: SimTime) {
        self.ensure_started();
        while let Some((now, event)) = self.queue.pop_until(until) {
            self.dispatch(now, event);
        }
        self.queue.advance_to(until);
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        type Deliver<H> = Box<dyn FnOnce(&mut H, &mut Ctx)>;
        let (node, run): (NodeId, Deliver<H>) = match event {
            Event::Arrival(d) => {
                if self.down.contains(&d.to) {
                    self.fault_drops += 1;
                    self.telemetry.incr(ids::EMU_FAULT_DROPS);
                    return; // blackholed at the crashed host
                }
                (
                    d.to,
                    Box::new(move |h, ctx| h.on_datagram(ctx, d.from, d.payload)),
                )
            }
            Event::Timer(node, key, epoch) => {
                if self.down.contains(&node)
                    || self.epochs.get(&node).copied().unwrap_or(0) != epoch
                {
                    return; // cancelled by a crash
                }
                (node, Box::new(move |h, ctx| h.on_timer(ctx, key)))
            }
            Event::Fault(kind) => {
                self.apply_fault(now, kind);
                return;
            }
        };
        let Some(host) = self.hosts.get_mut(&node) else {
            return; // host was removed; drop the event
        };
        let mut ctx = Ctx {
            now,
            actions: Vec::new(),
        };
        run(host, &mut ctx);
        self.apply_actions(node, ctx.actions);
    }

    fn apply_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::NodeCrash { node } => {
                if self.hosts.contains_key(&node) && self.down.insert(node) {
                    self.telemetry.incr(ids::EMU_FAULT_NODE_CRASH);
                    *self.epochs.entry(node).or_insert(0) += 1;
                    if let Some(h) = self.hosts.get_mut(&node) {
                        h.on_crash();
                    }
                }
            }
            FaultKind::NodeRestart { node } => {
                if self.down.remove(&node) {
                    self.telemetry.incr(ids::EMU_FAULT_NODE_RESTART);
                    let mut ctx = Ctx {
                        now,
                        actions: Vec::new(),
                    };
                    if let Some(h) = self.hosts.get_mut(&node) {
                        h.on_restart(&mut ctx);
                    }
                    self.apply_actions(node, ctx.actions);
                }
            }
            FaultKind::LinkDown { from, to } => {
                if let Some(l) = self.links.get_mut(&(from, to)) {
                    l.up = false;
                    self.telemetry.incr(ids::EMU_FAULT_LINK_DOWN);
                }
            }
            FaultKind::LinkUp { from, to } => {
                if let Some(l) = self.links.get_mut(&(from, to)) {
                    l.up = true;
                    self.telemetry.incr(ids::EMU_FAULT_LINK_UP);
                }
            }
            FaultKind::LossBurst { from, to, loss } => {
                if let Some(l) = self.links.get_mut(&(from, to)) {
                    if l.burst_base.is_none() {
                        l.burst_base = Some(l.config.loss);
                    }
                    l.config.loss = crate::link::LossModel::Bernoulli { p: loss };
                    self.telemetry.incr(ids::EMU_FAULT_LOSS_BURST);
                }
            }
            FaultKind::LossBurstEnd { from, to } => {
                if let Some(l) = self.links.get_mut(&(from, to)) {
                    if let Some(base) = l.burst_base.take() {
                        l.config.loss = base;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::Bandwidth;

    /// Echo host: replies to any datagram; counts receptions.
    #[derive(Default)]
    struct Echo {
        received: Vec<(NodeId, Bytes)>,
        timers: Vec<TimerKey>,
        echo: bool,
    }

    impl Host for Echo {
        fn on_datagram(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
            self.received.push((from, payload.clone()));
            if self.echo {
                ctx.send(from, payload);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, key: TimerKey) {
            self.timers.push(key);
        }
    }

    fn link() -> LinkConfig {
        LinkConfig {
            delay: SimDuration::from_millis(5),
            bandwidth: Bandwidth::from_mbps(100),
            queue_bytes: 1 << 20,
            loss: crate::link::LossModel::None,
            jitter: SimDuration::ZERO,
        }
    }

    #[test]
    fn datagram_roundtrip_with_echo() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.add_host(
            b,
            Echo {
                echo: true,
                ..Default::default()
            },
        );
        sim.add_duplex(a, b, link());
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"ping")));
        // RTT ≈ 2 * (prop + tx) ≈ just over 10 ms: not yet done at 9 ms…
        sim.run_until(SimTime::from_millis(9));
        assert_eq!(sim.host(a).unwrap().received.len(), 0);
        // …complete by 12 ms.
        sim.run_until(SimTime::from_millis(12));
        assert_eq!(sim.host(b).unwrap().received.len(), 1);
        let a_host = sim.host(a).unwrap();
        assert_eq!(a_host.received.len(), 1);
        assert_eq!(&a_host.received[0].1[..], b"ping");
        assert_eq!(sim.now(), SimTime::from_millis(12));
    }

    #[test]
    fn timers_fire_in_order() {
        let a = NodeId::new(1);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.with_host(a, |_, ctx| {
            ctx.set_timer_after(SimDuration::from_millis(20), 2);
            ctx.set_timer_after(SimDuration::from_millis(10), 1);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.host(a).unwrap().timers, vec![1, 2]);
    }

    #[test]
    fn send_without_link_counts_no_route() {
        let a = NodeId::new(1);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.with_host(a, |_, ctx| ctx.send(NodeId::new(99), Bytes::from_static(b"x")));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.no_route_drops, 1);
    }

    #[test]
    fn lossy_link_drops_some() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(5);
        sim.add_host(a, Echo::default());
        sim.add_host(b, Echo::default());
        let mut cfg = link();
        cfg.loss = crate::link::LossModel::Bernoulli { p: 0.5 };
        sim.add_duplex(a, b, cfg);
        for _ in 0..200 {
            sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"d")));
        }
        sim.run_until(SimTime::from_secs(1));
        let got = sim.host(b).unwrap().received.len();
        assert!(got > 50 && got < 150, "got={got}");
        let stats = sim.link_stats(a, b).unwrap();
        assert_eq!(stats.delivered as usize, got);
        assert_eq!(stats.attempts(), 200);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let a = NodeId::new(1);
            let b = NodeId::new(2);
            let mut sim = NetSim::new(seed);
            sim.add_host(a, Echo::default());
            sim.add_host(b, Echo::default());
            let mut cfg = link();
            cfg.loss = crate::link::LossModel::Bernoulli { p: 0.3 };
            cfg.jitter = SimDuration::from_millis(2);
            sim.add_duplex(a, b, cfg);
            for _ in 0..100 {
                sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"d")));
            }
            sim.run_until(SimTime::from_secs(1));
            sim.host(b).unwrap().received.len()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10)); // and seeds matter (w.h.p.)
    }

    #[test]
    fn crashed_host_blackholes_and_restart_revives() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.add_host(b, Echo::default());
        sim.add_duplex(a, b, link());
        sim.schedule_fault(SimTime::from_millis(100), FaultKind::NodeCrash { node: b });
        sim.schedule_fault(SimTime::from_millis(300), FaultKind::NodeRestart { node: b });
        // Before the crash: delivered.
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"1")));
        sim.run_until(SimTime::from_millis(150));
        assert_eq!(sim.host(b).unwrap().received.len(), 1);
        assert!(sim.node_is_down(b));
        // During the outage: blackholed, and with_host refuses the victim.
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"2")));
        assert!(sim.with_host(b, |_, _| ()).is_none());
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(sim.host(b).unwrap().received.len(), 1);
        assert_eq!(sim.fault_drops, 1);
        // After restart: delivered again.
        sim.run_until(SimTime::from_millis(350));
        assert!(!sim.node_is_down(b));
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"3")));
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(sim.host(b).unwrap().received.len(), 2);
    }

    #[test]
    fn crash_cancels_pre_crash_timers() {
        let a = NodeId::new(1);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.with_host(a, |_, ctx| {
            ctx.set_timer_after(SimDuration::from_millis(50), 1);
            ctx.set_timer_after(SimDuration::from_millis(500), 2);
        });
        sim.schedule_fault(SimTime::from_millis(100), FaultKind::NodeCrash { node: a });
        sim.schedule_fault(SimTime::from_millis(200), FaultKind::NodeRestart { node: a });
        sim.run_until(SimTime::from_secs(1));
        // Timer 1 fired before the crash; timer 2 was cancelled by it even
        // though the node was back up at its expiry.
        assert_eq!(sim.host(a).unwrap().timers, vec![1]);
    }

    #[test]
    fn link_down_drops_until_link_up() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.add_host(b, Echo::default());
        sim.add_duplex(a, b, link());
        sim.schedule_fault(SimTime::from_millis(10), FaultKind::LinkDown { from: a, to: b });
        sim.schedule_fault(SimTime::from_millis(100), FaultKind::LinkUp { from: a, to: b });
        sim.run_until(SimTime::from_millis(20));
        assert!(!sim.link_is_up(a, b));
        assert!(sim.link_is_up(b, a)); // directional
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        sim.run_until(SimTime::from_millis(90));
        assert_eq!(sim.host(b).unwrap().received.len(), 0);
        assert_eq!(sim.link_stats(a, b).unwrap().lost_down, 1);
        sim.run_until(SimTime::from_millis(110));
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"y")));
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sim.host(b).unwrap().received.len(), 1);
    }

    #[test]
    fn loss_burst_applies_and_restores_model() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(3);
        sim.add_host(a, Echo::default());
        sim.add_host(b, Echo::default());
        sim.add_duplex(a, b, link());
        let mut plan = FaultPlan::new();
        plan.loss_burst(
            SimTime::from_millis(100),
            SimDuration::from_millis(200),
            a,
            b,
            1.0,
        );
        sim.schedule_fault_plan(&plan);
        sim.run_until(SimTime::from_millis(150));
        for _ in 0..20 {
            sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        }
        sim.run_until(SimTime::from_millis(290));
        assert_eq!(sim.host(b).unwrap().received.len(), 0); // all lost in burst
        sim.run_until(SimTime::from_millis(310));
        for _ in 0..20 {
            sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"x")));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.host(b).unwrap().received.len(), 20); // model restored
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let a = NodeId::new(1);
            let b = NodeId::new(2);
            let mut sim = NetSim::new(11);
            sim.add_host(a, Echo::default());
            sim.add_host(b, Echo { echo: true, ..Default::default() });
            let mut cfg = link();
            cfg.loss = crate::link::LossModel::Bernoulli { p: 0.2 };
            sim.add_duplex(a, b, cfg);
            let mut plan = FaultPlan::new();
            plan.outage(
                SimTime::from_millis(40),
                SimDuration::from_millis(30),
                b,
            );
            plan.loss_burst(
                SimTime::from_millis(90),
                SimDuration::from_millis(40),
                a,
                b,
                0.9,
            );
            sim.schedule_fault_plan(&plan);
            for i in 0..200u64 {
                sim.run_until(SimTime::from_millis(i));
                sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"d")));
            }
            sim.run_until(SimTime::from_secs(1));
            (
                sim.host(a).unwrap().received.len(),
                sim.host(b).unwrap().received.len(),
                sim.fault_drops,
                sim.link_stats(a, b).unwrap().lost_down,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn telemetry_mirrors_link_and_fault_counters() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(5);
        sim.add_host(a, Echo::default());
        sim.add_host(b, Echo::default());
        let mut cfg = link();
        cfg.loss = crate::link::LossModel::Bernoulli { p: 0.5 };
        sim.add_duplex(a, b, cfg);
        sim.schedule_fault(SimTime::from_millis(500), FaultKind::NodeCrash { node: b });
        sim.schedule_fault(SimTime::from_millis(600), FaultKind::NodeRestart { node: b });
        for _ in 0..100 {
            sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"d")));
        }
        sim.with_host(a, |_, ctx| ctx.send(NodeId::new(99), Bytes::from_static(b"x")));
        sim.run_until(SimTime::from_secs(1));
        let snap = sim.telemetry_snapshot();
        let stats = sim.link_stats(a, b).unwrap();
        assert_eq!(snap.counter("emu.delivered"), stats.delivered);
        assert_eq!(snap.counter("emu.lost_random"), stats.lost_random);
        assert_eq!(snap.counter("emu.no_route_drops"), sim.no_route_drops);
        assert_eq!(snap.counter("emu.fault.node_crash"), 1);
        assert_eq!(snap.counter("emu.fault.node_restart"), 1);
        // The no-route send never reached a link, so only the 100 link
        // offers produced queue-depth observations.
        assert_eq!(snap.hist("emu.queue_depth_pkts").unwrap().count, 100);
    }

    #[test]
    fn host_removal_discards_events() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sim = NetSim::new(1);
        sim.add_host(a, Echo::default());
        sim.add_host(b, Echo::default());
        sim.add_duplex(a, b, link());
        sim.with_host(a, |_, ctx| ctx.send(b, Bytes::from_static(b"late")));
        sim.hosts.remove(&b);
        sim.run_until(SimTime::from_secs(1)); // must not panic
    }
}
