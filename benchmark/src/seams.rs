//! Every call the benchmark makes into the repo's crates, in one file.
//!
//! The workloads and per-layer probes elsewhere in this package never name
//! a `livenet_*` path: they go through the functions and re-exports here,
//! so a refactor of the crates touches this file and no other. Each call
//! into a layer is wrapped in a span (`<crate>.<function>`); the spans
//! cost one thread-local read while tracing is off.
//!
//! Bound surfaces (ROADMAP item 2 keeps all of them): `OverlayNode`,
//! `NodeAction`, `OverlayMsg`, `NetSim`/`Host`, `StreamingBrain`,
//! `BrainCluster`, `FleetConfigBuilder`/`FleetRunner`/`FleetSim::new_shard`,
//! `Workload`, `UdpOverlayNode::spawn_wire`, `BatchSocket`, and the codec,
//! pacer, telemetry and topology types those take as arguments.

use crate::trace::span;

pub use fleet::*;

/// `livenet-sim`'s fleet simulator: whole simulated days of sessions over
/// the real control plane.
mod fleet {
    use super::span;
    use livenet_sim::workload::Workload;
    use livenet_sim::{
        FleetConfig, FleetConfigBuilder, FleetReport, FleetRunner, FleetSim, ReplicationConfig,
        SessionRecord, ShardPlan,
    };

    /// The CDN's geography is infrastructure, not workload: it is the same
    /// on every run, and `--seed` draws the channels, viewers and arrivals
    /// on top of it. (A different geography per seed moves the cost of a
    /// minute tick by several percent, which would drown a small change.)
    pub const GEO_SEED: u64 = 20_221_122;

    /// The three ways the benchmark loads `sim::fleet`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FleetKind {
        /// Paper-scale geography at half its demand: the minute tick dominates.
        Ticks,
        /// Mega-scale demand on a half-size geography: arrivals dominate.
        Sessions,
        /// Smoke geography behind a Paxos-replicated Brain.
        Replicated,
    }

    /// One validated fleet configuration, ready to run.
    pub struct Fleet {
        runner: FleetRunner,
    }

    /// What the benchmark reads out of a `FleetReport`.
    #[derive(Debug, Clone, Default)]
    pub struct FleetOutcome {
        pub sessions: u64,
        pub hier_sessions: u64,
        /// LiveNet records with a non-finite field.
        pub invalid: u64,
        pub skipped_offline: u64,
        pub streaming_delay_ms_p50: f64,
        pub fast_startup_share: f64,
        pub zero_stall_share: f64,
        pub recompute_rounds: u64,
        /// Paxos slots decided, lease renewals among them, and
        /// inter-replica messages sent (replicated runs).
        pub slots_decided: u64,
        pub lease_renewals: u64,
        pub msgs_sent: u64,
        pub log_divergences: u64,
    }

    impl Fleet {
        pub fn new(kind: FleetKind, seed: u64) -> Fleet {
            let builder = match kind {
                // paper_scale's geography on one shard at half its arrival
                // rate: the 1440 minute ticks are then over 80 % of a
                // simulated day (74 % at the full rate).
                FleetKind::Ticks => FleetConfigBuilder::paper_scale(seed)
                    .days(1)
                    .festival(vec![], 2.0)
                    .peak_arrivals_per_sec(0.8)
                    .shards(1),
                // mega_scale's demand mix at half its arrival rate and half
                // its node count: a simulated day then costs ~2 s instead
                // of ~9 s, and ticks stay the minority of it.
                FleetKind::Sessions => FleetConfigBuilder::mega_scale(seed)
                    .days(1)
                    .festival(vec![0], 2.0)
                    .nodes(30)
                    .peak_arrivals_per_sec(6.0)
                    .shards(1),
                FleetKind::Replicated => FleetConfigBuilder::smoke(seed)
                    .shards(2)
                    .replication(ReplicationConfig::default()),
            };
            let config = builder
                .tweak(|c| c.geo.seed = GEO_SEED)
                .build()
                .expect("benchmark fleet preset is valid");
            let fleet = Fleet {
                runner: FleetRunner::new(config).expect("validated above"),
            };
            // Everything a run builds before its first event — topology,
            // Brain and first PIB, channel schedule — so that work moved
            // out of the run and into construction shows in `setup_s`.
            for plan in fleet.runner.plans() {
                let _s = span("sim.new_shard", plan.index as u64);
                std::hint::black_box(FleetSim::new_shard(fleet.runner.config().clone(), &plan));
            }
            fleet
        }

        /// The same fleet with (almost) nobody watching: what is left is
        /// the per-shard minute tick, stream starts and ends.
        pub fn quiet(&self) -> Fleet {
            self.with(|c| c.workload.peak_arrivals_per_sec = 1e-9)
        }

        /// The same fleet on a single in-process Brain.
        pub fn unreplicated(&self) -> Fleet {
            self.with(|c| c.replication = None)
        }

        fn with(&self, f: impl FnOnce(&mut FleetConfig)) -> Fleet {
            let config = FleetConfigBuilder::from_config(self.runner.config().clone())
                .tweak(f)
                .build()
                .expect("variant of a valid preset");
            Fleet {
                runner: FleetRunner::new(config).expect("validated above"),
            }
        }

        pub fn shards(&self) -> usize {
            self.runner.plans().len()
        }

        pub fn shard_minutes(&self) -> u64 {
            self.shards() as u64 * u64::from(self.runner.config().workload.days) * 1440
        }

        /// Mean of the arrival process over the configured window.
        pub fn expected_sessions(&self) -> f64 {
            let cfg = self.runner.config();
            Workload::new(cfg.workload.clone(), cfg.geo.countries).expected_sessions() as f64
        }

        /// One whole run through the public facade: every shard on this
        /// thread, then the merge.
        pub fn run_serial(&self, id: u64) -> FleetRun {
            let _s = span("sim.run_serial", id);
            FleetRun(self.runner.run_serial())
        }

        pub fn run_parallel(&self, threads: usize) -> FleetRun {
            let _s = span("sim.run_parallel", threads as u64);
            FleetRun(self.runner.run_parallel(threads))
        }

        /// Each shard built and run on its own; wall seconds per shard.
        pub fn run_shards_timed(&self) -> Vec<f64> {
            let plans: Vec<ShardPlan> = self.runner.plans();
            plans
                .iter()
                .map(|plan| {
                    let t = std::time::Instant::now();
                    let sim = {
                        let _s = span("sim.new_shard", plan.index as u64);
                        FleetSim::new_shard(self.runner.config().clone(), plan)
                    };
                    let _s = span("sim.shard_run", plan.index as u64);
                    std::hint::black_box(sim.run());
                    t.elapsed().as_secs_f64()
                })
                .collect()
        }

        /// Draw every session the workload generator would; (count, wall
        /// ns per session).
        pub fn replay_workload(&self) -> (u64, f64) {
            let cfg = self.runner.config();
            let mut w = Workload::new(cfg.workload.clone(), cfg.geo.countries);
            let t = std::time::Instant::now();
            let mut n = 0u64;
            while let Some(s) = w.next_session() {
                std::hint::black_box(s);
                n += 1;
            }
            (n, t.elapsed().as_nanos() as f64 / n.max(1) as f64)
        }
    }

    fn finite(r: &SessionRecord) -> bool {
        r.cdn_delay_ms.is_finite()
            && r.streaming_delay_ms.is_finite()
            && r.first_packet_ms.is_finite()
            && r.startup_ms.is_finite()
    }

    /// A finished run; reading it out is kept off the timed path.
    pub struct FleetRun(FleetReport);

    impl FleetRun {
        pub fn sessions(&self) -> u64 {
            self.0.livenet.len() as u64
        }

        pub fn outcome(&self) -> FleetOutcome {
            outcome(&self.0)
        }
    }

    fn outcome(report: &FleetReport) -> FleetOutcome {
        let n = report.livenet.len();
        let mut delays: Vec<f64> = report
            .livenet
            .iter()
            .map(|r| f64::from(r.streaming_delay_ms))
            .filter(|d| d.is_finite())
            .collect();
        delays.sort_by(f64::total_cmp);
        let share = |hits: usize| hits as f64 / n.max(1) as f64;
        let rep = report.replication.as_ref();
        FleetOutcome {
            sessions: n as u64,
            hier_sessions: report.hier.len() as u64,
            invalid: report.livenet.iter().filter(|r| !finite(r)).count() as u64,
            skipped_offline: report.skipped_offline,
            streaming_delay_ms_p50: if delays.is_empty() {
                0.0
            } else {
                crate::stats::quantile_sorted(&delays, 0.5)
            },
            fast_startup_share: share(report.livenet.iter().filter(|r| r.fast_startup()).count()),
            zero_stall_share: share(report.livenet.iter().filter(|r| r.zero_stall()).count()),
            recompute_rounds: report.recompute_rounds,
            slots_decided: rep.map_or(0, |r| r.decided_slots),
            lease_renewals: rep.map_or(0, |r| r.lease_renewals),
            msgs_sent: rep.map_or(0, |r| r.msgs_sent),
            log_divergences: rep.map_or(0, |r| r.log_divergences),
        }
    }
}

pub use control_probes::*;

/// Probes of the layers a fleet session touches beside `sim` itself:
/// telemetry recording, the Hier baseline's path choice, topology
/// generation, and one Paxos decree.
mod control_probes {
    use crate::probes::ns_per_call;
    use crate::report::RunResult;
    use livenet_brain::BrainConfig;
    use livenet_hier::{HierController, HierRoles};
    use livenet_replication::{BrainCluster, BrainOp, ClusterConfig};
    use livenet_telemetry::{ids, MetricSink, TelemetryHub};
    use livenet_topology::{GeoConfig, GeoTopology};
    use livenet_types::{NodeId, SimTime, StreamId};
    use std::hint::black_box;
    use std::time::Instant;

    /// `telemetry.*`: the per-session recording calls, a snapshot and a
    /// merge of a hub the size a fleet shard ends with.
    pub fn probe_telemetry(r: &mut RunResult) {
        let mut hub = TelemetryHub::new();
        let calls = 200_000;
        let ns = ns_per_call(5, calls, || hub.add(ids::FLEET_SESSIONS, black_box(1)));
        r.put("telemetry.counter_add_ns", ns, 5 * calls as u64);
        let mut v = 0.0f64;
        let ns = ns_per_call(5, calls, || {
            v = (v + 37.0) % 4_000.0;
            hub.observe(ids::STAGE_STARTUP_MS, black_box(v));
        });
        r.put("telemetry.hist_observe_ns", ns, 5 * calls as u64);
        for id in [
            ids::STAGE_FIRST_PACKET_MS,
            ids::STAGE_CDN_PATH_MS,
            ids::STAGE_STREAMING_MS,
            ids::STAGE_BRAIN_LOOKUP_MS,
        ] {
            hub.observe(id, 10.0);
        }
        let ns = ns_per_call(5, 2_000, || drop(black_box(hub.snapshot())));
        r.put("telemetry.snapshot_us", ns / 1e3, 10_000);
        let other = hub.snapshot();
        let mut merged = hub.snapshot();
        let ns = ns_per_call(5, 2_000, || merged.merge(black_box(&other)));
        r.put("telemetry.merge_us", ns / 1e3, 10_000);
    }

    /// `topology.*` and `hier.path_for_ns` on the paper-scale geography.
    pub fn probe_hier_and_topology(r: &mut RunResult) {
        let cfg = GeoConfig::paper_scale(1);
        let ns = ns_per_call(5, 4, || drop(black_box(GeoTopology::generate(&cfg))));
        r.put("topology.generate_ms", ns / 1e6, 20);
        let geo = GeoTopology::generate(&cfg);
        r.put("topology.nodes", geo.topology.node_count() as f64, 1);

        let edges: Vec<NodeId> = geo.topology.routable_node_ids().collect();
        let mut hier = HierController::new(HierRoles::assign(&geo.topology, 2));
        let stream = StreamId::new(1);
        hier.register_stream(&geo.topology, stream, edges[0])
            .expect("paper-scale geography has hubs");
        let mut i = 0;
        let calls = 20_000;
        let ns = ns_per_call(5, calls, || {
            i = (i + 1) % edges.len();
            let _ = black_box(hier.path_for(&geo.topology, stream, edges[i]));
        });
        r.put("hier.path_for_ns", ns, 5 * calls as u64);
    }

    /// `replication.decree_us`: wall time of one `BrainCluster::replicate`
    /// on the smoke geography, 100 simulated ms apart so lease renewals
    /// are paid for at the rate a fleet shard pays them.
    pub fn probe_decree_us() -> (f64, u64) {
        let geo = GeoTopology::generate(&GeoConfig {
            nodes: 18,
            countries: 5,
            ..GeoConfig::paper_scale(1)
        });
        let producer = geo.topology.routable_node_ids().next().expect("nodes");
        let mut cluster = BrainCluster::new(
            &geo.topology,
            &BrainConfig::default(),
            ClusterConfig::default(),
        );
        let decrees = 300u64;
        let t = Instant::now();
        for i in 0..decrees {
            let op = BrainOp::RegisterStream {
                stream: StreamId::new(i + 1),
                producer,
            };
            cluster
                .replicate(&op, SimTime::from_millis(1_000 + 100 * i))
                .expect("a healthy cluster commits");
        }
        (t.elapsed().as_micros() as f64 / decrees as f64, decrees)
    }
}

pub use control::*;

/// `livenet-brain` alone: the Streaming Brain on the paper-scale
/// geography, driven the way a fleet of consumer nodes drives it.
mod control {
    use super::span;
    use crate::gen::{Request, Rng};
    use livenet_brain::{BrainConfig, StreamingBrain};
    use livenet_topology::view::report_from_topology;
    use livenet_topology::{GeoConfig, GeoTopology, NodeReport};
    use livenet_types::{NodeId, SimTime, StreamId};
    use std::collections::BTreeSet;
    use std::time::Instant;

    pub const BRAIN_STREAMS: usize = 400;
    /// Length of the scripted cycle of reports and failures, minutes.
    pub const CYCLE_MINUTES: usize = 60;

    /// What one path request returned, already checked.
    #[derive(Debug, Clone, Copy)]
    pub struct Served {
        /// Wall time of the `path_request` call alone.
        pub ns: u64,
        /// The call returned paths that run producer → consumer within the
        /// hop limit and avoid every failed node.
        pub valid: bool,
        pub last_resort: bool,
        /// Round-trip time of the best path, ms (simulated).
        pub best_rtt_ms: f64,
    }

    pub struct BrainBench {
        brain: StreamingBrain,
        streams: Vec<(StreamId, NodeId)>,
        edges: Vec<NodeId>,
        /// One set of node reports per minute of the cycle.
        minutes: Vec<Vec<NodeReport>>,
        down: BTreeSet<NodeId>,
        max_hops: usize,
        victim: NodeId,
        region: u32,
    }

    impl BrainBench {
        pub fn new(seed: u64) -> BrainBench {
            let geo = GeoTopology::generate(&GeoConfig::paper_scale(seed));
            let mut truth = geo.topology.clone();
            let config = BrainConfig::default();
            let max_hops = config.routing.max_hops;
            let mut brain = {
                let _s = span("brain.new", 0);
                StreamingBrain::new(geo.topology, config)
            };
            let edges: Vec<NodeId> = truth.routable_node_ids().collect();

            let mut rng = Rng::new(seed, "brain-streams");
            let streams: Vec<(StreamId, NodeId)> = (0..BRAIN_STREAMS)
                .map(|i| {
                    let stream = StreamId::new(1_000 + 10 * i as u64);
                    let producer = edges[rng.below(edges.len() as u64) as usize];
                    brain.register_stream(stream, producer);
                    // The Zipf head is the popular (prefetched) set.
                    if i < BRAIN_STREAMS / 20 {
                        brain.mark_popular(stream);
                    }
                    (stream, producer)
                })
                .collect();

            // A cycle of minute reports from a ground truth whose load
            // drifts, with the occasional node or link past the 80 %
            // overload target so alarms invalidate PIB entries and some
            // requests fall to last-resort paths.
            let mut rng = Rng::new(seed, "brain-reports");
            let minutes = (0..CYCLE_MINUTES)
                .map(|_| {
                    for n in truth.nodes_mut() {
                        n.utilization = if rng.below(200) == 0 {
                            0.85 + 0.1 * rng.f64()
                        } else {
                            0.1 + 0.4 * rng.f64()
                        };
                    }
                    for (_, _, l) in truth.links_mut() {
                        l.utilization = if rng.below(5_000) == 0 {
                            0.85 + 0.1 * rng.f64()
                        } else {
                            0.05 + 0.5 * rng.f64()
                        };
                    }
                    edges
                        .iter()
                        .filter_map(|&n| report_from_topology(&truth, n, SimTime::ZERO))
                        .collect()
                })
                .collect();

            let victim = edges[rng.below(edges.len() as u64) as usize];
            let region = truth.node(victim).map_or(0, |n| n.country + 1) % 12;
            BrainBench {
                brain,
                streams,
                edges,
                minutes,
                down: BTreeSet::new(),
                max_hops,
                victim,
                region,
            }
        }

        pub fn consumers(&self) -> usize {
            self.edges.len()
        }

        /// Serve one request at `now`, or `None` when its producer or
        /// consumer is currently failed (a dead node asks for nothing).
        pub fn path_request(&mut self, req: Request, id: u64, now: SimTime) -> Option<Served> {
            let (stream, producer) = self.streams[req.stream as usize];
            let consumer = self.edges[req.consumer as usize];
            if self.down.contains(&producer) || self.down.contains(&consumer) {
                return None;
            }
            let _s = span("brain.path_request", id);
            let t = Instant::now();
            let answer = self.brain.path_request(stream, consumer, now);
            let ns = t.elapsed().as_nanos() as u64;
            drop(_s);
            Some(match answer {
                Ok(a) => Served {
                    ns,
                    valid: !a.paths.is_empty()
                        && a.paths.iter().all(|p| {
                            p.nodes.first() == Some(&producer)
                                && p.nodes.last() == Some(&consumer)
                                && p.nodes.len() <= self.max_hops + 1
                                && !p.nodes.iter().any(|n| self.down.contains(n))
                        }),
                    last_resort: a.last_resort,
                    best_rtt_ms: self
                        .brain
                        .topology()
                        .path_rtt(&a.best().nodes)
                        .map_or(0.0, |d| d.as_millis_f64()),
                },
                Err(_) => Served {
                    ns,
                    valid: false,
                    last_resort: false,
                    best_rtt_ms: 0.0,
                },
            })
        }

        /// The control-plane work of simulated minute `minute`: absorb
        /// that minute's reports, run the periodic recompute check, and
        /// play the failure script. Returns the number of Brain calls.
        pub fn minute_tick(&mut self, minute: u64, now: SimTime) -> u64 {
            let slot = (minute % CYCLE_MINUTES as u64) as usize;
            let mut calls = 0;
            for report in &mut self.minutes[slot] {
                report.at = now;
                let _s = span("brain.absorb_report", minute);
                std::hint::black_box(self.brain.absorb_report(report));
                calls += 1;
            }
            {
                let _s = span("brain.maybe_recompute", minute);
                self.brain.maybe_recompute(now);
            }
            calls += 1;
            match slot {
                15 => {
                    let _s = span("brain.node_failed", minute);
                    self.brain.node_failed(self.victim);
                    self.down.insert(self.victim);
                }
                25 => {
                    let _s = span("brain.node_recovered", minute);
                    self.brain.node_recovered(self.victim);
                    self.down.remove(&self.victim);
                }
                35 => {
                    let _s = span("brain.region_failed", minute);
                    self.down.extend(self.brain.region_failed(self.region));
                }
                45 => {
                    let _s = span("brain.region_recovered", minute);
                    for n in self.brain.region_recovered(self.region) {
                        self.down.remove(&n);
                    }
                }
                _ => return calls,
            }
            calls + 1
        }

        pub fn recompute_rounds(&self) -> u64 {
            self.brain.recompute_rounds
        }
    }

    /// `brain.*` per-call costs on a fresh paper-scale Brain: PIB hits,
    /// last-resort fallbacks, registration, a full recompute, a prefetch.
    pub fn probe_brain(seed: u64, r: &mut crate::report::RunResult) {
        use crate::alloc;
        use crate::probes::ns_per_call;
        use livenet_brain::discovery::OverloadAlarm;
        use std::hint::black_box;

        let geo = GeoTopology::generate(&GeoConfig::paper_scale(seed));
        let edges: Vec<NodeId> = geo.topology.routable_node_ids().collect();
        let mut brain = StreamingBrain::new(geo.topology, BrainConfig::default());
        let now = SimTime::from_secs(60);

        let mut i = 0u64;
        let calls = 50_000;
        let ns = ns_per_call(5, calls, || {
            i += 1;
            brain.register_stream(StreamId::new(i % 4_096), edges[(i % 7) as usize]);
        });
        r.put("brain.register_stream_ns", ns, 5 * calls as u64);

        // Stream s is produced on edge s mod 7; consumers come from the
        // other edges, so every lookup is a real PIB lookup.
        let consumers = &edges[7..];
        let before = alloc::snapshot();
        let ns = ns_per_call(5, calls, || {
            i += 1;
            let consumer = consumers[(i % consumers.len() as u64) as usize];
            let _ = black_box(brain.path_request(StreamId::new(i % 4_096), consumer, now));
        });
        let (allocs, _) = alloc::snapshot().since(&before);
        r.put("brain.path_request_hit_ns", ns, 5 * calls as u64);
        r.put(
            "brain.path_request_allocs",
            allocs as f64 / (5 * calls) as f64,
            5 * calls as u64,
        );

        // An overload alarm empties the victim's PIB rows: requests from
        // it fall back to last-resort construction.
        let victim = consumers[0];
        brain.overload_alarm(OverloadAlarm::Node(victim));
        let calls = 20_000;
        let ns = ns_per_call(5, calls, || {
            i += 1;
            let _ = black_box(brain.path_request(StreamId::new(i % 4_096), victim, now));
        });
        r.put("brain.path_request_last_resort_ns", ns, 5 * calls as u64);

        let ns = ns_per_call(3, 1, || brain.force_recompute(now));
        r.put("brain.force_recompute_ms", ns / 1e6, 3);

        let popular = StreamId::new(1);
        brain.mark_popular(popular);
        let ns = ns_per_call(5, 20, || {
            drop(black_box(brain.prefetch_paths(popular, now)))
        });
        r.put("brain.prefetch_paths_us", ns / 1e3, 100);
    }
}

/// Simulated time `secs` seconds after the start of a run.
pub fn sim_secs(secs: u64) -> livenet_types::SimTime {
    livenet_types::SimTime::from_secs(secs)
}

pub use dataplane::*;

/// `livenet-node` on `livenet-emu`: benchmark-owned hosts around
/// `OverlayNode` and around an emulated viewer, on a fixed relay tree
///
/// ```text
///            P(1)
///          /      \
///      R1(2)      R2(3)         every R also links to every C, so a
///      /   \      /   \         consumer has a backup path (and an
///   C1(4) C2(5) C3(6) C4(7)     alternate RTX supplier) through the other R
/// ```
///
/// with four 2 Mbps / 30 fps streams ingested at P.
mod dataplane {
    use super::span;
    use crate::gen::Viewer;
    use crate::stats::{Hist, Samples};
    use bytes::Bytes;
    use livenet_emu::{Ctx, Host, LinkConfig, LossModel, NetSim};
    use livenet_media::{GopConfig, VideoEncoder};
    use livenet_node::{
        NodeAction, NodeConfig, NodeEvent, NodeStats, OverlayMsg, OverlayNode, Subscriber,
    };
    use livenet_packet::rtp::ssrc_for_stream;
    use livenet_packet::{Depacketizer, Nack, ReceiverReport, RtcpPacket, RtpPacket};
    use livenet_types::{Bandwidth, ClientId, NodeId, SeqNo, SimDuration, SimTime, StreamId};
    use std::collections::BTreeMap;
    use std::time::Instant;

    pub const RELAY_STREAMS: usize = 4;
    pub const RELAY_CONSUMERS: usize = 4;
    pub const FPS: u32 = 30;
    const GOP_FRAMES: u32 = 60;
    /// RTP clock ticks per frame at 30 fps.
    const TICKS_PER_FRAME: u32 = 90_000 / FPS;
    /// Streams start half a second apart so their I frames never coincide.
    const STREAM_STAGGER_MS: u64 = 500;

    const PRODUCER: NodeId = NodeId::new(1);
    const RELAYS: [NodeId; 2] = [NodeId::new(2), NodeId::new(3)];
    const VIEWER_HOST_OFFSET: u64 = 1_000_000;
    /// Timer keys above every packed `TimerKind`: the benchmark's own.
    const KEY_FRAME: u64 = 0xFF << 56;
    const KEY_VIEWER_SCAN: u64 = 0xFE << 56;

    fn consumer(i: usize) -> NodeId {
        NodeId::new(4 + i as u64)
    }

    fn stream(i: usize) -> StreamId {
        StreamId::new(100 + i as u64)
    }

    fn stream_start(i: usize) -> SimTime {
        SimTime::from_millis(STREAM_STAGGER_MS * i as u64)
    }

    /// The seven overlay nodes, producer first.
    fn node_ids() -> impl Iterator<Item = NodeId> {
        std::iter::once(PRODUCER)
            .chain(RELAYS)
            .chain((0..RELAY_CONSUMERS).map(consumer))
    }

    fn viewer_host(client: ClientId) -> NodeId {
        NodeId::new(VIEWER_HOST_OFFSET + client.raw())
    }

    /// Producer-first paths ending at consumer `c`: the primary through
    /// its own relay, the backup through the other.
    fn paths_to(c: usize) -> [Vec<NodeId>; 2] {
        let own = RELAYS[c / 2];
        let other = RELAYS[1 - c / 2];
        [
            vec![PRODUCER, own, consumer(c)],
            vec![PRODUCER, other, consumer(c)],
        ]
    }

    /// What an overlay-node host accumulates while the emulator runs it.
    #[derive(Default)]
    pub struct NodeTally {
        /// Callbacks into `OverlayNode` and their summed wall time.
        pub calls: u64,
        pub busy_ns: u64,
        pub datagrams: u64,
        pub actions: u64,
        /// Datagrams that are not fresh media: retransmissions, NACKs and
        /// cache-miss replies (classified in traced runs only).
        pub slow_datagrams: u64,
        /// `HoleRecovered.after`, ms.
        pub recovery_ms: Vec<f64>,
    }

    struct NodeHost {
        node: OverlayNode,
        /// Encoders of the streams ingested here (the producer only).
        encoders: Vec<VideoEncoder>,
        zeros: Bytes,
        tally: NodeTally,
        /// Wall time of each `on_datagram` / `on_client_datagram` call
        /// since the benchmark last took them.
        service: Hist,
    }

    /// An emulated viewer: reassembles frames, NACKs holes, reports loss.
    struct ViewerHost {
        client: ClientId,
        consumer: NodeId,
        stream_index: usize,
        depack: Depacketizer,
        attached_at: SimTime,
        /// When it detached, ms; `None` while it watches.
        left_ms: Option<u64>,
        first_frame_at: Option<SimTime>,
        /// Frame index → capture-to-completion delay in ms (the first
        /// completion: a retransmitted duplicate can complete one twice).
        frames: BTreeMap<u32, f64>,
        highest: Option<SeqNo>,
        /// Missing seq → (when noticed, NACKs sent, last NACK).
        holes: BTreeMap<u16, (SimTime, u32, SimTime)>,
        received_since_rr: u64,
        first_seq_since_rr: Option<SeqNo>,
        scans: u64,
        calls: u64,
    }

    #[allow(clippy::large_enum_variant)] // one per simulated machine, never moved
    enum BenchHost {
        Node(NodeHost),
        Viewer(ViewerHost),
    }

    impl NodeHost {
        fn apply(&mut self, ctx: &mut Ctx, actions: Vec<NodeAction>) {
            self.tally.actions += actions.len() as u64;
            let now = ctx.now();
            for a in actions {
                match a {
                    NodeAction::Send { to, msg } => {
                        let dest = match to {
                            Subscriber::Node(n) => n,
                            Subscriber::Client(c) => viewer_host(c),
                        };
                        ctx.send(dest, msg.encode());
                    }
                    NodeAction::SetTimer { at, key } => ctx.set_timer_at(at.max(now), key),
                    NodeAction::Event(NodeEvent::HoleRecovered { after, .. }) => {
                        self.tally.recovery_ms.push(after.as_millis_f64());
                    }
                    NodeAction::Event(_) => {}
                }
            }
        }

        fn timed<R>(&mut self, f: impl FnOnce(&mut OverlayNode) -> R) -> (R, u64) {
            let t = Instant::now();
            let out = f(&mut self.node);
            let ns = t.elapsed().as_nanos() as u64;
            self.tally.calls += 1;
            self.tally.busy_ns += ns;
            (out, ns)
        }

        /// Traced runs only: is this datagram off the fast path?
        fn is_slow(payload: &Bytes) -> bool {
            let _s = span("bench.classify", 0);
            match OverlayMsg::decode(payload.clone()) {
                Ok(OverlayMsg::Rtp { retransmit, .. }) => retransmit,
                Ok(OverlayMsg::Rtcp { packet, .. }) => matches!(
                    RtcpPacket::decode(packet),
                    Ok(RtcpPacket::Nack(_) | RtcpPacket::RtxMiss(_))
                ),
                _ => false,
            }
        }
    }

    impl ViewerHost {
        fn capture_of(&self, frame_index: u32) -> SimTime {
            stream_start(self.stream_index)
                + SimDuration::from_nanos(u64::from(frame_index) * 1_000_000_000 / u64::from(FPS))
        }

        fn on_rtp(&mut self, now: SimTime, rtp: RtpPacket) {
            let seq = rtp.header.seq;
            self.received_since_rr += 1;
            self.first_seq_since_rr.get_or_insert(seq);
            match self.highest {
                None => self.highest = Some(seq),
                Some(h) if seq.newer_than(h) => {
                    let mut missing = h.next();
                    // A startup burst may jump far ahead of an older
                    // packet; only a short gap is loss.
                    if seq.distance(h) < 512 {
                        while missing != seq {
                            self.holes.insert(missing.0, (now, 0, SimTime::ZERO));
                            missing = missing.next();
                        }
                    }
                    self.highest = Some(seq);
                }
                Some(_) => {
                    self.holes.remove(&seq.0);
                }
            }
            self.depack.push(rtp);
            for frame in self.depack.drain() {
                let index = frame.timestamp / TICKS_PER_FRAME;
                let delay = now.saturating_since(self.capture_of(index)).as_millis_f64();
                self.first_frame_at.get_or_insert(now);
                self.frames.entry(index).or_insert(delay);
            }
            self.depack.gc(64);
        }

        /// Every 50 ms: NACK holes (at most 5 times, 100 ms apart) and,
        /// every tenth scan, send a receiver report.
        fn scan(&mut self, ctx: &mut Ctx) {
            if self.left_ms.is_some() {
                return;
            }
            let now = ctx.now();
            let stream = stream(self.stream_index);
            let retry = SimDuration::from_millis(100);
            let mut lost = Vec::new();
            self.holes.retain(|&seq, (_, nacks, last)| {
                if *nacks > 0 && now.saturating_since(*last) < retry {
                    return true;
                }
                if *nacks == 5 {
                    return false; // abandoned: the frame stays incomplete
                }
                *nacks += 1;
                *last = now;
                lost.push(SeqNo(seq));
                true
            });
            let mut feedback = Vec::new();
            if !lost.is_empty() {
                feedback.push(RtcpPacket::Nack(Nack {
                    ssrc: ssrc_for_stream(stream),
                    lost,
                }));
            }
            self.scans += 1;
            if self.scans.is_multiple_of(10) {
                if let (Some(first), Some(highest)) = (self.first_seq_since_rr, self.highest) {
                    let expected = (highest.distance(first) + 1).max(1) as f64;
                    feedback.push(RtcpPacket::ReceiverReport(ReceiverReport {
                        ssrc: ssrc_for_stream(stream),
                        loss_fraction: (1.0 - self.received_since_rr as f64 / expected)
                            .clamp(0.0, 1.0),
                        highest_seq: highest,
                        jitter_us: 0,
                    }));
                    self.received_since_rr = 0;
                    self.first_seq_since_rr = None;
                }
            }
            for rtcp in feedback {
                let msg = OverlayMsg::Rtcp {
                    stream,
                    packet: rtcp.encode(),
                };
                ctx.send(self.consumer, msg.encode());
            }
            ctx.set_timer_after(SimDuration::from_millis(50), KEY_VIEWER_SCAN);
        }
    }

    impl Host for BenchHost {
        fn on_datagram(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
            match self {
                BenchHost::Node(h) => {
                    h.tally.datagrams += 1;
                    if crate::trace::enabled() && NodeHost::is_slow(&payload) {
                        h.tally.slow_datagrams += 1;
                    }
                    let now = ctx.now();
                    let id = h.tally.datagrams;
                    let (actions, ns) = if from.raw() >= VIEWER_HOST_OFFSET {
                        let client = ClientId::new(from.raw() - VIEWER_HOST_OFFSET);
                        let _s = span("node.on_client_datagram", id);
                        h.timed(|n| n.on_client_datagram(now, client, payload))
                    } else {
                        let _s = span("node.on_datagram", id);
                        h.timed(|n| n.on_datagram(now, from, payload))
                    };
                    h.service.record(ns);
                    h.apply(ctx, actions);
                }
                BenchHost::Viewer(v) => {
                    let _s = span("bench.viewer", v.client.raw());
                    if let Ok(OverlayMsg::Rtp { packet, .. }) = OverlayMsg::decode(payload) {
                        if let Ok(rtp) = RtpPacket::decode(packet) {
                            v.on_rtp(ctx.now(), rtp);
                        }
                    }
                    v.calls += 1;
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
            match self {
                BenchHost::Node(h) if key & KEY_FRAME == KEY_FRAME => {
                    let i = (key & 0xFF) as usize;
                    let frame = h.encoders[i].next_frame();
                    let payload = h.zeros.slice(..frame.size_bytes as usize);
                    let now = ctx.now();
                    let (actions, _) = {
                        let _s = span("node.ingest_frame", frame.id.index);
                        h.timed(|n| n.ingest_frame(now, &frame, &payload))
                    };
                    h.apply(ctx, actions);
                    ctx.set_timer_at(h.encoders[i].next_capture_time(), key);
                }
                BenchHost::Node(h) => {
                    let now = ctx.now();
                    let (actions, _) = {
                        let _s = span("node.on_timer", key);
                        h.timed(|n| n.on_timer(now, key))
                    };
                    h.apply(ctx, actions);
                }
                BenchHost::Viewer(v) => {
                    let _s = span("bench.viewer", v.client.raw());
                    v.scan(ctx);
                    v.calls += 1;
                }
            }
        }

        fn on_start(&mut self, ctx: &mut Ctx) {
            if let BenchHost::Node(h) = self {
                let now = ctx.now();
                let actions = h.node.start(now);
                h.apply(ctx, actions);
                for i in 0..h.encoders.len() {
                    ctx.set_timer_at(h.encoders[i].next_capture_time(), KEY_FRAME | i as u64);
                }
            }
        }
    }

    /// The relay tree with its viewers, ready to run.
    pub struct Relay {
        sim: NetSim<BenchHost>,
        next_client: u64,
        /// Start of the timed window: frames captured earlier (the
        /// warm-up) are not counted as due.
        timed_from: SimTime,
    }

    /// Viewer-side totals at the end of a run.
    #[derive(Default)]
    pub struct ViewerTally {
        /// Frames captured while a viewer was watching, and those of them
        /// it completed.
        pub frames_due: u64,
        pub frames_completed: u64,
        pub frame_delay_ms: Samples,
        pub startup_ms: Samples,
        /// Emulator events delivered to viewers.
        pub calls: u64,
    }

    impl Relay {
        /// Build the tree, every link lossless.
        pub fn build(seed: u64) -> Relay {
            let mut sim = NetSim::new(seed);
            let backbone = LinkConfig::backbone(SimDuration::from_millis(10));
            let nodes: Vec<NodeId> = node_ids().collect();
            for &id in &nodes {
                let mut node = OverlayNode::new(NodeConfig::new(id));
                for &other in &nodes {
                    node.set_neighbor_rtt(other, backbone.rtt());
                }
                let encoders = if id == PRODUCER {
                    (0..RELAY_STREAMS)
                        .map(|i| {
                            node.register_producer(stream(i), None);
                            VideoEncoder::new(
                                stream(i),
                                GopConfig {
                                    fps: FPS,
                                    gop_frames: GOP_FRAMES,
                                    ..GopConfig::default()
                                },
                                Bandwidth::from_mbps(2),
                                stream_start(i),
                            )
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                sim.add_host(
                    id,
                    BenchHost::Node(NodeHost {
                        node,
                        encoders,
                        zeros: Bytes::from(vec![0u8; 256 * 1024]),
                        tally: NodeTally::default(),
                        service: Hist::default(),
                    }),
                );
            }
            for &r in &RELAYS {
                sim.add_duplex(PRODUCER, r, backbone);
                for c in 0..RELAY_CONSUMERS {
                    sim.add_duplex(r, consumer(c), backbone);
                }
            }
            Relay {
                sim,
                next_client: 1,
                timed_from: SimTime::ZERO,
            }
        }

        /// Put 2 % Gilbert–Elliott loss on P→R1 and 1 % Bernoulli on R2→C3
        /// (lossy access links come with the viewers, in
        /// [`Relay::attach`]). Call it once the subscriptions are
        /// established: `Subscribe` and `SubscribeOk` are sent once, and a
        /// stream whose handshake is lost gets no loss recovery at all.
        pub fn make_trunks_lossy(&mut self) {
            if let Some(l) = self.sim.link_config_mut(PRODUCER, RELAYS[0]) {
                // Stationary share of the bad state: 0.005 / 0.25 = 2 %.
                l.loss = LossModel::GilbertElliott {
                    p_gb: 0.005,
                    p_bg: 0.245,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                };
            }
            if let Some(l) = self.sim.link_config_mut(RELAYS[1], consumer(2)) {
                l.loss = LossModel::Bernoulli { p: 0.01 };
            }
        }

        /// Add viewer `v` of the plan as a host behind its consumer and
        /// attach it now. Returns the client id to detach it by.
        pub fn attach(&mut self, v: Viewer, lossy_net: bool) -> u64 {
            let client = ClientId::new(self.next_client);
            self.next_client += 1;
            let c = v.consumer as usize;
            let access = LinkConfig {
                delay: SimDuration::from_millis(5),
                bandwidth: Bandwidth::from_mbps(50),
                queue_bytes: 512 * 1024,
                loss: if lossy_net && v.lossy {
                    LossModel::Bernoulli { p: 0.02 }
                } else {
                    LossModel::None
                },
                jitter: SimDuration::ZERO,
            };
            let host = viewer_host(client);
            self.sim.add_link(consumer(c), host, access);
            self.sim.add_link(
                host,
                consumer(c),
                LinkConfig {
                    loss: LossModel::None,
                    ..access
                },
            );
            let now = self.sim.now();
            self.sim.add_host(
                host,
                BenchHost::Viewer(ViewerHost {
                    client,
                    consumer: consumer(c),
                    stream_index: v.stream as usize,
                    depack: Depacketizer::new(),
                    attached_at: now,
                    left_ms: None,
                    first_frame_at: None,
                    frames: BTreeMap::new(),
                    highest: None,
                    holes: BTreeMap::new(),
                    received_since_rr: 0,
                    first_seq_since_rr: None,
                    scans: 0,
                    calls: 0,
                }),
            );
            self.sim.with_host(host, |_, ctx| {
                ctx.set_timer_after(SimDuration::from_millis(50), KEY_VIEWER_SCAN)
            });
            let [primary, backup] = paths_to(c);
            self.sim.with_host(consumer(c), |h, ctx| {
                let BenchHost::Node(h) = h else { return };
                let now = ctx.now();
                h.node.install_paths(stream(v.stream as usize), &[backup]);
                let mut actions = Vec::new();
                {
                    let _s = span("node.client_attach", client.raw());
                    h.timed(|n| {
                        n.client_attach(
                            now,
                            client,
                            stream(v.stream as usize),
                            Some(Bandwidth::from_mbps(50)),
                            Some(&primary),
                            &mut actions,
                        )
                    });
                }
                h.apply(ctx, actions);
            });
            client.raw()
        }

        pub fn detach(&mut self, client: u64) {
            let client = ClientId::new(client);
            let host = viewer_host(client);
            let now_ms = self.now_ms();
            let Some(consumer) = self.sim.host_mut(host).and_then(|h| match h {
                BenchHost::Viewer(v) => {
                    // Frames captured after this instant are not due to it.
                    v.left_ms = Some(now_ms);
                    Some(v.consumer)
                }
                BenchHost::Node(_) => None,
            }) else {
                return;
            };
            self.sim.with_host(consumer, |h, ctx| {
                let BenchHost::Node(h) = h else { return };
                let now = ctx.now();
                let mut actions = Vec::new();
                {
                    let _s = span("node.client_detach", client.raw());
                    h.timed(|n| n.client_detach(now, client, &mut actions));
                }
                h.apply(ctx, actions);
            });
        }

        /// Forget what the nodes tallied so far (the warm-up) and start
        /// the timed window here.
        pub fn reset_tallies(&mut self) {
            self.timed_from = self.sim.now();
            for id in node_ids() {
                if let Some(BenchHost::Node(h)) = self.sim.host_mut(id) {
                    h.tally = NodeTally::default();
                    h.service = Hist::default();
                }
            }
        }

        /// Move the datagram service times recorded since the last call
        /// into `into`.
        pub fn take_service_times(&mut self, into: &mut Hist) {
            for id in node_ids() {
                if let Some(BenchHost::Node(h)) = self.sim.host_mut(id) {
                    into.merge(&std::mem::take(&mut h.service));
                }
            }
        }

        pub fn now_ms(&self) -> u64 {
            self.sim.now().as_millis()
        }

        pub fn run_until_ms(&mut self, t_ms: u64) {
            let _s = span("emu.run_until", t_ms);
            self.sim.run_until(SimTime::from_millis(t_ms));
        }

        fn node_hosts(&self) -> impl Iterator<Item = &NodeHost> {
            node_ids().filter_map(|id| match self.sim.host(id) {
                Some(BenchHost::Node(h)) => Some(h),
                _ => None,
            })
        }

        /// Σ `NodeStats::forwarded` over the seven nodes.
        pub fn forwarded(&self) -> u64 {
            self.node_hosts().map(|h| h.node.stats.forwarded).sum()
        }

        /// True once every stream cache on every node holds its full
        /// 2048 packets — the state a live stream is in for hours.
        pub fn caches_full(&self) -> bool {
            let cap = NodeConfig::new(PRODUCER).cache_packets;
            self.node_hosts().all(|h| {
                (0..RELAY_STREAMS).all(|i| h.node.cache(stream(i)).is_some_and(|c| c.len() >= cap))
            })
        }

        pub fn node_stats(&self) -> NodeStats {
            let mut sum = NodeStats::default();
            for h in self.node_hosts() {
                let s = &h.node.stats;
                sum.forwarded += s.forwarded;
                sum.ingested += s.ingested;
                sum.rtx_served += s.rtx_served;
                sum.nack_batches += s.nack_batches;
                sum.duplicates += s.duplicates;
                sum.rtx_pending_expired += s.rtx_pending_expired;
            }
            sum
        }

        /// Merge the seven nodes' tallies.
        pub fn node_tally(&self) -> NodeTally {
            let mut sum = NodeTally::default();
            for h in self.node_hosts() {
                let t = &h.tally;
                sum.calls += t.calls;
                sum.busy_ns += t.busy_ns;
                sum.datagrams += t.datagrams;
                sum.actions += t.actions;
                sum.slow_datagrams += t.slow_datagrams;
                sum.recovery_ms.extend(&t.recovery_ms);
            }
            sum
        }

        /// Frames due and completed, delays and start-up times over every
        /// viewer that ever attached. A frame is due to a viewer when it
        /// was captured in the timed window while the viewer watched: from
        /// the instant it attached (older frames reach it, if at all, in
        /// the start-up burst) or the window opened, to one second before
        /// it left or the run ended (the last second is still in flight or
        /// in recovery). Warm-up frames are not operations: nothing about
        /// them is measured, and a stream whose very first packet is lost
        /// on a lossy trunk leaves no hole for the next node to detect.
        pub fn viewer_tally(&self) -> ViewerTally {
            let mut sum = ViewerTally::default();
            let end_ms = self.now_ms();
            for client in 1..self.next_client {
                let Some(BenchHost::Viewer(v)) = self.sim.host(viewer_host(ClientId::new(client)))
                else {
                    continue;
                };
                sum.calls += v.calls;
                if let Some(first_at) = v.first_frame_at {
                    sum.startup_ms
                        .push(first_at.saturating_since(v.attached_at).as_millis_f64());
                }
                let start = stream_start(v.stream_index);
                let due_from = v.attached_at.max(self.timed_from);
                let watched_ms = due_from.saturating_since(start).as_millis();
                let mut first_index = (watched_ms * u64::from(FPS) / 1_000) as u32;
                while v.capture_of(first_index) < due_from {
                    first_index += 1;
                }
                let left_ms = v.left_ms.unwrap_or(end_ms);
                let cutoff_ms = left_ms.saturating_sub(1_000 + start.as_millis());
                let last_index = (cutoff_ms * u64::from(FPS) / 1_000) as u32;
                if last_index < first_index {
                    continue;
                }
                sum.frames_due += u64::from(last_index - first_index + 1);
                for &delay in v.frames.range(first_index..=last_index).map(|(_, d)| d) {
                    sum.frames_completed += 1;
                    sum.frame_delay_ms.push(delay);
                }
            }
            sum
        }

        /// Random and queue drops over every link, and the deepest queue
        /// any send saw (packets).
        pub fn link_drops_and_queue(&self) -> (u64, f64) {
            let stats = self.sim.total_link_stats();
            let depth = self
                .sim
                .telemetry_snapshot()
                .hist("emu.queue_depth_pkts")
                .and_then(|h| h.max())
                .unwrap_or(0.0);
            (stats.lost_random + stats.lost_queue, depth)
        }
    }
}

pub use packet_path::probe_packet_path;

/// Replays through the public functions a media packet crosses between
/// two sockets: codec, pacer, congestion control, cache, `OverlayNode`,
/// and one emulator event. Each number is wall time per call.
mod packet_path {
    use crate::alloc;
    use crate::probes::ns_per_call;
    use crate::report::RunResult;
    use bytes::Bytes;
    use livenet_cc::{
        DelayBasedEstimator, GccSender, PacedPacket, Pacer, PacerConfig, SendPriority,
    };
    use livenet_emu::{Ctx, Host, LinkConfig, NetSim};
    use livenet_media::{FrameKind, GopConfig, VideoEncoder};
    use livenet_node::{NodeAction, NodeConfig, OverlayMsg, OverlayNode, StreamCache};
    use livenet_packet::rtp::ssrc_for_stream;
    use livenet_packet::{
        Depacketizer, MediaKind, Nack, Packetizer, ReceiverReport, RtcpPacket, RtpPacket,
    };
    use livenet_types::{Bandwidth, ClientId, NodeId, SeqNo, SimDuration, SimTime, StreamId};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::hint::black_box;
    use std::time::Instant;

    const STREAM: StreamId = StreamId::new(7);
    const UPSTREAM: NodeId = NodeId::new(1);
    const RELAY: NodeId = NodeId::new(2);
    /// 2 Mbps in 1200-byte packets: one every 4.8 ms.
    const PACKET_GAP: SimDuration = SimDuration::from_micros(4_800);

    /// `count` RTP packets of a 30 fps stream as the producer's packetizer
    /// emits them: the encoder's own frame sizes (≈1200-byte packets), or
    /// every frame `frame_bytes` long (one small packet per frame).
    fn rtp_packets(count: usize, frame_bytes: Option<usize>) -> Vec<RtpPacket> {
        let mut encoder = VideoEncoder::new(
            STREAM,
            GopConfig {
                fps: 30,
                gop_frames: 60,
                ..GopConfig::default()
            },
            Bandwidth::from_mbps(2),
            SimTime::ZERO,
        );
        let zeros = Bytes::from(vec![0u8; 256 * 1024]);
        let mut packetizer = Packetizer::new(ssrc_for_stream(STREAM), SeqNo::ZERO);
        let mut out = Vec::with_capacity(count + 64);
        while out.len() < count {
            let frame = encoder.next_frame();
            let delay = (frame.kind == FrameKind::I).then(|| SimDuration::from_millis(20));
            out.extend(packetizer.packetize_with_meta(
                MediaKind::Video,
                frame.rtp_timestamp,
                &zeros.slice(..frame_bytes.unwrap_or(frame.size_bytes as usize)),
                delay,
                frame.kind.to_nibble(),
            ));
        }
        out.truncate(count);
        out
    }

    /// The datagram a neighbour sends for `packet` at `sent_at`.
    fn rtp_datagram(packet: &RtpPacket, sent_at: SimTime) -> Bytes {
        OverlayMsg::Rtp {
            stream: STREAM,
            sent_at,
            packet: packet.encode(),
            retransmit: false,
        }
        .encode()
    }

    /// A relay with the stream flowing in from `UPSTREAM` and out to
    /// `fan_out` downstream nodes, plus the timers it has armed.
    struct ReplayNode {
        node: OverlayNode,
        timers: BinaryHeap<Reverse<(SimTime, u64)>>,
        timer_ns: u64,
        timer_calls: u64,
    }

    impl ReplayNode {
        fn new(fan_out: u64) -> ReplayNode {
            let mut node = OverlayNode::new(NodeConfig::new(RELAY));
            node.set_neighbor_rtt(UPSTREAM, SimDuration::from_millis(20));
            let mut r = ReplayNode {
                node,
                timers: BinaryHeap::new(),
                timer_ns: 0,
                timer_calls: 0,
            };
            let start = r.node.start(SimTime::ZERO);
            r.keep(start);
            for d in 0..fan_out {
                let subscribe = OverlayMsg::Subscribe {
                    stream: STREAM,
                    remainder: vec![UPSTREAM],
                };
                let a = r
                    .node
                    .on_datagram(SimTime::ZERO, NodeId::new(10 + d), subscribe.encode());
                r.keep(a);
            }
            let ok = OverlayMsg::SubscribeOk { stream: STREAM }.encode();
            let a = r.node.on_datagram(SimTime::ZERO, UPSTREAM, ok);
            r.keep(a);
            r
        }

        /// Sends go nowhere; timers are kept so pacers keep draining.
        fn keep(&mut self, actions: Vec<NodeAction>) {
            for a in actions {
                if let NodeAction::SetTimer { at, key } = a {
                    self.timers.push(Reverse((at, key)));
                }
            }
        }

        fn fire_timers_until(&mut self, now: SimTime) {
            while let Some(&Reverse((at, key))) = self.timers.peek() {
                if at > now {
                    break;
                }
                self.timers.pop();
                let t = Instant::now();
                let a = self.node.on_timer(at, key);
                self.timer_ns += t.elapsed().as_nanos() as u64;
                self.timer_calls += 1;
                self.keep(a);
            }
        }

        /// Feed `packets` from upstream, one every `PACKET_GAP` starting
        /// at index `first`; wall ns per `on_datagram` call.
        fn replay(&mut self, packets: &[RtpPacket], first: usize) -> f64 {
            let mut ns = 0u64;
            for (i, p) in packets.iter().enumerate() {
                // Sent when due, received one 10 ms hop later.
                let sent_at = SimTime::ZERO + PACKET_GAP * (first + i) as u64;
                let now = sent_at + SimDuration::from_millis(10);
                self.fire_timers_until(now);
                let datagram = rtp_datagram(p, sent_at);
                let t = Instant::now();
                let a = self.node.on_datagram(now, UPSTREAM, datagram);
                ns += t.elapsed().as_nanos() as u64;
                self.keep(a);
            }
            ns as f64 / packets.len() as f64
        }
    }

    struct NoopHost;

    impl Host for NoopHost {
        fn on_datagram(&mut self, _: &mut Ctx, _: NodeId, _: Bytes) {}
        fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
            // One datagram and one timer per firing: two events that do
            // nothing but cross the emulator.
            ctx.send(NodeId::new(2), Bytes::new());
            ctx.set_timer_after(SimDuration::from_millis(1), key);
        }
    }

    pub fn probe_packet_path(r: &mut RunResult) {
        let cache_cap = NodeConfig::new(RELAY).cache_packets;
        let packets = rtp_packets(3 * cache_cap, None);
        let n = packets.len() as u64;

        // packet: codec and framing.
        let mut i = 0;
        let ns = ns_per_call(5, packets.len(), || {
            black_box(packets[i % packets.len()].encode());
            i += 1;
        });
        r.put("packet.rtp_encode_ns", ns, 5 * n);
        let wire: Vec<Bytes> = packets.iter().map(RtpPacket::encode).collect();
        let before = alloc::snapshot();
        let ns = ns_per_call(5, wire.len(), || {
            let _ = black_box(RtpPacket::decode(wire[i % wire.len()].clone()));
            i += 1;
        });
        let (allocs, _) = alloc::snapshot().since(&before);
        r.put("packet.rtp_decode_ns", ns, 5 * n);
        r.put(
            "packet.rtp_decode_allocs",
            allocs as f64 / (5 * n) as f64,
            5 * n,
        );

        let frame = Bytes::from(vec![0u8; 8_333]); // a mean 2 Mbps / 30 fps frame
        let mut packetizer = Packetizer::new(ssrc_for_stream(STREAM), SeqNo::ZERO);
        let per_frame = packetizer
            .packetize(MediaKind::Video, 0, &frame, None)
            .len() as f64;
        let mut ts = 0u32;
        let ns = ns_per_call(5, 2_000, || {
            ts = ts.wrapping_add(3_000);
            black_box(packetizer.packetize(MediaKind::Video, ts, &frame, None));
        });
        r.put("packet.packetize_ns_per_pkt", ns / per_frame, 10_000);
        let mut depack = Depacketizer::new();
        let t = Instant::now();
        let mut frames = 0usize;
        for p in &packets {
            depack.push(p.clone());
            frames += depack.drain().len();
        }
        black_box(frames);
        r.put(
            "packet.depacketize_ns_per_pkt",
            t.elapsed().as_nanos() as f64 / n as f64,
            n,
        );
        let nack = RtcpPacket::Nack(Nack {
            ssrc: ssrc_for_stream(STREAM),
            lost: (0..8).map(SeqNo).collect(),
        });
        let ns = ns_per_call(5, 20_000, || {
            let _ = black_box(RtcpPacket::decode(black_box(&nack).encode()));
        });
        r.put("packet.rtcp_nack_roundtrip_ns", ns, 100_000);

        // media.
        let mut encoder = VideoEncoder::new(
            STREAM,
            GopConfig::default(),
            Bandwidth::from_mbps(2),
            SimTime::ZERO,
        );
        let ns = ns_per_call(5, 100_000, || {
            black_box(encoder.next_frame());
        });
        r.put("media.next_frame_ns", ns, 500_000);

        // cc: pacer, receive-side delay estimator, send-side loss reports.
        let mut pacer: Pacer<u32> = Pacer::new(PacerConfig::default(), Bandwidth::from_mbps(20));
        let mut now = SimTime::from_millis(1);
        let before = alloc::snapshot();
        let ns = ns_per_call(5, 20_000, || {
            now += PACKET_GAP;
            pacer.enqueue(PacedPacket {
                priority: SendPriority::Video,
                bytes: 1_218,
                is_iframe: false,
                payload: 0,
            });
            black_box(pacer.poll(now));
        });
        let (allocs, _) = alloc::snapshot().since(&before);
        r.put("cc.pacer_enqueue_poll_ns_per_pkt", ns, 100_000);
        r.put(
            "cc.pacer_allocs_per_pkt",
            allocs as f64 / 100_000.0,
            100_000,
        );
        let mut estimator = DelayBasedEstimator::new(
            Bandwidth::from_mbps(20),
            Bandwidth::from_kbps(200),
            Bandwidth::from_gbps(2),
        );
        let ns = ns_per_call(5, 20_000, || {
            now += PACKET_GAP;
            estimator.on_packet(now, now + SimDuration::from_millis(10), 1_200);
        });
        r.put("cc.delay_estimator_ns_per_pkt", ns, 100_000);
        let mut sender = GccSender::new(
            Bandwidth::from_mbps(20),
            Bandwidth::from_kbps(200),
            Bandwidth::from_gbps(2),
        );
        let ns = ns_per_call(5, 20_000, || {
            now += SimDuration::from_millis(500);
            sender.on_loss_report(now, 0.01);
        });
        r.put("cc.gcc_sender_report_ns", ns, 100_000);

        // node: the wire envelope.
        let datagrams: Vec<Bytes> = packets
            .iter()
            .map(|p| rtp_datagram(p, SimTime::ZERO))
            .collect();
        let ns = ns_per_call(5, datagrams.len(), || {
            let _ = black_box(OverlayMsg::decode(datagrams[i % datagrams.len()].clone()));
            i += 1;
        });
        r.put("node.msg_decode_ns", ns, 5 * n);
        let msg = OverlayMsg::decode(datagrams[0].clone()).expect("own encoding");
        let ns = ns_per_call(5, 20_000, || drop(black_box(black_box(&msg).encode())));
        r.put("node.msg_encode_ns", ns, 100_000);

        // node: on_datagram for media, fan-out 4. Cold = the first 1024
        // packets into an empty cache; warm = the cache at capacity, where
        // every insert also evicts.
        let mut relay = ReplayNode::new(4);
        let cold = relay.replay(&packets[..1_024], 0);
        r.put("node.on_datagram_rtp_cold_ns", cold, 1_024);
        relay.replay(&packets[1_024..cache_cap + 256], 1_024);
        let (timer_ns, timer_calls) = (relay.timer_ns, relay.timer_calls);
        let before = alloc::snapshot();
        let warm_slice = &packets[cache_cap + 256..];
        let warm = relay.replay(warm_slice, cache_cap + 256);
        let (allocs, bytes) = alloc::snapshot().since(&before);
        let warm_n = warm_slice.len() as u64;
        r.put("node.on_datagram_rtp_ns", warm, warm_n);
        // Allocation counts cover the timers fired between packets too:
        // that is where paced packets leave.
        r.put(
            "node.on_datagram_rtp_allocs",
            allocs as f64 / warm_n as f64,
            warm_n,
        );
        r.put(
            "node.on_datagram_rtp_bytes",
            bytes as f64 / warm_n as f64,
            warm_n,
        );
        r.put(
            "node.on_timer_ns",
            (relay.timer_ns - timer_ns) as f64 / (relay.timer_calls - timer_calls).max(1) as f64,
            relay.timer_calls - timer_calls,
        );

        // The smallest packet: per-packet cost with next to no bytes.
        let small = rtp_packets(cache_cap + 1_024, Some(99));
        let mut relay = ReplayNode::new(4);
        relay.replay(&small[..cache_cap], 0);
        let ns = relay.replay(&small[cache_cap..], cache_cap);
        r.put("node.on_datagram_rtp_small_ns", ns, 1_024);

        // node: the slow path's two feedback messages, against a warm cache.
        let mut relay = ReplayNode::new(4);
        relay.replay(&packets[..cache_cap], 0);
        let mut t_now = SimTime::from_secs(60);
        let highest = packets[cache_cap - 1].header.seq;
        let mut back = 0u16;
        let ns = ns_per_call(5, 200, || {
            t_now += SimDuration::from_millis(1);
            back = back % 1_000 + 1;
            let nack = RtcpPacket::Nack(Nack {
                ssrc: ssrc_for_stream(STREAM),
                lost: vec![SeqNo(highest.0.wrapping_sub(back))],
            });
            let msg = OverlayMsg::Rtcp {
                stream: STREAM,
                packet: nack.encode(),
            };
            let a = relay.node.on_datagram(t_now, NodeId::new(10), msg.encode());
            relay.keep(a);
        });
        r.put("node.on_datagram_nack_ns", ns, 1_000);
        let client = ClientId::new(1);
        let t = Instant::now();
        let mut actions = Vec::new();
        relay.node.client_attach(
            t_now,
            client,
            STREAM,
            Some(Bandwidth::from_mbps(50)),
            None,
            &mut actions,
        );
        r.put(
            "node.client_attach_us",
            t.elapsed().as_nanos() as f64 / 1e3,
            1,
        );
        relay.keep(actions);
        let ns = ns_per_call(5, 2_000, || {
            t_now += SimDuration::from_millis(500);
            let rr = RtcpPacket::ReceiverReport(ReceiverReport {
                ssrc: ssrc_for_stream(STREAM),
                loss_fraction: 0.01,
                highest_seq: highest,
                jitter_us: 0,
            });
            let msg = OverlayMsg::Rtcp {
                stream: STREAM,
                packet: rr.encode(),
            };
            let a = relay.node.on_client_datagram(t_now, client, msg.encode());
            relay.keep(a);
        });
        r.put("node.on_client_datagram_rr_ns", ns, 10_000);

        // node: producer ingest, per packet emitted.
        let mut producer = OverlayNode::new(NodeConfig::new(UPSTREAM));
        producer.register_producer(STREAM, None);
        let subscribe = OverlayMsg::Subscribe {
            stream: STREAM,
            remainder: vec![],
        };
        producer.on_datagram(SimTime::ZERO, RELAY, subscribe.encode());
        let mut encoder = VideoEncoder::new(
            STREAM,
            GopConfig {
                fps: 30,
                gop_frames: 60,
                ..GopConfig::default()
            },
            Bandwidth::from_mbps(2),
            SimTime::ZERO,
        );
        let zeros = Bytes::from(vec![0u8; 256 * 1024]);
        let t = Instant::now();
        for _ in 0..600 {
            let frame = encoder.next_frame();
            let payload = zeros.slice(..frame.size_bytes as usize);
            black_box(producer.ingest_frame(frame.capture_time, &frame, &payload));
        }
        let ingested = producer.stats.ingested.max(1);
        r.put(
            "node.ingest_frame_ns_per_pkt",
            t.elapsed().as_nanos() as f64 / ingested as f64,
            ingested,
        );

        // node: the stream cache on its own.
        let mut cache = StreamCache::new(cache_cap);
        for p in &packets[..cache_cap] {
            cache.insert(p.clone());
        }
        let t = Instant::now();
        for p in &packets[cache_cap..2 * cache_cap] {
            cache.insert(p.clone());
        }
        r.put(
            "node.cache_insert_full_ns",
            t.elapsed().as_nanos() as f64 / cache_cap as f64,
            cache_cap as u64,
        );
        let burst = cache.startup_burst().len() as u64;
        let ns = ns_per_call(5, 200, || drop(black_box(cache.startup_burst())));
        r.put("node.cache_startup_burst_us", ns / 1e3, burst);

        // emu: one event through `NetSim::step` with hosts that do nothing.
        let mut sim: NetSim<NoopHost> = NetSim::new(1);
        sim.add_host(NodeId::new(1), NoopHost);
        sim.add_host(NodeId::new(2), NoopHost);
        sim.add_duplex(
            NodeId::new(1),
            NodeId::new(2),
            LinkConfig::backbone(SimDuration::from_millis(1)),
        );
        sim.with_host(NodeId::new(1), |_, ctx| {
            ctx.set_timer_after(SimDuration::from_millis(1), 0)
        });
        let ns = ns_per_call(5, 100_000, || {
            sim.step();
        });
        r.put("emu.event_ns", ns, 500_000);
    }
}

pub use wire::*;

/// `livenet-transport`: three `UdpOverlayNode`s (P → R → C) on 127.0.0.1
/// under the vendored single-thread executor, with the benchmark owning
/// the broadcaster and sixteen viewer sockets.
mod wire {
    use super::span;
    use crate::report::RunResult;
    use crate::stats::{Hist, Samples};
    use bytes::Bytes;
    use livenet_media::{GopConfig, VideoEncoder};
    use livenet_node::{NodeConfig, OverlayMsg, OverlayNode};
    use livenet_packet::{Depacketizer, ReceiverReport, RtcpPacket, RtpPacket};
    use livenet_transport::{
        BatchBackend, BatchSocket, NodeCommand, NodeHandle, RecvBatch, SendDatagram,
        SharedTelemetry, UdpOverlayNode, WallClock, WireNodeConfig, MAX_BATCH,
    };
    use livenet_types::{Bandwidth, ClientId, NodeId, SimDuration, StreamId};
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::time::{Duration, Instant};
    use tokio::task::JoinHandle;

    pub const WIRE_VIEWERS: usize = 16;
    /// One I frame a second.
    pub const WIRE_GOP_FRAMES: u32 = 30;
    pub const WIRE_GOP_SECONDS: f64 = WIRE_GOP_FRAMES as f64 / FPS as f64;
    const STREAM: StreamId = StreamId::new(7);
    const FPS: u32 = 30;
    const FRAME_GAP: Duration = Duration::from_nanos(1_000_000_000 / FPS as u64);
    const RR_EVERY: Duration = Duration::from_millis(500);

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("loopback address")
    }

    struct ViewerSock {
        client: ClientId,
        sock: BatchSocket,
        depack: Depacketizer,
        packets: u64,
        window_packets: u64,
        window_first: Option<u16>,
        last: Option<RtpPacket>,
        last_rr: Instant,
    }

    /// A running chain with its viewers attached and media flowing.
    pub struct WireChain {
        handles: Vec<NodeHandle>,
        joins: Vec<JoinHandle<OverlayNode>>,
        encoder: VideoEncoder,
        zeros: Bytes,
        viewers: Vec<ViewerSock>,
        consumer_addr: Vec<SocketAddr>,
        batch: RecvBatch,
        /// When each frame (by RTP timestamp) was due at the producer.
        due: HashMap<u32, Instant>,
        /// Frame due time → frame complete at a viewer socket, ns.
        pub latency: Hist,
        /// How late the generator handed each frame to the producer, ns.
        pub generator_lag: Hist,
        pub frames_ingested: u64,
        pub spawn_ms: Samples,
    }

    /// What a chain counted, read after shutdown: media packets the
    /// producer packetized, and the sum over viewers of those that reached
    /// their socket.
    pub struct WireTotals {
        pub packets_ingested: u64,
        pub packets_delivered: u64,
    }

    /// The hub every chain of a run records its transport telemetry in.
    pub fn wire_telemetry() -> SharedTelemetry {
        SharedTelemetry::new()
    }

    impl WireChain {
        /// Spawn P, R and C, wire them, attach the viewers at C along
        /// P → R → C, and push warm-up frames until every viewer has
        /// completed one — only then is the path known to be live.
        pub async fn start(telemetry: &SharedTelemetry) -> WireChain {
            let clock = WallClock::new();
            let ids = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
            let mut handles = Vec::new();
            let mut joins = Vec::new();
            let mut spawn_ms = Samples::default();
            for &id in &ids {
                let t = Instant::now();
                let _s = span("transport.spawn_wire", id.raw());
                let (handle, _events, join) = UdpOverlayNode::spawn_wire(
                    WireNodeConfig::new(NodeConfig::new(id)).with_backend(BatchBackend::auto()),
                    loopback(),
                    clock,
                    telemetry.clone(),
                )
                .await
                .expect("bind an overlay node on loopback");
                spawn_ms.push(t.elapsed().as_secs_f64() * 1e3);
                handles.push(handle);
                joins.push(join);
            }
            for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
                let peer = NodeCommand::AddPeer {
                    node: handles[b].id,
                    addr: handles[b].addr_for_peer(handles[a].id),
                    rtt: SimDuration::from_millis(1),
                };
                handles[a]
                    .send(peer)
                    .await
                    .expect("node alive while wiring");
            }
            let register = NodeCommand::RegisterProducer {
                stream: STREAM,
                ladder: None,
            };
            handles[0].send(register).await.expect("producer alive");

            let mut viewers = Vec::new();
            let mut consumer_addr = Vec::new();
            for v in 0..WIRE_VIEWERS {
                let client = ClientId::new(v as u64 + 1);
                let sock = BatchSocket::bind(loopback(), BatchBackend::auto())
                    .expect("bind a viewer socket");
                let attach = NodeCommand::ClientAttach {
                    client,
                    stream: STREAM,
                    downlink: Some(Bandwidth::from_mbps(50)),
                    path: Some(ids.to_vec()),
                    addr: sock.local_addr(),
                };
                handles[2].send(attach).await.expect("consumer alive");
                consumer_addr.push(handles[2].addr_for_client(client));
                viewers.push(ViewerSock {
                    client,
                    sock,
                    depack: Depacketizer::new(),
                    packets: 0,
                    window_packets: 0,
                    window_first: None,
                    last: None,
                    last_rr: Instant::now(),
                });
            }
            let mut chain = WireChain {
                handles,
                joins,
                encoder: VideoEncoder::new(
                    STREAM,
                    GopConfig {
                        fps: FPS,
                        gop_frames: WIRE_GOP_FRAMES,
                        ..GopConfig::default()
                    },
                    Bandwidth::from_mbps(2),
                    clock.now(),
                ),
                zeros: Bytes::from(vec![0u8; 256 * 1024]),
                viewers,
                consumer_addr,
                batch: RecvBatch::new(MAX_BATCH, 2048),
                due: HashMap::new(),
                latency: Hist::default(),
                generator_lag: Hist::default(),
                frames_ingested: 0,
                spawn_ms,
            };
            // Let the reverse-path subscription reach the producer, then
            // warm up: media flows until every viewer has a whole frame.
            chain.idle_for(Duration::from_millis(100)).await;
            let deadline = Instant::now() + Duration::from_secs(5);
            while chain.latency.len() < WIRE_VIEWERS as u64 {
                assert!(Instant::now() < deadline, "viewers never received media");
                chain.broadcast_for(FRAME_GAP.as_secs_f64() * 3.0).await;
            }
            chain.latency = Hist::default();
            chain.generator_lag = Hist::default();
            chain
        }

        async fn idle_for(&mut self, d: Duration) {
            let until = Instant::now() + d;
            while Instant::now() < until {
                self.round().await;
            }
        }

        /// One pass of the benchmark's own duties, then one executor round
        /// for the nodes.
        async fn round(&mut self) {
            self.drain_viewers();
            let _s = span("transport.executor_round", 0);
            tokio::runtime::yield_now().await;
        }

        /// Open loop: hand the producer one frame every 1/30 s of wall
        /// clock for `seconds`, whatever the chain does with them.
        pub async fn broadcast_for(&mut self, seconds: f64) {
            let began = Instant::now();
            let frames = (seconds * f64::from(FPS)).ceil().max(1.0) as u32;
            for k in 0..frames {
                let due = began + FRAME_GAP * k;
                while Instant::now() < due {
                    self.round().await;
                }
                let frame = self.encoder.next_frame();
                let payload = self.zeros.slice(..frame.size_bytes as usize);
                self.due.insert(frame.rtp_timestamp, due);
                self.generator_lag.record(due.elapsed().as_nanos() as u64);
                {
                    let _s = span("transport.command", frame.id.index);
                    let ingest = NodeCommand::Ingest { frame, payload };
                    self.handles[0].send(ingest).await.expect("producer alive");
                }
                self.frames_ingested += 1;
            }
        }

        /// Media packets that have reached a viewer socket so far.
        pub fn packets_delivered(&self) -> u64 {
            self.viewers.iter().map(|v| v.packets).sum()
        }

        /// Keep the loop turning until the last frames have arrived.
        pub async fn drain(&mut self) {
            self.idle_for(Duration::from_millis(300)).await;
        }

        /// Read every viewer socket dry; complete frames; send receiver
        /// reports that are due.
        fn drain_viewers(&mut self) {
            for (v, to) in self.viewers.iter_mut().zip(&self.consumer_addr) {
                loop {
                    let got = {
                        let _s = span("transport.try_recv_batch", v.client.raw());
                        v.sock.try_recv_batch(&mut self.batch).unwrap_or(0)
                    };
                    if got == 0 {
                        break;
                    }
                    let _s = span("bench.viewer", v.client.raw());
                    let now = Instant::now();
                    for d in self.batch.iter() {
                        if d.truncated {
                            continue;
                        }
                        let Ok(OverlayMsg::Rtp { packet, .. }) =
                            OverlayMsg::decode(Bytes::copy_from_slice(d.data))
                        else {
                            continue;
                        };
                        let Ok(rtp) = RtpPacket::decode(packet) else {
                            continue;
                        };
                        v.packets += 1;
                        v.window_packets += 1;
                        v.window_first.get_or_insert(rtp.header.seq.0);
                        v.last = Some(rtp.clone());
                        v.depack.push(rtp);
                        for frame in v.depack.drain() {
                            if let Some(due) = self.due.get(&frame.timestamp) {
                                self.latency
                                    .record(now.saturating_duration_since(*due).as_nanos() as u64);
                            }
                        }
                        v.depack.gc(8);
                    }
                }
                if v.last_rr.elapsed() >= RR_EVERY {
                    v.last_rr = Instant::now();
                    let (Some(last), Some(first)) = (&v.last, v.window_first) else {
                        continue;
                    };
                    let expected = u64::from(last.header.seq.0.wrapping_sub(first)) + 1;
                    let rr = RtcpPacket::ReceiverReport(ReceiverReport {
                        ssrc: last.header.ssrc,
                        loss_fraction: 1.0 - (v.window_packets as f64 / expected as f64).min(1.0),
                        highest_seq: last.header.seq,
                        jitter_us: 0,
                    });
                    let msg = OverlayMsg::Rtcp {
                        stream: STREAM,
                        packet: rr.encode(),
                    };
                    let _s = span("transport.try_send_batch", v.client.raw());
                    let _ = v.sock.try_send_batch(&[SendDatagram {
                        to: *to,
                        payload: msg.encode(),
                    }]);
                    v.window_packets = 0;
                    v.window_first = None;
                }
            }
        }

        /// Stop the three nodes, wait for their tasks to end, and read
        /// out what they counted.
        pub async fn shutdown(self) -> WireTotals {
            for h in &self.handles {
                let _ = h.send(NodeCommand::Shutdown).await;
            }
            let mut packets_ingested = 0;
            let packets_delivered = self.packets_delivered();
            for join in self.joins {
                let core = join.await.expect("node task ends after Shutdown");
                packets_ingested += core.stats.ingested;
            }
            WireTotals {
                packets_ingested,
                packets_delivered,
            }
        }
    }

    /// Run a future on the vendored executor.
    pub fn block_on<F: std::future::Future>(f: F) -> F::Output {
        tokio::runtime::block_on(f)
    }

    /// `transport.batch_dps_*`: one `BatchSocket` blasting another for
    /// half a second; datagrams received per second.
    fn blast(backend: BatchBackend, size: usize) -> f64 {
        let tx = BatchSocket::bind(loopback(), backend).expect("bind");
        let rx = BatchSocket::bind(loopback(), backend).expect("bind");
        let msgs: Vec<SendDatagram> = (0..32)
            .map(|_| SendDatagram {
                to: rx.local_addr(),
                payload: Bytes::from(vec![0u8; size]),
            })
            .collect();
        let mut batch = RecvBatch::new(MAX_BATCH, 2048);
        let began = Instant::now();
        let mut received = 0u64;
        while began.elapsed() < Duration::from_millis(500) {
            let _ = tx.try_send_batch(&msgs);
            while let Ok(n @ 1..) = rx.try_recv_batch(&mut batch) {
                received += n as u64;
            }
        }
        received as f64 / began.elapsed().as_secs_f64()
    }

    /// The transport layer's own numbers: socket blasts, and what the
    /// chain's shared telemetry hub recorded.
    pub fn probe_transport(telemetry: &SharedTelemetry, r: &mut RunResult) {
        let telemetry = telemetry.snapshot();
        r.put(
            "transport.batch_dps_1200",
            blast(BatchBackend::auto(), 1_200),
            1,
        );
        r.put(
            "transport.batch_dps_1200_seq",
            blast(BatchBackend::Sequential, 1_200),
            1,
        );
        r.put("transport.batch_dps_64", blast(BatchBackend::auto(), 64), 1);
        let tx_datagrams = telemetry.counter("transport.tx_datagrams");
        let tx_syscalls = telemetry.counter("transport.batch_tx_syscalls");
        r.put(
            "transport.batch_fill",
            tx_datagrams as f64 / tx_syscalls.max(1) as f64,
            tx_syscalls,
        );
        r.put(
            "transport.tx_retries",
            telemetry.counter("transport.batch_tx_retries") as f64,
            1,
        );
        r.put(
            "transport.recv_truncated",
            telemetry.counter("transport.recv_truncated") as f64,
            1,
        );
        r.put(
            "transport.timers_cancelled",
            telemetry.counter("transport.timers_cancelled") as f64,
            1,
        );
        if let Some(h) = telemetry.hist("transport.rx_dispatch_ms") {
            r.put(
                "transport.rx_dispatch_us",
                h.mean().unwrap_or(0.0) * 1e3,
                h.count,
            );
        }
    }
}
