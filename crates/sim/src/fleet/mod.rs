//! Fleet-level (session-granularity) simulation of LiveNet and Hier.
//!
//! Runs the paper's 20-day evaluation: both systems process the *same*
//! viewing sessions over the same topology ground truth (mirroring §6.1's
//! parallel deployment on a shared node pool). The control planes are the
//! real ones — [`StreamingBrain`] with its PIB/SIB and overload handling
//! for LiveNet, the VDN-like `HierController` for Hier — and the data
//! plane is tracked at subscription granularity.
//!
//! [`FleetSim`] is the sequencer: it owns the event loop and the only
//! random stream, over parts that each own their state (DESIGN.md §2.2).
//!
//! Per-session delay/startup/stall metrics are composed from link state
//! plus the packet-level-calibrated constants in [`crate::calibrate`]
//! (DESIGN.md §4 explains the two-fidelity approach).
//!
//! [`StreamingBrain`]: livenet_brain::StreamingBrain

mod config;
mod faults;
mod hier;
mod livenet;
mod rollup;

pub use config::{FaultPlanConfig, FleetConfig, FleetConfigBuilder, FleetFault};

use crate::calibrate::{
    recovery_penalty_ms, BRAIN_LOOKUP_MS, CONSUMER_PROCESSING_MS, FIRST_MILE_MS, LAST_MILE_MS,
    LOCAL_SERVE_MS, PLAYER_BUFFER_MS, PRODUCER_PROCESSING_MS, RELAY_PROCESSING_MS,
};
use crate::control::{ControlPlane, ReplicationSummary};
use crate::metrics::{record_session, DecisionOutcome, SessionRecord};
use crate::runner::ShardPlan;
use crate::workload::{SessionSpec, Workload};
use faults::{resolve_faults, ResolvedFault};
use hier::HierPlane;
use livenet::LiveNetPlane;
use livenet_emu::EventQueue;
use livenet_hier::{cdn_path_delay, HierRoles};
use livenet_replication::BrainOp;
use livenet_telemetry::{ids, MetricSink, Snapshot, TelemetryHub};
use livenet_topology::{GeoTopology, NodeReport, Topology, BASE_LOSS};
use livenet_types::{DetRng, NodeId, SimDuration, SimTime, StreamId};
use rollup::Rollup;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// Nominal stream bitrate (bits/s).
const BITRATE_BPS: f64 = 2_500_000.0;
/// Extra capacity provisioned on festival days (§6.5 up-scaling).
const FESTIVAL_UPSCALE: f64 = 1.5;
/// Fraction of views on a degraded last mile (drives the stall mix).
const BAD_LAST_MILE_FRACTION: f64 = 0.05;

const _: () = assert!(0.0 <= BAD_LAST_MILE_FRACTION && BAD_LAST_MILE_FRACTION <= 1.0);

/// An active viewing session, and what its attaches took: a departure or
/// a failover releases exactly that.
#[derive(Debug, Clone)]
struct Active {
    consumer: NodeId,
    stream: StreamId,
    channel: usize,
    /// The session is a downstream of LiveNet's `(consumer, stream)` entry.
    attached: bool,
    /// Hier nodes this session holds a cache reference on.
    hier_held: Vec<NodeId>,
}

/// One channel's broadcaster: its ingest node, and its sorted, disjoint
/// live blocks — immutable for the whole run (asserted in `drive`), and
/// empty for channels another shard owns.
#[derive(Debug)]
struct ChannelState {
    producer: NodeId,
    blocks: Vec<(SimTime, SimTime)>,
}

enum Ev {
    Departure(u64),
    StreamStart(usize),
    StreamEnd(usize),
    MinuteTick,
    FaultStart(usize),
    FaultEnd(usize),
}

/// The per-system constants of the client-side session model.
struct SystemModel {
    /// Stalls per view on a good / degraded / awful last mile.
    stall_base: [f64; 3],
    /// Stalls per unit of path loss per viewed minute.
    stall_per_loss: f64,
    /// Player-buffer fill time, relative to a paced UDP GoP burst.
    startup_fill: f64,
}

/// Per-hop recovery leaves little residual loss; startup is a paced burst.
const LIVENET: SystemModel = SystemModel {
    stall_base: [0.0035, 0.45, 2.3],
    stall_per_loss: 0.05,
    startup_fill: 1.0,
};

/// TCP in-order delivery turns loss into visible stalls, and RTMP-over-TCP
/// startup ramps through slow start from the cache tier.
const HIER: SystemModel = SystemModel {
    stall_base: [0.014, 0.95, 4.0],
    stall_per_loss: 2.6,
    startup_fill: 2.0,
};

/// Client-side conditions of one session, identical for both systems —
/// the paired-methodology trick that gives Fig. 8a its clean gap.
struct Client {
    start: SimTime,
    international: bool,
    /// 0 good, 1 degraded, 2 awful last mile (indexes `stall_base`).
    last_mile_class: usize,
    last_mile_ms: f64,
    buffer_fill_ms: f64,
    view_minutes: f64,
}

/// One session's failover during a fault, as the §6.5 logs would record it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Fault time.
    pub at: SimTime,
    /// Day index.
    pub day: u32,
    /// Fast path: a cached/prefetched alternate was available (LiveNet
    /// only; Hier records are always slow).
    pub fast: bool,
    /// Upstream-silence detection latency.
    pub detect_ms: f32,
    /// Detection → playback restored.
    pub recover_ms: f32,
    /// Frames lost to the failover window (15 fps nominal).
    pub frames_lost: u32,
}

impl RecoveryRecord {
    fn new(at: SimTime, fast: bool, detect_ms: f64, recover_ms: f64) -> RecoveryRecord {
        RecoveryRecord {
            at,
            day: (at.as_secs_f64() / 86_400.0) as u32,
            fast,
            detect_ms: detect_ms as f32,
            recover_ms: recover_ms as f32,
            frames_lost: ((detect_ms + recover_ms) / 1000.0 * 15.0) as u32,
        }
    }
}

/// Aggregate outputs of one fleet run.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Per-session records, LiveNet.
    pub livenet: Vec<SessionRecord>,
    /// Per-session records, Hier (same sessions, same order).
    pub hier: Vec<SessionRecord>,
    /// Mean link loss (fraction) per absolute hour — Fig. 13 input.
    pub hourly_loss: Vec<f64>,
    /// Peak concurrent-session throughput per day (bits/s) — Fig. 14.
    pub daily_peak_throughput: Vec<f64>,
    /// Unique realized LiveNet paths per day — §6.5's +20 % observation.
    pub daily_unique_paths: Vec<usize>,
    /// Sessions skipped because the channel was offline.
    pub skipped_offline: u64,
    /// Long-chain path switches performed.
    pub chain_switches: u64,
    /// Brain PIB recompute rounds executed.
    pub recompute_rounds: u64,
    /// Per-session failovers under injected faults, LiveNet.
    pub recoveries_livenet: Vec<RecoveryRecord>,
    /// Per-session failovers under injected faults, Hier.
    pub recoveries_hier: Vec<RecoveryRecord>,
    /// Fault episodes that fired within the horizon.
    pub faults_injected: u64,
    /// Broadcasters rehomed off dead ingest nodes.
    pub producers_rehomed: u64,
    /// Merged telemetry snapshot (counters, gauges, latency histograms)
    /// from the run's [`TelemetryHub`] — `fleet.*`, `stage.*`, `brain.*`.
    pub telemetry: Snapshot,
    /// Replicated-control-plane summary (`None` when the run used the
    /// single in-process Brain). Sharded runs sum the per-shard clusters.
    pub replication: Option<ReplicationSummary>,
}

impl FleetReport {
    /// Bit-exact equality, the determinism contract of
    /// [`crate::FleetRunner`]: every float is compared through its bit
    /// pattern (so identical NaNs in `hourly_loss` compare equal, and no
    /// epsilon can paper over a divergent run).
    pub fn bit_identical(&self, other: &FleetReport) -> bool {
        fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
            v.iter().map(|x| x.to_bits())
        }
        self.livenet == other.livenet
            && self.hier == other.hier
            && self.hourly_loss.len() == other.hourly_loss.len()
            && bits(&self.hourly_loss).eq(bits(&other.hourly_loss))
            && self.daily_peak_throughput.len() == other.daily_peak_throughput.len()
            && bits(&self.daily_peak_throughput).eq(bits(&other.daily_peak_throughput))
            && self.daily_unique_paths == other.daily_unique_paths
            && self.skipped_offline == other.skipped_offline
            && self.chain_switches == other.chain_switches
            && self.recompute_rounds == other.recompute_rounds
            && self.recoveries_livenet == other.recoveries_livenet
            && self.recoveries_hier == other.recoveries_hier
            && self.faults_injected == other.faults_injected
            && self.producers_rehomed == other.producers_rehomed
            && self.telemetry.bit_identical(&other.telemetry)
            && match (&self.replication, &other.replication) {
                (None, None) => true,
                (Some(a), Some(b)) => a.bit_identical(b),
                _ => false,
            }
    }
}

/// Output of one shard's run: the report plus the per-day realized-path
/// hash sets, which the merge needs to union (`daily_unique_paths` is a
/// set cardinality, so per-shard counts cannot simply be summed).
pub(crate) struct ShardOutput {
    pub(crate) report: FleetReport,
    pub(crate) day_path_sets: Vec<HashSet<u64>>,
}

/// The fleet simulator. Only this struct draws randomness: the draw order
/// per event is the order of the `self.rng` calls below.
pub struct FleetSim {
    config: FleetConfig,
    topology: Topology, // ground truth (shared by both systems)
    edges_by_country: Vec<Vec<NodeId>>,
    brain: ControlPlane,
    workload: Workload,
    // The workload's next session, interleaved with queue events.
    next_arrival: Option<SessionSpec>,
    rng: DetRng,
    livenet: LiveNetPlane,
    hier: HierPlane,
    channels: Vec<ChannelState>,
    // Identical on every shard (seeded from the workload seed alone).
    faults: Vec<ResolvedFault>,
    queue: EventQueue<Ev>,
    // Keyed by the session's index in `report.livenet`, so fault handling
    // iterates sessions in arrival order for free.
    active: BTreeMap<u64, Active>,
    report: FleetReport,
    rollup: Rollup,
    // Run-scoped metric hub; snapshotted into the report at the end.
    telemetry: TelemetryHub,
}

impl FleetSim {
    /// Build the simulator (generates topology, channels, schedules).
    pub fn new(config: FleetConfig) -> FleetSim {
        FleetSim::build(config, None)
    }

    /// Build the simulator for one shard of a partitioned run.
    ///
    /// The topology, channel universe and live schedule are generated
    /// exactly as in [`FleetSim::new`] — every shard agrees on the shared
    /// ground truth because the same RNG streams are consumed to build it.
    /// Only then does the shard diverge: arrivals come from the plan's
    /// channel slice at its Zipf mass share of the fleet rate, per-session
    /// noise draws from `split(index)` of the fleet stream, and session
    /// capacities are scaled by the mass share so per-shard utilization
    /// (and therefore routing and queueing) matches the monolith's.
    pub fn new_shard(config: FleetConfig, plan: &ShardPlan) -> FleetSim {
        FleetSim::build(config, Some(plan))
    }

    fn build(mut config: FleetConfig, shard: Option<&ShardPlan>) -> FleetSim {
        let topology = GeoTopology::generate(&config.geo).topology;
        let countries = config.geo.countries;
        let mut edges_by_country: Vec<Vec<NodeId>> = vec![Vec::new(); countries as usize];
        for n in topology.nodes() {
            if !n.last_resort && !n.well_peered {
                edges_by_country[n.country as usize].push(n.id);
            }
        }
        // Countries whose only nodes are hubs still need an edge pick.
        for (c, v) in edges_by_country.iter_mut().enumerate() {
            if v.is_empty() {
                v.extend(
                    topology
                        .nodes()
                        .filter(|n| n.country == c as u32 && !n.last_resort)
                        .map(|n| n.id),
                );
            }
        }

        let seed = config.workload.seed;
        let workload = match shard {
            None => Workload::new(config.workload.clone(), countries),
            Some(p) => Workload::for_shard(
                config.workload.clone(),
                countries,
                &p.channels,
                p.mass_share,
                p.index as u64,
            ),
        };
        // Each shard runs its own Brain cluster; the seed is a pure
        // function of (workload seed, shard index) so serial and parallel
        // executions of the same partition agree bit-for-bit.
        let brain_seed = shard.map_or(seed, |p| {
            seed.wrapping_add((p.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        let brain = ControlPlane::new(
            &topology,
            &config.brain,
            config.replication.as_ref(),
            brain_seed,
        );

        // Live schedule per channel: alternating live (mean 3 h) and off
        // (mean 40 min) periods — "live streams come and go often" (§3).
        // Drawn for every channel from the un-split stream, so all shards
        // agree on it.
        let mut rng = DetRng::seed(seed).fork("fleet");
        let horizon = workload.horizon();
        let channels: Vec<ChannelState> = workload
            .channels
            .iter()
            .enumerate()
            .map(|(ch, channel)| {
                let mut blocks = Vec::new();
                let mut t = SimTime::from_secs(rng.range_u64(0, 1800));
                while t < horizon {
                    let live = SimDuration::from_secs_f64(
                        rng.exp(3.0 * 3600.0).clamp(600.0, 12.0 * 3600.0),
                    );
                    // Clamp to the horizon so every StreamEnd is processed.
                    let end = (t + live).max(t + SimDuration::from_secs(60)).min(horizon);
                    blocks.push((t, end));
                    let off =
                        SimDuration::from_secs_f64(rng.exp(2400.0).clamp(120.0, 3.0 * 3600.0));
                    t = end + off;
                }
                if shard.is_some_and(|p| p.channels.binary_search(&ch).is_err()) {
                    blocks.clear();
                }
                // A stable edge node in the channel's country.
                let edges = &edges_by_country[channel.country as usize];
                ChannelState {
                    producer: edges[(channel.rank * 7 + 3) % edges.len()],
                    blocks,
                }
            })
            .collect();
        if let Some(p) = shard {
            rng = rng.split(p.index as u64);
            let share = p.mass_share.max(1e-9);
            config.node_capacity_sessions *= share;
            config.link_capacity_sessions *= share;
        }

        FleetSim {
            hier: HierPlane::new(HierRoles::assign(&topology, 2)),
            faults: resolve_faults(&config.faults, &topology, seed, config.workload.days),
            rollup: Rollup::new(config.workload.days as usize),
            config,
            topology,
            edges_by_country,
            brain,
            workload,
            next_arrival: None,
            rng,
            livenet: LiveNetPlane::default(),
            channels,
            queue: EventQueue::new(),
            active: BTreeMap::new(),
            report: FleetReport::default(),
            telemetry: TelemetryHub::new(),
        }
    }

    /// Run the whole configured period and return the report.
    pub fn run(self) -> FleetReport {
        self.run_collect().report
    }

    /// Run and keep the shard-merge bookkeeping alongside the report.
    pub(crate) fn run_collect(mut self) -> ShardOutput {
        self.seed_events();
        let horizon = self.workload.horizon();
        self.drive(horizon);
        self.rollup.finish(self.config.workload.days as usize);
        self.report.hourly_loss = self.rollup.hourly_loss;
        self.report.daily_peak_throughput = self.rollup.daily_peak_throughput;
        self.report.daily_unique_paths =
            self.rollup.day_path_sets.iter().map(HashSet::len).collect();
        // Settle and audit the replicated control plane (no-op in single
        // mode) BEFORE the telemetry export so the exported counters cover
        // the post-settle cluster state.
        self.report.replication = self.brain.finalize(horizon);
        self.report.recompute_rounds = self.brain.recompute_rounds();
        self.brain.record_telemetry(&mut self.telemetry);
        self.report.telemetry = self.telemetry.snapshot();
        ShardOutput {
            report: self.report,
            day_path_sets: self.rollup.day_path_sets,
        }
    }

    /// Seed the event queue (stream schedule, minute tick, faults), load
    /// the arrival register and pre-size the per-session buffers from the
    /// workload's expected volume, so the hot loop never grows a `Vec`.
    fn seed_events(&mut self) {
        for (ch, state) in self.channels.iter().enumerate() {
            for &(start, end) in &state.blocks {
                self.queue.schedule(start, Ev::StreamStart(ch));
                self.queue.schedule(end, Ev::StreamEnd(ch));
            }
        }
        self.queue.schedule(SimTime::from_secs(60), Ev::MinuteTick);
        for (i, f) in self.faults.iter().enumerate() {
            self.queue.schedule(f.start, Ev::FaultStart(i));
            self.queue.schedule(f.end, Ev::FaultEnd(i));
        }
        self.next_arrival = self.workload.next_session();
        let expect = self.workload.expected_sessions();
        // Headroom over the Poisson mean so the tail almost never spills.
        let cap = expect + expect / 8 + 64;
        self.report.livenet.reserve(cap);
        self.report.hier.reserve(cap);
    }

    /// Drive the event loop up to and including `until`.
    ///
    /// Arrivals bypass the event queue entirely: the workload generator
    /// already emits a time-sorted stream, so pushing every session
    /// through the binary heap cost two O(log n) operations for nothing.
    /// The next arrival is held in a register and interleaved with queue
    /// events by timestamp (arrival first on the measure-zero exact tie,
    /// consistently in both serial and parallel execution).
    fn drive(&mut self, until: SimTime) {
        #[cfg(debug_assertions)]
        let schedule_fingerprint = self.schedule_fingerprint();
        loop {
            let next_event = self.queue.peek_time();
            if let Some(spec) = self
                .next_arrival
                .filter(|a| a.at <= until && next_event.is_none_or(|t| a.at <= t))
            {
                self.queue.advance_to(spec.at);
                self.next_arrival = self.workload.next_session();
                self.on_arrival(spec.at, spec);
                continue;
            }
            let Some((now, ev)) = self.queue.pop_until(until) else {
                break;
            };
            match ev {
                Ev::Departure(id) => self.on_departure(id),
                Ev::StreamStart(ch) => self.on_stream_start(now, ch),
                Ev::StreamEnd(ch) => self.on_stream_end(now, ch),
                Ev::MinuteTick => {
                    self.on_minute(now);
                    self.queue
                        .schedule(now + SimDuration::from_secs(60), Ev::MinuteTick);
                }
                Ev::FaultStart(i) => self.on_fault_start(now, i),
                Ev::FaultEnd(i) => self.on_fault_end(now, i),
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            schedule_fingerprint,
            self.schedule_fingerprint(),
            "live-block schedule mutated mid-run"
        );
    }

    #[cfg(debug_assertions)]
    fn schedule_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for c in &self.channels {
            c.blocks.hash(&mut h);
        }
        h.finish()
    }

    /// Where a broadcaster or viewer lands when its own edge is dark.
    fn live_edge_in(&self, country: u32) -> Option<NodeId> {
        self.edges_by_country[country as usize]
            .iter()
            .copied()
            .find(|&e| self.topology.node_is_up(e))
    }

    // ------------------------------------------------------------------
    // Stream lifecycle
    // ------------------------------------------------------------------

    fn on_stream_start(&mut self, now: SimTime, ch: usize) {
        let channel = &self.workload.channels[ch];
        let (stream, country, popular) = (channel.stream, channel.country, channel.popular);
        // A broadcaster cannot push to a dark ingest node; it lands on
        // another edge in its country (sticky — kept after the outage).
        if !self.topology.node_is_up(self.channels[ch].producer) {
            if let Some(alt) = self.live_edge_in(country) {
                self.channels[ch].producer = alt;
                self.report.producers_rehomed += 1;
            }
        }
        let producer = self.channels[ch].producer;
        self.brain
            .commit(BrainOp::RegisterStream { stream, producer }, now);
        if popular {
            self.brain.commit(BrainOp::MarkPopular { stream }, now);
        }
        self.livenet.start_stream(producer, stream);
        self.hier.start_stream(&self.topology, stream, producer);
    }

    fn on_stream_end(&mut self, now: SimTime, ch: usize) {
        let stream = self.workload.channels[ch].stream;
        self.brain.commit(BrainOp::UnregisterStream { stream }, now);
        self.livenet.end_stream(stream);
        self.hier.end_stream(stream);
    }

    fn channel_live_until(&self, ch: usize, now: SimTime) -> Option<SimTime> {
        // Blocks are sorted and disjoint; binary-search the last block
        // starting at or before `now` instead of scanning the whole
        // schedule per arrival.
        let blocks = &self.channels[ch].blocks;
        let i = blocks.partition_point(|&(s, _)| s <= now);
        if i == 0 {
            return None;
        }
        let (_, end) = blocks[i - 1];
        (now < end).then_some(end)
    }

    // ------------------------------------------------------------------
    // Session arrival / departure
    // ------------------------------------------------------------------

    fn skip_offline(&mut self) {
        self.report.skipped_offline += 1;
        self.telemetry.incr(ids::FLEET_RACED_OFFLINE);
    }

    fn on_arrival(&mut self, now: SimTime, spec: SessionSpec) {
        let Some(live_until) = self.channel_live_until(spec.channel, now) else {
            return self.skip_offline();
        };
        let stream = self.workload.channels[spec.channel].stream;
        let producer = self.channels[spec.channel].producer;
        let Some(mut consumer) = self
            .workload
            .pick_edge(&self.edges_by_country, spec.viewer_country)
        else {
            return;
        };
        // Producers are mapped to ingest-optimized clusters; a viewer lands
        // on the broadcaster's own node only rarely (the paper's 0.13 %
        // len-0 share). At our ~10× reduced node count a uniform pick
        // would collide far too often, so re-draw unless a rare collision
        // is sampled (DESIGN.md §1 notes this substitution). A country
        // with a single edge keeps the zero-hop session.
        if consumer == producer && !self.rng.chance(0.005) {
            for _ in 0..8 {
                if consumer != producer {
                    break;
                }
                if let Some(c) = self
                    .workload
                    .pick_edge(&self.edges_by_country, spec.viewer_country)
                {
                    consumer = c;
                }
            }
        }
        // A dark edge (node outage) cannot serve; the client retries the
        // next edge in its country or gives up. Consumes no RNG, so
        // fault-free runs are bit-identical to the pre-fault behavior.
        if !self.topology.node_is_up(consumer) {
            match self.live_edge_in(spec.viewer_country) {
                Some(alt) => consumer = alt,
                None => return self.skip_offline(),
            }
        }

        // Shared client-side conditions. Last-mile LATENCY (distance to
        // the nearest edge) and last-mile BANDWIDTH (access technology)
        // are drawn independently: remote viewers have high streaming
        // delay but can still start fast, which is exactly the Fig. 9
        // GoP-cache observation.
        let bad_last_mile = self.rng.chance(BAD_LAST_MILE_FRACTION);
        let awful_last_mile = bad_last_mile && self.rng.chance(0.12);
        let downlink_mbps = if bad_last_mile {
            self.rng.log_normal(-0.1, 0.7) // ~0.9 Mbps median, heavy tail
        } else {
            self.rng.log_normal(2.1, 0.75) // ~8 Mbps median, slow tail
        };
        let duration = spec.duration.min(live_until.saturating_since(now));
        let client = Client {
            start: now,
            international: self
                .topology
                .is_international(producer, consumer)
                .unwrap_or(false),
            last_mile_class: usize::from(bad_last_mile) + usize::from(awful_last_mile),
            last_mile_ms: LAST_MILE_MS * self.rng.log_normal(0.0, 0.6),
            buffer_fill_ms: PLAYER_BUFFER_MS * (BITRATE_BPS / 1e6)
                / downlink_mbps.max(0.3),
            view_minutes: duration.as_secs_f64() / 60.0,
        };
        // The session's id is the index of its records.
        let id = self.report.livenet.len() as u64;

        // ---------------- LiveNet ----------------
        // A stream that raced offline is served degenerate zero-hop with
        // no Brain round trip charged (same as a prefetched path).
        let attach = self.livenet_attach(now, consumer, stream, spec.channel);
        let attached = attach.is_some();
        let (shared, len, outcome, first_packet_ms) = attach.unwrap_or_else(|| {
            (
                Arc::from(vec![consumer]),
                1,
                DecisionOutcome::Prefetched,
                400.0,
            )
        });
        let path = &shared[..len as usize];
        let cdn_ms = self.livenet_cdn_delay(path);
        let record = self.session_record(&LIVENET, path, cdn_ms, first_packet_ms, outcome, &client);
        record_session(&mut self.telemetry, &record);
        self.report.livenet.push(record);
        self.rollup.path(path);

        // ---------------- Hier ----------------
        let (hier_held, outcome, first_packet_ms, cdn_ms) =
            match self.hier.attach(&self.topology, consumer, stream) {
                Some(a) => {
                    // A hit and a miss both draw once.
                    let (outcome, sigma) = match a.hit {
                        true => (DecisionOutcome::LocalHit, 0.4),
                        false => (DecisionOutcome::Prefetched, 0.3),
                    };
                    let serve = LOCAL_SERVE_MS * 1.3 * self.rng.log_normal(0.0, sigma);
                    // The pinned path's delay, before center queueing.
                    let base = cdn_path_delay(&self.topology, &a.nodes);
                    let cdn_ms = base.map_or(450.0, |d| d.as_millis_f64())
                        + self.center_queueing_ms(a.nodes[2]);
                    (a.nodes, outcome, a.fetch_ms + serve, cdn_ms)
                }
                // Stream raced offline, or no L2 in reach: degenerate
                // zero-hop, nothing held.
                None => (Vec::new(), DecisionOutcome::Prefetched, 600.0, 450.0),
            };
        let zero_hop = [consumer];
        let hier_path = if hier_held.is_empty() {
            &zero_hop[..]
        } else {
            &hier_held[..]
        };
        let record =
            self.session_record(&HIER, hier_path, cdn_ms, first_packet_ms, outcome, &client);
        self.report.hier.push(record);

        // Register the active session and schedule departure.
        let session = Active {
            consumer,
            stream,
            channel: spec.channel,
            attached,
            hier_held,
        };
        self.active.insert(id, session);
        self.queue.schedule(now + duration, Ev::Departure(id));
    }

    /// One system's record of a session served over `path`. Draws the
    /// first-mile jitter, then the stall count.
    fn session_record(
        &mut self,
        model: &SystemModel,
        path: &[NodeId],
        cdn_ms: f64,
        first_packet_ms: f64,
        outcome: DecisionOutcome,
        client: &Client,
    ) -> SessionRecord {
        let path_loss: f64 = path
            .windows(2)
            .map(|w| self.topology.link(w[0], w[1]).map_or(0.0, |l| l.loss))
            .sum();
        // Startup sees one-way last-mile latency; playback delay sees the
        // full round trip plus de-jitter margin and encode + decode (130).
        let streaming_ms = cdn_ms
            + FIRST_MILE_MS * self.rng.log_normal(0.0, 0.25)
            + client.last_mile_ms
            + PLAYER_BUFFER_MS
            + 130.0;
        let startup_ms = first_packet_ms
            + 0.5 * client.last_mile_ms
            + client.buffer_fill_ms * model.startup_fill;
        // Stall mix: a degraded last mile dominates; CDN-induced stalls
        // scale with the loss the transport leaves visible.
        let lambda = model.stall_base[client.last_mile_class]
            + path_loss * model.stall_per_loss * client.view_minutes.min(30.0);
        let hour = (client.start.as_secs_f64() / 3600.0) as u64;
        SessionRecord {
            start: client.start,
            day: (hour / 24) as u32,
            hour: (hour % 24) as u32,
            path_len: (path.len().saturating_sub(1)) as u8,
            international: client.international,
            cdn_delay_ms: cdn_ms as f32,
            streaming_delay_ms: streaming_ms as f32,
            first_packet_ms: first_packet_ms as f32,
            startup_ms: startup_ms as f32,
            stalls: self.poisson(lambda),
            outcome,
        }
    }

    fn on_departure(&mut self, id: u64) {
        let Some(session) = self.active.remove(&id) else {
            return;
        };
        if session.attached {
            self.livenet.release(session.consumer, session.stream);
        }
        self.hier.release(&session.hier_held, session.stream);
    }

    // ------------------------------------------------------------------
    // LiveNet attachment (the §4.4 establishment protocol, session level)
    // ------------------------------------------------------------------

    /// `(chain buffer, realized len, decision outcome, first-packet ms)`
    /// — the realized path is `buffer[..len]`, a view into the chain's
    /// shared allocation — or `None`, nothing held, when the Brain has no
    /// path (the stream raced offline).
    fn livenet_attach(
        &mut self,
        now: SimTime,
        consumer: NodeId,
        stream: StreamId,
        channel: usize,
    ) -> Option<(Arc<[NodeId]>, u32, DecisionOutcome, f64)> {
        // Local hit: the consumer already forwards this stream.
        if let Some((path, len)) = self.livenet.local_hit(consumer, stream) {
            let first_packet_ms = LOCAL_SERVE_MS * self.rng.log_normal(0.0, 0.4);
            return Some((path, len, DecisionOutcome::LocalHit, first_packet_ms));
        }

        // Path lookup. Popular broadcasters' paths are prefetched to all
        // nodes (§4.4), so no Brain round trip is charged for them.
        let popular = self.workload.channels[channel].popular;
        let (lookup, measured_ms) = self
            .brain
            .path_request(stream, consumer, now, popular)
            .ok()?;
        // Exactly one RNG draw on the unpopular arm in both control-plane
        // modes, so enabling replication never shifts the session noise
        // stream.
        let brain_ms = if popular {
            None
        } else {
            let service = BRAIN_LOOKUP_MS * self.rng.log_normal(0.0, 0.5);
            Some(match measured_ms {
                // Replicated Brain: the cluster measured the leader-read
                // wait (lease waits, redirects, retries) in virtual time;
                // add the hash-lookup service jitter on top.
                Some(ms) => ms + service,
                // Single Brain: legacy model — RTT to the nearest Path
                // Decision replica (replicated at well-peered sites,
                // §7.1) + RPC/queueing overhead + hash lookup.
                None => self.nearest_replica_rtt(consumer) + 8.0 + service,
            })
        };

        let last_resort = lookup.last_resort;
        // Take the best path by value — the lookup is ours, no clone.
        let path = lookup
            .paths
            .into_iter()
            .next()
            .expect("path lookup returned no paths")
            .nodes;
        let built = self.livenet.establish(
            &self.topology,
            &path,
            stream,
            self.config.long_chain_switch_hops,
        );
        self.report.chain_switches += u64::from(built.switched);

        let first_packet_ms = brain_ms.unwrap_or(0.0)
            + built.establish_ms
            + LOCAL_SERVE_MS * self.rng.log_normal(0.0, 0.3);
        let outcome = match brain_ms {
            _ if last_resort => DecisionOutcome::LastResort {
                response_ms: brain_ms.map(|v| v as f32),
            },
            Some(ms) => DecisionOutcome::Brain {
                response_ms: ms as f32,
            },
            None => DecisionOutcome::Prefetched,
        };
        Some((built.path, built.len, outcome, first_packet_ms))
    }

    fn livenet_cdn_delay(&mut self, path: &[NodeId]) -> f64 {
        let mut d = PRODUCER_PROCESSING_MS;
        for w in path.windows(2) {
            if let Some(l) = self.topology.link(w[0], w[1]) {
                d += l.rtt.as_millis_f64() / 2.0;
                d += recovery_penalty_ms(l.loss, l.rtt);
                // Queueing grows with link utilization.
                d += 6.0 * l.utilization;
            }
        }
        let intermediates = path.len().saturating_sub(2);
        d += RELAY_PROCESSING_MS * intermediates as f64;
        // On a zero-hop path the same node serves.
        d += CONSUMER_PROCESSING_MS;
        d * self.rng.log_normal(0.0, 0.08)
    }

    fn nearest_replica_rtt(&self, consumer: NodeId) -> f64 {
        // Path Decision replicas sit at well-peered sites + last-resort
        // (IXP) nodes (§7.1).
        self.topology
            .nodes()
            .filter(|n| n.well_peered)
            .filter_map(|n| self.topology.link(consumer, n.id))
            .map(|l| l.rtt.as_millis_f64())
            .fold(f64::INFINITY, f64::min)
            .min(200.0)
    }

    /// Center queueing under load (the §2.3 hot-spot effect): all streams
    /// cross the center, and queueing grows superlinearly with its fan-in
    /// share of concurrent sessions.
    fn center_queueing_ms(&mut self, center: NodeId) -> f64 {
        let load =
            self.hier.node_load(center).max(0) as f64 / (self.config.node_capacity_sessions * 30.0);
        let u = load.min(1.5);
        if u > 0.5 {
            (u - 0.5) * 160.0 * self.rng.log_normal(0.0, 0.3)
        } else {
            0.0
        }
    }

    // ------------------------------------------------------------------
    // Fault execution (§6.5 failure handling)
    // ------------------------------------------------------------------

    fn on_fault_start(&mut self, now: SimTime, i: usize) {
        self.report.faults_injected += 1;
        self.telemetry.incr(ids::FLEET_FAULTS_INJECTED);
        if self.faults[i].brain_crash {
            // Control-plane fault: the Paxos leader dies mid-run. The data
            // plane keeps forwarding; new path requests ride the client
            // retry/redirect machinery until a follower takes the lease.
            self.brain.crash_leader(now);
            return;
        }
        // Resolved node lists are ascending, so the set iterates in the
        // same order.
        let down: BTreeSet<NodeId> = self.faults[i].nodes.iter().copied().collect();

        // Ground truth and the Brain's view go dark; the Brain recomputes
        // around the failed elements immediately (scoped update).
        for &node in &down {
            self.topology.set_node_up(node, false);
            self.brain.commit(BrainOp::NodeFailed { node }, now);
        }

        // Broadcasters whose ingest node died re-push to another edge in
        // their country; the Brain rehomes the stream in its SIB. Hier
        // cannot — its tree roles are static — which is the point of §6.5.
        for &node in &down {
            for stream in self.brain.streams_on(node) {
                let Some(ch) = self
                    .workload
                    .channels
                    .iter()
                    .position(|c| c.stream == stream)
                else {
                    continue;
                };
                let Some(new_producer) = self.live_edge_in(self.workload.channels[ch].country)
                else {
                    continue;
                };
                let op = BrainOp::RehomeProducer {
                    stream,
                    new_producer,
                    now,
                };
                self.brain.commit(op, now);
                self.channels[ch].producer = new_producer;
                self.livenet.rehome(stream, node, new_producer);
                self.report.producers_rehomed += 1;
            }
        }

        // Every active session whose delivery path crosses a dead node
        // fails over. LiveNet consumers detect upstream silence and either
        // switch to a cached alternate (fast, ≈1 RTT after detection) or
        // wait out a Brain round trip (slow); Hier clients reconnect
        // through the static tree over TCP — multi-second either way.
        //
        // Phase 1: record the failovers and release every affected
        // session's subscription chain while the refcounts are still
        // coherent. Phase 2: purge what the dead nodes carried. Phase 3:
        // re-attach, so shared chains are rebuilt fresh instead of
        // local-hitting a stale entry that still routes through the
        // failure.
        let ids: Vec<u64> = self.active.keys().copied().collect();
        let mut reattach: Vec<(u64, NodeId, StreamId, usize)> = Vec::new();
        for id in ids {
            let a = &self.active[&id];
            let (mut consumer, stream, channel) = (a.consumer, a.stream, a.channel);
            let attached = a.attached;
            let hier_hit = a.hier_held.iter().any(|n| down.contains(n));
            let ln_hit = self
                .livenet
                .realized(consumer, stream)
                .is_some_and(|p| p.iter().any(|n| down.contains(n)));
            if ln_hit {
                // Popular channels' alternates are prefetched everywhere
                // (§4.4); others hold Brain-provisioned backups most of
                // the time.
                let fast = self.workload.channels[channel].popular || self.rng.chance(0.7);
                let detect = 2500.0 * self.rng.log_normal(0.0, 0.15);
                let recover = if fast {
                    // One subscribe round trip to the cached alternate.
                    30.0 * self.rng.log_normal(0.0, 0.4)
                } else {
                    // Ask the Brain, wait for the recompute, re-establish.
                    self.nearest_replica_rtt(consumer) + 2400.0 * self.rng.log_normal(0.0, 0.3)
                };
                self.telemetry.incr(ids::FLEET_RECOVERIES);
                self.telemetry
                    .observe(ids::STAGE_RECOVERY_MS, detect + recover);
                self.report
                    .recoveries_livenet
                    .push(RecoveryRecord::new(now, fast, detect, recover));
                if attached {
                    self.livenet.release(consumer, stream);
                }
                if down.contains(&consumer) {
                    // The viewer's own edge died; the client retries
                    // against the next edge in its country, if any.
                    let country = self.topology.node(consumer).map_or(0, |n| n.country);
                    if let Some(alt) = self.live_edge_in(country) {
                        consumer = alt;
                        if let Some(a) = self.active.get_mut(&id) {
                            a.consumer = alt;
                        }
                    }
                }
                reattach.push((id, consumer, stream, channel));
            }
            if hier_hit {
                let detect = 3000.0 * self.rng.log_normal(0.0, 0.2);
                let recover = 8000.0 * self.rng.log_normal(0.0, 0.35);
                self.report
                    .recoveries_hier
                    .push(RecoveryRecord::new(now, false, detect, recover));
            }
        }
        self.livenet.purge(&down);
        self.hier.purge(&down);
        // The purged references leave their holders' sets, so a later
        // departure cannot take a reference from a session that attached
        // after the purge.
        for a in self.active.values_mut() {
            a.hier_held.retain(|n| !down.contains(n));
        }
        // Re-establish over paths the Brain already recomputed around the
        // failure. A viewer whose edge died with no live alternative, or
        // whose stream has no path left, stays detached.
        for (id, consumer, stream, channel) in reattach {
            let attached = self.topology.node_is_up(consumer)
                && self
                    .livenet_attach(now, consumer, stream, channel)
                    .is_some();
            if let Some(a) = self.active.get_mut(&id) {
                a.attached = attached;
            }
        }
    }

    fn on_fault_end(&mut self, now: SimTime, i: usize) {
        if self.faults[i].brain_crash {
            self.brain.restart_crashed(now);
            return;
        }
        for &node in &self.faults[i].nodes {
            self.topology.set_node_up(node, true);
            self.brain.commit(BrainOp::NodeRecovered { node }, now);
        }
    }

    // ------------------------------------------------------------------
    // Periodic work: reports, loads, loss, aggregation
    // ------------------------------------------------------------------

    fn on_minute(&mut self, now: SimTime) {
        // In sharded runs this is the per-shard peak; the merged snapshot
        // keeps the max across shards (gauges merge by max), which both
        // `run_serial` and `run_parallel` compute over the same partition.
        self.telemetry
            .gauge_max(ids::FLEET_PEAK_VIEWERS, self.active.len() as f64);
        let hour = (now.as_secs_f64() / 3600.0) as u64;
        let day = (hour / 24) as u32;
        // Plain hour-of-day load shape (loss follows *time of day*; the
        // festival adds sessions but capacity is up-scaled to match, §6.5).
        let diurnal = crate::workload::diurnal_factor(now.as_secs_f64() / 3600.0 % 24.0);
        let capacity_scale = if self.config.workload.festival_days.contains(&day) {
            FESTIVAL_UPSCALE
        } else {
            1.0
        };

        // Update ground-truth loss (diurnal; Fig. 13) and utilization from
        // the plane's fresh loads. Every link's loss moves every minute:
        // one walk of the rows, which also writes every link idle. Load is
        // sparse, so only the loaded links are looked up afterwards.
        let loads = self.livenet.loads();
        let mut loss_sum = 0.0;
        let mut loss_n = 0u64;
        let link_cap = self.config.link_capacity_sessions * capacity_scale;
        for (f, t, l) in self.topology.links_mut() {
            l.utilization = 0.0;
            // Loss rises with the diurnal load (peaking < 0.175%).
            let jitter = 0.8 + 0.4 * ((f.raw() * 31 + t.raw() * 17 + hour) % 97) as f64 / 97.0;
            l.loss = (BASE_LOSS * (0.5 + 2.2 * diurnal) * jitter).min(0.00175);
            loss_sum += l.loss;
            loss_n += 1;
        }
        for (&(f, t), &sessions) in &loads.link_sessions {
            // A loaded pair the topology has no link for writes nothing.
            if let Some(l) = self.topology.link_mut(f, t) {
                l.utilization = (sessions / link_cap).min(1.0);
            }
        }
        // Node loads, same single-pass shape.
        let node_cap = self.config.node_capacity_sessions * capacity_scale;
        for n in self.topology.nodes_mut() {
            let fanout = loads
                .node_fanout
                .get(&n.id)
                .copied()
                .unwrap_or(0.0)
                .max(0.0);
            n.utilization = (fanout / node_cap).min(1.0);
        }

        // 1-minute node reports into the Brain (overload alarms included),
        // as ONE op: a single Brain absorbs them and runs the 10-minute
        // PIB recompute check; a cluster commits the batch as one Paxos
        // decree and every replica does the same.
        let reports: Vec<NodeReport> = self
            .topology
            .routable_node_ids()
            .filter_map(|n| livenet_topology::view::report_from_topology(&self.topology, n, now))
            .collect();
        self.brain.commit(BrainOp::Reports { now, reports }, now);

        let mean_loss = if loss_n > 0 {
            loss_sum / loss_n as f64
        } else {
            0.0
        };
        self.rollup
            .minute(hour, mean_loss, self.active.len() as f64 * BITRATE_BPS);
    }

    fn poisson(&mut self, lambda: f64) -> u16 {
        // Knuth's method; lambda is small (< ~3) in all our uses.
        let l = (-lambda).exp();
        let mut k = 0u16;
        let mut p = 1.0;
        loop {
            p *= self.rng.f64();
            if p <= l || k > 50 {
                return k;
            }
            k += 1;
        }
    }
}

/// A hand-made 5-node topology for testing the parts without a generator.
#[cfg(test)]
pub(crate) mod testkit {
    use livenet_topology::{LinkMetrics, NodeInfo, Topology};
    use livenet_types::{Bandwidth, NodeId, SimDuration};

    /// Five routable nodes in a full mesh, RTT 10 ms per index step:
    /// `n[0]` and `n[4]` are edges, `n[1..=3]` well-peered hubs; `n[0..=2]`
    /// sit in country 0, `n[3..]` in country 1.
    pub(crate) fn five_nodes() -> (Topology, [NodeId; 5]) {
        let n = [1u64, 2, 3, 4, 5].map(NodeId::new);
        let mut t = Topology::new();
        for (i, &id) in n.iter().enumerate() {
            t.upsert_node(NodeInfo {
                id,
                country: u32::from(i >= 3),
                capacity: Bandwidth::from_gbps(10),
                utilization: 0.0,
                last_resort: false,
                well_peered: (1..=3).contains(&i),
            });
        }
        for i in 0..5 {
            for j in (i + 1)..5 {
                let rtt = SimDuration::from_millis(10 * (j - i) as u64);
                t.upsert_duplex(
                    n[i],
                    n[j],
                    LinkMetrics::healthy(rtt, Bandwidth::from_gbps(10)),
                )
                .expect("both endpoints exist");
            }
        }
        (t, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::summarize;

    fn smoke_report(seed: u64) -> FleetReport {
        FleetSim::new(FleetConfig::smoke(seed)).run()
    }

    #[test]
    fn smoke_run_produces_paired_sessions() {
        let r = smoke_report(1);
        assert!(r.livenet.len() > 500, "only {}", r.livenet.len());
        assert_eq!(r.livenet.len(), r.hier.len());
    }

    #[test]
    fn livenet_beats_hier_on_the_headline_metrics() {
        let r = smoke_report(2);
        let ln = summarize(&r.livenet);
        let h = summarize(&r.hier);
        assert!(
            ln.median_cdn_delay_ms < h.median_cdn_delay_ms * 0.7,
            "LiveNet {} vs Hier {}",
            ln.median_cdn_delay_ms,
            h.median_cdn_delay_ms
        );
        assert!(ln.median_path_len <= 2.0);
        assert_eq!(h.median_path_len, 4.0);
        assert!(ln.median_streaming_delay_ms < h.median_streaming_delay_ms);
        assert!(ln.zero_stall_ratio > h.zero_stall_ratio);
        assert!(ln.fast_startup_ratio >= h.fast_startup_ratio);
    }

    #[test]
    fn hier_paths_are_always_four_hops() {
        let r = smoke_report(3);
        assert!(r.hier.iter().all(|s| s.path_len == 4));
    }

    #[test]
    fn livenet_paths_respect_computed_bound_mostly() {
        let r = smoke_report(4);
        // Long chains can exceed 3 but are bounded by the switch threshold.
        let too_long = r
            .livenet
            .iter()
            .filter(|s| usize::from(s.path_len) > FleetConfig::smoke(4).long_chain_switch_hops)
            .count();
        assert_eq!(too_long, 0);
        let over3 =
            r.livenet.iter().filter(|s| s.path_len > 3).count() as f64 / r.livenet.len() as f64;
        assert!(over3 < 0.05, "{over3}");
    }

    #[test]
    fn local_hits_happen_and_reduce_first_packet_delay() {
        let r = smoke_report(5);
        let hits: Vec<&SessionRecord> = r
            .livenet
            .iter()
            .filter(|s| s.outcome.is_local_hit())
            .collect();
        let misses: Vec<&SessionRecord> = r
            .livenet
            .iter()
            .filter(|s| !s.outcome.is_local_hit())
            .collect();
        assert!(!hits.is_empty());
        assert!(!misses.is_empty());
        let mean = |v: &[&SessionRecord]| {
            v.iter().map(|s| f64::from(s.first_packet_ms)).sum::<f64>() / v.len() as f64
        };
        assert!(mean(&hits) < mean(&misses) / 2.0);
        // Hits carry no brain response time.
        assert!(hits.iter().all(|s| s.outcome.response_ms().is_none()));
    }

    #[test]
    fn report_telemetry_mirrors_session_records() {
        let r = smoke_report(5);
        let snap = &r.telemetry;
        assert_eq!(snap.counter("fleet.sessions"), r.livenet.len() as u64);
        let hits = r
            .livenet
            .iter()
            .filter(|s| s.outcome.is_local_hit())
            .count() as u64;
        assert_eq!(snap.counter("fleet.local_hits"), hits);
        let brain_served = r
            .livenet
            .iter()
            .filter(|s| matches!(s.outcome, DecisionOutcome::Brain { .. }))
            .count() as u64;
        assert_eq!(snap.counter("fleet.brain_served"), brain_served);
        assert_eq!(
            snap.hist("stage.startup_ms").unwrap().count,
            r.livenet.len() as u64
        );
        // Brain lifetime counters flow through record_telemetry.
        assert_eq!(snap.counter("brain.recompute_rounds"), r.recompute_rounds);
        assert!(snap.counter("brain.requests_served") > 0);
        assert!(snap.gauge("fleet.peak_viewers").unwrap() > 0.0);
    }

    #[test]
    fn outage_telemetry_counts_faults_and_recoveries() {
        let r = FleetSim::new(outage_config(11)).run();
        let snap = &r.telemetry;
        assert_eq!(snap.counter("fleet.faults_injected"), r.faults_injected);
        assert_eq!(
            snap.counter("fleet.recoveries"),
            r.recoveries_livenet.len() as u64
        );
        let rec = snap.hist("stage.recovery_ms").unwrap();
        assert_eq!(rec.count, r.recoveries_livenet.len() as u64);
        let mean = rec.mean().unwrap();
        assert!(mean > 1000.0, "recovery means {mean:.1} ms");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = smoke_report(7);
        let b = smoke_report(7);
        assert_eq!(a.livenet.len(), b.livenet.len());
        for (x, y) in a.livenet.iter().zip(&b.livenet) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn refcounts_drain_after_run() {
        let mut sim = FleetSim::new(FleetConfig::smoke(8));
        // Run through the shared driver (the same code `run_collect`
        // uses), keeping the sim alive to inspect internal state.
        sim.seed_events();
        sim.drive(sim.workload.horizon());
        // After all departures + stream ends, presence should be empty and
        // link session counts ≈ 0.
        assert_eq!(sim.livenet.entries(), 0, "presences leak");
        for (&(f, t), &c) in &sim.livenet.loads().link_sessions {
            assert!(c.abs() < 1e-6, "link ({f},{t}) leaked {c} sessions");
        }
        // The incremental hier load must drain with the refcounts it
        // mirrors.
        for n in sim.topology.node_ids() {
            assert_eq!(sim.hier.node_load(n), 0, "node {n} leaked hier load");
        }
    }

    /// Step the loop minute by minute and count the (node, stream)-minutes
    /// on which a plane's conservation audit fails: `(LiveNet, Hier)`.
    fn audit_violations(config: FleetConfig) -> (usize, usize) {
        let mut sim = FleetSim::new(config);
        sim.seed_events();
        let (mut livenet, mut hier) = (0, 0);
        for minute in 1..=u64::from(sim.config.workload.days) * 1440 {
            sim.drive(SimTime::from_secs(60 * minute));
            let sessions = sim.active.values();
            livenet += sim
                .livenet
                .audit(
                    sessions
                        .clone()
                        .filter(|a| a.attached)
                        .map(|a| (a.consumer, a.stream)),
                )
                .len();
            hier += sim
                .hier
                .audit(sessions.map(|a| (&a.hier_held[..], a.stream)))
                .len();
        }
        (livenet, hier)
    }

    #[test]
    fn every_reference_is_conserved_at_every_minute() {
        for seed in 11..=14 {
            assert_eq!(
                audit_violations(FleetConfig::smoke(seed)),
                (0, 0),
                "seed {seed}, fault-free"
            );
            let faulted = FleetConfigBuilder::from_config(outage_config(seed))
                .random_faults(3.0, (300, 1200))
                .build()
                .unwrap();
            assert_eq!(audit_violations(faulted), (0, 0), "seed {seed}, faulted");
        }
    }

    fn outage_config(seed: u64) -> FleetConfig {
        FleetConfigBuilder::from_config(FleetConfig::smoke(seed))
            .fault(FleetFault::RegionOutage {
                at_secs: 8 * 3600,
                down_for_secs: 1800,
                country: 0,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn region_outage_triggers_recoveries_and_rehoming() {
        let r = FleetSim::new(outage_config(11)).run();
        assert_eq!(r.faults_injected, 1);
        assert!(!r.recoveries_livenet.is_empty(), "no LiveNet failovers");
        assert!(!r.recoveries_hier.is_empty(), "no Hier failovers");
        // §6.5 shape: LiveNet's fast path dominates and restores playback
        // in about one RTT after detection; Hier is multi-second.
        let fast = r.recoveries_livenet.iter().filter(|x| x.fast).count();
        assert!(fast * 2 > r.recoveries_livenet.len(), "fast path rare");
        let median = |mut v: Vec<f32>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let ln_fast = median(
            r.recoveries_livenet
                .iter()
                .filter(|x| x.fast)
                .map(|x| x.recover_ms)
                .collect(),
        );
        let h = median(r.recoveries_hier.iter().map(|x| x.recover_ms).collect());
        assert!(ln_fast < 200.0, "LiveNet fast recovery {ln_fast} ms");
        assert!(h > 2000.0, "Hier recovery {h} ms");
    }

    #[test]
    fn outage_runs_are_deterministic() {
        let a = FleetSim::new(outage_config(12)).run();
        let b = FleetSim::new(outage_config(12)).run();
        assert!(a.bit_identical(&b));
    }

    #[test]
    fn random_faults_fire_and_sessions_still_pair() {
        let cfg = FleetConfigBuilder::from_config(FleetConfig::smoke(13))
            .random_faults(3.0, (300, 1200))
            .build()
            .unwrap();
        let r = FleetSim::new(cfg).run();
        assert!(r.faults_injected >= 3, "{}", r.faults_injected);
        assert_eq!(r.livenet.len(), r.hier.len());
    }

    #[test]
    fn fault_free_default_reports_no_recoveries() {
        let r = smoke_report(14);
        assert_eq!(r.faults_injected, 0);
        assert!(r.recoveries_livenet.is_empty());
        assert!(r.recoveries_hier.is_empty());
    }

    #[test]
    fn hourly_loss_stays_under_paper_cap() {
        let r = smoke_report(9);
        for &l in r.hourly_loss.iter().filter(|l| !l.is_nan()) {
            assert!(l <= 0.00175, "loss {l}");
            assert!(l > 0.0);
        }
    }
}
