//! `BrainCluster`: N replicated Streaming Brains behind one Paxos log.
//!
//! The paper (§7.1) deploys the logically centralized Streaming Brain on
//! multiple geo-replicated data centers and keeps their state consistent
//! with a Paxos-like scheme.  This module is the deployment harness for
//! that story: every PIB/SIB mutation is a [`BrainOp`], wrapped once in an
//! `Arc`, ordered by the multi-decree [`Replica`] log, and applied by each
//! replica in decided-slot order — so all replicas converge to the same
//! routing state, and each election is a decree in the same log. Every
//! message, acceptor slot, retry and log entry that holds a decree holds a
//! pointer to that one allocation.
//!
//! # Determinism
//!
//! The cluster runs on **virtual time** ([`SimTime`]), fully detached from
//! wall clocks: messages travel on an [`EventQueue`] (ordered by delivery
//! time, then insertion), delays and drops come from a [`DetRng`], and every
//! client call (`replicate`, `path_request`, …) first advances the
//! cluster clock to the caller's `now` and then pumps events.  Two runs
//! with the same seed and the same call sequence produce bit-identical
//! logs, latencies and telemetry — the property the fleet's
//! serial-vs-parallel equivalence check rides on.
//!
//! # Leases and failover
//!
//! A `Lease { holder, term, until }` decree elects a holder: the first
//! election, a takeover after the lease expired, or a lapsed holder
//! standing again. The log records nothing else about leadership, as
//! Raft's leader heartbeats carry no log entries:
//!
//! - **Extension.** With less than `renew_margin` left, the holder sends
//!   `Heartbeat` (its term, `until = now + lease`) to every follower and
//!   resends it every `CLIENT_TIMEOUT` to each one that has not acked. Its
//!   own view and the canonical lease behind [`BrainCluster::leader`]
//!   extend when a majority (itself included) holds the new `until`, and
//!   only while its lease still runs.
//! - **Adoption.** A follower takes a heartbeat of its view's term or a
//!   newer one; an older `Lease` decree applied later never shortens it.
//! - **Learning.** Every replica catches up from the canonical log on
//!   each wake, so a missed `Learn` costs one wake, not a stale lease.
//! - **Election.** When its view expires (leader crash), a replica stands
//!   after a per-rank backoff (`TAKEOVER_BACKOFF × id`), which staggers
//!   proposers and keeps dueling rare; a restarted replica first waits one
//!   lease, its view coming from a log without renewals. A replica that
//!   holds a live lease for another holder does not promise to a stand,
//!   and a stander that learns of one withdraws, so a follower that missed
//!   every heartbeat cannot unseat a live holder.
//!
//! A failed ballot retries from a deadline wake with a bumped minimum round
//! and a jittered delay — classic proposer backoff. Failover latency is
//! measured from the holder's last heartbeat sent (or decree decided)
//! before the crash to the first *lease* decree granted to a live holder
//! afterwards.
//!
//! # Log compaction
//!
//! A slot is forgotten — by the canonical log and by every replica's Paxos
//! state — by the first client call that enters at least one
//! `CLIENT_TIMEOUT` after the slowest replica applied it, a down one
//! included. By then no message about it is in flight, and no
//! replica will ever need it again: catch-up replays only slots a replica
//! has not applied. So the log holds the last few decrees of a healthy
//! cluster, and grows only while a replica is down. Slot numbers stay
//! absolute; the safety audit of a slot runs when it is forgotten.

use std::collections::VecDeque;
use std::sync::Arc;

use livenet_brain::{BrainConfig, PathAssignment, StreamingBrain};
use livenet_telemetry::{ids, MetricSink};
use livenet_topology::Topology;
use livenet_types::{DetRng, Error, EventQueue, NodeId, Result, SimDuration, SimTime, StreamId};

use crate::op::BrainOp;
use crate::paxos::{Outbound, PaxosMsg, Replica, ReplicaId};

/// One-way inter-replica network delay.
const ONE_WAY_DELAY: SimDuration = SimDuration::from_millis(15);
/// Multiplicative delay jitter (`±fraction` around the base delay).
const DELAY_JITTER: f64 = 0.1;
/// Per-rank delay before a non-holder stands for election after the
/// lease expires (replica `r` waits `r × TAKEOVER_BACKOFF`).
const TAKEOVER_BACKOFF: SimDuration = SimDuration::from_millis(150);
/// Client-side retry timeout for proposals and leader waits.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_millis(250);

/// What the cluster's Paxos replicates: one shared op (`Arc`, not `Rc`:
/// a sharded run moves clusters across threads).
type Decree = Arc<BrainOp>;

/// Whether `a` is the decree `b`. The same allocation is (a report may
/// carry a NaN, and then the op does not equal itself); so is an equal op
/// from an earlier call, because `replicate` is at-least-once and a
/// timed-out proposal of the same mutation may be the one that is chosen.
fn same_decree(a: &Decree, b: &Decree) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

// A message delay is `ONE_WAY_DELAY × (1 ± jitter)` and must stay positive.
const _: () = assert!(0.0 <= DELAY_JITTER && DELAY_JITTER < 1.0);

// Once every replica applied a slot, none sends about it again; what was
// already in flight is at most a request and its reply. A slot forgotten one
// `CLIENT_TIMEOUT` later therefore hears nothing more (`stale_msgs`).
const _: () = assert!(
    CLIENT_TIMEOUT.as_nanos() as f64
        >= 2.0 * ONE_WAY_DELAY.as_nanos() as f64 * (1.0 + DELAY_JITTER)
);

/// Deployment parameters for a [`BrainCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of Brain replicas (geo-replicated data centers).
    pub replicas: u32,
    /// Probability an inter-replica message is lost.
    pub msg_loss: f64,
    /// Leader lease duration.
    pub lease: SimDuration,
    /// The holder renews when the lease has less than this left.
    pub renew_margin: SimDuration,
    /// Client attempts before giving up (`CLIENT_TIMEOUT` each).
    pub max_attempts: u32,
    /// Seed for the cluster's private message-delay/loss RNG.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            msg_loss: 0.01,
            lease: SimDuration::from_millis(3000),
            renew_margin: SimDuration::from_millis(1000),
            max_attempts: 40,
            seed: 0,
        }
    }
}

impl ClusterConfig {
    /// Reject what [`BrainCluster::new`] would panic on or never recover
    /// from: no replica, certain message loss, a lease that cannot renew.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(Error::invalid_config("replication.replicas must be > 0"));
        }
        if !(0.0..1.0).contains(&self.msg_loss) {
            return Err(Error::invalid_config(
                "replication.msg_loss must be in [0, 1)",
            ));
        }
        if self.lease == SimDuration::ZERO {
            return Err(Error::invalid_config("replication.lease must be > 0"));
        }
        if self.renew_margin >= self.lease {
            return Err(Error::invalid_config(
                "replication.renew_margin must be < lease",
            ));
        }
        Ok(())
    }
}

/// Lifetime counters for the cluster (all deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// State (non-lease) decrees chosen.
    pub state_ops_committed: u64,
    /// Lease decrees that moved leadership to a different holder
    /// (includes the initial election).
    pub lease_grants: u64,
    /// Lease decrees that renewed the incumbent.
    pub lease_renewals: u64,
    /// Heartbeat rounds that extended the canonical lease (a majority
    /// held the new `until`).
    pub lease_extensions: u64,
    /// Ballots started (fresh proposals plus retries).
    pub proposals: u64,
    /// Inter-replica messages put on the wire.
    pub msgs_sent: u64,
    /// Inter-replica messages lost in flight.
    pub msgs_dropped: u64,
    /// Client retries (leader wait or proposal timeout).
    pub client_retries: u64,
    /// Client redirects to a different leader than its cached hint.
    pub client_redirects: u64,
    /// Client operations abandoned after `max_attempts`.
    pub client_give_ups: u64,
    /// Leader crashes injected.
    pub leader_crashes: u64,
    /// Crashed replicas restarted (and caught up from the log).
    pub restarts: u64,
}

/// A lease: who leads, in which term, until when. It comes from a `Lease`
/// decree or from a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeaseView {
    holder: ReplicaId,
    term: u64,
    until: SimTime,
}

impl LeaseView {
    /// Take `l` into `view`; true when `view` then holds `l`'s holder and
    /// term. A newer term replaces the view. The same term and holder keep
    /// the later `until`, so an older decree never shortens what a
    /// heartbeat extended. An older term, or the same term for another
    /// holder (a second decree of a term: the log's first one won), leaves
    /// the view as it was.
    fn take(view: &mut Option<LeaseView>, l: LeaseView) -> bool {
        match view {
            Some(v) if l.term < v.term || (l.term == v.term && l.holder != v.holder) => false,
            Some(v) if l.term == v.term => {
                v.until = v.until.max(l.until);
                true
            }
            _ => {
                *view = Some(l);
                true
            }
        }
    }

    /// Whether the lease still runs at `now`.
    fn live(&self, now: SimTime) -> bool {
        now < self.until
    }
}

/// The holder's heartbeat round: the lease it asks followers to hold.
#[derive(Debug, Clone)]
struct Round {
    lease: LeaseView,
    /// Replicas that hold `lease` (the holder counts as one).
    acked: Vec<bool>,
    /// When followers that have not acked are sent the heartbeat again.
    resend_at: SimTime,
}

impl Round {
    fn acks(&self) -> usize {
        self.acked.iter().filter(|&&a| a).count()
    }
}

/// An in-flight proposal a replica must retry until its slot decides.
#[derive(Debug, Clone)]
struct Pending {
    slot: u64,
    value: Decree,
    attempts: u64,
    deadline: SimTime,
    /// A `Lease` decree: the proposer stands for election.
    stand: bool,
}

#[derive(Debug)]
enum NetEvent {
    Deliver {
        from: ReplicaId,
        to: ReplicaId,
        msg: PaxosMsg<Decree>,
        /// A `Prepare` of a ballot that stands for election (replies never
        /// are).
        stand: bool,
    },
    /// The holder asks `to` to hold `lease`.
    Heartbeat {
        to: ReplicaId,
        lease: LeaseView,
    },
    /// `from` holds `lease` (sent to its holder).
    HeartbeatAck {
        from: ReplicaId,
        lease: LeaseView,
    },
    Wake {
        replica: ReplicaId,
    },
}

/// One Brain replica: a Paxos participant plus the state machine it feeds.
#[derive(Debug)]
struct Member {
    paxos: Replica<Decree>,
    brain: StreamingBrain,
    up: bool,
    /// Next slot to apply into the brain (contiguous application cursor).
    applied: u64,
    /// Canon slots below this were already force-fed via Learn (catch-up
    /// watermark). Decided state disappears only by compaction, below every
    /// replica's apply cursor — crash/restart models a replica with stable
    /// storage — so the watermark is monotone-safe.
    learned: u64,
    /// Lease view: the applied `Lease` decrees and the heartbeats taken.
    lease: Option<LeaseView>,
    /// This replica's heartbeat round while it holds the lease (volatile).
    round: Option<Round>,
    /// When this replica last sent a heartbeat.
    heartbeat_sent: SimTime,
    /// A restarted replica stands for election no earlier than this.
    stand_after: SimTime,
    pending: Vec<Pending>,
    next_wake: SimTime,
    /// Result of the most recently applied `RehomeProducer` decree.
    last_rehome: Option<(u64, Option<PathAssignment>)>,
}

impl Member {
    /// Apply every decided decree that has become contiguous.
    fn apply_ready(&mut self) {
        while let Some(op) = self.paxos.decided(self.applied).cloned() {
            self.apply_op(self.applied, &op);
            self.applied += 1;
        }
    }

    fn apply_op(&mut self, slot: u64, op: &BrainOp) {
        if let BrainOp::Lease {
            holder,
            term,
            until,
        } = *op
        {
            LeaseView::take(
                &mut self.lease,
                LeaseView {
                    holder,
                    term,
                    until,
                },
            );
            return;
        }
        let res = op.apply_to(&mut self.brain);
        if matches!(op, BrainOp::RehomeProducer { .. }) {
            self.last_rehome = Some((slot, res));
        }
    }
}

/// Post-run consistency audit results (see [`BrainCluster::finalize`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterAudit {
    /// Slots where some replica's decided value differs from the
    /// canonical chosen log — any nonzero value is a Paxos safety bug.
    /// A compacted slot was audited when it was forgotten.
    pub log_divergences: u64,
    /// Replicas that answered a sampled post-run `path_request` with a
    /// different `PathAssignment` than replica 0 — any nonzero value
    /// means the applied state machines diverged.
    pub assignment_mismatches: u64,
    /// Length of the canonical chosen log.
    pub decided_slots: u64,
    /// Minimum decided-slot count across replicas after final catch-up.
    pub min_replica_decided: u64,
    /// `Lease` decrees chosen for a new holder while the previous
    /// canonical lease still ran and its holder was up — any nonzero value
    /// is a lease-safety bug.
    pub lease_overlaps: u64,
    /// Paxos messages that arrived at a replica for a slot it had
    /// compacted (each replica's [`Replica::stale_msgs`], summed) — any
    /// nonzero value means the compaction horizon is too short.
    pub stale_msgs: u64,
    /// The most slots the canonical log held at once.
    pub log_slots_max: u64,
}

/// N Paxos-replicated [`StreamingBrain`]s plus the deterministic
/// virtual-time network that connects them.  See the module docs.
#[derive(Debug)]
pub struct BrainCluster {
    cfg: ClusterConfig,
    members: Vec<Member>,
    queue: EventQueue<NetEvent>,
    /// The cluster clock: the last popped event's time, or later when a
    /// client call advanced it past the queue head without a pop.
    now: SimTime,
    rng: DetRng,
    /// Canonical chosen log: `canon[i]` holds the cluster-wide chosen value
    /// of slot `canon_base + i`.
    canon: VecDeque<Decree>,
    /// The compaction floor: slots below it are forgotten everywhere.
    canon_base: u64,
    /// The slowest replica's apply cursor each time it advanced, oldest
    /// first, with when: what the next compactions may forget.
    applied_marks: VecDeque<(SimTime, u64)>,
    /// Lease as of the canonical log and the heartbeat rounds a majority
    /// acked (the client's leader oracle).
    canon_lease: Option<LeaseView>,
    client_hint: Option<ReplicaId>,
    /// Virtual time of the most recent decree decision.
    last_decided_at: SimTime,
    /// Replica currently down from [`Self::crash_leader`].
    crashed: Option<ReplicaId>,
    /// The victim's last sign of leadership before the crash (its last
    /// heartbeat sent, or the last decree decided if later); cleared when
    /// a live holder wins a lease (failover complete).
    crash_pending: Option<SimTime>,
    failover_ms: Vec<f64>,
    stats: ClusterStats,
    /// The audit kept as the run goes: lease overlaps, the log's
    /// high-water mark and the divergences of compacted slots.
    audit: ClusterAudit,
}

impl BrainCluster {
    /// Build a cluster of `cfg.replicas` brains over clones of `topology`
    /// and schedule the initial election.
    pub fn new(topology: &Topology, brain_cfg: &BrainConfig, cfg: ClusterConfig) -> Self {
        assert!(cfg.replicas >= 1, "cluster needs at least one replica");
        let ids: Vec<ReplicaId> = (0..cfg.replicas).collect();
        let members = ids
            .iter()
            .map(|&id| Member {
                paxos: Replica::new(id, ids.clone()),
                brain: StreamingBrain::new(topology.clone(), brain_cfg.clone()),
                up: true,
                applied: 0,
                learned: 0,
                lease: None,
                round: None,
                heartbeat_sent: SimTime::ZERO,
                stand_after: SimTime::ZERO,
                pending: Vec::new(),
                next_wake: SimTime::MAX,
                last_rehome: None,
            })
            .collect();
        let rng = DetRng::seed(cfg.seed).fork("brain-cluster");
        let mut cluster = BrainCluster {
            cfg,
            members,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            canon: VecDeque::new(),
            canon_base: 0,
            applied_marks: VecDeque::new(),
            canon_lease: None,
            client_hint: None,
            last_decided_at: SimTime::ZERO,
            crashed: None,
            crash_pending: None,
            failover_ms: Vec::new(),
            stats: ClusterStats::default(),
            audit: ClusterAudit::default(),
        };
        for r in 0..cluster.members.len() {
            cluster.maybe_wake(r as ReplicaId, SimTime::ZERO);
        }
        cluster
    }

    // ------------------------------------------------------------------
    // Event engine
    // ------------------------------------------------------------------

    /// Schedule a wake for `r` at `at` unless an earlier one is pending.
    fn maybe_wake(&mut self, r: ReplicaId, at: SimTime) {
        let cur = self.members[r as usize].next_wake;
        if at < cur || cur <= self.now {
            self.members[r as usize].next_wake = at;
            self.queue.schedule(at, NetEvent::Wake { replica: r });
        }
    }

    /// Put `ev` from `from` to `to` on the network: lost with probability
    /// `msg_loss`, otherwise delivered after a jittered one-way delay.
    /// Local loopback is lossless and zero-delay (FIFO at `now`).
    fn transmit(&mut self, from: ReplicaId, to: ReplicaId, ev: NetEvent) {
        if to == from {
            self.queue.schedule(self.now, ev);
            return;
        }
        self.stats.msgs_sent += 1;
        if self.rng.chance(self.cfg.msg_loss) {
            self.stats.msgs_dropped += 1;
            return;
        }
        let jitter = self.rng.range_f64(1.0 - DELAY_JITTER, 1.0 + DELAY_JITTER);
        let at = self.now + ONE_WAY_DELAY.mul_f64(jitter);
        self.queue.schedule(at, ev);
    }

    fn send_out(&mut self, from: ReplicaId, outs: Vec<Outbound<Decree>>, stand: bool) {
        for o in outs {
            let ev = NetEvent::Deliver {
                from,
                to: o.to,
                msg: o.msg,
                stand,
            };
            self.transmit(from, o.to, ev);
        }
    }

    /// Process the next queued event (advancing the clock to it).
    /// Returns false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        self.dispatch(ev);
        self.mark_applied();
        true
    }

    fn dispatch(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Deliver {
                from,
                to,
                msg,
                stand,
            } => {
                let m = &self.members[to as usize];
                if !m.up {
                    return;
                }
                // A replica that holds a live lease for another holder does
                // not promise to a stand: the lease is not its to give.
                if stand
                    && m.lease
                        .is_some_and(|l| l.holder != from && l.live(self.now))
                {
                    return;
                }
                let outs = self.members[to as usize].paxos.handle(from, msg);
                debug_assert_eq!(
                    self.members[to as usize].paxos.stale_msgs(),
                    0,
                    "a message for a compacted slot"
                );
                self.send_out(to, outs, false);
                self.after_progress(to);
            }
            NetEvent::Heartbeat { to, lease } => {
                let m = &mut self.members[to as usize];
                if m.up && LeaseView::take(&mut m.lease, lease) {
                    self.transmit(to, lease.holder, NetEvent::HeartbeatAck { from: to, lease });
                }
            }
            NetEvent::HeartbeatAck { from, lease } => {
                if self.members[lease.holder as usize].up {
                    self.on_heartbeat_ack(from, lease);
                }
            }
            NetEvent::Wake { replica } => self.on_wake(replica),
        }
    }

    /// Process one event if it is due at or before `t`; otherwise advance
    /// the clock to `t` and return false.
    fn pump_step_until(&mut self, t: SimTime) -> bool {
        match self.queue.peek_time() {
            Some(at) if at <= t => self.step(),
            _ => {
                self.now = self.now.max(t);
                false
            }
        }
    }

    /// Advance the cluster clock to `t`, processing everything due.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.pump_step_until(t) {}
    }

    // ------------------------------------------------------------------
    // Log progress: canon extension + state-machine application
    // ------------------------------------------------------------------

    fn after_progress(&mut self, r: ReplicaId) {
        let m = r as usize;
        while let Some(v) = self.members[m].paxos.decided(self.decided_slots()) {
            let v = Arc::clone(v);
            self.on_chosen(&v);
            self.canon.push_back(v);
        }
        let held = self.canon.len() as u64;
        self.audit.log_slots_max = self.audit.log_slots_max.max(held);
        self.members[m].apply_ready();
    }

    /// Note when the slowest replica's apply cursor (a down one's
    /// included) advanced: what [`Self::compact`] may forget one
    /// `CLIENT_TIMEOUT` later.
    fn mark_applied(&mut self) {
        let low = self.members.iter().map(|m| m.applied).min().unwrap_or(0);
        let marked = self
            .applied_marks
            .back()
            .map_or(self.canon_base, |&(_, w)| w);
        if low > marked {
            self.applied_marks.push_back((self.now, low));
        }
    }

    /// Forget every slot that all replicas applied at least one
    /// `CLIENT_TIMEOUT` ago (see the horizon assertion), auditing each one
    /// as `finalize` would have. A down replica's cursor holds the floor
    /// back until it restarts and catches up. Run only where a client call
    /// enters, so nothing a call still searches is forgotten under it.
    fn compact(&mut self) {
        let mut floor = self.canon_base;
        while let Some(&(at, w)) = self.applied_marks.front() {
            if at + CLIENT_TIMEOUT > self.now {
                break;
            }
            floor = w;
            self.applied_marks.pop_front();
        }
        for slot in self.canon_base..floor {
            let chosen = self
                .canon
                .pop_front()
                .expect("no replica applies past the canon");
            for m in &self.members {
                if m.paxos
                    .decided(slot)
                    .is_some_and(|v| !same_decree(v, &chosen))
                {
                    self.audit.log_divergences += 1;
                }
            }
        }
        if floor > self.canon_base {
            self.canon_base = floor;
            for m in &mut self.members {
                m.paxos.compact_below(floor);
            }
        }
    }

    fn on_chosen(&mut self, op: &BrainOp) {
        self.last_decided_at = self.now;
        match *op {
            BrainOp::Lease {
                holder,
                term,
                until,
            } => {
                let prev = self.canon_lease;
                let lease = LeaseView {
                    holder,
                    term,
                    until,
                };
                if !LeaseView::take(&mut self.canon_lease, lease) {
                    return;
                }
                let new_holder = prev.is_none_or(|p| p.holder != holder);
                if new_holder {
                    self.stats.lease_grants += 1;
                } else {
                    self.stats.lease_renewals += 1;
                }
                if new_holder
                    && prev.is_some_and(|p| p.live(self.now) && self.members[p.holder as usize].up)
                {
                    self.audit.lease_overlaps += 1;
                }
                if let Some(t0) = self.crash_pending {
                    if self.members[holder as usize].up {
                        self.failover_ms
                            .push(self.now.saturating_since(t0).as_millis_f64());
                        self.crash_pending = None;
                    }
                }
            }
            _ => self.stats.state_ops_committed += 1,
        }
    }

    /// Feed `r` every canonically chosen value it has not decided yet
    /// (the learner shortcut a restarted replica uses to catch up), then
    /// apply everything that became contiguous.
    fn catch_up(&mut self, r: ReplicaId) {
        let end = self.decided_slots();
        let m = &mut self.members[r as usize];
        let from = m.learned.max(self.canon_base);
        let held = self.canon.range((from - self.canon_base) as usize..);
        for (slot, value) in (from..).zip(held) {
            if !m.paxos.is_decided(slot) {
                let value = Arc::clone(value);
                let outs = m.paxos.handle(r, PaxosMsg::Learn { slot, value });
                debug_assert!(outs.is_empty());
            }
        }
        m.learned = end;
        m.apply_ready();
    }

    // ------------------------------------------------------------------
    // Lease maintenance + proposal retry (the per-replica wake handler)
    // ------------------------------------------------------------------

    fn on_wake(&mut self, r: ReplicaId) {
        if !self.members[r as usize].up {
            return;
        }
        // Every replica learns on its wake: one that missed a `Learn` would
        // otherwise stand on a log (and a lease) that moved on without it.
        self.catch_up(r);
        self.retry_pendings(r);
        self.lease_maintenance(r);
        self.send_heartbeats(r);
        let next = self.next_wake_time(r);
        self.maybe_wake(r, next);
    }

    fn retry_pendings(&mut self, r: ReplicaId) {
        let now = self.now;
        let ri = r as usize;
        // Drop pendings whose slot decided (win or lose — losers are
        // re-proposed in a fresh slot by their originating client loop or
        // by lease maintenance), and a stand once another holder's live
        // lease is known: its retries, refused by every replica that holds
        // that lease, would only outbid the holder's ballots in the stand's
        // slot, which the holder's next proposal fills.
        let Member {
            paxos,
            lease,
            pending,
            ..
        } = &mut self.members[ri];
        let deferred = lease.is_some_and(|l| l.holder != r && l.live(now));
        pending.retain(|p| !(paxos.is_decided(p.slot) || p.stand && deferred));
        // Retry expired ballots with a bumped minimum round (backoff).
        let due: Vec<usize> = self.members[ri]
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(i, _)| i)
            .collect();
        for i in due {
            let (slot, value, attempts, stand) = {
                let p = &mut self.members[ri].pending[i];
                p.attempts += 1;
                (p.slot, Arc::clone(&p.value), p.attempts, p.stand)
            };
            let jitter = self.rng.range_f64(0.75, 1.5);
            let delay = CLIENT_TIMEOUT.mul_f64(attempts as f64 * jitter);
            self.members[ri].pending[i].deadline = now + delay;
            let min_round = attempts * self.cfg.replicas as u64;
            let outs = self.members[ri]
                .paxos
                .propose_in_slot(slot, value, min_round);
            self.stats.proposals += 1;
            self.send_out(r, outs, stand);
        }
    }

    /// Whether `r`'s heartbeat round for `l` is still short of a majority.
    fn round_open(&self, r: ReplicaId, l: LeaseView) -> bool {
        self.members[r as usize]
            .round
            .as_ref()
            .is_some_and(|rd| rd.lease.term == l.term && rd.lease.until > l.until)
    }

    /// When `r`, its view expired or empty, may stand for election: after
    /// the per-rank backoff, so proposers stagger instead of duel, and not
    /// before a restarted replica has waited one lease.
    fn stand_at(&self, r: ReplicaId) -> SimTime {
        let m = &self.members[r as usize];
        let base = m.lease.map_or(SimTime::ZERO, |l| l.until);
        (base + TAKEOVER_BACKOFF.mul_f64(r as f64)).max(m.stand_after)
    }

    fn lease_maintenance(&mut self, r: ReplicaId) {
        let ri = r as usize;
        let now = self.now;
        match self.members[ri].lease {
            Some(l) if l.holder == r && l.live(now) => {
                if now + self.cfg.renew_margin >= l.until && !self.round_open(r, l) {
                    self.start_round(r, l);
                }
            }
            Some(l) if l.live(now) => {} // someone else holds a live lease
            view => {
                // Expired, lapsed or never granted.
                let standing = self.members[ri].pending.iter().any(|p| p.stand);
                if !standing && now >= self.stand_at(r) {
                    let term = view.map_or(0, |l| l.term) + 1;
                    let value = Arc::new(BrainOp::Lease {
                        holder: r,
                        term,
                        until: now + self.cfg.lease,
                    });
                    self.propose(r, value, true);
                }
            }
        }
    }

    /// Open a heartbeat round asking every follower to hold `l` until
    /// `now + lease`.
    fn start_round(&mut self, r: ReplicaId, l: LeaseView) {
        let lease = LeaseView {
            until: self.now + self.cfg.lease,
            ..l
        };
        let mut acked = vec![false; self.members.len()];
        acked[r as usize] = true;
        self.members[r as usize].round = Some(Round {
            lease,
            acked,
            resend_at: self.now,
        });
        if self.members.len() == 1 {
            self.extend(lease); // a lone replica is its own majority
        }
    }

    /// Send the round's heartbeat to each follower that has not acked it,
    /// when a send is due; drop the round once `r` no longer holds its term.
    fn send_heartbeats(&mut self, r: ReplicaId) {
        let now = self.now;
        let m = &mut self.members[r as usize];
        let Some(rd) = &mut m.round else { return };
        let lease = rd.lease;
        if m.lease
            .is_none_or(|l| l.holder != r || l.term != lease.term)
        {
            m.round = None;
            return;
        }
        if now < rd.resend_at {
            return;
        }
        rd.resend_at = now + CLIENT_TIMEOUT;
        for to in 0..self.members.len() {
            let m = &mut self.members[r as usize];
            if m.round.as_ref().is_some_and(|rd| !rd.acked[to]) {
                m.heartbeat_sent = now;
                let to = to as ReplicaId;
                self.transmit(r, to, NetEvent::Heartbeat { to, lease });
            }
        }
    }

    fn on_heartbeat_ack(&mut self, from: ReplicaId, lease: LeaseView) {
        let quorum = self.members.len() / 2 + 1;
        let Some(rd) = &mut self.members[lease.holder as usize].round else {
            return;
        };
        if rd.lease != lease || rd.acked[from as usize] {
            return;
        }
        rd.acked[from as usize] = true;
        if rd.acks() == quorum {
            self.extend(lease);
        }
    }

    /// A majority holds `lease`: the holder's view and the canonical lease
    /// run to its `until` — if the holder's lease still runs. Once it has
    /// lapsed, followers whose views ran out too may have promised to a
    /// stand, and a late majority must not revive the lease under it.
    fn extend(&mut self, lease: LeaseView) {
        let m = &mut self.members[lease.holder as usize];
        if !m.lease.is_some_and(|l| l.live(self.now)) {
            return;
        }
        LeaseView::take(&mut m.lease, lease);
        if LeaseView::take(&mut self.canon_lease, lease) {
            self.stats.lease_extensions += 1;
        }
    }

    /// Start a ballot for `value` on `r`, to be retried from `r`'s wakes
    /// until its slot decides. The slot is the lowest past the canon that
    /// `r` has not decided and has no ballot pending in, so a slot whose
    /// ballot died with a crash or a withdrawn stand is filled by the next
    /// proposal rather than left a hole below it.
    fn propose(&mut self, r: ReplicaId, value: Decree, stand: bool) {
        let end = self.decided_slots();
        let m = &mut self.members[r as usize];
        let slot = (end..)
            .find(|&s| !m.paxos.is_decided(s) && m.pending.iter().all(|p| p.slot != s))
            .expect("a free slot");
        let outs = m.paxos.propose_in_slot(slot, Arc::clone(&value), 0);
        self.stats.proposals += 1;
        let deadline = self.now + CLIENT_TIMEOUT;
        self.members[r as usize].pending.push(Pending {
            slot,
            value,
            attempts: 1,
            deadline,
            stand,
        });
        self.send_out(r, outs, stand);
        self.maybe_wake(r, deadline);
    }

    /// The next virtual time at which `r` has lease or retry work to do.
    fn next_wake_time(&self, r: ReplicaId) -> SimTime {
        let m = &self.members[r as usize];
        let mut next = match m.lease {
            // The holder: the lease lapses while a round is open, else the
            // next round is due.
            Some(l) if l.holder == r && l.live(self.now) => {
                if self.round_open(r, l) {
                    l.until
                } else {
                    l.until - self.cfg.renew_margin
                }
            }
            _ => self.stand_at(r),
        };
        if let Some(rd) = &m.round {
            if rd.acks() < rd.acked.len() {
                next = next.min(rd.resend_at);
            }
        }
        for p in &m.pending {
            next = next.min(p.deadline);
        }
        // Never busy-spin: wake strictly in the future.
        let floor = self.now + SimDuration::from_millis(10);
        next.max(floor)
    }

    // ------------------------------------------------------------------
    // Client interface (the fleet's control-plane surface)
    // ------------------------------------------------------------------

    /// Current leader per the canonical lease, if alive and unexpired.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.canon_lease
            .filter(|l| l.live(self.now))
            .map(|l| l.holder)
            .filter(|&h| self.members[h as usize].up)
    }

    fn lowest_live(&self) -> Option<ReplicaId> {
        self.members
            .iter()
            .position(|m| m.up)
            .map(|i| i as ReplicaId)
    }

    /// Block (in virtual time) until a live leader holds the lease, or
    /// the attempt budget runs out.  Returns the leader.
    fn await_leader(&mut self, give_up_at: SimTime) -> Result<ReplicaId> {
        loop {
            if let Some(h) = self.leader() {
                if self.client_hint != Some(h) {
                    if self.client_hint.is_some() {
                        self.stats.client_redirects += 1;
                    }
                    self.client_hint = Some(h);
                }
                return Ok(h);
            }
            if self.now >= give_up_at {
                self.stats.client_give_ups += 1;
                return Err(Error::exhausted("brain cluster has no live leader"));
            }
            self.stats.client_retries += 1;
            let wait = self.now + CLIENT_TIMEOUT;
            self.advance_to(wait);
        }
    }

    /// The slot at or after `base` in which `value` was chosen, if it was.
    /// `base` is held: nothing is compacted while a call runs.
    fn committed_since(&self, base: u64, value: &Decree) -> Option<u64> {
        let skip = (base - self.canon_base) as usize;
        let at = self
            .canon
            .range(skip..)
            .position(|v| same_decree(v, value))?;
        Some(base + at as u64)
    }

    /// Replicate one mutation through the log.  Returns the client-visible
    /// latency in ms and, for `RehomeProducer`, the bridge-path assignment
    /// produced when the decree applied on the serving replica.
    ///
    /// Semantics are at-least-once: a proposal that times out is re-issued
    /// in a fresh slot, and the original may still be chosen later, so an
    /// op can appear twice in the log.  All [`BrainOp`] state mutations
    /// are idempotent at the state level (counters may advance twice —
    /// identically on every replica).
    pub fn replicate(
        &mut self,
        op: &BrainOp,
        now: SimTime,
    ) -> Result<(f64, Option<PathAssignment>)> {
        self.advance_to(now);
        self.compact();
        let start = self.now;
        let value: Decree = Arc::new(op.clone());
        let base = self.decided_slots();
        let give_up_at = start + CLIENT_TIMEOUT.mul_f64(self.cfg.max_attempts as f64);
        let committed_slot = loop {
            if self.now >= give_up_at {
                self.stats.client_give_ups += 1;
                return Err(Error::exhausted("brain cluster replicate timed out"));
            }
            let h = self.await_leader(give_up_at)?;
            self.catch_up(h);
            self.propose(h, Arc::clone(&value), false);
            let wait_until = self.now + CLIENT_TIMEOUT;
            // Looked for before the first event too: an earlier proposal of
            // this call may have been chosen during the wait for a leader.
            let chosen = loop {
                let chosen = self.committed_since(base, &value);
                if chosen.is_some() || !self.pump_step_until(wait_until) {
                    break chosen;
                }
            };
            match chosen {
                Some(slot) => break slot,
                None => self.stats.client_retries += 1,
            }
        };
        let rtt_ms = ONE_WAY_DELAY.as_millis_f64() * 2.0;
        let latency = self.now.saturating_since(start).as_millis_f64() + rtt_ms;
        let rehome = if matches!(op, BrainOp::RehomeProducer { .. }) {
            let r = self
                .leader()
                .or_else(|| self.lowest_live())
                .ok_or_else(|| Error::exhausted("no live replica"))?;
            self.catch_up(r);
            match &self.members[r as usize].last_rehome {
                Some((slot, res)) if *slot == committed_slot => res.clone(),
                _ => None,
            }
        } else {
            None
        };
        Ok((latency, rehome))
    }

    /// Serve a path request.
    ///
    /// `prefetched` requests model node-local prefetched path tables
    /// (§4.4): they are answered by the lowest-id live replica at zero
    /// added latency.  Everything else is a leader read under the lease
    /// (the leader first syncs to the canonical log, so reads observe all
    /// committed writes), charged one client→leader round trip plus any
    /// virtual time spent waiting out a leader failover.
    pub fn path_request(
        &mut self,
        stream: StreamId,
        consumer: NodeId,
        now: SimTime,
        prefetched: bool,
    ) -> Result<(PathAssignment, f64)> {
        self.advance_to(now);
        self.compact();
        if prefetched {
            let r = self
                .lowest_live()
                .ok_or_else(|| Error::exhausted("no live replica"))?;
            self.catch_up(r);
            let t = self.now;
            let a = self.members[r as usize]
                .brain
                .path_request(stream, consumer, t)?;
            return Ok((a, 0.0));
        }
        let start = self.now;
        let give_up_at = start + CLIENT_TIMEOUT.mul_f64(self.cfg.max_attempts as f64);
        let h = self.await_leader(give_up_at)?;
        self.catch_up(h);
        let t = self.now;
        let a = self.members[h as usize]
            .brain
            .path_request(stream, consumer, t)?;
        let latency =
            self.now.saturating_since(start).as_millis_f64() + ONE_WAY_DELAY.as_millis_f64() * 2.0;
        Ok((a, latency))
    }

    /// Streams currently produced on `node`, read from a synced replica.
    pub fn streams_on(&mut self, node: NodeId) -> Vec<StreamId> {
        match self.lowest_live() {
            Some(r) => {
                self.catch_up(r);
                self.members[r as usize].brain.streams_on(node)
            }
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crash the current lease holder (or the lowest live replica when no
    /// lease is active).  Returns the victim.  At most one crash can be
    /// outstanding; a second call before [`Self::restart_crashed`] is a
    /// no-op.
    pub fn crash_leader(&mut self, now: SimTime) -> Option<ReplicaId> {
        self.advance_to(now);
        if self.crashed.is_some() {
            return None;
        }
        let victim = self.leader().or_else(|| self.lowest_live())?;
        let m = &mut self.members[victim as usize];
        m.up = false;
        m.pending.clear();
        m.round = None;
        self.crashed = Some(victim);
        self.crash_pending = Some(self.last_decided_at.max(m.heartbeat_sent));
        self.stats.leader_crashes += 1;
        self.client_hint = None;
        Some(victim)
    }

    /// Restart the replica downed by [`Self::crash_leader`]: it rejoins,
    /// catches up from the canonical log (state transfer through the
    /// learner path) and resumes lease participation. The log records
    /// elections, not heartbeats, so its view of the lease may be stale: it
    /// waits one lease, hearing any live holder's heartbeats, before it may
    /// stand.
    pub fn restart_crashed(&mut self, now: SimTime) {
        self.advance_to(now);
        let Some(r) = self.crashed.take() else {
            return;
        };
        let m = &mut self.members[r as usize];
        m.up = true;
        m.stand_after = self.now + self.cfg.lease;
        self.stats.restarts += 1;
        self.catch_up(r);
        self.members[r as usize].next_wake = SimTime::MAX;
        let at = self.now + SimDuration::from_millis(10);
        self.maybe_wake(r, at);
    }

    // ------------------------------------------------------------------
    // End-of-run audit + telemetry
    // ------------------------------------------------------------------

    /// Settle in-flight traffic, audit every replica's decided log
    /// against the canonical chosen log, sync stragglers, and compare
    /// sampled `PathAssignment`s across replicas.
    pub fn finalize(&mut self, horizon: SimTime) -> ClusterAudit {
        self.advance_to(horizon);
        // Grace window: let in-flight ballots and lease traffic settle.
        let settle = self.now + self.cfg.lease + self.cfg.lease;
        self.advance_to(settle);
        let mut audit = self.audit.clone();
        audit.stale_msgs = self.members.iter().map(|m| m.paxos.stale_msgs()).sum();
        // Safety audit: no replica may have decided a value different
        // from the canonical chosen log in any slot (the compacted ones
        // were audited as they went).
        for m in &self.members {
            for (slot, canon_v) in (self.canon_base..).zip(&self.canon) {
                if m.paxos
                    .decided(slot)
                    .is_some_and(|v| !same_decree(v, canon_v))
                {
                    audit.log_divergences += 1;
                }
            }
        }
        // State transfer: every replica (including a still-down one — it
        // would recover from the log on restart) syncs to the canon.
        for r in 0..self.members.len() as ReplicaId {
            self.catch_up(r);
        }
        audit.decided_slots = self.decided_slots();
        audit.min_replica_decided = self
            .members
            .iter()
            .map(|m| m.paxos.decided_count() as u64)
            .min()
            .unwrap_or(0);
        // Convergence audit: sampled streams must yield identical
        // assignments from every replica's applied state.
        let sample: Vec<(StreamId, NodeId)> = {
            let mut s: Vec<(StreamId, NodeId)> =
                self.members[0].brain.decision().sib.iter().collect();
            s.sort_unstable();
            s.truncate(8);
            s
        };
        let t = self.now;
        for (stream, producer) in sample {
            let consumer = self.members[0]
                .brain
                .topology()
                .routable_node_ids()
                .find(|&n| n != producer);
            let Some(consumer) = consumer else { continue };
            let baseline = self.members[0].brain.path_request(stream, consumer, t).ok();
            for m in self.members.iter_mut().skip(1) {
                let got = m.brain.path_request(stream, consumer, t).ok();
                if got != baseline {
                    audit.assignment_mismatches += 1;
                }
            }
        }
        audit
    }

    /// Export cluster counters and failover observations into a sink.
    ///
    /// Brain lifetime counters (recompute rounds, rehomes, KSP work, node
    /// up/down) are identical on every synced replica and are read from
    /// replica 0; request-serving counters are summed across replicas
    /// (each leader term served its own share).  Call after
    /// [`Self::finalize`] so all replicas are synced.
    pub fn record_telemetry(&self, sink: &mut impl MetricSink) {
        let b0 = &self.members[0].brain;
        sink.add(ids::BRAIN_RECOMPUTE_ROUNDS, b0.recompute_rounds);
        sink.add(ids::BRAIN_KSP_PATHS, b0.ksp_paths_computed);
        sink.add(ids::BRAIN_REHOMES, b0.rehomes);
        sink.add(ids::BRAIN_NODE_FAILED, b0.nodes_failed);
        sink.add(ids::BRAIN_NODE_RECOVERED, b0.nodes_recovered);
        let unknown = b0.discovery().unknown_keys;
        if unknown > 0 {
            sink.add(ids::BRAIN_UNKNOWN_KEYS, unknown);
        }
        let served: u64 = self
            .members
            .iter()
            .map(|m| m.brain.decision().requests_served)
            .sum();
        let last_resort: u64 = self
            .members
            .iter()
            .map(|m| m.brain.decision().last_resort_served)
            .sum();
        sink.add(ids::BRAIN_REQUESTS, served);
        sink.add(ids::BRAIN_LAST_RESORT, last_resort);
        sink.add(
            ids::REPLICATION_OPS_COMMITTED,
            self.stats.state_ops_committed,
        );
        sink.add(ids::REPLICATION_LEASE_GRANTS, self.stats.lease_grants);
        sink.add(ids::REPLICATION_LEASE_RENEWALS, self.stats.lease_renewals);
        sink.add(
            ids::REPLICATION_LEASE_EXTENSIONS,
            self.stats.lease_extensions,
        );
        sink.add(ids::REPLICATION_PROPOSALS, self.stats.proposals);
        sink.add(ids::REPLICATION_MSGS_SENT, self.stats.msgs_sent);
        sink.add(ids::REPLICATION_MSGS_DROPPED, self.stats.msgs_dropped);
        sink.add(ids::REPLICATION_CLIENT_RETRIES, self.stats.client_retries);
        sink.add(ids::REPLICATION_REDIRECTS, self.stats.client_redirects);
        sink.add(ids::REPLICATION_LEADER_CRASHES, self.stats.leader_crashes);
        sink.add(ids::REPLICATION_DECIDED_SLOTS, self.decided_slots());
        sink.gauge_max(
            ids::REPLICATION_LOG_SLOTS_MAX,
            self.audit.log_slots_max as f64,
        );
        for &ms in &self.failover_ms {
            sink.observe(ids::BRAIN_FAILOVER_MS, ms);
        }
    }

    /// Measured failover latencies (ms), in crash order.
    pub fn failover_ms(&self) -> &[f64] {
        &self.failover_ms
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Completed recompute rounds (replica 0's applied state).
    pub fn recompute_rounds(&self) -> u64 {
        self.members[0].brain.recompute_rounds
    }

    /// Number of replicas.
    pub fn replicas(&self) -> u32 {
        self.cfg.replicas
    }

    /// Length of the canonical chosen log, compacted slots included.
    pub fn decided_slots(&self) -> u64 {
        self.canon_base + self.canon.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::{GeoConfig, GeoTopology, LinkReport, NodeReport};
    use proptest::prelude::*;

    fn cluster(seed: u64) -> (BrainCluster, Vec<NodeId>) {
        lossy_cluster(seed, ClusterConfig::default().msg_loss)
    }

    fn lossy_cluster(seed: u64, msg_loss: f64) -> (BrainCluster, Vec<NodeId>) {
        let g = GeoTopology::generate(&GeoConfig::tiny(seed));
        let nodes: Vec<NodeId> = g.topology.routable_node_ids().collect();
        let cfg = ClusterConfig {
            seed,
            msg_loss,
            ..ClusterConfig::default()
        };
        (
            BrainCluster::new(&g.topology, &BrainConfig::default(), cfg),
            nodes,
        )
    }

    #[test]
    fn validate_rejects_what_new_cannot_run() {
        let ok = ClusterConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            ClusterConfig {
                replicas: 0,
                ..ok.clone()
            },
            ClusterConfig {
                msg_loss: 1.0,
                ..ok.clone()
            },
            ClusterConfig {
                msg_loss: -0.1,
                ..ok.clone()
            },
            ClusterConfig {
                lease: SimDuration::ZERO,
                ..ok.clone()
            },
            ClusterConfig {
                renew_margin: ok.lease,
                ..ok.clone()
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(Error::InvalidConfig(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn initial_election_produces_a_leader() {
        let (mut c, _) = cluster(1);
        c.advance_to(SimTime::from_secs(5));
        assert!(c.leader().is_some());
        assert!(c.stats().lease_grants >= 1);
        // The lease keeps being extended by heartbeat while the holder is
        // alive, and the log holds the election only.
        c.advance_to(SimTime::from_secs(30));
        assert!(c.leader().is_some());
        assert!(c.stats().lease_extensions >= 2);
        assert_eq!(c.stats().lease_renewals, 0);
        assert_eq!(c.decided_slots(), 1);
    }

    /// A day of decrees at 1 % loss with nobody crashing elects once, and
    /// no replica's view of the lease runs out: a lost heartbeat is resent
    /// to its follower before that follower's view expires.
    #[test]
    fn a_quiet_day_grants_one_lease() {
        for seed in 0..8 {
            let (mut c, nodes) = cluster(seed);
            let day = 86_400;
            for secs in (5..day).step_by(5) {
                let op = BrainOp::RegisterStream {
                    stream: StreamId::new(secs % 64),
                    producer: nodes[0],
                };
                c.replicate(&op, SimTime::from_secs(secs))
                    .expect("a healthy cluster commits");
                for (r, m) in c.members.iter().enumerate() {
                    let live = m.lease.is_some_and(|l| l.live(c.now));
                    assert!(live, "seed {seed}: replica {r}'s view ran out by {}", c.now);
                }
            }
            assert!(c.stats().msgs_dropped > 0, "seed {seed}: loss never fired");
            assert_eq!(c.stats().lease_grants, 1, "seed {seed}: {:?}", c.stats());
            // Compaction keeps the log at a slot or two all day.
            assert!(c.audit.log_slots_max <= 2, "seed {seed}: {:?}", c.audit);
            let stale: u64 = c.members.iter().map(|m| m.paxos.stale_msgs()).sum();
            assert_eq!(stale, 0, "seed {seed}");
        }
    }

    #[test]
    fn a_lease_takes_newer_terms_and_later_expiries_only() {
        let at = SimTime::from_secs;
        let lease = |holder, term, secs| LeaseView {
            holder,
            term,
            until: at(secs),
        };
        let mut view = None;
        assert!(LeaseView::take(&mut view, lease(0, 1, 3)));
        // A heartbeat extends; the term's older decree does not shorten.
        assert!(LeaseView::take(&mut view, lease(0, 1, 9)));
        assert!(LeaseView::take(&mut view, lease(0, 1, 3)));
        assert_eq!(view, Some(lease(0, 1, 9)));
        // A second decree of the term, or an older term, changes nothing.
        assert!(!LeaseView::take(&mut view, lease(1, 1, 12)));
        assert!(!LeaseView::take(&mut view, lease(2, 0, 12)));
        assert_eq!(view, Some(lease(0, 1, 9)));
        // A newer term replaces, even with an earlier expiry.
        assert!(LeaseView::take(&mut view, lease(1, 2, 5)));
        assert_eq!(view, Some(lease(1, 2, 5)));
    }

    /// A restarted replica learns the log, which records elections only, so
    /// its view is stale: it waits one lease, hears the live holder's
    /// heartbeats, and stands for nothing.
    #[test]
    fn a_restarted_replica_hears_the_holder_before_it_may_stand() {
        let (mut c, _) = cluster(12);
        let victim = c.crash_leader(SimTime::from_secs(5)).expect("victim");
        c.advance_to(SimTime::from_secs(15));
        let holder = c.leader().expect("failed over");
        c.restart_crashed(SimTime::from_secs(15));
        let r = victim as usize;
        assert!(
            !c.members[r].lease.is_some_and(|l| l.live(c.now)),
            "the log kept a live lease"
        );
        let end = c.now + c.cfg.lease;
        while c.queue.peek_time().is_some_and(|t| t <= end) {
            c.step();
            assert!(
                c.members[r].pending.iter().all(|p| !p.stand),
                "stood at {}",
                c.now
            );
        }
        let view = c.members[r].lease.expect("a view");
        assert!(view.holder == holder && view.live(c.now));
        assert_eq!(c.stats().lease_grants, 2);
    }

    #[test]
    fn replicate_applies_on_every_replica() {
        let (mut c, nodes) = cluster(2);
        let s = StreamId::new(7);
        let now = SimTime::from_secs(5);
        let (lat, _) = c
            .replicate(
                &BrainOp::RegisterStream {
                    stream: s,
                    producer: nodes[0],
                },
                now,
            )
            .expect("replicate");
        assert!(lat > 0.0, "replication must cost virtual time");
        let audit = c.finalize(SimTime::from_secs(10));
        assert_eq!(audit.log_divergences, 0);
        for r in 0..c.replicas() {
            assert_eq!(
                c.members[r as usize].brain.producer_of(s),
                Some(nodes[0]),
                "replica {r} missed the replicated registration"
            );
        }
    }

    #[test]
    fn leader_reads_observe_committed_writes() {
        let (mut c, nodes) = cluster(3);
        let s = StreamId::new(1);
        let now = SimTime::from_secs(5);
        c.replicate(
            &BrainOp::RegisterStream {
                stream: s,
                producer: nodes[0],
            },
            now,
        )
        .unwrap();
        let (a, lat) = c
            .path_request(s, nodes[1], SimTime::from_secs(6), false)
            .expect("leader read");
        assert_eq!(a.producer, nodes[0]);
        assert!(lat >= ONE_WAY_DELAY.as_millis_f64() * 2.0);
        // Prefetched reads are free.
        let (_, lat0) = c
            .path_request(s, nodes[1], SimTime::from_secs(6), true)
            .unwrap();
        assert_eq!(lat0, 0.0);
    }

    #[test]
    fn leader_crash_fails_over_and_measures_latency() {
        let (mut c, nodes) = cluster(4);
        let s = StreamId::new(2);
        c.replicate(
            &BrainOp::RegisterStream {
                stream: s,
                producer: nodes[0],
            },
            SimTime::from_secs(5),
        )
        .unwrap();
        let old = c.crash_leader(SimTime::from_secs(10)).expect("victim");
        // Requests during the outage still succeed, just slower: the
        // client waits out the lease and a new leader takes over.
        let (a, lat) = c
            .path_request(s, nodes[1], SimTime::from_secs(10), false)
            .expect("request during failover");
        assert_eq!(a.producer, nodes[0]);
        let new = c.leader().expect("new leader");
        assert_ne!(new, old, "failover must move leadership");
        assert!(lat > 100.0, "failover read should pay the outage: {lat}");
        assert_eq!(c.failover_ms().len(), 1);
        let fo = c.failover_ms()[0];
        assert!(fo > 0.0 && fo < 15_000.0, "failover {fo}ms out of bounds");
        // Restart: the victim catches up from the log.
        c.restart_crashed(SimTime::from_secs(20));
        let audit = c.finalize(SimTime::from_secs(25));
        assert_eq!(audit.log_divergences, 0);
        assert_eq!(audit.assignment_mismatches, 0);
        assert_eq!(audit.min_replica_decided, audit.decided_slots);
    }

    #[test]
    fn lossy_network_still_converges() {
        let (mut c, nodes) = lossy_cluster(5, 0.15);
        for i in 0..10u64 {
            c.replicate(
                &BrainOp::RegisterStream {
                    stream: StreamId::new(i),
                    producer: nodes[(i % 3) as usize],
                },
                SimTime::from_secs(5 + i),
            )
            .expect("replicate under loss");
        }
        let audit = c.finalize(SimTime::from_secs(60));
        assert_eq!(audit.log_divergences, 0);
        assert_eq!(audit.assignment_mismatches, 0);
        assert!(c.stats().msgs_dropped > 0, "loss model must have fired");
    }

    /// A minute report whose measurements are NaN: an op that does not equal
    /// itself, so only the pointer can say "this is my decree".
    fn nan_report(c: &BrainCluster, from: NodeId, secs: u64) -> (BrainOp, NodeId) {
        let to = c.members[0].brain.topology().row(from).0[0];
        let report = NodeReport {
            node: from,
            at: SimTime::from_secs(secs),
            utilization: f64::NAN,
            links: vec![LinkReport {
                to,
                rtt: SimDuration::from_millis(secs),
                loss: f64::NAN,
                utilization: f64::NAN,
                from_transport: true,
            }],
        };
        let op = BrainOp::Reports {
            now: SimTime::from_secs(secs),
            reports: vec![report],
        };
        assert_ne!(op, op.clone());
        (op, to)
    }

    #[test]
    fn a_report_that_does_not_equal_itself_commits() {
        let (mut c, nodes) = cluster(7);
        let (op, to) = nan_report(&c, nodes[0], 5);
        c.replicate(&op, SimTime::from_secs(5))
            .expect("recognised by pointer");
        assert_eq!(c.stats().client_retries, 0);
        let audit = c.finalize(SimTime::from_secs(10));
        assert_eq!(audit.log_divergences, 0);
        for m in &c.members {
            let link = m.brain.topology().link(nodes[0], to).expect("a link");
            assert!(link.loss.is_nan() && link.rtt == SimDuration::from_millis(5));
        }
    }

    /// What [`crash_and_restart`] leaves behind.
    struct CrashRun {
        c: BrainCluster,
        audit: ClusterAudit,
        /// Decrees the victim missed while it was down.
        missed: usize,
        /// The log's high-water mark when the leader crashed.
        held_before_crash: u64,
        /// The log's length when the leader crashed.
        decided_at_crash: u64,
    }

    /// A NaN report a second from 5 s to 25 s at 20 % loss, the leader
    /// crashed at 15 s and restarted at 25 s, settled at 60 s; `before_call`
    /// sees the cluster at each report's time, just before the report. Some
    /// reports may give up (`client_give_ups`): per-slot Paxos needs four
    /// lossy hops a ballot and backs off linearly.
    fn crash_and_restart(seed: u64, mut before_call: impl FnMut(&BrainCluster)) -> CrashRun {
        let (mut c, nodes) = lossy_cluster(seed, 0.2);
        let mut report = |c: &mut BrainCluster, secs: u64| {
            c.advance_to(SimTime::from_secs(secs));
            before_call(c);
            let (op, _) = nan_report(c, nodes[0], secs);
            let _ = c.replicate(&op, SimTime::from_secs(secs));
        };
        (5..15).for_each(|secs| report(&mut c, secs));
        let victim = c.crash_leader(SimTime::from_secs(15)).expect("victim") as usize;
        let held_before_crash = c.audit.log_slots_max;
        let decided_at_crash = c.decided_slots();
        (15..25).for_each(|secs| report(&mut c, secs));
        let missed = c.decided_slots() as usize - c.members[victim].paxos.decided_count();
        c.restart_crashed(SimTime::from_secs(25));
        let audit = c.finalize(SimTime::from_secs(60));
        CrashRun {
            c,
            audit,
            missed,
            held_before_crash,
            decided_at_crash,
        }
    }

    /// Check that every replica holding a slot the canon holds points at
    /// the canon's own allocation. Returns the first held slot some replica
    /// has not decided: every slot below it is checked on every replica.
    fn assert_shared(c: &BrainCluster) -> u64 {
        let mut checked = c.decided_slots();
        for (r, m) in c.members.iter().enumerate() {
            for (slot, chosen) in (c.canon_base..).zip(&c.canon) {
                match m.paxos.decided(slot) {
                    Some(decided) => assert!(
                        Arc::ptr_eq(decided, chosen),
                        "replica {r} holds a copy of slot {slot}"
                    ),
                    None => checked = checked.min(slot),
                }
            }
        }
        checked
    }

    /// No path copies a decree: not a message, a retried ballot or a
    /// catch-up `Learn`. The decrees are NaN reports, so a copy that got
    /// chosen would also never be recognised by the client that proposed it.
    /// Compaction runs only where a client call enters, so looking just
    /// before every call sees each slot on every replica before it is
    /// forgotten.
    #[test]
    fn every_holder_points_at_the_one_decree() {
        let mut checked = 0;
        let CrashRun {
            c, audit, missed, ..
        } = crash_and_restart(6, |c| {
            assert!(
                c.canon_base <= checked,
                "slot {checked} was forgotten unchecked"
            );
            checked = assert_shared(c);
        });
        assert!(missed > 0, "the victim missed nothing while it was down");
        assert!(c.stats().msgs_dropped > 0 && c.stats().proposals > audit.decided_slots);
        assert_eq!(audit.log_divergences, 0);
        assert_eq!(audit.min_replica_decided, audit.decided_slots);
        assert!(c.canon_base > 0, "nothing was compacted");
        assert!(
            c.canon_base <= checked,
            "slot {checked} was forgotten unchecked"
        );
        assert_eq!(
            assert_shared(&c),
            c.decided_slots(),
            "a replica lags the canon"
        );
    }

    /// The shape above on sixty seeds: whatever the client gave up on, no
    /// replica's log diverges, no lease is taken over while it runs, every
    /// replica ends caught up, and no message arrives for a forgotten slot.
    /// With every replica up the log holds a few slots (at most 15 on these
    /// seeds, duplicate decrees of retried reports included); while the
    /// victim is down it grows by what is decided, and no further.
    #[test]
    fn a_crash_under_loss_converges_on_every_seed() {
        for seed in 0..60 {
            let run = crash_and_restart(seed, |_| {});
            let audit = &run.audit;
            let since_crash = audit.decided_slots - run.decided_at_crash;
            assert_eq!(audit.stale_msgs, 0, "seed {seed}");
            assert!(
                run.held_before_crash <= 16,
                "seed {seed}: {}",
                run.held_before_crash
            );
            assert!(
                audit.log_slots_max <= run.held_before_crash + since_crash,
                "seed {seed}: {} slots held",
                audit.log_slots_max
            );
            assert_eq!(audit.log_divergences, 0, "seed {seed}");
            assert_eq!(audit.lease_overlaps, 0, "seed {seed}");
            assert_eq!(
                audit.min_replica_decided, audit.decided_slots,
                "seed {seed}"
            );
        }
    }

    /// Client calls a millisecond apart at 20 % loss: a prefetched path
    /// request catches a follower up from the canon while the leader's
    /// `Learn` to it is still in flight, and the next call compacts. The
    /// horizon has to outlast that `Learn`; forgetting a slot as soon as
    /// every replica applied it hears it late on some of these seeds.
    #[test]
    fn calls_in_quick_succession_hear_no_stale_message() {
        for seed in 0..20 {
            let (mut c, nodes) = lossy_cluster(seed, 0.2);
            for i in 0..300 {
                let stream = StreamId::new(i % 64);
                let op = BrainOp::RegisterStream {
                    stream,
                    producer: nodes[0],
                };
                let at = c.now + SimDuration::from_millis(i % 40);
                let _ = c.replicate(&op, at);
                for _ in 0..40 {
                    let at = c.now + SimDuration::from_millis(1);
                    let _ = c.path_request(stream, nodes[1], at, true);
                }
            }
            let audit = c.finalize(c.now);
            assert_eq!(audit.stale_msgs, 0, "seed {seed}");
            assert_eq!(audit.log_divergences, 0, "seed {seed}");
            assert!(c.canon_base > 0, "seed {seed}: nothing was compacted");
        }
    }

    /// A down replica holds compaction back: the log keeps every decree
    /// decided while it is down, and falls back to the healthy bound once
    /// the restarted replica has caught up.
    #[test]
    fn a_down_replica_holds_the_log_until_it_catches_up() {
        let (mut c, nodes) = lossy_cluster(14, 0.0);
        let register = |c: &mut BrainCluster, secs: u64| {
            let op = BrainOp::RegisterStream {
                stream: StreamId::new(secs),
                producer: nodes[0],
            };
            c.replicate(&op, SimTime::from_secs(secs))
                .expect("a majority is up");
        };
        (5..15).for_each(|secs| register(&mut c, secs));
        let healthy = c.audit.log_slots_max;
        assert!(healthy <= 2, "{healthy} slots held with every replica up");
        let victim = c.crash_leader(SimTime::from_secs(15)).expect("victim") as usize;
        (15..45).for_each(|secs| register(&mut c, secs));
        assert_eq!(
            c.canon_base, c.members[victim].applied,
            "the floor passed the down replica"
        );
        assert!(c.canon.len() > 30, "{} slots held", c.canon.len());
        c.restart_crashed(SimTime::from_secs(45));
        (45..50).for_each(|secs| register(&mut c, secs));
        assert!(
            c.canon.len() as u64 <= healthy,
            "{} slots held",
            c.canon.len()
        );
        // Every replica forgot what the canon forgot.
        let last_forgotten = c.canon_base - 1;
        assert!(c.members.iter().all(|m| {
            m.paxos.is_decided(last_forgotten) && m.paxos.decided(last_forgotten).is_none()
        }));
        let audit = c.finalize(SimTime::from_secs(60));
        assert_eq!((audit.stale_msgs, audit.log_divergences), (0, 0));
        assert_eq!(audit.min_replica_decided, audit.decided_slots);
    }

    /// A leader that crashes with a ballot in flight and is back inside its
    /// lease keeps leading, and no election follows to fill the slot that
    /// ballot held: the leader's next proposal has to.
    #[test]
    fn a_leader_back_inside_its_lease_leaves_no_hole() {
        let (mut c, nodes) = lossy_cluster(13, 0.0);
        let op = |stream| BrainOp::RegisterStream {
            stream: StreamId::new(stream),
            producer: nodes[0],
        };
        c.replicate(&op(1), SimTime::from_secs(5)).expect("commits");
        let h = c.leader().expect("a leader");
        c.propose(h, Arc::new(op(2)), false);
        let hole = c.members[h as usize].pending.last().expect("a ballot").slot;
        c.crash_leader(c.now);
        c.restart_crashed(c.now + SimDuration::from_millis(500));
        assert_eq!(c.decided_slots(), hole, "the ballot died with the crash");
        let at = c.now + SimDuration::from_millis(500);
        c.replicate(&op(3), at).expect("the leader fills the slot");
        assert_eq!(c.leader(), Some(h));
        assert_eq!(c.stats().lease_grants, 1);
    }

    /// Pop the next event and advance the clock to it, without handling it.
    fn pop(c: &mut BrainCluster) -> NetEvent {
        let (at, ev) = c.queue.pop().expect("wakes are always scheduled");
        c.now = c.now.max(at);
        ev
    }

    /// A follower that misses the `Learn` of a slot applies it on its next
    /// wake, and the holder's heartbeats keep its view of the lease live
    /// all along, so it never stands against the holder.
    #[test]
    fn a_missed_learn_is_applied_on_the_next_wake() {
        let (mut c, nodes) = lossy_cluster(11, 0.0);
        c.advance_to(SimTime::from_secs(5));
        let h = c.leader().expect("a leader");
        let f = (h + 1) % c.replicas();
        let op = BrainOp::RegisterStream {
            stream: StreamId::new(1),
            producer: nodes[0],
        };
        c.propose(h, Arc::new(op), false);
        let slot = c.members[h as usize].pending.last().expect("a ballot").slot;
        loop {
            match pop(&mut c) {
                NetEvent::Deliver {
                    to,
                    msg: PaxosMsg::Learn { slot: s, .. },
                    ..
                } if to == f && s == slot => break,
                ev => c.dispatch(ev),
            }
        }
        assert!(c.members[f as usize].paxos.decided(slot).is_none());
        loop {
            let ev = pop(&mut c);
            let wake = matches!(ev, NetEvent::Wake { replica } if replica == f);
            c.dispatch(ev);
            if wake {
                break;
            }
        }
        assert!(
            c.members[f as usize].applied > slot,
            "the gap outlived a wake"
        );
        let end = c.now + SimDuration::from_millis(60_000);
        while c.queue.peek_time().is_some_and(|t| t <= end) {
            c.step();
            let view = c.members[f as usize].lease.expect("a view");
            assert!(
                view.holder == h && view.live(c.now),
                "{view:?} at {}",
                c.now
            );
        }
        assert_eq!(c.stats().lease_grants, 1);
    }

    proptest! {
        /// Loss from 0 to 20 %, and a leader crash and a restart at random
        /// virtual times, all drawn from one seed.
        #[test]
        fn a_live_lease_is_never_taken_over(seed in any::<u64>()) {
            let mut rng = DetRng::seed(seed);
            let ms = SimTime::from_millis;
            let loss = rng.range_f64(0.0, 0.2);
            let crash = rng.range_u64(5_000, 60_000);
            let restart = crash + rng.range_u64(1_000, 30_000);
            let (mut c, nodes) = lossy_cluster(seed, loss);
            let (mut crashed, mut restarted) = (false, false);
            let mut t = 2_000;
            while t < 100_000 {
                if !crashed && t >= crash {
                    c.crash_leader(ms(crash));
                    crashed = true;
                }
                if !restarted && t >= restart {
                    c.restart_crashed(ms(restart));
                    restarted = true;
                }
                let op = BrainOp::RegisterStream {
                    stream: StreamId::new(t % 16),
                    producer: nodes[0],
                };
                let _ = c.replicate(&op, ms(t));
                t += rng.range_u64(500, 3_000);
            }
            let audit = c.finalize(ms(100_000));
            prop_assert_eq!(audit.lease_overlaps, 0);
            prop_assert_eq!(audit.log_divergences, 0);
            prop_assert_eq!(audit.min_replica_decided, audit.decided_slots);
        }
    }

    #[test]
    fn same_seed_same_history() {
        let run = |seed: u64| {
            let (mut c, nodes) = cluster(seed);
            c.replicate(
                &BrainOp::RegisterStream {
                    stream: StreamId::new(3),
                    producer: nodes[0],
                },
                SimTime::from_secs(4),
            )
            .unwrap();
            c.crash_leader(SimTime::from_secs(8));
            c.restart_crashed(SimTime::from_secs(14));
            c.finalize(SimTime::from_secs(20));
            (
                c.stats().clone(),
                c.decided_slots(),
                c.failover_ms().to_vec(),
            )
        };
        let (s1, d1, f1) = run(9);
        let (s2, d2, f2) = run(9);
        assert_eq!(s1, s2);
        assert_eq!(d1, d2);
        assert_eq!(
            f1.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            f2.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }
}
