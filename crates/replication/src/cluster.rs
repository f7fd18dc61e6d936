//! `BrainCluster`: N replicated Streaming Brains behind one Paxos log.
//!
//! The paper (§7.1) deploys the logically centralized Streaming Brain on
//! multiple geo-replicated data centers and keeps their state consistent
//! with a Paxos-like scheme.  This module is the deployment harness for
//! that story: every PIB/SIB mutation is a [`BrainOp`], wrapped once in an
//! `Arc`, ordered by the multi-decree [`Replica`] log, and applied by each
//! replica in decided-slot order — so all replicas converge to the same
//! routing state, and leadership itself is a decree in the same log. Every
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
//! Leadership is a replicated `Lease { holder, term, until }` decree.  The
//! holder renews before `until`; when the lease expires without renewal
//! (leader crash), each replica stands for election after a per-rank
//! backoff (`TAKEOVER_BACKOFF × id`), which staggers proposers and keeps
//! dueling rare.  A failed ballot retries from a deadline wake with a
//! bumped minimum round and a jittered delay — classic proposer backoff.
//! Failover latency is measured from the last decree decided before the
//! crash to the first *lease* decree granted to a live holder afterwards.

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

/// Applied lease view: who leads, until when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeaseView {
    holder: ReplicaId,
    term: u64,
    until: SimTime,
}

/// An in-flight proposal a replica must retry until its slot decides.
#[derive(Debug, Clone)]
struct Pending {
    slot: u64,
    value: Decree,
    attempts: u64,
    deadline: SimTime,
    lease: bool,
}

#[derive(Debug)]
enum NetEvent {
    Deliver {
        from: ReplicaId,
        to: ReplicaId,
        msg: PaxosMsg<Decree>,
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
    /// Canon prefix already force-fed via Learn (catch-up watermark).
    /// Decided state never disappears — crash/restart models a replica
    /// with stable storage — so the watermark is monotone-safe.
    learned: usize,
    /// Lease view as of the *applied* log prefix.
    lease: Option<LeaseView>,
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
            self.lease = Some(LeaseView {
                holder,
                term,
                until,
            });
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
    pub log_divergences: u64,
    /// Replicas that answered a sampled post-run `path_request` with a
    /// different `PathAssignment` than replica 0 — any nonzero value
    /// means the applied state machines diverged.
    pub assignment_mismatches: u64,
    /// Length of the canonical chosen log.
    pub decided_slots: u64,
    /// Minimum decided-slot count across replicas after final catch-up.
    pub min_replica_decided: u64,
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
    /// Canonical chosen log: slot `i` holds the cluster-wide chosen value.
    canon: Vec<Decree>,
    /// Lease view as of the canonical log (the client's leader oracle).
    canon_lease: Option<LeaseView>,
    client_hint: Option<ReplicaId>,
    /// Virtual time of the most recent decree decision.
    last_decided_at: SimTime,
    /// Replica currently down from [`Self::crash_leader`].
    crashed: Option<ReplicaId>,
    /// `last_decided_at` captured at crash time; cleared when a live
    /// holder wins a lease (failover complete).
    crash_pending: Option<SimTime>,
    failover_ms: Vec<f64>,
    stats: ClusterStats,
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
            canon: Vec::new(),
            canon_lease: None,
            client_hint: None,
            last_decided_at: SimTime::ZERO,
            crashed: None,
            crash_pending: None,
            failover_ms: Vec::new(),
            stats: ClusterStats::default(),
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

    fn send_out(&mut self, from: ReplicaId, outs: Vec<Outbound<Decree>>) {
        for o in outs {
            if o.to == from {
                // Local loopback: lossless, zero delay (FIFO at `now`).
                self.queue.schedule(
                    self.now,
                    NetEvent::Deliver {
                        from,
                        to: o.to,
                        msg: o.msg,
                    },
                );
                continue;
            }
            self.stats.msgs_sent += 1;
            if self.rng.chance(self.cfg.msg_loss) {
                self.stats.msgs_dropped += 1;
                continue;
            }
            let jitter = self
                .rng
                .range_f64(1.0 - DELAY_JITTER, 1.0 + DELAY_JITTER);
            let at = self.now + ONE_WAY_DELAY.mul_f64(jitter);
            self.queue.schedule(
                at,
                NetEvent::Deliver {
                    from,
                    to: o.to,
                    msg: o.msg,
                },
            );
        }
    }

    /// Process the next queued event (advancing the clock to it).
    /// Returns false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        match ev {
            NetEvent::Deliver { from, to, msg } => {
                if self.members[to as usize].up {
                    let outs = self.members[to as usize].paxos.handle(from, msg);
                    self.send_out(to, outs);
                    self.after_progress(to);
                }
            }
            NetEvent::Wake { replica } => self.on_wake(replica),
        }
        true
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
        while let Some(v) = self.members[m].paxos.decided(self.canon.len() as u64) {
            let v = Arc::clone(v);
            self.on_chosen(&v);
            self.canon.push(v);
        }
        self.members[m].apply_ready();
    }

    fn on_chosen(&mut self, op: &BrainOp) {
        self.last_decided_at = self.now;
        match *op {
            BrainOp::Lease {
                holder,
                term,
                until,
            } => {
                let new_holder = self.canon_lease.is_none_or(|p| p.holder != holder);
                if new_holder {
                    self.stats.lease_grants += 1;
                } else {
                    self.stats.lease_renewals += 1;
                }
                self.canon_lease = Some(LeaseView {
                    holder,
                    term,
                    until,
                });
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
        let m = &mut self.members[r as usize];
        for slot in m.learned..self.canon.len() {
            if m.paxos.decided(slot as u64).is_none() {
                let value = Arc::clone(&self.canon[slot]);
                let outs = m.paxos.handle(
                    r,
                    PaxosMsg::Learn {
                        slot: slot as u64,
                        value,
                    },
                );
                debug_assert!(outs.is_empty());
            }
        }
        m.learned = self.canon.len();
        m.apply_ready();
    }

    // ------------------------------------------------------------------
    // Lease maintenance + proposal retry (the per-replica wake handler)
    // ------------------------------------------------------------------

    fn on_wake(&mut self, r: ReplicaId) {
        if !self.members[r as usize].up {
            return;
        }
        self.members[r as usize].apply_ready();
        self.retry_pendings(r);
        self.lease_maintenance(r);
        let next = self.next_wake_time(r);
        self.maybe_wake(r, next);
    }

    fn retry_pendings(&mut self, r: ReplicaId) {
        let now = self.now;
        let ri = r as usize;
        // Drop pendings whose slot decided (win or lose — losers are
        // re-proposed in a fresh slot by their originating client loop or
        // by lease maintenance).
        let decided: Vec<u64> = self.members[ri]
            .pending
            .iter()
            .filter(|p| self.members[ri].paxos.decided(p.slot).is_some())
            .map(|p| p.slot)
            .collect();
        self.members[ri]
            .pending
            .retain(|p| !decided.contains(&p.slot));
        // Retry expired ballots with a bumped minimum round (backoff).
        let due: Vec<usize> = self.members[ri]
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(i, _)| i)
            .collect();
        for i in due {
            let (slot, value, attempts) = {
                let p = &mut self.members[ri].pending[i];
                p.attempts += 1;
                (p.slot, Arc::clone(&p.value), p.attempts)
            };
            let jitter = self.rng.range_f64(0.75, 1.5);
            let delay = CLIENT_TIMEOUT.mul_f64(attempts as f64 * jitter);
            self.members[ri].pending[i].deadline = now + delay;
            let min_round = attempts * self.cfg.replicas as u64;
            let outs = self.members[ri]
                .paxos
                .propose_in_slot(slot, value, min_round);
            self.stats.proposals += 1;
            self.send_out(r, outs);
        }
    }

    fn lease_maintenance(&mut self, r: ReplicaId) {
        let ri = r as usize;
        if self.members[ri].pending.iter().any(|p| p.lease) {
            return; // a lease ballot of ours is already in flight
        }
        let now = self.now;
        let view = self.members[ri].lease;
        match view {
            Some(l) if l.holder == r => {
                if now + self.cfg.renew_margin >= l.until {
                    self.propose_lease(r, l.term + 1);
                }
            }
            Some(l) if now < l.until => {} // someone else holds a valid lease
            other => {
                // Expired (or never granted): stand for election after the
                // per-rank backoff so proposers stagger instead of duel.
                let base = other.map(|l| l.until).unwrap_or(SimTime::ZERO);
                let stand_at = base + TAKEOVER_BACKOFF.mul_f64(r as f64);
                if now >= stand_at {
                    let term = other.map(|l| l.term).unwrap_or(0) + 1;
                    self.propose_lease(r, term);
                }
            }
        }
    }

    fn propose_lease(&mut self, r: ReplicaId, term: u64) {
        let value = Arc::new(BrainOp::Lease {
            holder: r,
            term,
            until: self.now + self.cfg.lease,
        });
        self.propose(r, value, true);
    }

    /// Start a ballot for `value` on `r`, to be retried from `r`'s wakes
    /// until its slot decides.
    fn propose(&mut self, r: ReplicaId, value: Decree, lease: bool) {
        let (slot, outs) = self.members[r as usize].paxos.propose(Arc::clone(&value));
        self.stats.proposals += 1;
        let deadline = self.now + CLIENT_TIMEOUT;
        self.members[r as usize].pending.push(Pending {
            slot,
            value,
            attempts: 1,
            deadline,
            lease,
        });
        self.send_out(r, outs);
        self.maybe_wake(r, deadline);
    }

    /// The next virtual time at which `r` has lease or retry work to do.
    fn next_wake_time(&self, r: ReplicaId) -> SimTime {
        let m = &self.members[r as usize];
        let mut next = match m.lease {
            Some(l) if l.holder == r => l.until - self.cfg.renew_margin,
            Some(l) => l.until + TAKEOVER_BACKOFF.mul_f64(r as f64),
            None => self.now + TAKEOVER_BACKOFF.mul_f64((r + 1) as f64),
        };
        for p in &m.pending {
            next = if p.deadline < next { p.deadline } else { next };
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
            .filter(|l| self.now < l.until)
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
    fn committed_since(&self, base: usize, value: &Decree) -> Option<u64> {
        let at = self.canon[base..]
            .iter()
            .position(|v| same_decree(v, value))?;
        Some((base + at) as u64)
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
    pub fn replicate(&mut self, op: &BrainOp, now: SimTime) -> Result<(f64, Option<PathAssignment>)> {
        self.advance_to(now);
        let start = self.now;
        let value: Decree = Arc::new(op.clone());
        let base = self.canon.len();
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
        if prefetched {
            let r = self
                .lowest_live()
                .ok_or_else(|| Error::exhausted("no live replica"))?;
            self.catch_up(r);
            let t = self.now;
            let a = self.members[r as usize].brain.path_request(stream, consumer, t)?;
            return Ok((a, 0.0));
        }
        let start = self.now;
        let give_up_at = start + CLIENT_TIMEOUT.mul_f64(self.cfg.max_attempts as f64);
        let h = self.await_leader(give_up_at)?;
        self.catch_up(h);
        let t = self.now;
        let a = self.members[h as usize].brain.path_request(stream, consumer, t)?;
        let latency = self.now.saturating_since(start).as_millis_f64()
            + ONE_WAY_DELAY.as_millis_f64() * 2.0;
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
        self.crashed = Some(victim);
        self.crash_pending = Some(self.last_decided_at);
        self.stats.leader_crashes += 1;
        self.client_hint = None;
        Some(victim)
    }

    /// Restart the replica downed by [`Self::crash_leader`]: it rejoins,
    /// catches up from the canonical log (state transfer through the
    /// learner path) and resumes lease participation.
    pub fn restart_crashed(&mut self, now: SimTime) {
        self.advance_to(now);
        let Some(r) = self.crashed.take() else {
            return;
        };
        self.members[r as usize].up = true;
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
        let mut audit = ClusterAudit::default();
        // Safety audit: no replica may have decided a value different
        // from the canonical chosen log in any slot.
        for m in &self.members {
            for (slot, canon_v) in self.canon.iter().enumerate() {
                if let Some(v) = m.paxos.decided(slot as u64) {
                    if !same_decree(v, canon_v) {
                        audit.log_divergences += 1;
                    }
                }
            }
        }
        // State transfer: every replica (including a still-down one — it
        // would recover from the log on restart) syncs to the canon.
        for r in 0..self.members.len() as ReplicaId {
            self.catch_up(r);
        }
        audit.decided_slots = self.canon.len() as u64;
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
        sink.add(ids::REPLICATION_OPS_COMMITTED, self.stats.state_ops_committed);
        sink.add(ids::REPLICATION_LEASE_GRANTS, self.stats.lease_grants);
        sink.add(ids::REPLICATION_LEASE_RENEWALS, self.stats.lease_renewals);
        sink.add(ids::REPLICATION_PROPOSALS, self.stats.proposals);
        sink.add(ids::REPLICATION_MSGS_SENT, self.stats.msgs_sent);
        sink.add(ids::REPLICATION_MSGS_DROPPED, self.stats.msgs_dropped);
        sink.add(ids::REPLICATION_CLIENT_RETRIES, self.stats.client_retries);
        sink.add(ids::REPLICATION_REDIRECTS, self.stats.client_redirects);
        sink.add(ids::REPLICATION_LEADER_CRASHES, self.stats.leader_crashes);
        sink.add(ids::REPLICATION_DECIDED_SLOTS, self.canon.len() as u64);
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

    /// Length of the canonical chosen log.
    pub fn decided_slots(&self) -> u64 {
        self.canon.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::{GeoConfig, GeoTopology, LinkReport, NodeReport};

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
            ClusterConfig { replicas: 0, ..ok.clone() },
            ClusterConfig { msg_loss: 1.0, ..ok.clone() },
            ClusterConfig { msg_loss: -0.1, ..ok.clone() },
            ClusterConfig { lease: SimDuration::ZERO, ..ok.clone() },
            ClusterConfig { renew_margin: ok.lease, ..ok.clone() },
        ] {
            assert!(matches!(bad.validate(), Err(Error::InvalidConfig(_))), "{bad:?}");
        }
    }

    #[test]
    fn initial_election_produces_a_leader() {
        let (mut c, _) = cluster(1);
        c.advance_to(SimTime::from_secs(5));
        assert!(c.leader().is_some());
        assert!(c.stats().lease_grants >= 1);
        // The lease keeps renewing while the holder is alive.
        c.advance_to(SimTime::from_secs(30));
        assert!(c.leader().is_some());
        assert!(c.stats().lease_renewals >= 2);
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

    /// No path copies a decree: not a message, a retried ballot or a
    /// catch-up `Learn`. The decrees are NaN reports, so a copy that got
    /// chosen would also never be recognised by the client that proposed it.
    #[test]
    fn every_holder_points_at_the_one_decree() {
        let (mut c, nodes) = lossy_cluster(6, 0.2);
        let report = |c: &mut BrainCluster, secs: u64| {
            let (op, _) = nan_report(c, nodes[0], secs);
            c.replicate(&op, SimTime::from_secs(secs))
                .expect("replicate under loss");
        };
        (5..15).for_each(|secs| report(&mut c, secs));
        let victim = c.crash_leader(SimTime::from_secs(15)).expect("victim") as usize;
        (15..25).for_each(|secs| report(&mut c, secs));
        let missed = c.canon.len() - c.members[victim].paxos.decided_count();
        assert!(missed > 0, "the victim missed nothing while it was down");
        c.restart_crashed(SimTime::from_secs(25));
        let audit = c.finalize(SimTime::from_secs(60));
        assert!(c.stats().msgs_dropped > 0 && c.stats().proposals > audit.decided_slots);
        assert_eq!(audit.log_divergences, 0);
        assert_eq!(audit.min_replica_decided, audit.decided_slots);
        for (r, m) in c.members.iter().enumerate() {
            for (slot, chosen) in c.canon.iter().enumerate() {
                let decided = m.paxos.decided(slot as u64).expect("caught up");
                assert!(
                    Arc::ptr_eq(decided, chosen),
                    "replica {r} holds a copy of slot {slot}"
                );
            }
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
