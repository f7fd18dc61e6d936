//! Deterministic fault injection: scripted or sampled fault plans.
//!
//! A [`FaultPlan`] is a time-ordered script of infrastructure failures the
//! emulator executes alongside normal traffic: node crashes and restarts,
//! directed link outages and flaps, and transient loss-burst episodes. The
//! plan is plain data — built explicitly from a scenario config, or sampled
//! from a [`DetRng`] stream (callers use `DetRng::seed(s).fork("faults")`
//! so the schedule is independent of traffic randomness and identical on
//! every shard of a partitioned run).

use livenet_types::{DetRng, NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One kind of infrastructure fault the emulator can apply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node's process dies: volatile state is lost, pending timers are
    /// cancelled, and all datagrams addressed to it are blackholed until a
    /// matching [`FaultKind::NodeRestart`].
    NodeCrash {
        /// Victim node.
        node: NodeId,
    },
    /// The node comes back with fresh state (`Host::on_restart`).
    NodeRestart {
        /// Recovering node.
        node: NodeId,
    },
    /// The directed link drops every packet until [`FaultKind::LinkUp`].
    LinkDown {
        /// Transmitting side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
    },
    /// The directed link carries traffic again.
    LinkUp {
        /// Transmitting side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
    },
    /// The directed link's loss model is replaced by `Bernoulli { loss }`
    /// until a matching [`FaultKind::LossBurstEnd`].
    LossBurst {
        /// Transmitting side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
        /// Loss probability during the episode.
        loss: f64,
    },
    /// The link's pre-burst loss model is restored.
    LossBurstEnd {
        /// Transmitting side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
    },
}

/// A fault with its injection time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault is applied.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic script of faults, buildable from config or sampled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events in insertion order (the event queue time-orders them).
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// Add a raw fault event.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Crash `node` at `at`.
    pub fn crash(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultKind::NodeCrash { node })
    }

    /// Restart `node` at `at`.
    pub fn restart(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultKind::NodeRestart { node })
    }

    /// Crash `node` at `at` and restart it `down_for` later.
    pub fn outage(&mut self, at: SimTime, down_for: SimDuration, node: NodeId) -> &mut Self {
        self.crash(at, node);
        self.restart(at + down_for, node)
    }

    /// Run a Bernoulli loss episode on both directions of `a`–`b`.
    pub fn loss_burst(
        &mut self,
        at: SimTime,
        lasts: SimDuration,
        a: NodeId,
        b: NodeId,
        loss: f64,
    ) -> &mut Self {
        self.push(at, FaultKind::LossBurst { from: a, to: b, loss });
        self.push(at, FaultKind::LossBurst { from: b, to: a, loss });
        self.push(at + lasts, FaultKind::LossBurstEnd { from: a, to: b });
        self.push(at + lasts, FaultKind::LossBurstEnd { from: b, to: a })
    }

    /// Sample a plan of node outages from a dedicated RNG stream: each
    /// candidate node suffers Poisson-ish outages at the given expected
    /// count over `[0, horizon)`, each lasting uniformly within
    /// `dur_range`. The caller passes `DetRng::seed(s).fork("faults")` so
    /// the schedule never perturbs traffic randomness.
    pub fn sample(
        rng: &mut DetRng,
        nodes: &[NodeId],
        horizon: SimDuration,
        outages_per_node: f64,
        dur_range: (SimDuration, SimDuration),
    ) -> Self {
        let mut plan = FaultPlan::new();
        let horizon_ns = horizon.as_nanos().max(1);
        for &node in nodes {
            // Thinned Bernoulli draw per node keeps the stream length
            // fixed per node regardless of outcomes.
            let mut t_ns = rng.exp(horizon_ns as f64 / outages_per_node.max(1e-9)) as u64;
            let happens = rng.chance(outages_per_node.min(1.0));
            let dur_ns = rng.range_u64(
                dur_range.0.as_nanos().max(1),
                dur_range.1.as_nanos().max(dur_range.0.as_nanos() + 1) + 1,
            );
            if !happens {
                continue;
            }
            t_ns %= horizon_ns;
            plan.outage(
                SimTime::from_nanos(t_ns),
                SimDuration::from_nanos(dur_ns),
                node,
            );
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_builds_crash_restart_pair() {
        let mut p = FaultPlan::new();
        p.outage(SimTime::from_secs(5), SimDuration::from_secs(30), NodeId::new(3));
        assert_eq!(p.len(), 2);
        let evs: Vec<&FaultEvent> = p.events().collect();
        assert_eq!(evs[0].kind, FaultKind::NodeCrash { node: NodeId::new(3) });
        assert_eq!(evs[1].at, SimTime::from_secs(35));
    }

    #[test]
    fn sampled_plan_is_deterministic() {
        let nodes: Vec<NodeId> = (1..=20).map(NodeId::new).collect();
        let draw = || {
            let mut rng = DetRng::seed(77).fork("faults");
            FaultPlan::sample(
                &mut rng,
                &nodes,
                SimDuration::from_secs(3600),
                0.5,
                (SimDuration::from_secs(5), SimDuration::from_secs(60)),
            )
        };
        let a = draw();
        let b = draw();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Every crash has a matching restart.
        let crashes = a
            .events()
            .filter(|e| matches!(e.kind, FaultKind::NodeCrash { .. }))
            .count();
        let restarts = a
            .events()
            .filter(|e| matches!(e.kind, FaultKind::NodeRestart { .. }))
            .count();
        assert_eq!(crashes, restarts);
    }
}
