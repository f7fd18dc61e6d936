//! The fault plan, resolved against a generated topology.

use super::config::{FaultPlanConfig, FleetFault};
use livenet_topology::Topology;
use livenet_types::{NodeId, SimTime};

/// A fault resolved against the generated topology: who goes dark, when.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ResolvedFault {
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    pub(super) nodes: Vec<NodeId>,
    /// Crash the replicated Brain's leader instead of data-plane nodes.
    pub(super) brain_crash: bool,
}

/// Resolve `plan` — scripted faults, then the seeded random outages — to
/// node sets and times, clipped to a `days`-long horizon and sorted by
/// `(start, end)`. A pure function of its arguments, so every shard of a
/// partitioned run derives the identical schedule.
pub(super) fn resolve_faults(
    plan: &FaultPlanConfig,
    topology: &Topology,
    seed: u64,
    days: u32,
) -> Vec<ResolvedFault> {
    let routable: Vec<NodeId> = topology.routable_node_ids().collect();
    let horizon = SimTime::from_secs(u64::from(days) * 86_400);
    let random = plan.random_outages(seed, days, routable.len());
    let mut faults: Vec<ResolvedFault> = plan
        .scripted
        .iter()
        .chain(&random)
        .map(|f| {
            let (at, dur, nodes, brain_crash) = match *f {
                FleetFault::NodeOutage {
                    at_secs,
                    down_for_secs,
                    node_index,
                } => (
                    at_secs,
                    down_for_secs,
                    vec![routable[node_index % routable.len()]],
                    false,
                ),
                FleetFault::RegionOutage {
                    at_secs,
                    down_for_secs,
                    country,
                } => (
                    at_secs,
                    down_for_secs,
                    topology.nodes_in_country(country).collect(),
                    false,
                ),
                FleetFault::BrainLeaderCrash {
                    at_secs,
                    down_for_secs,
                } => (at_secs, down_for_secs, Vec::new(), true),
            };
            ResolvedFault {
                start: SimTime::from_secs(at),
                end: SimTime::from_secs(at + dur.max(1)).min(horizon),
                nodes,
                brain_crash,
            }
        })
        .filter(|f| f.start < horizon)
        .collect();
    faults.sort_by_key(|f| (f.start, f.end));
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::testkit::five_nodes;

    fn plan(scripted: Vec<FleetFault>, per_day: f64) -> FaultPlanConfig {
        FaultPlanConfig {
            scripted,
            random_outages_per_day: per_day,
            random_outage_secs: (300, 900),
        }
    }

    #[test]
    fn scripted_faults_resolve_structurally_and_clip_to_the_horizon() {
        let (topology, n) = five_nodes();
        let faults = resolve_faults(
            &plan(
                vec![
                    FleetFault::RegionOutage {
                        at_secs: 86_000,
                        down_for_secs: 3600,
                        country: 1,
                    },
                    // Index wraps modulo the routable-node count.
                    FleetFault::NodeOutage {
                        at_secs: 100,
                        down_for_secs: 0,
                        node_index: 7,
                    },
                    FleetFault::NodeOutage {
                        at_secs: 90_000,
                        down_for_secs: 60,
                        node_index: 0,
                    },
                ],
                0.0,
            ),
            &topology,
            1,
            1,
        );
        // Sorted by start; the fault past the one-day horizon is dropped.
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].nodes, vec![n[2]]);
        // A zero-length outage still lasts one second.
        assert_eq!(faults[0].end, SimTime::from_secs(101));
        assert_eq!(faults[1].nodes, vec![n[3], n[4]]);
        assert_eq!(faults[1].end, SimTime::from_secs(86_400));
        assert!(faults.iter().all(|f| !f.brain_crash));
    }

    #[test]
    fn random_outages_are_a_pure_function_of_the_seed() {
        let (topology, n) = five_nodes();
        let a = resolve_faults(&plan(Vec::new(), 2.5), &topology, 9, 4);
        assert_eq!(a, resolve_faults(&plan(Vec::new(), 2.5), &topology, 9, 4));
        assert_ne!(a, resolve_faults(&plan(Vec::new(), 2.5), &topology, 10, 4));
        // floor(2.5) or one more per day, single routable nodes, in range.
        assert!((8..=12).contains(&a.len()), "{}", a.len());
        for f in &a {
            assert_eq!(f.nodes.len(), 1);
            assert!(n.contains(&f.nodes[0]));
            let secs = f.end.saturating_since(f.start).as_secs_f64();
            assert!((300.0..900.0).contains(&secs) || f.end == SimTime::from_secs(4 * 86_400));
        }
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
    }
}
