//! Fleet configuration: the validated [`FleetConfig`], its builder and the
//! fault plan.

use crate::control::ReplicationConfig;
use crate::workload::WorkloadConfig;
use livenet_topology::GeoConfig;
use livenet_types::DetRng;

/// A scripted fleet-level fault (§6.5 failure handling).
///
/// Node identity is expressed structurally — an index into the sorted
/// routable-node list or a country index — so plans are portable across
/// seeds (generated `NodeId`s differ per topology).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetFault {
    /// One node goes dark.
    NodeOutage {
        /// Outage start, seconds into the run.
        at_secs: u64,
        /// Outage duration in seconds.
        down_for_secs: u64,
        /// Index into the sorted routable-node list (wraps modulo its
        /// length).
        node_index: usize,
    },
    /// Every node in one country goes dark (the Double-12 region outage).
    RegionOutage {
        /// Outage start, seconds into the run.
        at_secs: u64,
        /// Outage duration in seconds.
        down_for_secs: u64,
        /// Country index.
        country: u32,
    },
    /// The replicated Brain's Paxos leader crashes (§7.1 failover drill).
    /// Requires [`FleetConfig::replication`] to be enabled — a single
    /// in-process Brain has no replica to lose.
    BrainLeaderCrash {
        /// Crash time, seconds into the run.
        at_secs: u64,
        /// Downtime before the replica restarts, in seconds.
        down_for_secs: u64,
    },
}

/// Fault schedule for a fleet run: scripted faults plus a seeded random
/// outage process. The schedule is derived from the workload seed alone
/// (`DetRng` fork `"faults"`), so every shard of a partitioned run agrees
/// on it bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlanConfig {
    /// Scripted faults.
    pub scripted: Vec<FleetFault>,
    /// Expected random single-node outages per simulated day (0 = none).
    pub random_outages_per_day: f64,
    /// Duration range (seconds, inclusive-exclusive) of random outages.
    pub random_outage_secs: (u64, u64),
}

impl FaultPlanConfig {
    /// The seeded random outage process, expanded into plain
    /// [`FleetFault::NodeOutage`]s over `routable` nodes. It draws from its
    /// own stream (fork `"faults"` of the workload seed), so the schedule
    /// never perturbs — and is never perturbed by — traffic randomness.
    pub(crate) fn random_outages(&self, seed: u64, days: u32, routable: usize) -> Vec<FleetFault> {
        let mut outages = Vec::new();
        let per_day = self.random_outages_per_day;
        if per_day > 0.0 {
            let mut rng = DetRng::seed(seed).fork("faults");
            let (lo, hi) = self.random_outage_secs;
            for day in 0..u64::from(days) {
                // floor(λ) outages plus one more with probability frac(λ):
                // a fixed-length draw sequence, unlike Poisson sampling.
                let mut n = per_day as u64;
                if rng.chance(per_day.fract()) {
                    n += 1;
                }
                for _ in 0..n {
                    outages.push(FleetFault::NodeOutage {
                        node_index: rng.range_u64(0, routable as u64) as usize,
                        at_secs: day * 86_400 + rng.range_u64(0, 86_400),
                        down_for_secs: rng.range_u64(lo, hi),
                    });
                }
            }
        }
        outages
    }
}

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Topology generator settings.
    pub geo: GeoConfig,
    /// Workload settings.
    pub workload: WorkloadConfig,
    /// Sessions a node can forward before its load metric reads 1.0.
    pub node_capacity_sessions: f64,
    /// Stream-sessions a link carries before its utilization reads 1.0.
    pub link_capacity_sessions: f64,
    /// Streaming Brain configuration (routing K, hop limit, weight params).
    pub brain: livenet_brain::BrainConfig,
    /// Replicated-Brain deployment: `Some` routes every control-plane
    /// mutation through a Paxos-backed Brain cluster
    /// (paper §7.1); `None` keeps the single in-process Brain.
    pub replication: Option<ReplicationConfig>,
    /// Shards the workload is partitioned into for [`crate::FleetRunner`]
    /// runs (1 = unsharded). The shard *count* fixes the partition — and
    /// therefore the result bits — independently of how many worker
    /// threads execute it.
    pub shards: usize,
    /// Fault schedule (default: fault-free).
    pub faults: FaultPlanConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            geo: GeoConfig::paper_scale(1),
            workload: WorkloadConfig::default(),
            node_capacity_sessions: 20.0,
            link_capacity_sessions: 120.0,
            brain: livenet_brain::BrainConfig::default(),
            replication: None,
            shards: 1,
            faults: FaultPlanConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Small/fast configuration for tests.
    pub fn smoke(seed: u64) -> Self {
        FleetConfig {
            geo: GeoConfig {
                nodes: 18,
                countries: 5,
                seed,
                ..GeoConfig::paper_scale(seed)
            },
            workload: WorkloadConfig {
                days: 1,
                peak_arrivals_per_sec: 0.5,
                ..WorkloadConfig::smoke(seed)
            },
            ..Default::default()
        }
    }

    /// Start building a validated configuration.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::default(),
        }
    }

    /// Check the configuration for values that would make a run meaningless
    /// or panic mid-simulation (zero capacities, empty topology, ...).
    pub fn validate(&self) -> livenet_types::Result<()> {
        use livenet_types::Error;
        if self.geo.nodes == 0 {
            return Err(Error::invalid_config("geo.nodes must be > 0"));
        }
        if self.geo.countries == 0 {
            return Err(Error::invalid_config("geo.countries must be > 0"));
        }
        if self.geo.nodes < self.geo.countries {
            return Err(Error::invalid_config(format!(
                "geo.nodes ({}) must cover every country ({})",
                self.geo.nodes, self.geo.countries
            )));
        }
        if self.workload.channels == 0 {
            return Err(Error::invalid_config("workload.channels must be > 0"));
        }
        if self.workload.days == 0 {
            return Err(Error::invalid_config("workload.days must be > 0"));
        }
        if self.workload.peak_arrivals_per_sec <= 0.0 {
            return Err(Error::invalid_config(
                "workload.peak_arrivals_per_sec must be > 0",
            ));
        }
        if self.workload.zipf_s <= 0.0 {
            return Err(Error::invalid_config("workload.zipf_s must be > 0"));
        }
        if !(self.workload.festival_factor.is_finite() && self.workload.festival_factor > 0.0) {
            return Err(Error::invalid_config(
                "workload.festival_factor must be finite and > 0",
            ));
        }
        if self.node_capacity_sessions <= 0.0 {
            return Err(Error::invalid_config("node_capacity_sessions must be > 0"));
        }
        if self.link_capacity_sessions <= 0.0 {
            return Err(Error::invalid_config("link_capacity_sessions must be > 0"));
        }
        if self.brain.routing.k == 0 {
            return Err(Error::invalid_config("brain.routing.k must be > 0"));
        }
        if self.brain.routing.max_hops == 0 {
            return Err(Error::invalid_config("brain.routing.max_hops must be > 0"));
        }
        if self.shards == 0 {
            return Err(Error::invalid_config("shards must be > 0"));
        }
        if self.shards > self.workload.channels {
            return Err(Error::invalid_config(format!(
                "shards ({}) cannot exceed channels ({})",
                self.shards, self.workload.channels
            )));
        }
        if !self.faults.random_outages_per_day.is_finite()
            || self.faults.random_outages_per_day < 0.0
        {
            return Err(Error::invalid_config(
                "faults.random_outages_per_day must be finite and >= 0",
            ));
        }
        if self.faults.random_outages_per_day > 0.0
            && self.faults.random_outage_secs.0 >= self.faults.random_outage_secs.1
        {
            return Err(Error::invalid_config(
                "faults.random_outage_secs must be a non-empty (lo, hi) range",
            ));
        }
        if let Some(r) = &self.replication {
            r.validate()?;
        }
        for f in &self.faults.scripted {
            match f {
                FleetFault::RegionOutage { country, .. } => {
                    if *country >= self.geo.countries {
                        return Err(Error::invalid_config(format!(
                            "scripted region outage names country {country}, but only {} exist",
                            self.geo.countries
                        )));
                    }
                }
                FleetFault::BrainLeaderCrash { .. } => {
                    if self.replication.is_none() {
                        return Err(Error::invalid_config(
                            "BrainLeaderCrash requires replication to be enabled",
                        ));
                    }
                }
                FleetFault::NodeOutage { .. } => {}
            }
        }
        Ok(())
    }
}

/// Validated builder for [`FleetConfig`].
///
/// Start from a named preset ([`smoke`](Self::smoke) /
/// [`paper_scale`](Self::paper_scale)) or [`FleetConfig::builder`]
/// (paper-scale defaults), adjust the common knobs with setters (anything
/// else through [`tweak`](Self::tweak)), and finish with
/// [`build`](Self::build), which rejects invalid configurations with
/// [`livenet_types::Error::InvalidConfig`] instead of letting a run panic
/// halfway through a 20-day simulation.
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// The small/fast test preset, pre-sharded for parallel runs.
    pub fn smoke(seed: u64) -> FleetConfigBuilder {
        Self::from_config(FleetConfig::smoke(seed)).shards(8)
    }

    /// Continue building (and re-validate) from an existing configuration.
    pub fn from_config(config: FleetConfig) -> FleetConfigBuilder {
        FleetConfigBuilder { config }
    }

    /// The paper-scale evaluation preset (60 nodes, 200 channels, 20
    /// days), pre-sharded for parallel runs.
    pub fn paper_scale(seed: u64) -> FleetConfigBuilder {
        FleetConfig::builder().seed(seed).shards(8)
    }

    /// The ≥1M-session stress preset: paper-scale geography, a doubled
    /// channel universe, 12 arrivals/s at peak, and a two-day window with
    /// a Double-12-style surge (2× demand) on day 1. Capacities are
    /// scaled with the arrival rate so utilization — and therefore
    /// routing and queueing behavior — stays in the paper-scale regime.
    pub fn mega_scale(seed: u64) -> FleetConfigBuilder {
        Self::paper_scale(seed)
            .days(2)
            .festival(vec![1], 2.0)
            .peak_arrivals_per_sec(12.0)
            .tweak(|c| {
                c.workload.channels = 400;
                // 12/s vs the paper preset's 1.6/s → 7.5× the capacity.
                c.node_capacity_sessions = 150.0;
                c.link_capacity_sessions = 900.0;
            })
    }

    /// Set both RNG seeds (topology and workload).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.geo.seed = seed;
        self.config.workload.seed = seed;
        self
    }

    /// Simulated days.
    pub fn days(mut self, days: u32) -> Self {
        self.config.workload.days = days;
        self
    }

    /// Fleet-wide peak viewer arrival rate (per second).
    pub fn peak_arrivals_per_sec(mut self, rate: f64) -> Self {
        self.config.workload.peak_arrivals_per_sec = rate;
        self
    }

    /// Festival schedule: boosted-demand days and the demand multiplier.
    pub fn festival(mut self, days: Vec<u32>, factor: f64) -> Self {
        self.config.workload.festival_days = days;
        self.config.workload.festival_factor = factor;
        self
    }

    /// CDN node count.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.config.geo.nodes = nodes;
        self
    }

    /// Shard count for partitioned [`crate::FleetRunner`] runs.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Deploy the Brain as a Paxos-replicated cluster (paper §7.1).
    pub fn replication(mut self, replication: ReplicationConfig) -> Self {
        self.config.replication = Some(replication);
        self
    }

    /// Script a fleet-level fault.
    pub fn fault(mut self, fault: FleetFault) -> Self {
        self.config.faults.scripted.push(fault);
        self
    }

    /// Seeded random node outages: expected count per day and the outage
    /// duration range in seconds.
    pub fn random_faults(mut self, per_day: f64, secs: (u64, u64)) -> Self {
        self.config.faults.random_outages_per_day = per_day;
        self.config.faults.random_outage_secs = secs;
        self
    }

    /// Escape hatch for fields without a dedicated setter.
    pub fn tweak(mut self, f: impl FnOnce(&mut FleetConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> livenet_types::Result<FleetConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}
