//! Taobao-Live-shaped synthetic workload (DESIGN.md §1 substitution).
//!
//! Reproduces the workload *shape* the evaluation depends on:
//!
//! * Zipf channel popularity ("flash sale" head, long tail),
//! * a diurnal arrival cycle peaking 20:00–23:00 (the pattern behind
//!   Fig. 10b/10c),
//! * short view durations ("views often last a short period", §3),
//! * mostly-domestic viewing with a small international share (Table 2),
//! * channel churn ("live streams come and go often"),
//! * festival spikes (Double 12: ~2× peak throughput, Fig. 14).

use livenet_types::{DetRng, NodeId, SimDuration, SimTime, StreamId, ZipfTable};
use serde::{Deserialize, Serialize};

/// Hour-of-day demand multiplier, peaking in the evening.
///
/// Shaped after Fig. 10b's diurnal hit-ratio curve: lowest 3–6 am,
/// highest 20:00–23:00.
pub fn diurnal_factor(hour_of_day: f64) -> f64 {
    // Two-phase cosine: deep night trough + evening peak.
    let h = hour_of_day.rem_euclid(24.0);
    // Base daily wave centred at 15:00 …
    let wave = ((h - 15.0) / 24.0 * std::f64::consts::TAU).cos();
    // … plus an evening bump centred at 21:00.
    let bump = (-((h - 21.0) * (h - 21.0)) / 8.0).exp();
    (0.42 + 0.18 * wave + 0.55 * bump).clamp(0.15, 1.0)
}

/// One broadcaster channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Primary (highest-bitrate) stream ID; rendition IDs follow.
    pub stream: StreamId,
    /// Popularity rank (0 = most popular).
    pub rank: usize,
    /// Country of the broadcaster.
    pub country: u32,
    /// Whether the Brain treats this broadcaster as popular (prefetch).
    pub popular: bool,
}

/// Mean view duration (exponential-ish mixture).
const MEAN_VIEW: SimDuration = SimDuration::from_secs(120);
/// Fraction of views from a different country than the broadcaster.
const INTERNATIONAL_FRACTION: f64 = 0.025;
/// Fraction of top channels flagged popular for path prefetch.
const POPULAR_FRACTION: f64 = 0.05;

/// Workload parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of broadcaster channels.
    pub channels: usize,
    /// Zipf popularity exponent.
    pub zipf_s: f64,
    /// Fleet-wide viewer arrival rate (per second) at diurnal factor 1.0.
    pub peak_arrivals_per_sec: f64,
    /// Days the festival runs (0-based day indices) with boosted demand.
    pub festival_days: Vec<u32>,
    /// Demand multiplier on festival days (paper: peak ≈ 2×).
    pub festival_factor: f64,
    /// Simulation length in days.
    pub days: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            channels: 200,
            zipf_s: 1.02,
            peak_arrivals_per_sec: 1.6,
            // Dec 1–20 with Double 12 on Dec 11–12 → 0-based days 10, 11.
            festival_days: vec![10, 11],
            festival_factor: 2.0,
            days: 20,
            seed: 1,
        }
    }
}

impl WorkloadConfig {
    /// A small/fast configuration for tests.
    pub fn smoke(seed: u64) -> Self {
        WorkloadConfig {
            channels: 40,
            peak_arrivals_per_sec: 0.8,
            days: 2,
            festival_days: vec![],
            seed,
            ..Default::default()
        }
    }

    /// Demand multiplier at absolute sim time `t` (diurnal × festival).
    pub fn demand_factor(&self, t: SimTime) -> f64 {
        let hour = t.as_secs_f64() / 3600.0;
        let day = (hour / 24.0) as u32;
        let festival = if self.festival_days.contains(&day) {
            self.festival_factor
        } else {
            1.0
        };
        diurnal_factor(hour % 24.0) * festival
    }
}

/// One generated viewing session (before system-specific processing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Arrival time.
    pub at: SimTime,
    /// Channel index.
    pub channel: usize,
    /// View duration.
    pub duration: SimDuration,
    /// Viewer country.
    pub viewer_country: u32,
}

/// Restriction of the arrival stream to one shard's channels: the member
/// channel indices plus the Zipf CDF *conditional on* landing in the set.
struct ShardPool {
    channels: Vec<usize>,
    cdf: Vec<f64>,
}

/// The workload generator: channels + a Poisson arrival stream (by
/// thinning) with deterministic replay.
pub struct Workload {
    /// Configuration.
    pub config: WorkloadConfig,
    /// The channel universe.
    pub channels: Vec<Channel>,
    zipf: ZipfTable,
    rng: DetRng,
    next_arrival: SimTime,
    countries: u32,
    /// When sharded: only these channels arrive, at `rate_share` of the
    /// fleet rate. Thinning a Poisson process splits it exactly, so the
    /// union over shards is distributed like the monolith stream.
    pool: Option<ShardPool>,
    rate_share: f64,
}

impl Workload {
    /// Build the channel universe over `countries` countries. Channels are
    /// assigned countries round-robin weighted toward early countries (big
    /// markets host more broadcasters).
    pub fn new(config: WorkloadConfig, countries: u32) -> Workload {
        let mut rng = DetRng::seed(config.seed).fork("workload");
        let popular_cut = (config.channels as f64 * POPULAR_FRACTION).ceil() as usize;
        let channels: Vec<Channel> = (0..config.channels)
            .map(|rank| {
                // Early (popular) channels concentrate in big markets.
                let country = if rank.is_multiple_of(3) {
                    rank as u32 % countries.min(4)
                } else {
                    rng.range_u64(0, u64::from(countries)) as u32
                };
                Channel {
                    stream: StreamId::new(1000 + 10 * rank as u64),
                    rank,
                    country,
                    popular: rank < popular_cut,
                }
            })
            .collect();
        let zipf = ZipfTable::new(config.channels, config.zipf_s);
        Workload {
            config,
            channels,
            zipf,
            rng,
            next_arrival: SimTime::ZERO,
            countries,
            pool: None,
            rate_share: 1.0,
        }
    }

    /// Build the generator for one shard of a partitioned fleet run.
    ///
    /// The channel universe is built exactly as in [`Workload::new`] (every
    /// shard sees the same channels), then arrivals are restricted to
    /// `members` (channel indices) at `mass_share` of the fleet rate, with
    /// channel choice drawn from the Zipf distribution conditioned on the
    /// member set. Per-shard noise comes from `split(shard)` of the shared
    /// workload stream, so shards are mutually independent but each is
    /// reproducible regardless of how many siblings run.
    pub fn for_shard(
        config: WorkloadConfig,
        countries: u32,
        members: &[usize],
        mass_share: f64,
        shard: u64,
    ) -> Workload {
        assert!(!members.is_empty(), "shard with no channels");
        let mut w = Workload::new(config, countries);
        w.rng = w.rng.split(shard);
        let mut cdf = Vec::with_capacity(members.len());
        let mut acc = 0.0;
        for &c in members {
            acc += w.zipf.pmf(c);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        w.pool = Some(ShardPool {
            channels: members.to_vec(),
            cdf,
        });
        w.rate_share = mass_share;
        w
    }

    /// End of the simulated period.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(u64::from(self.config.days) * 86_400)
    }

    /// Expected session count for this generator (shard-rate aware).
    ///
    /// Integrates the thinned Poisson rate numerically over the horizon;
    /// used to pre-size session and telemetry buffers so the hot loop
    /// never reallocates. The estimate only affects capacity, never
    /// results.
    pub fn expected_sessions(&self) -> usize {
        // Mean diurnal factor at minute resolution.
        let mean_diurnal: f64 = (0..1440)
            .map(|m| diurnal_factor(f64::from(m) / 60.0))
            .sum::<f64>()
            / 1440.0;
        let mut total = 0.0;
        for day in 0..self.config.days {
            let festival = if self.config.festival_days.contains(&day) {
                self.config.festival_factor
            } else {
                1.0
            };
            total += 86_400.0
                * self.config.peak_arrivals_per_sec
                * self.rate_share
                * mean_diurnal
                * festival;
        }
        total.ceil() as usize
    }

    /// Draw the next session, or `None` past the horizon.
    ///
    /// Uses Poisson thinning: candidate arrivals at the peak rate, kept
    /// with probability `demand_factor / max_factor`.
    pub fn next_session(&mut self) -> Option<SessionSpec> {
        let max_factor = self.config.festival_factor.max(1.0);
        // rate_share is exactly 1.0 in the monolith path, so the
        // multiplication leaves the legacy stream bit-identical.
        let peak = self.config.peak_arrivals_per_sec * max_factor * self.rate_share;
        loop {
            let gap = self.rng.exp(1.0 / peak);
            self.next_arrival += SimDuration::from_secs_f64(gap);
            if self.next_arrival >= self.horizon() {
                return None;
            }
            let keep = self.config.demand_factor(self.next_arrival) / max_factor;
            if !self.rng.chance(keep) {
                continue;
            }
            let channel = match &self.pool {
                Some(pool) => {
                    let u = self.rng.f64();
                    let i = pool.cdf.partition_point(|&c| c < u).min(pool.cdf.len() - 1);
                    pool.channels[i]
                }
                None => self.zipf.sample(&mut self.rng),
            };
            let broadcaster_country = self.channels[channel].country;
            // The draw is made whatever the geography, so one country
            // shifts no later draw; there is just no other country to pick.
            let international = self.rng.chance(INTERNATIONAL_FRACTION);
            let viewer_country = if international && self.countries > 1 {
                // Uniform over the *other* countries.
                let mut c = self.rng.range_u64(0, u64::from(self.countries - 1)) as u32;
                if c >= broadcaster_country {
                    c += 1;
                }
                c
            } else {
                broadcaster_country
            };
            // Duration: lognormal-ish mixture, mean ≈ MEAN_VIEW.
            let base = MEAN_VIEW.as_secs_f64();
            let duration = if self.rng.chance(0.15) {
                self.rng.exp(base * 3.0) // long-tail engaged viewers
            } else {
                self.rng.exp(base * 0.65)
            };
            return Some(SessionSpec {
                at: self.next_arrival,
                channel,
                duration: SimDuration::from_secs_f64(duration.clamp(2.0, 7200.0)),
                viewer_country,
            });
        }
    }

    /// Pick the consumer edge node for a viewer in `country` (DNS maps
    /// users to a nearby edge). `edges_by_country[c]` lists candidates.
    pub fn pick_edge(
        &mut self,
        edges_by_country: &[Vec<NodeId>],
        country: u32,
    ) -> Option<NodeId> {
        let edges = edges_by_country.get(country as usize)?;
        if edges.is_empty() {
            return None;
        }
        Some(*self.rng.choose(edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_in_the_evening() {
        let night = diurnal_factor(4.0);
        let evening = diurnal_factor(21.0);
        let noon = diurnal_factor(12.0);
        assert!(evening > noon, "evening {evening} vs noon {noon}");
        assert!(noon > night, "noon {noon} vs night {night}");
        assert!(evening > 0.9);
        assert!(night < 0.35);
    }

    #[test]
    fn sessions_are_within_horizon_and_ordered() {
        let mut w = Workload::new(WorkloadConfig::smoke(1), 12);
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some(s) = w.next_session() {
            assert!(s.at >= last);
            assert!(s.at < w.horizon());
            last = s.at;
            n += 1;
        }
        assert!(n > 1000, "only {n} sessions in 2 days");
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let mut w = Workload::new(WorkloadConfig::smoke(2), 12);
        let mut counts = vec![0u32; w.config.channels];
        while let Some(s) = w.next_session() {
            counts[s.channel] += 1;
        }
        assert!(counts[0] > counts[10] * 3, "{} vs {}", counts[0], counts[10]);
        assert!(counts[0] > counts[30] * 8);
    }

    #[test]
    fn international_share_close_to_the_constant() {
        let frac = INTERNATIONAL_FRACTION;
        let mut w = Workload::new(WorkloadConfig::smoke(3), 12);
        let mut total = 0.0;
        let mut inter = 0.0;
        while let Some(s) = w.next_session() {
            total += 1.0;
            if s.viewer_country != w.channels[s.channel].country {
                inter += 1.0;
            }
        }
        let measured = inter / total;
        assert!(
            (measured - frac).abs() < frac, // within 100% relative
            "measured {measured} vs {frac}"
        );
    }

    #[test]
    fn festival_days_have_more_arrivals() {
        let cfg = WorkloadConfig {
            days: 4,
            festival_days: vec![2],
            festival_factor: 2.0,
            ..WorkloadConfig::smoke(4)
        };
        let mut w = Workload::new(cfg, 12);
        let mut per_day = [0u32; 4];
        while let Some(s) = w.next_session() {
            per_day[(s.at.as_secs_f64() / 86_400.0) as usize] += 1;
        }
        // Day 2 ≈ 2× day 1 (same diurnal profile, doubled demand).
        let ratio = f64::from(per_day[2]) / f64::from(per_day[1]);
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}, {per_day:?}");
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut w = Workload::new(WorkloadConfig::smoke(seed), 12);
            let mut v = Vec::new();
            for _ in 0..100 {
                v.push(w.next_session().unwrap());
            }
            v
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn shard_pool_restricts_channels_and_splits_rate() {
        let cfg = WorkloadConfig::smoke(6);
        let members: Vec<usize> = (0..10).collect();
        // Zipf mass of ranks 0..10 out of 40 with s≈1: a bit over half.
        let zipf = ZipfTable::new(cfg.channels, cfg.zipf_s);
        let mass: f64 = members.iter().map(|&c| zipf.pmf(c)).sum();
        let mut whole = Workload::new(cfg.clone(), 12);
        let mut shard = Workload::for_shard(cfg, 12, &members, mass, 0);
        // Shards agree on the channel universe built from the shared stream.
        assert_eq!(whole.channels, shard.channels);
        let mut whole_n = 0u32;
        while whole.next_session().is_some() {
            whole_n += 1;
        }
        let mut shard_n = 0u32;
        while let Some(s) = shard.next_session() {
            assert!(members.contains(&s.channel));
            shard_n += 1;
        }
        // Arrival volume scales with the shard's Zipf mass share.
        let ratio = f64::from(shard_n) / f64::from(whole_n);
        assert!(
            (ratio - mass).abs() < 0.1,
            "ratio {ratio} vs mass share {mass}"
        );
    }

    #[test]
    fn shard_replay_is_deterministic_and_label_dependent() {
        let members: Vec<usize> = (5..15).collect();
        let run = |shard| {
            let mut w = Workload::for_shard(WorkloadConfig::smoke(7), 12, &members, 0.3, shard);
            let mut v = Vec::new();
            for _ in 0..50 {
                v.push(w.next_session().unwrap());
            }
            v
        };
        assert_eq!(run(2), run(2));
        assert_ne!(run(2), run(3));
    }

    #[test]
    fn popular_flag_marks_head_channels() {
        let w = Workload::new(WorkloadConfig::smoke(5), 12);
        assert!(w.channels[0].popular);
        assert!(!w.channels.last().unwrap().popular);
        let popular = w.channels.iter().filter(|c| c.popular).count();
        assert_eq!(popular, 2); // ceil(40 * 0.05)
    }
}
