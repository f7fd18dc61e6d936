//! Sharded fleet execution with a deterministic merge.
//!
//! [`FleetRunner`] partitions a fleet run by channel into independent
//! shards, runs them serially or on a thread pool, and merges the per-shard
//! outputs in a canonical order. Because every shard is a fully independent
//! [`FleetSim`] — its own topology copy, its own Brain, its own RNG
//! sub-stream ([`DetRng::split`]) — and the merge never looks at wall-clock
//! completion order, `run_parallel(n)` is **bit-identical** to
//! `run_serial()` for every seed and every thread count.
//!
//! The partition balances the workload's Zipf skew:
//!
//! * channels are placed heaviest-first on the lightest shard so far (the
//!   LPT greedy), so the Zipf head spreads across shards instead of
//!   piling onto shard 0 — no shard exceeds the ideal mass share by more
//!   than the single heaviest channel;
//! * each shard's arrival rate and session capacities are scaled by its
//!   mass share, so per-shard utilization — and therefore routing,
//!   queueing and the long-chain dynamics — matches the unsharded run's.
//!
//! Width 1 is the unsharded run (`ShardPlan::is_lone`). Wider runs are
//! a new sample of the same distribution: the union of the shards'
//! thinned Poisson streams is distributed like the lone plan's stream. The
//! contract is serial ≡ parallel, checked by [`FleetReport::bit_identical`].
//!
//! [`DetRng::split`]: livenet_types::DetRng::split

use crate::fleet::{FleetConfig, FleetReport, FleetSim, ShardOutput};
use livenet_types::{IdSet, Result, ZipfTable};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One shard's slice of the fleet: which channels it simulates and the
/// fraction of the total Zipf mass (≈ viewer arrivals) they carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Shard index; doubles as the `DetRng::split` label, so a shard's
    /// random stream does not depend on how many siblings run.
    pub index: usize,
    /// Member channel indices (== Zipf ranks), ascending.
    pub channels: Vec<usize>,
    /// The members' share of the total channel popularity mass, in (0, 1].
    pub mass_share: f64,
}

impl ShardPlan {
    /// A plan owning all `channels` has no siblings, so it *is* the fleet:
    /// it draws from the fleet's own streams, with no `split` (which only
    /// makes siblings independent) and no conditional Zipf pool.
    pub(crate) fn is_lone(&self, channels: usize) -> bool {
        self.channels.len() == channels
    }
}

/// Partition the channel universe into at most `config.shards` plans.
///
/// Channels are placed heaviest-first (Zipf mass is monotone in rank)
/// onto the lightest shard so far, ties to the lowest index — the LPT
/// greedy. That spreads the Zipf head across shards instead of
/// co-locating it on shard 0 (the old head-group rule capped parallel
/// speedup at roughly `1 / head_mass` regardless of shard count), and
/// bounds every shard's mass share by `ideal + pmf(0)`. Shards that end
/// up empty are dropped — surviving plans keep their original indices, so
/// the partition (and every shard's RNG stream) is a pure function of the
/// config, never of the thread count.
pub(crate) fn partition_channels(config: &FleetConfig) -> Vec<ShardPlan> {
    let channels = config.workload.channels;
    let shards = config.shards.clamp(1, channels.max(1));
    let zipf = ZipfTable::new(channels, config.workload.zipf_s);
    let mass: Vec<f64> = (0..channels).map(|k| zipf.pmf(k)).collect();
    let total: f64 = mass.iter().sum();

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut load = vec![0.0f64; shards];
    for (c, &m) in mass.iter().enumerate() {
        let mut best = 0;
        for s in 1..shards {
            if load[s] < load[best] {
                best = s;
            }
        }
        members[best].push(c);
        load[best] += m;
    }
    members
        .into_iter()
        .zip(load)
        .enumerate()
        .filter(|(_, (m, _))| !m.is_empty())
        .map(|(index, (channels, l))| ShardPlan {
            index,
            channels,
            mass_share: l / total,
        })
        .collect()
}

/// Facade for sharded fleet runs: validate once, then run the same
/// partition serially or in parallel with bit-identical results.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// Wrap a validated configuration.
    ///
    /// Rejects configurations [`FleetConfig::validate`] rejects — the same
    /// checks [`crate::FleetConfigBuilder::build`] runs, repeated here so
    /// hand-built configs cannot bypass them.
    pub fn new(config: FleetConfig) -> Result<FleetRunner> {
        config.validate()?;
        Ok(FleetRunner { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shard partition this runner executes.
    pub fn plans(&self) -> Vec<ShardPlan> {
        partition_channels(&self.config)
    }

    /// Run every shard on the calling thread, in index order.
    pub fn run_serial(&self) -> FleetReport {
        let outputs: Vec<ShardOutput> = self
            .plans()
            .iter()
            .map(|p| FleetSim::new_shard(self.config.clone(), p).run_collect())
            .collect();
        merge(outputs, self.config.workload.days as usize)
    }

    /// Run the shards on up to `threads` worker threads.
    ///
    /// Workers pull shard indices from a shared counter and send results
    /// back tagged with their index; the merge consumes them in index
    /// order, so scheduling jitter cannot reach the output bits.
    pub fn run_parallel(&self, threads: usize) -> FleetReport {
        let plans = self.plans();
        let workers = threads.clamp(1, plans.len());
        if workers == 1 {
            return self.run_serial();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, ShardOutput)>();
        let mut slots: Vec<Option<ShardOutput>> = Vec::new();
        slots.resize_with(plans.len(), || None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let plans = &plans;
                let config = &self.config;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= plans.len() {
                        break;
                    }
                    let out = FleetSim::new_shard(config.clone(), &plans[i]).run_collect();
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
        // Unreachable panic: each index is fetched by exactly one worker,
        // whose send cannot fail while `rx` is drained inside the scope,
        // and a worker that panicked re-panics at the scope's end, before
        // this line.
        let outputs: Vec<ShardOutput> = slots
            .into_iter()
            .map(|o| o.expect("shard worker exited without a result"))
            .collect();
        merge(outputs, self.config.workload.days as usize)
    }
}

/// Merge per-shard outputs into one fleet report, canonically.
///
/// * Sessions: each shard's vectors are moved out and appended in
///   shard-index order, then stable-sorted by `start`. Every shard's list
///   is already time-ordered, so a stable sort of the shard-ordered
///   concatenation yields exactly the `(start, shard index, position)`
///   order — a total order independent of execution interleaving. The
///   LiveNet and Hier vectors carry the same `start` sequence, so both
///   sorts apply the same permutation and the pairing survives. A lone
///   shard's vectors are returned as they are: no copy and no sort.
/// * `hourly_loss`: shard 0's copy. Link loss depends only on the hour,
///   the link IDs and the diurnal factor — never on sessions — and the
///   topology iterates its `BTreeMap`s in key order, so every shard
///   computes the exact same hourly means.
/// * `daily_peak_throughput`: element-wise sum in shard-index order (each
///   shard carries a disjoint slice of concurrent sessions).
/// * `daily_unique_paths`: per-day set union of realized-path hashes.
/// * Recovery records: concatenated and stable-sorted by `at`, like
///   sessions.
/// * `faults_injected`: shard 0's count — the fault schedule is derived
///   from the workload seed alone, so every shard injects the identical
///   episodes and summing would multiply-count them.
/// * `telemetry`: snapshot merge in shard-index order — counters sum,
///   gauges keep the max, histograms add bucket counts and fixed-point
///   sums, so the merged bits never depend on completion order.
/// * `replication`: per-shard cluster summaries sum; failover-latency
///   samples concatenate in shard-index order.
/// * Other counters: summed.
fn merge(mut outputs: Vec<ShardOutput>, days: usize) -> FleetReport {
    let mut merged = FleetReport {
        livenet: concat(&mut outputs, |r| &mut r.livenet),
        hier: concat(&mut outputs, |r| &mut r.hier),
        recoveries_livenet: concat(&mut outputs, |r| &mut r.recoveries_livenet),
        recoveries_hier: concat(&mut outputs, |r| &mut r.recoveries_hier),
        hourly_loss: std::mem::take(&mut outputs[0].report.hourly_loss),
        faults_injected: outputs[0].report.faults_injected,
        daily_peak_throughput: vec![0.0; days],
        ..FleetReport::default()
    };
    // A lone shard's lists are already in canonical order.
    if outputs.len() > 1 {
        merged.livenet.sort_by_key(|s| s.start);
        merged.hier.sort_by_key(|s| s.start);
        merged.recoveries_livenet.sort_by_key(|r| r.at);
        merged.recoveries_hier.sort_by_key(|r| r.at);
    }

    let mut day_sets: Vec<IdSet<u64>> = vec![IdSet::default(); days];
    for out in &outputs {
        for (d, v) in out.report.daily_peak_throughput.iter().enumerate() {
            merged.daily_peak_throughput[d] += v;
        }
        for (d, set) in out.day_path_sets.iter().enumerate() {
            day_sets[d].extend(set);
        }
        merged.skipped_offline += out.report.skipped_offline;
        merged.chain_switches += out.report.chain_switches;
        merged.recompute_rounds += out.report.recompute_rounds;
        merged.producers_rehomed += out.report.producers_rehomed;
        merged.telemetry.merge(&out.report.telemetry);
        // Replicated-Brain summaries: each shard runs its own cluster, so
        // counters sum and failover samples concatenate in shard-index
        // order (the loop order), keeping the merged bits deterministic.
        if let Some(r) = &out.report.replication {
            merged
                .replication
                .get_or_insert_with(Default::default)
                .absorb(r);
        }
    }
    merged.daily_unique_paths = day_sets.iter().map(IdSet::len).collect();
    merged
}

/// Move each shard's `pick` vector out of its report and append them in
/// shard-index order, into the first non-empty shard's own buffer — so a
/// lone shard's vector is returned without a copy.
fn concat<T>(outputs: &mut [ShardOutput], pick: fn(&mut FleetReport) -> &mut Vec<T>) -> Vec<T> {
    let total: usize = outputs.iter_mut().map(|o| pick(&mut o.report).len()).sum();
    let mut all = Vec::new();
    for out in outputs {
        let mut part = std::mem::take(pick(&mut out.report));
        if all.is_empty() {
            all = part;
            all.reserve_exact(total - all.len());
        } else {
            all.append(&mut part);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfigBuilder, RecoveryRecord};
    use crate::metrics::{DecisionOutcome, SessionRecord};
    use livenet_types::SimTime;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    /// The heap merge that `merge` replaced, kept as its oracle: visits the
    /// elements of time-sorted per-shard `lists` in `(time, shard,
    /// position)` order, calling `emit(shard, position)` for each.
    fn kway_merge<T>(
        lists: &[&[T]],
        at: impl Fn(&T) -> SimTime,
        mut emit: impl FnMut(usize, usize),
    ) {
        let mut heads: BinaryHeap<Reverse<(SimTime, usize, usize)>> = lists
            .iter()
            .enumerate()
            .filter_map(|(shard, l)| l.first().map(|x| Reverse((at(x), shard, 0))))
            .collect();
        while let Some(Reverse((_, shard, i))) = heads.pop() {
            emit(shard, i);
            if let Some(next) = lists[shard].get(i + 1) {
                heads.push(Reverse((at(next), shard, i + 1)));
            }
        }
    }

    /// A shard output whose records carry their shard and position (and
    /// which system they belong to), with the sessions starting at
    /// `starts` and the recoveries at `ats`, in seconds, both sorted.
    fn tagged_shard(shard: usize, mut starts: Vec<u64>, mut ats: Vec<u64>) -> ShardOutput {
        starts.sort_unstable();
        ats.sort_unstable();
        let session = |(i, &t): (usize, &u64), hier: bool| SessionRecord {
            start: SimTime::from_secs(t),
            day: 0,
            hour: 0,
            path_len: shard as u8,
            international: hier,
            cdn_delay_ms: 0.0,
            streaming_delay_ms: 0.0,
            first_packet_ms: 0.0,
            startup_ms: 0.0,
            stalls: i as u16,
            outcome: DecisionOutcome::LocalHit,
        };
        let recovery = |(i, &t): (usize, &u64), hier: bool| RecoveryRecord {
            at: SimTime::from_secs(t),
            day: 0,
            fast: hier,
            detect_ms: 0.0,
            recover_ms: 0.0,
            frames_lost: (shard * 1_000 + i) as u32,
        };
        ShardOutput {
            report: FleetReport {
                livenet: starts
                    .iter()
                    .enumerate()
                    .map(|e| session(e, false))
                    .collect(),
                hier: starts
                    .iter()
                    .enumerate()
                    .map(|e| session(e, true))
                    .collect(),
                recoveries_livenet: ats.iter().enumerate().map(|e| recovery(e, false)).collect(),
                recoveries_hier: ats.iter().enumerate().map(|e| recovery(e, true)).collect(),
                ..FleetReport::default()
            },
            day_path_sets: Vec::new(),
        }
    }

    /// The oracle's session pairs and recoveries for `outputs`.
    #[allow(clippy::type_complexity)]
    fn kway_order(
        outputs: &[ShardOutput],
    ) -> (
        Vec<(SessionRecord, SessionRecord)>,
        Vec<RecoveryRecord>,
        Vec<RecoveryRecord>,
    ) {
        let sessions: Vec<&[SessionRecord]> =
            outputs.iter().map(|o| &o.report.livenet[..]).collect();
        let mut pairs = Vec::new();
        kway_merge(
            &sessions,
            |s| s.start,
            |shard, i| {
                pairs.push((sessions[shard][i], outputs[shard].report.hier[i]));
            },
        );
        let recoveries = |pick: fn(&FleetReport) -> &[RecoveryRecord]| {
            let lists: Vec<&[RecoveryRecord]> = outputs.iter().map(|o| pick(&o.report)).collect();
            let mut merged = Vec::new();
            kway_merge(&lists, |r| r.at, |shard, i| merged.push(lists[shard][i]));
            merged
        };
        (
            pairs,
            recoveries(|r| &r.recoveries_livenet),
            recoveries(|r| &r.recoveries_hier),
        )
    }

    livenet_cases::proptest! {
        #![proptest_config(livenet_cases::ProptestConfig::with_cases(64))]
        /// The concatenate-and-stable-sort merge visits sessions, their
        /// LiveNet/Hier pairing and recoveries in the oracle's `(time,
        /// shard, position)` order, over 1–8 shards whose start times
        /// collide often (six distinct seconds).
        #[test]
        fn prop_merge_is_the_kway_order(
            starts in livenet_cases::prop::collection::vec(
                livenet_cases::prop::collection::vec(0u64..6, 0..48),
                1..9,
            ),
            ats in livenet_cases::prop::collection::vec(
                livenet_cases::prop::collection::vec(0u64..6, 0..16),
                8..9,
            ),
        ) {
            let outputs: Vec<ShardOutput> = starts
                .into_iter()
                .zip(ats)
                .enumerate()
                .map(|(shard, (starts, ats))| tagged_shard(shard, starts, ats))
                .collect();
            let (pairs, rec_ln, rec_h) = kway_order(&outputs);
            let merged = merge(outputs, 0);
            let merged_pairs: Vec<(SessionRecord, SessionRecord)> =
                merged.livenet.iter().copied().zip(merged.hier.iter().copied()).collect();
            livenet_cases::prop_assert_eq!(merged.livenet.len(), merged.hier.len());
            livenet_cases::prop_assert_eq!(merged_pairs, pairs);
            livenet_cases::prop_assert_eq!(merged.recoveries_livenet, rec_ln);
            livenet_cases::prop_assert_eq!(merged.recoveries_hier, rec_h);
        }
    }

    #[test]
    fn a_lone_shard_is_merged_without_a_copy() {
        let out = tagged_shard(0, vec![3, 1, 2, 2], vec![7, 5]);
        let r = &out.report;
        let buffers = [
            r.livenet.as_ptr() as usize,
            r.hier.as_ptr() as usize,
            r.recoveries_livenet.as_ptr() as usize,
            r.recoveries_hier.as_ptr() as usize,
        ];
        let merged = merge(vec![out], 0);
        assert_eq!(
            [
                merged.livenet.as_ptr() as usize,
                merged.hier.as_ptr() as usize,
                merged.recoveries_livenet.as_ptr() as usize,
                merged.recoveries_hier.as_ptr() as usize,
            ],
            buffers
        );
    }

    fn tiny_config(seed: u64) -> FleetConfig {
        // Small enough for unit tests: fewer ticks and arrivals than the
        // smoke preset, but still several shards' worth of channels.
        FleetConfigBuilder::smoke(seed)
            .peak_arrivals_per_sec(0.2)
            .shards(4)
            .build()
            .unwrap()
    }

    #[test]
    fn partition_covers_every_channel_exactly_once() {
        let cfg = tiny_config(1);
        let plans = partition_channels(&cfg);
        let mut seen = vec![0u32; cfg.workload.channels];
        for p in &plans {
            for &c in &p.channels {
                seen[c] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        let total: f64 = plans.iter().map(|p| p.mass_share).sum();
        assert!((total - 1.0).abs() < 1e-9, "mass shares sum to {total}");
    }

    #[test]
    fn partition_balances_zipf_head_load() {
        let cfg = tiny_config(2);
        let plans = partition_channels(&cfg);
        let zipf = ZipfTable::new(cfg.workload.channels, cfg.workload.zipf_s);
        let total: f64 = (0..cfg.workload.channels).map(|k| zipf.pmf(k)).sum();
        let heaviest = zipf.pmf(0) / total;
        let ideal = 1.0 / plans.len() as f64;
        // LPT guarantee: a channel only lands on the lightest shard, so no
        // shard's share exceeds the ideal by more than the heaviest single
        // channel — the Zipf head cannot pile up on shard 0 anymore.
        for p in &plans {
            assert!(
                p.mass_share <= ideal + heaviest + 1e-9,
                "shard {} carries {:.4} > ideal {:.4} + head {:.4}",
                p.index,
                p.mass_share,
                ideal,
                heaviest
            );
        }
        // And the head channels really are spread out: ranks 0..shards sit
        // on pairwise distinct shards (each was placed on an empty shard).
        let mut head_homes = HashSet::new();
        for rank in 0..plans.len() {
            let home = plans
                .iter()
                .position(|p| p.channels.contains(&rank))
                .unwrap();
            assert!(head_homes.insert(home), "rank {rank} co-sharded");
        }
    }

    #[test]
    fn partition_is_deterministic_and_thread_free() {
        let cfg = tiny_config(3);
        assert_eq!(partition_channels(&cfg), partition_channels(&cfg));
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let runner = FleetRunner::new(tiny_config(4)).unwrap();
        let serial = runner.run_serial();
        let parallel = runner.run_parallel(2);
        assert!(serial.bit_identical(&parallel));
        assert!(!serial.livenet.is_empty());
    }

    #[test]
    fn merged_sessions_are_time_ordered_and_paired() {
        let runner = FleetRunner::new(tiny_config(5)).unwrap();
        let r = runner.run_serial();
        assert_eq!(r.livenet.len(), r.hier.len());
        for w in r.livenet.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for (ln, h) in r.livenet.iter().zip(&r.hier) {
            assert_eq!(ln.start, h.start);
        }
    }

    #[test]
    fn faulted_parallel_is_bit_identical_to_serial() {
        use crate::fleet::FleetFault;
        let cfg = FleetConfigBuilder::from_config(tiny_config(6))
            .fault(FleetFault::RegionOutage {
                at_secs: 8 * 3600,
                down_for_secs: 1800,
                country: 0,
            })
            .random_faults(2.0, (300, 900))
            .build()
            .unwrap();
        let runner = FleetRunner::new(cfg).unwrap();
        let serial = runner.run_serial();
        let parallel = runner.run_parallel(4);
        assert!(serial.bit_identical(&parallel));
        assert_eq!(serial.faults_injected, parallel.faults_injected);
        assert!(serial.faults_injected >= 3);
        assert!(!serial.recoveries_livenet.is_empty());
    }

    #[test]
    fn merged_telemetry_is_bit_identical_across_shard_widths() {
        // The contract `exp telemetry` rests on: at every shard width the
        // merged telemetry snapshot is bit-identical between serial and
        // parallel execution, and consistent with the merged sessions.
        for shards in [1usize, 2, 4, 8] {
            let cfg = FleetConfigBuilder::from_config(tiny_config(21))
                .shards(shards)
                .build()
                .unwrap();
            let runner = FleetRunner::new(cfg).unwrap();
            let serial = runner.run_serial();
            let parallel = runner.run_parallel(shards.max(2));
            assert!(
                serial.telemetry.bit_identical(&parallel.telemetry),
                "telemetry diverged at {shards} shards"
            );
            assert_eq!(
                serial.telemetry.counter("fleet.sessions"),
                serial.livenet.len() as u64,
                "session counter mismatch at {shards} shards"
            );
            assert!(!serial.telemetry.to_json().is_empty());
        }
    }

    #[test]
    fn shard_width_regression_reports_bit_identical() {
        // Regression for the streaming merge rewrite: at widths 1/2/4/8,
        // with and without a replicated Brain, serial and parallel runs
        // must still produce byte-equal FleetReports.
        use crate::control::ReplicationConfig;
        for replicated in [false, true] {
            for shards in [1usize, 2, 4, 8] {
                let mut b = FleetConfigBuilder::from_config(tiny_config(31)).shards(shards);
                if replicated {
                    b = b.replication(ReplicationConfig::default());
                }
                let runner = FleetRunner::new(b.build().unwrap()).unwrap();
                let serial = runner.run_serial();
                let parallel = runner.run_parallel(shards.max(2));
                assert!(
                    serial.bit_identical(&parallel),
                    "report diverged at {shards} shards (replicated: {replicated})"
                );
                assert!(!serial.livenet.is_empty());
            }
        }
    }

    livenet_cases::proptest! {
        #![proptest_config(livenet_cases::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_partition_load_skew_is_bounded(
            channels in 8usize..400,
            shards in 1usize..16,
            zipf_s in 0.5f64..1.6,
        ) {
            let mut cfg = FleetConfig::smoke(1);
            cfg.workload.channels = channels;
            cfg.workload.zipf_s = zipf_s;
            cfg.shards = shards;
            let plans = partition_channels(&cfg);
            // Every channel appears exactly once.
            let mut seen = vec![0u32; channels];
            for p in &plans {
                for &c in &p.channels {
                    seen[c] += 1;
                }
            }
            livenet_cases::prop_assert!(seen.iter().all(|&n| n == 1));
            let total_share: f64 = plans.iter().map(|p| p.mass_share).sum();
            livenet_cases::prop_assert!((total_share - 1.0).abs() < 1e-9);
            // Bounded skew even under Zipf-head workloads: no shard may
            // exceed the ideal share by more than the heaviest channel.
            let zipf = ZipfTable::new(channels, zipf_s);
            let total: f64 = (0..channels).map(|k| zipf.pmf(k)).sum();
            let heaviest = zipf.pmf(0) / total;
            let ideal = 1.0 / shards.clamp(1, channels) as f64;
            for p in &plans {
                livenet_cases::prop_assert!(
                    p.mass_share <= ideal + heaviest + 1e-9,
                    "shard {} share {:.4} ideal {:.4} head {:.4}",
                    p.index, p.mass_share, ideal, heaviest
                );
            }
            // A plan with siblings is never lone.
            livenet_cases::prop_assert!(shards == 1 || plans.iter().all(|p| !p.is_lone(channels)));
            // Width 1 is the fleet itself: one lone plan at index 0 owning
            // every channel, with a mass share of exactly 1.0, so scaling
            // the capacities by it changes no bit.
            cfg.shards = 1;
            let whole = partition_channels(&cfg);
            livenet_cases::prop_assert_eq!(whole.len(), 1);
            livenet_cases::prop_assert_eq!(whole[0].index, 0);
            livenet_cases::prop_assert_eq!(&whole[0].channels, &(0..channels).collect::<Vec<_>>());
            livenet_cases::prop_assert!(whole[0].is_lone(channels));
            livenet_cases::prop_assert_eq!(whole[0].mass_share.to_bits(), 1f64.to_bits());
        }
    }

    #[test]
    fn runner_rejects_invalid_configs() {
        let bad = FleetConfigBuilder::smoke(1)
            .tweak(|c| c.node_capacity_sessions = 0.0)
            .build();
        assert!(matches!(bad, Err(livenet_types::Error::InvalidConfig(_))));
        let mut cfg = FleetConfig::smoke(1);
        cfg.shards = 0;
        assert!(FleetRunner::new(cfg).is_err());
    }

    /// The edges of the fields `validate()` guards: each one runs to the
    /// horizon or is rejected before the run — none panics in between.
    #[test]
    fn validated_edges_run_and_the_rest_is_rejected() {
        use crate::control::ReplicationConfig;
        let edge = |f: fn(&mut FleetConfig)| {
            FleetConfigBuilder::from_config(tiny_config(5))
                .shards(1)
                .tweak(f)
                .build()
        };
        let runs = |f: fn(&mut FleetConfig)| {
            let r = FleetRunner::new(edge(f).expect("validates"))
                .unwrap()
                .run_serial();
            assert_eq!(r.livenet.len(), r.hier.len());
            assert!(!r.livenet.is_empty());
        };
        runs(|c| c.geo.last_resort_nodes = 0);
        runs(|c| c.workload.channels = 1);
        // An empty duration range is never drawn from without outages.
        runs(|c| c.faults.random_outage_secs = (5, 5));
        for bad in [
            (|c| c.workload.festival_factor = f64::NAN) as fn(&mut FleetConfig),
            |c| c.workload.festival_factor = 0.0,
            |c| c.faults.random_outages_per_day = 1.0, // over the default (0, 0)
            // Past `SessionRecord::day`'s range.
            |c| c.workload.days = 65_537,
            // `ClusterConfig::validate`, reached through the fleet's.
            |c| {
                c.replication = Some(ReplicationConfig {
                    replicas: 0,
                    ..Default::default()
                })
            },
        ] {
            assert!(matches!(
                edge(bad),
                Err(livenet_types::Error::InvalidConfig(_))
            ));
        }
    }
}
