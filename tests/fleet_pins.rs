//! Four small fleet runs, pinned bit for bit.
//!
//! The fingerprint covers every field of a [`FleetReport`] through public
//! fields only, floats via `to_bits`. The expected values were recorded at
//! PR 14's parent commit (the flat 30-field `FleetSim`): a change here is a
//! change of fleet behaviour, not of plumbing.

use livenet::prelude::*;
use livenet::sim::{DecisionOutcome, FleetFault, RecoveryRecord, ReplicationConfig};

mod common;
use common::Fnv;

fn sessions(records: &[SessionRecord]) -> u64 {
    let mut h = Fnv::new();
    h.word(records.len() as u64);
    for s in records {
        h.word(s.start.as_nanos());
        h.word(u64::from(s.day));
        h.word(u64::from(s.hour));
        h.word(u64::from(s.path_len));
        h.word(u64::from(s.international));
        h.f32(s.cdn_delay_ms);
        h.f32(s.streaming_delay_ms);
        h.f32(s.first_packet_ms);
        h.f32(s.startup_ms);
        h.word(u64::from(s.stalls));
        match s.outcome {
            DecisionOutcome::LocalHit => h.word(0),
            DecisionOutcome::Prefetched => h.word(1),
            DecisionOutcome::Brain { response_ms } => {
                h.word(2);
                h.f32(response_ms);
            }
            DecisionOutcome::LastResort { response_ms: None } => h.word(3),
            DecisionOutcome::LastResort {
                response_ms: Some(ms),
            } => {
                h.word(4);
                h.f32(ms);
            }
        }
    }
    h.0
}

fn recoveries(records: &[RecoveryRecord]) -> u64 {
    let mut h = Fnv::new();
    h.word(records.len() as u64);
    for r in records {
        h.word(r.at.as_nanos());
        h.word(u64::from(r.day));
        h.word(u64::from(r.fast));
        h.f32(r.detect_ms);
        h.f32(r.recover_ms);
        h.word(u64::from(r.frames_lost));
    }
    h.0
}

/// One hash per part of the report, so a moved pin says which part moved.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    sessions: usize,
    livenet: u64,
    hier: u64,
    /// `hourly_loss`, `daily_peak_throughput`, `daily_unique_paths`.
    rollup: u64,
    /// `skipped_offline`, `chain_switches`, `recompute_rounds`,
    /// `faults_injected`, `producers_rehomed`.
    counters: u64,
    recoveries_livenet: u64,
    recoveries_hier: u64,
    telemetry: u64,
    replication: u64,
}

fn fingerprint(r: &FleetReport) -> Fingerprint {
    let mut rollup = Fnv::new();
    rollup.word(r.hourly_loss.len() as u64);
    for v in &r.hourly_loss {
        rollup.word(v.to_bits());
    }
    rollup.word(r.daily_peak_throughput.len() as u64);
    for v in &r.daily_peak_throughput {
        rollup.word(v.to_bits());
    }
    rollup.word(r.daily_unique_paths.len() as u64);
    for &v in &r.daily_unique_paths {
        rollup.word(v as u64);
    }

    let mut counters = Fnv::new();
    for v in [
        r.skipped_offline,
        r.chain_switches,
        r.recompute_rounds,
        r.faults_injected,
        r.producers_rehomed,
    ] {
        counters.word(v);
    }

    let mut telemetry = Fnv::new();
    telemetry.bytes(r.telemetry.to_json().as_bytes());

    let mut replication = Fnv::new();
    match &r.replication {
        None => replication.word(0),
        Some(s) => {
            replication.word(1);
            for v in [
                u64::from(s.replicas),
                s.ops_committed,
                s.lease_grants,
                s.lease_renewals,
                s.lease_extensions,
                s.leader_crashes,
                s.restarts,
                s.client_retries,
                s.redirects,
                s.give_ups,
                s.msgs_sent,
                s.msgs_dropped,
                s.decided_slots,
                s.log_divergences,
                s.assignment_mismatches,
                s.failover_ms.len() as u64,
            ] {
                replication.word(v);
            }
            for v in &s.failover_ms {
                replication.word(v.to_bits());
            }
        }
    }

    Fingerprint {
        sessions: r.livenet.len(),
        livenet: sessions(&r.livenet),
        hier: sessions(&r.hier),
        rollup: rollup.0,
        counters: counters.0,
        recoveries_livenet: recoveries(&r.recoveries_livenet),
        recoveries_hier: recoveries(&r.recoveries_hier),
        telemetry: telemetry.0,
        replication: replication.0,
    }
}

/// The `runner.rs` unit-test shape: smoke at a reduced arrival rate.
fn tiny(seed: u64, shards: usize) -> FleetConfigBuilder {
    FleetConfigBuilder::smoke(seed)
        .peak_arrivals_per_sec(0.2)
        .shards(shards)
}

fn run_serial(config: FleetConfigBuilder) -> FleetReport {
    FleetRunner::new(config.build().expect("valid preset"))
        .expect("validated")
        .run_serial()
}

/// Width 1: the lone plan is the fleet itself, so this is the unsharded
/// run the `exp` tables are quoted against.
#[test]
fn pin_1_monolith_smoke() {
    let r = run_serial(FleetConfigBuilder::from_config(FleetConfig::smoke(7)));
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            sessions: 19_092,
            livenet: 16_164_324_240_078_790_652,
            hier: 10_113_976_557_494_897_929,
            rollup: 9_114_733_016_169_436_725,
            counters: 15_680_700_336_233_530_234,
            recoveries_livenet: 12_161_962_213_042_174_405,
            recoveries_hier: 12_161_962_213_042_174_405,
            telemetry: 2_974_044_973_838_370_802,
            replication: 12_161_962_213_042_174_405,
        }
    );
}

#[test]
fn pin_2_four_shards() {
    let r = run_serial(tiny(7, 4));
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            sessions: 7_814,
            livenet: 8_061_778_819_751_241_015,
            hier: 9_339_428_506_036_050_769,
            rollup: 7_889_500_784_901_432_817,
            counters: 4_685_383_436_540_594_887,
            recoveries_livenet: 12_161_962_213_042_174_405,
            recoveries_hier: 12_161_962_213_042_174_405,
            telemetry: 2_313_193_773_123_328_698,
            replication: 12_161_962_213_042_174_405,
        }
    );
}

/// Re-recorded once, by PR 14's bugfix commit (a session releases exactly
/// what its attach took): three Hier records after an outage turn from a
/// tier fetch into a local hit (`first_packet_ms`, `startup_ms`, outcome),
/// `hier` 13_926_981_390_084_168_265 → the value below. Nothing else moved.
#[test]
fn pin_3_four_shards_faulted() {
    let r = run_serial(
        tiny(7, 4)
            .fault(FleetFault::RegionOutage {
                at_secs: 8 * 3600,
                down_for_secs: 1800,
                country: 0,
            })
            .random_faults(2.0, (300, 900)),
    );
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            sessions: 7_725,
            livenet: 4_771_309_191_271_087_914,
            hier: 4_266_057_875_027_927_918,
            rollup: 15_174_667_823_773_037_388,
            counters: 2_309_651_707_646_695_058,
            recoveries_livenet: 1_411_439_486_252_238_483,
            recoveries_hier: 3_541_749_815_774_811_836,
            telemetry: 11_108_757_208_842_767_996,
            replication: 12_161_962_213_042_174_405,
        }
    );
}

/// Re-recorded once, when the holder began keeping its lease by heartbeat
/// and a `Lease` decree was written only to elect a holder. Only the
/// replicated control plane's own counts moved, in the summary and in the
/// `replication.*` telemetry (telemetry 7_993_036_261_020_657_136 and
/// replication 11_633_777_413_608_327_321 before): decided slots
/// 89_885 → 3_470, lease renewals 86_410 → 0, the new lease extensions
/// 0 → 86_406, proposals 91_785 → 3_472, messages sent 913_725 → 385_594
/// (dropped 9_255 → 3_917), client retries 7 → 2, state decrees
/// 3_473 → 3_468 (fewer duplicates of a retried op). Lease grants (2),
/// sessions and every other part are unchanged.
#[test]
fn pin_4_two_shards_replicated_brain() {
    let r = run_serial(tiny(7, 2).replication(ReplicationConfig::default()));
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            sessions: 7_762,
            livenet: 13_984_179_621_666_770_592,
            hier: 8_512_297_421_943_699,
            rollup: 14_525_425_867_284_195_968,
            counters: 16_642_793_410_419_744_283,
            recoveries_livenet: 12_161_962_213_042_174_405,
            recoveries_hier: 12_161_962_213_042_174_405,
            telemetry: 5_705_366_993_671_366_123,
            replication: 8_239_594_514_389_987_984,
        }
    );
}
