//! What a fleet run's session records cost in memory, counted.
//!
//! A one-shard run holds each record once: the merge hands back the
//! shard's own vectors, so the run's peak live bytes are the returned
//! vectors' capacity plus what the same fleet holds with next to no
//! arrivals (topology, Brain, event queue), plus an allowance. The
//! allowance is half the returned capacity: a run that copies the records
//! while the shard's are still alive needs at least all of them again, so
//! half separates a held-once run from a held-twice one with a margin of
//! half the records on each side, and covers what scales with concurrent
//! sessions rather than with all of them.

use livenet::prelude::*;
use livenet::sim::RecoveryRecord;

#[path = "common/alloc.rs"]
mod alloc;

/// A serial run of the smoke fleet on one shard at `rate` peak arrivals
/// per second: its report and its peak live bytes on this thread, over the
/// bytes live when it started.
fn run(rate: f64) -> (FleetReport, i64) {
    let cfg = FleetConfigBuilder::smoke(7)
        .shards(1)
        .peak_arrivals_per_sec(rate)
        .build()
        .expect("a valid config");
    let runner = FleetRunner::new(cfg).expect("validated");
    let start = alloc::reset_peak();
    let report = runner.run_serial();
    (report, alloc::counts().peak - start)
}

/// Bytes the report's record vectors hold, by capacity.
fn record_bytes(r: &FleetReport) -> i64 {
    let sessions = (r.livenet.capacity() + r.hier.capacity()) * size_of::<SessionRecord>();
    let recoveries = (r.recoveries_livenet.capacity() + r.recoveries_hier.capacity())
        * size_of::<RecoveryRecord>();
    (sessions + recoveries) as i64
}

#[test]
fn a_one_shard_run_holds_each_record_once() {
    let (idle, idle_peak) = run(1e-3);
    let (busy, busy_peak) = run(4.0);
    let records = record_bytes(&busy);
    // Records-dominated: the records outweigh the idle fleet's whole peak.
    assert!(
        records > idle_peak,
        "{} sessions in {records} B do not dominate the idle peak of {idle_peak} B",
        busy.livenet.len()
    );
    let bound = records + idle_peak + records / 2;
    eprintln!(
        "{} sessions: peak {busy_peak} B, bound {bound} B = records {records} + idle peak \
         {idle_peak} ({} sessions) + allowance {}",
        busy.livenet.len(),
        idle.livenet.len(),
        records / 2
    );
    assert!(
        busy_peak <= bound,
        "peak {busy_peak} B over {bound} B: records {records} B held more than once?"
    );
}
