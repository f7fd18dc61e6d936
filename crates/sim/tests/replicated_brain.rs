//! Fleet regression: with the Paxos-replicated Brain in the control loop
//! (and a leader crash mid-run), serial and parallel execution of the
//! same shard partition stay bit-identical — sessions, telemetry snapshot
//! and the replication summary included — at every shard width.

use livenet_sim::{FleetConfigBuilder, FleetFault, FleetRunner, ReplicationConfig};

#[test]
fn replicated_fleet_is_bit_identical_across_shard_widths() {
    for shards in [1usize, 2, 4, 8] {
        let cfg = FleetConfigBuilder::smoke(33)
            .peak_arrivals_per_sec(0.15)
            .shards(shards)
            .replication(ReplicationConfig::default())
            .fault(FleetFault::BrainLeaderCrash {
                at_secs: 8 * 3600,
                down_for_secs: 600,
            })
            .build()
            .unwrap();
        let runner = FleetRunner::new(cfg).unwrap();
        let serial = runner.run_serial();
        let parallel = runner.run_parallel(shards.max(2));
        assert!(
            serial.bit_identical(&parallel),
            "replicated fleet diverged between serial and parallel at {shards} shards"
        );

        let rep = serial
            .replication
            .as_ref()
            .expect("replicated run must carry a replication summary");
        // Every shard ran a real cluster: decrees were committed and no
        // replica's log or post-run path decisions diverged.
        assert!(rep.ops_committed > 0, "no state decrees at {shards} shards");
        assert!(rep.lease_grants > 0, "no lease was ever granted");
        assert_eq!(rep.log_divergences, 0, "Paxos log divergence");
        assert_eq!(rep.assignment_mismatches, 0, "replica decision mismatch");
        assert_eq!(rep.lease_overlaps, 0, "a live lease was taken over");
        assert_eq!(rep.stale_msgs, 0, "a message arrived for a compacted slot");
        // The log is compacted behind the slowest replica: it grows while
        // the crashed one is down (14 to 17 slots here), never with the run.
        assert!(
            rep.log_slots_max <= 24,
            "{} slots held at {shards} shards",
            rep.log_slots_max
        );
        assert!(rep.decided_slots > 0, "no slot decided at {shards} shards");
        assert_eq!(
            rep.min_replica_decided, rep.decided_slots,
            "a replica missed part of the log at {shards} shards"
        );
        assert_eq!(rep.give_ups, 0, "client gave up on the control plane");
        // The scripted crash hit exactly one shard's cluster per run
        // (every shard injects the fault; each crashes its own leader).
        assert_eq!(rep.leader_crashes, shards as u64);
        assert_eq!(rep.restarts, shards as u64);
        assert_eq!(
            serial.faults_injected, 1,
            "crash fault must be counted once"
        );
        assert!(
            !rep.failover_ms.is_empty(),
            "leader crash produced no failover measurement at {shards} shards"
        );
        for &ms in &rep.failover_ms {
            assert!(ms.is_finite() && ms >= 0.0);
        }

        // The merged summary (`absorb`) and the merged telemetry
        // (`Snapshot::merge`) are summed by different code; they must agree
        // on everything both record.
        let t = &serial.telemetry;
        for (name, summed) in [
            ("ops_committed", rep.ops_committed),
            ("lease_grants", rep.lease_grants),
            ("lease_renewals", rep.lease_renewals),
            ("lease_extensions", rep.lease_extensions),
            ("proposals", rep.proposals),
            ("msgs_sent", rep.msgs_sent),
            ("msgs_dropped", rep.msgs_dropped),
            ("client_retries", rep.client_retries),
            ("redirects", rep.redirects),
            ("leader_crashes", rep.leader_crashes),
            ("decided_slots", rep.decided_slots),
        ] {
            assert_eq!(
                t.counter(&format!("replication.{name}")),
                summed,
                "replication.{name} at {shards} shards"
            );
        }
        assert_eq!(
            t.gauge("replication.log_slots_max"),
            Some(rep.log_slots_max as f64),
            "replication.log_slots_max at {shards} shards"
        );
        assert_eq!(
            t.hist("brain.failover_ms").map(|h| h.count),
            Some(rep.failover_ms.len() as u64),
            "brain.failover_ms at {shards} shards"
        );
    }
}

#[test]
fn replicated_run_matches_single_brain_session_stream() {
    // Enabling replication must not perturb the workload or the session
    // noise draws: the *set* of sessions (start times, channels) is
    // identical to the single-Brain run; only control-plane latency
    // outcomes may differ.
    let base = FleetConfigBuilder::smoke(34)
        .peak_arrivals_per_sec(0.15)
        .shards(2)
        .build()
        .unwrap();
    let replicated = FleetConfigBuilder::from_config(base.clone())
        .replication(ReplicationConfig::default())
        .build()
        .unwrap();
    let single = FleetRunner::new(base).unwrap().run_serial();
    let repl = FleetRunner::new(replicated).unwrap().run_serial();
    assert!(single.replication.is_none());
    assert_eq!(single.livenet.len(), repl.livenet.len());
    for (a, b) in single.livenet.iter().zip(&repl.livenet) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.day, b.day);
        assert_eq!(a.international, b.international);
    }
}

#[test]
fn brain_crash_without_replication_is_rejected() {
    let err = FleetConfigBuilder::smoke(35)
        .fault(FleetFault::BrainLeaderCrash {
            at_secs: 3600,
            down_for_secs: 60,
        })
        .build();
    assert!(err.is_err(), "BrainLeaderCrash must require replication");
}
