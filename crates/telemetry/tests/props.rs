//! Property-based tests for the telemetry determinism contract: histogram
//! merge is associative and commutative, and a stream of recordings split
//! across any shard width merges back to one bit-identical snapshot.

use livenet_cases::prelude::*;
use livenet_telemetry::{FixedHistogram, MetricId, MetricSink, Snapshot, TelemetryHub};

const H_A: MetricId = MetricId("test.hist_a");
const H_B: MetricId = MetricId("test.hist_b");
const C_A: MetricId = MetricId("test.counter_a");
const G_A: MetricId = MetricId("test.gauge_a");

/// Millisecond-scale bucket bounds, coarser than the crate's default set.
const MS_BOUNDS: &[f64] = &[0.5, 5.0, 50.0, 500.0, 5000.0, 30000.0];

/// Millisecond-scale observations spanning every bucket, including
/// negatives and values past the top bound (both clamp).
fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..50_000.0, 0..200)
}

fn hist_of(values: &[f64]) -> FixedHistogram {
    let mut h = FixedHistogram::new(MS_BOUNDS);
    for &v in values {
        h.observe(v);
    }
    h
}

/// Replay one recording stream into a hub. Each value feeds two
/// histograms, a counter, and a gauge so the shard-split test exercises
/// all three metric shapes. Derived metrics depend only on the value, so
/// any partition of the stream records the same multiset.
fn record(hub: &mut TelemetryHub, values: &[f64]) {
    for &v in values {
        hub.observe(H_A, v);
        if v.to_bits() % 3 == 0 {
            hub.observe_with(H_B, MS_BOUNDS, v * 0.5);
        }
        hub.add(C_A, 1 + (v.to_bits() % 4));
        hub.gauge_max(G_A, v);
    }
}

proptest! {
    /// (a ⊕ b) ⊕ c is bit-identical to a ⊕ (b ⊕ c).
    #[test]
    fn hist_merge_is_associative(
        a in arb_values(),
        b in arb_values(),
        c in arb_values(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);

        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    /// a ⊕ b is bit-identical to b ⊕ a, and ⊕ matches observing the
    /// concatenated stream directly.
    #[test]
    fn hist_merge_is_commutative_and_lossless(
        a in arb_values(),
        b in arb_values(),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        let mut concat: Vec<f64> = a.clone();
        concat.extend_from_slice(&b);
        prop_assert_eq!(ab, hist_of(&concat));
    }

    /// Round-robin the same recording stream across 1, 2, 4 and 8 shard
    /// hubs: the merged snapshot is bit-identical at every width.
    #[test]
    fn snapshot_is_identical_across_shard_widths(values in arb_values()) {
        let merged_at = |shards: usize| -> Snapshot {
            let mut hubs: Vec<TelemetryHub> =
                (0..shards).map(|_| TelemetryHub::new()).collect();
            // Contiguous chunks, like the fleet runner's shard partition.
            for (i, chunk) in values.chunks(values.len() / shards + 1).enumerate() {
                record(&mut hubs[i % shards], chunk);
            }
            let mut merged = Snapshot::default();
            for hub in &hubs {
                merged.merge(&hub.snapshot());
            }
            merged
        };

        let reference = merged_at(1);
        for shards in [2usize, 4, 8] {
            let snap = merged_at(shards);
            prop_assert!(
                reference.bit_identical(&snap),
                "snapshot diverged at {} shards", shards
            );
        }
        // The JSON export is a pure function of the snapshot, so it is
        // deterministic too.
        prop_assert_eq!(reference.to_json(), merged_at(8).to_json());
    }
}
