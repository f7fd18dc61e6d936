//! Property-based tests for fault-plan determinism.
//!
//! The tentpole contract: a faulted fleet run is a pure function of its
//! seed and configuration — the same seed yields bit-identical recovery
//! metrics whether the shards execute serially or on any number of worker
//! threads.

use livenet_cases::prelude::*;
use livenet_sim::{FleetConfigBuilder, FleetFault, FleetRunner};

proptest! {
    // Fleet runs are seconds-long; a handful of cases is plenty — the
    // property space is (seed × fault placement), not fine-grained input.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same seed ⇒ identical recovery metrics at every worker width.
    #[test]
    fn faulted_runs_are_bit_identical_at_any_width(
        seed in 0u64..1000,
        at_hour in 1u64..22,
        down_mins in 5u64..40,
        country in 0u32..5,
        per_day in 0u8..4,
    ) {
        let cfg = FleetConfigBuilder::smoke(seed)
            .peak_arrivals_per_sec(0.15)
            .fault(FleetFault::RegionOutage {
                at_secs: at_hour * 3600,
                down_for_secs: down_mins * 60,
                country,
            })
            .random_faults(f64::from(per_day), (300, 1200))
            .build()
            .unwrap();
        let runner = FleetRunner::new(cfg).unwrap();
        let serial = runner.run_serial();
        for width in [2usize, 8] {
            let parallel = runner.run_parallel(width);
            prop_assert!(
                serial.bit_identical(&parallel),
                "width {width} diverged from serial"
            );
            prop_assert_eq!(&serial.recoveries_livenet, &parallel.recoveries_livenet);
            prop_assert_eq!(&serial.recoveries_hier, &parallel.recoveries_hier);
            prop_assert_eq!(serial.faults_injected, parallel.faults_injected);
        }
        prop_assert!(serial.faults_injected >= 1);
    }
}
