//! The runner's contract: what a case draws, what a failure prints, what
//! passes unformatted.

use livenet_cases::prelude::*;
use livenet_cases::{run, TestCaseError};
use livenet_types::DetRng;
use std::fmt;
use std::sync::Mutex;

/// Case `i` of the test at `path`, as the runner seeds it.
fn case_rng(path: &str, i: u64) -> DetRng {
    DetRng::seed(0).fork(path).split(i)
}

proptest! {
    #[test]
    fn typed_and_strategy_args(x: u16, y in 1u64..100, v in prop::collection::vec(0u8..10, 0..8)) {
        prop_assert!((1..100).contains(&y));
        prop_assert!(v.len() < 8);
        prop_assert!(v.iter().all(|&b| b < 10));
        let _ = x;
    }

    #[test]
    fn tuples_and_prop_map(pair in (0u32..4, 0u32..4).prop_map(|(a, b)| (a, a + b))) {
        let (a, sum) = pair;
        prop_assert!(sum >= a);
    }

    #[test]
    fn assume_rejects(a: u8, b: u8) {
        prop_assume!(a != b);
        prop_assert!(a != b);
    }

    /// A passing case is never formatted: this `Debug` impl panics.
    #[test]
    fn a_passing_case_is_not_formatted(_loud in any::<u8>().prop_map(|_| Loud)) {}

    #[test]
    #[should_panic(expected = "livenet-cases::runner::a_failure_prints_its_case_and_replay_line: \
        case 0 failed: seven\n  args: (7,)\n  \
        replay: cargo test -p livenet-cases -- a_failure_prints_its_case_and_replay_line")]
    fn a_failure_prints_its_case_and_replay_line(x in 7u8..=7) {
        prop_assert!(x != 7, "seven");
    }

    #[test]
    #[should_panic(expected = "case 0 failed: boom")]
    fn a_panicking_body_reports_its_case(x in 0u8..1) {
        assert!(x > 0, "boom");
    }

    #[test]
    #[should_panic(expected = "prop_assume! rejected more than 4096 cases")]
    fn the_rejection_cap_holds(x in 0u8..10) {
        prop_assume!(x >= 10);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn config_header_accepted(x in 0usize..5) {
        prop_assert!(x < 5);
    }
}

struct Loud;

impl fmt::Debug for Loud {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        panic!("a passing case was formatted")
    }
}

#[test]
fn a_case_stream_is_a_function_of_path_and_index() {
    let (mut a, mut b) = (case_rng("t", 3), case_rng("t", 3));
    for _ in 0..32 {
        assert_eq!(a.u64(), b.u64());
    }
    assert_ne!(case_rng("t", 3).u64(), case_rng("t", 4).u64());
    assert_ne!(case_rng("t", 3).u64(), case_rng("u", 3).u64());
}

/// The values a `cases`-case run of an odd-rejecting property accepts.
fn accepted(cases: u32) -> Vec<u64> {
    let seen = Mutex::new(Vec::new());
    run(
        ProptestConfig::with_cases(cases),
        "p::t",
        |rng| rng.u64(),
        |v| {
            if v % 2 == 1 {
                return Err(TestCaseError::Reject);
            }
            seen.lock().unwrap().push(v);
            Ok(())
        },
    );
    seen.into_inner().unwrap()
}

#[test]
fn case_i_does_not_depend_on_the_cases_before_it() {
    // Drawn alone, in any order; a rejected case uses up its index too.
    let alone: Vec<u64> = (0..200).rev().map(|i| case_rng("p::t", i).u64()).collect();
    let mut even: Vec<u64> = alone.into_iter().rev().filter(|v| v % 2 == 0).collect();
    let (short, long) = (accepted(8), accepted(16));
    even.truncate(16);
    assert_eq!(long, even);
    assert_eq!(short, long[..8]);
}
