//! §5.3 multi-supplier RTX recovery — alternate-supplier chase vs the
//! single-supplier park-and-wait baseline.
//!
//! Runs the AutoRec diamond — [`Scenario::diamond`] with a *degraded* P–B
//! leg: long propagation delay (the reason a backup path exists at all)
//! plus random loss in both directions, so NACKs and retransmissions die
//! there too — in both modes over several seeds and emits the
//! detection-to-recovery latency distributions. Every hole C sees is also
//! a hole at B (the B–C link is clean), and B's own recovery costs the fat
//! P–B round trip, so C's NACK to B always arrives while B is still
//! missing the packet:
//!
//! * **Multi-supplier** (`rtx_alt_suppliers > 0`) — on the cache miss B
//!   replies with an RTX-miss and C immediately re-NACKs D — warm thanks
//!   to its own viewer and reachable over short clean links — closing the
//!   hole in tens of ms. Parking on B stays armed as the backstop, so this
//!   mode is never slower than the baseline.
//! * **Single-supplier baseline** (`rtx_alt_suppliers == 0`) — C parks on
//!   B and waits out B's full recovery round trip; holes whose NACK or
//!   retransmission is lost on the degraded leg slip further, or are
//!   abandoned outright once the retry budget runs dry.
//!
//! Every (mode, seed) cell is an independent, pure simulation
//! (`outcomes_are_deterministic` below, run-twice equality in
//! `tests/end_to_end_sim.rs`), run one after the other. `--smoke` shrinks
//! the broadcast for CI and still asserts the headline result: alternate
//! median strictly below the baseline median.

use crate::{percentile, Args, Report, SEED};
use livenet_emu::{LinkConfig, LossModel};
use livenet_node::{NodeEvent, NodeStats};
use livenet_sim::{Scenario, ScenarioRun, Viewer};
use livenet_types::SimDuration;

/// The degraded diamond: 80 ms one-way and 3 % loss on P–B, clean 10 ms
/// hops elsewhere, `P → D → C` cached at C as the backup, and a second
/// viewer at D keeping the alternate supplier's cache warm.
fn degraded_diamond(alt_suppliers: usize, seed: u64) -> Scenario {
    let mut sc = Scenario::diamond(
        LinkConfig {
            loss: LossModel::Bernoulli { p: 0.03 },
            ..LinkConfig::backbone(SimDuration::from_millis(80))
        },
        seed,
    );
    sc.node.rtx_alt_suppliers = alt_suppliers;
    sc.viewers.push(Viewer {
        path: vec![sc.nodes[0], sc.nodes[3]],
        backups: Vec::new(),
        ..sc.viewers[0].clone()
    });
    sc
}

/// Positions of the primary relay B and the consumer C in
/// [`ScenarioRun::nodes`].
const B: usize = 1;
const C: usize = 2;

/// Detection-to-recovery latency (ms) of every hole the consumer closed,
/// in event order, and whether an alternate supplier closed it.
fn recoveries(run: &ScenarioRun) -> Vec<(f32, bool)> {
    run.nodes[C]
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            NodeEvent::HoleRecovered {
                after, alternate, ..
            } => Some(((after.as_secs_f64() * 1000.0) as f32, *alternate)),
            _ => None,
        })
        .collect()
}

/// Median over [`recoveries`], `NaN` when there are none.
fn median_recover_ms(run: &ScenarioRun) -> f64 {
    let mut v: Vec<f32> = recoveries(run).into_iter().map(|(ms, _)| ms).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    f64::from(v[(v.len() - 1) / 2])
}

/// Latency distribution plus headline counters over a set of outcomes
/// (one mode, all seeds pooled).
struct ModeSummary {
    n: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    alternate_recovered: u64,
    alternate_requests: u64,
    alternate_exhausted: u64,
    primary_misses: u64,
    frames_rendered: u64,
}

impl ModeSummary {
    fn pool(runs: &[&ScenarioRun]) -> Self {
        let mut v: Vec<f32> = runs
            .iter()
            .flat_map(|r| recoveries(r))
            .map(|(ms, _)| ms)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total = |node: usize, f: fn(&NodeStats) -> u64| -> u64 {
            runs.iter().map(|r| f(&r.nodes[node].stats)).sum()
        };
        ModeSummary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p90: percentile(&v, 0.9),
            p99: percentile(&v, 0.99),
            alternate_recovered: total(C, |s| s.rtx_alternate_recovered),
            alternate_requests: total(C, |s| s.rtx_alternate_requests),
            alternate_exhausted: total(C, |s| s.rtx_alternate_exhausted),
            primary_misses: total(B, |s| s.rtx_unavailable),
            frames_rendered: runs.iter().map(|r| r.viewers[0].frames.len() as u64).sum(),
        }
    }

    /// The summary on one line.
    fn line(&self) -> String {
        let p = |x: f64| {
            if x.is_nan() {
                "null".to_string()
            } else {
                format!("{x:.2}")
            }
        };
        format!(
            "{{\"n\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
             \"alternate_recovered\": {}, \"alternate_requests\": {}, \
             \"alternate_exhausted\": {}, \"primary_misses\": {}, \
             \"frames_rendered\": {}}}",
            self.n,
            p(self.p50),
            p(self.p90),
            p(self.p99),
            self.alternate_recovered,
            self.alternate_requests,
            self.alternate_exhausted,
            self.primary_misses,
            self.frames_rendered,
        )
    }
}

pub(crate) fn run(args: &Args, out: &mut Report) {
    let seeds: &[u64] = if args.smoke {
        &[SEED]
    } else {
        &[SEED, SEED + 1, SEED + 2]
    };
    let modes = [1usize, 0];
    let mut cells = Vec::new();
    for &alts in &modes {
        for &seed in seeds {
            let mut sc = degraded_diamond(alts, seed);
            if args.smoke {
                sc.duration = SimDuration::from_secs(6);
            }
            cells.push(sc);
        }
    }

    out.heading("AutoRec diamond: degraded primary leg, warm backup relay");
    let outcomes: Vec<ScenarioRun> = cells
        .iter()
        .map(|sc| sc.run().expect("diamond preset is valid"))
        .collect();

    let mut rows = Vec::new();
    for (sc, o) in cells.iter().zip(&outcomes) {
        rows.push(vec![
            if sc.node.rtx_alt_suppliers > 0 {
                format!("alternate ({})", sc.node.rtx_alt_suppliers)
            } else {
                "baseline".to_string()
            },
            format!("{}", sc.seed),
            format!("{}", recoveries(o).len()),
            format!("{:.2} ms", median_recover_ms(o)),
            format!("{}", o.nodes[C].stats.rtx_alternate_recovered),
            format!("{}", o.nodes[B].stats.rtx_unavailable),
            format!("{}", o.viewers[0].frames.len()),
        ]);
    }
    out.table(
        &[
            "mode",
            "seed",
            "holes",
            "median recover",
            "alt recovered",
            "B misses",
            "frames",
        ],
        &rows,
    );

    let per_mode: Vec<ModeSummary> = modes
        .iter()
        .map(|&alts| {
            let sel: Vec<&ScenarioRun> = cells
                .iter()
                .zip(&outcomes)
                .filter(|(sc, _)| sc.node.rtx_alt_suppliers == alts)
                .map(|(_, o)| o)
                .collect();
            ModeSummary::pool(&sel)
        })
        .collect();
    let (alt_sum, base_sum) = (&per_mode[0], &per_mode[1]);
    out.note("");
    out.note(format!("alternate: {}", alt_sum.line()));
    out.note(format!("baseline:  {}", base_sum.line()));
    out.note("");
    out.note("Expected shape: the alternate chase closes holes over short");
    out.note("clean hops while the baseline waits out the degraded leg's");
    out.note("recovery round trip, so the alternate median sits far below.");

    // The headline acceptance gate, enforced in CI via --smoke.
    assert!(
        alt_sum.p50 < base_sum.p50,
        "alternate median {} !< baseline median {}",
        alt_sum.p50,
        base_sum.p50
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_leg_produces_misses_and_recoveries() {
        let run = degraded_diamond(1, 5).run().unwrap();
        assert!(run.nodes[B].stats.rtx_unavailable > 0, "B never cache-missed");
        assert!(recoveries(&run).len() > 50, "too few recoveries at C");
        // 20 s at 15 fps = 300 frames; nearly all must survive the loss.
        let frames = run.viewers[0].frames.len();
        assert!(frames > 290, "{frames}");
    }

    #[test]
    fn alternate_supplier_beats_the_primary_round_trip() {
        let alt = degraded_diamond(1, 5).run().unwrap();
        let base = degraded_diamond(0, 5).run().unwrap();
        assert!(
            alt.nodes[C].stats.rtx_alternate_recovered > 0,
            "multi-supplier mode never recovered via the alternate: {:?}",
            alt.nodes[C].stats
        );
        assert_eq!(
            base.nodes[C].stats.rtx_alternate_recovered, 0,
            "baseline must not chase alternates"
        );
        assert!(recoveries(&base).iter().all(|&(_, alternate)| !alternate));
        // The chase over short clean links beats the primary's fat round
        // trip by a wide margin, not a hair.
        assert!(
            median_recover_ms(&alt) < median_recover_ms(&base) / 2.0,
            "alternate median {} !< half of baseline median {}",
            median_recover_ms(&alt),
            median_recover_ms(&base)
        );
    }

    #[test]
    fn outcomes_are_deterministic() {
        for alts in [0usize, 1] {
            let sc = degraded_diamond(alts, 9);
            assert!(sc.run().unwrap() == sc.run().unwrap(), "alts={alts} diverged");
        }
    }
}
