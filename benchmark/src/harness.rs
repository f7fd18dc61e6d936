//! What every workload shares: repeated set-up, the timed loop over units
//! of work, and the process's own vital signs.

use crate::alloc::{self, AllocSnapshot};
use crate::report::RunResult;
use crate::stats::{tail_quantile, Hist, Samples};
use crate::trace::{self, Recorder, SpanGuard};
use std::time::{Duration, Instant};

/// Where these numbers were measured; printed above every result.
pub fn environment() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!("cores={cores} executor=vendored-stub link=loopback load=one-thread")
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up is repeated so `setup_s` is a median, not one draw: at least
/// three times and for at least `SETUP_REPEAT_FLOOR` (a millisecond-scale
/// set-up needs many draws to be steady), at most `SETUP_REPEAT_MAX`
/// times, and never started again once `SETUP_REPEAT_BUDGET` is spent.
const SETUP_REPEAT_FLOOR: Duration = Duration::from_millis(400);
const SETUP_REPEAT_BUDGET: Duration = Duration::from_millis(1500);
const SETUP_REPEAT_MAX: usize = 400;

/// The wall times of a run's repeated set-ups.
pub struct SetupTimes {
    times: Samples,
    began: Instant,
}

impl SetupTimes {
    pub fn start() -> SetupTimes {
        SetupTimes {
            times: Samples::default(),
            began: Instant::now(),
        }
    }

    /// Note one set-up's wall seconds.
    pub fn push(&mut self, seconds: f64) {
        self.times.push(seconds);
    }

    /// Note one set-up's wall seconds; true when another should follow.
    pub fn again_after(&mut self, seconds: f64) -> bool {
        self.push(seconds);
        let spent = self.began.elapsed();
        let steady = self.times.len() >= 3 && spent >= SETUP_REPEAT_FLOOR;
        !(steady || self.times.len() == SETUP_REPEAT_MAX || spent >= SETUP_REPEAT_BUDGET)
    }

    /// Record the median as `setup_s`.
    pub fn finish(mut self, result: &mut RunResult) {
        let note = format!(
            "q1={:.4} q3={:.4}",
            self.times.quantile(0.25),
            self.times.quantile(0.75)
        );
        let n = self.times.len() as u64;
        result.put_noted("setup_s", self.times.median(), n, note);
    }
}

/// Run `setup` repeatedly, keep the last state, and record the median
/// wall time as `setup_s`.
pub fn repeat_setup<S>(result: &mut RunResult, mut setup: impl FnMut() -> S) -> S {
    let mut times = SetupTimes::start();
    loop {
        let t = Instant::now();
        let state = setup();
        if !times.again_after(t.elapsed().as_secs_f64()) {
            times.finish(result);
            return state;
        }
    }
}

/// What the units of work of one timed window measured.
///
/// Every unit yields three numbers — operations per second, and the
/// median and 99th percentile of the latencies recorded during it — and
/// the run reports the median of each over its units. A neighbour on the
/// host that slows a minority of the units therefore moves none of the
/// three; a tail percentile taken over the whole window would follow the
/// slowest unit instead. The tail is a per-layer metric: between quiet
/// and noisy spells of the host it moves by more than any bound allowed.
#[derive(Default)]
pub struct Units {
    rates: Samples,
    walls: Samples,
    p50_ns: Samples,
    p99_ns: Samples,
    all: Hist,
    ops: u64,
}

impl Units {
    /// Note one unit: the operations it completed, its wall seconds and
    /// the latencies recorded during it. A unit that recorded none is
    /// itself the only request there is (a simulated fleet day), and its
    /// wall time is its latency.
    pub fn push(&mut self, ops: u64, wall_s: f64, mut latencies: Hist) {
        let (p50, p99) = if latencies.len() == 0 {
            let ns = wall_s * 1e9;
            latencies.record(ns as u64);
            (ns, ns)
        } else {
            (latencies.quantile_ns(0.5), latencies.quantile_ns(0.99))
        };
        self.rates.push(ops as f64 / wall_s);
        self.walls.push(wall_s);
        self.p50_ns.push(p50);
        self.p99_ns.push(p99);
        self.all.merge(&latencies);
        self.ops += ops;
    }

    pub fn len(&self) -> u64 {
        self.walls.len() as u64
    }

    /// Latencies recorded over all units.
    pub fn samples(&self) -> u64 {
        self.all.len()
    }

    /// Operations completed over all units.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Median wall seconds of a unit.
    pub fn median_wall_s(&mut self) -> f64 {
        self.walls.median()
    }

    /// Record `ops_per_s` and `latency_us_p50`.
    pub fn finish(&mut self, result: &mut RunResult) {
        let n = self.len();
        let note = format!(
            "{} over {n} units, {} ops",
            quartiles(&mut self.rates, 1.0),
            self.ops
        );
        result.put_noted("ops_per_s", self.rates.median(), n, note);
        let samples = self.samples();
        let note = format!(
            "{} over {n} units, {samples} samples",
            quartiles(&mut self.p50_ns, 1e-3)
        );
        result.put_noted("latency_us_p50", self.p50_ns.median() / 1e3, samples, note);
    }

    /// Record the latency tail under a layer's name: the 99th percentile,
    /// median over units.
    pub fn put_p99(&mut self, result: &mut RunResult, name: &'static str) {
        let (n, samples) = (self.len(), self.samples());
        // Over the whole window the tail can be read further out than p99.
        let tail = tail_quantile(samples).map_or(String::new(), |q| {
            format!(
                "; window p{} = {:.3} us",
                q * 100.0,
                self.all.quantile_ns(q) / 1e3
            )
        });
        let note = format!("{} over {n} units{tail}", quartiles(&mut self.p99_ns, 1e-3));
        result.put_noted(name, self.p99_ns.median() / 1e3, samples, note);
    }
}

fn quartiles(s: &mut Samples, scale: f64) -> String {
    format!(
        "q1={:.4} q3={:.4}",
        s.quantile(0.25) * scale,
        s.quantile(0.75) * scale
    )
}

/// The timed loop: run identical units of work until `seconds` have
/// passed (at least one) and record the timing metrics.
///
/// `unit` records its latencies in the histogram it is handed and returns
/// how many operations it completed.
pub fn measure_units(
    result: &mut RunResult,
    seconds: f64,
    mut unit: impl FnMut(u64, &mut Hist) -> u64,
) -> Units {
    let mut units = Units::default();
    let began = Instant::now();
    let mut index = 0u64;
    while index == 0 || began.elapsed().as_secs_f64() < seconds {
        let mut latencies = Hist::default();
        let t = Instant::now();
        let done = unit(index, &mut latencies);
        units.push(done, t.elapsed().as_secs_f64(), latencies);
        index += 1;
    }
    units.finish(result);
    units
}

/// The timed window of a run. In a traced run it switches spans and
/// allocation counting on for exactly the window and wraps it in the
/// root span every other span nests in.
pub struct Window {
    began: Instant,
    allocs_before: AllocSnapshot,
    root: SpanGuard,
}

/// What a closed [`Window`] measured.
pub struct Windowed {
    pub wall_s: f64,
    /// Allocations made inside the window (traced runs only).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Most bytes allocated inside the window that were live at once.
    pub peak_live_bytes: u64,
    pub spans: Recorder,
}

impl Window {
    pub fn open(traced: bool) -> Window {
        if traced {
            alloc::set_counting(true);
            trace::enable();
        }
        Window {
            allocs_before: alloc::snapshot(),
            began: Instant::now(),
            root: trace::span("bench.window", 0),
        }
    }

    pub fn close(self) -> Windowed {
        drop(self.root);
        let wall_s = self.began.elapsed().as_secs_f64();
        let after = alloc::snapshot();
        let (allocs, alloc_bytes) = after.since(&self.allocs_before);
        Windowed {
            wall_s,
            allocs,
            alloc_bytes,
            peak_live_bytes: after.peak_live,
            spans: trace::finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(r: &RunResult, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.name == name).expect(name).value
    }

    #[test]
    fn a_slow_minority_of_units_moves_no_timing_metric() {
        let run = |slow_units: usize| {
            let mut units = Units::default();
            for i in 0..9 {
                let slow = if i < slow_units { 3 } else { 1 };
                let mut latencies = Hist::default();
                (0..1_000).for_each(|k| latencies.record(slow * (10_000 + k)));
                units.push(1_000, slow as f64, latencies);
            }
            let mut r = RunResult::default();
            units.finish(&mut r);
            units.put_p99(&mut r, "node.service_us_p99");
            ["ops_per_s", "latency_us_p50", "node.service_us_p99"].map(|n| metric(&r, n))
        };
        assert_eq!(run(0), run(4));
        assert_ne!(run(0), run(5));
    }

    #[test]
    fn a_unit_without_latencies_is_its_own_request() {
        let mut units = Units::default();
        for wall_s in [2.0, 3.0, 4.0] {
            units.push(100, wall_s, Hist::default());
        }
        let mut r = RunResult::default();
        units.finish(&mut r);
        assert_eq!(metric(&r, "latency_us_p50"), 3e6);
        assert_eq!(units.samples(), 3);
    }
}
