//! Flash-sale scenario (§2.3's motivating workload): a Double-12-style
//! demand spike, LiveNet vs the Hier baseline on identical sessions.
//!
//! ```sh
//! cargo run --release --example flash_sale
//! ```

use livenet::prelude::*;
use livenet::sim::summarize;

fn main() {
    // Four days, festival spike on day 2 (~2× demand), with the paper's
    // festival up-scaling of provisioned capacity.
    let cfg = FleetConfigBuilder::paper_scale(1)
        .days(4)
        .festival(vec![2], 2.0)
        .peak_arrivals_per_sec(1.0)
        .build()
        .expect("flash-sale config is valid");
    // Sharded parallel run: same bits as run_serial(), whatever the core
    // count.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = FleetRunner::new(cfg)
        .expect("config already validated")
        .run_parallel(threads);

    println!(
        "simulated {} viewing sessions over 4 days (festival on day 3)",
        report.livenet.len()
    );
    for day in 0..4 {
        let ln: Vec<SessionRecord> = report
            .livenet
            .iter()
            .filter(|s| s.day == day)
            .copied()
            .collect();
        let h: Vec<SessionRecord> = report
            .hier
            .iter()
            .filter(|s| s.day == day)
            .copied()
            .collect();
        let sl = summarize(&ln);
        let sh = summarize(&h);
        println!(
            "day {}: {:>6} sessions | CDN delay {:.0} vs {:.0} ms | 0-stall {:.1}% vs {:.1}% | fast start {:.1}% vs {:.1}%{}",
            day + 1,
            sl.sessions,
            sl.median_cdn_delay_ms,
            sh.median_cdn_delay_ms,
            100.0 * sl.zero_stall_ratio,
            100.0 * sh.zero_stall_ratio,
            100.0 * sl.fast_startup_ratio,
            100.0 * sh.fast_startup_ratio,
            if day == 2 { "   ← flash sale" } else { "" },
        );
    }
    let peaks = &report.daily_peak_throughput;
    println!(
        "peak throughput by day (normalized): {:?}",
        peaks
            .iter()
            .map(|p| format!("{:.2}", p / peaks.iter().cloned().fold(1.0, f64::max)))
            .collect::<Vec<_>>()
    );
    println!(
        "unique overlay paths by day: {:?} (the Brain spreads festival load)",
        report.daily_unique_paths
    );
}
