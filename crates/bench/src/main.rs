//! Every experiment of the reproduction, one table, one binary.
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin exp -- list
//! cargo run --release -p livenet-bench --bin exp -- table2 --scale 0.05 --days 1
//! cargo run --release -p livenet-bench --bin exp -- all              # full 20 days
//! cargo run --release -p livenet-bench --bin exp -- brainha --smoke
//! ```
//!
//! `exp <name>` runs one row of [`TABLE`]: a table or figure of the paper's
//! §6 rendered from the canonical fleet run (shrunk by `--scale`, `--days`,
//! `--seed`), or a packet-level, ablation, fault or wire experiment that
//! builds its own runs (`--smoke` shrinks the long ones for CI, `--threads`
//! sets the fleet runner's worker count). `exp all` prints every table and
//! figure from a single fleet run, plus the packet-level §3/§5 check and
//! the telemetry snapshot that backs them. Machine-readable numbers come
//! from `benchmark/`, not from here.

#![forbid(unsafe_code)]

mod ablation;
mod autorec;
mod brainha;
mod recovery;
mod render;
mod report;
mod wire;

use livenet_sim::{
    FleetConfig, FleetConfigBuilder, FleetReport, FleetRunner, FleetSim, SessionRecord,
};
use livenet_types::Ecdf;
use report::Report;
use std::process::ExitCode;
use std::time::Instant;

/// The canonical experiment seed.
const SEED: u64 = 20221122;

const USAGE: &str =
    "usage: exp <name>|all|list [--scale f] [--days n] [--seed s] [--threads n] [--smoke]";

/// The parsed command line.
struct Args {
    /// `paper_scale` shrunk by `--scale`, `--days`, `--seed`, validated:
    /// the canonical fleet run.
    fleet: FleetConfig,
    /// Worker threads of a sharded fleet run; never changes its output.
    threads: usize,
    /// The CI-sized variant of a long experiment.
    smoke: bool,
}

impl Args {
    /// Strict: an unknown flag, a missing value and a value that does not
    /// parse are errors, never defaults.
    fn parse(flags: &[String]) -> Result<Args, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut fleet = FleetConfigBuilder::paper_scale(SEED);
        let (mut threads, mut smoke) = (8, false);
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let f: f64 = value(flag, it.next())?;
                    if !(f.is_finite() && f > 0.0) {
                        return Err(format!("--scale must be a positive number, not {f}"));
                    }
                    fleet = fleet.tweak(|c| c.workload.peak_arrivals_per_sec *= f);
                }
                "--days" => fleet = fleet.days(value(flag, it.next())?),
                "--seed" => fleet = fleet.seed(value(flag, it.next())?),
                "--threads" => threads = value(flag, it.next())?,
                "--smoke" => smoke = true,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            fleet: fleet.build().map_err(|e| e.to_string())?,
            threads,
            smoke,
        })
    }
}

/// How one experiment gets its data.
#[derive(Clone, Copy)]
enum Run {
    /// Renders from the canonical fleet run — `FleetSim::run`, the
    /// monolith sample path the tables are quoted against; `true` plots the
    /// first week only (the run is then capped at 7 days).
    Figure(fn(&FleetReport, &mut Report), bool),
    /// Builds its own runs.
    Own(fn(&Args, &mut Report)),
}

/// One experiment: subcommand, title, paper reference, how it runs.
type Experiment = (&'static str, &'static str, &'static str, Run);

/// The figures in the paper's order, which is also the order `exp all`
/// prints them in; then everything else.
#[rustfmt::skip]
const TABLE: &[Experiment] = &[
    ("table1", "Table 1: overall performance", "§6.2, Table 1", Run::Figure(render::table1, false)),
    ("fig02", "Figure 2: CDN path delay per day", "§2.3, Fig. 2", Run::Figure(render::fig02, true)),
    ("fig08a", "Figure 8(a): streaming delay CDF", "§6.3, Fig. 8(a)", Run::Figure(render::fig08a, false)),
    ("fig08b", "Figure 8(b): stall-count distribution", "§6.3, Fig. 8(b)", Run::Figure(render::fig08b, false)),
    ("fig08c", "Figure 8(c): daily fast-startup ratio", "§6.3, Fig. 8(c)", Run::Figure(render::fig08c, false)),
    ("fig09", "Figure 9: fast startup vs streaming delay", "§6.3, Fig. 9", Run::Figure(render::fig09, false)),
    ("fig10a", "Figure 10(a): Brain path-request response time", "§6.4, Fig. 10(a)", Run::Figure(render::fig10a, false)),
    ("fig10b", "Figure 10(b): local hit ratio", "§6.4, Fig. 10(b)", Run::Figure(render::fig10b, true)),
    ("fig10c", "Figure 10(c): hourly first-packet delay", "§6.4, Fig. 10(c)", Run::Figure(render::fig10c, true)),
    ("table2", "Table 2: CDN path length distribution", "§6.4, Table 2", Run::Figure(render::table2, false)),
    ("fig11", "Figure 11: delay vs path length", "§6.4, Fig. 11", Run::Figure(render::fig11, false)),
    ("fig12", "Figure 12: intra vs inter-national delay", "§6.4, Fig. 12", Run::Figure(render::fig12, false)),
    ("fig13", "Figure 13: diurnal link loss", "§6.4, Fig. 13", Run::Figure(render::fig13, true)),
    ("fig14", "Figure 14: daily peak throughput", "§6.5, Fig. 14", Run::Figure(render::fig14, false)),
    ("table3", "Table 3: Double-12 festival", "§6.5, Table 3", Run::Figure(render::table3, false)),
    ("telemetry", "Telemetry: unified metric snapshot", "§6.1 log pipelines", Run::Figure(render::telemetry, false)),
    ("fastslow_recovery", "fast/slow path recovery (A→B→C, §3 & §5)", "§3 & §5", Run::Own(ablation::fastslow_recovery)),
    ("ablation_gopcache", "ablation: GoP-cache startup burst (§5.1)", "§5.1, Fig. 9", Run::Own(ablation::gopcache)),
    ("ablation_pacing", "ablation: I-frame pacing gain (§5.2)", "§5.2", Run::Own(ablation::pacing)),
    ("ablation_routing", "ablation: routing parameters (§4.3)", "§4.3, §7.3", Run::Own(ablation::routing)),
    ("recovery", "failure recovery (§6.5)", "§6.5", Run::Own(recovery::run)),
    ("brainha", "Brain HA: Paxos leader failover (§7.1)", "§7.1", Run::Own(brainha::run)),
    ("autorec", "multi-supplier RTX recovery (§5.3)", "§5.3", Run::Own(autorec::run)),
    ("wire", "real-socket wire datapath (geo edge fleet on 127.0.0.1)", "§2.2, §4.4, §5.1; DESIGN.md §13", Run::Own(wire::run)),
    ("speedup", "fleet-runner throughput (serial vs parallel)", "", Run::Own(speedup)),
];

/// Median of a session metric.
fn median(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> f64) -> f64 {
    let mut e = Ecdf::new();
    for s in sessions {
        e.push(f(s));
    }
    e.median()
}

/// Ratio of sessions satisfying a predicate, in percent.
fn ratio_pct(sessions: &[SessionRecord], f: impl Fn(&SessionRecord) -> bool) -> f64 {
    if sessions.is_empty() {
        return f64::NAN;
    }
    100.0 * sessions.iter().filter(|s| f(s)).count() as f64 / sessions.len() as f64
}

/// The `p`-quantile of an ascending sample at index `round((n − 1)·p)`;
/// NaN when empty.
fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize].into()
}

fn one(&(_, title, paper_ref, run): &Experiment, args: &Args) -> Report {
    match run {
        Run::Figure(render, first_week) => {
            let mut cfg = args.fleet.clone();
            if first_week {
                cfg.workload.days = cfg.workload.days.min(7);
                cfg.workload
                    .festival_days
                    .retain(|d| *d < cfg.workload.days);
            }
            let report = FleetSim::new(cfg).run();
            let mut out = Report::fleet(title, paper_ref, &report);
            render(&report, &mut out);
            out
        }
        Run::Own(run) => {
            let mut out = Report::new(title, paper_ref);
            run(args, &mut out);
            out
        }
    }
}

fn all(args: &Args) -> Report {
    let report = FleetSim::new(args.fleet.clone()).run();
    let mut out = Report::fleet(
        "full evaluation (every table & figure from one 20-day run)",
        "§6",
        &report,
    );
    for &(name, title, paper_ref, run) in TABLE {
        let Run::Figure(render, _) = run else {
            continue;
        };
        if name == "telemetry" {
            // The packet-level check sits between the paper's figures and
            // the snapshot that backs them.
            ablation::fastslow_summary(&mut out);
        }
        let section = paper_ref.split(',').next().unwrap_or(paper_ref);
        out.heading(format!("{} ({section})", title.replacen(": ", " — ", 1)));
        render(&report, &mut out);
    }
    out.note("");
    out.note("Done. One at a time: `exp <name>`; `exp list` names them all.");
    out
}

fn list() -> Report {
    let mut out = Report::new("experiments (`exp <name>`, or `exp all`)", "");
    let rows: Vec<Vec<String>> = TABLE
        .iter()
        .map(|&(name, title, paper_ref, _)| vec![name.into(), title.into(), paper_ref.into()])
        .collect();
    out.table(&["name", "title", "paper"], &rows);
    out
}

/// Serial vs parallel on the sharded runner, over the command-line fleet
/// config or (`--smoke`, the CI gate) the smoke preset. The two reports
/// must be bit-identical; parallel must be no slower *only when the host
/// has ≥ 2 cores* — wall-clock speedup on a single-core runner is
/// physically impossible, and pretending otherwise would just make the
/// gate flaky. Sessions/s and peak RSS at paper and mega scale are
/// `benchmark/`'s `fleet_ticks` and `fleet_sessions`.
fn speedup(args: &Args, out: &mut Report) {
    let (workload, cfg) = if args.smoke {
        let smoke = FleetConfigBuilder::smoke(SEED);
        ("smoke", smoke.build().expect("smoke preset is valid"))
    } else {
        ("command line", args.fleet.clone())
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    out.meta("threads", args.threads.to_string());
    out.meta("cores", cores.to_string());
    out.meta("workload", workload);
    let runner = FleetRunner::new(cfg).expect("config already validated");
    let mut timed = |label: &str, run: &dyn Fn() -> FleetReport| {
        let t0 = Instant::now();
        let report = run();
        let secs = t0.elapsed().as_secs_f64();
        let sessions = report.livenet.len();
        out.note(format!(
            "{workload} {label}: {sessions} sessions in {secs:.3}s ({:.0}/s)",
            sessions as f64 / secs
        ));
        (report, secs)
    };
    let (serial, serial_secs) = timed("serial", &|| runner.run_serial());
    let (parallel, parallel_secs) = timed("parallel", &|| runner.run_parallel(args.threads));
    assert!(
        serial.bit_identical(&parallel),
        "parallel run diverged from serial"
    );
    let speedup = serial_secs / parallel_secs;
    out.note(format!(
        "speedup: {speedup:.2}x on {cores} core(s), bit-identical: true"
    ));
    if cores >= 2 {
        assert!(
            speedup >= 1.0,
            "parallel ({parallel_secs:.3}s) slower than serial ({serial_secs:.3}s) on {cores} cores"
        );
    } else {
        out.note("single-core host: speedup gate skipped (only bit-identity checked)");
    }
}

/// Resolve one command line and run it. Every error comes back before
/// anything runs.
fn resolve(argv: &[String]) -> Result<Report, String> {
    let (name, flags) = argv.split_first().ok_or("no experiment named")?;
    let experiment = TABLE.iter().find(|e| e.0 == name);
    if experiment.is_none() && name != "all" && name != "list" {
        let names: Vec<&str> = TABLE.iter().map(|e| e.0).collect();
        return Err(format!(
            "unknown experiment {name:?}; valid names: {}, all, list",
            names.join(", ")
        ));
    }
    let args = Args::parse(flags)?;
    Ok(match experiment {
        Some(e) => one(e, &args),
        None if name == "all" => all(&args),
        None => list(),
    })
}

/// Run one command line; the process exit code (2: usage error).
fn run(argv: &[String]) -> u8 {
    match resolve(argv) {
        Ok(report) => {
            report.print();
            0
        }
        Err(msg) => {
            eprintln!("{USAGE}\n{msg}");
            2
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&argv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_types::SimTime;

    fn rec(cdn: f32, fast: bool) -> SessionRecord {
        SessionRecord {
            start: SimTime::ZERO,
            day: 0,
            hour: 0,
            path_len: 2,
            international: false,
            cdn_delay_ms: cdn,
            streaming_delay_ms: 900.0,
            first_packet_ms: 50.0,
            startup_ms: if fast { 500.0 } else { 1500.0 },
            stalls: 0,
            outcome: livenet_sim::DecisionOutcome::Prefetched,
        }
    }

    #[test]
    fn median_and_ratio_helpers() {
        let sessions = vec![rec(100.0, true), rec(200.0, true), rec(300.0, false)];
        assert_eq!(median(&sessions, |s| f64::from(s.cdn_delay_ms)), 200.0);
        let pct = ratio_pct(&sessions, |s| s.fast_startup());
        assert!((pct - 66.666).abs() < 0.01);
    }

    #[test]
    fn table_names_are_unique_and_list_prints_one_row_each() {
        let mut names: Vec<&str> = TABLE.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLE.len(), "duplicate experiment name");
        assert!(!names.contains(&"all") && !names.contains(&"list"));

        let text = list().to_text();
        let rows: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("----"))
            .skip(1)
            .collect();
        assert_eq!(rows.len(), TABLE.len());
        for (row, e) in rows.iter().zip(TABLE) {
            assert_eq!(row.split_whitespace().next(), Some(e.0));
        }
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Each of these would start a fleet run of minutes if anything ran.
    #[test]
    fn bad_command_lines_exit_2_without_running() {
        for line in [
            "",
            "tabel2",
            "exp_recovery",
            "table2 --sclae 0.05",
            "table2 --scale 0.05x",
            "table2 --scale",
            "table2 --scale -1",
            "table2 --scale nan",
            "table2 --days 0",
            "table2 --days 1.5",
            "all --seed x",
            "speedup --threads",
            "recovery --shards 8",
            "list --bogus",
            "table2 table1",
        ] {
            assert_eq!(run(&argv(line)), 2, "{line:?}");
        }
    }

    #[test]
    fn flags_reach_the_fleet_config() {
        let args = Args::parse(&argv("--scale 0.5 --days 3 --seed 7 --threads 2 --smoke")).unwrap();
        let base = FleetConfigBuilder::paper_scale(SEED).build().unwrap();
        assert_eq!(
            args.fleet.workload.peak_arrivals_per_sec,
            base.workload.peak_arrivals_per_sec * 0.5
        );
        assert_eq!(args.fleet.workload.days, 3);
        assert_eq!((args.fleet.workload.seed, args.fleet.geo.seed), (7, 7));
        assert_eq!((args.threads, args.smoke), (2, true));
        let plain = Args::parse(&[]).unwrap();
        assert_eq!((plain.threads, plain.smoke), (8, false));
        assert_eq!(plain.fleet.workload.days, base.workload.days);
    }

    /// The three copies this helper replaced (`exp_recovery` and
    /// `exp_autorec` over `f32`, `exp_brainha` over `f64`).
    fn old_f32(sorted: &[f32], p: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        f64::from(sorted[idx])
    }

    fn old_f64(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    #[test]
    fn percentile_agrees_with_the_copies_it_replaced() {
        for n in [0usize, 1, 2, 100] {
            let wide: Vec<f64> = (0..n).map(|i| i as f64 * 1.7 + 0.3).collect();
            let narrow: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
            for p in [0.5, 0.9, 0.99] {
                // `to_bits`, so that NaN (the empty case) equals NaN.
                let (new, old) = (percentile(&wide, p), old_f64(&wide, p));
                assert_eq!(new.to_bits(), old.to_bits(), "f64, n = {n}, p = {p}");
                let (new, old) = (percentile(&narrow, p), old_f32(&narrow, p));
                assert_eq!(new.to_bits(), old.to_bits(), "f32, n = {n}, p = {p}");
            }
        }
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 2.0);
    }
}
