//! Every table and figure of the paper's §6 from the canonical fleet run.
//!
//! ```sh
//! cargo run --release -p livenet-bench --bin exp -- list
//! cargo run --release -p livenet-bench --bin exp -- table2 --scale 0.05 --days 1
//! cargo run --release -p livenet-bench --bin exp -- all              # full 20 days
//! ```
//!
//! `exp <name>` runs the fleet configuration (tunable via `--scale`,
//! `--days`, `--seed`) and prints one table or figure with the
//! paper's values alongside; `exp all` prints every one from a single run,
//! plus the packet-level §3/§5 experiment and the telemetry snapshot that
//! backs them.

use livenet_bench::{cli_config, render, run, Report};
use livenet_emu::LossModel;
use livenet_sim::{FleetReport, Scenario};
use std::process::ExitCode;

/// One table or figure: subcommand, title, paper reference, renderer, and
/// whether it plots the first week only (the run is then capped at 7 days).
type Figure = (
    &'static str,
    &'static str,
    &'static str,
    fn(&FleetReport, &mut Report),
    bool,
);

/// In the paper's order, which is also the order `exp all` prints them in.
#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    ("table1", "Table 1: overall performance", "§6.2, Table 1", render::table1, false),
    ("fig02", "Figure 2: CDN path delay per day", "§2.3, Fig. 2", render::fig02, true),
    ("fig08a", "Figure 8(a): streaming delay CDF", "§6.3, Fig. 8(a)", render::fig08a, false),
    ("fig08b", "Figure 8(b): stall-count distribution", "§6.3, Fig. 8(b)", render::fig08b, false),
    ("fig08c", "Figure 8(c): daily fast-startup ratio", "§6.3, Fig. 8(c)", render::fig08c, false),
    ("fig09", "Figure 9: fast startup vs streaming delay", "§6.3, Fig. 9", render::fig09, false),
    ("fig10a", "Figure 10(a): Brain path-request response time", "§6.4, Fig. 10(a)", render::fig10a, false),
    ("fig10b", "Figure 10(b): local hit ratio", "§6.4, Fig. 10(b)", render::fig10b, true),
    ("fig10c", "Figure 10(c): hourly first-packet delay", "§6.4, Fig. 10(c)", render::fig10c, true),
    ("table2", "Table 2: CDN path length distribution", "§6.4, Table 2", render::table2, false),
    ("fig11", "Figure 11: delay vs path length", "§6.4, Fig. 11", render::fig11, false),
    ("fig12", "Figure 12: intra vs inter-national delay", "§6.4, Fig. 12", render::fig12, false),
    ("fig13", "Figure 13: diurnal link loss", "§6.4, Fig. 13", render::fig13, true),
    ("fig14", "Figure 14: daily peak throughput", "§6.5, Fig. 14", render::fig14, false),
    ("table3", "Table 3: Double-12 festival", "§6.5, Table 3", render::table3, false),
];

fn one(&(_, title, paper_ref, render, first_week): &Figure) {
    let mut cfg = cli_config();
    if first_week {
        cfg.workload.days = cfg.workload.days.min(7);
        cfg.workload
            .festival_days
            .retain(|d| *d < cfg.workload.days);
    }
    let report = run(cfg);
    let mut out = Report::fleet(title, paper_ref, &report);
    render(&report, &mut out);
    out.print();
}

fn all() {
    let report = run(cli_config());
    let mut out = Report::fleet(
        "full evaluation (every table & figure from one 20-day run)",
        "§6",
        &report,
    );
    for &(_, title, paper_ref, render, _) in FIGURES {
        let section = paper_ref.split(',').next().unwrap_or(paper_ref);
        out.heading(format!("{} ({section})", title.replacen(": ", " — ", 1)));
        render(&report, &mut out);
    }

    out.heading("§3/§5 — fast/slow-path recovery (packet level)");
    for loss_pct in [0.5, 2.0] {
        for recovery in [true, false] {
            let mut sc = Scenario::chain(
                2,
                LossModel::Bernoulli {
                    p: loss_pct / 100.0,
                },
                42,
            );
            if !recovery {
                sc.node.nack_retry_limit = 0;
            }
            let r = sc.run().expect("chain preset is valid");
            let qoe = r.viewers[0].qoe;
            out.note(format!(
                "loss {loss_pct:.1}% {}: {} frames, {} stalls, {} RTX served",
                if recovery { "fast+slow" } else { "fast only" },
                qoe.frames_rendered,
                qoe.stalls,
                r.nodes[0].stats.rtx_served,
            ));
        }
    }

    out.heading("Telemetry — unified metric snapshot (§6.1 log pipelines)");
    render::telemetry(&report, &mut out);

    out.note("");
    out.note("Done. One figure at a time: `exp <name>` (`exp list`); ablations: exp_ablation_….");
    out.print();
}

fn list() {
    let mut out = Report::new("experiments (`exp <name>`, or `exp all`)", "");
    let rows: Vec<Vec<String>> = FIGURES
        .iter()
        .map(|&(name, title, paper_ref, _, _)| vec![name.into(), title.into(), paper_ref.into()])
        .collect();
    out.table(&["name", "title", "paper"], &rows);
    out.print();
}

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    match name.as_str() {
        "list" => list(),
        "all" => all(),
        _ => match FIGURES.iter().find(|fig| fig.0 == name) {
            Some(fig) => one(fig),
            None => {
                let names: Vec<&str> = FIGURES.iter().map(|fig| fig.0).collect();
                eprintln!(
                    "usage: exp <name> [--scale f] [--days n] [--seed s]\n\
                     unknown experiment {name:?}; valid names: {}, all, list",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}
