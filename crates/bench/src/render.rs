//! Table/figure renderers over a [`FleetReport`].
//!
//! Each function appends one of the paper's tables or figures (with the
//! paper's values alongside) to a [`Report`]. `exp <name>` builds a report
//! from one renderer and prints it; `exp all` runs the 20-day fleet once
//! and chains all of them.

use crate::{median, ratio_pct, Report};
use livenet_sim::{FleetReport, SessionRecord};
use livenet_types::{welch_t, Ecdf, OnlineStats};

/// Sessions from the first `days` days (the week-scale figures exclude the
/// festival, which starts on day 10).
fn first_days(sessions: &[SessionRecord], days: u32) -> Vec<SessionRecord> {
    sessions.iter().filter(|s| s.day < days).copied().collect()
}

/// Table 1 — overall performance comparison.
pub(crate) fn table1(report: &FleetReport, out: &mut Report) {
    let ln = &report.livenet;
    let h = &report.hier;
    let rows = [(
            "CDN path delay (ms)",
            median(ln, |s| f64::from(s.cdn_delay_ms)),
            median(h, |s| f64::from(s.cdn_delay_ms)),
            "188 / 393",
        ),
        (
            "CDN path length",
            median(ln, |s| f64::from(s.path_len)),
            median(h, |s| f64::from(s.path_len)),
            "2 / 4",
        ),
        (
            "Streaming delay (ms)",
            median(ln, |s| f64::from(s.streaming_delay_ms)),
            median(h, |s| f64::from(s.streaming_delay_ms)),
            "948 / 1,151",
        ),
        (
            "0-stall ratio (%)",
            ratio_pct(ln, |s| s.zero_stall()),
            ratio_pct(h, |s| s.zero_stall()),
            "98 / 95",
        ),
        (
            "Fast startup ratio (%)",
            ratio_pct(ln, |s| s.fast_startup()),
            ratio_pct(h, |s| s.fast_startup()),
            "95 / 92",
        )];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, l, hh, paper)| {
            let impr = 100.0 * (hh - l).abs() / hh.max(1e-9);
            vec![
                name.to_string(),
                format!("{l:.1}"),
                format!("{hh:.1}"),
                format!("{impr:.1}%"),
                paper.to_string(),
            ]
        })
        .collect();
    out.table(
        &["Metric", "LiveNet", "Hier", "impr.", "paper (LN/Hier)"],
        &table,
    );
    let mut a = OnlineStats::new();
    let mut b = OnlineStats::new();
    for s in ln {
        a.push(f64::from(s.cdn_delay_ms));
    }
    for s in h {
        b.push(f64::from(s.cdn_delay_ms));
    }
    let (t, significant) = welch_t(&b, &a);
    out.note(format!(
        "Welch t (Hier − LiveNet CDN delay): t = {t:.1}, p < 0.001: {}",
        if significant { "yes" } else { "no" }
    ));
    out.note(format!(
        "Last-resort sessions: {:.2}% (paper: ~2%)",
        ratio_pct(ln, |s| s.outcome.is_last_resort())
    ));
}

/// Figure 2 — daily CDN path delay for both systems (first week).
pub(crate) fn fig02(report: &FleetReport, out: &mut Report) {
    let ln = first_days(&report.livenet, 7);
    let h = first_days(&report.hier, 7);
    let days = ln.iter().map(|s| s.day).max().unwrap_or(0);
    let mut rows = Vec::new();
    for day in 0..=days {
        let mut le = Ecdf::new();
        let mut he = Ecdf::new();
        for s in ln.iter().filter(|s| s.day == day) {
            le.push(f64::from(s.cdn_delay_ms));
        }
        for s in h.iter().filter(|s| s.day == day) {
            he.push(f64::from(s.cdn_delay_ms));
        }
        rows.push(vec![
            format!("{}", day + 1),
            format!("{:.0}", le.median()),
            format!("{:.0}", he.median()),
        ]);
    }
    out.table(&["Day", "LiveNet (ms)", "Hier (ms)"], &rows);
    out.note("Paper: LiveNet 150–250 ms, Hier ≈ 390–420 ms across the week.");
}

/// Figure 8(a) — streaming-delay CDF + paired improvements.
pub(crate) fn fig08a(report: &FleetReport, out: &mut Report) {
    let mut ln = Ecdf::new();
    let mut h = Ecdf::new();
    for s in &report.livenet {
        ln.push(f64::from(s.streaming_delay_ms));
    }
    for s in &report.hier {
        h.push(f64::from(s.streaming_delay_ms));
    }
    let points: Vec<f64> = (4..=20).map(|i| 100.0 * f64::from(i)).collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|&x| {
            vec![
                format!("{x:.0}"),
                format!("{:.3}", ln.cdf_at(x)),
                format!("{:.3}", h.cdf_at(x)),
            ]
        })
        .collect();
    out.table(&["delay (ms)", "LiveNet CDF", "Hier CDF"], &rows);
    let mut deltas = Ecdf::new();
    for (a, b) in report.livenet.iter().zip(&report.hier) {
        deltas.push(f64::from(b.streaming_delay_ms - a.streaming_delay_ms));
    }
    out.note(format!(
        "Views improved ≥200 ms: {:.1}% (paper: 60%) | ≥100 ms: {:.1}% (paper: 80%)",
        100.0 * (1.0 - deltas.cdf_at(200.0)),
        100.0 * (1.0 - deltas.cdf_at(100.0)),
    ));
}

fn stall_histogram(sessions: &[SessionRecord]) -> [f64; 6] {
    let mut counts = [0u64; 6];
    for s in sessions {
        counts[usize::from(s.stalls).min(5)] += 1;
    }
    let total = sessions.len().max(1) as f64;
    let mut pct = [0.0; 6];
    for (i, c) in counts.iter().enumerate() {
        pct[i] = 100.0 * *c as f64 / total;
    }
    pct
}

/// Figure 8(b) — stall-count distribution.
pub(crate) fn fig08b(report: &FleetReport, out: &mut Report) {
    let ln = stall_histogram(&report.livenet);
    let h = stall_histogram(&report.hier);
    let rows: Vec<Vec<String>> = (1..=5)
        .map(|i| {
            vec![
                if i == 5 { "≥5".into() } else { format!("{i}") },
                format!("{:.2}%", ln[i]),
                format!("{:.2}%", h[i]),
            ]
        })
        .collect();
    out.table(&["stalls/view", "LiveNet", "Hier"], &rows);
    let ln_any = 100.0 - ln[0];
    let h_any = 100.0 - h[0];
    out.note(format!(
        "≥1 stall: LiveNet {ln_any:.2}% (paper 2%), Hier {h_any:.2}% (paper 5%); \
         exactly-1 among stalled: {:.0}% (paper ~60%); 5+ ratio {:.1}x (paper ~2x)",
        100.0 * ln[1] / ln_any.max(1e-9),
        h[5] / ln[5].max(1e-9),
    ));
}

/// Figure 8(c) — daily fast-startup ratio.
pub(crate) fn fig08c(report: &FleetReport, out: &mut Report) {
    let days = report.livenet.iter().map(|s| s.day).max().unwrap_or(0);
    let per_day = |sessions: &[SessionRecord], day: u32| {
        let subset: Vec<SessionRecord> =
            sessions.iter().filter(|s| s.day == day).copied().collect();
        ratio_pct(&subset, |s| s.fast_startup())
    };
    let mut rows = Vec::new();
    let (mut ls, mut hs) = (0.0, 0.0);
    for day in 0..=days {
        let l = per_day(&report.livenet, day);
        let h = per_day(&report.hier, day);
        ls += l;
        hs += h;
        rows.push(vec![
            format!("{}", day + 1),
            format!("{l:.1}%"),
            format!("{h:.1}%"),
        ]);
    }
    out.table(&["Day", "LiveNet", "Hier"], &rows);
    let n = f64::from(days + 1);
    out.note(format!(
        "Average: LiveNet {:.1}% vs Hier {:.1}% (paper: 95% vs 92%)",
        ls / n,
        hs / n
    ));
}

/// Figure 9 — fast startup vs streaming-delay bucket.
pub(crate) fn fig09(report: &FleetReport, out: &mut Report) {
    let buckets: [(f64, f64, &str); 5] = [
        (0.0, 500.0, "(0, 500]"),
        (500.0, 700.0, "(500, 700]"),
        (700.0, 1000.0, "(700, 1000]"),
        (1000.0, 1500.0, "(1000, 1500]"),
        (1500.0, f64::INFINITY, "(1500, inf]"),
    ];
    let mut rows = Vec::new();
    for (lo, hi, label) in buckets {
        let (mut fast, mut total) = (0u64, 0u64);
        for s in &report.livenet {
            let d = f64::from(s.streaming_delay_ms);
            if d > lo && d <= hi {
                total += 1;
                fast += u64::from(s.fast_startup());
            }
        }
        let pct = if total == 0 {
            f64::NAN
        } else {
            100.0 * fast as f64 / total as f64
        };
        rows.push(vec![
            label.to_string(),
            format!("{total}"),
            format!("{pct:.1}%"),
        ]);
    }
    out.table(&["streaming delay (ms)", "views", "fast startup"], &rows);
    out.note("Paper: ≈95% even at 1–1.5 s; ≥87% above 1.5 s (the GoP-cache effect).");
}

/// Figure 10(a) — Brain response time per hour of day.
pub(crate) fn fig10a(report: &FleetReport, out: &mut Report) {
    let mut per_hour: Vec<Ecdf> = (0..24).map(|_| Ecdf::new()).collect();
    let mut all = Ecdf::new();
    for s in &report.livenet {
        if let Some(ms) = s.outcome.response_ms() {
            per_hour[s.hour as usize].push(f64::from(ms));
            all.push(f64::from(ms));
        }
    }
    let rows: Vec<Vec<String>> = (0..24)
        .map(|h| {
            let e = &mut per_hour[h];
            if e.is_empty() {
                vec![format!("{h}"), "-".into(), "-".into(), "-".into()]
            } else {
                vec![
                    format!("{h}"),
                    format!("{:.1}", e.quantile(0.25)),
                    format!("{:.1}", e.quantile(0.50)),
                    format!("{:.1}", e.quantile(0.75)),
                ]
            }
        })
        .collect();
    out.table(&["hour", "p25 (ms)", "median (ms)", "p75 (ms)"], &rows);
    out.note(format!(
        "Overall: p25 {:.1} ms, median {:.1} ms (paper: ~5 ms / ~30 ms)",
        all.quantile(0.25),
        all.median()
    ));
}

/// Figure 10(b) — local hit ratio by hour of day (first week).
pub(crate) fn fig10b(report: &FleetReport, out: &mut Report) {
    let week = first_days(&report.livenet, 7);
    let mut hits = [0u64; 24];
    let mut total = [0u64; 24];
    for s in &week {
        total[s.hour as usize] += 1;
        hits[s.hour as usize] += u64::from(s.outcome.is_local_hit());
    }
    let rows: Vec<Vec<String>> = (0..24)
        .map(|h| {
            let pct = 100.0 * hits[h] as f64 / total[h].max(1) as f64;
            let bar = "#".repeat((pct / 2.5) as usize);
            vec![format!("{h:02}:00"), format!("{pct:.1}%"), bar]
        })
        .collect();
    out.table(&["hour", "hit ratio", ""], &rows);
    let peak: f64 = (20..23)
        .map(|h| 100.0 * hits[h] as f64 / total[h].max(1) as f64)
        .sum::<f64>()
        / 3.0;
    let trough: f64 = (3..6)
        .map(|h| 100.0 * hits[h] as f64 / total[h].max(1) as f64)
        .sum::<f64>()
        / 3.0;
    out.note(format!(
        "Peak (20–23h): {peak:.1}% (paper ≈70%) | trough (3–6h): {trough:.1}% (paper ≈40–50%)"
    ));
}

/// Figure 10(c) — hourly mean first-packet delay (first week).
pub(crate) fn fig10c(report: &FleetReport, out: &mut Report) {
    let week = first_days(&report.livenet, 7);
    let mut sum = [0.0f64; 24];
    let mut n = [0u64; 24];
    for s in &week {
        sum[s.hour as usize] += f64::from(s.first_packet_ms);
        n[s.hour as usize] += 1;
    }
    let rows: Vec<Vec<String>> = (0..24)
        .map(|h| {
            let mean = sum[h] / n[h].max(1) as f64;
            let bar = "#".repeat((mean / 5.0) as usize);
            vec![format!("{h:02}:00"), format!("{mean:.0} ms"), bar]
        })
        .collect();
    out.table(&["hour", "first-packet", ""], &rows);
    let peak = (20..23).map(|h| sum[h] / n[h].max(1) as f64).sum::<f64>() / 3.0;
    let trough = (3..6).map(|h| sum[h] / n[h].max(1) as f64).sum::<f64>() / 3.0;
    out.note(format!(
        "Evening (20–23h): {peak:.0} ms (paper ≈70) | 3–6h: {trough:.0} ms \
         (paper: the only >100 ms period)"
    ));
}

fn length_dist(sessions: impl Iterator<Item = SessionRecord>) -> [f64; 4] {
    let mut counts = [0u64; 4];
    let mut total = 0u64;
    for s in sessions {
        counts[usize::from(s.path_len).min(3)] += 1;
        total += 1;
    }
    let mut pct = [0.0; 4];
    for (i, c) in counts.iter().enumerate() {
        pct[i] = 100.0 * *c as f64 / total.max(1) as f64;
    }
    pct
}

/// Table 2 — path-length distribution.
pub(crate) fn table2(report: &FleetReport, out: &mut Report) {
    let all = length_dist(report.livenet.iter().copied());
    let inter = length_dist(report.livenet.iter().filter(|s| s.international).copied());
    let intra = length_dist(report.livenet.iter().filter(|s| !s.international).copied());
    let fmt = |d: [f64; 4]| {
        d.iter().map(|v| format!("{v:.2}%")).collect::<Vec<String>>()
    };
    let mut rows = Vec::new();
    for (name, d) in [("All", all), ("Inter-nation.", inter), ("Intra-nation.", intra)] {
        let mut row = vec![name.to_string()];
        row.extend(fmt(d));
        rows.push(row);
    }
    out.table(&["", "0", "1", "2", "≥3"], &rows);
    out.note(
        "Paper: All 0.13/7.00/92.06/0.81 | inter ~0/~0/73.83/26.16 | intra 0.13/7.16/92.48/0.23",
    );
}

/// Figure 11 — delay percentiles per path length (+ Hier len=4).
pub(crate) fn fig11(report: &FleetReport, out: &mut Report) {
    let mut boxes: Vec<(String, Ecdf, usize)> = vec![
        ("len=0".into(), Ecdf::new(), 0),
        ("len=1".into(), Ecdf::new(), 0),
        ("len=2".into(), Ecdf::new(), 0),
        ("len>=3".into(), Ecdf::new(), 0),
    ];
    for s in &report.livenet {
        let idx = usize::from(s.path_len).min(3);
        boxes[idx].1.push(f64::from(s.cdn_delay_ms));
        boxes[idx].2 += 1;
    }
    let mut hier = Ecdf::new();
    for s in &report.hier {
        hier.push(f64::from(s.cdn_delay_ms));
    }
    let total = report.livenet.len().max(1);
    let mut rows = Vec::new();
    for (label, e, n) in &mut boxes {
        if e.is_empty() {
            continue;
        }
        let b = e.box5();
        rows.push(vec![
            format!("{label} ({:.2}%)", 100.0 * *n as f64 / total as f64),
            format!("{:.0}", b.p20),
            format!("{:.0}", b.p25),
            format!("{:.0}", b.p50),
            format!("{:.0}", b.p75),
            format!("{:.0}", b.p80),
        ]);
    }
    let hb = hier.box5();
    rows.push(vec![
        "Hier len=4 (100%)".into(),
        format!("{:.0}", hb.p20),
        format!("{:.0}", hb.p25),
        format!("{:.0}", hb.p50),
        format!("{:.0}", hb.p75),
        format!("{:.0}", hb.p80),
    ]);
    out.table(&["path length", "p20", "p25", "p50", "p75", "p80"], &rows);
    out.note("Paper shape: delay grows with hops; Hier's fixed len-4 sits far above.");
}

/// Figure 12 — intra vs inter-national delay boxes.
pub(crate) fn fig12(report: &FleetReport, out: &mut Report) {
    let box_of = |sessions: &[SessionRecord], international: bool| {
        let mut e = Ecdf::new();
        for s in sessions.iter().filter(|s| s.international == international) {
            e.push(f64::from(s.cdn_delay_ms));
        }
        if e.is_empty() {
            None
        } else {
            Some(e.box5())
        }
    };
    let mut rows = Vec::new();
    for (label, sessions, inter) in [
        ("LiveNet intra", &report.livenet, false),
        ("LiveNet inter", &report.livenet, true),
        ("Hier intra", &report.hier, false),
        ("Hier inter", &report.hier, true),
    ] {
        if let Some(b) = box_of(sessions, inter) {
            rows.push(vec![
                label.to_string(),
                format!("{:.0}", b.p20),
                format!("{:.0}", b.p25),
                format!("{:.0}", b.p50),
                format!("{:.0}", b.p75),
                format!("{:.0}", b.p80),
            ]);
        }
    }
    out.table(&["case", "p20", "p25", "p50 (ms)", "p75", "p80"], &rows);
    out.note("Paper medians: LiveNet <200 / 330 ms; Hier 400 / 450 ms.");
}

/// Figure 13 — diurnal loss profile (first week's hours).
pub(crate) fn fig13(report: &FleetReport, out: &mut Report) {
    let mut sum = [0.0f64; 24];
    let mut n = [0u64; 24];
    for (i, &l) in report.hourly_loss.iter().enumerate().take(7 * 24) {
        if !l.is_nan() {
            sum[i % 24] += l;
            n[i % 24] += 1;
        }
    }
    let mut max_pct = 0.0f64;
    let rows: Vec<Vec<String>> = (0..24)
        .map(|h| {
            let pct = 100.0 * sum[h] / n[h].max(1) as f64;
            max_pct = max_pct.max(pct);
            let bar = "#".repeat((pct * 400.0) as usize);
            vec![format!("{h:02}:00"), format!("{pct:.4}%"), bar]
        })
        .collect();
    out.table(&["hour", "avg loss", ""], &rows);
    out.note(format!(
        "Peak loss: {max_pct:.4}% (paper: <0.175%, <0.1% most of the time)"
    ));
}

/// Figure 14 — normalized daily peak throughput.
pub(crate) fn fig14(report: &FleetReport, out: &mut Report) {
    let max = report
        .daily_peak_throughput
        .iter()
        .copied()
        .fold(0.0f64, f64::max)
        .max(1.0);
    let rows: Vec<Vec<String>> = report
        .daily_peak_throughput
        .iter()
        .enumerate()
        .map(|(day, &bps)| {
            let norm = bps / max;
            let bar = "#".repeat((norm * 40.0) as usize);
            vec![format!("Dec {}", day + 1), format!("{norm:.2}"), bar]
        })
        .collect();
    out.table(&["day", "norm. peak", ""], &rows);
    let t = &report.daily_peak_throughput;
    if t.len() >= 13 {
        let festival = (t[10] + t[11]) / 2.0;
        let regular: f64 = t
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != 10 && *d != 11)
            .map(|(_, v)| v)
            .sum::<f64>()
            / (t.len() - 2) as f64;
        out.note(format!(
            "Festival/regular peak ratio: {:.2}x (paper: ~2x)",
            festival / regular.max(1.0)
        ));
    }
}

/// Table 3 — the Double-12 festival days.
pub(crate) fn table3(report: &FleetReport, out: &mut Report) {
    let group = |days: &[u32]| -> Vec<SessionRecord> {
        report
            .livenet
            .iter()
            .filter(|s| days.contains(&s.day))
            .copied()
            .collect()
    };
    let groups = [
        ("Dec 10", group(&[9])),
        ("Dec 11-12", group(&[10, 11])),
        ("Dec 13", group(&[12])),
    ];
    type Metric = Box<dyn Fn(&[SessionRecord]) -> f64>;
    let metric_rows: Vec<(&str, Metric, &str)> = vec![
        (
            "CDN path delay (ms)",
            Box::new(|s: &[SessionRecord]| median(s, |r| f64::from(r.cdn_delay_ms))),
            "188 / 192 / 180",
        ),
        (
            "CDN path length",
            Box::new(|s: &[SessionRecord]| median(s, |r| f64::from(r.path_len))),
            "2 / 2 / 2",
        ),
        (
            "Streaming delay (ms)",
            Box::new(|s: &[SessionRecord]| median(s, |r| f64::from(r.streaming_delay_ms))),
            "954 / 988 / 944",
        ),
        (
            "0-stall ratio (%)",
            Box::new(|s: &[SessionRecord]| ratio_pct(s, |r| r.zero_stall())),
            "97 / 97 / 97",
        ),
        (
            "Fast startup ratio (%)",
            Box::new(|s: &[SessionRecord]| ratio_pct(s, |r| r.fast_startup())),
            "94 / 94 / 95",
        ),
    ];
    let rows: Vec<Vec<String>> = metric_rows
        .iter()
        .map(|(name, f, paper)| {
            let mut row = vec![name.to_string()];
            for (_, sessions) in &groups {
                row.push(format!("{:.1}", f(sessions)));
            }
            row.push(paper.to_string());
            row
        })
        .collect();
    out.table(&["Metric", "Dec 10", "Dec 11-12", "Dec 13", "paper"], &rows);
    let u = &report.daily_unique_paths;
    if u.len() >= 13 {
        let festival = (u[10] + u[11]) as f64 / 2.0;
        let around = (u[9] + u[12]) as f64 / 2.0;
        out.note(format!(
            "Unique overlay paths: festival {festival:.0}/day vs neighbors {around:.0}/day \
             (+{:.0}%; paper: +20%)",
            100.0 * (festival / around.max(1.0) - 1.0)
        ));
    }
}

/// Telemetry appendix — render the fleet's merged metric snapshot as a
/// per-stage latency attribution table plus the counter and gauge sets.
pub(crate) fn telemetry(report: &FleetReport, out: &mut Report) {
    let snap = &report.telemetry;
    let mut rows = Vec::new();
    for (name, h) in &snap.hists {
        rows.push(vec![
            name.clone(),
            format!("{}", h.count),
            h.mean().map_or("-".into(), |v| format!("{v:.1}")),
            h.approx_quantile(0.5).map_or("-".into(), |v| format!("{v:.1}")),
            h.approx_quantile(0.9).map_or("-".into(), |v| format!("{v:.1}")),
            h.approx_quantile(0.99).map_or("-".into(), |v| format!("{v:.1}")),
            h.max().map_or("-".into(), |v| format!("{v:.1}")),
        ]);
    }
    out.table(
        &["histogram", "n", "mean", "~p50", "~p90", "~p99", "max"],
        &rows,
    );
    let counter_rows: Vec<Vec<String>> = snap
        .counters
        .iter()
        .map(|(name, v)| vec![name.clone(), format!("{v}")])
        .collect();
    out.table(&["counter", "value"], &counter_rows);
    let gauge_rows: Vec<Vec<String>> = snap
        .gauges
        .iter()
        .map(|(name, v)| vec![name.clone(), format!("{v:.1}")])
        .collect();
    out.table(&["gauge", "value"], &gauge_rows);
    out.note(
        "Quantiles are upper bucket bounds of the fixed-bucket histograms \
         (exact merge across shards; see DESIGN.md §9).",
    );
}
