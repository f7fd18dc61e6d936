//! Structured experiment output: one builder, one JSON emitter.
//!
//! Every experiment binary assembles a [`Report`] — headings, aligned tables,
//! free-form notes — instead of printing piecemeal. The builder is the
//! single place bench output touches stdout ([`Report::print`]), which is
//! what lets the library crates deny `clippy::print_stdout` wholesale, and
//! it doubles as the JSON emitter ([`Report::to_json`]) so any experiment
//! can be persisted next to the `BENCH_*.json` artifacts without a second
//! serialization path.

use livenet_sim::FleetReport;

/// One renderable block of an experiment report, kept in emit order.
#[derive(Debug, Clone)]
enum Section {
    /// A sub-experiment divider (`exp all`'s per-figure rules).
    Heading(String),
    /// An aligned table.
    Table {
        headers: Vec<String>,
        rows: Vec<Vec<String>>,
    },
    /// A free-form commentary line (paper comparisons, caveats).
    Note(String),
}

/// Builder for one experiment's complete output.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    paper_ref: String,
    meta: Vec<(String, String)>,
    sections: Vec<Section>,
    /// Attached telemetry snapshot, pre-rendered as JSON.
    telemetry_json: Option<String>,
}

impl Report {
    /// Start a report for one experiment against one paper reference.
    pub fn new(experiment: impl Into<String>, paper_ref: impl Into<String>) -> Report {
        Report {
            experiment: experiment.into(),
            paper_ref: paper_ref.into(),
            meta: Vec::new(),
            sections: Vec::new(),
            telemetry_json: None,
        }
    }

    /// Start a report and stamp the fleet run's headline meta (session
    /// count, days).
    pub fn fleet(
        experiment: impl Into<String>,
        paper_ref: impl Into<String>,
        report: &FleetReport,
    ) -> Report {
        let mut r = Report::new(experiment, paper_ref);
        r.meta("sessions_per_system", report.livenet.len().to_string());
        r.meta("days", report.daily_peak_throughput.len().to_string());
        r
    }

    /// Attach a key/value annotation shown in the banner and the JSON.
    pub fn meta(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Report {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Start a titled sub-section (used by multi-figure binaries).
    pub fn heading(&mut self, title: impl Into<String>) -> &mut Report {
        self.sections.push(Section::Heading(title.into()));
        self
    }

    /// Append an aligned table.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) -> &mut Report {
        self.sections.push(Section::Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows.to_vec(),
        });
        self
    }

    /// Append one commentary line.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Report {
        self.sections.push(Section::Note(text.into()));
        self
    }

    /// Attach a telemetry snapshot. It is embedded verbatim under the
    /// `"telemetry"` key of [`Report::to_json`] (the snapshot's own JSON
    /// form is canonical) and summarized as one line in the text render.
    pub fn telemetry(&mut self, snapshot: &livenet_telemetry::Snapshot) -> &mut Report {
        self.telemetry_json = Some(snapshot.to_json());
        self
    }

    /// Render the whole report to a string exactly as `print` shows it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let rule = "=".repeat(66);
        out.push_str(&rule);
        out.push('\n');
        out.push_str(&format!("LiveNet reproduction — {}\n", self.experiment));
        if !self.paper_ref.is_empty() {
            out.push_str(&format!("Paper reference: {}\n", self.paper_ref));
        }
        for (k, v) in &self.meta {
            out.push_str(&format!("{k}: {v}\n"));
        }
        if self.telemetry_json.is_some() {
            out.push_str("telemetry: attached (see JSON artifact)\n");
        }
        out.push_str(&rule);
        out.push('\n');
        for section in &self.sections {
            match section {
                Section::Heading(t) => {
                    let thin = "─".repeat(66);
                    out.push_str(&format!("\n{thin}\n{t}\n{thin}\n"));
                }
                Section::Table { headers, rows } => {
                    out.push_str(&render_table(headers, rows));
                }
                Section::Note(t) => {
                    out.push_str(t);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Print the report to stdout — the one sanctioned print site in the
    /// bench stack.
    #[allow(clippy::print_stdout)]
    pub fn print(&self) {
        print!("{}", self.to_text());
    }

    /// Serialize the report deterministically as JSON (hand-formatted; the
    /// workspace has no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"experiment\": {},\n",
            json_str(&self.experiment)
        ));
        s.push_str(&format!("  \"paper_ref\": {},\n", json_str(&self.paper_ref)));
        s.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_str(k), json_str(v)));
        }
        if !self.meta.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"sections\": [");
        for (i, section) in self.sections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            match section {
                Section::Heading(t) => {
                    s.push_str(&format!(
                        "{{\"type\": \"heading\", \"text\": {}}}",
                        json_str(t)
                    ));
                }
                Section::Note(t) => {
                    s.push_str(&format!("{{\"type\": \"note\", \"text\": {}}}", json_str(t)));
                }
                Section::Table { headers, rows } => {
                    s.push_str("{\"type\": \"table\", \"headers\": ");
                    s.push_str(&json_str_array(headers));
                    s.push_str(", \"rows\": [");
                    for (j, row) in rows.iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&json_str_array(row));
                    }
                    s.push_str("]}");
                }
            }
        }
        if !self.sections.is_empty() {
            s.push_str("\n  ");
        }
        s.push(']');
        if let Some(telemetry) = &self.telemetry_json {
            s.push_str(",\n  \"telemetry\": ");
            s.push_str(telemetry.trim_end());
        }
        s.push_str("\n}\n");
        s
    }

    /// Write the JSON form to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Render one aligned table.
fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0).saturating_sub(c.chars().count());
            s.push_str(c);
            s.push_str(&" ".repeat(pad + 2));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&rule);
    for row in rows {
        line(row);
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(item));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_tables_and_notes_in_order() {
        let mut r = Report::new("unit test", "§0");
        r.meta("sessions_per_system", "2");
        r.table(&["a", "b"], &[vec!["1".into(), "22".into()]]);
        r.note("done");
        let text = r.to_text();
        assert!(text.contains("LiveNet reproduction — unit test"));
        assert!(text.contains("sessions_per_system: 2"));
        let table_pos = text.find("a  b").unwrap();
        let note_pos = text.find("done").unwrap();
        assert!(table_pos < note_pos);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = Report::new("quote \" test", "");
        r.note("line\nbreak");
        r.table(&["h"], &[vec!["v".into()]]);
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("quote \\\" test"));
        assert!(a.contains("line\\nbreak"));
        assert!(a.contains("\"headers\": [\"h\"]"));
        assert!(a.contains("\"rows\": [[\"v\"]]"));
    }

    #[test]
    fn telemetry_snapshot_embeds_in_json() {
        use livenet_telemetry::{ids, MetricSink, TelemetryHub};
        let mut hub = TelemetryHub::new();
        hub.incr(ids::TRANSPORT_RX_DATAGRAMS);
        let mut r = Report::new("telemetry test", "");
        r.telemetry(&hub.snapshot());
        let json = r.to_json();
        assert!(json.contains("\"telemetry\": "));
        assert!(json.contains("transport.rx_datagrams"));
        assert!(r.to_text().contains("telemetry: attached"));
    }

    #[test]
    fn table_alignment_pads_by_char_count() {
        let text = render_table(
            &["col".into(), "x".into()],
            &[vec!["a".into(), "b".into()]],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "col  x");
        assert_eq!(lines[1], "---  -");
        assert_eq!(lines[2], "a    b");
    }
}
