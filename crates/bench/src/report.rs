//! Structured experiment output: one builder, one rendering (text).
//!
//! Every experiment assembles a [`Report`] — headings, aligned tables,
//! free-form notes — instead of printing piecemeal. The builder is the
//! single place experiment output touches stdout ([`Report::print`]), which
//! is what lets the library crates deny `clippy::print_stdout` wholesale.

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
pub(crate) struct Report {
    experiment: String,
    paper_ref: String,
    meta: Vec<(String, String)>,
    sections: Vec<Section>,
}

impl Report {
    /// Start a report for one experiment against one paper reference.
    pub(crate) fn new(experiment: impl Into<String>, paper_ref: impl Into<String>) -> Report {
        Report {
            experiment: experiment.into(),
            paper_ref: paper_ref.into(),
            meta: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Start a report and stamp the fleet run's headline meta (session
    /// count, days).
    pub(crate) fn fleet(
        experiment: impl Into<String>,
        paper_ref: impl Into<String>,
        report: &FleetReport,
    ) -> Report {
        let mut r = Report::new(experiment, paper_ref);
        r.meta("sessions_per_system", report.livenet.len().to_string());
        r.meta("days", report.daily_peak_throughput.len().to_string());
        r
    }

    /// Attach a key/value annotation shown in the banner.
    pub(crate) fn meta(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Report {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Start a titled sub-section (`exp all`, the two-level experiments).
    pub(crate) fn heading(&mut self, title: impl Into<String>) -> &mut Report {
        self.sections.push(Section::Heading(title.into()));
        self
    }

    /// Append an aligned table.
    pub(crate) fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) -> &mut Report {
        self.sections.push(Section::Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows.to_vec(),
        });
        self
    }

    /// Append one commentary line.
    pub(crate) fn note(&mut self, text: impl Into<String>) -> &mut Report {
        self.sections.push(Section::Note(text.into()));
        self
    }

    /// Render the whole report to a string exactly as `print` shows it.
    pub(crate) fn to_text(&self) -> String {
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
    pub(crate) fn print(&self) {
        print!("{}", self.to_text());
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
            let pad = widths
                .get(i)
                .copied()
                .unwrap_or(0)
                .saturating_sub(c.chars().count());
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
    fn table_alignment_pads_by_char_count() {
        let text = render_table(&["col".into(), "x".into()], &[vec!["a".into(), "b".into()]]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "col  x");
        assert_eq!(lines[1], "---  -");
        assert_eq!(lines[2], "a    b");
    }
}
