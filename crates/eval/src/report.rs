//! What an experiment hands back: a [`Report`] — its printed text, its
//! tables with the CSV names their series are saved under, and its gates.
//! Printing and CSV saving happen once, in the runner
//! ([`crate::experiments::run`]); an experiment only says *what* it found.
//!
//! A **gate** is a verdict the run answers for: a sentence and the `bool`
//! it was measured to be. It prints as `"<sentence>: yes."` or
//! `"<sentence>: NO."`, and one `NO` fails the whole run — the runner
//! and tests read `Report::failed` and `scripts/check.sh` the binary's
//! exit status, never the prose. A verdict nothing answers for is an
//! observation: a plain line spelt with the same `yes_no`.

use eff2_metrics::Table;
use std::path::Path;

/// A verdict as reports and table cells spell it.
pub(crate) fn yes_no(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

/// An experiment's findings.
#[derive(Default)]
pub struct Report {
    /// The report as it prints, in the order its pieces were appended.
    pub text: String,
    /// Every table, with the file name its CSV series is saved under.
    pub tables: Vec<(String, Table)>,
    /// Every gate: its sentence and whether it held.
    pub gates: Vec<(String, bool)>,
    /// Named counts behind the prose, for callers that would otherwise
    /// parse them back out of a sentence.
    pub values: Vec<(&'static str, u64)>,
}

impl Report {
    /// Appends a printed table whose series is saved as `csv`.
    pub(crate) fn table(&mut self, csv: &str, table: Table) -> &mut Self {
        self.text += &table.render();
        self.csv_only(csv, table)
    }

    /// Appends a table that is saved as `csv` but not printed.
    pub(crate) fn csv_only(&mut self, csv: &str, table: Table) -> &mut Self {
        self.tables.push((csv.to_string(), table));
        self
    }

    /// Appends a line of prose (empty: a blank line).
    pub(crate) fn line(&mut self, text: &str) -> &mut Self {
        self.text += text;
        self.text.push('\n');
        self
    }

    /// Appends a gate: `sentence` must hold or the run fails.
    pub(crate) fn gate(&mut self, sentence: &str, ok: bool) -> &mut Self {
        self.gate_with(sentence, ok, "")
    }

    /// A [`gate`](Self::gate) printed with the figures behind it (`detail`)
    /// after the verdict.
    pub(crate) fn gate_with(&mut self, sentence: &str, ok: bool, detail: &str) -> &mut Self {
        self.gates.push((sentence.to_string(), ok));
        self.line(&format!("{sentence}: {}{detail}.", yes_no(ok)))
    }

    /// The sentences of the gates that did not hold.
    pub(crate) fn failed(&self) -> Vec<&str> {
        let failed = self.gates.iter().filter(|(_, ok)| !ok);
        failed.map(|(sentence, _)| sentence.as_str()).collect()
    }

    /// Writes every table's series into `dir` under its CSV name.
    pub(crate) fn save_csvs(&self, dir: &Path) -> std::io::Result<()> {
        for (csv, table) in &self.tables {
            table.save_csv(&dir.join(csv))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_gate_renders_no_and_is_reported() {
        let mut report = Report::default();
        report
            .gate("Answers unchanged", true)
            .gate_with("Loss masked", false, " (3 of 8 degraded)")
            .line(&format!("Locality won: {}.", yes_no(false)));
        assert_eq!(
            report.text,
            "Answers unchanged: yes.\nLoss masked: NO (3 of 8 degraded).\nLocality won: NO.\n"
        );
        // An observation is spelt the same way but is nobody's gate.
        assert_eq!(report.gates.len(), 2);
        assert_eq!(report.failed(), vec!["Loss masked"]);
    }

    #[test]
    fn tables_print_in_order_and_save_under_their_csv_names() {
        let mut shown = Table::new("Shown", &["k", "v"]);
        shown.row(vec!["a".into(), "1".into()]);
        let mut report = Report::default();
        report
            .table("shown.csv", shown)
            .line("")
            .csv_only("hidden.csv", Table::new("Hidden", &["x"]))
            .line("prose");
        assert!(report.text.starts_with("Shown\n") && report.text.ends_with("\n\nprose\n"));
        assert!(!report.text.contains("Hidden"));
        assert!(report.failed().is_empty());
        assert_eq!(report.tables[0].1.cell(&["a"], "v"), Some("1"));

        let dir = std::env::temp_dir().join("eff2_report_csvs");
        std::fs::create_dir_all(&dir).expect("mkdir");
        report.save_csvs(&dir).expect("save");
        assert!(dir.join("shown.csv").exists() && dir.join("hidden.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
