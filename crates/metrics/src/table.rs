//! Aligned text tables and CSV output for the experiment harness.

use std::io::Write;
use std::path::Path;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cell under `column` in the first row whose leading cells are
    /// `key`.
    pub fn cell(&self, key: &[&str], column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let mut rows = self.rows.iter();
        let row = rows.find(|row| row.iter().zip(key).all(|(cell, k)| cell == k))?;
        row.get(col).map(String::as_str)
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV at `path`.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        write_csv(
            path,
            &self.headers.iter().map(String::as_str).collect::<Vec<_>>(),
            self.rows.iter().map(|r| r.as_slice()),
        )
    }
}

/// Writes rows of string cells as a CSV file (quoting cells containing
/// commas or quotes).
pub(crate) fn write_csv<'a, R>(path: &Path, headers: &[&str], rows: R) -> std::io::Result<()>
where
    R: IntoIterator<Item = &'a [String]>,
{
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            f,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    f.flush()
}

fn quote(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "count"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows share the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert!(lines[4].contains("long-name"));
        assert_eq!(t.cell(&["long-name"], "count"), Some("12345"));
        assert_eq!(t.cell(&["missing"], "count"), None);
        assert_eq!(t.cell(&["a"], "no such column"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip_with_quoting() {
        let path = std::env::temp_dir().join("eff2_table_test.csv");
        let mut t = Table::new("t", &["k", "v"]);
        t.row(vec!["plain".into(), "a,b".into()]);
        t.row(vec!["quoted\"q".into(), "x".into()]);
        t.save_csv(&path).expect("save");
        let body = std::fs::read_to_string(&path).expect("read");
        assert!(body.contains("\"a,b\""));
        assert!(body.contains("\"quoted\"\"q\""));
        assert_eq!(body.lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("", &["h1", "h2"]);
        assert!(t.is_empty());
        let s = t.render();
        assert!(s.contains("h1"));
        assert_eq!(s.lines().count(), 2); // header + rule
    }
}
