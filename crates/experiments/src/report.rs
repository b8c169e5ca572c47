//! Tabular output shared by every experiment: ASCII rendering for the
//! terminal and CSV for plotting.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A generic table of results (one per paper table/figure panel).
#[derive(Debug, Clone, PartialEq)]
pub struct DataTable {
    /// Title, e.g. `"Figure 3(a): total incentive vs. population profile"`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, already formatted as strings.
    pub rows: Vec<Vec<String>>,
}

impl DataTable {
    /// Creates an empty table with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        DataTable {
            title: title.to_string(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length differs from the number of columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned ASCII for the terminal.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-ish; cells containing commas or
    /// quotes are quoted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    /// Returns any I/O error from creating directories or writing the file.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float the way the paper's tables do (two decimals).
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float in scientific-ish style used for large Grid-Dollar /
/// simulation-unit quantities (e.g. `2.30e9`).
#[must_use]
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DataTable {
        let mut t = DataTable::new("Test table", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1.00".into()]);
        t.push_row(vec!["beta, the second".into(), "2.50".into()]);
        t
    }

    #[test]
    fn ascii_is_aligned_and_complete() {
        let text = table().to_ascii();
        assert!(text.contains("Test table"));
        assert!(text.contains("| alpha"));
        assert!(text.contains("beta, the second"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = table().to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("\"beta, the second\",2.50"));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("grid-experiments-test");
        let path = dir.join("nested/out.csv");
        table().write_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, table().to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "cells but the table has")]
    fn mismatched_row_panics() {
        let mut t = DataTable::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(2.3e9), "2.300e9");
        assert!(!table().is_empty());
        assert_eq!(table().len(), 2);
    }
}
