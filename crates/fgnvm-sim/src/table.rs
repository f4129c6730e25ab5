//! The one table type, public as [`crate::report::Table`].
//!
//! Every table the CLI prints renders through its four formats (aligned
//! text, markdown, CSV, JSON); JSON strings go through the shared
//! [`fgnvm_obs::json`] escaper.

use std::fmt::Write as _;

use fgnvm_obs::json;

/// Titled, column-aligned tabular data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; every row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
                first = false;
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(self.headers.len()));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as a JSON object: `{"title": ..., "headers": [...],
    /// "rows": [[...], ...]}`. Values are emitted as JSON strings (tables
    /// are presentation-layer; parse numerics downstream if needed).
    pub fn to_json(&self) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| json::quote(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "[{}]",
                    r.iter()
                        .map(|c| json::quote(c))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        format!(
            "{{\"title\":{},\"headers\":[{}],\"rows\":[{}]}}",
            json::quote(&self.title),
            headers.join(","),
            rows.join(",")
        )
    }

    /// Renders as CSV (comma-separated, headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_the_shared_escaper() {
        let mut t = Table::new("Demo \"x\"", &["a"]);
        t.push_row(vec!["v\nw".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"Demo \\\"x\\\"\",\"headers\":[\"a\"],\"rows\":[[\"v\\nw\"]]}"
        );
    }

    #[test]
    fn four_formats_from_one_payload() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert!(t.render().contains("== Demo =="));
        assert!(t.to_markdown().contains("|---|---|"));
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
        assert!(t.to_json().starts_with("{\"title\":\"Demo\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
