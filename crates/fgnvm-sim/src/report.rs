//! Rendering for experiment results: the [`Table`] every study prints and
//! the number formats and means its cells use.

/// Every table the CLI prints, in aligned text, markdown, CSV or JSON.
///
/// ```
/// use fgnvm_sim::Table;
///
/// let mut table = Table::new("Speedups", &["design", "speedup"]);
/// table.push_row(vec!["FgNVM 8x2".into(), "1.14x".into()]);
/// assert!(table.render().contains("FgNVM 8x2"));
/// assert!(table.to_csv().starts_with("design,speedup"));
/// assert!(table.to_markdown().contains("|---|---|"));
/// ```
pub use crate::table::Table;

/// Formats a ratio as `1.83x`.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as `0.63`.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Geometric mean of a non-empty slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["a".into(), "1.00".into()]);
        t.push_row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn json_output_escapes() {
        let mut t = Table::new("Demo \"x\"", &["a"]);
        t.push_row(vec!["v\nw".into()]);
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"title\":\"Demo \\\"x\\\"\",\"headers\":[\"a\"],\"rows\":[[\"v\\nw\"]]}"
        );
    }

    #[test]
    fn markdown_output() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn means() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_speedup(1.834), "1.83x");
        assert_eq!(fmt_ratio(0.6349), "0.635");
    }
}
