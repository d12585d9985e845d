//! Plain-text table rendering for the figure and table reports.

use std::fmt;

use tls_sim::json;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (printed above the header).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; ragged rows are padded with empty cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render the table as a JSON object
    /// (`{"title": …, "headers": […], "rows": [[…], …]}`) for the
    /// `repro --out` flag.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("title", &self.title)
                .strs("headers", &self.headers)
                .arr("rows", |w| {
                    for row in &self.rows {
                        w.item_strs(row);
                    }
                });
        })
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, width) in w.iter().enumerate() {
                let empty = String::new();
                let c = cells.get(i).unwrap_or(&empty);
                if i == 0 {
                    write!(f, "{c:<width$}")?;
                } else {
                    write!(f, "  {c:>width$}")?;
                }
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a float with two decimals (bars, speedups).
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float as a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["bench", "U", "C"]);
        t.row(vec!["parser".into(), "100.00".into(), "47.00".into()]);
        t.row(vec!["go".into(), "90.10".into(), "80.25".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="), "{s}");
        assert!(s.contains("parser"), "{s}");
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows (after the title line).
        assert_eq!(lines.len(), 5);
        // Columns align: the "U" header column ends where values end.
        assert!(lines[3].contains("47.00"));
    }

    #[test]
    fn helpers_format_numbers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.371), "37.1%");
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut t = Table::new("demo \"x\"", &["bench", "U"]);
        t.row(vec!["go".into(), "1.00".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"demo \\\"x\\\"\",\"headers\":[\"bench\",\"U\"],\
             \"rows\":[[\"go\",\"1.00\"]]}"
        );
    }
}
