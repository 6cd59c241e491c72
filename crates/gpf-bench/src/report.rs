//! Plain-text experiment reports (aligned columns, stdout-friendly).

/// One experiment's tabular result.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id ("table4", "fig11a", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape conclusions, paper cross-reference).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Create an empty report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("  * ");
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// Print to stdout (through the trace sink's console, like all
    /// library-side output).
    pub fn print(&self) {
        gpf_trace::sink::console_out(&self.render());
    }
}

/// Format a byte count with a binary unit.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = ExperimentReport::new("t", "demo", &["a", "column"]);
        r.row(vec!["1".into(), "x".into()]);
        r.row(vec!["222".into(), "yyyy".into()]);
        r.note("shape holds");
        let s = r.render();
        assert!(s.contains("demo"));
        assert!(s.contains("shape holds"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut r = ExperimentReport::new("t", "demo", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512.0 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(3 << 30), "3.0 GiB");
    }
}
