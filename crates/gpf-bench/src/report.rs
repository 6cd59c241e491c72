//! Plain-text experiment reports (aligned columns, stdout-friendly), the
//! claims each one checks against the paper, and the verdict those claims
//! roll up to.

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
    /// The paper's claims about this artifact, each held against the
    /// numbers in `rows`.
    pub claims: Vec<Claim>,
    /// Free-form notes (calibration, paper cross-reference); never a
    /// verdict, which `claims` decide.
    pub notes: Vec<String>,
}

/// One statement of the paper, with its value, ours, and whether ours
/// reproduces it.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What the paper says, in a few words.
    pub text: String,
    /// The paper's value or bound, as printed.
    pub paper: String,
    /// Our value, as printed.
    pub ours: String,
    /// Whether ours reproduces the paper's.
    pub holds: bool,
}

/// A number the paper states, and how a measured value is held against it.
/// The threshold is always the paper's own number.
#[derive(Debug, Clone, Copy)]
pub enum Paper {
    /// A lower bound ("> 50%"): holds when ours is at least this.
    AtLeast(f64),
    /// An upper bound ("<= 4.6%"): holds when ours is at most this.
    AtMost(f64),
    /// A factor or a value the paper reports rather than bounds ("~3x",
    /// "7.3x", "28%"): holds when ours lies within a factor of two of it,
    /// either way.
    About(f64),
}

impl Paper {
    /// Whether `ours` reproduces this paper number.
    pub fn holds(self, ours: f64) -> bool {
        match self {
            Paper::AtLeast(p) => ours >= p,
            Paper::AtMost(p) => ours <= p,
            Paper::About(p) => ours >= p / 2.0 && ours <= p * 2.0,
        }
    }

    fn show(self, unit: &str) -> String {
        match self {
            Paper::AtLeast(p) => format!(">= {p}{unit}"),
            Paper::AtMost(p) => format!("<= {p}{unit}"),
            Paper::About(p) => format!("~{p}{unit}"),
        }
    }
}

/// Whether `values` fall strictly, in order: the paper's orderings ("FASTQ
/// compresses best, bundles worst") admit no tie.
pub fn descending(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] > w[1])
}

/// What `held` claims out of `total` add up to: "reproduced" when all
/// hold, "partially reproduced" when some do, "not reproduced" when none do.
pub fn verdict(held: usize, total: usize) -> &'static str {
    if held == total {
        "reproduced"
    } else if held > 0 {
        "partially reproduced"
    } else {
        "not reproduced"
    }
}

impl ExperimentReport {
    /// Create an empty report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            claims: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a claim held against a paper number; both sides print with
    /// `unit` ("%", "x"), ours to three significant digits.
    pub fn claim(&mut self, text: impl Into<String>, paper: Paper, ours: f64, unit: &str) {
        self.claims.push(Claim {
            text: text.into(),
            paper: paper.show(unit),
            ours: format!("{}{unit}", sig3(ours)),
            holds: paper.holds(ours),
        });
    }

    /// Append an ordering claim (who wins, what grows), decided by the
    /// caller from the report's rows.
    pub fn claim_order(
        &mut self,
        text: impl Into<String>,
        paper: impl Into<String>,
        ours: impl Into<String>,
        holds: bool,
    ) {
        self.claims.push(Claim {
            text: text.into(),
            paper: paper.into(),
            ours: ours.into(),
            holds,
        });
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// The verdict this report's claims roll up to.
    pub fn verdict(&self) -> &'static str {
        verdict(self.claims.iter().filter(|c| c.holds).count(), self.claims.len())
    }

    /// The paper artifact's name ("Table 4", "Figure 11a").
    pub fn artifact(&self) -> String {
        match (self.id.strip_prefix("table"), self.id.strip_prefix("fig")) {
            (Some(n), _) => format!("Table {n}"),
            (_, Some(n)) => format!("Figure {n}"),
            _ => self.id.clone(),
        }
    }

    /// Render with aligned columns, then the claims and the verdict.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        out.push_str(&render_table(&self.headers, &self.rows));
        if !self.claims.is_empty() {
            let headers = ["claim", "paper", "ours", "holds"].map(String::from);
            let rows: Vec<Vec<String>> = self
                .claims
                .iter()
                .map(|c| {
                    let holds = if c.holds { "yes" } else { "no" };
                    vec![c.text.clone(), c.paper.clone(), c.ours.clone(), holds.to_string()]
                })
                .collect();
            out.push_str(&render_table(&headers, &rows));
            let held = self.claims.iter().filter(|c| c.holds).count();
            out.push_str(&format!(
                "verdict: {} ({held} of {} claims hold)\n",
                self.verdict(),
                self.claims.len()
            ));
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

fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = fmt_row(headers);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// The Summary: one markdown row per artifact with its verdict. Each
/// report's own claim rows say which claims hold; the Summary names only
/// the verdict, so a claim that moves without changing it changes nothing
/// here. EXPERIMENTS.md's Summary is this text.
pub fn summary(reports: &[ExperimentReport]) -> String {
    let mut out = String::from("| artifact | verdict |\n|---|---|\n");
    for r in reports {
        out.push_str(&format!("| {} | {} |\n", r.artifact(), r.verdict()));
    }
    out
}

/// `x` to three significant digits ("0.0432", "0.300", "12.3", "123"); a
/// whole number, or one of four or more integer digits, prints whole.
pub fn sig3(x: f64) -> String {
    if x.fract() == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (2 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
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
        r.note("calibrated");
        r.claim("a grows", Paper::AtLeast(2.0), 3.5, "x");
        let s = r.render();
        assert!(s.contains("demo"));
        assert!(s.contains("calibrated"));
        assert!(s.contains("a grows  >= 2x  3.50x    yes"), "{s}");
        assert!(s.contains("verdict: reproduced (1 of 1 claims hold)"), "{s}");
        assert!(s.lines().count() >= 9);
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

    #[test]
    fn seconds_print_three_significant_digits() {
        assert_eq!(sig3(0.0432), "0.0432");
        assert_eq!(sig3(0.3), "0.300");
        assert_eq!(sig3(0.00123456), "0.00123");
        assert_eq!(sig3(12.345), "12.3");
        assert_eq!(sig3(123.4), "123");
        assert_eq!(sig3(4567.8), "4568");
        assert_eq!(sig3(0.0), "0");
        assert_eq!(sig3(9.0), "9");
    }

    #[test]
    fn bounds_hold_at_and_past_the_paper_number_only() {
        let lower = Paper::AtLeast(50.0);
        assert!(lower.holds(50.0));
        assert!(lower.holds(50.01));
        assert!(!lower.holds(49.99));
        let upper = Paper::AtMost(4.6);
        assert!(upper.holds(4.6));
        assert!(upper.holds(4.59));
        assert!(!upper.holds(4.61));
        assert_eq!(lower.show("%"), ">= 50%");
        assert_eq!(upper.show("%"), "<= 4.6%");
    }

    #[test]
    fn approximate_factors_hold_within_a_factor_of_two_either_way() {
        let about = Paper::About(3.0);
        for ours in [1.5, 2.0, 3.0, 4.5, 6.0] {
            assert!(about.holds(ours), "{ours}");
        }
        for ours in [1.49, 6.01, 0.0, 20.0] {
            assert!(!about.holds(ours), "{ours}");
        }
        assert!(!about.holds(f64::NAN));
        assert_eq!(about.show("x"), "~3x");
    }

    #[test]
    fn orderings_are_strict() {
        assert!(descending(&[2.56, 2.32, 2.26]));
        assert!(descending(&[1.0]));
        assert!(!descending(&[2.56, 2.56, 2.26]));
        assert!(!descending(&[2.26, 2.32]));
        assert!(!descending(&[3.0, f64::NAN]));
    }

    #[test]
    fn verdicts_roll_up_all_some_none() {
        assert_eq!(verdict(3, 3), "reproduced");
        assert_eq!(verdict(1, 3), "partially reproduced");
        assert_eq!(verdict(2, 3), "partially reproduced");
        assert_eq!(verdict(0, 3), "not reproduced");
        let mut r = ExperimentReport::new("fig12", "demo", &["a"]);
        r.claim("bound", Paper::AtMost(4.6), 16.1, "%");
        assert_eq!(r.verdict(), "not reproduced");
        r.claim("bound", Paper::AtMost(4.6), 0.17, "%");
        assert_eq!(r.verdict(), "partially reproduced");
        let mut table = ExperimentReport::new("table3", "demo", &["a"]);
        table.claim_order("dilution", "1.80x > 1.58x", "2.56x > 2.32x", true);
        assert_eq!(table.verdict(), "reproduced");
        assert_eq!(
            summary(&[r, table]),
            "| artifact | verdict |\n|---|---|\n\
             | Figure 12 | partially reproduced |\n\
             | Table 3 | reproduced |\n"
        );
    }
}
