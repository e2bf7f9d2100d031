//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/`:
//!
//! * `fig14` — derivability of all hand-coded SystemML rewrites
//! * `fig15` — run time of the 5 programs under base/opt2/saturation
//! * `fig16` — compile-time breakdown per saturation/extraction strategy
//! * `fig17` — performance impact of extraction strategies
//! * `ablation` — sampling-limit sweep, greedy-vs-ILP gap, rule-set
//!   ablations (the design choices behind the optimizer)

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Fixed-width text table writer (the tables the binaries print).
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<w$}");
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Milliseconds with 1 decimal.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Human count (1.2M etc).
pub fn human(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn human_formats() {
        assert_eq!(human(532), "532");
        assert_eq!(human(1_500), "1.5K");
        assert_eq!(human(2_000_000), "2.0M");
    }
}
