//! One run's result: a table people read, the contract's last line, and
//! a detail file with quartiles and sample counts for `ledger compare`.

use crate::json::J;
use crate::program::Tally;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};

/// One metric as measured in this run. `value` is what the last line
/// reports; the summary describes the samples behind it (a single
/// sample where the run measures the metric once).
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rows: Vec<Row>,
    pub tally: Tally,
    /// Constants and facts of the run (host cores, counts, notes).
    pub info: Vec<(String, J)>,
}

fn unit_of(name: &str, trace: bool) -> (&'static str, &'static str) {
    let found = if trace {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.name, m.unit))
    } else {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.name, m.unit))
    };
    found.unwrap_or_else(|| panic!("{name} is not in the metric dictionary of this pass"))
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            rows: Vec::new(),
            tally: Tally::default(),
            info: Vec::new(),
        }
    }

    /// A metric reported as the median of its samples.
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        let summary = summarize(samples);
        self.push(name, summary.median, summary);
    }

    /// A metric the run measures once.
    pub fn single(&mut self, name: &str, value: f64) {
        self.push(name, value, summarize(&[value]));
    }

    fn push(&mut self, name: &str, value: f64, summary: Summary) {
        let (name, unit) = unit_of(name, self.trace);
        assert!(
            self.rows.iter().all(|r| r.name != name),
            "{name} reported twice"
        );
        self.rows.push(Row {
            name,
            unit,
            // an empty sum is -0.0; print it as the 0 it is
            value: value + 0.0,
            summary,
        });
    }

    pub fn note(&mut self, key: &str, value: J) {
        self.info.push((key.to_string(), value));
    }

    /// Every metric of the pass is present, once; otherwise the harness
    /// is broken and says so instead of printing a partial result.
    pub fn check_complete(&self) -> Result<(), String> {
        let want: Vec<&str> = if self.trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let missing: Vec<&str> = want
            .into_iter()
            .filter(|n| self.rows.iter().all(|r| r.name != *n))
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("metrics not measured: {}", missing.join(", ")))
        }
    }

    /// Rows in the order of the metric dictionary.
    pub fn sort(&mut self) {
        let rank = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
                .position(|n| n == name)
        };
        self.rows.sort_by_key(|r| rank(r.name));
    }

    pub fn correct(&self) -> bool {
        self.tally.wrong_outputs == 0
    }

    pub fn fail_share(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "ledger {} seed {} ({} s, {} pass)\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "end-to-end" }
        );
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for row in &self.rows {
            let s = &row.summary;
            let spread = if s.n > 1 {
                format!(
                    "  [q1 {:.4}  q3 {:.4}  n {}  spread {:.1}%]",
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread() * 100.0
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<width$}  {:>16.4} {:<7}{spread}\n",
                row.name, row.value, row.unit
            ));
        }
        out.push_str(&format!(
            "  attempted {}  failed {}  fail_share {}  wrong_outputs {}\n",
            self.tally.attempted,
            self.tally.failed,
            self.fail_share(),
            self.tally.wrong_outputs
        ));
        for (k, v) in &self.info {
            out.push_str(&format!("  # {k}: {}\n", v.render()));
        }
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn last_line(&self) -> String {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.name,
                    J::obj([("value", J::Num(r.value)), ("unit", J::str(r.unit))]),
                )
            })
            .collect::<Vec<_>>();
        J::obj([
            ("correct", J::Bool(self.correct())),
            ("attempted", J::from(self.tally.attempted.max(1))),
            ("failed", J::from(self.tally.failed)),
            ("metrics", J::obj(metrics)),
        ])
        .render()
    }

    /// Everything the run knows, for `ledger all` and `ledger compare`.
    pub fn detail(&self) -> J {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.name,
                    J::obj([
                        ("value", J::Num(r.value)),
                        ("unit", J::str(r.unit)),
                        ("median", J::Num(r.summary.median)),
                        ("q1", J::Num(r.summary.q1)),
                        ("q3", J::Num(r.summary.q3)),
                        ("n", J::from(r.summary.n)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        J::obj([
            ("workload", J::str(&self.workload)),
            ("seed", J::from(self.seed)),
            ("seconds", J::Num(self.seconds)),
            ("trace", J::Bool(self.trace)),
            ("correct", J::Bool(self.correct())),
            ("attempted", J::from(self.tally.attempted)),
            ("failed", J::from(self.tally.failed)),
            ("fail_share", J::Num(self.fail_share())),
            ("wrong_outputs", J::from(self.tally.wrong_outputs)),
            ("metrics", J::obj(metrics)),
            ("info", J::Obj(self.info.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spores_telemetry::parse_json;

    #[test]
    fn last_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("als_2k", 1, 12.0, false);
        r.samples("compile_ms", &[300.0, 310.0, 305.0]);
        r.single("peak_rss_mb", 120.5);
        r.tally = Tally {
            attempted: 10,
            failed: 0,
            wrong_outputs: 0,
        };
        let doc = parse_json(&r.last_line()).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("compile_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(305.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert!(r.check_complete().is_err(), "seven metrics are missing");
        assert!(r.table().contains("compile_ms"));
    }

    #[test]
    #[should_panic(expected = "not in the metric dictionary")]
    fn unknown_metric_names_are_refused() {
        Report::new("w", 1, 1.0, true).single("compile_ms", 1.0);
    }

    #[test]
    fn wrong_outputs_make_the_run_incorrect() {
        let mut r = Report::new("w", 1, 1.0, false);
        r.tally.wrong_outputs = 1;
        assert!(!r.correct());
        assert!(r.last_line().contains("\"correct\":false"));
    }
}
