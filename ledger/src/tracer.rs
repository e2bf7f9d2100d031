//! The ledger's own span recorder. Spans are taken around the calls
//! into each layer's public functions, kept in memory, and written as a
//! Chrome trace-event file when the run ends. In-program
//! `spores-telemetry` stays off.

use crate::json::J;
use std::time::Instant;

pub type SpanId = usize;

/// One call into a layer: name, start, end, the span that caused it, and
/// the `workload/rep/statement` id shared by the spans of one compile.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: String,
    pub parent: Option<SpanId>,
    pub tid: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub args: Vec<(&'static str, J)>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open a span on the calling (main) thread; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, id: &str) -> SpanId {
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent,
            tid: 0,
            start_us: now,
            end_us: now,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in milliseconds.
    pub fn close(&mut self, span: SpanId) -> f64 {
        let now = self.us(Instant::now());
        self.spans[span].end_us = now;
        self.spans[span].dur_us() / 1e3
    }

    /// Time `f` as a child span of `parent`; returns its result and the
    /// span's duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, Some(parent), id);
        let out = f();
        let ms = self.close(span);
        (out, ms)
    }

    /// Record a span another thread timed (the service's clients).
    pub fn record(
        &mut self,
        name: &'static str,
        id: String,
        tid: u64,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, J)>,
    ) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name,
            id,
            parent: None,
            tid,
            start_us,
            end_us,
            args,
        });
    }

    pub fn arg(&mut self, span: SpanId, key: &'static str, value: J) {
        self.spans[span].args.push((key, value));
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_us(&self, span: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(Span::dur_us)
            .sum();
        self.spans[span].dur_us() - children
    }

    /// Over all spans named `name`: the share of their time that their
    /// child spans account for.
    pub fn coverage(&self, name: &str) -> f64 {
        let (mut total, mut own) = (0.0, 0.0);
        for (ix, span) in self.spans.iter().enumerate() {
            if span.name == name {
                total += span.dur_us();
                own += self.self_us(ix);
            }
        }
        if total > 0.0 {
            1.0 - own / total
        } else {
            0.0
        }
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, in
    /// start order per thread, carrying the span's index, its parent's
    /// index and its id as arguments.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        // parents before their children when both start in one microsecond
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            sa.start_us
                .total_cmp(&sb.start_us)
                .then(sb.end_us.total_cmp(&sa.end_us))
                .then(a.cmp(&b))
        });
        let events = order
            .into_iter()
            .map(|ix| {
                let span = &self.spans[ix];
                let mut args = vec![
                    ("span".to_string(), J::from(ix)),
                    ("parent".to_string(), span.parent.map_or(J::Null, J::from)),
                    ("id".to_string(), J::str(&span.id)),
                ];
                args.extend(span.args.iter().map(|(k, v)| (k.to_string(), v.clone())));
                J::obj([
                    ("name", J::str(span.name)),
                    ("cat", J::str("ledger")),
                    ("ph", J::str("X")),
                    ("ts", J::Num(span.start_us)),
                    ("dur", J::Num(span.dur_us())),
                    ("pid", J::Num(1.0)),
                    ("tid", J::from(span.tid)),
                    ("args", J::Obj(args)),
                ])
            })
            .collect();
        J::obj([
            ("traceEvents", J::Arr(events)),
            ("otherData", J::obj([("workload", J::str(workload))])),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spores_telemetry::validate_chrome_trace;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        let root = t.open("compile", None, "w/0/s");
        let (_, a) = t.time("translate", root, "w/0/s", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let (_, b) = t.time("saturate", root, "w/0/s", || {
            std::thread::sleep(std::time::Duration::from_millis(3));
        });
        let total = t.close(root);
        assert!(a >= 2.0 && b >= 3.0 && total >= a + b);
        let own = t.self_us(root) / 1e3;
        assert!((own - (total - a - b)).abs() < 1e-6);
        let cov = t.coverage("compile");
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
        assert_eq!(t.coverage("missing"), 0.0);
    }

    #[test]
    fn trace_file_passes_the_telemetry_schema_check() {
        let mut t = Tracer::new();
        let root = t.open("rep", None, "w/0");
        let child = t.open("compile", Some(root), "w/0/p");
        t.arg(child, "e_nodes", J::from(7usize));
        t.close(child);
        t.close(root);
        let (start, end) = (Instant::now(), Instant::now());
        t.record(
            "service.request",
            "w/c1/0".into(),
            1,
            start,
            end,
            vec![("source", J::str("hit"))],
        );
        let text = t.chrome_trace("w");
        let check = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.events, 3);
        assert_eq!(check.spans("compile"), 1);
        assert_eq!(check.spans("service.request"), 1);
    }
}
