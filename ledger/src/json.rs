//! A small JSON writer (the build has no serde). Reading goes through
//! `spores_telemetry::parse_json`.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest digits that round-trip; JSON has
            // no NaN or infinity, and an empty sum's -0.0 is just 0
            J::Num(n) if *n == 0.0 => out.push('0'),
            J::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => escape(out, s),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    escape(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for J {
    fn from(n: f64) -> J {
        J::Num(n)
    }
}

impl From<u64> for J {
    fn from(n: u64) -> J {
        J::Num(n as f64)
    }
}

impl From<usize> for J {
    fn from(n: usize) -> J {
        J::Num(n as f64)
    }
}

impl From<bool> for J {
    fn from(b: bool) -> J {
        J::Bool(b)
    }
}

impl From<&str> for J {
    fn from(s: &str) -> J {
        J::Str(s.to_string())
    }
}

fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use spores_telemetry::parse_json;

    #[test]
    fn renders_compact_and_round_trips() {
        let doc = J::obj([
            ("name", J::str("a \"quoted\"\nline\t\\")),
            ("n", J::from(3usize)),
            ("x", J::Num(1.2034)),
            ("nan", J::Num(f64::NAN)),
            ("ok", J::Bool(true)),
            ("none", J::Null),
            (
                "list",
                J::Arr(vec![J::Num(1.0), J::Arr(vec![]), J::obj::<&str>([])]),
            ),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'));
        assert!(text.contains("\"x\":1.2034"));
        assert!(text.contains("\"nan\":null"));
        assert!(text.contains("\"list\":[1,[],{}]"));
        let back = parse_json(&text).expect("writer output parses");
        assert_eq!(
            back.get("name").and_then(|j| j.as_str()),
            Some("a \"quoted\"\nline\t\\")
        );
        assert_eq!(back.get("n").and_then(|j| j.as_f64()), Some(3.0));
        // the pretty form is the same document
        assert_eq!(parse_json(&doc.pretty()).unwrap(), back);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 0.123_456_789_012_345_68_f64;
        let text = J::Num(x).render();
        assert_eq!(text.parse::<f64>().unwrap(), x);
        assert_eq!(J::from(1_234_567_890_123u64).render(), "1234567890123");
        assert_eq!(J::Num(-0.0).render(), "0");
    }
}
