//! Minimal s-expression reader/printer.
//!
//! The e-graph pattern language (`(* ?a (+ ?b ?c))`) and many tests are
//! written as s-expressions; this module is the single parser for them.

use std::fmt;

/// An s-expression: an atom or a parenthesized list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SExp {
    Atom(String),
    List(Vec<SExp>),
}

/// Error from [`parse_sexp`], with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SExpError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for SExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for SExpError {}

impl SExp {
    /// Convenience accessor: the atom's text, if this is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            SExp::Atom(s) => Some(s),
            SExp::List(_) => None,
        }
    }
}

impl fmt::Display for SExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExp::Atom(s) => f.write_str(s),
            SExp::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, SExpError> {
        Err(SExpError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b';' {
                // comment to end of line
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn read(&mut self) -> Result<SExp, SExpError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end of input"),
            Some(b'(') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        None => return self.err("unclosed '('"),
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(SExp::List(items));
                        }
                        Some(_) => items.push(self.read()?),
                    }
                }
            }
            Some(b')') => self.err("unexpected ')'"),
            Some(_) => {
                let start = self.pos;
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b';' {
                        break;
                    }
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| SExpError {
                        message: "invalid utf-8 in atom".into(),
                        offset: start,
                    })?
                    .to_owned();
                Ok(SExp::Atom(text))
            }
        }
    }
}

/// Parse a single s-expression, requiring the whole input be consumed.
pub fn parse_sexp(input: &str) -> Result<SExp, SExpError> {
    let mut r = Reader {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let e = r.read()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return r.err("trailing input after s-expression");
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms() {
        assert_eq!(parse_sexp("x").unwrap(), SExp::Atom("x".into()));
        assert_eq!(parse_sexp("  ?a ").unwrap(), SExp::Atom("?a".into()));
        assert_eq!(parse_sexp("3.5").unwrap(), SExp::Atom("3.5".into()));
    }

    #[test]
    fn nested_lists() {
        let e = parse_sexp("(* ?a (+ ?b ?c))").unwrap();
        assert_eq!(e.to_string(), "(* ?a (+ ?b ?c))");
        let SExp::List(items) = &e else {
            panic!("{e} is not a list")
        };
        assert_eq!(items[0].as_atom(), Some("*"));
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn empty_list() {
        assert_eq!(parse_sexp("()").unwrap(), SExp::List(vec![]));
    }

    #[test]
    fn comments_skipped() {
        let e = parse_sexp("(a ; comment\n b)").unwrap();
        assert_eq!(e.to_string(), "(a b)");
    }

    #[test]
    fn errors() {
        assert!(parse_sexp("").is_err());
        assert!(parse_sexp("(a").is_err());
        assert!(parse_sexp(")").is_err());
        assert!(parse_sexp("a b").is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "(sum i (* (b i j A) (b j k B)))",
            "x",
            "(f)",
            "(f (g (h x)))",
        ] {
            let e = parse_sexp(s).unwrap();
            assert_eq!(parse_sexp(&e.to_string()).unwrap(), e);
        }
    }
}
