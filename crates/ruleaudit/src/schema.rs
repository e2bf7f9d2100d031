//! Abstract schema typing of rewrite patterns (§3.2's class invariant,
//! statically).
//!
//! The runtime analysis (`spores_core::analysis`) computes a *concrete*
//! schema per e-class. A rewrite pattern has no concrete schema — `?a`
//! can match anything — so this pass interprets patterns over an
//! *abstract* schema algebra instead:
//!
//! * the schema of a pattern variable `?a` is the symbolic atom
//!   `Attr(?a)`;
//! * `(b ?i ?j ?x)` contributes the bound index atoms `{?i, ?j}`;
//! * `+` / `*` (and every point-wise operator) union the operand
//!   schemas;
//! * `(sum ?i e)` subtracts `?i`: an index atom equal to `?i` is
//!   removed outright, any other atom records `?i` in its subtraction
//!   set (whether `?i` actually occurs in `Attr(?a)` is unknowable
//!   statically — that is exactly what the side conditions decide).
//!
//! A rule is schema-sound when the lhs and rhs normal forms are equal.
//! When they differ, the pass searches for a set of *hypotheses* —
//! `?i ∉ Attr(?a)` (erase `?i` from `?a`'s subtraction sets) or
//! `Attr(?b) ⊆ Attr(?a)` (absorb `?b`'s atom into `?a`'s) — that makes
//! them equal, and then checks the rule *declares* each needed
//! hypothesis as a [`ConditionMeta`]. Needed-but-undeclared hypotheses
//! are violations; no fixing hypothesis set at all is a hard mismatch
//! (e.g. a Σ-bound index escaping its binder on the rhs).

use spores_core::lang::Math;
use spores_core::rules::MathRewrite;
use spores_egraph::{ConditionMeta, ENodeOrVar, Id, Language, RecExpr, Var};
use spores_ir::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// An index occurrence in a pattern: a pattern variable (`?i`) or a
/// concrete index symbol (`i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexRef {
    Var(Var),
    Sym(Symbol),
}

impl fmt::Display for IndexRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexRef::Var(v) => write!(f, "{v}"),
            IndexRef::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// A leaf whose attribute set is symbolic: a pattern variable or a
/// concrete (matrix) symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeafRef {
    Var(Var),
    Sym(Symbol),
}

impl fmt::Display for LeafRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeafRef::Var(v) => write!(f, "Attr({v})"),
            LeafRef::Sym(s) => write!(f, "Attr({s})"),
        }
    }
}

/// One contribution to an abstract schema: a base attribute set minus a
/// set of Σ-subtracted indices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Atom {
    base: Base,
    minus: BTreeSet<IndexRef>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Base {
    Leaf(LeafRef),
    Index(IndexRef),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            Base::Leaf(l) => write!(f, "{l}")?,
            Base::Index(i) => write!(f, "{{{i}}}")?,
        }
        for m in &self.minus {
            write!(f, "∖{m}")?;
        }
        Ok(())
    }
}

/// An abstract schema: a union of `Atom`s in normal form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AbsSchema {
    atoms: BTreeSet<Atom>,
}

impl fmt::Display for AbsSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "∅");
        }
        for (k, a) in self.atoms.iter().enumerate() {
            if k > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl AbsSchema {
    fn union(mut self, other: AbsSchema) -> AbsSchema {
        self.atoms.extend(other.atoms);
        self
    }

    fn subtract(self, idx: IndexRef) -> AbsSchema {
        let mut out = BTreeSet::new();
        for mut atom in self.atoms {
            // subtracting the atom's own index removes it entirely;
            // anything else goes in the subtraction set
            if atom.base == Base::Index(idx) {
                continue;
            }
            atom.minus.insert(idx);
            out.insert(atom);
        }
        AbsSchema { atoms: out }
    }

    fn leaf(l: LeafRef) -> AbsSchema {
        AbsSchema {
            atoms: BTreeSet::from([Atom {
                base: Base::Leaf(l),
                minus: BTreeSet::new(),
            }]),
        }
    }

    fn empty() -> AbsSchema {
        AbsSchema::default()
    }

    /// Leaves occurring as atom bases.
    fn leaves(&self) -> BTreeSet<LeafRef> {
        self.atoms
            .iter()
            .filter_map(|a| match a.base {
                Base::Leaf(l) => Some(l),
                Base::Index(_) => None,
            })
            .collect()
    }

    /// Apply a hypothesis (monotone erasure; application order never
    /// matters).
    fn apply(&self, h: &Hypothesis) -> AbsSchema {
        let mut atoms: BTreeSet<Atom> = match h {
            Hypothesis::IndexFree { index, of } => self
                .atoms
                .iter()
                .cloned()
                .map(|mut a| {
                    if a.base == Base::Leaf(*of) {
                        a.minus.remove(index);
                    }
                    a
                })
                .collect(),
            Hypothesis::Absorbed { sub, sup } => {
                let mut out = BTreeSet::new();
                for a in &self.atoms {
                    let absorbed = a.base == Base::Leaf(*sub)
                        && self
                            .atoms
                            .iter()
                            .any(|k| k.base == Base::Leaf(*sup) && k.minus.is_subset(&a.minus));
                    if !absorbed {
                        out.insert(a.clone());
                    }
                }
                out
            }
        };
        AbsSchema {
            atoms: std::mem::take(&mut atoms),
        }
    }
}

/// A schema hypothesis the algebra may need to equate the two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Hypothesis {
    /// `index ∉ Attr(of)`.
    IndexFree { index: IndexRef, of: LeafRef },
    /// `Attr(sub) ⊆ Attr(sup)` (the schema half of the zero-absorption
    /// guard; the value half is an `IsZero` declaration).
    Absorbed { sub: LeafRef, sup: LeafRef },
}

impl fmt::Display for Hypothesis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hypothesis::IndexFree { index, of } => write!(f, "{index} ∉ {of}"),
            Hypothesis::Absorbed { sub, sup } => write!(f, "{sub} ⊆ {sup}"),
        }
    }
}

/// Outcome of the schema pass for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaVerdict {
    /// Lhs and rhs schemas are unconditionally equal.
    Equal,
    /// Equal under these hypotheses, every one of which the rule
    /// declares as a [`ConditionMeta`].
    EqualUnderConditions(Vec<Hypothesis>),
    /// Equal under `needed`, but `missing` of them are not declared on
    /// the rule. A violation: the rule would merge classes with
    /// different schemas whenever the undeclared hypothesis fails.
    Undeclared {
        needed: Vec<Hypothesis>,
        missing: Vec<Hypothesis>,
    },
    /// No hypothesis set in the vocabulary equates the sides (e.g. a
    /// Σ-bound index escaping its binder). A violation.
    Mismatch { lhs: String, rhs: String },
    /// The pass cannot type this rule (dynamic applier, opaque
    /// condition, LA-structural operators, or an index/value role
    /// conflict reported separately). A warning, not a violation.
    NotAnalyzable(String),
}

/// The role a pattern variable plays, inferred from position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Index,
    Value,
}

struct Interp<'a> {
    nodes: &'a [ENodeOrVar<Math>],
    roles: Vec<(Var, Role)>,
    conflict: Option<Var>,
}

impl<'a> Interp<'a> {
    fn new(ast: &'a RecExpr<ENodeOrVar<Math>>) -> Self {
        Interp {
            nodes: ast.nodes(),
            roles: Vec::new(),
            conflict: None,
        }
    }

    fn note_role(&mut self, v: Var, role: Role) {
        match self.roles.iter().find(|(w, _)| *w == v) {
            Some((_, r)) if *r != role => self.conflict = Some(v),
            Some(_) => {}
            None => self.roles.push((v, role)),
        }
    }

    /// Read an index-position child: `?i`, a concrete index symbol, or
    /// `_` (None).
    fn index_ref(&mut self, id: Id) -> Result<Option<IndexRef>, String> {
        match &self.nodes[id.index()] {
            ENodeOrVar::Var(v) => {
                self.note_role(*v, Role::Index);
                Ok(Some(IndexRef::Var(*v)))
            }
            ENodeOrVar::ENode(Math::Sym(s)) => Ok(Some(IndexRef::Sym(*s))),
            ENodeOrVar::ENode(Math::NoIdx) => Ok(None),
            ENodeOrVar::ENode(n) => Err(format!(
                "expected an index in index position, found `{}`",
                n.op_display()
            )),
        }
    }

    fn eval(&mut self, id: Id) -> Result<AbsSchema, String> {
        let node = self.nodes[id.index()].clone();
        match node {
            ENodeOrVar::Var(v) => {
                self.note_role(v, Role::Value);
                Ok(AbsSchema::leaf(LeafRef::Var(v)))
            }
            ENodeOrVar::ENode(n) => match n {
                Math::Lit(_) => Ok(AbsSchema::empty()),
                Math::Sym(s) => Ok(AbsSchema::leaf(LeafRef::Sym(s))),
                Math::NoIdx => Err("`_` outside an index position".to_owned()),
                // point-wise binary operators union the operand schemas
                Math::Add([a, b])
                | Math::Mul([a, b])
                | Math::LAdd([a, b])
                | Math::LSub([a, b])
                | Math::LMul([a, b])
                | Math::LDiv([a, b])
                | Math::Pow([a, b])
                | Math::Gt([a, b])
                | Math::Lt([a, b])
                | Math::Ge([a, b])
                | Math::Le([a, b])
                | Math::BMin([a, b])
                | Math::BMax([a, b]) => Ok(self.eval(a)?.union(self.eval(b)?)),
                // point-wise unary operators preserve the schema
                Math::Inv(a)
                | Math::Exp(a)
                | Math::Log(a)
                | Math::Sqrt(a)
                | Math::Abs(a)
                | Math::Sign(a)
                | Math::Sigmoid(a)
                | Math::Sprop(a) => self.eval(a),
                Math::Agg([i, body]) => {
                    let idx = self.index_ref(i)?.ok_or_else(|| "Σ over `_`".to_owned())?;
                    Ok(self.eval(body)?.subtract(idx))
                }
                Math::Dim(i) => {
                    self.index_ref(i)?;
                    Ok(AbsSchema::empty())
                }
                Math::Bind([i, j, a]) => {
                    // the bound matrix contributes no schema of its own,
                    // but still walk it for role tracking
                    let ri = self.index_ref(i)?;
                    let rj = self.index_ref(j)?;
                    self.eval(a)?;
                    let mut atoms = BTreeSet::new();
                    for r in [ri, rj].into_iter().flatten() {
                        atoms.insert(Atom {
                            base: Base::Index(r),
                            minus: BTreeSet::new(),
                        });
                    }
                    Ok(AbsSchema { atoms })
                }
                // full aggregation always produces a scalar
                Math::Sall(a) => {
                    self.eval(a)?;
                    Ok(AbsSchema::empty())
                }
                // LA-structural operators carry shapes, not schemas;
                // rules over them are outside this algebra
                Math::Unbind(_) | Math::MMul(_) | Math::LTrs(_) | Math::Srow(_) | Math::Scol(_) => {
                    Err(format!(
                        "LA-structural operator `{}` has no relational schema",
                        n.op_display()
                    ))
                }
            },
        }
    }
}

/// Hypotheses a rule declares, translated from its [`ConditionMeta`]s.
/// Returns `None` if any condition is opaque (unanalyzable).
fn declared_hypotheses(rule: &MathRewrite) -> Option<Vec<Hypothesis>> {
    let mut out = Vec::new();
    for meta in rule.condition_metas() {
        match meta {
            ConditionMeta::IndexNotInSchema { index, of } => out.push(Hypothesis::IndexFree {
                index: IndexRef::Var(*index),
                of: LeafRef::Var(*of),
            }),
            ConditionMeta::SchemaSubset { sub, sup } => out.push(Hypothesis::Absorbed {
                sub: LeafRef::Var(*sub),
                sup: LeafRef::Var(*sup),
            }),
            // value-level; the dropped-variable check consumes it
            ConditionMeta::IsZero { .. } => {}
            ConditionMeta::Opaque { .. } => return None,
        }
    }
    Some(out)
}

/// Candidate hypotheses that could possibly reconcile the two sides.
fn candidates(lhs: &AbsSchema, rhs: &AbsSchema) -> Vec<Hypothesis> {
    let mut out = BTreeSet::new();
    // every (subtracted index, leaf base) pair on either side
    for s in [lhs, rhs] {
        for atom in &s.atoms {
            if let Base::Leaf(l) = atom.base {
                for &m in &atom.minus {
                    out.insert(Hypothesis::IndexFree { index: m, of: l });
                }
            }
        }
    }
    // leaves present on exactly one side may be absorbable into a leaf
    // of the shared part
    let ll = lhs.leaves();
    let rl = rhs.leaves();
    for &sub in ll.symmetric_difference(&rl) {
        for &sup in ll.intersection(&rl) {
            out.insert(Hypothesis::Absorbed { sub, sup });
        }
    }
    out.into_iter().collect()
}

fn apply_all(s: &AbsSchema, hs: &[Hypothesis]) -> AbsSchema {
    let mut out = s.clone();
    // Absorption can only erase atoms, and IndexFree can only grow the
    // set of absorbable atoms — so apply IndexFree first, then iterate
    // absorption to a fixpoint.
    for h in hs
        .iter()
        .filter(|h| matches!(h, Hypothesis::IndexFree { .. }))
    {
        out = out.apply(h);
    }
    loop {
        let mut next = out.clone();
        for h in hs
            .iter()
            .filter(|h| matches!(h, Hypothesis::Absorbed { .. }))
        {
            next = next.apply(h);
        }
        if next == out {
            return out;
        }
        out = next;
    }
}

/// Run the schema pass on one rule.
///
/// Also returns lhs variables the rhs drops without a declared
/// [`ConditionMeta::IsZero`] justification (a separate violation: a rule
/// that deletes a matched sub-term must say why that is sound).
#[derive(Debug, Clone)]
pub struct SchemaReport {
    pub verdict: SchemaVerdict,
    /// Value-position lhs vars absent from the rhs and not declared zero.
    pub undeclared_drops: Vec<Var>,
    /// A variable used both as an index and as a value.
    pub role_conflict: Option<Var>,
    /// Declared schema hypotheses the algebra never needed (informational).
    pub unused_conditions: Vec<Hypothesis>,
}

pub fn check_schema(rule: &MathRewrite) -> SchemaReport {
    let mut report = SchemaReport {
        verdict: SchemaVerdict::NotAnalyzable(String::new()),
        undeclared_drops: Vec::new(),
        role_conflict: None,
        unused_conditions: Vec::new(),
    };
    let Some(rhs) = rule.rhs_pattern() else {
        report.verdict = SchemaVerdict::NotAnalyzable("dynamic applier".to_owned());
        return report;
    };
    let Some(declared) = declared_hypotheses(rule) else {
        report.verdict = SchemaVerdict::NotAnalyzable("opaque condition".to_owned());
        return report;
    };

    let mut li = Interp::new(rule.searcher.ast());
    let ls = li.eval(rule.searcher.ast().root());
    let mut ri = Interp::new(rhs.ast());
    let rs = ri.eval(rhs.ast().root());
    report.role_conflict = li.conflict.or(ri.conflict);

    // dropped-variable check: value-position lhs vars the rhs never
    // mentions need a declared zero justification
    let rhs_vars = rhs.vars();
    let zero_declared: Vec<Var> = rule
        .condition_metas()
        .filter_map(|m| match m {
            ConditionMeta::IsZero { var } => Some(*var),
            _ => None,
        })
        .collect();
    for (v, role) in &li.roles {
        if *role == Role::Value && !rhs_vars.contains(v) && !zero_declared.contains(v) {
            report.undeclared_drops.push(*v);
        }
    }

    let (ls, rs) = match (ls, rs) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            report.verdict = SchemaVerdict::NotAnalyzable(e);
            return report;
        }
    };

    if ls == rs {
        report.unused_conditions = declared;
        report.verdict = SchemaVerdict::Equal;
        return report;
    }

    // is any hypothesis set sufficient at all?
    let cands = candidates(&ls, &rs);
    if apply_all(&ls, &cands) != apply_all(&rs, &cands) {
        report.verdict = SchemaVerdict::Mismatch {
            lhs: ls.to_string(),
            rhs: rs.to_string(),
        };
        return report;
    }

    // greedy minimization: drop candidates that are not needed
    let mut needed = cands;
    let mut k = 0;
    while k < needed.len() {
        let mut trial = needed.clone();
        trial.remove(k);
        if apply_all(&ls, &trial) == apply_all(&rs, &trial) {
            needed = trial;
        } else {
            k += 1;
        }
    }

    let missing: Vec<Hypothesis> = needed
        .iter()
        .copied()
        .filter(|h| !declared.contains(h))
        .collect();
    report.unused_conditions = declared
        .iter()
        .copied()
        .filter(|h| !needed.contains(h))
        .collect();
    report.verdict = if missing.is_empty() {
        SchemaVerdict::EqualUnderConditions(needed)
    } else {
        SchemaVerdict::Undeclared { needed, missing }
    };
    report
}
