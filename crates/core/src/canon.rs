//! Canonical forms and term isomorphism (§2.3 + Appendix A).
//!
//! The completeness argument of the paper rests on a normal form for
//! relational plans: every RPlan is equivalent to a *polyterm*
//! `c₁·Σ_{A₁}(x₁₁^k·…) + … + cₙ·Σ_{Aₙ}(…) + c` (Definition A.2), unique
//! up to isomorphism (Lemma 2.2). Two LA expressions are semantically
//! equivalent iff their translations have isomorphic canonical forms
//! (Theorem 2.3) — which is how the Figure 14 experiment verifies that
//! the relational rules derive every hand-coded SystemML rewrite, in a
//! way that is independent of the index names each translation minted.
//!
//! Point-wise functions (`exp`, `inv`, comparisons, …) are not part of
//! the sum-product fragment; they are treated as *uninterpreted tensors*
//! whose "name" is the canonical form of their argument (lambda-lifting),
//! so equivalence is decided modulo those function symbols — exactly the
//! "custom functions as black boxes" reading of §3.3.

use crate::lang::{Math, MathExpr};
use spores_egraph::{FxHashMap, Id};
use spores_ir::Symbol;
use std::collections::HashMap;
use std::fmt;

/// What a factor refers to: an input tensor or an uninterpreted
/// (lambda-lifted) point-wise function application.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TensorRef {
    Var(Symbol),
    /// Interned shape of an opaque sub-expression, e.g. `exp#(…p0…p1…)`.
    Opaque(String),
}

impl fmt::Display for TensorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorRef::Var(s) => write!(f, "{s}"),
            TensorRef::Opaque(s) => write!(f, "⟨{s}⟩"),
        }
    }
}

/// An index position inside an atom.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum IndexRef {
    /// A free attribute (shared with the context; never renamed).
    Free(Symbol),
    /// A bound (aggregated) index, numbered within its term.
    Bound(u32),
}

/// An indexed tensor occurrence (Definition A.2's "atom").
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Atom {
    pub tensor: TensorRef,
    pub indices: Vec<IndexRef>,
}

/// `Σ_{bound indices} Π atoms` — a term of the polyterm.
#[derive(Clone, PartialEq, Debug)]
pub struct Term {
    pub n_bound: u32,
    /// The monomial as a bag of atoms (kept sorted for determinism).
    pub atoms: Vec<Atom>,
}

impl Term {
    fn normalize(&mut self) {
        self.atoms.sort();
    }

    fn free_indices(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for a in &self.atoms {
            for i in &a.indices {
                if let IndexRef::Free(s) = i {
                    if !out.contains(s) {
                        out.push(*s);
                    }
                }
            }
        }
        out
    }

    /// A rename-invariant signature used to pre-filter isomorphism.
    fn signature(&self) -> Vec<(TensorRef, Vec<IndexSig>)> {
        let mut sig: Vec<(TensorRef, Vec<IndexSig>)> = self
            .atoms
            .iter()
            .map(|a| {
                (
                    a.tensor.clone(),
                    a.indices
                        .iter()
                        .map(|i| match i {
                            IndexRef::Free(s) => IndexSig::Free(*s),
                            IndexRef::Bound(_) => IndexSig::Bound,
                        })
                        .collect(),
                )
            })
            .collect();
        sig.sort();
        sig
    }
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum IndexSig {
    Free(Symbol),
    Bound,
}

/// The canonical form: a sum of coefficient-weighted terms plus a
/// constant (Definition A.2's polyterm).
#[derive(Clone, Debug, Default)]
pub struct Polyterm {
    pub terms: Vec<(f64, Term)>,
    pub constant: f64,
}

const EPS: f64 = 1e-9;

impl Polyterm {
    fn constant_of(c: f64) -> Polyterm {
        Polyterm {
            terms: vec![],
            constant: c,
        }
    }

    fn atom_of(tensor: TensorRef, indices: Vec<IndexRef>) -> Polyterm {
        Polyterm {
            terms: vec![(
                1.0,
                Term {
                    n_bound: 0,
                    atoms: vec![Atom { tensor, indices }],
                },
            )],
            constant: 0.0,
        }
    }

    fn add(mut self, other: Polyterm) -> Polyterm {
        self.terms.extend(other.terms);
        self.constant += other.constant;
        self.merge_isomorphic();
        self
    }

    fn scale(mut self, k: f64) -> Polyterm {
        for (c, _) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self.merge_isomorphic();
        self
    }

    fn mul(self, other: Polyterm) -> Polyterm {
        let mut out = Polyterm::constant_of(self.constant * other.constant);
        for (c1, t1) in &self.terms {
            for (c2, t2) in &other.terms {
                // disjoint bound indices: shift t2's
                let mut atoms = t1.atoms.clone();
                for a in &t2.atoms {
                    let mut a = a.clone();
                    for i in &mut a.indices {
                        if let IndexRef::Bound(b) = i {
                            *i = IndexRef::Bound(*b + t1.n_bound);
                        }
                    }
                    atoms.push(a);
                }
                let mut t = Term {
                    n_bound: t1.n_bound + t2.n_bound,
                    atoms,
                };
                t.normalize();
                out.terms.push((c1 * c2, t));
            }
        }
        if other.constant.abs() > EPS {
            for (c, t) in &self.terms {
                out.terms.push((c * other.constant, t.clone()));
            }
        }
        if self.constant.abs() > EPS {
            for (c, t) in &other.terms {
                out.terms.push((c * self.constant, t.clone()));
            }
        }
        out.merge_isomorphic();
        out
    }

    /// `Σ_i self` where `dim` is the size of index `i`.
    fn aggregate(mut self, i: Symbol, dim: u64) -> Polyterm {
        let mut terms = Vec::with_capacity(self.terms.len());
        for (c, mut t) in self.terms.drain(..) {
            let occurs = t
                .atoms
                .iter()
                .any(|a| a.indices.contains(&IndexRef::Free(i)));
            if occurs {
                let b = t.n_bound;
                t.n_bound += 1;
                for a in &mut t.atoms {
                    for idx in &mut a.indices {
                        if *idx == IndexRef::Free(i) {
                            *idx = IndexRef::Bound(b);
                        }
                    }
                }
                t.normalize();
                terms.push((c, t));
            } else {
                // rule 5: Σ_i t = t · dim(i)
                terms.push((c * dim as f64, t));
            }
        }
        let constant = self.constant * dim as f64;
        let mut out = Polyterm { terms, constant };
        out.merge_isomorphic();
        out
    }

    fn merge_isomorphic(&mut self) {
        let mut merged: Vec<(f64, Term)> = Vec::with_capacity(self.terms.len());
        'outer: for (c, t) in self.terms.drain(..) {
            for (mc, mt) in &mut merged {
                if terms_isomorphic(mt, &t) {
                    *mc += c;
                    continue 'outer;
                }
            }
            merged.push((c, t));
        }
        merged.retain(|(c, _)| c.abs() > EPS);
        // deterministic order: by signature, then coefficient
        merged.sort_by(|(ca, ta), (cb, tb)| {
            ta.signature()
                .cmp(&tb.signature())
                .then(ta.n_bound.cmp(&tb.n_bound))
                .then(ca.total_cmp(cb))
        });
        self.terms = merged;
    }

    /// All free attributes of the polyterm.
    pub fn free_indices(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for (_, t) in &self.terms {
            for s in t.free_indices() {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// A printable rendering (deterministic given the canonical order).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, (c, t)) in self.terms.iter().enumerate() {
            if i > 0 {
                s.push_str(" + ");
            }
            if (*c - 1.0).abs() > EPS {
                write!(s, "{c}·").unwrap();
            }
            if t.n_bound > 0 {
                write!(s, "Σ[{}]", t.n_bound).unwrap();
            }
            s.push('(');
            for (j, a) in t.atoms.iter().enumerate() {
                if j > 0 {
                    s.push('·');
                }
                write!(s, "{}(", a.tensor).unwrap();
                for (k, idx) in a.indices.iter().enumerate() {
                    if k > 0 {
                        s.push(',');
                    }
                    match idx {
                        IndexRef::Free(sym) => write!(s, "{sym}").unwrap(),
                        IndexRef::Bound(b) => write!(s, "β{b}").unwrap(),
                    }
                }
                s.push(')');
            }
            s.push(')');
        }
        if self.constant.abs() > EPS || self.terms.is_empty() {
            if !self.terms.is_empty() {
                s.push_str(" + ");
            }
            write!(s, "{}", self.constant).unwrap();
        }
        s
    }
}

// ---------------------------------------------------------------------
// term isomorphism (Definition A.4): a bijection over bound indices
// ---------------------------------------------------------------------

/// Are two terms isomorphic (equal up to renaming of bound indices)?
pub fn terms_isomorphic(a: &Term, b: &Term) -> bool {
    if a.n_bound != b.n_bound || a.atoms.len() != b.atoms.len() {
        return false;
    }
    if a.signature() != b.signature() {
        return false;
    }
    let mut bound_map: Vec<Option<u32>> = vec![None; a.n_bound as usize];
    let mut bound_used: Vec<bool> = vec![false; b.n_bound as usize];
    let mut used_atoms: Vec<bool> = vec![false; b.atoms.len()];
    match_atoms(a, b, 0, &mut bound_map, &mut bound_used, &mut used_atoms)
}

fn match_atoms(
    a: &Term,
    b: &Term,
    i: usize,
    bound_map: &mut Vec<Option<u32>>,
    bound_used: &mut Vec<bool>,
    used: &mut Vec<bool>,
) -> bool {
    if i == a.atoms.len() {
        return true;
    }
    let atom = &a.atoms[i];
    for j in 0..b.atoms.len() {
        if used[j] {
            continue;
        }
        let cand = &b.atoms[j];
        if cand.tensor != atom.tensor || cand.indices.len() != atom.indices.len() {
            continue;
        }
        // try to extend the bound-index bijection
        let mut added: Vec<u32> = Vec::new();
        let mut ok = true;
        for (x, y) in atom.indices.iter().zip(&cand.indices) {
            match (x, y) {
                (IndexRef::Free(s), IndexRef::Free(t)) if s == t => {}
                (IndexRef::Bound(p), IndexRef::Bound(q)) => match bound_map[*p as usize] {
                    Some(mapped) if mapped == *q => {}
                    Some(_) => {
                        ok = false;
                        break;
                    }
                    None => {
                        if bound_used[*q as usize] {
                            ok = false;
                            break;
                        }
                        bound_map[*p as usize] = Some(*q);
                        bound_used[*q as usize] = true;
                        added.push(*p);
                    }
                },
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            used[j] = true;
            if match_atoms(a, b, i + 1, bound_map, bound_used, used) {
                return true;
            }
            used[j] = false;
        }
        for p in added {
            let q = bound_map[p as usize].take().expect("was set");
            bound_used[q as usize] = false;
        }
    }
    false
}

/// Are two canonical forms isomorphic (Definition A.7)?
pub fn polyterm_isomorphic(a: &Polyterm, b: &Polyterm) -> bool {
    if (a.constant - b.constant).abs() > EPS * (1.0 + a.constant.abs()) {
        return false;
    }
    if a.terms.len() != b.terms.len() {
        return false;
    }
    let mut used = vec![false; b.terms.len()];
    match_terms(a, b, 0, &mut used)
}

fn match_terms(a: &Polyterm, b: &Polyterm, i: usize, used: &mut Vec<bool>) -> bool {
    if i == a.terms.len() {
        return true;
    }
    let (ca, ta) = &a.terms[i];
    for j in 0..b.terms.len() {
        if used[j] {
            continue;
        }
        let (cb, tb) = &b.terms[j];
        if (ca - cb).abs() > EPS * (1.0 + ca.abs()) {
            continue;
        }
        if !terms_isomorphic(ta, tb) {
            continue;
        }
        used[j] = true;
        if match_terms(a, b, i + 1, used) {
            return true;
        }
        used[j] = false;
    }
    false
}

// ---------------------------------------------------------------------
// canonicalization of RA expressions (Lemma 2.1, constructively)
// ---------------------------------------------------------------------

/// Error during canonicalization.
#[derive(Clone, Debug)]
pub struct CanonError(pub String);

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "canonicalization error: {}", self.0)
    }
}

impl std::error::Error for CanonError {}

struct Canonicalizer<'a> {
    expr: &'a MathExpr,
    index_dims: &'a HashMap<Symbol, u64>,
    memo: FxHashMap<Id, Polyterm>,
}

impl<'a> Canonicalizer<'a> {
    fn sym(&self, id: Id) -> Result<Symbol, CanonError> {
        match self.expr.node(id) {
            Math::Sym(s) => Ok(*s),
            other => Err(CanonError(format!("expected symbol, got {other:?}"))),
        }
    }

    fn dim(&self, s: Symbol) -> Result<u64, CanonError> {
        self.index_dims
            .get(&s)
            .copied()
            .ok_or_else(|| CanonError(format!("unknown index {s}")))
    }

    fn canon(&mut self, id: Id) -> Result<Polyterm, CanonError> {
        if let Some(p) = self.memo.get(&id) {
            return Ok(p.clone());
        }
        use Math::*;
        let result = match self.expr.node(id).clone() {
            Lit(n) => Polyterm::constant_of(n.get()),
            Dim(i) => {
                let s = self.sym(i)?;
                Polyterm::constant_of(self.dim(s)? as f64)
            }
            Bind([i, j, x]) => {
                let name = self.sym(x)?;
                let mut indices = Vec::new();
                for idx in [i, j] {
                    match self.expr.node(idx) {
                        Sym(s) => indices.push(IndexRef::Free(*s)),
                        NoIdx => {}
                        other => return Err(CanonError(format!("bad bind index {other:?}"))),
                    }
                }
                Polyterm::atom_of(TensorRef::Var(name), indices)
            }
            Add([a, b]) => {
                let pa = self.canon(a)?;
                let pb = self.canon(b)?;
                pa.add(pb)
            }
            Mul([a, b]) => {
                let pa = self.canon(a)?;
                let pb = self.canon(b)?;
                pa.mul(pb)
            }
            Agg([i, body]) => {
                let s = self.sym(i)?;
                let d = self.dim(s)?;
                let p = self.canon(body)?;
                p.aggregate(s, d)
            }
            Pow([a, k]) => {
                // literal small integer exponents expand into products
                let kp = self.canon(k)?;
                if kp.terms.is_empty()
                    && (kp.constant.fract() == 0.0)
                    && kp.constant >= 1.0
                    && kp.constant <= 8.0
                {
                    let base = self.canon(a)?;
                    let mut acc = base.clone();
                    for _ in 1..(kp.constant as usize) {
                        acc = acc.mul(base.clone());
                    }
                    acc
                } else {
                    self.opaque("pow", &[a, k])?
                }
            }
            Inv(a) => self.opaque("inv", &[a])?,
            Exp(a) => self.opaque("exp", &[a])?,
            Log(a) => self.opaque("log", &[a])?,
            Sqrt(a) => self.opaque("sqrt", &[a])?,
            Abs(a) => self.opaque("abs", &[a])?,
            Sign(a) => self.opaque("sign", &[a])?,
            Sigmoid(a) => self.opaque("sigmoid", &[a])?,
            Sprop(a) => {
                // sprop has a sum-product definition: p - p²
                let p = self.canon(a)?;
                let sq = p.clone().mul(p.clone());
                p.add(sq.scale(-1.0))
            }
            Gt([a, b]) => self.opaque("gt", &[a, b])?,
            Lt([a, b]) => self.opaque("lt", &[a, b])?,
            Ge([a, b]) => self.opaque("ge", &[a, b])?,
            Le([a, b]) => self.opaque("le", &[a, b])?,
            BMin([a, b]) => self.opaque("min", &[a, b])?,
            BMax([a, b]) => self.opaque("max", &[a, b])?,
            other => {
                return Err(CanonError(format!(
                    "non-relational node {other:?} (translate first)"
                )))
            }
        };
        self.memo.insert(id, result.clone());
        Ok(result)
    }

    /// Lambda-lift a point-wise function application into an opaque
    /// tensor whose name is the canonical (placeholder-renamed) form of
    /// its arguments, and whose indices are the arguments' free attrs.
    fn opaque(&mut self, name: &str, args: &[Id]) -> Result<Polyterm, CanonError> {
        let parts: Vec<Polyterm> = args
            .iter()
            .map(|&a| self.canon(a))
            .collect::<Result<_, _>>()?;
        let mut frees: Vec<Symbol> = Vec::new();
        for p in &parts {
            for s in p.free_indices() {
                if !frees.contains(&s) {
                    frees.push(s);
                }
            }
        }
        if frees.len() > 2 {
            return Err(CanonError(format!(
                "point-wise {name} over {} free attributes",
                frees.len()
            )));
        }
        // choose the free ordering giving the lexicographically least
        // placeholder rendering — rename-invariant by construction
        let orderings: Vec<Vec<Symbol>> = if frees.len() == 2 {
            vec![frees.clone(), vec![frees[1], frees[0]]]
        } else {
            vec![frees.clone()]
        };
        let mut best: Option<(String, Vec<Symbol>)> = None;
        for ord in orderings {
            let rendered: Vec<String> = parts
                .iter()
                .map(|p| render_with_placeholders(p, &ord))
                .collect();
            let shape = format!("{name}({})", rendered.join(", "));
            if best.as_ref().is_none_or(|(b, _)| shape < *b) {
                best = Some((shape, ord));
            }
        }
        let (shape, ord) = best.expect("at least one ordering");
        Ok(Polyterm::atom_of(
            TensorRef::Opaque(shape),
            ord.into_iter().map(IndexRef::Free).collect(),
        ))
    }
}

/// Render a polyterm with frees replaced by positional placeholders
/// (`p0`, `p1`) according to `order`.
fn render_with_placeholders(p: &Polyterm, order: &[Symbol]) -> String {
    let mut p = p.clone();
    for (pos, s) in order.iter().enumerate() {
        let placeholder = Symbol::new(&format!("p{pos}"));
        for (_, t) in &mut p.terms {
            for a in &mut t.atoms {
                for i in &mut a.indices {
                    if *i == IndexRef::Free(*s) {
                        *i = IndexRef::Free(placeholder);
                    }
                }
            }
        }
    }
    for (_, t) in &mut p.terms {
        t.normalize();
    }
    p.merge_isomorphic();
    p.render()
}

/// Compute the canonical form `C(e)` of a relational plan.
pub fn canonical_form(
    expr: &MathExpr,
    index_dims: &HashMap<Symbol, u64>,
) -> Result<Polyterm, CanonError> {
    let mut c = Canonicalizer {
        expr,
        index_dims,
        memo: FxHashMap::default(),
    };
    c.canon(expr.root())
}

/// Decide semantic equivalence of two *LA* expressions via Theorem 2.3:
/// translate both (renaming the result attributes to the shared names
/// `@r`/`@c`), canonicalize, and compare up to isomorphism.
pub fn la_equivalent(
    arena: &spores_ir::ExprArena,
    lhs: spores_ir::NodeId,
    rhs: spores_ir::NodeId,
    vars: &HashMap<Symbol, crate::analysis::VarMeta>,
) -> Result<bool, CanonError> {
    let ca = canon_of_la(arena, lhs, vars)?;
    let cb = canon_of_la(arena, rhs, vars)?;
    Ok(polyterm_isomorphic(&ca, &cb))
}

/// Translate + attribute-normalize + canonicalize one LA expression.
pub fn canon_of_la(
    arena: &spores_ir::ExprArena,
    root: spores_ir::NodeId,
    vars: &HashMap<Symbol, crate::analysis::VarMeta>,
) -> Result<Polyterm, CanonError> {
    let tr =
        crate::translate::translate(arena, root, vars).map_err(|e| CanonError(e.to_string()))?;
    let mut dims: HashMap<Symbol, u64> = tr.ctx.index_dims.iter().map(|(&s, &d)| (s, d)).collect();
    let mut p = canonical_form(&tr.expr, &dims)?;
    // rename the result attributes to role names shared by both sides
    for (attr, role) in [(tr.row, "@r"), (tr.col, "@c")] {
        if let Some(a) = attr {
            let role = Symbol::new(role);
            dims.insert(role, dims[&a]);
            for (_, t) in &mut p.terms {
                for atom in &mut t.atoms {
                    for i in &mut atom.indices {
                        if *i == IndexRef::Free(a) {
                            *i = IndexRef::Free(role);
                        }
                    }
                }
                t.normalize();
            }
        }
    }
    p.merge_isomorphic();
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::VarMeta;
    use crate::lang::parse_math;
    use spores_ir::{parse_expr, ExprArena};

    fn dims(list: &[(&str, u64)]) -> HashMap<Symbol, u64> {
        list.iter().map(|&(s, d)| (Symbol::new(s), d)).collect()
    }

    fn canon(src: &str, d: &[(&str, u64)]) -> Polyterm {
        canonical_form(&parse_math(src).unwrap(), &dims(d)).unwrap()
    }

    #[test]
    fn constants_fold() {
        let p = canon("(+ 2 (* 3 4))", &[]);
        assert_eq!(p.constant, 14.0);
        assert!(p.terms.is_empty());
    }

    #[test]
    fn sum_of_constant_scales_by_dim() {
        // §2.2's example: Σ_i 5 = 5·dim(i)
        let p = canon("(sum i 5)", &[("i", 100)]);
        assert_eq!(p.constant, 500.0);
    }

    #[test]
    fn isomorphic_monomials_merge() {
        // X·Y + Y·X = 2·X·Y
        let p = canon("(+ (* (b i j X) (b i j Y)) (* (b i j Y) (b i j X)))", &[]);
        assert_eq!(p.terms.len(), 1);
        assert_eq!(p.terms[0].0, 2.0);
    }

    #[test]
    fn alpha_variants_are_isomorphic() {
        let d = [("i", 10), ("j", 10), ("k", 10)];
        let a = canon("(sum i (sum j (* (b i j X) (b i j Y))))", &d);
        let b = canon("(sum k (sum i (* (b k i X) (b k i Y))))", &d);
        assert!(polyterm_isomorphic(&a, &b));
    }

    /// Lemma 2.2 rests on isomorphism, not homomorphism: in Appendix
    /// Example 2 there is a homomorphism t1 → t2 ([v,s ↦ j], [w,z ↦ k])
    /// but none back, so the two canonical forms must stay apart, while
    /// each one's α-variant (renamed bound indices) merges with it.
    #[test]
    fn example_2_homomorphic_terms_are_not_isomorphic() {
        let d = [
            ("i", 5),
            ("j", 5),
            ("k", 5),
            ("v", 5),
            ("w", 5),
            ("s", 5),
            ("z", 5),
        ];
        let t1 = canon(
            "(sum v (sum w (sum s (sum z (* (b i v A) (* (b v w B) (* (b i s A) (b s z B))))))))",
            &d,
        );
        let t2 = canon(
            "(sum j (sum k (* (b i j A) (* (b j k B) (* (b i j A) (b j k B))))))",
            &d,
        );
        assert!(!polyterm_isomorphic(&t1, &t2));
        assert!(!polyterm_isomorphic(&t2, &t1));
        let t1_alpha = canon(
            "(sum z (sum s (sum w (sum v (* (b i z A) (* (b z s B) (* (b i w A) (b w v B))))))))",
            &d,
        );
        let t2_alpha = canon(
            "(sum v (sum w (* (b i v A) (* (b v w B) (* (b i v A) (b v w B))))))",
            &d,
        );
        assert!(polyterm_isomorphic(&t1, &t1_alpha));
        assert!(polyterm_isomorphic(&t2, &t2_alpha));
    }

    #[test]
    fn transposed_occurrence_not_isomorphic() {
        // the appendix's caveat: Σ x(i,j)y(i,j) vs Σ x(i,j)y(j,i) differ
        let d = [("i", 10), ("j", 10)];
        let a = canon("(sum i (sum j (* (b i j X) (b i j Y))))", &d);
        let b = canon("(sum i (sum j (* (b i j X) (b j i Y))))", &d);
        assert!(!polyterm_isomorphic(&a, &b));
    }

    #[test]
    fn figure_6_canonical_form() {
        // sum((X − u vᵀ)²) = Σ X² − 2 Σ X·u·v + Σ u²v²  (Figure 6 right)
        let d = [("a", 30), ("c", 20)];
        let p = canon(
            "(sum a (sum c (pow (+ (b a c X) (* -1 (* (b a _ u) (b c _ v)))) 2)))",
            &d,
        );
        assert_eq!(p.terms.len(), 3, "{}", p.render());
        let coeffs: Vec<f64> = p.terms.iter().map(|(c, _)| *c).collect();
        let mut sorted = coeffs.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![-2.0, 1.0, 1.0], "{}", p.render());
    }

    #[test]
    fn canonical_form_preserves_semantics() {
        // Lemma 2.1, numerically: C(e) evaluates like e
        use crate::eval::{eval_ra, Tensor};
        let d = [("i", 3usize), ("j", 4usize)];
        let dims_u64: Vec<(&str, u64)> = d.iter().map(|&(s, v)| (s, v as u64)).collect();
        let src = "(sum i (sum j (* (+ (b i j X) (b i j Y)) (+ (b i j X) (b i j Y)))))";
        let p = canon(src, &dims_u64);
        // evaluate the polyterm by brute force
        let x = Tensor::new(3, 4, (0..12).map(|v| v as f64 / 3.0 - 1.5).collect());
        let y = Tensor::new(3, 4, (0..12).map(|v| ((v * 7) % 5) as f64 - 2.0).collect());
        let vars = HashMap::from([(Symbol::new("X"), x), (Symbol::new("Y"), y)]);
        let dim_usize: HashMap<Symbol, usize> =
            d.iter().map(|&(s, v)| (Symbol::new(s), v)).collect();
        let direct = eval_ra(&parse_math(src).unwrap(), None, None, &vars, &dim_usize).unwrap();
        let via_canon = eval_polyterm(&p, &vars, &dim_usize);
        assert!((direct.get(0, 0) - via_canon).abs() < 1e-9);
    }

    /// Brute-force polyterm evaluation (test helper; no frees).
    fn eval_polyterm(
        p: &Polyterm,
        vars: &HashMap<Symbol, crate::eval::Tensor>,
        _dims: &HashMap<Symbol, usize>,
    ) -> f64 {
        let mut total = p.constant;
        for (c, t) in &p.terms {
            // infer each bound index's dimension from the atoms using it
            let mut bdims = vec![0usize; t.n_bound as usize];
            for a in &t.atoms {
                let tensor = match &a.tensor {
                    TensorRef::Var(s) => &vars[s],
                    TensorRef::Opaque(_) => panic!("opaque in eval"),
                };
                for (pos, i) in a.indices.iter().enumerate() {
                    if let IndexRef::Bound(b) = i {
                        bdims[*b as usize] = if pos == 0 { tensor.rows } else { tensor.cols };
                    }
                }
            }
            let mut acc = 0.0;
            let mut assignment = vec![0usize; t.n_bound as usize];
            loop {
                let mut prod = 1.0;
                for a in &t.atoms {
                    let tensor = match &a.tensor {
                        TensorRef::Var(s) => &vars[s],
                        TensorRef::Opaque(_) => unreachable!(),
                    };
                    let coord = |i: &IndexRef| match i {
                        IndexRef::Bound(b) => assignment[*b as usize],
                        IndexRef::Free(_) => panic!("free index in closed term"),
                    };
                    let v = match a.indices.len() {
                        0 => tensor.get(0, 0),
                        1 => tensor.get(coord(&a.indices[0]), 0),
                        2 => tensor.get(coord(&a.indices[0]), coord(&a.indices[1])),
                        _ => unreachable!(),
                    };
                    prod *= v;
                }
                acc += prod;
                // odometer increment
                let mut k = 0;
                loop {
                    if k == assignment.len() {
                        break;
                    }
                    assignment[k] += 1;
                    if assignment[k] < bdims[k] {
                        break;
                    }
                    assignment[k] = 0;
                    k += 1;
                }
                if k == assignment.len() {
                    break;
                }
            }
            total += c * acc;
        }
        total
    }

    // ---- Theorem 2.3 at the LA level --------------------------------

    fn la_vars(list: &[(&str, (u64, u64))]) -> HashMap<Symbol, VarMeta> {
        list.iter()
            .map(|&(n, (r, c))| (Symbol::new(n), VarMeta::dense(r, c)))
            .collect()
    }

    fn check_la_equiv(lhs: &str, rhs: &str, vars: &[(&str, (u64, u64))], expect: bool) {
        let mut arena = ExprArena::new();
        let l = parse_expr(&mut arena, lhs).unwrap();
        let r = parse_expr(&mut arena, rhs).unwrap();
        let got = la_equivalent(&arena, l, r, &la_vars(vars)).unwrap();
        assert_eq!(got, expect, "{lhs} ≡ {rhs} should be {expect}");
    }

    #[test]
    fn headline_equivalence_via_canonical_forms() {
        check_la_equiv(
            "sum((X - u %*% t(v))^2)",
            "sum(X^2) - 2 * (t(u) %*% X %*% v) + (t(u) %*% u) * (t(v) %*% v)",
            &[("X", (30, 20)), ("u", (30, 1)), ("v", (20, 1))],
            true,
        );
    }

    #[test]
    fn plus_variant_equivalence() {
        check_la_equiv(
            "sum((X + u %*% t(v))^2)",
            "sum(X^2) + 2 * (t(u) %*% X %*% v) + (t(u) %*% u) * (t(v) %*% v)",
            &[("X", (30, 20)), ("u", (30, 1)), ("v", (20, 1))],
            true,
        );
    }

    #[test]
    fn sum_mm_equivalence() {
        // Fig 14 SumMatrixMult: sum(A %*% B) = sum(t(colSums(A)) * rowSums(B))
        check_la_equiv(
            "sum(A %*% B)",
            "sum(t(colSums(A)) * rowSums(B))",
            &[("A", (5, 7)), ("B", (7, 4))],
            true,
        );
    }

    #[test]
    fn inequivalent_expressions_detected() {
        check_la_equiv(
            "sum(X * Y)",
            "sum(X) * sum(Y)",
            &[("X", (5, 4)), ("Y", (5, 4))],
            false,
        );
        check_la_equiv("t(X) %*% X", "X %*% t(X)", &[("X", (5, 5))], false);
    }

    #[test]
    fn equivalence_with_orientation() {
        check_la_equiv("colSums(t(X))", "t(rowSums(X))", &[("X", (5, 7))], true);
        check_la_equiv("t(t(X))", "X", &[("X", (5, 7))], true);
    }

    #[test]
    fn opaque_functions_compare_structurally() {
        check_la_equiv(
            "exp(X) * Y",
            "Y * exp(X)",
            &[("X", (3, 4)), ("Y", (3, 4))],
            true,
        );
        check_la_equiv(
            "exp(X + Y)",
            "exp(Y + X)",
            &[("X", (3, 4)), ("Y", (3, 4))],
            true,
        );
        check_la_equiv("exp(X)", "exp(Y)", &[("X", (3, 4)), ("Y", (3, 4))], false);
        // opaque transposition: exp commutes with t structurally
        check_la_equiv("t(exp(X))", "exp(t(X))", &[("X", (3, 4))], true);
    }

    #[test]
    fn scalar_pull_out_equivalence() {
        // pushdownSumBinaryMult: sum(λ·X) = λ·sum(X)
        check_la_equiv(
            "sum(s * X)",
            "s * sum(X)",
            &[("s", (1, 1)), ("X", (5, 4))],
            true,
        );
    }
}
