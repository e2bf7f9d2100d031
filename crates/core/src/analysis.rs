//! Class invariants (paper §3.2): schema, sparsity, constant folding.
//!
//! Every e-class carries a [`Meta`] value:
//!
//! * **kind/schema** — the set of free attributes of the relational
//!   expression (or the matrix shape for LA sub-terms). "All expressions
//!   in the same class must contain the same set of free attributes",
//!   which is what lets conditional rules like rule 3 of Figure 3 match
//!   on deeply-nested schema facts.
//! * **sparsity** — the Figure 12 estimate. Because the estimate is
//!   conservative, merged classes keep the *tighter* bound.
//! * **constant** — scalar constant folding, integrated with rewriting by
//!   adding the folded literal to the class in the `modify` hook.

use crate::lang::Math;
use spores_egraph::{Analysis, DidMerge, EGraph, FxHashMap, Id};
use spores_ir::{Shape, Symbol};

/// Shape and sparsity of an input matrix.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VarMeta {
    pub shape: Shape,
    /// Fraction of non-zero cells, in `[0, 1]`.
    pub sparsity: f64,
}

impl VarMeta {
    pub fn dense(rows: u64, cols: u64) -> VarMeta {
        VarMeta {
            shape: Shape::new(rows, cols),
            sparsity: 1.0,
        }
    }

    pub fn sparse(rows: u64, cols: u64, sparsity: f64) -> VarMeta {
        assert!((0.0..=1.0).contains(&sparsity));
        VarMeta {
            shape: Shape::new(rows, cols),
            sparsity,
        }
    }

    pub fn scalar() -> VarMeta {
        VarMeta::dense(1, 1)
    }
}

/// The environment the analysis consults: matrix variables and index
/// dimensions. Built by the translator (or by hand in tests).
#[derive(Clone, Debug, Default)]
pub struct Context {
    pub vars: FxHashMap<Symbol, VarMeta>,
    pub index_dims: FxHashMap<Symbol, u64>,
}

impl Context {
    pub fn new() -> Context {
        Context::default()
    }

    pub fn with_var(mut self, name: impl Into<Symbol>, meta: VarMeta) -> Self {
        self.vars.insert(name.into(), meta);
        self
    }

    pub fn with_index(mut self, name: impl Into<Symbol>, dim: u64) -> Self {
        self.index_dims.insert(name.into(), dim);
        self
    }
}

/// Sorted set of (attribute, dimension) pairs — the schema of a relation.
pub type Schema = Vec<(Symbol, u64)>;

fn schema_union(a: &Schema, b: &Schema) -> Schema {
    let mut out = a.clone();
    for &(s, d) in b {
        if !out.iter().any(|&(t, _)| t == s) {
            out.push((s, d));
        }
    }
    out.sort_unstable();
    out
}

/// What sort of value an e-class denotes.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// A scalar: a relation with empty schema / a 1×1 matrix.
    Scalar,
    /// An LA value with a concrete shape.
    Mat(Shape),
    /// A K-relation with the given free attributes.
    Rel(Schema),
    /// An index leaf (appears as the first child of `sum`/`b`/`ub`/`dim`).
    Index { sym: Symbol, dim: u64 },
    /// Insufficient information (e.g. an unregistered variable).
    Unknown,
}

impl Kind {
    /// Number of cells of the value (1 for scalars; 0-cost for indexes).
    pub fn size(&self) -> f64 {
        match self {
            Kind::Scalar | Kind::Index { .. } => 1.0,
            Kind::Mat(s) => (s.rows as f64) * (s.cols as f64),
            Kind::Rel(schema) => schema.iter().map(|&(_, d)| d as f64).product(),
            Kind::Unknown => 1.0,
        }
    }

    /// The free attributes, if this is a relational value.
    /// Scalars have an empty schema.
    pub fn attrs(&self) -> Option<Vec<Symbol>> {
        match self {
            Kind::Scalar => Some(vec![]),
            Kind::Rel(schema) => Some(schema.iter().map(|&(s, _)| s).collect()),
            _ => None,
        }
    }

    fn rel_or_scalar(schema: Schema) -> Kind {
        if schema.is_empty() {
            Kind::Scalar
        } else {
            Kind::Rel(schema)
        }
    }

    fn mat_or_scalar(shape: Shape) -> Kind {
        if shape.is_scalar() {
            Kind::Scalar
        } else {
            Kind::Mat(shape)
        }
    }
}

/// The per-class invariant value.
#[derive(Clone, Debug, PartialEq)]
pub struct Meta {
    pub kind: Kind,
    pub sparsity: f64,
    pub constant: Option<f64>,
}

impl Meta {
    fn unknown() -> Meta {
        Meta {
            kind: Kind::Unknown,
            sparsity: 1.0,
            constant: None,
        }
    }

    /// Estimated number of non-zero entries.
    pub fn nnz(&self) -> f64 {
        self.kind.size() * self.sparsity
    }
}

/// The SPORES analysis: resolves symbols against a [`Context`] and
/// propagates the three invariants.
#[derive(Clone, Debug, Default)]
pub struct MetaAnalysis {
    pub ctx: Context,
}

impl MetaAnalysis {
    pub fn new(ctx: Context) -> Self {
        MetaAnalysis { ctx }
    }
}

/// The e-graph type used throughout the optimizer.
pub type MathGraph = EGraph<Math, MetaAnalysis>;

fn clamp01(s: f64) -> f64 {
    s.clamp(0.0, 1.0)
}

/// Schema of an operand viewed as a relation (scalars have empty schema).
fn rel_schema(meta: &Meta) -> Option<Schema> {
    match &meta.kind {
        Kind::Scalar => Some(vec![]),
        Kind::Rel(s) => Some(s.clone()),
        _ => None,
    }
}

/// Shape of an operand viewed as a matrix (scalars are 1×1).
fn mat_shape(meta: &Meta) -> Option<Shape> {
    match &meta.kind {
        Kind::Scalar => Some(Shape::scalar()),
        Kind::Mat(s) => Some(*s),
        _ => None,
    }
}

impl Analysis<Math> for MetaAnalysis {
    type Data = Meta;

    fn make(egraph: &EGraph<Math, Self>, enode: &Math) -> Meta {
        use Math::*;
        let d = |id: &Id| -> &Meta { &egraph.class(*id).data };
        let ctx = &egraph.analysis.ctx;

        // point-wise binary: schema/shape broadcast, custom sparsity,
        // constant folding through `fold`
        let pointwise2 = |a: &Meta, b: &Meta, sp: f64, fold: Option<f64>| -> Meta {
            let kind = match (rel_schema(a), rel_schema(b)) {
                (Some(sa), Some(sb)) => Kind::rel_or_scalar(schema_union(&sa, &sb)),
                _ => match (mat_shape(a), mat_shape(b)) {
                    (Some(sa), Some(sb)) => match spores_ir::shape::broadcast(sa, sb) {
                        Some(s) => Kind::mat_or_scalar(s),
                        None => Kind::Unknown,
                    },
                    _ => Kind::Unknown,
                },
            };
            Meta {
                kind,
                sparsity: clamp01(sp),
                constant: fold,
            }
        };
        let fold2 = |a: &Meta, b: &Meta, f: fn(f64, f64) -> f64| -> Option<f64> {
            match (a.constant, b.constant) {
                (Some(x), Some(y)) => Some(f(x, y)),
                _ => None,
            }
        };
        // point-wise unary: schema/shape preserved
        let pointwise1 = |a: &Meta, sp: f64, fold: Option<f64>| -> Meta {
            Meta {
                kind: a.kind.clone(),
                sparsity: clamp01(sp),
                constant: fold,
            }
        };

        match enode {
            Sym(s) => {
                if let Some(&dim) = ctx.index_dims.get(s) {
                    Meta {
                        kind: Kind::Index { sym: *s, dim },
                        sparsity: 1.0,
                        constant: None,
                    }
                } else if let Some(v) = ctx.vars.get(s) {
                    Meta {
                        kind: Kind::mat_or_scalar(v.shape),
                        sparsity: v.sparsity,
                        constant: None,
                    }
                } else {
                    Meta::unknown()
                }
            }
            NoIdx => Meta {
                kind: Kind::Index {
                    sym: Symbol::new("_"),
                    dim: 1,
                },
                sparsity: 1.0,
                constant: None,
            },
            Lit(n) => Meta {
                kind: Kind::Scalar,
                sparsity: if n.get() == 0.0 { 0.0 } else { 1.0 },
                constant: Some(n.get()),
            },
            Dim(i) => match d(i).kind {
                Kind::Index { dim, .. } => Meta {
                    kind: Kind::Scalar,
                    sparsity: 1.0,
                    constant: Some(dim as f64),
                },
                _ => Meta::unknown(),
            },
            Bind([i, j, a]) => {
                let mut schema = Schema::new();
                for idx in [i, j] {
                    if let Kind::Index { sym, dim } = d(idx).kind {
                        if sym != Symbol::new("_") {
                            schema.push((sym, dim));
                        }
                    } else {
                        return Meta::unknown();
                    }
                }
                schema.sort_unstable();
                let a = d(a);
                Meta {
                    kind: Kind::rel_or_scalar(schema),
                    sparsity: a.sparsity,
                    constant: a.constant,
                }
            }
            Unbind([i, j, a]) => {
                let dim_of = |idx: &Id| -> Option<u64> {
                    match d(idx).kind {
                        Kind::Index { dim, .. } => Some(dim),
                        _ => None,
                    }
                };
                match (dim_of(i), dim_of(j)) {
                    (Some(r), Some(c)) => {
                        let a = d(a);
                        Meta {
                            kind: Kind::mat_or_scalar(Shape::new(r, c)),
                            sparsity: a.sparsity,
                            constant: a.constant,
                        }
                    }
                    _ => Meta::unknown(),
                }
            }

            // ---- RA ----
            Add([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity + b.sparsity, fold2(a, b, |x, y| x + y))
            }
            Mul([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity.min(b.sparsity), fold2(a, b, |x, y| x * y))
            }
            Agg([i, body]) => {
                let (dim, sym) = match d(i).kind {
                    Kind::Index { sym, dim } => (dim, sym),
                    _ => return Meta::unknown(),
                };
                let body = d(body);
                match rel_schema(body) {
                    Some(schema) => {
                        let reduced: Schema =
                            schema.iter().copied().filter(|&(s, _)| s != sym).collect();
                        // Figure 12: S[Σ_i X] = min(1, |i| · S[X])
                        let sparsity = clamp01(dim as f64 * body.sparsity);
                        let constant = if schema.is_empty() {
                            // Σ_i c = c · dim(i) (rule 5 on constants)
                            body.constant.map(|c| c * dim as f64)
                        } else {
                            None
                        };
                        Meta {
                            kind: Kind::rel_or_scalar(reduced),
                            sparsity,
                            constant,
                        }
                    }
                    None => Meta::unknown(),
                }
            }

            // ---- LA ----
            LAdd([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity + b.sparsity, fold2(a, b, |x, y| x + y))
            }
            LSub([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity + b.sparsity, fold2(a, b, |x, y| x - y))
            }
            LMul([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity.min(b.sparsity), fold2(a, b, |x, y| x * y))
            }
            LDiv([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity, fold2(a, b, |x, y| x / y))
            }
            MMul([a, b]) => {
                let (a, b) = (d(a), d(b));
                match (mat_shape(a), mat_shape(b)) {
                    (Some(sa), Some(sb)) if sa.cols == sb.rows => Meta {
                        kind: Kind::mat_or_scalar(Shape::new(sa.rows, sb.cols)),
                        sparsity: clamp01(a.sparsity * b.sparsity * sa.cols as f64),
                        constant: fold2(a, b, |x, y| x * y)
                            .filter(|_| sa.is_scalar() && sb.is_scalar()),
                    },
                    _ => Meta::unknown(),
                }
            }
            LTrs(a) => {
                let a = d(a);
                match mat_shape(a) {
                    Some(s) => Meta {
                        kind: Kind::mat_or_scalar(s.transposed()),
                        sparsity: a.sparsity,
                        constant: a.constant,
                    },
                    None => Meta::unknown(),
                }
            }
            Srow(a) => {
                let a = d(a);
                match mat_shape(a) {
                    Some(s) => Meta {
                        kind: Kind::mat_or_scalar(Shape::new(s.rows, 1)),
                        sparsity: clamp01(a.sparsity * s.cols as f64),
                        constant: a.constant.filter(|_| s.is_scalar()),
                    },
                    None => Meta::unknown(),
                }
            }
            Scol(a) => {
                let a = d(a);
                match mat_shape(a) {
                    Some(s) => Meta {
                        kind: Kind::mat_or_scalar(Shape::new(1, s.cols)),
                        sparsity: clamp01(a.sparsity * s.rows as f64),
                        constant: a.constant.filter(|_| s.is_scalar()),
                    },
                    None => Meta::unknown(),
                }
            }
            Sall(a) => {
                let a = d(a);
                match mat_shape(a) {
                    Some(s) => Meta {
                        kind: Kind::Scalar,
                        sparsity: clamp01(a.sparsity * s.nelem() as f64),
                        constant: a.constant.filter(|_| s.is_scalar()),
                    },
                    None => Meta::unknown(),
                }
            }

            // ---- point-wise functions ----
            Pow([a, k]) => {
                let (a, k) = (d(a), d(k));
                // 0^k = 0 for k > 0, so sparsity is preserved
                let fold = fold2(a, k, f64::powf);
                pointwise1(a, a.sparsity, fold)
            }
            Inv(a) => {
                let a = d(a);
                pointwise1(a, 1.0, a.constant.map(|c| 1.0 / c))
            }
            Exp(a) => {
                let a = d(a);
                pointwise1(a, 1.0, a.constant.map(f64::exp))
            }
            Log(a) => {
                let a = d(a);
                pointwise1(a, 1.0, a.constant.map(f64::ln))
            }
            Sqrt(a) => {
                let a = d(a);
                pointwise1(a, a.sparsity, a.constant.map(f64::sqrt))
            }
            Abs(a) => {
                let a = d(a);
                pointwise1(a, a.sparsity, a.constant.map(f64::abs))
            }
            Sign(a) => {
                let a = d(a);
                pointwise1(a, a.sparsity, a.constant.map(f64::signum))
            }
            Sigmoid(a) => {
                let a = d(a);
                pointwise1(a, 1.0, a.constant.map(|c| 1.0 / (1.0 + (-c).exp())))
            }
            Sprop(a) => {
                let a = d(a);
                pointwise1(a, a.sparsity, a.constant.map(|c| c * (1.0 - c)))
            }
            Gt([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, 1.0, fold2(a, b, |x, y| f64::from(x > y)))
            }
            Lt([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, 1.0, fold2(a, b, |x, y| f64::from(x < y)))
            }
            Ge([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, 1.0, fold2(a, b, |x, y| f64::from(x >= y)))
            }
            Le([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, 1.0, fold2(a, b, |x, y| f64::from(x <= y)))
            }
            BMin([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity + b.sparsity, fold2(a, b, f64::min))
            }
            BMax([a, b]) => {
                let (a, b) = (d(a), d(b));
                pointwise2(a, b, a.sparsity + b.sparsity, fold2(a, b, f64::max))
            }
        }
    }

    fn merge(&mut self, a: &mut Meta, b: Meta) -> DidMerge {
        let mut did = DidMerge(false, false);

        // kind: Unknown is the bottom; otherwise keep `a` (schemas of
        // merged classes must agree — the schema invariant of §3.2).
        match (&a.kind, &b.kind) {
            (Kind::Unknown, k) if *k != Kind::Unknown => {
                a.kind = b.kind.clone();
                did.0 = true;
            }
            (k, Kind::Unknown) if *k != Kind::Unknown => {
                did.1 = true;
            }
            (ka, kb) => {
                debug_assert_eq!(ka, kb, "schema invariant violated: merged classes disagree");
            }
        }

        // sparsity: both estimates bound the true value; keep the tighter.
        if b.sparsity < a.sparsity {
            a.sparsity = b.sparsity;
            did.0 = true;
        } else if a.sparsity < b.sparsity {
            did.1 = true;
        }

        // constants: equal expressions must fold to the same value.
        match (a.constant, b.constant) {
            (None, Some(c)) => {
                a.constant = Some(c);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            (Some(x), Some(y)) => {
                debug_assert!(
                    (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
                    "constant-folding conflict: {x} vs {y}"
                );
            }
            (None, None) => {}
        }
        did
    }

    fn modify(egraph: &mut EGraph<Math, Self>, id: Id) {
        // Integrated constant folding (§3.2): as soon as a scalar class
        // has a known constant value, materialize the literal in-class.
        let data = &egraph.class(id).data;
        if data.kind == Kind::Scalar {
            if let Some(c) = data.constant {
                if c.is_finite() {
                    let lit = egraph.add(Math::lit(c));
                    egraph.union(id, lit);
                }
            }
        }
    }
}

/// Rule-condition helper: is index `i` (an e-class of kind `Index`)
/// absent from the free attributes of class `a`? Conservative: `false`
/// when the schema is unknown.
pub fn index_not_in_schema(egraph: &MathGraph, i: Id, a: Id) -> bool {
    let sym = match egraph.class(i).data.kind {
        Kind::Index { sym, .. } => sym,
        _ => return false,
    };
    match egraph.class(a).data.kind.attrs() {
        Some(attrs) => !attrs.contains(&sym),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_math;

    fn ctx() -> Context {
        Context::new()
            .with_var("X", VarMeta::sparse(100, 50, 0.01))
            .with_var("U", VarMeta::dense(100, 1))
            .with_var("V", VarMeta::dense(50, 1))
            .with_index("i", 100)
            .with_index("j", 50)
    }

    fn graph_with(src: &str) -> (MathGraph, Id) {
        let mut eg = MathGraph::new(MetaAnalysis::new(ctx()));
        let e = parse_math(src).unwrap();
        let id = eg.add_expr(&e);
        eg.rebuild();
        (eg, id)
    }

    #[test]
    fn bind_gives_schema() {
        let (eg, id) = graph_with("(b i j X)");
        let meta = &eg.class(id).data;
        assert_eq!(
            meta.kind,
            Kind::Rel(vec![(Symbol::new("i"), 100), (Symbol::new("j"), 50)])
        );
        assert_eq!(meta.sparsity, 0.01);
        assert_eq!(meta.nnz(), 50.0);
    }

    #[test]
    fn vector_bind_single_attr() {
        let (eg, id) = graph_with("(b i _ U)");
        assert_eq!(
            eg.class(id).data.kind,
            Kind::Rel(vec![(Symbol::new("i"), 100)])
        );
    }

    #[test]
    fn join_sparsity_is_min() {
        let (eg, id) = graph_with("(* (b i j X) (* (b i _ U) (b j _ V)))");
        let meta = &eg.class(id).data;
        assert_eq!(meta.sparsity, 0.01);
        assert_eq!(
            meta.kind,
            Kind::Rel(vec![(Symbol::new("i"), 100), (Symbol::new("j"), 50)])
        );
    }

    #[test]
    fn union_sparsity_is_sum() {
        let (eg, id) = graph_with("(+ (b i j X) (b i j X))");
        assert_eq!(eg.class(id).data.sparsity, 0.02);
    }

    #[test]
    fn agg_removes_attr_and_scales_sparsity() {
        let (eg, id) = graph_with("(sum j (b i j X))");
        let meta = &eg.class(id).data;
        assert_eq!(meta.kind, Kind::Rel(vec![(Symbol::new("i"), 100)]));
        assert_eq!(meta.sparsity, 0.5); // min(1, 50 * 0.01)
    }

    #[test]
    fn full_agg_is_scalar() {
        let (eg, id) = graph_with("(sum i (sum j (b i j X)))");
        assert_eq!(eg.class(id).data.kind, Kind::Scalar);
    }

    #[test]
    fn constant_folding_adds_literal() {
        let (eg, id) = graph_with("(* 3 (+ 1 1))");
        let meta = &eg.class(id).data;
        assert_eq!(meta.constant, Some(6.0));
        // the literal 6 must now be in the class
        let lit = parse_math("6").unwrap();
        assert_eq!(eg.lookup_expr(&lit), Some(eg.find(id)));
    }

    #[test]
    fn dim_is_constant() {
        let (eg, id) = graph_with("(dim i)");
        assert_eq!(eg.class(id).data.constant, Some(100.0));
    }

    #[test]
    fn agg_of_scalar_multiplies_by_dim() {
        // Σ_i 5 = 5 * dim(i) = 500 (the rule-5 example from §2.2)
        let (eg, id) = graph_with("(sum i 5)");
        assert_eq!(eg.class(id).data.constant, Some(500.0));
    }

    #[test]
    fn la_shapes_and_sparsity() {
        let (eg, id) = graph_with("(m* X V)");
        let meta = &eg.class(id).data;
        assert_eq!(meta.kind, Kind::Mat(Shape::new(100, 1)));
        // min(1, 0.01 * 1.0 * 50)
        assert!((meta.sparsity - 0.5).abs() < 1e-12);

        let (eg, id) = graph_with("(t X)");
        assert_eq!(eg.class(id).data.kind, Kind::Mat(Shape::new(50, 100)));

        let (eg, id) = graph_with("(sall X)");
        assert_eq!(eg.class(id).data.kind, Kind::Scalar);
    }

    #[test]
    fn zero_literal_has_zero_sparsity() {
        let (eg, id) = graph_with("(* (b i j X) 0)");
        assert_eq!(eg.class(id).data.sparsity, 0.0);
    }

    #[test]
    fn merge_keeps_tighter_sparsity() {
        let mut eg = MathGraph::new(MetaAnalysis::new(ctx()));
        let dense = eg.add_expr(&parse_math("(+ (b i j X) (b i j X))").unwrap());
        let sparse = eg.add_expr(&parse_math("(* (b i j X) 2)").unwrap());
        let before = eg.class(dense).data.sparsity;
        assert!(before > eg.class(sparse).data.sparsity);
        eg.union(dense, sparse);
        eg.rebuild();
        assert_eq!(eg.class(dense).data.sparsity, 0.01);
    }

    #[test]
    fn condition_helper() {
        // i IS in the schema of (b i j X)
        let (mut eg, x) = graph_with("(b i j X)");
        let i = eg.add(Math::sym("i"));
        assert!(!index_not_in_schema(&eg, i, x));

        // i is NOT in the schema of (b j _ V)
        let (mut eg, v) = graph_with("(b j _ V)");
        let i = eg.add(Math::sym("i"));
        assert!(index_not_in_schema(&eg, i, v));

        // a non-index first argument never satisfies the condition
        let (mut eg, x) = graph_with("(b i j X)");
        let lit = eg.add(Math::lit(3.0));
        assert!(!index_not_in_schema(&eg, lit, x));
    }

    #[test]
    fn unknown_var_under_bind_still_has_schema() {
        // the schema comes from the bind's indices; only the sparsity is
        // unknown (conservatively dense)
        let (eg, id) = graph_with("(b i j Mystery)");
        assert_eq!(
            eg.class(id).data.kind,
            Kind::Rel(vec![(Symbol::new("i"), 100), (Symbol::new("j"), 50)])
        );
        assert_eq!(eg.class(id).data.sparsity, 1.0);

        // a bare unknown symbol is Unknown
        let (eg, id) = graph_with("Mystery2");
        assert_eq!(eg.class(id).data.kind, Kind::Unknown);
    }
}
