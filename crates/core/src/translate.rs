//! LA → RA lowering: the rules R_LR of Figure 2, applied as a
//! deterministic compiler pass.
//!
//! Every LA operator is replaced by its relational reading — element-wise
//! multiply becomes natural join, addition becomes union, aggregates
//! become `Σ`, matrix multiply becomes an aggregated join — with `bind`
//! operators appearing only at the leaves and all `unbind∘bind` pairs
//! eliminated by rename propagation (§2.1: "it eliminates consecutive
//! unbind/bind operators, possibly renaming attributes").
//!
//! Index names are minted fresh (`i0`, `i1`, …), but a translated LA node
//! is memoized and reused wherever the DAG shares it, so one index name
//! can play two roles: in `t(U) %*% (U %*% t(V) - X)` the column index of
//! `U` is summed away inside the right operand and free in the left one.
//! The "(else rename i)" proviso of rule 3 is therefore kept where two
//! fragments are aligned (`Translator::align`): every join and union the
//! translator builds is *capture-free* — no index free in one operand is
//! bound by a `Σ` anywhere in the other — so guards such as
//! `push-join-agg`'s `i ∉ Attr(A)` never refuse over a name clash alone.

use crate::analysis::{Context, VarMeta};
use crate::lang::{Math, MathExpr};
use spores_egraph::{FxHashMap, FxHashSet, Id, Language};
use spores_ir::{ExprArena, LaNode, NodeId, Shape, Symbol};
use std::collections::HashMap;
use std::fmt;

/// The result of translating an LA expression.
#[derive(Clone, Debug)]
pub struct Translation {
    /// The relational plan (pure RA: join/union/aggregate/point-wise).
    pub expr: MathExpr,
    /// Row attribute of the result (`None` when the row dimension is 1).
    pub row: Option<Symbol>,
    /// Column attribute of the result (`None` when the col dimension is 1).
    pub col: Option<Symbol>,
    /// Shape of the result in LA terms.
    pub shape: Shape,
    /// Analysis context: variable metadata plus the dimensions of every
    /// index the translation minted.
    pub ctx: Context,
}

/// Translation failure (currently only shape errors).
#[derive(Clone, Debug)]
pub struct TranslateError(pub String);

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translate error: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

impl TranslateError {
    /// The error as reported for statement `name` of a workload.
    pub(crate) fn in_statement(self, name: Symbol) -> TranslateError {
        TranslateError(format!("{name}: {}", self.0))
    }
}

/// A translated fragment: a node in the RA expression plus the attribute
/// names of its (up to two) free dimensions.
#[derive(Copy, Clone, Debug)]
struct Frag {
    id: Id,
    row: Option<Symbol>,
    col: Option<Symbol>,
}

/// Hash-consing builder over a [`MathExpr`] so renamed copies share
/// structure.
#[derive(Default)]
struct Builder {
    expr: MathExpr,
    memo: FxHashMap<Math, Id>,
}

impl Builder {
    fn add(&mut self, node: Math) -> Id {
        if let Some(&id) = self.memo.get(&node) {
            return id;
        }
        let id = self.expr.add(node.clone());
        self.memo.insert(node, id);
        id
    }

    fn lit(&mut self, v: f64) -> Id {
        self.add(Math::lit(v))
    }

    fn sym(&mut self, s: Symbol) -> Id {
        self.add(Math::Sym(s))
    }

    fn idx(&mut self, s: Option<Symbol>) -> Id {
        match s {
            Some(s) => self.sym(s),
            None => self.add(Math::NoIdx),
        }
    }

    /// Copy the sub-term at `id`, renaming every occurrence of the index
    /// symbols in `map` — free attributes and `Σ` binders alike. The copy
    /// is capture-free only if `map` is injective on the symbols of the
    /// sub-term and its targets are not bound there; [`Translator::align`]
    /// builds maps that are.
    fn rename(&mut self, id: Id, map: &HashMap<Symbol, Symbol>) -> Id {
        if map.is_empty() {
            return id;
        }
        let mut cache: FxHashMap<Id, Id> = FxHashMap::default();
        self.rename_rec(id, map, &mut cache)
    }

    fn rename_rec(
        &mut self,
        id: Id,
        map: &HashMap<Symbol, Symbol>,
        cache: &mut FxHashMap<Id, Id>,
    ) -> Id {
        if let Some(&done) = cache.get(&id) {
            return done;
        }
        let node = self.expr.node(id).clone();
        let new = match node {
            Math::Sym(s) => {
                let s = map.get(&s).copied().unwrap_or(s);
                self.sym(s)
            }
            other => {
                let mapped = other.map_children(|c| self.rename_rec(c, map, cache));
                self.add(mapped)
            }
        };
        cache.insert(id, new);
        new
    }
}

struct Translator<'a> {
    arena: &'a ExprArena,
    shapes: Vec<Option<Shape>>,
    vars: &'a HashMap<Symbol, VarMeta>,
    builder: Builder,
    index_dims: FxHashMap<Symbol, u64>,
    counter: usize,
    memo: FxHashMap<NodeId, Frag>,
    /// Memoized facts of built fragments (see [`Translator::reach`]).
    reach: FxHashMap<Id, Reach>,
}

/// What aligning a built fragment needs to know about it.
struct Reach {
    /// Number of reachable nodes: the amount of structure a rename copies.
    size: usize,
    /// The `Σ` binders anywhere in the fragment, sorted.
    binders: Vec<Symbol>,
}

/// One translated root: relational plan, result `(row, col)` attributes,
/// LA shape.
pub(crate) type RootPlan = (MathExpr, Option<Symbol>, Option<Symbol>, Shape);

/// Translate `roots` through ONE translator — the body of
/// [`translate_workload`], without the statement names: a shape error
/// carries the position of the offending root instead.
pub(crate) fn translate_roots(
    arena: &ExprArena,
    roots: &[NodeId],
    vars: &HashMap<Symbol, VarMeta>,
) -> Result<(Vec<RootPlan>, Context), (usize, TranslateError)> {
    let mut tr = Translator::new(arena, roots, vars)?;
    // RecExpr extraction re-numbers nodes per root; sharing is restored
    // when the roots are added to one hash-consing e-graph.
    let plans = roots
        .iter()
        .map(|&root| {
            let f = tr.tr(root);
            let expr = MathExpr::extract(&tr.builder.expr, f.id);
            (expr, f.row, f.col, tr.shape(root))
        })
        .collect();
    Ok((plans, tr.into_context()))
}

impl<'a> Translator<'a> {
    /// A translator over the sub-DAGs of `roots` (which the arena may
    /// interleave): every reachable node's shape inferred, nothing
    /// translated yet. A shape error comes back with the position of the
    /// root it was found under.
    fn new(
        arena: &'a ExprArena,
        roots: &[NodeId],
        vars: &'a HashMap<Symbol, VarMeta>,
    ) -> Result<Self, (usize, TranslateError)> {
        let env: spores_ir::ShapeEnv = vars.iter().map(|(&k, v)| (k, v.shape)).collect();
        let mut shapes: Vec<Option<Shape>> = Vec::new();
        for (i, &root) in roots.iter().enumerate() {
            let inferred = arena
                .infer_shapes(root, &env)
                .map_err(|e| (i, TranslateError(e.to_string())))?;
            if i == 0 {
                shapes = inferred;
            } else {
                for (known, s) in shapes.iter_mut().zip(inferred) {
                    *known = known.or(s);
                }
            }
        }
        Ok(Translator {
            arena,
            shapes,
            vars,
            builder: Builder::default(),
            index_dims: FxHashMap::default(),
            counter: 0,
            memo: FxHashMap::default(),
            reach: FxHashMap::default(),
        })
    }

    /// The analysis context of what was translated: the variable
    /// metadata plus the dimension of every index minted.
    fn into_context(self) -> Context {
        let mut ctx = Context::new();
        for (&name, &meta) in self.vars {
            ctx.vars.insert(name, meta);
        }
        ctx.index_dims = self.index_dims;
        ctx
    }

    /// Package `frag`, shaped like the LA node `like`, as a [`Translation`].
    fn finish(self, like: NodeId, frag: Frag) -> Translation {
        Translation {
            // the RecExpr root must be the last node: extract the
            // reachable sub-term to guarantee it
            expr: MathExpr::extract(&self.builder.expr, frag.id),
            row: frag.row,
            col: frag.col,
            shape: self.shape(like),
            ctx: self.into_context(),
        }
    }

    fn fresh(&mut self, dim: u64) -> Symbol {
        loop {
            let s = Symbol::new(&format!("i{}", self.counter));
            self.counter += 1;
            // avoid collisions with user matrix names like `i0`
            if !self.vars.contains_key(&s) {
                self.index_dims.insert(s, dim);
                return s;
            }
        }
    }

    fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id.index()].expect("shape inferred for reachable node")
    }

    /// The size and the `Σ` binders of the builder expression at `id`.
    /// Builder nodes are immutable once added, so results are memoized
    /// per id (large shared fragments are re-queried by every consuming
    /// statement).
    fn reach(&mut self, id: Id) -> &Reach {
        if !self.reach.contains_key(&id) {
            let expr = &self.builder.expr;
            let mut seen: FxHashSet<Id> = FxHashSet::default();
            let mut binders = Vec::new();
            let mut stack = vec![id];
            while let Some(n) = stack.pop() {
                if seen.insert(n) {
                    let node = expr.node(n);
                    if let Math::Agg([i, _]) = node {
                        if let Math::Sym(s) = expr.node(*i) {
                            binders.push(*s);
                        }
                    }
                    stack.extend(node.children().iter().copied());
                }
            }
            binders.sort_unstable();
            binders.dedup();
            let size = seen.len();
            self.reach.insert(id, Reach { size, binders });
        }
        &self.reach[&id]
    }

    /// Whether `a` is the smaller fragment, and so the side to rename:
    /// large fragments — possibly shared across statements of a workload
    /// — stay byte-identical, so cross-statement CSE survives attribute
    /// alignment.
    fn smaller(&mut self, a: Id, b: Id) -> bool {
        self.reach(a).size < self.reach(b).size
    }

    /// Whether a `Σ` anywhere in the fragment at `id` binds `s`.
    fn binds(&mut self, id: Id, s: Symbol) -> bool {
        self.reach(id).binders.binary_search(&s).is_ok()
    }

    /// Rename `mv` so it can be joined or united with `keep`, and return
    /// it with its attributes renamed. Each `(m, k)` of `pairs` aligns the
    /// free attribute `m` of `mv` onto the free attribute `k` of `keep`;
    /// the renaming is capture-free (module docs):
    ///
    /// * a free attribute of `mv` that is not aligned is freshened when
    ///   `keep` has it free (the two would collapse into one attribute,
    ///   as in the self-contraction `t(X) %*% X`) or binds it;
    /// * a `Σ` binder of `mv` that `keep` has free is freshened, so no
    ///   alignment target is captured.
    ///
    /// Freshening goes in the order of `mv`'s attributes and then `keep`'s,
    /// so the names minted do not depend on hash iteration order.
    fn align(&mut self, mv: Frag, keep: Frag, pairs: &[(Symbol, Symbol)]) -> Frag {
        let mut map: HashMap<Symbol, Symbol> =
            pairs.iter().filter(|(m, k)| m != k).copied().collect();
        let aligned = |s: Symbol| pairs.iter().any(|&(m, _)| m == s);
        for m in [mv.row, mv.col].into_iter().flatten() {
            if !aligned(m) && (keep.row == Some(m) || keep.col == Some(m) || self.binds(keep.id, m))
            {
                let fresh = self.fresh(self.index_dims[&m]);
                map.insert(m, fresh);
            }
        }
        for k in [keep.row, keep.col].into_iter().flatten() {
            if !aligned(k) && !map.contains_key(&k) && self.binds(mv.id, k) {
                let fresh = self.fresh(self.index_dims[&k]);
                map.insert(k, fresh);
            }
        }
        let renamed = |s: Option<Symbol>| s.map(|s| map.get(&s).copied().unwrap_or(s));
        Frag {
            id: self.builder.rename(mv.id, &map),
            row: renamed(mv.row),
            col: renamed(mv.col),
        }
    }

    /// Align `a` and `b` for an element-wise (broadcasting) operation:
    /// rename the smaller fragment's attributes onto the larger one's
    /// and return the fragment ids (in operand order) plus the result
    /// attributes.
    fn unify(&mut self, a: Frag, b: Frag) -> (Id, Id, Option<Symbol>, Option<Symbol>) {
        let rename_a = self.smaller(a.id, b.id);
        let (keep, mv) = if rename_a { (b, a) } else { (a, b) };
        let pairs: Vec<(Symbol, Symbol)> = [(mv.row, keep.row), (mv.col, keep.col)]
            .into_iter()
            .filter_map(|(m, k)| Some((m?, k?)))
            .collect();
        let moved = self.align(mv, keep, &pairs);
        let (row, col) = (keep.row.or(moved.row), keep.col.or(moved.col));
        if rename_a {
            (moved.id, keep.id, row, col)
        } else {
            (keep.id, moved.id, row, col)
        }
    }

    fn pointwise2(&mut self, a: Frag, b: Frag, mk: impl FnOnce([Id; 2]) -> Math) -> Frag {
        let (a_id, b_id, row, col) = self.unify(a, b);
        let id = self.builder.add(mk([a_id, b_id]));
        Frag { id, row, col }
    }

    fn agg(&mut self, over: Option<Symbol>, body: Id) -> Id {
        match over {
            Some(s) => {
                let i = self.builder.sym(s);
                self.builder.add(Math::Agg([i, body]))
            }
            None => body,
        }
    }

    fn tr(&mut self, id: NodeId) -> Frag {
        if let Some(&f) = self.memo.get(&id) {
            return f;
        }
        let shape = self.shape(id);
        let frag = match *self.arena.node(id) {
            LaNode::Var(v) => {
                let row = (shape.rows > 1).then(|| self.fresh(shape.rows));
                let col = (shape.cols > 1).then(|| self.fresh(shape.cols));
                let (ri, ci) = (self.builder.idx(row), self.builder.idx(col));
                let x = self.builder.sym(v);
                let id = self.builder.add(Math::Bind([ri, ci, x]));
                Frag { id, row, col }
            }
            LaNode::Scalar(n) => Frag {
                id: self.builder.lit(n.get()),
                row: None,
                col: None,
            },
            LaNode::Fill(n, rows, cols) => {
                // matrix(v, m, n): a constant joined with nothing — its
                // schema still spans fresh indices so unions/aggregates
                // see the right dimensions.
                let row = (rows > 1).then(|| self.fresh(rows));
                let col = (cols > 1).then(|| self.fresh(cols));
                let lit = self.builder.lit(n.get());
                // Σ-compatible representation: the literal broadcast over
                // the (row, col) space; pure literals have empty schema,
                // which is exactly the broadcast semantics of K-relations.
                Frag { id: lit, row, col }
            }
            LaNode::Un(op, a) => {
                let fa = self.tr(a);
                use spores_ir::UnOp::*;
                match op {
                    T => Frag {
                        id: fa.id,
                        row: fa.col,
                        col: fa.row,
                    },
                    RowSums => {
                        let id = self.agg(fa.col, fa.id);
                        Frag {
                            id,
                            row: fa.row,
                            col: None,
                        }
                    }
                    ColSums => {
                        let id = self.agg(fa.row, fa.id);
                        Frag {
                            id,
                            row: None,
                            col: fa.col,
                        }
                    }
                    Sum => {
                        let inner = self.agg(fa.col, fa.id);
                        let id = self.agg(fa.row, inner);
                        Frag {
                            id,
                            row: None,
                            col: None,
                        }
                    }
                    Neg => {
                        let m1 = self.builder.lit(-1.0);
                        let id = self.builder.add(Math::Mul([m1, fa.id]));
                        Frag { id, ..fa }
                    }
                    Exp => self.map1(fa, Math::Exp),
                    Log => self.map1(fa, Math::Log),
                    Sqrt => self.map1(fa, Math::Sqrt),
                    Abs => self.map1(fa, Math::Abs),
                    Sign => self.map1(fa, Math::Sign),
                    Sigmoid => self.map1(fa, Math::Sigmoid),
                    Sprop => self.map1(fa, Math::Sprop),
                }
            }
            LaNode::Bin(op, a, b) => {
                let fa = self.tr(a);
                let fb = self.tr(b);
                use spores_ir::BinOp::*;
                match op {
                    Add => self.pointwise2(fa, fb, Math::Add),
                    Sub => {
                        let m1 = self.builder.lit(-1.0);
                        let neg = self.builder.add(Math::Mul([m1, fb.id]));
                        self.pointwise2(fa, Frag { id: neg, ..fb }, Math::Add)
                    }
                    Mul => self.pointwise2(fa, fb, Math::Mul),
                    Div => {
                        let inv = self.builder.add(Math::Inv(fb.id));
                        self.pointwise2(fa, Frag { id: inv, ..fb }, Math::Mul)
                    }
                    Pow => self.pointwise2(fa, fb, Math::Pow),
                    MatMul => {
                        // A(i,k) · B(k,j): align the contraction attrs,
                        // join, aggregate the shared attr. As in `unify`,
                        // the smaller fragment is the one renamed.
                        let rename_a = self.smaller(fa.id, fb.id);
                        let (keep, mv) = if rename_a { (fb, fa) } else { (fa, fb) };
                        let pairs: Vec<(Symbol, Symbol)> = match (fa.col, fb.row) {
                            (Some(ka), Some(kb)) if rename_a => vec![(ka, kb)],
                            (Some(ka), Some(kb)) => vec![(kb, ka)],
                            _ => vec![],
                        };
                        let moved = self.align(mv, keep, &pairs);
                        let (a, b) = if rename_a { (moved, fb) } else { (fa, moved) };
                        let prod = self.builder.add(Math::Mul([a.id, b.id]));
                        let id = self.agg(a.col.or(b.row), prod);
                        Frag {
                            id,
                            row: a.row,
                            col: b.col,
                        }
                    }
                    Min => self.pointwise2(fa, fb, Math::BMin),
                    Max => self.pointwise2(fa, fb, Math::BMax),
                    Gt => self.pointwise2(fa, fb, Math::Gt),
                    Lt => self.pointwise2(fa, fb, Math::Lt),
                    Ge => self.pointwise2(fa, fb, Math::Ge),
                    Le => self.pointwise2(fa, fb, Math::Le),
                }
            }
        };
        self.memo.insert(id, frag);
        frag
    }

    fn map1(&mut self, a: Frag, mk: impl FnOnce(Id) -> Math) -> Frag {
        let id = self.builder.add(mk(a.id));
        Frag { id, ..a }
    }
}

/// Translate two LA expressions of identical shape with *aligned* result
/// attributes, packaged under a synthetic `+` root (so one `RecExpr`
/// carries both). Used by the Figure 14 derivation checks: feeding both
/// sides into one e-graph only makes sense when their free attributes
/// coincide.
pub fn translate_pair(
    arena: &ExprArena,
    lhs: NodeId,
    rhs: NodeId,
    vars: &HashMap<Symbol, VarMeta>,
) -> Result<Translation, TranslateError> {
    let mut tr = Translator::new(arena, &[lhs, rhs], vars).map_err(|(_, e)| e)?;
    let fl = tr.tr(lhs);
    let fr = tr.tr(rhs);
    // align rhs attributes onto lhs (they denote the same dimensions)
    let combined = tr.pointwise2(fl, fr, Math::Add);
    Ok(tr.finish(lhs, combined))
}

/// One statement of a translated workload: its relational plan plus the
/// result orientation, mirroring [`Translation`] per root.
#[derive(Clone, Debug)]
pub struct RootTranslation {
    pub name: Symbol,
    pub expr: MathExpr,
    pub row: Option<Symbol>,
    pub col: Option<Symbol>,
    pub shape: Shape,
}

/// The result of translating a whole workload bundle through ONE
/// translator: statements share fragments (and therefore index names)
/// wherever their LA DAGs share nodes, so adding every root to one
/// e-graph puts repeated subexpressions in the same e-class.
#[derive(Clone, Debug)]
pub struct WorkloadTranslation {
    pub roots: Vec<RootTranslation>,
    /// One analysis context covering every statement.
    pub ctx: Context,
}

/// Translate all roots of a workload bundle with a single translator.
///
/// `vars` must cover every leaf variable any root reads — for SSA
/// bundles that includes the version symbols defined by earlier roots
/// (with their estimated metadata), exactly like the per-statement
/// pipeline sees them.
pub fn translate_workload(
    arena: &ExprArena,
    roots: &[(Symbol, NodeId)],
    vars: &HashMap<Symbol, VarMeta>,
) -> Result<WorkloadTranslation, TranslateError> {
    let ids: Vec<NodeId> = roots.iter().map(|&(_, root)| root).collect();
    let (plans, ctx) =
        translate_roots(arena, &ids, vars).map_err(|(i, e)| e.in_statement(roots[i].0))?;
    let roots = roots
        .iter()
        .zip(plans)
        .map(|(&(name, _), (expr, row, col, shape))| RootTranslation {
            name,
            expr,
            row,
            col,
            shape,
        })
        .collect();
    Ok(WorkloadTranslation { roots, ctx })
}

/// Translate the LA expression rooted at `root` into a relational plan.
pub fn translate(
    arena: &ExprArena,
    root: NodeId,
    vars: &HashMap<Symbol, VarMeta>,
) -> Result<Translation, TranslateError> {
    let mut tr = Translator::new(arena, &[root], vars).map_err(|(_, e)| e)?;
    let frag = tr.tr(root);
    Ok(tr.finish(root, frag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_la, eval_ra, Tensor};
    use spores_ir::parse_expr;

    fn vars(list: &[(&str, (u64, u64))]) -> HashMap<Symbol, VarMeta> {
        list.iter()
            .map(|&(n, (r, c))| (Symbol::new(n), VarMeta::dense(r, c)))
            .collect()
    }

    fn tr(src: &str, vs: &[(&str, (u64, u64))]) -> Translation {
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, src).unwrap();
        translate(&arena, root, &vars(vs)).unwrap()
    }

    #[test]
    fn variable_binds_fresh_indices() {
        let t = tr("X", &[("X", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(b i0 i1 X)");
        assert!(t.row.is_some() && t.col.is_some());
        assert_eq!(t.ctx.index_dims.len(), 2);
    }

    #[test]
    fn scalar_variable_has_no_attrs() {
        let t = tr("s", &[("s", (1, 1))]);
        assert_eq!(t.expr.to_string(), "(b _ _ s)");
        assert!(t.row.is_none() && t.col.is_none());
    }

    #[test]
    fn transpose_swaps_attrs_without_nodes() {
        let t = tr("t(X)", &[("X", (3, 4))]);
        // transpose is pure attribute bookkeeping — no RA node at all
        assert_eq!(t.expr.to_string(), "(b i0 i1 X)");
        assert_eq!(t.shape, Shape::new(4, 3));
        // the row attribute of the result is X's column attribute
        let (row, col) = (t.row.unwrap(), t.col.unwrap());
        assert_eq!(t.ctx.index_dims[&row], 4);
        assert_eq!(t.ctx.index_dims[&col], 3);
    }

    #[test]
    fn elementwise_mul_is_join_with_aligned_attrs() {
        let t = tr("X * Y", &[("X", (3, 4)), ("Y", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(* (b i0 i1 X) (b i0 i1 Y))");
    }

    #[test]
    fn matmul_is_aggregated_join() {
        let t = tr("X %*% Y", &[("X", (3, 4)), ("Y", (4, 5))]);
        assert_eq!(t.expr.to_string(), "(sum i1 (* (b i0 i1 X) (b i1 i3 Y)))");
    }

    #[test]
    fn matvec_contracts_single_attr() {
        let t = tr("X %*% v", &[("X", (3, 4)), ("v", (4, 1))]);
        assert_eq!(t.expr.to_string(), "(sum i1 (* (b i0 i1 X) (b i1 _ v)))");
        assert!(t.col.is_none());
    }

    #[test]
    fn outer_product_has_no_aggregate() {
        let t = tr("u %*% t(v)", &[("u", (3, 1)), ("v", (4, 1))]);
        assert_eq!(t.expr.to_string(), "(* (b i0 _ u) (b i1 _ v))");
    }

    #[test]
    fn broadcasting_vector_keeps_matrix_attrs() {
        let t = tr("X * v", &[("X", (3, 4)), ("v", (3, 1))]);
        assert_eq!(t.expr.to_string(), "(* (b i0 i1 X) (b i0 _ v))");
        assert_eq!(t.shape, Shape::new(3, 4));
    }

    #[test]
    fn subtraction_becomes_negated_union() {
        // X's 1-node bind is the smaller fragment, so it is the side
        // renamed onto the (wrapped) Y fragment's attributes
        let t = tr("X - Y", &[("X", (3, 4)), ("Y", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(+ (b i2 i3 X) (* -1 (b i2 i3 Y)))");
    }

    #[test]
    fn division_becomes_join_with_reciprocal() {
        let t = tr("X / Y", &[("X", (3, 4)), ("Y", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(* (b i2 i3 X) (inv (b i2 i3 Y)))");
    }

    #[test]
    fn aggregates() {
        let t = tr("rowSums(X)", &[("X", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(sum i1 (b i0 i1 X))");
        let t = tr("colSums(X)", &[("X", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(sum i0 (b i0 i1 X))");
        let t = tr("sum(X)", &[("X", (3, 4))]);
        assert_eq!(t.expr.to_string(), "(sum i0 (sum i1 (b i0 i1 X)))");
    }

    #[test]
    fn headline_loss_translates() {
        // Figure 6 (left): sum((X − u vᵀ)²)
        let t = tr(
            "sum((X - u %*% t(v))^2)",
            &[("X", (30, 20)), ("u", (30, 1)), ("v", (20, 1))],
        );
        assert_eq!(
            t.expr.to_string(),
            "(sum i2 (sum i3 (pow (+ (b i2 i3 X) (* -1 (* (b i2 _ u) (b i3 _ v)))) 2)))"
        );
        assert!(t.row.is_none() && t.col.is_none());
    }

    #[test]
    fn shared_subexpressions_share_ra_nodes() {
        // (X*Y) + (X*Y): the LA DAG shares X*Y; the RA plan must too.
        let t = tr("(X * Y) + (X * Y)", &[("X", (3, 4)), ("Y", (3, 4))]);
        // (+ e e) with both children the same id
        let root = t.expr.root();
        let children: Vec<_> = t.expr.node(root).children().to_vec();
        assert_eq!(children[0], children[1]);
    }

    #[test]
    fn chain_matmul_uses_distinct_contraction_indices() {
        let t = tr(
            "A %*% B %*% C",
            &[("A", (2, 3)), ("B", (3, 4)), ("C", (4, 5))],
        );
        assert_eq!(
            t.expr.to_string(),
            "(sum i3 (* (sum i1 (* (b i0 i1 A) (b i1 i3 B))) (b i3 i5 C)))"
        );
    }

    #[test]
    fn shape_errors_propagate() {
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, "X %*% Y").unwrap();
        let vs = vars(&[("X", (3, 4)), ("Y", (5, 6))]);
        assert!(translate(&arena, root, &vs).is_err());
    }

    #[test]
    fn workload_translation_shares_fragments_across_statements() {
        // `W %*% H` in two statements must translate to the *same* RA
        // fragment (same indices), so one e-graph unifies them.
        let mut arena = ExprArena::new();
        let r1 = parse_expr(&mut arena, "sum(W %*% H)").unwrap();
        let r2 = parse_expr(&mut arena, "sum(X * log(W %*% H))").unwrap();
        let vs = vars(&[("W", (30, 4)), ("H", (4, 20)), ("X", (30, 20))]);
        let roots = vec![(Symbol::new("a"), r1), (Symbol::new("b"), r2)];
        let wt = translate_workload(&arena, &roots, &vs).unwrap();
        assert_eq!(wt.roots.len(), 2);
        let a = wt.roots[0].expr.to_string();
        let b = wt.roots[1].expr.to_string();
        // the aggregated-join fragment for W %*% H appears verbatim in both
        let product = "(sum i1 (* (b i0 i1 W) (b i1 i3 H)))";
        assert!(a.contains(product), "{a}");
        assert!(b.contains(product), "{b}");
        // and the context carries one dimension table for all statements
        assert!(wt.ctx.index_dims.len() >= 3);
    }

    #[test]
    fn workload_translation_matches_single_statement_translation() {
        let mut arena = ExprArena::new();
        let r1 = parse_expr(&mut arena, "sum((X - u %*% t(v))^2)").unwrap();
        let vs = vars(&[("X", (30, 20)), ("u", (30, 1)), ("v", (20, 1))]);
        let wt = translate_workload(&arena, &[(Symbol::new("loss"), r1)], &vs).unwrap();
        let single = translate(&arena, r1, &vs).unwrap();
        assert_eq!(wt.roots[0].expr.to_string(), single.expr.to_string());
        assert_eq!(wt.roots[0].shape, single.shape);
    }

    #[test]
    fn als_gradient_is_capture_free() {
        // `U` is one memoized fragment: its column index is summed away
        // in `U %*% t(V)`, so the left `t(U)` must keep a fresh one, or
        // `push-join-agg` can never pull the join under that `Σ`
        let t = tr(
            "t(t(U) %*% (U %*% t(V) - X))",
            &[("U", (20, 3)), ("V", (10, 3)), ("X", (20, 10))],
        );
        assert_eq!(
            t.expr.to_string(),
            "(sum i0 (* (b i0 i6 U) \
             (+ (sum i1 (* (b i0 i1 U) (b i2 i1 V))) (* -1 (b i0 i2 X)))))"
        );
        let (row, col) = (t.row.unwrap(), t.col.unwrap());
        assert_eq!((t.ctx.index_dims[&row], t.ctx.index_dims[&col]), (10, 3));
        // neither free attribute is bound anywhere in the plan
        for free in [row, col] {
            assert!(!t.expr.to_string().contains(&format!("(sum {free} ")));
        }
    }

    #[test]
    fn broadcast_operand_keeps_its_own_attrs() {
        // X square: `rowSums(t(X))` keeps X's column index as its row, so
        // aligning X's row onto it must move X's column out of the way,
        // or the product collapses onto the diagonal
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, "X * rowSums(t(X))").unwrap();
        let t = translate(&arena, root, &vars(&[("X", (3, 3))])).unwrap();
        assert_ne!(t.row, t.col);
        let x = Tensor::new(3, 3, (1..=9).map(f64::from).collect());
        let env = HashMap::from([(Symbol::new("X"), x)]);
        let dims = t
            .ctx
            .index_dims
            .iter()
            .map(|(&s, &d)| (s, d as usize))
            .collect();
        let got = eval_ra(&t.expr, t.row, t.col, &env, &dims).unwrap();
        assert!(eval_la(&arena, root, &env).unwrap().approx_eq(&got, 1e-12));
    }

    #[test]
    fn fresh_names_skip_colliding_variables() {
        // a matrix literally named `i0` must not clash with minted indices
        let t = tr("i0 * Z", &[("i0", (3, 4)), ("Z", (3, 4))]);
        assert!(!t.ctx.index_dims.contains_key(&Symbol::new("i0")));
        // and the plan still joins on aligned fresh attributes
        assert_eq!(t.expr.to_string(), "(* (b i1 i2 i0) (b i1 i2 Z))");
    }
}
