//! Property tests over random LA expressions:
//!
//! * translation (R_LR) preserves semantics (LA eval == RA eval),
//! * the translate→lower round trip preserves semantics,
//! * canonicalization preserves semantics (Lemma 2.1, numerically),
//! * canonical forms are invariant under the e-graph's rewrites,
//! * translation is capture-free where a product reuses one operand
//!   across its contraction (no index free in one operand of a join or
//!   union is bound by a `Σ` in another).

use proptest::prelude::*;
use spores_core::analysis::VarMeta;
use spores_core::eval::{eval_la, eval_ra, Tensor};
use spores_core::{canon_of_la, lower, polyterm_isomorphic, translate, Math, MathExpr};
use spores_egraph::{Id, Language};
use spores_ir::{ExprArena, NodeId, Symbol};
use std::collections::{BTreeSet, HashMap};

const R: usize = 3;
const C: usize = 4;

/// Random sum-product LA expression over X,Y (R×C), u (R×1), v (C×1).
/// Returns the arena + root. Generated by a small grammar keyed to
/// shapes so every expression is well-typed.
#[derive(Clone, Debug)]
enum Gen {
    X,
    Y,
    U,
    V,
    Scalar(i8),
    Add(Box<Gen>, Box<Gen>),
    Sub(Box<Gen>, Box<Gen>),
    Mul(Box<Gen>, Box<Gen>),
    OuterUV,
    MatVec(Box<Gen>),
    Sum(Box<Gen>),
    T(Box<Gen>),
    Pow2(Box<Gen>),
    /// `M %*% (t(M) %*% M)`: `M` on both sides of a contraction.
    Gram(Box<Gen>),
    /// `(M %*% t(N) - P %*% t(N)) %*% N`: the shape of ALS's `GU`.
    GradU(Box<Gen>, Box<Gen>, Box<Gen>),
    /// `t(t(M) %*% (M %*% t(N) - P %*% t(N)))`: the shape of ALS's `GV`.
    GradV(Box<Gen>, Box<Gen>, Box<Gen>),
}

fn mat_expr() -> impl Strategy<Value = Gen> {
    mat_expr_of_depth(3)
}

fn mat_expr_of_depth(depth: u32) -> impl Strategy<Value = Gen> {
    let leaf = prop_oneof![Just(Gen::X), Just(Gen::Y), Just(Gen::OuterUV)];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Gen::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Gen::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Gen::Mul(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Gen::Pow2(Box::new(a))),
            (-3i8..=3, inner.clone())
                .prop_map(|(s, a)| Gen::Mul(Box::new(Gen::Scalar(s)), Box::new(a))),
            // scalar factor Σ(u ⊙ (M v)) exercises Sum / MatVec / U / V
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Gen::Mul(
                Box::new(a),
                Box::new(Gen::Sum(Box::new(Gen::Mul(
                    Box::new(Gen::U),
                    Box::new(Gen::MatVec(Box::new(b))),
                )))),
            )),
            // scalar factor Σ(Mᵀ) exercises transpose under aggregation
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Gen::Mul(
                Box::new(a),
                Box::new(Gen::Sum(Box::new(Gen::Mul(
                    Box::new(Gen::T(Box::new(b))),
                    Box::new(Gen::V), // t(M) is C×R; v is C×1 and broadcasts
                )))),
            )),
            inner,
        ]
    })
}

/// Products of (small) composite matrices that share an operand across
/// the contraction, nested: the arena hash-conses, so every occurrence of
/// a shared operand reuses one translated fragment.
fn shared_contraction() -> impl Strategy<Value = Gen> {
    mat_expr_of_depth(1).prop_recursive(2, 24, 3, |inner| {
        let trio = (inner.clone(), inner.clone(), inner.clone());
        prop_oneof![
            inner.prop_map(|m| Gen::Gram(Box::new(m))),
            trio.clone()
                .prop_map(|(m, n, p)| Gen::GradU(Box::new(m), Box::new(n), Box::new(p))),
            trio.prop_map(|(m, n, p)| Gen::GradV(Box::new(m), Box::new(n), Box::new(p))),
        ]
    })
}

/// `M %*% t(N) - P %*% t(N)`, the residual both ALS gradients contract.
fn residual(m: &Gen, n: &Gen, p: &Gen, arena: &mut ExprArena) -> NodeId {
    let (m, n, p) = (build(m, arena), build(n, arena), build(p, arena));
    let tn = arena.t(n);
    let mn = arena.matmul(m, tn);
    let pn = arena.matmul(p, tn);
    arena.sub(mn, pn)
}

fn build(g: &Gen, arena: &mut ExprArena) -> NodeId {
    match g {
        Gen::X => arena.var("X"),
        Gen::Y => arena.var("Y"),
        Gen::U => arena.var("u"),
        Gen::V => arena.var("v"),
        Gen::Scalar(s) => arena.lit(f64::from(*s)),
        Gen::Add(a, b) => {
            let (a, b) = (build(a, arena), build(b, arena));
            arena.add(a, b)
        }
        Gen::Sub(a, b) => {
            let (a, b) = (build(a, arena), build(b, arena));
            arena.sub(a, b)
        }
        Gen::Mul(a, b) => {
            let (a, b) = (build(a, arena), build(b, arena));
            arena.mul(a, b)
        }
        Gen::OuterUV => {
            let u = arena.var("u");
            let v = arena.var("v");
            let tv = arena.t(v);
            arena.matmul(u, tv)
        }
        Gen::MatVec(a) => {
            let a = build(a, arena);
            let v = arena.var("v");
            arena.matmul(a, v)
        }
        Gen::Sum(a) => {
            let a = build(a, arena);
            arena.sum(a)
        }
        Gen::T(a) => {
            let a = build(a, arena);
            arena.t(a)
        }
        Gen::Pow2(a) => {
            let a = build(a, arena);
            let two = arena.lit(2.0);
            arena.pow(a, two)
        }
        Gen::Gram(m) => {
            let m = build(m, arena);
            let tm = arena.t(m);
            let gram = arena.matmul(tm, m);
            arena.matmul(m, gram)
        }
        Gen::GradU(m, n, p) => {
            let r = residual(m, n, p, arena);
            let n = build(n, arena);
            arena.matmul(r, n)
        }
        Gen::GradV(m, n, p) => {
            let r = residual(m, n, p, arena);
            let m = build(m, arena);
            let tm = arena.t(m);
            let g = arena.matmul(tm, r);
            arena.t(g)
        }
    }
}

/// The first node of `expr` with an index free in one operand and bound
/// by a `Σ` in another, rendered; `None` when the plan is capture-free.
fn capture(expr: &MathExpr) -> Option<String> {
    // (free attributes, Σ binders) per node: children precede parents
    let mut scope: Vec<(BTreeSet<Symbol>, BTreeSet<Symbol>)> = Vec::new();
    let sym = |id: &Id| match expr.node(*id) {
        Math::Sym(s) => Some(*s),
        _ => None,
    };
    for (ix, node) in expr.nodes().iter().enumerate() {
        let (mut free, mut bound) = (BTreeSet::new(), BTreeSet::new());
        match node {
            Math::Bind([i, j, _]) => free.extend([i, j].into_iter().filter_map(sym)),
            Math::Agg([i, body]) => {
                (free, bound) = scope[body.index()].clone();
                let i = sym(i).expect("Σ binds an index");
                free.remove(&i);
                bound.insert(i);
            }
            _ => {
                let kids = node.children();
                for a in kids {
                    for b in kids {
                        let (fa, bb) = (&scope[a.index()].0, &scope[b.index()].1);
                        if let Some(s) = fa.intersection(bb).next() {
                            let here = MathExpr::extract(expr, Id::from(ix));
                            return Some(format!("{s} is free and bound under {here}"));
                        }
                    }
                }
                for c in kids {
                    free.extend(&scope[c.index()].0);
                    bound.extend(&scope[c.index()].1);
                }
            }
        }
        scope.push((free, bound));
    }
    None
}

fn vars() -> HashMap<Symbol, VarMeta> {
    HashMap::from([
        (Symbol::new("X"), VarMeta::dense(R as u64, C as u64)),
        (Symbol::new("Y"), VarMeta::dense(R as u64, C as u64)),
        (Symbol::new("u"), VarMeta::dense(R as u64, 1)),
        (Symbol::new("v"), VarMeta::dense(C as u64, 1)),
    ])
}

fn tensors(seed: &[i8]) -> HashMap<Symbol, Tensor> {
    let pick = |n: usize, offset: usize| -> Vec<f64> {
        (0..n)
            .map(|i| f64::from(seed[(i + offset) % seed.len()]) / 2.0)
            .collect()
    };
    HashMap::from([
        (Symbol::new("X"), Tensor::new(R, C, pick(R * C, 0))),
        (Symbol::new("Y"), Tensor::new(R, C, pick(R * C, 3))),
        (Symbol::new("u"), Tensor::new(R, 1, pick(R, 1))),
        (Symbol::new("v"), Tensor::new(C, 1, pick(C, 5))),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn translation_preserves_semantics(
        g in mat_expr(),
        data in prop::collection::vec(-4i8..=4, 16..=16),
    ) {
        let mut arena = ExprArena::new();
        let matexpr = build(&g, &mut arena);
        let root = arena.sum(matexpr); // aggregate so result is scalar
        let env = tensors(&data);
        let want = eval_la(&arena, root, &env).unwrap();

        let tr = translate(&arena, root, &vars()).unwrap();
        let dims: HashMap<Symbol, usize> = tr
            .ctx
            .index_dims
            .iter()
            .map(|(&s, &d)| (s, d as usize))
            .collect();
        let got = eval_ra(&tr.expr, tr.row, tr.col, &env, &dims).unwrap();
        prop_assert!(want.approx_eq(&got, 1e-7), "{want:?} vs {got:?}");
    }

    #[test]
    fn shared_contractions_translate_capture_free(
        g in shared_contraction(),
        data in prop::collection::vec(-4i8..=4, 16..=16),
    ) {
        let mut arena = ExprArena::new();
        let root = build(&g, &mut arena);
        let env = tensors(&data);
        let tr = translate(&arena, root, &vars()).unwrap();
        if let Some(clash) = capture(&tr.expr) {
            prop_assert!(false, "{clash}\nin {}", tr.expr);
        }
        let want = eval_la(&arena, root, &env).unwrap();
        let dims: HashMap<Symbol, usize> = tr
            .ctx
            .index_dims
            .iter()
            .map(|(&s, &d)| (s, d as usize))
            .collect();
        let got = eval_ra(&tr.expr, tr.row, tr.col, &env, &dims).unwrap();
        prop_assert!(want.approx_eq(&got, 1e-7), "{want:?} vs {got:?}");
    }

    #[test]
    fn translate_lower_roundtrip(
        g in mat_expr(),
        data in prop::collection::vec(-4i8..=4, 16..=16),
    ) {
        let mut arena = ExprArena::new();
        let root = build(&g, &mut arena);
        let env = tensors(&data);
        let want = eval_la(&arena, root, &env).unwrap();

        let tr = translate(&arena, root, &vars()).unwrap();
        let (arena2, root2) = lower(&tr.expr, tr.row, tr.col, &tr.ctx).unwrap();
        let got = eval_la(&arena2, root2, &env).unwrap();
        prop_assert!(want.approx_eq(&got, 1e-7),
            "{want:?} vs {got:?} via {}", arena2.display(root2));
    }

    #[test]
    fn canonical_form_is_rewrite_invariant(
        g in mat_expr(),
    ) {
        // e ≡ e after a sum: pushing the expression through the optimizer's
        // saturation must keep the canonical form of any extracted plan
        // isomorphic to the input's (Theorem 2.3, both directions).
        let mut arena = ExprArena::new();
        let matexpr = build(&g, &mut arena);
        let root = arena.sum(matexpr);
        let vs = vars();
        let c1 = canon_of_la(&arena, root, &vs).unwrap();

        let opt = spores_core::Optimizer::new(spores_core::OptimizerConfig {
            node_limit: 2_000,
            iter_limit: 8,
            ..Default::default()
        });
        let r = opt.optimize(&arena, root, &vs).unwrap();
        let c2 = canon_of_la(&r.arena, r.root, &vs).unwrap();
        prop_assert!(
            polyterm_isomorphic(&c1, &c2),
            "canonical forms diverged:\n  {}\n  {}",
            c1.render(),
            c2.render()
        );
    }
}
