//! The relational equality rules R_EQ (Figure 3) and the custom-function
//! equations of §3.3.
//!
//! Each of the seven identities of Figure 3 is instantiated as one or more
//! *directed* rewrites. Directions that can only grow the e-graph without
//! enabling further matches (e.g. introducing an aggregation over a fresh
//! index, the right-to-left reading of rule 5) are kept out of the default
//! optimization set but included in [`complete`], which the completeness
//! tests exercise.
//!
//! Rules 3 and 5 carry the schema side condition `i ∉ Attr(A)`, checked
//! against the class-invariant analysis (§3.2) — this is exactly the use
//! case the paper gives for class invariants.

use crate::analysis::{index_not_in_schema, MetaAnalysis};
use crate::lang::Math;
use spores_egraph::{ConditionMeta, Rewrite, Var};

/// A rewrite over the SPORES language.
pub type MathRewrite = Rewrite<Math, MetaAnalysis>;

fn rw(name: &str, lhs: &str, rhs: &str) -> MathRewrite {
    Rewrite::new(name, lhs, rhs).unwrap_or_else(|e| panic!("bad rule {name}: {e}"))
}

/// `lhs => rhs` guarded by `?i ∉ Attr(?a)`. The guard is declared as
/// [`ConditionMeta::IndexNotInSchema`] so the static auditor can
/// cross-check it against the hypothesis the schema algebra demands.
fn rw_if_free(name: &str, lhs: &str, rhs: &str) -> MathRewrite {
    let i = Var::new("i");
    let a = Var::new("a");
    rw(name, lhs, rhs).with_declared_condition(
        ConditionMeta::IndexNotInSchema { index: i, of: a },
        move |egraph, _id, subst| {
            let (vi, va) = match (subst.get(i), subst.get(a)) {
                (Some(vi), Some(va)) => (vi, va),
                _ => return false,
            };
            index_not_in_schema(egraph, vi, va)
        },
    )
}

/// The seven relational identities of Figure 3, as directed rewrites.
/// This is the default rule set the optimizer saturates with.
pub fn req_rules() -> Vec<MathRewrite> {
    vec![
        // (1) distributivity of join over union, both directions
        rw("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
        rw("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))").with_nonlinear_lhs(),
        // (2) aggregates distribute over union, both directions
        rw(
            "push-agg-add",
            "(sum ?i (+ ?a ?b))",
            "(+ (sum ?i ?a) (sum ?i ?b))",
        ),
        rw(
            "pull-agg-add",
            "(+ (sum ?i ?a) (sum ?i ?b))",
            "(sum ?i (+ ?a ?b))",
        )
        .with_nonlinear_lhs(),
        // (3) join commutes with aggregation when the index is free of A
        rw_if_free("push-join-agg", "(* ?a (sum ?i ?b))", "(sum ?i (* ?a ?b))"),
        rw_if_free("pull-join-agg", "(sum ?i (* ?a ?b))", "(* ?a (sum ?i ?b))"),
        // (4) nested aggregates commute
        rw("swap-agg", "(sum ?i (sum ?j ?a))", "(sum ?j (sum ?i ?a))"),
        // (5) trivial aggregation scales by the dimension
        rw_if_free("agg-to-dim", "(sum ?i ?a)", "(* ?a (dim ?i))"),
        // (6) union is associative & commutative
        rw("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
        rw("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
        rw("assoc-add-rev", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
        // (7) join is associative & commutative
        rw("comm-mul", "(* ?a ?b)", "(* ?b ?a)"),
        rw("assoc-mul", "(* (* ?a ?b) ?c)", "(* ?a (* ?b ?c))"),
        rw("assoc-mul-rev", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)"),
        // scalar-identity cleanups (sound consequences of constant
        // folding; keep plans from accumulating units)
        rw("mul-one", "(* 1 ?a)", "?a"),
        rw("add-zero", "(+ 0 ?a)", "?a"),
        // sparsity-invariant rule: adding a provably-empty relation is a
        // no-op (justifies SystemML's Empty* rewrites, §3.2/Figure 14).
        // Guards: `?b` must be the additive zero (sparsity 0), and the
        // zero side's schema must not extend the other's — declared
        // separately so the auditor can match each hypothesis.
        rw("add-zero-rel", "(+ ?a ?b)", "?a")
            .with_declared_condition(
                ConditionMeta::IsZero { var: Var::new("b") },
                |egraph, _id, subst| match subst.get(Var::new("b")) {
                    Some(b) => egraph.class(b).data.sparsity == 0.0,
                    None => false,
                },
            )
            .with_declared_condition(
                ConditionMeta::SchemaSubset {
                    sub: Var::new("b"),
                    sup: Var::new("a"),
                },
                |egraph, _id, subst| {
                    let (a, b) = match (subst.get(Var::new("a")), subst.get(Var::new("b"))) {
                        (Some(a), Some(b)) => (a, b),
                        _ => return false,
                    };
                    let (sa, sb) = match (
                        egraph.class(a).data.kind.attrs(),
                        egraph.class(b).data.kind.attrs(),
                    ) {
                        (Some(sa), Some(sb)) => (sa, sb),
                        _ => return false,
                    };
                    sb.iter().all(|s| sa.contains(s))
                },
            ),
    ]
}

/// Custom-function equations (§3.3): element-wise operators that are not
/// part of the core RA semantics, plus SystemML's fused operators, are
/// equated with their definitions so that "saturation simultaneously
/// considers all possible orderings" of rewriting and fusion.
pub fn custom_rules() -> Vec<MathRewrite> {
    vec![
        // square / powers expand into joins (and back: fusion)
        rw("pow2-expand", "(pow ?x 2)", "(* ?x ?x)"),
        rw("pow2-fuse", "(* ?x ?x)", "(pow ?x 2)").with_nonlinear_lhs(),
        rw("pow3-expand", "(pow ?x 3)", "(* ?x (* ?x ?x))"),
        // doubling
        rw("double", "(+ ?x ?x)", "(* 2 ?x)").with_nonlinear_lhs(),
        rw("double-rev", "(* 2 ?x)", "(+ ?x ?x)"),
        // reciprocal
        rw("inv-inv", "(inv (inv ?x))", "?x"),
        // sigmoid(x) = 1 / (1 + exp(-x)), both directions (fusion)
        rw(
            "sigmoid-expand",
            "(sigmoid ?x)",
            "(inv (+ 1 (exp (* -1 ?x))))",
        ),
        rw(
            "sigmoid-fuse",
            "(inv (+ 1 (exp (* -1 ?x))))",
            "(sigmoid ?x)",
        ),
        // sprop(p) = p - p², both directions (fusion). The factored form
        // p·(1-p) is reachable via distributivity.
        rw("sprop-expand", "(sprop ?p)", "(+ ?p (* -1 (* ?p ?p)))"),
        rw("sprop-fuse", "(+ ?p (* -1 (* ?p ?p)))", "(sprop ?p)").with_nonlinear_lhs(),
        // sign(x) = (x > 0) - (x < 0)
        rw("sign-def", "(+ (gt ?x 0) (* -1 (lt ?x 0)))", "(sign ?x)").with_nonlinear_lhs(),
        rw(
            "sign-def-rev",
            "(sign ?x)",
            "(+ (gt ?x 0) (* -1 (lt ?x 0)))",
        ),
        // |x| = sign(x) · x
        rw("abs-def", "(* (sign ?x) ?x)", "(abs ?x)").with_nonlinear_lhs(),
        rw("abs-def-rev", "(abs ?x)", "(* (sign ?x) ?x)"),
    ]
}

/// The default optimization rule set: R_EQ plus custom-function equations.
pub fn default_rules() -> Vec<MathRewrite> {
    let mut rules = req_rules();
    rules.extend(custom_rules());
    rules
}

/// The full rule set including expansion-only directions needed for the
/// completeness arguments (§2.3): every rule of R_EQ is reversible.
pub fn complete() -> Vec<MathRewrite> {
    let mut rules = default_rules();
    rules.push(rw_if_free("dim-to-agg", "(* ?a (dim ?i))", "(sum ?i ?a)"));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Context, MathGraph, MetaAnalysis, VarMeta};
    use crate::lang::parse_math;
    use spores_egraph::{MatchingMode, Runner, Scheduler};

    fn ctx() -> Context {
        Context::new()
            .with_var("X", VarMeta::sparse(100, 50, 0.01))
            .with_var("Y", VarMeta::dense(100, 50))
            .with_var("U", VarMeta::dense(100, 1))
            .with_var("V", VarMeta::dense(50, 1))
            .with_index("i", 100)
            .with_index("j", 50)
            .with_index("k", 100)
    }

    fn saturate(src: &str) -> (spores_egraph::Id, MathGraph) {
        let expr = parse_math(src).unwrap();
        let runner = Runner::new(MetaAnalysis::new(ctx()))
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_node_limit(20_000)
            .with_iter_limit(20)
            .run(&default_rules());
        (runner.roots[0], runner.egraph)
    }

    fn assert_derives(from: &str, to: &str) {
        let (root, eg) = saturate(from);
        let want = parse_math(to).unwrap();
        let found = eg.lookup_expr(&want);
        assert_eq!(
            found.map(|id| eg.find(id)),
            Some(eg.find(root)),
            "expected `{from}` to derive `{to}`"
        );
    }

    #[test]
    fn distributivity_both_ways() {
        assert_derives(
            "(* (b i _ U) (+ (b i j X) (b i j Y)))",
            "(+ (* (b i _ U) (b i j X)) (* (b i _ U) (b i j Y)))",
        );
        assert_derives(
            "(+ (* (b i _ U) (b i j X)) (* (b i _ U) (b i j Y)))",
            "(* (b i _ U) (+ (b i j X) (b i j Y)))",
        );
    }

    #[test]
    fn rule3_pulls_factor_out_of_agg() {
        // Σ_j (U(i) * X(i,j)) = U(i) * Σ_j X(i,j) since j ∉ Attr(U)
        assert_derives(
            "(sum j (* (b i _ U) (b i j X)))",
            "(* (b i _ U) (sum j (b i j X)))",
        );
    }

    #[test]
    fn rule3_respects_schema_condition() {
        // Σ_j (V(j) * X(i,j)) must NOT factor V out of the aggregate
        let (_, eg) = saturate("(sum j (* (b j _ V) (b i j X)))");
        let bad = parse_math("(* (b j _ V) (sum j (b i j X)))").unwrap();
        // the factored form may exist in the graph (added by other rules
        // for other classes) but must not be equal to the root
        let root = eg
            .lookup_expr(&parse_math("(sum j (* (b j _ V) (b i j X)))").unwrap())
            .unwrap();
        if let Some(id) = eg.lookup_expr(&bad) {
            assert_ne!(eg.find(id), eg.find(root));
        }
    }

    #[test]
    fn nested_aggregates_commute() {
        assert_derives("(sum i (sum j (b i j X)))", "(sum j (sum i (b i j X)))");
    }

    #[test]
    fn agg_of_closed_term_scales() {
        // Σ_i V(j) = V(j) * dim(i)
        assert_derives("(sum i (b j _ V))", "(* (b j _ V) (dim i))");
    }

    #[test]
    fn headline_sum_of_square_of_product() {
        // §2.1: Σ_ij (U(i)V(j))² = (Σ_i U(i)²) * (Σ_j V(j)²)
        assert_derives(
            "(sum i (sum j (pow (* (b i _ U) (b j _ V)) 2)))",
            "(* (sum i (* (b i _ U) (b i _ U))) (sum j (* (b j _ V) (b j _ V))))",
        );
    }

    #[test]
    fn sprop_fusion_from_factored_form() {
        // P - P² ≡ sprop(P): the MLR optimization of §4.2
        assert_derives(
            "(+ (b i _ U) (* -1 (* (b i _ U) (b i _ U))))",
            "(sprop (b i _ U))",
        );
    }

    #[test]
    fn sigmoid_fusion() {
        assert_derives("(inv (+ 1 (exp (* -1 (b i _ U)))))", "(sigmoid (b i _ U))");
    }

    #[test]
    fn sign_definition() {
        assert_derives(
            "(+ (gt (b i j X) 0) (* -1 (lt (b i j X) 0)))",
            "(sign (b i j X))",
        );
    }

    #[test]
    fn constant_folding_interacts_with_rules() {
        // (3 - 2) / (1 + exp(-x)) should become sigmoid(x) — the paper's
        // phase-ordering example (§3, "ORDER OF REWRITES")
        assert_derives(
            "(* (+ 3 (* -1 2)) (inv (+ 1 (exp (* -1 (b i _ U))))))",
            "(sigmoid (b i _ U))",
        );
    }

    #[test]
    fn indexed_matching_agrees_with_naive_on_real_rules() {
        // Every default rule, run against sampled saturations of the
        // evaluation workloads' hot shapes: the three matchers must
        // agree — the op-head-indexed compiled machine and the
        // relational generic join produce exactly the interpreted
        // all-classes result, and both visit the same candidates.
        let shapes = [
            // §1 headline: sum((X − U Vᵀ)²)
            "(sum i (sum j (pow (+ (b i j X) (* -1 (* (b i _ U) (b j _ V)))) 2)))",
            // ALS residual step: (U Vᵀ − X) V
            "(sum j (* (+ (* (b i _ U) (b j _ V)) (* -1 (b i j X))) (b j _ V)))",
            // PNMF objective term: sum(W H)
            "(sum i (sum j (* (b i _ U) (b j _ V))))",
            // GLM-style weighted inner product: sum(X ⊙ u vᵀ)
            "(sum i (sum j (* (b i j X) (* (b i _ U) (b j _ V)))))",
            // MLR-style link function under aggregation
            "(sum i (sigmoid (* (b i j X) (b j _ V))))",
        ];
        let rules = default_rules();
        for shape in shapes {
            let eg = Runner::new(MetaAnalysis::new(ctx()))
                .with_expr(&parse_math(shape).unwrap())
                .with_scheduler(Scheduler::Sampling {
                    match_limit: 40,
                    seed: 1,
                })
                .with_node_limit(5_000)
                .with_iter_limit(8)
                .run(&rules)
                .egraph;
            for rule in &rules {
                let ids = rule.except_candidate_ids(&eg, &Default::default());
                let (indexed, candidates) = rule.search_ids(&eg, &ids, MatchingMode::Structural);
                let (relational, rel_candidates) =
                    rule.search_ids(&eg, &ids, MatchingMode::Relational);
                let naive = rule.searcher.naive_search(&eg);
                let what = format!("rule {} on {shape}", rule.name);
                assert_eq!(candidates, rel_candidates, "{what}");
                assert_eq!(indexed.len(), naive.len(), "{what}");
                assert_eq!(relational.len(), naive.len(), "{what}");
                for ((a, r), n) in indexed.iter().zip(&relational).zip(&naive) {
                    assert_eq!(a.eclass, n.eclass, "{what}");
                    assert_eq!(a.substs, n.substs, "{what}");
                    assert_eq!(r.eclass, n.eclass, "{what}");
                    assert_eq!(r.substs, n.substs, "{what}");
                }
                assert!(
                    candidates <= eg.number_of_classes(),
                    "rule {} visited more candidates than classes",
                    rule.name
                );
            }
        }
    }

    #[test]
    fn saturation_converges_on_small_exprs() {
        let expr = parse_math("(sum j (* (b i _ U) (b i j X)))").unwrap();
        let runner = Runner::new(MetaAnalysis::new(ctx()))
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_node_limit(50_000)
            .run(&default_rules());
        assert!(runner.saturated(), "{:?}", runner.stop_reason);
    }
}
