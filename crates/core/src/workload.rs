//! Workload-level optimization: all statements in ONE e-graph.
//!
//! A SystemML program is a multi-rooted DAG, and the pipeline
//! ([`crate::optimizer`]) is written over any number of roots. Run per
//! statement it pays a full translate → saturate → extract → lower pass
//! each time and cannot see sharing *across* statements — PNMF's
//! `W %*% H` appears in three statements and is re-derived (and re-paid)
//! three times. Handing it every statement of a [`WorkloadExpr`] at once
//! is workload mode:
//!
//! 1. one translator for every statement, so repeated LA sub-DAGs map to
//!    identical RA fragments;
//! 2. **one** saturation over a single e-graph holding every statement
//!    root — one rule-matching pass over the union instead of N passes
//!    over overlapping graphs;
//! 3. one multi-root plan whose DAG cost pays each shared e-class once
//!    across roots;
//! 4. one shared arena where common subplans are bound once —
//!    `spores-exec`'s `run_many` then computes them once per pass.
//!
//! This module holds the multi-root result type and entry point;
//! [`Optimizer::optimize`] is the same run over one root.

use crate::analysis::VarMeta;
use crate::extract::IlpStats;
use crate::optimizer::{plan_cost, Optimizer, PhaseTimings, SaturationStats};
use crate::translate::TranslateError;
use spores_ir::{ExprArena, NodeId, Symbol, WorkloadExpr};
use std::collections::HashMap;

/// The workload optimizer's output: one shared multi-root plan.
#[derive(Clone, Debug)]
pub struct WorkloadOptimized {
    /// The shared plan arena; subplans common to several statements are
    /// single nodes referenced by every consuming root.
    pub arena: ExprArena,
    /// Per-statement `(name, plan root)`, in input order.
    pub roots: Vec<(Symbol, NodeId)>,
    pub timings: PhaseTimings,
    /// Statistics of the single shared saturation run.
    pub saturation: SaturationStats,
    /// Summed per-statement cost estimate of the *input* plans.
    pub cost_before: f64,
    /// DAG cost of the extracted multi-root plan: each shared e-class
    /// paid once across all roots.
    pub cost_after: f64,
    pub ilp: Option<IlpStats>,
    /// True when extraction or lowering failed and the input bundle was
    /// returned as-is.
    pub fell_back: bool,
    /// See [`crate::Optimized::size_polymorphic`].
    pub size_polymorphic: bool,
}

impl WorkloadOptimized {
    /// Estimated cost improvement factor (≥ 1 when the optimizer helped).
    pub fn speedup_estimate(&self) -> f64 {
        if self.cost_after > 0.0 {
            self.cost_before / self.cost_after
        } else {
            f64::INFINITY
        }
    }
}

impl Optimizer {
    /// Optimize a whole workload bundle in one shared e-graph. See the
    /// module docs. `vars` must cover every leaf the bundle reads,
    /// including version symbols defined by earlier roots of an SSA
    /// bundle.
    pub fn optimize_workload(
        &self,
        workload: &WorkloadExpr,
        vars: &HashMap<Symbol, VarMeta>,
    ) -> Result<WorkloadOptimized, TranslateError> {
        let (names, roots): (Vec<Symbol>, Vec<NodeId>) = workload.roots.iter().copied().unzip();
        let p = self
            .pipeline(&workload.arena, &roots, vars)
            .map_err(|(i, e)| e.in_statement(names[i]))?;
        Ok(WorkloadOptimized {
            arena: p.arena,
            roots: names.into_iter().zip(p.roots).collect(),
            timings: p.timings,
            saturation: p.saturation,
            cost_before: p.cost_before,
            cost_after: p.cost_after,
            ilp: p.ilp,
            fell_back: p.fell_back,
            size_polymorphic: p.size_polymorphic,
        })
    }
}

/// Summed [`plan_cost`] of a workload plan's roots, priced as-is under
/// the caller's metadata — the workload analogue of the plan cache's hit
/// re-check (shared subplans appear in each consuming root's term, so
/// this is a consistent upper bound on both sides of the comparison).
pub fn workload_plan_cost(
    arena: &ExprArena,
    roots: &[(Symbol, NodeId)],
    vars: &HashMap<Symbol, VarMeta>,
) -> Result<f64, TranslateError> {
    let mut total = 0.0;
    for &(_, root) in roots {
        total += plan_cost(arena, root, vars)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_la, Tensor};
    use crate::optimizer::{ExtractorKind, OptimizerConfig};
    use spores_ir::parse_expr;

    fn vars(list: &[(&str, (u64, u64), f64)]) -> HashMap<Symbol, VarMeta> {
        list.iter()
            .map(|&(n, (r, c), s)| (Symbol::new(n), VarMeta::sparse(r, c, s)))
            .collect()
    }

    fn bundle(stmts: &[(&str, &str)]) -> WorkloadExpr {
        let mut arena = ExprArena::new();
        let roots = stmts
            .iter()
            .map(|&(name, src)| (Symbol::new(name), parse_expr(&mut arena, src).unwrap()))
            .collect();
        WorkloadExpr::new(arena, roots).unwrap()
    }

    fn optimizer(kind: ExtractorKind) -> Optimizer {
        Optimizer::new(OptimizerConfig {
            extractor: kind,
            node_limit: 8_000,
            iter_limit: 15,
            ..OptimizerConfig::default()
        })
    }

    #[test]
    fn workload_mode_shares_subplans_across_statements() {
        // `W %*% H` is needed by both statements (under `/` and `log` it
        // cannot be rewritten away); the shared plan must bind it once.
        let w = bundle(&[
            ("num", "t(W) %*% (X / (W %*% H))"),
            ("obj", "sum(X * log(W %*% H))"),
        ]);
        let vs = vars(&[
            ("W", (60, 4), 1.0),
            ("H", (4, 50), 1.0),
            ("X", (60, 50), 0.05),
        ]);
        let got = optimizer(ExtractorKind::Greedy)
            .optimize_workload(&w, &vs)
            .unwrap();
        assert!(!got.fell_back);
        assert_eq!(got.roots.len(), 2);
        // the product appears exactly once in the shared arena …
        let all: Vec<NodeId> = got
            .arena
            .postorder_multi(&got.roots.iter().map(|&(_, r)| r).collect::<Vec<_>>());
        let products: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|&id| got.arena.display(id) == "W %*% H")
            .collect();
        assert_eq!(products.len(), 1, "plan: {:?}", plans(&got));
        // … and is reachable from both statement roots
        for &(_, root) in &got.roots {
            assert!(
                got.arena.postorder(root).contains(&products[0]),
                "root does not share the product: {:?}",
                plans(&got)
            );
        }
    }

    fn plans(got: &WorkloadOptimized) -> Vec<String> {
        got.roots
            .iter()
            .map(|&(n, r)| format!("{n} = {}", got.arena.display(r)))
            .collect()
    }

    #[test]
    fn workload_mode_cost_never_exceeds_per_statement_sum() {
        let stmts = [
            ("gu", "(U %*% t(V) - X) %*% V"),
            ("loss", "sum((X - U %*% t(V))^2)"),
        ];
        let vs = vars(&[
            ("X", (500, 300), 0.001),
            ("U", (500, 8), 1.0),
            ("V", (300, 8), 1.0),
        ]);
        let opt = optimizer(ExtractorKind::Greedy);
        let whole = opt.optimize_workload(&bundle(&stmts), &vs).unwrap();
        assert!(!whole.fell_back);
        let mut per_statement = 0.0;
        for (name, src) in stmts {
            let got = opt.optimize_workload(&bundle(&[(name, src)]), &vs).unwrap();
            assert!(!got.fell_back);
            per_statement += got.cost_after;
        }
        // 1% relative slack: greedy tie-breaking between equal-cost
        // members follows symbol-interning order, which depends on which
        // tests ran earlier in the process — the same scheduler noise
        // tests/workload_cse.rs documents. A genuine double-pay would be
        // plan-sized, far beyond the slack.
        assert!(
            whole.cost_after <= per_statement * 1.01 + 1e-6,
            "workload {} > per-statement sum {per_statement}",
            whole.cost_after
        );
    }

    #[test]
    fn workload_plans_preserve_semantics() {
        let w = bundle(&[
            ("g", "(U %*% t(V) - X) %*% V"),
            ("loss", "sum((X - U %*% t(V))^2)"),
        ]);
        let vs = vars(&[("X", (6, 5), 1.0), ("U", (6, 2), 1.0), ("V", (5, 2), 1.0)]);
        let got = optimizer(ExtractorKind::Greedy)
            .optimize_workload(&w, &vs)
            .unwrap();
        assert!(!got.fell_back);
        let mk = |rows: usize, cols: usize, seed: u64| {
            let mut v = Vec::with_capacity(rows * cols);
            let mut state = seed;
            for _ in 0..rows * cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push(((state >> 33) % 1000) as f64 / 100.0 - 5.0);
            }
            Tensor::new(rows, cols, v)
        };
        let tensors = HashMap::from([
            (Symbol::new("X"), mk(6, 5, 1)),
            (Symbol::new("U"), mk(6, 2, 2)),
            (Symbol::new("V"), mk(5, 2, 3)),
        ]);
        for (i, &(name, root)) in got.roots.iter().enumerate() {
            let (_, input_root) = w.roots[i];
            assert_eq!(w.roots[i].0, name);
            let want = eval_la(&w.arena, input_root, &tensors).unwrap();
            let have = eval_la(&got.arena, root, &tensors).unwrap();
            assert!(
                want.approx_eq(&have, 1e-6),
                "{name} diverged: {} vs {:?} / {:?}",
                got.arena.display(root),
                want,
                have
            );
        }
    }

    #[test]
    fn ilp_workload_extraction_runs_end_to_end() {
        let w = bundle(&[
            ("a", "sum(X * (u %*% t(v)))"),
            ("b", "colSums(X * (u %*% t(v)))"),
        ]);
        let vs = vars(&[
            ("X", (80, 60), 0.01),
            ("u", (80, 1), 1.0),
            ("v", (60, 1), 1.0),
        ]);
        let got = optimizer(ExtractorKind::Ilp)
            .optimize_workload(&w, &vs)
            .unwrap();
        assert!(!got.fell_back);
        let stats = got.ilp.expect("ilp stats recorded");
        assert!(stats.n_vars > 0);
        // greedy multi-root warm start is threaded through
        assert!(stats.warm_start.is_some());
    }

    /// Per-region convergence freezing: statement `a` (a bare
    /// transpose) saturates within a couple of iterations while the
    /// headline statement `b` needs many more. The fast region must
    /// freeze (visible in `region_frozen_iters`) and the run must
    /// converge region-by-region. (That freezing changes how much is
    /// searched and never what is planned is checked on the runner,
    /// `converged_region_freezes_and_plans_are_unchanged`.)
    #[test]
    fn converged_statement_region_freezes() {
        let stmts = [("a", "t(t(Y))"), ("b", "sum(W %*% H)")];
        let vs = vars(&[
            ("Y", (40, 30), 1.0),
            ("W", (5000, 10), 1.0),
            ("H", (10, 3000), 1.0),
        ]);
        let opt = Optimizer::new(OptimizerConfig {
            extractor: ExtractorKind::Greedy,
            node_limit: 8_000,
            iter_limit: 30,
            ..OptimizerConfig::default()
        });
        let frozen = opt.optimize_workload(&bundle(&stmts), &vs).unwrap();
        assert!(!frozen.fell_back);
        assert!(frozen.saturation.converged, "workload must converge");
        // statement a freezes within a few iterations and never thaws
        // while statement b keeps working: from then on a's region
        // contributes zero candidates, so every remaining iteration's
        // frozen count includes it
        assert!(
            frozen.saturation.region_frozen_iters + 5 >= frozen.saturation.iterations,
            "statement a's region froze for only {} of {} iterations",
            frozen.saturation.region_frozen_iters,
            frozen.saturation.iterations
        );
    }

    #[test]
    fn shape_errors_name_the_statement() {
        let w = bundle(&[("ok", "sum(X)"), ("bad", "X %*% Y")]);
        let vs = vars(&[("X", (3, 4), 1.0), ("Y", (5, 6), 1.0)]);
        let err = optimizer(ExtractorKind::Greedy)
            .optimize_workload(&w, &vs)
            .unwrap_err();
        assert_eq!(
            err.0,
            "bad: shape error at node NodeId(3): matmul mismatch 3x4 %*% 5x6"
        );
        let translated = crate::translate_workload(&w.arena, &w.roots, &vs).unwrap_err();
        assert_eq!(translated.0, err.0);
    }

    #[test]
    fn workload_plan_cost_sums_roots() {
        let w = bundle(&[("a", "sum(X^2)"), ("b", "rowSums(X)")]);
        let vs = vars(&[("X", (100, 50), 0.1)]);
        let total = workload_plan_cost(&w.arena, &w.roots, &vs).unwrap();
        let a = plan_cost(&w.arena, w.roots[0].1, &vs).unwrap();
        let b = plan_cost(&w.arena, w.roots[1].1, &vs).unwrap();
        assert!((total - (a + b)).abs() < 1e-9);
    }
}
