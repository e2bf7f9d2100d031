//! The end-to-end SPORES optimizer (the architecture of Figure 13).
//!
//! `LA plan → [translate] → RA plan → [EQ. saturate] → {equivalent RA
//! plans} → [extract w/ solver] → best RA plan → [translate] → best LA
//! plan`, with per-phase wall-clock timings recorded for the Figure 16
//! compile-time experiments.
//!
//! There is one pipeline, written over the roots of a multi-rooted DAG
//! (what a SystemML program is): one translator, one e-graph holding
//! every root, one multi-root plan lowered into one shared arena.
//! [`Optimizer::optimize`] runs it over one root;
//! `Optimizer::optimize_workload` ([`crate::workload`]) over every
//! statement of a bundle at once.

use crate::analysis::{Context, MathGraph, MetaAnalysis, VarMeta};
use crate::cost::NnzCost;
use crate::extract::{extract_greedy_costed, extract_ilp_multi, IlpStats};
use crate::lang::MathExpr;
use crate::lower::lower_workload;
use crate::rules::default_rules;
use crate::translate::{translate, translate_roots, TranslateError};
use spores_egraph::{
    Extractor, Id, MatchingMode, ParallelConfig, RegionConfig, Runner, Scheduler, StopReason,
};
use spores_ir::{ExprArena, NodeId, Symbol};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which extraction strategy to run (§4.3 compares these).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtractorKind {
    /// Bottom-up greedy (fast, ignores sharing).
    Greedy,
    /// The Figure 11 ILP encoding (optimal DAG cost).
    Ilp,
}

/// Optimizer configuration: saturation strategy + limits + extractor.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    pub scheduler: Scheduler,
    pub iter_limit: usize,
    pub node_limit: usize,
    /// Saturation wall-clock budget (the paper's runs cap at 2.5 s).
    pub time_limit: Duration,
    pub extractor: ExtractorKind,
    /// ILP solver budget (only used with [`ExtractorKind::Ilp`]).
    pub ilp_time_limit: Duration,
    /// Parallel rule-search configuration for the saturation phase
    /// (thread count never changes plans, costs, or statistics — see
    /// [`ParallelConfig`]). Defaults to `SPORES_THREADS` / the host's
    /// available parallelism; embedders running several saturations
    /// concurrently should clamp `threads` so the pools don't
    /// oversubscribe (the service does).
    pub parallel: ParallelConfig,
    /// E-matching backend for the saturation phase: the structural
    /// bind/compare machine (default) or relational generic join over
    /// the (op, arity, slot) index. Matches, stats, and plans are
    /// bit-identical either way — see `spores_egraph::MatchingMode`.
    pub matching: MatchingMode,
    /// Static per-rule backoff priors (rule name → initial fruitless
    /// streak), typically `spores-ruleaudit`'s explosiveness scores via
    /// `backoff_priors`. `None` (the default) leaves backoff exactly as
    /// before — the priors are opt-in and only change pacing, never
    /// plans (see `Runner::with_rule_priors`).
    pub rule_priors: Option<spores_egraph::FxHashMap<String, u32>>,
    /// Turn on the `spores-telemetry` collector for this run: phase and
    /// per-iteration spans land in the global journal, per-rule counters
    /// in the global registry. Off by default — every hook site then
    /// costs one relaxed atomic load. Enabling is sticky (process-wide),
    /// so the caller can drain the journal after the run returns; see
    /// `spores_telemetry::drain` / `dump_chrome_trace`.
    pub telemetry: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            scheduler: Scheduler::default(),
            iter_limit: 30,
            node_limit: 50_000,
            time_limit: Duration::from_millis(2500),
            extractor: ExtractorKind::Greedy,
            ilp_time_limit: Duration::from_secs(5),
            parallel: ParallelConfig::default(),
            matching: MatchingMode::default(),
            rule_priors: None,
            telemetry: false,
        }
    }
}

/// Wall-clock time spent in each phase (Figure 16's breakdown).
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimings {
    pub translate: Duration,
    pub saturate: Duration,
    pub extract: Duration,
    pub lower: Duration,
}

impl PhaseTimings {
    pub fn total(&self) -> Duration {
        self.translate + self.saturate + self.extract + self.lower
    }
}

/// Saturation outcome statistics (§4.3 reports convergence per program).
#[derive(Clone, Debug)]
pub struct SaturationStats {
    pub iterations: usize,
    pub e_nodes: usize,
    pub e_classes: usize,
    /// Did saturation converge (reach a fixpoint) within the limits?
    pub converged: bool,
    pub stop_reason: Option<StopReason>,
    /// Total candidate classes the op-head index proposed across all
    /// rules and iterations (the classes the matcher actually visited;
    /// without the index this would be rules × iterations × classes).
    pub candidates_visited: usize,
    /// Total (class, subst) match instances found across the run.
    pub matches_found: usize,
    /// Total (region, iteration) pairs during which a statement's region
    /// sat frozen (0 for one-root runs: one root is one region).
    pub region_frozen_iters: usize,
}

/// The optimizer's output.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The optimized LA expression.
    pub arena: ExprArena,
    pub root: NodeId,
    pub timings: PhaseTimings,
    pub saturation: SaturationStats,
    /// Cost-model estimate of the input plan.
    pub cost_before: f64,
    /// Cost-model estimate of the extracted plan.
    pub cost_after: f64,
    /// ILP statistics (when ILP extraction ran).
    pub ilp: Option<IlpStats>,
    /// True when lowering failed and the input plan was returned as-is.
    pub fell_back: bool,
    /// True when the optimized plan is valid for *any* concrete leaf
    /// dimensions (of the same shape classes), i.e. lowering embedded no
    /// concrete dimension constants. Plan caches may re-instantiate such
    /// plans at other sizes; plans with `size_polymorphic == false` are
    /// pinned to the exact input dimensions.
    pub size_polymorphic: bool,
}

impl Optimized {
    /// Estimated cost improvement factor (≥ 1 when the optimizer helped).
    pub fn speedup_estimate(&self) -> f64 {
        if self.cost_after > 0.0 {
            self.cost_before / self.cost_after
        } else {
            f64::INFINITY
        }
    }
}

/// The SPORES optimizer. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    pub config: OptimizerConfig,
}

impl Optimizer {
    pub fn new(config: OptimizerConfig) -> Optimizer {
        Optimizer { config }
    }

    /// Optimize the LA expression rooted at `root`: the one-root case of
    /// the pipeline.
    pub fn optimize(
        &self,
        arena: &ExprArena,
        root: NodeId,
        vars: &HashMap<Symbol, VarMeta>,
    ) -> Result<Optimized, TranslateError> {
        let p = self.pipeline(arena, &[root], vars).map_err(|(_, e)| e)?;
        Ok(Optimized {
            arena: p.arena,
            root: p.roots[0],
            timings: p.timings,
            saturation: p.saturation,
            cost_before: p.cost_before,
            cost_after: p.tree_cost_after,
            ilp: p.ilp,
            fell_back: p.fell_back,
            size_polymorphic: p.size_polymorphic,
        })
    }

    /// The pipeline (module docs), over any number of roots of one
    /// arena: one translator, one e-graph holding every root, one
    /// multi-root plan lowered into one shared arena. A shape error comes
    /// back with the position of the offending root.
    pub(crate) fn pipeline(
        &self,
        arena: &ExprArena,
        roots: &[NodeId],
        vars: &HashMap<Symbol, VarMeta>,
    ) -> Result<Pipelined, (usize, TranslateError)> {
        let cfg = &self.config;
        if cfg.telemetry {
            spores_telemetry::set_enabled(true);
        }

        // ---- translate (R_LR; one translator for all roots) ------------
        let span = spores_telemetry::span!("optimize.translate", roots = roots.len());
        let t0 = Instant::now();
        let (plans, ctx) = translate_roots(arena, roots, vars)?;
        let t_translate = t0.elapsed();
        drop(span);

        // ---- saturate (R_EQ; one e-graph, every root in it) ------------
        let span = spores_telemetry::span!("optimize.saturate");
        let t0 = Instant::now();
        let rules = default_rules();
        // The sampling scheduler caps match applications *per rule per
        // iteration*; a union graph of N statements has ~N× the match
        // surface. With regions the runner scales the cap by the number
        // of *active* statement regions each iteration — the application
        // rate of N separate runs while every statement is live,
        // shrinking as statements converge — and drops converged
        // regions' classes from every rule's candidate set. One root is
        // one region: nothing to scale, nothing to freeze.
        let mut runner = Runner::new(MetaAnalysis::new(ctx.clone()))
            .with_scheduler(cfg.scheduler.clone())
            .with_iter_limit(cfg.iter_limit)
            .with_node_limit(cfg.node_limit)
            .with_time_limit(cfg.time_limit)
            .with_parallel(cfg.parallel)
            .with_matching(cfg.matching)
            .with_regions(RegionConfig::default());
        if let Some(priors) = cfg.rule_priors.clone() {
            runner = runner.with_rule_priors(priors);
        }
        for (expr, ..) in &plans {
            runner = runner.with_expr(expr);
        }
        let runner = runner.run(&rules);
        let t_saturate = t0.elapsed();
        drop(span);
        let saturation = SaturationStats {
            iterations: runner.iterations.len(),
            e_nodes: runner.egraph.total_number_of_nodes(),
            e_classes: runner.egraph.number_of_classes(),
            // RegionsConverged is saturation of a multi-root run: every
            // statement region reached the per-region fixpoint a run over
            // that statement alone stops on.
            converged: matches!(
                runner.stop_reason,
                Some(StopReason::Saturated | StopReason::RegionsConverged)
            ),
            stop_reason: runner.stop_reason.clone(),
            candidates_visited: runner
                .iterations
                .iter()
                .flat_map(|it| &it.rules)
                .map(|r| r.candidates)
                .sum(),
            matches_found: runner.iterations.iter().map(|it| it.matches_found).sum(),
            region_frozen_iters: runner
                .iterations
                .iter()
                .map(|it| it.frozen_regions.iter().filter(|&&f| f).count())
                .sum(),
        };
        let eroots = runner.roots;
        let egraph = runner.egraph;

        // ---- extract one multi-root plan --------------------------------
        let t0 = Instant::now();
        let mut ilp_stats = None;
        let extracted = match cfg.extractor {
            ExtractorKind::Greedy => {
                let _span = spores_telemetry::span!("optimize.extract.greedy");
                extract_greedy_costed(&egraph, &eroots)
            }
            ExtractorKind::Ilp => {
                let mut span =
                    spores_telemetry::span!("optimize.extract.ilp", e_nodes = saturation.e_nodes,);
                let solver = spores_ilp::Solver {
                    time_limit: cfg.ilp_time_limit,
                    ..spores_ilp::Solver::default()
                };
                extract_ilp_multi(&egraph, &eroots, &solver).map(|(c, e, ids, s)| {
                    span.arg("n_vars", s.n_vars);
                    span.arg("rounds", s.rounds);
                    span.arg("optimal", s.optimal);
                    if let Some(w) = s.warm_start {
                        span.arg("warm_start", w);
                    }
                    ilp_stats = Some(s);
                    (c, c, e, ids)
                })
            }
        };
        let t_extract = t0.elapsed();

        // ---- lower back to LA, into one shared arena ---------------------
        let span = spores_telemetry::span!("optimize.lower");
        let t0 = Instant::now();
        let lowered = extracted.as_ref().and_then(|(_, _, expr, ids)| {
            let specs: Vec<(Id, Option<Symbol>, Option<Symbol>)> = ids
                .iter()
                .zip(&plans)
                .map(|(&id, &(_, row, col, _))| (id, row, col))
                .collect();
            lower_workload(expr, &specs, &ctx).ok()
        });
        let t_lower = t0.elapsed();
        drop(span);

        // cost of the input plans, for the before/after comparison
        let cost_before = translated_cost(ctx, plans.iter().map(|(expr, ..)| expr));
        let timings = PhaseTimings {
            translate: t_translate,
            saturate: t_saturate,
            extract: t_extract,
            lower: t_lower,
        };
        Ok(match (extracted, lowered) {
            (Some((tree_cost_after, cost_after, ..)), Some(low)) => Pipelined {
                arena: low.arena,
                roots: low.roots,
                timings,
                saturation,
                cost_before,
                cost_after,
                tree_cost_after,
                ilp: ilp_stats,
                fell_back: false,
                size_polymorphic: !low.dim_constants,
            },
            // extraction or lowering failed: return the input plans
            _ => Pipelined {
                arena: arena.clone(),
                roots: roots.to_vec(),
                timings,
                saturation,
                cost_before,
                cost_after: cost_before,
                tree_cost_after: cost_before,
                ilp: ilp_stats,
                fell_back: true,
                size_polymorphic: false,
            },
        })
    }
}

/// What one run of the pipeline produced, before its projection into
/// [`Optimized`] or `WorkloadOptimized`: the plan arena with one root
/// per input root, in input order.
pub(crate) struct Pipelined {
    pub arena: ExprArena,
    pub roots: Vec<NodeId>,
    pub timings: PhaseTimings,
    pub saturation: SaturationStats,
    /// Summed cost estimate of the input plans.
    pub cost_before: f64,
    /// DAG cost of the extracted plan: each shared e-class paid once
    /// across all roots.
    pub cost_after: f64,
    /// Summed per-root *tree* cost of the extracted plan — what the
    /// greedy extractor minimizes. The ILP's optimum is a DAG cost, so
    /// under ILP extraction this is `cost_after`.
    pub tree_cost_after: f64,
    pub ilp: Option<IlpStats>,
    /// True when extraction or lowering failed and `arena` / `roots` are
    /// the input's.
    pub fell_back: bool,
    pub size_polymorphic: bool,
}

/// Price already-translated plans with the greedy extractor: build a
/// fresh (unsaturated) e-graph over the expressions and sum their best
/// costs under [`NnzCost`].
fn translated_cost<'e>(ctx: Context, exprs: impl Iterator<Item = &'e MathExpr>) -> f64 {
    let mut pre = MathGraph::new(MetaAnalysis::new(ctx));
    let ids: Vec<Id> = exprs.map(|expr| pre.add_expr(expr)).collect();
    pre.rebuild();
    let ext = Extractor::new(&pre, NnzCost);
    ids.iter()
        .map(|&id| ext.best_cost(id).unwrap_or(f64::INFINITY))
        .sum()
}

/// Cost-model estimate ([`NnzCost`], Figure 12) of an LA plan as-is — no
/// saturation, no extraction search. This is what a plan cache's hit
/// re-check pays: translate + one greedy pricing pass, orders of magnitude
/// cheaper than the full pipeline.
pub fn plan_cost(
    arena: &ExprArena,
    root: NodeId,
    vars: &HashMap<Symbol, VarMeta>,
) -> Result<f64, TranslateError> {
    let tr = translate(arena, root, vars)?;
    Ok(translated_cost(tr.ctx, std::iter::once(&tr.expr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_la, Tensor};
    use spores_ir::parse_expr;

    fn vars(list: &[(&str, (u64, u64), f64)]) -> HashMap<Symbol, VarMeta> {
        list.iter()
            .map(|&(n, (r, c), s)| (Symbol::new(n), VarMeta::sparse(r, c, s)))
            .collect()
    }

    fn optimize(src: &str, vs: &HashMap<Symbol, VarMeta>, kind: ExtractorKind) -> Optimized {
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, src).unwrap();
        let opt = Optimizer::new(OptimizerConfig {
            extractor: kind,
            // keep unit tests quick; the benches use the full budget
            node_limit: 8_000,
            iter_limit: 15,
            ..OptimizerConfig::default()
        });
        opt.optimize(&arena, root, vs).unwrap()
    }

    #[test]
    fn headline_optimization_exploits_sparsity() {
        // §1: sum((X − u vᵀ)²) with sparse X must avoid the dense u vᵀ
        // intermediate. 1000×500 at 0.1% nnz.
        let vs = vars(&[
            ("X", (1000, 500), 0.001),
            ("u", (1000, 1), 1.0),
            ("v", (500, 1), 1.0),
        ]);
        let got = optimize("sum((X - u %*% t(v))^2)", &vs, ExtractorKind::Greedy);
        assert!(!got.fell_back);
        assert!(
            got.speedup_estimate() > 50.0,
            "expected large estimated speedup, got {} ({} -> {}), plan: {}",
            got.speedup_estimate(),
            got.cost_before,
            got.cost_after,
            got.arena.display(got.root)
        );
        // and the optimized plan must not contain the dense outer product
        let shown = got.arena.display(got.root);
        assert!(
            !shown.contains("u %*% t(v)"),
            "dense outer product survived: {shown}"
        );
    }

    #[test]
    fn headline_variant_with_plus_also_optimizes() {
        // §1: "SystemML fails to optimize sum((X + UVᵀ)²), where we just
        // replaced − with +" — SPORES must handle it identically.
        let vs = vars(&[
            ("X", (1000, 500), 0.001),
            ("u", (1000, 1), 1.0),
            ("v", (500, 1), 1.0),
        ]);
        let got = optimize("sum((X + u %*% t(v))^2)", &vs, ExtractorKind::Greedy);
        assert!(
            got.speedup_estimate() > 50.0,
            "plus-variant speedup {} (plan {})",
            got.speedup_estimate(),
            got.arena.display(got.root)
        );
    }

    #[test]
    fn optimized_plan_preserves_semantics() {
        let vs = vars(&[("X", (6, 5), 1.0), ("u", (6, 1), 1.0), ("v", (5, 1), 1.0)]);
        let src = "sum((X - u %*% t(v))^2)";
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, src).unwrap();
        let got = optimize(src, &vs, ExtractorKind::Ilp);
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
            (Symbol::new("u"), mk(6, 1, 2)),
            (Symbol::new("v"), mk(5, 1, 3)),
        ]);
        let want = eval_la(&arena, root, &tensors).unwrap();
        let have = eval_la(&got.arena, got.root, &tensors).unwrap();
        assert!(
            want.approx_eq(&have, 1e-6),
            "optimized plan diverged: {} vs {:?} / {:?}",
            got.arena.display(got.root),
            want,
            have
        );
    }

    #[test]
    fn als_expansion_distributes_over_sparse_x() {
        // §4.2 ALS: (U Vᵀ − X) V expands to U Vᵀ V − X V when X is sparse
        let vs = vars(&[
            ("X", (2000, 1000), 0.001),
            ("U", (2000, 10), 1.0),
            ("V", (1000, 10), 1.0),
        ]);
        let got = optimize("(U %*% t(V) - X) %*% V", &vs, ExtractorKind::Greedy);
        assert!(!got.fell_back);
        assert!(
            got.speedup_estimate() > 10.0,
            "ALS speedup estimate {} (plan {})",
            got.speedup_estimate(),
            got.arena.display(got.root)
        );
    }

    #[test]
    fn pnmf_sum_wh_becomes_vector_product() {
        // §4.2 PNMF: sum(W H) = dot(colSums(W), rowSums(H)) — never
        // materialize the dense product
        let vs = vars(&[("W", (5000, 10), 1.0), ("H", (10, 3000), 1.0)]);
        let got = optimize("sum(W %*% H)", &vs, ExtractorKind::Greedy);
        assert!(!got.fell_back);
        let shown = got.arena.display(got.root);
        assert!(
            got.cost_after < 100_000.0,
            "sum(WH) should cost ~vector work, got {} ({shown})",
            got.cost_after
        );
    }

    #[test]
    fn shape_errors_name_no_statement() {
        // one expression is the one-root case of the multi-root pipeline;
        // the text a mis-shaped input is refused with must not show it
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, "X %*% Y").unwrap();
        let vs = vars(&[("X", (3, 4), 1.0), ("Y", (5, 6), 1.0)]);
        let err = Optimizer::default()
            .optimize(&arena, root, &vs)
            .unwrap_err();
        assert_eq!(
            err.0,
            "shape error at node NodeId(2): matmul mismatch 3x4 %*% 5x6"
        );
        assert_eq!(plan_cost(&arena, root, &vs).unwrap_err().0, err.0);
    }

    #[test]
    fn timings_are_recorded() {
        let vs = vars(&[("X", (100, 50), 0.1)]);
        let got = optimize("sum(X^2)", &vs, ExtractorKind::Greedy);
        assert!(got.timings.saturate > Duration::ZERO);
        assert!(got.timings.total() >= got.timings.saturate);
        assert!(got.saturation.e_nodes > 0);
        // the indexed matcher's stats thread through to the optimizer
        assert!(got.saturation.matches_found > 0);
        assert!(got.saturation.candidates_visited > 0);
    }

    #[test]
    fn ilp_extraction_runs_end_to_end() {
        let vs = vars(&[
            ("X", (200, 100), 0.01),
            ("u", (200, 1), 1.0),
            ("v", (100, 1), 1.0),
        ]);
        let got = optimize("sum(X * (u %*% t(v)))", &vs, ExtractorKind::Ilp);
        assert!(!got.fell_back);
        let stats = got.ilp.expect("ilp stats recorded");
        assert!(stats.n_vars > 0);
        assert!(stats.optimal);
    }
}
