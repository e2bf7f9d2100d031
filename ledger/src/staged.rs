//! The traced pass's pipeline: the harness itself stages parse →
//! translate → saturate → price → extract → lower with the settings
//! `spores_ml` uses, recording one span per call into a layer. A staged
//! plan that differs from the one `spores_ml` compiles is counted in
//! `trace.plan_mismatches`, because then these rows describe some other
//! pipeline.

use crate::json::J;
use crate::program::Plan;
use crate::spec::CompilePath;
use crate::tracer::{SpanId, Tracer};
use spores_core::{
    default_rules, extract_greedy, extract_greedy_multi, lower_with_info, lower_workload,
    translate, translate_workload, Math, MathGraph, MetaAnalysis, NnzCost, OptimizerConfig,
    SaturationStats, WorkloadTranslation,
};
use spores_egraph::{Extractor, Id, RegionConfig, Runner, StopReason};
use spores_ir::Symbol;
use spores_ml::runner::{
    statement_requests, workload_bundle, workload_optimizer_config, CompileReport, Compiled,
    WorkloadCompiled,
};
use spores_ml::workloads::Workload;
use spores_service::Request;

/// Sums over one staged compile of every program of a workload.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub compile_ms: f64,
    pub translate_ms: f64,
    pub saturate_ms: f64,
    pub search_ms: f64,
    pub apply_ms: f64,
    pub rebuild_ms: f64,
    pub cost_ms: f64,
    pub greedy_ms: f64,
    pub lower_ms: f64,
    pub la_in_nodes: usize,
    pub ra_nodes: usize,
    pub saturations: usize,
    pub converged: usize,
    pub timeouts: usize,
    pub iterations: usize,
    pub e_nodes: usize,
    pub max_e_nodes: usize,
    pub e_classes: usize,
    pub candidates: usize,
    pub matches_found: usize,
    pub matches_applied: usize,
    pub unions: usize,
    pub muted_rule_iters: usize,
    pub cost_before: f64,
    pub plan_cost: f64,
    pub la_nodes: usize,
    pub statements: usize,
    pub fallbacks: usize,
    pub size_polymorphic: usize,
    /// Per saturation, in order: what `Optimizer` reports of the same
    /// run, for `trace.plan_mismatches`.
    pub saturation_facts: Vec<SaturationFacts>,
}

/// The counters `spores_core::SaturationStats` exposes that repeat
/// exactly: iterations, e-nodes, e-classes, candidates visited, matches
/// found.
pub type SaturationFacts = [usize; 5];

pub fn facts_of(stats: &SaturationStats) -> SaturationFacts {
    [
        stats.iterations,
        stats.e_nodes,
        stats.e_classes,
        stats.candidates_visited,
        stats.matches_found,
    ]
}

impl Layers {
    fn absorb(&mut self, runner: &Runner<Math, MetaAnalysis>) {
        self.saturations += 1;
        self.converged += usize::from(matches!(
            runner.stop_reason,
            Some(StopReason::Saturated | StopReason::RegionsConverged)
        ));
        self.timeouts += usize::from(matches!(runner.stop_reason, Some(StopReason::TimeLimit(_))));
        self.iterations += runner.iterations.len();
        let e_nodes = runner.egraph.total_number_of_nodes();
        let e_classes = runner.egraph.number_of_classes();
        self.e_nodes += e_nodes;
        self.max_e_nodes = self.max_e_nodes.max(e_nodes);
        self.e_classes += e_classes;
        let (candidates, matches_found) = (self.candidates, self.matches_found);
        for it in &runner.iterations {
            self.search_ms += it.search_time.as_secs_f64() * 1e3;
            self.apply_ms += it.apply_time.as_secs_f64() * 1e3;
            self.rebuild_ms += it.rebuild_time.as_secs_f64() * 1e3;
            self.matches_found += it.matches_found;
            self.matches_applied += it.matches_applied;
            self.unions += it.unions;
            for rule in &it.rules {
                self.candidates += rule.candidates;
                self.muted_rule_iters += usize::from(rule.muted);
            }
        }
        self.saturation_facts.push([
            runner.iterations.len(),
            e_nodes,
            e_classes,
            self.candidates - candidates,
            self.matches_found - matches_found,
        ]);
    }
}

/// The optimizer settings `spores_ml` compiles with, on both of its
/// entry points.
pub fn ml_config() -> OptimizerConfig {
    workload_optimizer_config()
}

fn runner_for(ctx: &spores_core::Context, cfg: &OptimizerConfig) -> Runner<Math, MetaAnalysis> {
    let runner = Runner::new(MetaAnalysis::new(ctx.clone()))
        .with_scheduler(cfg.scheduler.clone())
        .with_iter_limit(cfg.iter_limit)
        .with_node_limit(cfg.node_limit)
        .with_time_limit(cfg.time_limit)
        .with_parallel(cfg.parallel)
        .with_matching(cfg.matching);
    match cfg.rule_priors.clone() {
        Some(priors) => runner.with_rule_priors(priors),
        None => runner,
    }
}

/// Price input plans the way `Optimizer` does for its before/after
/// estimate: a fresh e-graph over the translated terms, greedy best cost.
fn input_cost(ctx: &spores_core::Context, exprs: &[&spores_core::MathExpr]) -> f64 {
    let mut pre = MathGraph::new(MetaAnalysis::new(ctx.clone()));
    let ids: Vec<Id> = exprs.iter().map(|e| pre.add_expr(e)).collect();
    pre.rebuild();
    let extractor = Extractor::new(&pre, NnzCost);
    ids.iter()
        .map(|&id| extractor.best_cost(id).unwrap_or(f64::INFINITY))
        .sum()
}

/// Stage one statement request; returns its plan (the input plan when
/// extraction or lowering fails, as `Optimizer::optimize` does).
fn stage_statement(
    tr: &mut Tracer,
    compile: SpanId,
    id: &str,
    request: &Request,
    cfg: &OptimizerConfig,
    acc: &mut Layers,
) -> Result<(spores_ir::ExprArena, spores_ir::NodeId), String> {
    acc.statements += 1;
    acc.la_in_nodes += request.arena.postorder(request.root).len();

    let (translated, ms) = tr.time("translate", compile, id, || {
        translate(&request.arena, request.root, &request.vars)
    });
    let translated = translated.map_err(|e| format!("{id}: {}", e.0))?;
    acc.translate_ms += ms;
    acc.ra_nodes += translated.expr.len();

    let (runner, ms) = tr.time("saturate", compile, id, || {
        let rules = default_rules();
        runner_for(&translated.ctx, cfg)
            .with_expr(&translated.expr)
            .run(&rules)
    });
    acc.saturate_ms += ms;
    acc.absorb(&runner);
    let root = runner.roots[0];

    let (before, ms) = tr.time("cost", compile, id, || {
        input_cost(&translated.ctx, &[&translated.expr])
    });
    acc.cost_ms += ms;
    acc.cost_before += before;

    let (extracted, ms) = tr.time("extract", compile, id, || {
        extract_greedy(&runner.egraph, root)
    });
    acc.greedy_ms += ms;

    let (lowered, ms) = tr.time("lower", compile, id, || {
        extracted.as_ref().and_then(|(_, plan)| {
            lower_with_info(plan, translated.row, translated.col, &translated.ctx).ok()
        })
    });
    acc.lower_ms += ms;

    match (extracted, lowered) {
        (Some((cost, _)), Some(low)) => {
            acc.plan_cost += cost;
            acc.la_nodes += low.arena.postorder(low.root).len();
            acc.size_polymorphic += usize::from(!low.dim_constants);
            Ok((low.arena, low.root))
        }
        _ => {
            acc.fallbacks += 1;
            acc.plan_cost += before;
            Ok((request.arena.clone(), request.root))
        }
    }
}

/// Translate and saturate a whole program in one shared e-graph, as
/// `Optimizer::optimize_workload` does with region freezing on.
pub fn saturate_workload(
    wt: &WorkloadTranslation,
    cfg: &OptimizerConfig,
) -> Runner<Math, MetaAnalysis> {
    let rules = default_rules();
    let mut runner = runner_for(&wt.ctx, cfg).with_regions(RegionConfig::default());
    for root in &wt.roots {
        runner = runner.with_expr(&root.expr);
    }
    runner.run(&rules)
}

fn stage_workload(
    tr: &mut Tracer,
    compile: SpanId,
    id: &str,
    workload: &Workload,
    cfg: &OptimizerConfig,
    acc: &mut Layers,
) -> Result<WorkloadCompiled, String> {
    let (bundle, _) = tr.time("ir.parse", compile, id, || workload_bundle(workload));
    acc.statements += bundle.expr.len();
    acc.la_in_nodes += bundle
        .expr
        .arena
        .postorder_multi(&bundle.expr.root_ids())
        .len();

    let (wt, ms) = tr.time("translate", compile, id, || {
        translate_workload(&bundle.expr.arena, &bundle.expr.roots, &bundle.vars)
    });
    let wt = wt.map_err(|e| format!("{id}: {}", e.0))?;
    acc.translate_ms += ms;
    acc.ra_nodes += wt.roots.iter().map(|r| r.expr.len()).sum::<usize>();

    let (runner, ms) = tr.time("saturate", compile, id, || saturate_workload(&wt, cfg));
    acc.saturate_ms += ms;
    acc.absorb(&runner);

    let (before, ms) = tr.time("cost", compile, id, || {
        let exprs: Vec<&spores_core::MathExpr> = wt.roots.iter().map(|r| &r.expr).collect();
        input_cost(&wt.ctx, &exprs)
    });
    acc.cost_ms += ms;
    acc.cost_before += before;

    let (extracted, ms) = tr.time("extract", compile, id, || {
        extract_greedy_multi(&runner.egraph, &runner.roots)
    });
    acc.greedy_ms += ms;

    let (lowered, ms) = tr.time("lower", compile, id, || {
        extracted.as_ref().and_then(|(_, expr, ids)| {
            let specs: Vec<(Id, Option<Symbol>, Option<Symbol>)> = ids
                .iter()
                .zip(&wt.roots)
                .map(|(&id, rt)| (id, rt.row, rt.col))
                .collect();
            lower_workload(expr, &specs, &wt.ctx).ok()
        })
    });
    acc.lower_ms += ms;

    let names = bundle.expr.roots.iter().map(|&(name, _)| name);
    let (arena, roots) = match (extracted, lowered) {
        (Some((cost, _, _)), Some(low)) => {
            acc.plan_cost += cost;
            acc.la_nodes += low.arena.postorder_multi(&low.roots).len();
            acc.size_polymorphic += usize::from(!low.dim_constants) * bundle.expr.len();
            (low.arena, names.zip(low.roots).collect())
        }
        _ => {
            acc.fallbacks += bundle.expr.len();
            acc.plan_cost += before;
            (bundle.expr.arena.clone(), bundle.expr.roots.clone())
        }
    };
    Ok(WorkloadCompiled {
        arena,
        roots,
        writebacks: bundle.writebacks,
        report: CompileReport::default(),
        saturation: None,
    })
}

/// Stage the compile of one program on the given entry point, as one
/// `compile` span under `parent` whose children are the layer calls.
pub fn stage_program(
    tr: &mut Tracer,
    parent: SpanId,
    rep_id: &str,
    workload: &Workload,
    path: CompilePath,
    cfg: &OptimizerConfig,
    acc: &mut Layers,
) -> Result<Plan, String> {
    let id = format!("{rep_id}/{}", workload.name);
    let compile = tr.open("compile", Some(parent), &id);
    let plan = match path {
        CompilePath::PerStatement => {
            let (requests, _) = tr.time("ir.parse", compile, &id, || statement_requests(workload));
            let mut statements = Vec::with_capacity(requests.len());
            for (target, request) in &requests {
                let sid = format!("{id}.{target}");
                let (arena, root) = stage_statement(tr, compile, &sid, request, cfg, acc)?;
                statements.push((*target, arena, root));
            }
            Plan::PerStatement(Compiled {
                statements,
                report: CompileReport::default(),
            })
        }
        CompilePath::WorkloadMode => {
            Plan::Workload(stage_workload(tr, compile, &id, workload, cfg, acc)?)
        }
    };
    acc.compile_ms += tr.close(compile);
    tr.arg(compile, "max_e_nodes", J::from(acc.max_e_nodes));
    Ok(plan)
}
