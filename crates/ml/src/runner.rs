//! Compile-and-run harness for the workloads.
//!
//! Reproduces the three configurations of §4.2:
//!
//! * [`Mode::Base`]   — SystemML optimization level 1: local rewrites
//!   only, no operator fusion.
//! * [`Mode::Opt2`]   — level 2 (SystemML's default): all hand-coded
//!   sum-product rewrites + fusion.
//! * [`Mode::Spores`] — the SPORES optimizer (saturation + extraction),
//!   running inside the same pipeline and executor.
//!
//! Compilation walks the statements in order, maintaining shape/sparsity
//! metadata for assigned variables; execution then loops the compiled
//! statements with persistent state, accumulating wall-clock time and
//! the deterministic [`ExecStats`] counters.

use crate::workloads::Workload;
use spores_core::{
    ExtractorKind, Optimizer, OptimizerConfig, PhaseTimings, SaturationStats, VarMeta,
    WorkloadOptimized,
};
use spores_egraph::Scheduler;
use spores_exec::{Bindings, ExecConfig, ExecError, ExecStats, Executor, Overlay};
use spores_ir::{ExprArena, NodeId, Symbol, WorkloadExpr};
use spores_systemml::{HeuristicRewriter, OptLevel, VarInfo};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which optimizer compiles the program.
#[derive(Clone, Debug)]
pub enum Mode {
    Base,
    Opt2,
    Spores {
        scheduler: Scheduler,
        extractor: ExtractorKind,
    },
}

impl Mode {
    /// The default SPORES configuration (sampling + greedy, the paper's
    /// recommended setting after §4.3).
    pub fn spores() -> Mode {
        Mode::Spores {
            scheduler: Scheduler::default(),
            extractor: ExtractorKind::Greedy,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Mode::Base => "base",
            Mode::Opt2 => "opt2",
            Mode::Spores {
                extractor: ExtractorKind::Greedy,
                scheduler: Scheduler::Sampling { .. },
            } => "S+greedy",
            Mode::Spores {
                extractor: ExtractorKind::Ilp,
                scheduler: Scheduler::Sampling { .. },
            } => "S+ILP",
            Mode::Spores {
                extractor: ExtractorKind::Greedy,
                scheduler: Scheduler::DepthFirst,
            } => "D+greedy",
            Mode::Spores {
                extractor: ExtractorKind::Ilp,
                scheduler: Scheduler::DepthFirst,
            } => "D+ILP",
        }
    }

    fn fusion(&self) -> bool {
        !matches!(self, Mode::Base)
    }
}

/// A compiled program: one optimized DAG per statement.
pub struct Compiled {
    pub statements: Vec<(Symbol, ExprArena, NodeId)>,
    pub report: CompileReport,
}

/// Compile-time measurements (Figure 16).
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    pub total: Duration,
    /// Per-phase breakdown summed over statements (SPORES modes only).
    pub phases: Option<PhaseTimings>,
    /// Did saturation converge on every statement?
    pub converged: bool,
    /// Compile-time timeout tripped (depth-first on large programs).
    pub timed_out: bool,
    /// Peak e-graph size over the statements.
    pub max_e_nodes: usize,
}

/// Execution measurements (Figures 15/17).
#[derive(Clone, Debug)]
pub struct RunReport {
    pub mode: &'static str,
    pub compile: CompileReport,
    pub exec_time: Duration,
    pub stats: ExecStats,
    /// Final values of scalar (1×1) variables, for cross-mode validation.
    pub scalars: HashMap<Symbol, f64>,
}

/// Saturation budget used by the SPORES modes (the paper's 2.5 s cap).
pub const SATURATION_TIMEOUT: Duration = Duration::from_millis(2500);

/// The compilation context of one statement: its target, its root in the
/// shared arena, the variable metadata visible at that point of the
/// program (inputs plus earlier targets), and the metadata the target
/// carries after the statement.
struct StatementCtx {
    target: Symbol,
    root: NodeId,
    meta: HashMap<Symbol, VarMeta>,
    assigned: VarMeta,
}

/// The shape and sparsity of every workload input.
fn input_vars(workload: &Workload) -> HashMap<Symbol, VarMeta> {
    workload
        .input_meta()
        .into_iter()
        .map(|(s, (shape, sparsity))| (s, VarMeta { shape, sparsity }))
        .collect()
}

/// Walk the statements in program order, threading shape/sparsity
/// metadata for assigned variables. Per-statement compilation, the
/// service requests and the workload bundle all read this walk, so it is
/// the single place the estimate for a computed variable lives: a target
/// keeps its current metadata when the new value has the same shape (an
/// input updated in place keeps its sparsity), and otherwise gets a
/// dense estimate of the new shape.
fn statement_contexts(workload: &Workload) -> (ExprArena, Vec<StatementCtx>) {
    let (arena, roots) = workload.parse();
    let mut meta = input_vars(workload);
    let mut contexts = Vec::with_capacity(roots.len());
    for (target, root) in roots {
        let shape_env: spores_ir::ShapeEnv = meta.iter().map(|(&s, m)| (s, m.shape)).collect();
        let shape = arena
            .shape_of(root, &shape_env)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        let assigned = match meta.get(&target) {
            Some(m) if m.shape == shape => *m,
            _ => VarMeta {
                shape,
                sparsity: 1.0,
            },
        };
        contexts.push(StatementCtx {
            target,
            root,
            meta: meta.clone(),
            assigned,
        });
        meta.insert(target, assigned);
    }
    (arena, contexts)
}

/// Compile `workload` under `mode`.
pub fn compile(workload: &Workload, mode: &Mode) -> Compiled {
    let _span =
        spores_telemetry::span!("ml.compile", workload = workload.name, mode = mode.label(),);
    let t0 = Instant::now();
    let (arena, contexts) = statement_contexts(workload);

    let mut statements = Vec::with_capacity(contexts.len());
    let mut phases = PhaseTimings::default();
    let mut converged = true;
    let mut timed_out = false;
    let mut max_e_nodes = 0;

    for StatementCtx {
        target, root, meta, ..
    } in contexts
    {
        let (new_arena, new_root) = match mode {
            Mode::Base | Mode::Opt2 => {
                let level = if matches!(mode, Mode::Base) {
                    OptLevel::Base
                } else {
                    OptLevel::Opt2
                };
                let vars: HashMap<Symbol, VarInfo> = meta
                    .iter()
                    .map(|(&s, m)| {
                        (
                            s,
                            VarInfo {
                                shape: m.shape,
                                sparsity: m.sparsity,
                            },
                        )
                    })
                    .collect();
                let r = HeuristicRewriter::new(level).rewrite(&arena, root, &vars);
                (r.arena, r.root)
            }
            Mode::Spores {
                scheduler,
                extractor,
            } => {
                let opt = Optimizer::new(OptimizerConfig {
                    scheduler: scheduler.clone(),
                    extractor: *extractor,
                    time_limit: SATURATION_TIMEOUT,
                    // sampling spreads match applications across rules, so
                    // it needs more iterations than depth-first to reach
                    // the fixpoint (§4.3: "sampling takes longer to
                    // converge when full saturation is possible")
                    iter_limit: 100,
                    ilp_time_limit: std::time::Duration::from_secs(2),
                    ..OptimizerConfig::default()
                });
                let got = opt
                    .optimize(&arena, root, &meta)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                phases.translate += got.timings.translate;
                phases.saturate += got.timings.saturate;
                phases.extract += got.timings.extract;
                phases.lower += got.timings.lower;
                converged &= got.saturation.converged;
                timed_out |= matches!(
                    got.saturation.stop_reason,
                    Some(spores_egraph::StopReason::TimeLimit(_))
                );
                max_e_nodes = max_e_nodes.max(got.saturation.e_nodes);
                (got.arena, got.root)
            }
        };
        statements.push((target, new_arena, new_root));
    }

    let report = CompileReport {
        total: t0.elapsed(),
        phases: matches!(mode, Mode::Spores { .. }).then_some(phases),
        converged,
        timed_out,
        max_e_nodes,
    };
    Compiled { statements, report }
}

/// Execute a compiled program for the workload's iteration count.
pub fn execute(
    workload: &Workload,
    compiled: &Compiled,
    mode: &Mode,
) -> Result<RunReport, ExecError> {
    let _span =
        spores_telemetry::span!("ml.execute", workload = workload.name, mode = mode.label(),);
    let mut exec = Executor::new(ExecConfig {
        fusion: mode.fusion(),
    });
    // the inputs are read in place; only assigned targets are stored
    let mut env = Overlay::new(&workload.inputs);
    let t0 = Instant::now();
    for _ in 0..workload.iterations {
        for (target, arena, root) in &compiled.statements {
            let value = exec.run(arena, *root, &env)?;
            env.bind(*target, value);
        }
    }
    let exec_time = t0.elapsed();
    Ok(RunReport {
        mode: mode.label(),
        compile: compiled.report.clone(),
        exec_time,
        stats: exec.stats,
        scalars: final_scalars(&env),
    })
}

/// The scalar (1×1) variables a finished run leaves bound.
fn final_scalars(env: &Overlay) -> HashMap<Symbol, f64> {
    env.iter()
        .filter(|(_, m)| m.is_scalar())
        .map(|(s, m)| (s, m.as_scalar()))
        .collect()
}

/// Compile + execute in one call.
pub fn run(workload: &Workload, mode: &Mode) -> Result<RunReport, ExecError> {
    let compiled = compile(workload, mode);
    execute(workload, &compiled, mode)
}

/// A workload program converted to a pure SSA expression bundle.
///
/// Sequential programs reassign variables (`U = U - 0.0001 * GU`), which
/// is unsound to merge into one e-graph naively: two occurrences of `U`
/// before and after the assignment denote different values. The bundle
/// builder version-renames every assignment target (`U@1`, `U@2`, …) so
/// each root binds a fresh name and later statements read exactly the
/// version they mean — making all syntactic sharing in the bundle
/// genuine value sharing.
#[derive(Clone, Debug)]
pub struct WorkloadBundle {
    pub expr: WorkloadExpr,
    /// Metadata for every leaf the bundle reads: the workload inputs
    /// (original names) plus the version symbols of computed targets
    /// (the estimates per-statement compilation uses: both read one
    /// statement walk).
    pub vars: HashMap<Symbol, VarMeta>,
    /// `target ← final version symbol`, applied after each pass.
    pub writebacks: Vec<(Symbol, Symbol)>,
}

/// Build the SSA bundle of a workload's statements. See [`WorkloadBundle`].
pub fn workload_bundle(workload: &Workload) -> WorkloadBundle {
    let (parse_arena, contexts) = statement_contexts(workload);
    let mut vars = input_vars(workload);
    let mut arena = ExprArena::new();
    let mut cur: HashMap<Symbol, Symbol> = HashMap::new();
    let mut versions: HashMap<Symbol, usize> = HashMap::new();
    let mut bundle_roots = Vec::with_capacity(contexts.len());
    let mut writeback_order: Vec<Symbol> = Vec::new();
    for StatementCtx {
        target,
        root,
        assigned,
        ..
    } in contexts
    {
        // reads resolve through the *current* version map (the target's
        // own RHS still reads the previous version)
        let root_b = arena.graft(&parse_arena, root, &cur);
        let k = versions.entry(target).and_modify(|k| *k += 1).or_insert(1);
        let version = Symbol::new(&format!("{target}@{k}"));
        vars.insert(version, assigned);
        if !writeback_order.contains(&target) {
            writeback_order.push(target);
        }
        cur.insert(target, version);
        bundle_roots.push((version, root_b));
    }
    let writebacks = writeback_order.into_iter().map(|t| (t, cur[&t])).collect();
    let expr =
        WorkloadExpr::new(arena, bundle_roots).unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    WorkloadBundle {
        expr,
        vars,
        writebacks,
    }
}

/// A workload compiled in workload mode: ONE shared multi-root plan.
pub struct WorkloadCompiled {
    /// The shared plan arena (common subplans bound once).
    pub arena: ExprArena,
    /// Per-statement `(version symbol, plan root)`, in program order.
    pub roots: Vec<(Symbol, NodeId)>,
    /// `target ← final version` write-backs after each pass.
    pub writebacks: Vec<(Symbol, Symbol)>,
    pub report: CompileReport,
    /// Statistics of the single shared saturation run (`None` when the
    /// plan was assembled outside [`compile_workload`], e.g. from a
    /// service reply).
    pub saturation: Option<SaturationStats>,
}

/// Compile a workload in workload mode: every statement saturated in one
/// shared e-graph, one multi-root plan extracted (the ROADMAP's
/// cross-statement CSE step).
pub fn compile_workload(workload: &Workload) -> WorkloadCompiled {
    let t0 = Instant::now();
    let bundle = workload_bundle(workload);
    let opt = Optimizer::new(workload_optimizer_config());
    let got: WorkloadOptimized = opt
        .optimize_workload(&bundle.expr, &bundle.vars)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    let report = CompileReport {
        total: t0.elapsed(),
        phases: Some(got.timings),
        converged: got.saturation.converged,
        timed_out: matches!(
            got.saturation.stop_reason,
            Some(spores_egraph::StopReason::TimeLimit(_))
        ),
        max_e_nodes: got.saturation.e_nodes,
    };
    WorkloadCompiled {
        arena: got.arena,
        roots: got.roots,
        writebacks: bundle.writebacks,
        report,
        saturation: Some(got.saturation),
    }
}

/// The optimizer configuration workload mode runs under (the same
/// budgets `Mode::spores` uses per statement, spent once per workload).
pub fn workload_optimizer_config() -> OptimizerConfig {
    OptimizerConfig {
        scheduler: Scheduler::default(),
        extractor: ExtractorKind::Greedy,
        time_limit: SATURATION_TIMEOUT,
        iter_limit: 100,
        ilp_time_limit: Duration::from_secs(2),
        ..OptimizerConfig::default()
    }
}

/// Execute a workload-mode compiled program for the workload's iteration
/// count: each pass evaluates the shared plan's roots with one memo
/// (shared subplans computed once), then writes final versions back to
/// the original target names.
pub fn execute_workload(
    workload: &Workload,
    compiled: &WorkloadCompiled,
) -> Result<RunReport, ExecError> {
    let mut exec = Executor::new(ExecConfig { fusion: true });
    let mut env = Overlay::new(&workload.inputs);
    let t0 = Instant::now();
    for _ in 0..workload.iterations {
        exec.run_many(&compiled.arena, &compiled.roots, &mut env)?;
        // move (not copy) each final version onto its target name
        for (target, version) in &compiled.writebacks {
            if let Some(v) = env.unbind(*version) {
                env.bind(*target, v);
            }
        }
        // drop the remaining version bindings so the next pass
        // recomputes them
        for (version, _) in &compiled.roots {
            env.unbind(*version);
        }
    }
    let exec_time = t0.elapsed();
    Ok(RunReport {
        mode: "workload",
        compile: compiled.report.clone(),
        exec_time,
        stats: exec.stats,
        scalars: final_scalars(&env),
    })
}

/// Compile + execute a workload in workload mode.
pub fn run_workload_mode(workload: &Workload) -> Result<RunReport, ExecError> {
    let compiled = compile_workload(workload);
    execute_workload(workload, &compiled)
}

/// The per-statement service requests of a workload, in statement order,
/// paired with the statement targets. The metadata threading is shared
/// with [`compile`] (via the same statement walk), so service-compiled
/// plans see exactly the metadata `Mode::spores` compilation sees. Each
/// request carries only the statement's own reachable sub-DAG and the
/// metadata of its free variables, not the whole program.
pub fn statement_requests(workload: &Workload) -> Vec<(Symbol, spores_service::Request)> {
    let (arena, contexts) = statement_contexts(workload);
    contexts
        .into_iter()
        .map(
            |StatementCtx {
                 target, root, meta, ..
             }| {
                let (sub, sub_root) = arena.rename_vars(root, &HashMap::new());
                let free: Vec<Symbol> = sub.free_vars(sub_root);
                let vars = meta.into_iter().filter(|(s, _)| free.contains(s)).collect();
                (target, spores_service::Request::new(sub, sub_root, vars))
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn check_modes_agree(w: &Workload) {
        let base = run(w, &Mode::Base).unwrap();
        let opt2 = run(w, &Mode::Opt2).unwrap();
        let spores = run(w, &Mode::spores()).unwrap();
        for (name, v) in &base.scalars {
            let o = opt2.scalars[name];
            let s = spores.scalars[name];
            let tol = 1e-6 * (1.0 + v.abs());
            assert!(
                (v - o).abs() < tol,
                "{} {name}: base {v} vs opt2 {o}",
                w.name
            );
            assert!(
                (v - s).abs() < tol,
                "{} {name}: base {v} vs spores {s}",
                w.name
            );
        }
        assert!(!base.scalars.is_empty(), "{} must track a scalar", w.name);
    }

    #[test]
    fn als_modes_agree() {
        check_modes_agree(&workloads::als(60, 40, 4, 11));
    }

    #[test]
    fn glm_modes_agree() {
        check_modes_agree(&workloads::glm(80, 12, 12));
    }

    #[test]
    fn svm_modes_agree() {
        check_modes_agree(&workloads::svm(80, 12, 13));
    }

    #[test]
    fn mlr_modes_agree() {
        check_modes_agree(&workloads::mlr(80, 10, 14));
    }

    #[test]
    fn pnmf_modes_agree() {
        check_modes_agree(&workloads::pnmf(50, 40, 4, 15));
    }

    #[test]
    fn spores_beats_base_on_als_flops() {
        let w = workloads::als(400, 300, 8, 21);
        let base = run(&w, &Mode::Base).unwrap();
        let spores = run(&w, &Mode::spores()).unwrap();
        assert!(
            spores.stats.flops < base.stats.flops,
            "spores {} vs base {}",
            spores.stats.flops,
            base.stats.flops
        );
    }

    #[test]
    fn pnmf_spores_avoids_dense_product_allocation() {
        let w = workloads::pnmf(300, 400, 6, 22);
        let opt2 = run(&w, &Mode::Opt2).unwrap();
        let spores = run(&w, &Mode::spores()).unwrap();
        assert!(
            spores.stats.cells_allocated < opt2.stats.cells_allocated,
            "spores {} vs opt2 {}",
            spores.stats.cells_allocated,
            opt2.stats.cells_allocated
        );
    }

    #[test]
    fn workload_bundle_is_ssa_and_tracks_versions() {
        let w = workloads::als(40, 30, 3, 9);
        let b = workload_bundle(&w);
        assert_eq!(b.expr.len(), w.statements.len());
        // U is assigned once → final version U@1; every target written back
        let wb: HashMap<String, String> = b
            .writebacks
            .iter()
            .map(|(t, v)| (t.to_string(), v.to_string()))
            .collect();
        assert_eq!(wb["U"], "U@1");
        assert_eq!(wb["V"], "V@1");
        assert_eq!(wb["loss"], "loss@1");
        // statement 3 (GV) reads the *new* U: the version symbol is a leaf
        let (_, gv_root) = b.expr.roots[2];
        assert!(b
            .expr
            .arena
            .free_vars(gv_root)
            .contains(&Symbol::new("U@1")));
        // and the bundle carries metadata for every read leaf
        for leaf in b.expr.read_vars() {
            assert!(b.vars.contains_key(&leaf), "no metadata for {leaf}");
        }
    }

    fn check_workload_mode_agrees(w: &Workload) {
        let base = run(w, &Mode::Base).unwrap();
        let wl = run_workload_mode(w).unwrap();
        for (name, v) in &base.scalars {
            let s = wl.scalars[name];
            let tol = 1e-6 * (1.0 + v.abs());
            assert!(
                (v - s).abs() < tol,
                "{} {name}: base {v} vs workload {s}",
                w.name
            );
        }
        assert!(!base.scalars.is_empty());
    }

    #[test]
    fn als_workload_mode_agrees() {
        check_workload_mode_agrees(&workloads::als(60, 40, 4, 11));
    }

    #[test]
    fn glm_workload_mode_agrees() {
        check_workload_mode_agrees(&workloads::glm(80, 12, 12));
    }

    #[test]
    fn svm_workload_mode_agrees() {
        check_workload_mode_agrees(&workloads::svm(80, 12, 13));
    }

    #[test]
    fn mlr_workload_mode_agrees() {
        check_workload_mode_agrees(&workloads::mlr(80, 10, 14));
    }

    #[test]
    fn pnmf_workload_mode_agrees() {
        check_workload_mode_agrees(&workloads::pnmf(50, 40, 4, 15));
    }

    #[test]
    fn workload_mode_saturates_once_for_all_statements() {
        // ALS: the loss statement shares U Vᵀ with the gradients, and the
        // shared pass's scaled sampling budget converges it in far fewer
        // iterations than it needs alone (the per-statement run spends
        // its whole iteration budget on it)
        let w = workloads::als(60, 40, 4, 11);
        let c = compile_workload(&w);
        let sat = c.saturation.as_ref().expect("direct compile records stats");
        assert!(sat.e_nodes > 0);
        assert_eq!(c.roots.len(), w.statements.len());
        // one shared pass must visit fewer candidates than the sum of
        // independent per-statement passes (shared classes probed once)
        let mut per_statement = 0usize;
        let opt = Optimizer::new(workload_optimizer_config());
        let bundle = workload_bundle(&w);
        for ix in 0..bundle.expr.len() {
            let single = bundle.expr.single_statement(ix);
            let got = opt.optimize_workload(&single, &bundle.vars).unwrap();
            per_statement += got.saturation.candidates_visited;
        }
        assert!(
            sat.candidates_visited < per_statement,
            "one-pass saturation must amortize matching: {} vs {per_statement}",
            sat.candidates_visited
        );
    }

    /// Per-statement compile through a service: the statement requests
    /// as one batch, each served plan bound to its target.
    fn compile_with_service(w: &Workload, svc: &spores_service::OptimizerService) -> Compiled {
        let (targets, requests): (Vec<_>, Vec<_>) = statement_requests(w).into_iter().unzip();
        let statements = targets
            .into_iter()
            .zip(svc.optimize_batch(requests))
            .map(|(target, served)| {
                let served = served.unwrap_or_else(|e| panic!("{}: {e}", w.name));
                (target, served.arena, served.root)
            })
            .collect();
        Compiled {
            statements,
            report: CompileReport::default(),
        }
    }

    /// Workload-mode compile through a service: the bundle as one request.
    fn compile_workload_with_service(
        w: &Workload,
        svc: &spores_service::OptimizerService,
    ) -> WorkloadCompiled {
        let bundle = workload_bundle(w);
        let served = svc
            .optimize_workload(spores_service::WorkloadRequest::new(
                bundle.expr,
                bundle.vars,
            ))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        WorkloadCompiled {
            arena: served.arena,
            roots: served.roots,
            writebacks: bundle.writebacks,
            report: CompileReport::default(),
            saturation: None,
        }
    }

    #[test]
    fn service_compile_agrees_with_direct_spores_compile() {
        use spores_service::{OptimizerService, ServiceConfig};
        let svc = OptimizerService::new(ServiceConfig::default());
        let mode = Mode::spores();
        for w in [
            workloads::als(60, 40, 4, 11),
            workloads::pnmf(50, 40, 4, 15),
        ] {
            let direct = run(&w, &mode).unwrap();
            let compiled = compile_with_service(&w, &svc);
            let via_service = execute(&w, &compiled, &mode).unwrap();
            for (name, v) in &direct.scalars {
                let s = via_service.scalars[name];
                let tol = 1e-6 * (1.0 + v.abs());
                assert!(
                    (v - s).abs() < tol,
                    "{} {name}: direct {v} vs service {s}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn workload_mode_via_service_agrees_and_caches_as_one_entry() {
        use spores_service::{OptimizerService, ServiceConfig};
        let svc = OptimizerService::new(ServiceConfig {
            optimizer: workload_optimizer_config(),
            ..ServiceConfig::default()
        });
        let w = workloads::pnmf(50, 40, 4, 15);
        let direct = run_workload_mode(&w).unwrap();
        let compiled = compile_workload_with_service(&w, &svc);
        let via_service = execute_workload(&w, &compiled).unwrap();
        for (name, v) in &direct.scalars {
            let s = via_service.scalars[name];
            let tol = 1e-6 * (1.0 + v.abs());
            assert!((v - s).abs() < tol, "{name}: direct {v} vs service {s}");
        }
        let cold = svc.stats();
        assert_eq!(cold.misses, 1, "the whole workload is ONE cache entry");
        assert_eq!(cold.hits, 0);
        // epoch 2: one hit for the whole program
        let compiled2 = compile_workload_with_service(&w, &svc);
        let warm = svc.stats();
        assert_eq!(warm.misses, 1, "warm compile re-ran the pipeline");
        assert_eq!(warm.hits, 1);
        let rerun = execute_workload(&w, &compiled2).unwrap();
        for (name, v) in &direct.scalars {
            let s = rerun.scalars[name];
            assert!((v - s).abs() < 1e-6 * (1.0 + v.abs()), "{name} after hit");
        }
    }

    #[test]
    fn recompiling_a_workload_is_served_from_the_cache() {
        use spores_service::{OptimizerService, ServiceConfig};
        let svc = OptimizerService::new(ServiceConfig::default());
        let w = workloads::glm(80, 12, 12);
        let n_statements = w.statements.len() as u64;
        compile_with_service(&w, &svc);
        let cold = svc.stats();
        assert_eq!(cold.hits, 0);
        assert!(cold.misses >= 1);
        // epoch 2: same statements, same metadata — all hits
        compile_with_service(&w, &svc);
        let warm = svc.stats();
        assert_eq!(warm.misses, cold.misses, "warm compile re-ran the pipeline");
        assert_eq!(warm.hits, n_statements);
    }

    /// A statement that reassigns an input with a new shape: every later
    /// read must see the new shape, in every compile path. `X = t(X)`
    /// turns the 40×30 input into a 30×40 value that `X %*% w` needs.
    #[test]
    fn reassigning_an_input_with_a_new_shape_compiles_everywhere() {
        use spores_matrix::gen;
        let mut r = gen::rng(5);
        let w = Workload {
            name: "transpose-in-place",
            size_label: "40x30".into(),
            statements: [("X", "t(X)"), ("y", "sum(X %*% w)")]
                .iter()
                .map(|&(target, src)| crate::Statement {
                    target: Symbol::new(target),
                    src: src.into(),
                })
                .collect(),
            inputs: HashMap::from([
                (
                    Symbol::new("X"),
                    gen::rand_sparse(40, 30, 0.1, 0.0, 1.0, &mut r),
                ),
                (Symbol::new("w"), gen::rand_dense(40, 1, 0.0, 1.0, &mut r)),
            ]),
            iterations: 1,
        };
        assert_eq!(statement_requests(&w).len(), 2);
        let base = run(&w, &Mode::Base).unwrap();
        let y = base.scalars[&Symbol::new("y")];
        let modes = [
            Mode::Opt2,
            Mode::spores(),
            Mode::Spores {
                scheduler: Scheduler::DepthFirst,
                extractor: ExtractorKind::Ilp,
            },
        ];
        let mut reports: Vec<RunReport> = modes.iter().map(|m| run(&w, m).unwrap()).collect();
        reports.push(run_workload_mode(&w).unwrap());
        for report in reports {
            let got = report.scalars[&Symbol::new("y")];
            assert!(
                (got - y).abs() < 1e-9 * (1.0 + y.abs()),
                "{}: {got} vs base {y}",
                report.mode
            );
        }
    }

    #[test]
    fn compile_report_records_phases_for_spores_only() {
        let w = workloads::glm(50, 8, 31);
        let c = compile(&w, &Mode::spores());
        assert!(c.report.phases.is_some());
        assert!(c.report.max_e_nodes > 0);
        let c2 = compile(&w, &Mode::Opt2);
        assert!(c2.report.phases.is_none());
    }
}
