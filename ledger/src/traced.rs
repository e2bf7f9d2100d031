//! The traced pass: a separate run that is never used for end-to-end
//! numbers. It stages the pipeline itself (see `staged`), records a span
//! per call into a layer, measures what only needs measuring once, and
//! writes the spans out when the run ends.

use crate::json::J;
use crate::program::{
    compile_spores, execute_spores, other_path, wrong_scalars, Plan, ProgramSetup,
};
use crate::report::Report;
use crate::run::{
    budgets, check_service, common_notes, output_dir, setup, timed, Prepared, RunArgs,
};
use crate::service::{closed_loop, start_service, Pool, Sample};
use crate::spec::{self, Effort, Scenario};
use crate::staged::{
    facts_of, ml_config, saturate_workload, stage_program, Layers, SaturationFacts,
};
use crate::stats::{median, ms, percentile, samples_beyond};
use crate::tracer::Tracer;
use spores_core::{
    extract_greedy_multi, extract_ilp_multi, plan_cost, translate_workload, workload_plan_cost,
    MatchingMode, Optimizer, OptimizerConfig,
};
use spores_egraph::ParallelConfig;
use spores_ir::{fingerprint, LeafClass, Symbol};
use spores_matrix::gen;
use spores_ml::runner::{compile, execute, statement_requests, workload_bundle, Mode, RunReport};
use spores_ml::workloads::Workload;
use spores_service::{PlanSource, WorkloadRequest};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub fn run_traced(args: &RunArgs) -> Result<Report, String> {
    let scenario = args.scenario;
    let effort = Effort::of(args.smoke);
    let mut report = Report::new(scenario.name, args.seed, args.seconds, true);
    let prepared = setup(scenario, args.seed, args.smoke)?;
    let cfg = ml_config();
    let mut tr = Tracer::new();
    let (program_budget, service_budget) = budgets(args);

    let staged = staged_reps(
        &mut report,
        &mut tr,
        scenario,
        &prepared.programs,
        &cfg,
        program_budget,
        effort.min_reps,
    )?;
    report_pipeline(&mut report, &staged, &tr);
    report_execution(&mut report, &staged.runs);
    report_other_settings(&mut report, scenario, &prepared.programs, &cfg, &staged)?;
    report_ilp(
        &mut report,
        &prepared.programs[0].workload,
        &cfg,
        effort.ilp_limit,
    )?;
    report_baselines(&mut report, scenario, &prepared.programs, &staged.plans);
    let x = prepared.programs[0]
        .workload
        .inputs
        .get(&Symbol::new("X"))
        .ok_or("the first program has no input X")?;
    report_kernels(&mut report, x, args.seed);
    report_service(&mut report, &mut tr, args, &prepared, service_budget);
    report_telemetry(&mut report, scenario, &prepared.programs, effort.takes);
    write_trace(&mut report, &tr, scenario.name)?;
    common_notes(&mut report, args);
    Ok(report)
}

/// What the staged reps produced.
struct Staged {
    /// Per rep: the layer sums of one staged compile of every program.
    layers: Vec<Layers>,
    /// Per rep: the executions of the staged plans, one per program.
    runs: Vec<Vec<RunReport>>,
    /// Median wall time of the same compile through `spores_ml`, untraced.
    untraced_ms: f64,
    /// See [`plan_mismatches`].
    mismatches: usize,
    /// The staged plans of the last rep.
    plans: Vec<Plan>,
}

/// Staged compile + execute of every program, interleaved with the same
/// compile through `spores_ml`, until the budget is used up.
fn staged_reps(
    report: &mut Report,
    tr: &mut Tracer,
    scenario: &Scenario,
    programs: &[ProgramSetup],
    cfg: &OptimizerConfig,
    budget: Duration,
    min_reps: usize,
) -> Result<Staged, String> {
    let start = Instant::now();
    let (mut layers, mut runs, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    loop {
        let rep_start = Instant::now();
        let rep_id = format!("{}/{}", scenario.name, layers.len());
        let rep_span = tr.open("rep", None, &rep_id);
        let mut rep_layers = Layers::default();
        let (mut plans, mut real, mut rep_runs) = (Vec::new(), Vec::new(), Vec::new());
        let mut rep_untraced_ms = 0.0;
        for setup in programs {
            let w = &setup.workload;
            let mut stage = || {
                stage_program(
                    tr,
                    rep_span,
                    &rep_id,
                    w,
                    scenario.path,
                    cfg,
                    &mut rep_layers,
                )
            };
            // the same compile through spores_ml, untraced: the base of
            // trace.overhead_share and the plans the staged ones must
            // equal. The second of the two finds caches and allocator
            // warm, so which one goes first alternates.
            let mut compile_real = || {
                let (plan, took) = timed(|| compile_spores(w, scenario.path));
                rep_untraced_ms += took;
                plan
            };
            let (plan, real_plan) = if layers.len() % 2 == 0 {
                (stage()?, compile_real())
            } else {
                let real_plan = compile_real();
                (stage()?, real_plan)
            };
            report.tally.attempted += 2;
            let id = format!("{rep_id}/{}", w.name);
            match tr
                .time("exec", rep_span, &id, || execute_spores(w, &plan))
                .0
            {
                Ok(run) => {
                    report.tally.wrong_outputs += wrong_scalars(setup, &run);
                    rep_runs.push(run);
                }
                Err(e) => {
                    eprintln!("ledger: execute failed: {e}");
                    report.tally.failed += 1;
                }
            }
            plans.push(plan);
            real.push(real_plan);
        }
        tr.close(rep_span);
        untraced_ms.push(rep_untraced_ms);
        if layers.is_empty() {
            mismatches = plan_mismatches(programs, cfg, &plans, &real, &rep_layers)?;
        }
        layers.push(rep_layers);
        runs.push(rep_runs);
        if layers.len() >= min_reps && start.elapsed() + rep_start.elapsed() > budget {
            return Ok(Staged {
                layers,
                runs,
                untraced_ms: median(&untraced_ms),
                mismatches,
                plans,
            });
        }
    }
}

/// Statements whose staged plan text differs from the one `spores_ml`
/// compiled, plus saturations whose exact counters differ from those
/// `Optimizer` reports for the same input under `cfg`.
fn plan_mismatches(
    programs: &[ProgramSetup],
    cfg: &OptimizerConfig,
    staged: &[Plan],
    real: &[Plan],
    layers: &Layers,
) -> Result<usize, String> {
    let mut mismatches = 0;
    let mut want: Vec<SaturationFacts> = Vec::new();
    for ((setup, staged), real) in programs.iter().zip(staged).zip(real) {
        let (a, b) = (staged.text(), real.text());
        mismatches += a.iter().zip(&b).filter(|(x, y)| x != y).count();
        mismatches += a.len().abs_diff(b.len());
        match real {
            Plan::Workload(c) => want.extend(c.saturation.as_ref().map(facts_of)),
            Plan::PerStatement(_) => {
                let optimizer = Optimizer::new(cfg.clone());
                for (target, request) in statement_requests(&setup.workload) {
                    let got = optimizer
                        .optimize(&request.arena, request.root, &request.vars)
                        .map_err(|e| format!("{}.{target}: {}", setup.workload.name, e.0))?;
                    want.push(facts_of(&got.saturation));
                }
            }
        }
    }
    let got = &layers.saturation_facts;
    mismatches += want.iter().zip(got).filter(|(a, b)| a != b).count();
    mismatches += want.len().abs_diff(got.len());
    Ok(mismatches)
}

fn share(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Times are medians over the reps; counts are those of the first rep
/// (the exact ones repeat in every rep).
fn report_pipeline(report: &mut Report, staged: &Staged, tr: &Tracer) {
    let reps = &staged.layers;
    let first = &reps[0];
    let col = |f: fn(&Layers) -> f64| reps.iter().map(f).collect::<Vec<f64>>();

    report.single("ir.nodes", first.la_in_nodes as f64);
    report.samples("translate.ms", &col(|l| l.translate_ms));
    report.single("translate.ra_nodes", first.ra_nodes as f64);
    report.samples("saturate.ms", &col(|l| l.saturate_ms));
    report.samples("saturate.search_ms", &col(|l| l.search_ms));
    report.samples("saturate.apply_ms", &col(|l| l.apply_ms));
    report.samples("saturate.rebuild_ms", &col(|l| l.rebuild_ms));
    report.single("saturate.iterations", first.iterations as f64);
    report.single("saturate.e_nodes", first.e_nodes as f64);
    report.single("saturate.e_classes", first.e_classes as f64);
    report.single("saturate.candidates_visited", first.candidates as f64);
    report.single("saturate.matches_found", first.matches_found as f64);
    report.single("saturate.matches_applied", first.matches_applied as f64);
    report.single("saturate.unions", first.unions as f64);
    report.single(
        "saturate.union_per_match",
        share(first.unions, first.matches_applied),
    );
    report.single("saturate.muted_rule_iters", first.muted_rule_iters as f64);
    report.single(
        "saturate.converged_share",
        share(first.converged, first.saturations),
    );
    report.single("saturate.timeout_hits", first.timeouts as f64);
    report.samples("extract.greedy_ms", &col(|l| l.greedy_ms));
    report.single("extract.plan_cost", first.plan_cost);
    report.single("extract.est_speedup", first.cost_before / first.plan_cost);
    report.samples("lower.ms", &col(|l| l.lower_ms));
    report.single("lower.la_nodes", first.la_nodes as f64);
    report.single("lower.fallbacks", first.fallbacks as f64);
    report.single(
        "lower.size_polymorphic_share",
        share(first.size_polymorphic, first.statements),
    );
    report.samples("cost.input_ms", &col(|l| l.cost_ms));
    // a plan that fell back to its input, or a saturation that ran into
    // its time limit, is a failed compile
    report.tally.failed += (first.fallbacks + first.timeouts) as u64;

    let staged_ms = median(&col(|l| l.compile_ms));
    report.single("trace.overhead_share", staged_ms / staged.untraced_ms - 1.0);
    report.single("trace.coverage", tr.coverage("compile"));
    report.single("trace.plan_mismatches", staged.mismatches as f64);
    report.note("staged_compile_ms", J::Num(staged_ms));
    report.note("untraced_compile_ms", J::Num(staged.untraced_ms));
    report.note("program_reps", J::from(reps.len()));
    let plans = staged.plans.iter().flat_map(Plan::text).map(J::Str);
    report.note("plans", J::Arr(plans.collect()));
}

fn report_execution(report: &mut Report, runs: &[Vec<RunReport>]) {
    let total = |f: fn(&RunReport) -> f64| -> Vec<f64> {
        runs.iter().map(|rep| rep.iter().map(f).sum()).collect()
    };
    let run_ms = total(|r| ms(r.exec_time));
    let flops = total(|r| r.stats.flops as f64)[0];
    report.samples("exec.run_ms", &run_ms);
    report.single("exec.flops", flops);
    report.single(
        "exec.cells_allocated",
        total(|r| r.stats.cells_allocated as f64)[0],
    );
    report.single(
        "exec.intermediates",
        total(|r| r.stats.intermediates as f64)[0],
    );
    report.single("exec.fused_ops", total(|r| r.stats.fused_ops as f64)[0]);
    report.single("exec.mflops_per_s", flops / 1e6 / (median(&run_ms) / 1e3));
}

/// Median time of `f` over up to five calls within 300 ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 && (samples.is_empty() || start.elapsed() < Duration::from_millis(300))
    {
        samples.push(timed(&mut f).1);
    }
    median(&samples)
}

/// Parsing alone, and saturation under the settings that are not the
/// default: relational matching, and serial search.
fn report_other_settings(
    report: &mut Report,
    scenario: &Scenario,
    programs: &[ProgramSetup],
    cfg: &OptimizerConfig,
    staged: &Staged,
) -> Result<(), String> {
    let parse_ms = median_ms(|| {
        for s in programs {
            black_box(s.workload.parse());
        }
    });
    report.single("ir.parse_us", parse_ms * 1e3);

    let saturate_with = |cfg: &OptimizerConfig| -> Result<f64, String> {
        let mut scratch = Tracer::new();
        let root = scratch.open("rep", None, "scratch");
        let mut layers = Layers::default();
        for s in programs {
            stage_program(
                &mut scratch,
                root,
                "scratch",
                &s.workload,
                scenario.path,
                cfg,
                &mut layers,
            )?;
        }
        Ok(layers.saturate_ms)
    };
    let relational = OptimizerConfig {
        matching: MatchingMode::Relational,
        ..cfg.clone()
    };
    report.single("saturate.relational_ms", saturate_with(&relational)?);
    let serial = OptimizerConfig {
        parallel: ParallelConfig::serial(),
        ..cfg.clone()
    };
    let default_ms = median(
        &staged
            .layers
            .iter()
            .map(|l| l.saturate_ms)
            .collect::<Vec<_>>(),
    );
    report.single("pool.search_speedup", saturate_with(&serial)? / default_ms);
    report.single("pool.threads", cfg.parallel.threads as f64);
    if cfg.parallel.threads < 2 {
        report.note(
            "pool.search_speedup",
            J::str("search ran on one thread: the row compares serial with serial and is no scaling result"),
        );
    }
    Ok(())
}

/// One ILP extraction over the first program's shared e-graph.
fn report_ilp(
    report: &mut Report,
    workload: &Workload,
    cfg: &OptimizerConfig,
    limit: Duration,
) -> Result<(), String> {
    let bundle = workload_bundle(workload);
    let wt = translate_workload(&bundle.expr.arena, &bundle.expr.roots, &bundle.vars)
        .map_err(|e| e.0)?;
    let runner = saturate_workload(&wt, cfg);
    let greedy = extract_greedy_multi(&runner.egraph, &runner.roots).map(|(cost, _, _)| cost);
    let solver = spores_ilp::Solver {
        time_limit: limit,
        ..spores_ilp::Solver::default()
    };
    let (ilp, took) = timed(|| extract_ilp_multi(&runner.egraph, &runner.roots, &solver));
    report.single("extract.ilp_ms", took);
    let (optimal, ratio) = match (ilp, greedy) {
        (Some((cost, _, _, stats)), Some(greedy)) => {
            (f64::from(u8::from(stats.optimal)), cost / greedy)
        }
        _ => (0.0, 0.0),
    };
    report.single("extract.ilp_optimal", optimal);
    report.single("extract.ilp_cost_ratio", ratio);
    Ok(())
}

/// Estimated cost of the `opt2` plans and of the SPORES plans of one
/// program under the statements' own metadata.
fn estimated_costs(setup: &ProgramSetup, plan: &Plan) -> (f64, f64) {
    let requests = statement_requests(&setup.workload);
    let price = |statements: &[(Symbol, spores_ir::ExprArena, spores_ir::NodeId)]| -> f64 {
        statements
            .iter()
            .zip(&requests)
            .map(|((_, arena, root), (_, request))| {
                plan_cost(arena, *root, &request.vars).unwrap_or(f64::NAN)
            })
            .sum()
    };
    let spores = match plan {
        Plan::PerStatement(c) => price(&c.statements),
        Plan::Workload(c) => {
            workload_plan_cost(&c.arena, &c.roots, &workload_bundle(&setup.workload).vars)
                .unwrap_or(f64::NAN)
        }
    };
    (price(&setup.opt2.statements), spores)
}

/// What the SPORES plans are compared with: the cost model's view of
/// `opt2`, SystemML's two levels executed, and the other entry point.
fn report_baselines(
    report: &mut Report,
    scenario: &Scenario,
    programs: &[ProgramSetup],
    plans: &[Plan],
) {
    let (mut opt2_cost, mut spores_cost) = (0.0, 0.0);
    for (setup, plan) in programs.iter().zip(plans) {
        let (opt2, spores) = estimated_costs(setup, plan);
        opt2_cost += opt2;
        spores_cost += spores;
    }
    report.single("cost.est_speedup_vs_opt2", opt2_cost / spores_cost);

    let (mut rewrite_us, mut opt2_ms, mut base_ms) = (0.0, 0.0, 0.0);
    let (mut alt_compile_ms, mut alt_exec_ms) = (0.0, 0.0);
    for setup in programs {
        let w = &setup.workload;
        rewrite_us += timed(|| black_box(compile(w, &Mode::Opt2))).1 * 1e3;
        report.tally.attempted += 3;
        for (mode, total) in [(Mode::Opt2, &mut opt2_ms), (Mode::Base, &mut base_ms)] {
            match execute(w, &compile(w, &mode), &mode) {
                Ok(run) => {
                    *total += ms(run.exec_time);
                    report.tally.wrong_outputs += wrong_scalars(setup, &run);
                }
                Err(_) => report.tally.failed += 1,
            }
        }
        let (plan, took) = timed(|| compile_spores(w, other_path(scenario.path)));
        alt_compile_ms += took;
        match execute_spores(w, &plan) {
            Ok(run) => {
                alt_exec_ms += ms(run.exec_time);
                report.tally.wrong_outputs += wrong_scalars(setup, &run);
            }
            Err(_) => report.tally.failed += 1,
        }
    }
    report.single("systemml.rewrite_us", rewrite_us);
    report.single("systemml.opt2_exec_ms", opt2_ms);
    report.single("systemml.base_exec_ms", base_ms);
    report.single("ml.altpath_compile_ms", alt_compile_ms);
    report.single("ml.altpath_exec_ms", alt_exec_ms);
}

/// Kernel times on inputs shaped like the first program's `X` (at most
/// 2000×1000, rank 10): `X %*% V`, `U %*% t(V)`, transposes, and the
/// element-wise `U t(V) − X`.
fn report_kernels(report: &mut Report, x: &spores_matrix::Matrix, seed: u64) {
    let (rows, cols) = (x.rows().min(2000), x.cols().min(1000));
    let mut rng = gen::rng(seed);
    let xk = gen::rand_sparse(rows, cols, x.sparsity().min(1.0), 1.0, 5.0, &mut rng);
    let u = gen::rand_dense(rows, 10, 0.0, 1.0, &mut rng);
    let v = gen::rand_dense(cols, 10, 0.0, 1.0, &mut rng);
    let vt = v.transpose();
    let uvt = u.matmul(&vt);
    report.single(
        "matrix.spmm_ms",
        median_ms(|| drop(black_box(xk.matmul(&v)))),
    );
    report.single(
        "matrix.gemm_ms",
        median_ms(|| drop(black_box(u.matmul(&vt)))),
    );
    let transposes = || {
        black_box(xk.transpose());
        black_box(uvt.transpose());
    };
    report.single("matrix.transpose_ms", median_ms(transposes));
    report.single(
        "matrix.elemwise_ms",
        median_ms(|| drop(black_box(uvt.sub(&xk)))),
    );
}

/// Layers of the hit path timed directly on the pool: fingerprinting,
/// and the cost re-check. Returns their medians in µs.
fn service_direct(report: &mut Report, prepared: &Prepared) -> (f64, f64) {
    let (mut fingerprint_us, mut recheck_us) = (Vec::new(), Vec::new());
    for (request, served) in prepared.pool.requests.iter().zip(&prepared.cold) {
        let fingerprinted = timed(|| {
            let classes: HashMap<Symbol, LeafClass> = request
                .vars
                .iter()
                .map(|(&s, m)| (s, LeafClass::classify(m.shape, m.sparsity)))
                .collect();
            black_box(fingerprint(&request.arena, request.root, &classes).is_ok())
        });
        fingerprint_us.push(fingerprinted.1 * 1e3);
        if let Some(served) = served {
            // the loop re-checks hot requests: time the second of two calls
            let recheck = || {
                black_box(plan_cost(&served.arena, served.root, &request.vars).is_ok());
                black_box(plan_cost(&request.arena, request.root, &request.vars).is_ok());
            };
            recheck();
            recheck_us.push(timed(recheck).1 * 1e3);
        }
    }
    let recheck = median_or_zero(&recheck_us);
    report.samples("ir.fingerprint_us", &fingerprint_us);
    report.single("service.recheck_us", recheck);
    (median(&fingerprint_us), recheck)
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Passes over the pool programs' bundles: the first misses, the rest hit.
const WORKLOAD_REQUEST_ROUNDS: usize = 6;

/// `optimize_workload` on the pool programs' bundles: cold, then warm.
fn service_workload_requests(report: &mut Report, scenario: &Scenario, programs: &[Workload]) {
    let svc = start_service(scenario);
    let requests: Vec<WorkloadRequest> = programs
        .iter()
        .map(|w| {
            let bundle = workload_bundle(w);
            WorkloadRequest::new(bundle.expr, bundle.vars)
        })
        .collect();
    let mut miss_ms = 0.0;
    let mut hit_us = Vec::new();
    for round in 0..WORKLOAD_REQUEST_ROUNDS {
        for request in &requests {
            report.tally.attempted += 1;
            let (served, took) = timed(|| svc.optimize_workload(request.clone()));
            match served {
                Ok(_) if round == 0 => miss_ms += took,
                Ok(s) if s.source == PlanSource::Hit => hit_us.push(s.latency.as_secs_f64() * 1e6),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("ledger: optimize_workload: {e}");
                    report.tally.failed += 1;
                }
            }
        }
    }
    report.single("service.wl_miss_ms", miss_ms);
    report.single("service.wl_hit_us", median_or_zero(&hit_us));
}

fn report_service(
    report: &mut Report,
    tr: &mut Tracer,
    args: &RunArgs,
    prepared: &Prepared,
    budget: Duration,
) {
    let (fingerprint_us, recheck_us) = service_direct(report, prepared);
    service_workload_requests(report, args.scenario, &prepared.pool_programs);
    let lp = closed_loop(
        &prepared.svc,
        &prepared.pool,
        args.seed,
        spec::clients(),
        budget,
        Effort::of(args.smoke).min_requests,
    );
    let stats = &lp.stats;
    let hits = lp.latencies_us(|s| s.source == PlanSource::Hit);
    let misses = lp.latencies_us(|s| s.source == PlanSource::Miss);
    let all = lp.latencies_us(|_| true);
    let hit_p50 = if hits.is_empty() {
        0.0
    } else {
        percentile(&hits, 50.0)
    };
    let miss_p50 = if misses.is_empty() {
        0.0
    } else {
        percentile(&misses, 50.0)
    };
    let miss_seconds = misses.iter().sum::<f64>() / 1e6;
    report.single(
        "service.hit_share",
        share(stats.hits as usize, stats.requests() as usize),
    );
    report.single("service.misses", stats.misses as f64);
    report.single("service.coalesced", stats.coalesced as f64);
    report.single("service.cost_rejections", stats.cost_rejections as f64);
    report.single(
        "service.cost_rejected_share",
        share(stats.cost_rejections as usize, stats.requests() as usize),
    );
    report.single("service.evictions", stats.evictions as f64);
    report.single("service.inline_runs", stats.inline_runs as f64);
    report.single("service.rejections", stats.rejections as f64);
    report.single("service.worker_panics", stats.worker_panics as f64);
    report.single("service.probe_contended", stats.probe_contended as f64);
    report.single("service.hit_p50_us", hit_p50);
    report.single("service.miss_p50_ms", miss_p50 / 1e3);
    report.single("service.p999_us", percentile(&all, 99.9));
    report.single(
        "service.miss_busy_share",
        miss_seconds / (lp.wall.as_secs_f64() * lp.clients.len() as f64),
    );
    report.single("service.hit_rest_us", hit_p50 - fingerprint_us - recheck_us);
    report.single("service.cold_pass_ms", ms(prepared.cold_pass));
    report.tally.add(lp.tally());
    report.note("requests", J::from(lp.completed()));
    report.note(
        "samples_beyond_p999",
        J::from(samples_beyond(all.len(), 99.9)),
    );
    for (client, samples) in lp.clients.iter().enumerate() {
        for (n, s) in samples.iter().take(spec::TRACE_REQUEST_SPANS).enumerate() {
            record_request(tr, args.scenario.name, client, n, s, &prepared.pool);
        }
    }
    report.tally.add(check_service(prepared, args.seed));
}

fn record_request(tr: &mut Tracer, name: &str, client: usize, n: usize, s: &Sample, pool: &Pool) {
    let source = match s.source {
        PlanSource::Hit => "hit",
        PlanSource::Miss => "miss",
        PlanSource::Coalesced => "coalesced",
    };
    tr.record(
        "service.request",
        format!("{name}/c{client}/{n}"),
        client as u64 + 1,
        s.start,
        s.start + s.latency,
        vec![
            ("source", J::str(source)),
            ("request", J::str(&pool.labels[s.rank as usize])),
        ],
    );
}

/// The in-program collector's cost: the same compile with the collector
/// off and on, back to back and in alternating order, so both see the
/// same caches. Measured last in its process, because switching the
/// collector on is process-wide.
fn report_telemetry(
    report: &mut Report,
    scenario: &Scenario,
    programs: &[ProgramSetup],
    takes: usize,
) {
    let compile_all = |collect: bool| {
        spores_telemetry::set_enabled(collect);
        let took = timed(|| {
            for s in programs {
                black_box(compile_spores(&s.workload, scenario.path).timed_out());
            }
        });
        took.1
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for take in 0..takes {
        if take % 2 == 0 {
            off.push(compile_all(false));
            on.push(compile_all(true));
        } else {
            on.push(compile_all(true));
            off.push(compile_all(false));
        }
    }
    spores_telemetry::set_enabled(false);
    spores_telemetry::reset();
    report.single("telemetry.overhead_share", median(&on) / median(&off) - 1.0);
}

fn write_trace(report: &mut Report, tr: &Tracer, name: &str) -> Result<(), String> {
    let dir = output_dir();
    let path = dir.join(format!("trace-{name}.json"));
    let text = tr.chrome_trace(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let check = spores_telemetry::validate_chrome_trace(&text)
        .map_err(|e| format!("{} is not a valid trace: {e}", path.display()))?;
    report.note("trace_file", J::str(path.display().to_string()));
    report.note("trace_events", J::from(check.events));
    Ok(())
}
