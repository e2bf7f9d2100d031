//! Workload-mode benchmarks: ONE shared-e-graph saturation for a whole
//! workload vs. N independent per-statement saturations, on the §4.2
//! evaluation workloads.
//!
//! Modes:
//!
//! * plain `cargo bench --bench workload` — criterion wall-time benches
//!   (shared one-pass vs per-statement compile) per workload;
//! * `-- --smoke` — one pass per workload comparing wall time and
//!   `candidates_visited` (total rule-matching work), asserting the
//!   acceptance bars: the one-pass saturation does less total matching
//!   work than the per-statement sum on ≥ 4 of the 5 workloads
//!   (including GLM and PNMF specifically) AND its wall time is within
//!   1.1× of the per-statement sum on ≥ 4 of the 5; SVM is the
//!   documented holdout for both (see `smoke`); run by CI;
//! * `-- --threads N` — run either of the above with N search threads
//!   instead of the `SPORES_THREADS`/host default.
//!
//! `--smoke` additionally guards the telemetry layer: an ALS one-pass
//! with collection enabled must stay within 10% of the disabled run,
//! and the estimated cost of the disabled hooks themselves within 2%,
//! plus a thread-scaling assertion that is skipped (with a logged
//! reason) on single-core hosts.

use criterion::{criterion_group, Criterion};
use spores_core::{Optimizer, SaturationStats, WorkloadOptimized};
use spores_egraph::ParallelConfig;
use spores_ml::workloads::{self, Workload};
use spores_ml::{workload_bundle, workload_optimizer_config, WorkloadBundle};
use std::hint::black_box;
use std::time::Instant;

/// Slack on the wall-time acceptance bar: one-pass must stay within
/// this factor of the per-statement sum (per winning workload).
const WALL_SLACK: f64 = 1.1;

/// Telemetry acceptance: an ALS one-pass with collection enabled must
/// stay within this factor of the disabled run's wall time.
const TELEMETRY_ON_SLACK: f64 = 1.10;

/// Telemetry acceptance: the *disabled* hooks (one relaxed atomic load
/// each) must cost at most this fraction of the off wall time,
/// estimated as micro-benchmarked per-hook cost × recorded event volume.
const TELEMETRY_OFF_BUDGET: f64 = 0.02;

/// Thread-scaling acceptance: on a multi-core host the parallel search
/// fan-out must not make the ALS one-pass slower than serial beyond
/// this factor (scaling *wins* vary with load; pathological slowdowns
/// are what this guards).
const SCALING_SLACK: f64 = 1.25;

/// Physical parallelism actually available to this process.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark roster: all five §4.2 workloads at bench-scale sizes.
fn roster() -> Vec<Workload> {
    vec![
        workloads::als(200, 100, 8, 51),
        workloads::glm(200, 40, 52),
        workloads::svm(200, 40, 53),
        workloads::mlr(200, 20, 54),
        workloads::pnmf(150, 120, 8, 55),
    ]
}

fn optimizer(parallel: ParallelConfig) -> Optimizer {
    let mut cfg = workload_optimizer_config();
    cfg.parallel = parallel;
    Optimizer::new(cfg)
}

/// One shared-e-graph pass over the whole bundle.
fn run_shared(bundle: &WorkloadBundle, parallel: ParallelConfig) -> WorkloadOptimized {
    optimizer(parallel)
        .optimize_workload(&bundle.expr, &bundle.vars)
        .expect("workload optimizes")
}

/// N independent per-statement passes; returns the summed stats.
fn run_per_statement(bundle: &WorkloadBundle, parallel: ParallelConfig) -> SaturationStats {
    let mut total = SaturationStats {
        iterations: 0,
        e_nodes: 0,
        e_classes: 0,
        converged: true,
        stop_reason: None,
        candidates_visited: 0,
        matches_found: 0,
        region_frozen_iters: 0,
    };
    for ix in 0..bundle.expr.len() {
        let single = bundle.expr.single_statement(ix);
        let got = optimizer(parallel)
            .optimize_workload(&single, &bundle.vars)
            .expect("statement optimizes");
        total.iterations += got.saturation.iterations;
        total.e_nodes += got.saturation.e_nodes;
        total.e_classes += got.saturation.e_classes;
        total.converged &= got.saturation.converged;
        total.candidates_visited += got.saturation.candidates_visited;
        total.matches_found += got.saturation.matches_found;
    }
    total
}

fn bench_shared_vs_per_statement(c: &mut Criterion) {
    let parallel = ParallelConfig::default();
    for w in roster() {
        let bundle = workload_bundle(&w);
        let mut group = c.benchmark_group(&format!("workload/{}", w.name.to_lowercase()));
        group.sample_size(10);
        group.bench_function("one_pass", |b| {
            b.iter(|| black_box(run_shared(&bundle, parallel)));
        });
        group.bench_function("per_statement", |b| {
            b.iter(|| black_box(run_per_statement(&bundle, parallel)));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_shared_vs_per_statement);

struct SmokeRow {
    name: &'static str,
    statements: usize,
    shared_ns: u64,
    per_statement_ns: u64,
    shared_candidates: usize,
    per_statement_candidates: usize,
}

/// Best-of-two wall time for `f` (damps one-off scheduler noise; the
/// saturations themselves are deterministic, so only the clock varies).
fn min_of_two<T>(mut f: impl FnMut() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    let first = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    black_box(f());
    let second = t0.elapsed().as_nanos() as u64;
    (first.min(second), out)
}

fn smoke_rows(parallel: ParallelConfig) -> Vec<SmokeRow> {
    roster()
        .into_iter()
        .map(|w| {
            let bundle = workload_bundle(&w);
            let (shared_ns, shared) = min_of_two(|| run_shared(&bundle, parallel));
            let (per_statement_ns, per) = min_of_two(|| run_per_statement(&bundle, parallel));
            assert!(!shared.fell_back, "{}: workload mode fell back", w.name);
            SmokeRow {
                name: w.name,
                statements: bundle.expr.len(),
                shared_ns,
                per_statement_ns,
                shared_candidates: shared.saturation.candidates_visited,
                per_statement_candidates: per.candidates_visited,
            }
        })
        .collect()
}

fn smoke(parallel: ParallelConfig) {
    let rows = smoke_rows(parallel);
    let mut fewer_candidates = 0usize;
    let mut wall_ok = 0usize;
    let mut winners = Vec::new();
    for row in &rows {
        let wins = row.shared_candidates < row.per_statement_candidates;
        let wall_wins = (row.shared_ns as f64) <= (row.per_statement_ns as f64) * WALL_SLACK;
        fewer_candidates += usize::from(wins);
        wall_ok += usize::from(wall_wins);
        if wins {
            winners.push(row.name);
        }
        println!(
            "workload smoke {:>5}: {} statements  one-pass {:>11} ns / {:>7} candidates  per-statement {:>11} ns / {:>7} candidates  {}{}",
            row.name,
            row.statements,
            row.shared_ns,
            row.shared_candidates,
            row.per_statement_ns,
            row.per_statement_candidates,
            if wins { "one-pass does less matching" } else { "-" },
            if wall_wins { "" } else { "  [wall-time holdout]" },
        );
    }
    // Acceptance (dirty-class delta search + per-region convergence
    // freezing): one-pass must beat the per-statement candidate sum on
    // ≥ 4 of 5 workloads, and specifically on GLM and PNMF — the two
    // the PR-3 shared-cap workload mode lost.
    //
    // Documented holdout — SVM, which this PR flips from a narrow win
    // (4,437 vs 5,008 under the PR-3 pooled cap) to a narrow loss
    // (~5.6k vs ~4.8k). The cause is the per-region budget itself: the
    // pooled cap spread 40×N applications across whatever was hot,
    // starving SVM's five nearly-disjoint statements just enough that
    // the union run stalled (and stopped) early; per-region budgets
    // give every live statement the per-statement application rate, so
    // the union run now explores as deeply as the five solo runs
    // combined — but SVM is the smallest §4.2 workload, its
    // per-statement runs converge within a handful of iterations each,
    // and its statements share little beyond input leaves, so there is
    // almost no converged-region waste for freezing to reclaim against
    // the union-sweep overhead of the hot phase. The trade buys the
    // ALS/GLM/MLR flips (tens of thousands of candidate visits each)
    // at the cost of a few hundred visits here.
    assert!(
        fewer_candidates >= 4,
        "acceptance: one-pass saturation must do less total rule-matching work \
         (candidates_visited) than the per-statement sum on ≥ 4 of the 5 §4.2 \
         workloads, got {fewer_candidates}"
    );
    for required in ["GLM", "PNMF"] {
        assert!(
            winners.contains(&required),
            "acceptance: {required} (a PR-3 workload-mode regression) must be a \
             one-pass win, winners: {winners:?}"
        );
    }
    // Wall-time acceptance: less matching work must show up on the
    // clock too. One-pass must land within 1.1× of the per-statement
    // sum on ≥ 4 of 5 workloads (best-of-two runs each, damping
    // scheduler noise). SVM is again the expected holdout: it does
    // ~17% more matching work one-pass (see above), so its wall time
    // trails by the same margin.
    assert!(
        wall_ok >= 4,
        "acceptance: one-pass wall time must be within {WALL_SLACK}x of the \
         per-statement sum on ≥ 4 of the 5 §4.2 workloads, got {wall_ok}"
    );
    scaling_guard();
    telemetry_guard(parallel);
    println!(
        "workload smoke OK: one-pass matching work wins on {fewer_candidates}/5, wall time within {WALL_SLACK}x on {wall_ok}/5 (bar: 4 each, candidates incl. GLM+PNMF) at {} search threads",
        parallel.threads
    );
}

/// Wall time of one ALS pass with parallel search vs serial. Skipped on
/// single-core hosts, where "parallel" timings only measure the fan-out
/// overhead.
fn scaling_guard() {
    let cores = host_cores();
    if cores == 1 {
        println!(
            "workload smoke: SKIP thread-scaling assertion: host_cores == 1, \
             multi-thread wall time would only measure fan-out overhead, not scaling"
        );
        return;
    }
    let bundle = workload_bundle(&workloads::als(200, 100, 8, 51));
    let serial = ParallelConfig {
        threads: 1,
        ..ParallelConfig::serial()
    };
    let threads = cores.min(4);
    let fanned = ParallelConfig {
        threads,
        ..ParallelConfig::serial()
    };
    let (serial_ns, _) = min_of_two(|| run_shared(&bundle, serial));
    let (fanned_ns, _) = min_of_two(|| run_shared(&bundle, fanned));
    assert!(
        (fanned_ns as f64) <= (serial_ns as f64) * SCALING_SLACK,
        "acceptance: ALS one-pass at {threads} search threads took {fanned_ns} ns vs \
         {serial_ns} ns serial — more than {SCALING_SLACK}x on a {cores}-core host"
    );
    println!(
        "workload smoke: ALS thread scaling OK: {threads} threads {fanned_ns} ns vs serial {serial_ns} ns ({cores} host cores)"
    );
}

/// Telemetry overhead guard on the ALS one-pass: enabled collection must
/// cost ≤ 10% end-to-end, and the disabled hooks (the permanent cost
/// every build pays) an estimated ≤ 2%.
fn telemetry_guard(parallel: ParallelConfig) {
    let bundle = workload_bundle(&workloads::als(200, 100, 8, 51));
    // The enabled run goes through `OptimizerConfig::telemetry` like a
    // real caller would.
    let mut cfg = workload_optimizer_config();
    cfg.parallel = parallel;
    cfg.telemetry = true;
    // Interleave off/on runs and take the min of three each: a slow
    // system phase (this can run on a loaded single-core CI box) then
    // hits both sides instead of skewing whichever was measured second.
    let mut off_ns = u64::MAX;
    let mut on_ns = u64::MAX;
    const ROUNDS: usize = 3;
    for _ in 0..ROUNDS {
        spores_telemetry::set_enabled(false);
        let t0 = Instant::now();
        black_box(run_shared(&bundle, parallel));
        off_ns = off_ns.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        black_box(
            Optimizer::new(cfg.clone())
                .optimize_workload(&bundle.expr, &bundle.vars)
                .expect("workload optimizes"),
        );
        on_ns = on_ns.min(t0.elapsed().as_nanos() as u64);
    }
    spores_telemetry::set_enabled(false);
    let events = spores_telemetry::drain();
    spores_telemetry::global().registry().zero();
    let per_run_events = (events.len() / ROUNDS).max(1) as f64;
    assert!(
        (on_ns as f64) <= (off_ns as f64) * TELEMETRY_ON_SLACK,
        "acceptance: ALS one-pass with telemetry enabled took {on_ns} ns vs {off_ns} ns \
         disabled — more than {TELEMETRY_ON_SLACK}x"
    );
    // Disabled overhead can't be measured against a hook-free build from
    // inside this binary; estimate it as the micro-benchmarked cost of
    // one disabled hook (a relaxed load + branch) times the hook volume
    // the enabled run actually recorded (each span is one hook firing
    // two events, so events/2 undercounts by the unrecorded counter
    // hooks — the /2 and the uncounted sites roughly cancel; the 2%
    // budget has orders of magnitude of headroom regardless).
    let hook_ns = disabled_hook_cost_ns();
    let est_ns = hook_ns * per_run_events;
    assert!(
        est_ns <= (off_ns as f64) * TELEMETRY_OFF_BUDGET,
        "acceptance: estimated disabled-telemetry overhead {est_ns:.0} ns \
         ({per_run_events:.0} hooks × {hook_ns:.2} ns) exceeds {TELEMETRY_OFF_BUDGET:.0?} \
         of the {off_ns} ns off wall time"
    );
    println!(
        "workload smoke: ALS telemetry overhead OK: enabled {on_ns} ns vs disabled {off_ns} ns \
         (bar {TELEMETRY_ON_SLACK}x); disabled hooks ≈ {est_ns:.0} ns \
         ({per_run_events:.0} hooks × {hook_ns:.2} ns, budget {:.0} ns)",
        (off_ns as f64) * TELEMETRY_OFF_BUDGET
    );
}

/// Micro-benchmark one disabled `span!` hook: the relaxed atomic load +
/// branch every instrumented site pays when collection is off.
fn disabled_hook_cost_ns() -> f64 {
    const N: u64 = 1_000_000;
    spores_telemetry::set_enabled(false);
    let t0 = Instant::now();
    for i in 0..N {
        let s = spores_telemetry::span!("bench.disabled.hook", i = black_box(i));
        black_box(&s);
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let mut parallel = ParallelConfig::default();
    if let Some(ix) = args.iter().position(|a| a == "--threads") {
        parallel.threads = args
            .get(ix + 1)
            .and_then(|s| s.parse().ok())
            .expect("--threads takes a positive integer");
    }
    if has("--smoke") {
        smoke(parallel);
        return;
    }
    benches();
}
