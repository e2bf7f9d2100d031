//! One run of one workload: set-up, and the end-to-end pass (tracing
//! off). The traced pass (per-layer rows) is in `traced`.

use crate::json::J;
use crate::program::{
    compile_spores, execute_spores, peak_rss_mb, program_phase, reset_peak_rss, setup_program,
    ProgramSetup, Tally,
};
use crate::report::Report;
use crate::service::{build_pool, check_pass, closed_loop, pass, start_service, Pool};
use crate::spec::{self, Effort, Scenario};
use crate::stats::{highest_supported_percentile, median, ms, percentile, samples_beyond};
use spores_egraph::ParallelConfig;
use spores_ml::workloads::Workload;
use spores_service::{OptimizerService, Served};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub scenario: &'static Scenario,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything a run needs before it measures.
pub struct Prepared {
    pub programs: Vec<ProgramSetup>,
    pub pool_programs: Vec<Workload>,
    pub pool: Pool,
    /// Warmed by one cold pass over the pool.
    pub svc: OptimizerService,
    pub cold: Vec<Option<Served>>,
    pub cold_pass: Duration,
}

/// Generate each program's data; program `i` is seeded `seed + i`.
fn build_programs(specs: &[spec::ProgramSpec], seed: u64, smoke: bool) -> Vec<Workload> {
    specs
        .iter()
        .enumerate()
        .map(|(i, p)| p.build(seed.wrapping_add(i as u64), smoke))
        .collect()
}

/// `VmHWM` over one SPORES compile + execute of every program, in MB:
/// the inputs plus the peak of compiler and plan. The median of three
/// takes, because how many allocator arenas the search threads touch
/// differs by a few MB from take to take.
fn memory_reps(scenario: &Scenario, seed: u64, smoke: bool) -> Vec<f64> {
    let programs = build_programs(scenario.programs, seed, smoke);
    (0..Effort::of(smoke).takes)
        .map(|_| {
            reset_peak_rss();
            for w in &programs {
                let plan = compile_spores(w, scenario.path);
                let _ = execute_spores(w, &plan);
            }
            peak_rss_mb()
        })
        .collect()
}

/// Set-up: data generation, parsing, `opt2` compile, the reference run,
/// and the service's cold pass. The seed feeds data generation and the
/// request order only; the system under test sees just the inputs.
pub fn setup(scenario: &Scenario, seed: u64, smoke: bool) -> Result<Prepared, String> {
    let build = |specs: &[spec::ProgramSpec]| build_programs(specs, seed, smoke);
    let programs = build(scenario.programs)
        .into_iter()
        .map(setup_program)
        .collect::<Result<Vec<_>, _>>()?;
    let pool_programs = build(scenario.pool);
    let pool = build_pool(&pool_programs);
    let svc = start_service(scenario);
    let (cold, cold_pass) = pass(&svc, &pool);
    Ok(Prepared {
        programs,
        pool_programs,
        pool,
        svc,
        cold,
        cold_pass,
    })
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

pub fn budgets(args: &RunArgs) -> (Duration, Duration) {
    let program = args.seconds * args.scenario.program_share;
    (
        Duration::from_secs_f64(program),
        Duration::from_secs_f64(args.seconds - program),
    )
}

/// Both passes check the plans the service served: the cold pass of
/// set-up, and one more pass after the loop (mostly hits).
pub fn check_service(prepared: &Prepared, seed: u64) -> Tally {
    let mut tally = check_pass(&prepared.pool, &prepared.cold, seed);
    let (warm, _) = pass(&prepared.svc, &prepared.pool);
    tally.add(check_pass(&prepared.pool, &warm, seed));
    tally
}

pub fn common_notes(report: &mut Report, args: &RunArgs) {
    report.note("host_cores", J::from(spec::host_cores()));
    report.note("clients", J::from(spec::clients()));
    report.note("service_workers", J::from(spec::SERVICE_WORKERS));
    report.note("setup_reps", J::from(Effort::of(args.smoke).setup_reps));
    report.note("smoke", J::Bool(args.smoke));
    report.note("search_threads", J::from(ParallelConfig::default().threads));
}

/// The end-to-end pass: tracing off, in-program telemetry off.
pub fn run_end_to_end(args: &RunArgs) -> Result<Report, String> {
    let scenario = args.scenario;
    let effort = Effort::of(args.smoke);
    let mut report = Report::new(scenario.name, args.seed, args.seconds, false);

    // first of all, while the process holds nothing but the inputs
    let peak_rss_mb = memory_reps(scenario, args.seed, args.smoke);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..effort.setup_reps {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(setup(scenario, args.seed, args.smoke)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set-up ran");
    report.samples("setup_s", &setup_s);

    let (program_budget, service_budget) = budgets(args);
    let reps = program_phase(
        scenario,
        &prepared.programs,
        program_budget,
        effort.min_reps,
    );
    let col = |f: fn(&crate::program::Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    report.samples("compile_ms", &col(|r| r.compile_ms));
    report.samples("exec_ms", &col(|r| r.exec_ms));
    report.samples("exec_speedup_vs_opt2", &col(|r| r.opt2_ms / r.exec_ms));
    report.single("exec_flops", reps[0].flops as f64);
    report.samples("peak_rss_mb", &peak_rss_mb);
    for rep in &reps {
        report.tally.add(rep.tally);
    }
    if reps.iter().any(|r| r.flops != reps[0].flops) {
        eprintln!("ledger: exec_flops did not repeat across reps");
        report.tally.failed += 1;
    }
    report.note("program_reps", J::from(reps.len()));
    report.note("opt2_exec_ms", J::Num(median(&col(|r| r.opt2_ms))));

    let lp = closed_loop(
        &prepared.svc,
        &prepared.pool,
        args.seed,
        spec::clients(),
        service_budget,
        effort.min_requests,
    );
    let latencies = lp.latencies_us(|_| true);
    report.single("svc_req_per_s", lp.req_per_s());
    report.single("svc_p50_us", percentile(&latencies, 50.0));
    report.single("svc_p995_us", percentile(&latencies, 99.5));
    report.tally.add(lp.tally());
    report.note("requests", J::from(lp.completed()));
    report.note(
        "samples_beyond_p995",
        J::from(samples_beyond(latencies.len(), 99.5)),
    );
    report.note(
        "highest_percentile_with_10_beyond",
        highest_supported_percentile(latencies.len()).map_or(J::Null, J::Num),
    );
    report.note(
        "hit_share",
        J::Num(lp.stats.hits as f64 / lp.stats.requests().max(1) as f64),
    );
    report.note("cost_rejections", J::from(lp.stats.cost_rejections));
    report.note("pool_requests", J::from(prepared.pool.requests.len()));

    report.tally.add(check_service(&prepared, args.seed));
    common_notes(&mut report, args);
    Ok(report)
}

/// Where trace and result files go: beside the build, `<target>/ledger-out/`.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/ledger"));
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("ledger-out")
}
