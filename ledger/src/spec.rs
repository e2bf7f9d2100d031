//! What the ledger measures: the metric dictionary, the five workloads
//! and every constant of a run. `BENCHMARK.json` at the repository root
//! repeats the names, units, directions and bounds; a test holds the two
//! together.

use spores_ml::workloads::{self, Workload};

/// Seconds one run measures when the caller does not say (`run_seconds`
/// of `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 16.0;
/// How much a run does at least, whatever its time budget.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Set-up is repeated this often; `setup_s` is the median.
    pub setup_reps: usize,
    /// Memory takes, in-program telemetry compiles: medians of this many.
    pub takes: usize,
    /// Timed program reps (after one discarded warm-up rep).
    pub min_reps: usize,
    /// Requests every client sends.
    pub min_requests: usize,
    /// Time limit of the one ILP extraction a traced run makes.
    pub ilp_limit: std::time::Duration,
    /// End-to-end runs per workload in a whole ledger, each in a fresh
    /// process: `ledger compare` takes the run-to-run spread from them.
    /// With seven the quartiles are the second and the sixth run, so one
    /// run in a slow spell of the host does not widen the spread.
    pub ledger_runs: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        setup_reps: 3,
        takes: 3,
        min_reps: 3,
        min_requests: 500,
        ilp_limit: std::time::Duration::from_secs(2),
        ledger_runs: 7,
    };
    /// `--smoke`: data sizes ÷ 10 as well; checks the harness, measures
    /// nothing worth keeping.
    pub const SMOKE: Effort = Effort {
        setup_reps: 1,
        takes: 1,
        min_reps: 2,
        min_requests: 250,
        ilp_limit: std::time::Duration::from_millis(200),
        ledger_runs: 1,
    };

    pub fn of(smoke: bool) -> Effort {
        if smoke {
            Effort::SMOKE
        } else {
            Effort::FULL
        }
    }
}
/// Closed-loop clients: callers are compilers that block on `optimize`.
/// Never more than the host has cores.
pub const MAX_CLIENTS: usize = 2;
/// Miss-path worker threads of the service under test.
pub const SERVICE_WORKERS: usize = 1;
/// `X` sparsities every pool statement is requested at; pool rank is
/// sparsity first, in this order, then program, then statement.
pub const POOL_SPARSITIES: [f64; 4] = [0.001, 0.01, 0.1, 1.0];
/// Request spans written to the trace file per client (all requests are
/// measured; the file keeps the first ones).
pub const TRACE_REQUEST_SPANS: usize = 2_000;
/// Scalars of optimized and reference runs agree within
/// `SCALAR_TOL · (1 + |v|)` — the tolerance `tests/workloads.rs` uses.
pub const SCALAR_TOL: f64 = 1e-5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    // the direction of per-layer metrics is data for `BENCHMARK.json`;
    // only the test that holds the two together reads it
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "exec_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "exec_speedup_vs_opt2",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "exec_flops",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "svc_req_per_s",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "svc_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // not the 99th: with 0.8 % of `svc_fit`'s requests re-saturating for
    // 100 ms, the 99th percentile is the slowest few of the 40 µs hits
    // that waited behind them, and moved 20-30 % from seed to seed
    EndToEnd {
        name: "svc_p995_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric, named `<layer>.<metric>`. `exact` marks counts
/// that must repeat bit-identically for one seed (`check-determinism`),
/// so later changes may claim on them as counts.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("ir.parse_us", "us", Lower),
    layer("ir.nodes", "count", Lower),
    layer("ir.fingerprint_us", "us", Lower),
    layer("translate.ms", "ms", Lower),
    layer("translate.ra_nodes", "count", Lower),
    layer("saturate.ms", "ms", Lower),
    layer("saturate.search_ms", "ms", Lower),
    layer("saturate.apply_ms", "ms", Lower),
    layer("saturate.rebuild_ms", "ms", Lower),
    exact("saturate.iterations", "count", Lower),
    exact("saturate.e_nodes", "count", Lower),
    exact("saturate.e_classes", "count", Lower),
    exact("saturate.candidates_visited", "count", Lower),
    exact("saturate.matches_found", "count", Lower),
    layer("saturate.matches_applied", "count", Lower),
    exact("saturate.unions", "count", Lower),
    layer("saturate.union_per_match", "ratio", Higher),
    layer("saturate.muted_rule_iters", "count", Higher),
    layer("saturate.converged_share", "share", Higher),
    layer("saturate.timeout_hits", "count", Lower),
    layer("saturate.relational_ms", "ms", Lower),
    layer("pool.search_speedup", "ratio", Higher),
    layer("pool.threads", "count", Higher),
    layer("extract.greedy_ms", "ms", Lower),
    exact("extract.plan_cost", "count", Lower),
    layer("extract.est_speedup", "ratio", Higher),
    layer("extract.ilp_ms", "ms", Lower),
    layer("extract.ilp_optimal", "share", Higher),
    layer("extract.ilp_cost_ratio", "ratio", Lower),
    layer("lower.ms", "ms", Lower),
    exact("lower.la_nodes", "count", Lower),
    layer("lower.fallbacks", "count", Lower),
    layer("lower.size_polymorphic_share", "share", Higher),
    layer("cost.input_ms", "ms", Lower),
    layer("cost.est_speedup_vs_opt2", "ratio", Higher),
    layer("exec.run_ms", "ms", Lower),
    layer("exec.flops", "count", Lower),
    layer("exec.cells_allocated", "count", Lower),
    layer("exec.intermediates", "count", Lower),
    layer("exec.fused_ops", "count", Higher),
    layer("exec.mflops_per_s", "Mflop/s", Higher),
    layer("matrix.spmm_ms", "ms", Lower),
    layer("matrix.gemm_ms", "ms", Lower),
    layer("matrix.transpose_ms", "ms", Lower),
    layer("matrix.elemwise_ms", "ms", Lower),
    layer("systemml.rewrite_us", "us", Lower),
    layer("systemml.opt2_exec_ms", "ms", Lower),
    layer("systemml.base_exec_ms", "ms", Lower),
    layer("ml.altpath_compile_ms", "ms", Lower),
    layer("ml.altpath_exec_ms", "ms", Lower),
    layer("service.hit_share", "share", Higher),
    layer("service.misses", "count", Lower),
    layer("service.coalesced", "count", Higher),
    layer("service.cost_rejections", "count", Lower),
    layer("service.cost_rejected_share", "share", Lower),
    layer("service.evictions", "count", Lower),
    layer("service.inline_runs", "count", Lower),
    layer("service.rejections", "count", Lower),
    layer("service.worker_panics", "count", Lower),
    layer("service.probe_contended", "count", Lower),
    layer("service.hit_p50_us", "us", Lower),
    layer("service.miss_p50_ms", "ms", Lower),
    layer("service.p999_us", "us", Lower),
    layer("service.miss_busy_share", "share", Lower),
    layer("service.recheck_us", "us", Lower),
    layer("service.hit_rest_us", "us", Lower),
    layer("service.cold_pass_ms", "ms", Lower),
    layer("service.wl_miss_ms", "ms", Lower),
    layer("service.wl_hit_us", "us", Lower),
    layer("telemetry.overhead_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.coverage", "share", Higher),
    layer("trace.plan_mismatches", "count", Lower),
];

/// The five §4.2 programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Als,
    Pnmf,
    Glm,
    Svm,
    Mlr,
}

/// One program at one data size.
#[derive(Clone, Copy, Debug)]
pub struct ProgramSpec {
    pub kind: Kind,
    pub rows: usize,
    pub cols: usize,
    pub rank: usize,
}

const fn program(kind: Kind, rows: usize, cols: usize, rank: usize) -> ProgramSpec {
    ProgramSpec {
        kind,
        rows,
        cols,
        rank,
    }
}

impl ProgramSpec {
    /// Generate the program's data from `seed`. Smoke runs divide the
    /// data sizes by ten (never below the pool's own sizes).
    pub fn build(&self, seed: u64, smoke: bool) -> Workload {
        let shrink = |n: usize, floor: usize| if smoke { (n / 10).max(floor.min(n)) } else { n };
        let (rows, cols) = (shrink(self.rows, 200), shrink(self.cols, 20));
        match self.kind {
            Kind::Als => workloads::als(rows, cols, self.rank, seed),
            Kind::Pnmf => workloads::pnmf(rows, cols, self.rank, seed),
            Kind::Glm => workloads::glm(rows, cols, seed),
            Kind::Svm => workloads::svm(rows, cols, seed),
            Kind::Mlr => workloads::mlr(rows, cols, seed),
        }
    }
}

/// The sizes `benches/service.rs` requests plans at; the service sees
/// only shapes and sparsities, so its pool stays at these whatever data
/// the program phase runs on.
const ROSTER_ALS: ProgramSpec = program(Kind::Als, 200, 100, 8);
const ROSTER_PNMF: ProgramSpec = program(Kind::Pnmf, 150, 120, 8);
const ROSTER_GLM: ProgramSpec = program(Kind::Glm, 200, 40, 0);
const ROSTER_SVM: ProgramSpec = program(Kind::Svm, 200, 40, 0);
const ROSTER_MLR: ProgramSpec = program(Kind::Mlr, 200, 20, 0);
const ROSTER: &[ProgramSpec] = &[ROSTER_ALS, ROSTER_PNMF, ROSTER_GLM, ROSTER_SVM, ROSTER_MLR];
/// The program phase of the `svc_*` workloads: the roster programs at
/// ten times the rows. At the roster's own sizes one execution is 2 ms
/// over 160 KB blocks and its time differed from process to process of
/// one seed: the `opt2` plans ran in 2.1 ms or in 3.4 ms, so the
/// speed-up read 0.95 or 1.35. At these sizes an execution is 45 ms and
/// does not flip.
const ROSTER_X10: &[ProgramSpec] = &[
    program(Kind::Als, 2000, 100, 8),
    program(Kind::Pnmf, 1500, 120, 8),
    program(Kind::Glm, 2000, 40, 0),
    program(Kind::Svm, 2000, 40, 0),
    program(Kind::Mlr, 2000, 20, 0),
];

/// Which `spores_ml` entry points compile and run the programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompilePath {
    /// `compile` + `execute`: one saturation per statement.
    PerStatement,
    /// `compile_workload` + `execute_workload`: one shared e-graph,
    /// multi-root extraction, `run_many`.
    WorkloadMode,
}

/// One workload: programs that are compiled and run, a pool of their
/// statements that is requested from the optimizer service, and how a
/// run's seconds are split between the two.
pub struct Scenario {
    pub name: &'static str,
    pub why: &'static str,
    /// Compiled, executed and compared with `opt2` in the program phase.
    pub programs: &'static [ProgramSpec],
    /// Their statements, at roster sizes × [`POOL_SPARSITIES`], are the
    /// service's request pool.
    pub pool: &'static [ProgramSpec],
    pub path: CompilePath,
    /// Share of the run's seconds given to the program phase; the
    /// service's closed loop gets the rest.
    pub program_share: f64,
    /// Deployment values of the service under test.
    pub capacity: usize,
    pub shards: usize,
}

pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "als_2k",
        why: "ALS 2Kx1K per statement: saturation never converges, so e-graph search/apply/rebuild is the compile and sparse/dense kernels are the run; the paper's flagship speed-up",
        programs: &[program(Kind::Als, 2000, 1000, 10)],
        pool: &[ROSTER_ALS],
        path: CompilePath::PerStatement,
        program_share: 0.55,
        capacity: 1024,
        shards: 8,
    },
    Scenario {
        name: "pnmf_10k",
        why: "PNMF 10Kx1K in workload mode: compile converges at once, plan quality (shared W%*%H, rewritten sum) decides a 20x run time; the only multi-root path; bypasses saturate speed",
        programs: &[program(Kind::Pnmf, 10_000, 1000, 10)],
        pool: &[ROSTER_PNMF],
        path: CompilePath::WorkloadMode,
        program_share: 0.7,
        capacity: 1024,
        shards: 8,
    },
    Scenario {
        name: "linmod_100k",
        why: "GLM, SVM, MLR at 100K+ rows: 14 small saturations that converge, translate/extract/lower at their largest share, speed-up 1.0 predicted; bypasses plan-quality changes",
        programs: &[
            program(Kind::Glm, 100_000, 100, 0),
            program(Kind::Svm, 100_000, 100, 0),
            program(Kind::Mlr, 200_000, 20, 0),
        ],
        pool: &[ROSTER_GLM, ROSTER_SVM, ROSTER_MLR],
        path: CompilePath::PerStatement,
        program_share: 0.7,
        capacity: 1024,
        shards: 8,
    },
    Scenario {
        name: "svc_fit",
        why: "88 statement requests of all five programs, log-uniform, cache larger than the working set: 98% take the read path (fingerprint, probe, instantiate, re-check), 1.6% are cost-rejected",
        programs: ROSTER_X10,
        pool: ROSTER,
        path: CompilePath::PerStatement,
        program_share: 0.2,
        capacity: 1024,
        shards: 8,
    },
    Scenario {
        name: "svc_churn",
        why: "the same requests with a 16-entry cache, a third of the working set: 30% take the write path (queue, single-flight, full pipeline, insert, eviction) behind one worker",
        programs: ROSTER_X10,
        pool: ROSTER,
        path: CompilePath::PerStatement,
        program_share: 0.2,
        capacity: 16,
        shards: 1,
    },
];

pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Cores this process may use; recorded with every result.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop client threads: never more than the host has cores.
pub fn clients() -> usize {
    MAX_CLIENTS.min(host_cores())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SCENARIOS.iter().map(|s| s.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for s in SCENARIOS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!(s.program_share > 0.0 && s.program_share < 1.0);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_repeats_the_dictionary() {
        use spores_telemetry::{parse_json, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let rows = |section: &str| -> Vec<Vec<String>> {
            doc.get(section)
                .and_then(Json::as_arr)
                .expect("section")
                .iter()
                .map(|m| {
                    m.as_obj()
                        .unwrap()
                        .iter()
                        .map(|(k, v)| match v {
                            Json::Num(n) => format!("{k}={n}"),
                            other => format!("{k}={}", other.as_str().unwrap()),
                        })
                        .collect()
                })
                .collect()
        };
        let want: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    format!("better={}", m.better.as_str()),
                    format!("bound={}", m.bound),
                    format!("name={}", m.name),
                    format!("unit={}", m.unit),
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), want);
        let want: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| {
                vec![
                    format!("better={}", m.better.as_str()),
                    format!("name={}", m.name),
                    format!("unit={}", m.unit),
                ]
            })
            .collect();
        assert_eq!(rows("per_layer"), want);
        let want: Vec<Vec<String>> = SCENARIOS
            .iter()
            .map(|s| vec![format!("name={}", s.name), format!("why={}", s.why)])
            .collect();
        assert_eq!(rows("workloads"), want);
    }

    #[test]
    fn the_request_pool_has_the_22_statements_of_the_five_programs() {
        let statements: usize = ROSTER
            .iter()
            .map(|p| p.build(1, false).statements.len())
            .sum();
        assert_eq!(statements, 22);
    }

    #[test]
    fn smoke_runs_shrink_only_the_big_programs() {
        let big = program(Kind::Als, 2000, 1000, 10).build(1, true);
        assert_eq!(big.size_label, "200x100");
        assert_eq!(ROSTER_MLR.build(1, true).size_label, "200x20");
    }
}
