//! Optimizer-service benchmarks: cold pipeline vs. warm plan cache on
//! the §4.2 workload statements, plus multi-thread warm throughput
//! scaling.
//!
//! Modes:
//!
//! * plain `cargo bench --bench service` — criterion cold/warm latency
//!   benches per workload;
//! * `-- --smoke` — one quick cold/warm pass per workload asserting the
//!   acceptance bar (warm ≥ 10× faster than cold, 100% hit rate on the
//!   second compile) and the warm thread-scaling guard; run by CI.

use criterion::{criterion_group, Criterion};
use spores_core::OptimizerConfig;
use spores_ml::workloads::{self, Workload};
use spores_service::{OptimizerService, Request, ServiceConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The 8-thread warm rate may not drop below this fraction of the
/// 2-thread rate — the regression bar for the warm-path scaling
/// collapse this bench once exhibited (22.2k req/s at 2 threads falling
/// to 16.9k at 8 when every probe took an exclusive shard lock).
const SCALING_FLOOR: f64 = 0.9;

/// Tolerance for the 1→4-thread "monotone non-decreasing" check
/// (throughput is noisy at bench scale; only real dips should fail).
const MONOTONE_SLACK: f64 = 0.9;

/// Timings per thread count in the warm-scaling guard; the guard
/// compares their medians.
const SCALING_ROUNDS: usize = 5;

/// Physical parallelism actually available to this process.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark roster: the four cache-relevant evaluation workloads.
fn roster() -> Vec<Workload> {
    vec![
        workloads::als(200, 100, 8, 41),
        workloads::pnmf(150, 120, 8, 42),
        workloads::glm(200, 40, 43),
        workloads::mlr(200, 20, 44),
    ]
}

/// The per-statement service requests of a workload (the stream the
/// ledger's service workloads send, so the bench measures real requests).
fn statement_requests(w: &Workload) -> Vec<Request> {
    spores_ml::runner::statement_requests(w)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

fn service(workers: usize) -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        optimizer: OptimizerConfig {
            node_limit: 8_000,
            iter_limit: 15,
            ..OptimizerConfig::default()
        },
        workers,
        ..ServiceConfig::default()
    })
}

/// Optimize every statement once against a fresh service (all misses).
fn run_cold(requests: &[Request]) -> Duration {
    let svc = service(1);
    let t0 = Instant::now();
    for r in requests {
        black_box(svc.optimize(r.clone()).expect("cold optimize"));
    }
    t0.elapsed()
}

/// Optimize every statement against a pre-warmed service (all hits).
fn run_warm(svc: &OptimizerService, requests: &[Request]) -> Duration {
    let t0 = Instant::now();
    for r in requests {
        black_box(svc.optimize(r.clone()).expect("warm optimize"));
    }
    t0.elapsed()
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    for w in roster() {
        let requests = statement_requests(&w);
        let mut group = c.benchmark_group(&format!("service/{}", w.name.to_lowercase()));
        group.sample_size(10);
        group.bench_function("cold", |b| b.iter(|| run_cold(&requests)));
        let svc = service(2);
        run_warm(&svc, &requests); // warm the cache
        group.bench_function("warm", |b| b.iter(|| run_warm(&svc, &requests)));
        group.finish();
    }
}

/// Warm throughput with `threads` hammering the same shapes.
fn warm_throughput(threads: usize, rounds: usize) -> f64 {
    let (svc, all) = warm_service();
    hit_throughput(&svc, &all, threads, rounds)
}

/// A 4-worker service with every roster statement request already
/// cached, and those requests.
fn warm_service() -> (Arc<OptimizerService>, Vec<Request>) {
    let all: Vec<Request> = roster().iter().flat_map(statement_requests).collect();
    let svc = Arc::new(service(4));
    for r in &all {
        svc.optimize(r.clone()).expect("warmup");
    }
    (svc, all)
}

/// Warm-hit throughput in req/s of `threads` clients sending `rounds`
/// requests each to `svc`.
fn hit_throughput(
    svc: &Arc<OptimizerService>,
    all: &[Request],
    threads: usize,
    rounds: usize,
) -> f64 {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = svc.clone();
            let all = all.to_vec();
            std::thread::spawn(move || {
                for i in 0..rounds {
                    let r = &all[(t + i) % all.len()];
                    black_box(svc.optimize(r.clone()).expect("warm request"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bench thread");
    }
    let total = (threads * rounds) as f64;
    total / t0.elapsed().as_secs_f64()
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/warm_scaling");
    group.sample_size(5);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(&format!("{threads}_threads"), |b| {
            b.iter(|| warm_throughput(threads, 20));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm, bench_scaling);

/// One cold/warm pass per workload; returns per-workload numbers.
struct SmokeRow {
    name: &'static str,
    statements: usize,
    cold_ns: u64,
    warm_ns: u64,
    speedup: f64,
    warm_hit_rate: f64,
}

fn smoke_rows() -> Vec<SmokeRow> {
    roster()
        .into_iter()
        .map(|w| {
            let requests = statement_requests(&w);
            let cold = run_cold(&requests);
            let svc = service(2);
            run_warm(&svc, &requests); // prime
            const REPS: u32 = 5;
            let primed = svc.stats();
            let mut warm = Duration::ZERO;
            for _ in 0..REPS {
                warm += run_warm(&svc, &requests);
            }
            let warm = warm / REPS;
            let stats = svc.stats();
            let warm_requests = u64::from(REPS) * requests.len() as u64;
            let hits = (stats.hits + stats.coalesced) - (primed.hits + primed.coalesced);
            SmokeRow {
                name: w.name,
                statements: requests.len(),
                cold_ns: cold.as_nanos() as u64,
                warm_ns: warm.as_nanos() as u64,
                speedup: cold.as_nanos() as f64 / warm.as_nanos().max(1) as f64,
                warm_hit_rate: hits as f64 / warm_requests.max(1) as f64,
            }
        })
        .collect()
}

fn smoke() {
    let mut worst = f64::INFINITY;
    for row in smoke_rows() {
        println!(
            "service smoke {:>5}: {} statements  cold {:>10} ns  warm {:>9} ns  speedup {:>7.1}x  warm hit rate {:.2}",
            row.name, row.statements, row.cold_ns, row.warm_ns, row.speedup, row.warm_hit_rate
        );
        worst = worst.min(row.speedup);
        assert!(
            (row.warm_hit_rate - 1.0).abs() < 1e-9,
            "{}: warm compiles must be all hits, got {}",
            row.name,
            row.warm_hit_rate
        );
    }
    assert!(
        worst >= 10.0,
        "acceptance: warm cache must be ≥ 10× faster than the cold pipeline, got {worst:.1}×"
    );
    println!("service smoke OK: worst warm speedup {worst:.1}x (bar: 10x)");
    scaling_guard();
}

/// Warm throughput across thread counts with the regression bar: on a
/// multi-core host, 1→4 threads must be monotone non-decreasing (within
/// noise) and 8 threads must hold ≥ 0.9× the 2-thread rate. Skipped on
/// single-core hosts, where extra threads only measure fan-out
/// overhead, not contention.
///
/// One short timing is at the mercy of the scheduler on a small host,
/// so each thread count's rate is the median of [`SCALING_ROUNDS`]
/// timings against one warm service, the rounds interleaved across
/// thread counts so a slow stretch of the host hits every count alike.
fn scaling_guard() {
    let cores = host_cores();
    if cores == 1 {
        println!(
            "service smoke: SKIP warm-scaling assertion: host_cores == 1, \
             multi-thread throughput would only measure fan-out overhead, not speedup"
        );
        return;
    }
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let (svc, all) = warm_service();
    let mut samples = [const { Vec::new() }; THREADS.len()];
    for _ in 0..SCALING_ROUNDS {
        for (row, &threads) in samples.iter_mut().zip(&THREADS) {
            row.push(hit_throughput(&svc, &all, threads, 25));
        }
    }
    let rps: Vec<(usize, f64)> = THREADS
        .iter()
        .zip(samples)
        .map(|(&threads, mut row)| {
            row.sort_by(f64::total_cmp);
            (threads, row[row.len() / 2])
        })
        .collect();
    for &(threads, r) in &rps {
        println!(
            "service smoke scaling: {threads} threads → {r:.0} req/s (median of {SCALING_ROUNDS})"
        );
    }
    for pair in rps[..3].windows(2) {
        let ((lo_t, lo), (hi_t, hi)) = (pair[0], pair[1]);
        assert!(
            hi >= lo * MONOTONE_SLACK,
            "warm throughput regressed {lo_t}→{hi_t} threads: {lo:.0} → {hi:.0} req/s"
        );
    }
    let two = rps[1].1;
    let eight = rps[3].1;
    assert!(
        eight >= two * SCALING_FLOOR,
        "warm-path scaling collapse: 8 threads at {eight:.0} req/s < \
         {SCALING_FLOOR}× the 2-thread rate ({two:.0} req/s)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--smoke") {
        smoke();
        return;
    }
    benches();
}
