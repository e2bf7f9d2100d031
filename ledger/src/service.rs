//! The service phase: a closed loop of compilers that block on
//! `OptimizerService::optimize`, drawing statement requests
//! log-uniformly from a pool, and an oracle check of the served plans.

use crate::program::Tally;
use crate::spec::{self, Scenario, POOL_SPARSITIES, SCALAR_TOL};
use spores_core::eval::{eval_la, Tensor};
use spores_ir::Symbol;
use spores_ml::runner::statement_requests;
use spores_ml::workloads::Workload;
use spores_service::{OptimizerService, PlanSource, Request, Served, ServiceConfig, StatsSnapshot};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// SplitMix64: the harness's own generator for request order and oracle
/// tensors, so the same seed gives the same sequence on every build.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A pool rank drawn log-uniformly from `0..n`: `P(rank < k)` is
/// `ln(k + 1) / ln(n + 1)`, so every doubling of the rank gets the same
/// share of the traffic — a few hot requests and a long tail. No request
/// stream of a deployed optimizer service has been recorded, so this mix
/// is an assumption, not a measurement.
pub fn log_uniform_rank(rng: &mut SplitMix64, n: usize) -> usize {
    let rank = ((n + 1) as f64).powf(rng.next_f64()) as usize;
    rank.clamp(1, n) - 1
}

/// The request pool: every statement of the pool programs at every
/// sparsity of `X`, in a fixed rank order.
pub struct Pool {
    pub requests: Vec<Request>,
    pub labels: Vec<String>,
}

pub fn build_pool(programs: &[Workload]) -> Pool {
    let x = Symbol::new("X");
    let mut pool = Pool {
        requests: Vec::new(),
        labels: Vec::new(),
    };
    for sparsity in POOL_SPARSITIES {
        for program in programs {
            for (target, mut request) in statement_requests(program) {
                if let Some(meta) = request.vars.get_mut(&x) {
                    meta.sparsity = sparsity;
                }
                pool.requests.push(request);
                pool.labels
                    .push(format!("{}.{target}@{sparsity}", program.name));
            }
        }
    }
    pool
}

/// The service under test: defaults apart from the deployment values.
pub fn start_service(scenario: &Scenario) -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        workers: spec::SERVICE_WORKERS,
        capacity: scenario.capacity,
        shards: scenario.shards,
        ..ServiceConfig::default()
    })
}

/// One pass over the pool in rank order. On a fresh service every
/// request takes the miss path. Returns the plans served (`None` where
/// the service returned an error) and the wall time.
pub fn pass(svc: &OptimizerService, pool: &Pool) -> (Vec<Option<Served>>, Duration) {
    let t0 = Instant::now();
    let served = pool
        .requests
        .iter()
        .map(|r| match svc.optimize(r.clone()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("ledger: service error: {e}");
                None
            }
        })
        .collect();
    (served, t0.elapsed())
}

/// Evaluate a request's input expression and a served plan with the
/// naive oracle on seeded tensors at the request's own dimensions.
pub fn plan_is_right(request: &Request, served: &Served, seed: u64) -> bool {
    let mut names: Vec<Symbol> = request.vars.keys().copied().collect();
    names.sort_by_key(|s| s.to_string());
    let mut rng = SplitMix64::new(seed);
    let tensors: HashMap<Symbol, Tensor> = names
        .into_iter()
        .map(|name| {
            let meta = request.vars[&name];
            let (rows, cols) = (meta.shape.rows as usize, meta.shape.cols as usize);
            let data = (0..rows * cols)
                .map(|_| {
                    let keep = rng.next_f64() < meta.sparsity;
                    let v = 0.1 + 0.9 * rng.next_f64();
                    if keep {
                        v
                    } else {
                        0.0
                    }
                })
                .collect();
            (name, Tensor::new(rows, cols, data))
        })
        .collect();
    let want = eval_la(&request.arena, request.root, &tensors);
    let got = eval_la(&served.arena, served.root, &tensors);
    match (want, got) {
        (Ok(want), Ok(got)) => want.approx_eq(&got, SCALAR_TOL),
        _ => false,
    }
}

/// Check one pass's plans against the oracle.
pub fn check_pass(pool: &Pool, served: &[Option<Served>], seed: u64) -> Tally {
    let mut tally = Tally::default();
    for (ix, (request, served)) in pool.requests.iter().zip(served).enumerate() {
        tally.attempted += 1;
        match served {
            None => tally.failed += 1,
            Some(served) => {
                if !plan_is_right(request, served, seed.wrapping_add(ix as u64)) {
                    eprintln!("ledger: wrong plan served for {}", pool.labels[ix]);
                    tally.wrong_outputs += 1;
                }
            }
        }
    }
    tally
}

/// One request as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub start: Instant,
    pub latency: Duration,
    pub source: PlanSource,
    pub rank: u32,
}

/// What the closed loop measured.
pub struct Loop {
    /// Per client, in send order.
    pub clients: Vec<Vec<Sample>>,
    pub errors: u64,
    pub wall: Duration,
    /// Service counters over the loop alone (after minus before).
    pub stats: StatsSnapshot,
}

fn counters_since(after: StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        evictions: after.evictions - before.evictions,
        cost_rejections: after.cost_rejections - before.cost_rejections,
        rejections: after.rejections - before.rejections,
        inline_runs: after.inline_runs - before.inline_runs,
        worker_panics: after.worker_panics - before.worker_panics,
        probe_contended: after.probe_contended - before.probe_contended,
        shard_poisoned: after.shard_poisoned - before.shard_poisoned,
        ..after
    }
}

/// Closed loop: each client sends its next request only when the
/// previous one has returned, until `budget` is used up and it has sent
/// `min_requests`.
pub fn closed_loop(
    svc: &OptimizerService,
    pool: &Pool,
    seed: u64,
    clients: usize,
    budget: Duration,
    min_requests: usize,
) -> Loop {
    let before = svc.stats();
    let barrier = Barrier::new(clients + 1);
    let (logs, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(
                        seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
                    );
                    let mut samples = Vec::new();
                    let mut errors = 0u64;
                    barrier.wait();
                    let begin = Instant::now();
                    while samples.len() < min_requests || begin.elapsed() < budget {
                        let rank = log_uniform_rank(&mut rng, pool.requests.len());
                        let request = pool.requests[rank].clone();
                        let start = Instant::now();
                        match svc.optimize(request) {
                            Ok(served) => samples.push(Sample {
                                start,
                                latency: start.elapsed(),
                                source: served.source,
                                rank: rank as u32,
                            }),
                            Err(e) => {
                                eprintln!("ledger: service error: {e}");
                                errors += 1;
                            }
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let logs: Vec<(Vec<Sample>, u64)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, t0.elapsed())
    });
    let errors = logs.iter().map(|(_, e)| e).sum();
    Loop {
        clients: logs.into_iter().map(|(s, _)| s).collect(),
        errors,
        wall,
        stats: counters_since(svc.stats(), &before),
    }
}

impl Loop {
    pub fn completed(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    pub fn req_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }

    /// Client-timed latencies in microseconds, of the requests `keep` picks.
    pub fn latencies_us(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.clients
            .iter()
            .flatten()
            .filter(|s| keep(s))
            .map(|s| s.latency.as_secs_f64() * 1e6)
            .collect()
    }

    pub fn tally(&self) -> Tally {
        Tally {
            attempted: self.completed() as u64 + self.errors,
            failed: self.errors,
            wrong_outputs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SCENARIOS;

    #[test]
    fn same_seed_same_request_sequence() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..3000)
                .map(|_| log_uniform_rank(&mut rng, 88))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn ranks_are_log_uniform_over_the_pool() {
        let (n, draws) = (88, 200_000);
        let mut rng = SplitMix64::new(42);
        let mut seen = vec![0usize; n];
        for _ in 0..draws {
            seen[log_uniform_rank(&mut rng, n)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "every rank is drawn");
        // P(rank < k) = ln(k + 1) / ln(n + 1)
        for k in [1, 16, 44, 88] {
            let head: usize = seen[..k].iter().sum();
            let want = ((k + 1) as f64).ln() / ((n + 1) as f64).ln();
            assert!((head as f64 / draws as f64 - want).abs() < 0.01, "k = {k}");
        }
    }

    #[test]
    fn pool_is_sparsity_then_program_then_statement() {
        let programs: Vec<Workload> = SCENARIOS[3]
            .pool
            .iter()
            .map(|p| p.build(3, false))
            .collect();
        let pool = build_pool(&programs);
        assert_eq!(pool.requests.len(), 88);
        assert_eq!(pool.labels[0], "ALS.GU@0.001");
        assert_eq!(pool.labels[4], "ALS.loss@0.001");
        assert_eq!(pool.labels[5], "PNMF.H@0.001");
        assert_eq!(pool.labels[70], "ALS.loss@1");
        let x = Symbol::new("X");
        for (request, label) in pool.requests.iter().zip(&pool.labels) {
            if let Some(meta) = request.vars.get(&x) {
                assert!(label.ends_with(&format!("@{}", meta.sparsity)));
            }
        }
    }

    #[test]
    fn oracle_accepts_served_plans_and_rejects_a_wrong_one() {
        let programs = vec![SCENARIOS[2].pool[0].build(5, false)];
        let pool = build_pool(&programs);
        let svc = start_service(&SCENARIOS[3]);
        let (served, _) = pass(&svc, &pool);
        let tally = check_pass(&pool, &served, 9);
        assert_eq!(tally.attempted, pool.requests.len() as u64);
        assert_eq!((tally.failed, tally.wrong_outputs), (0, 0));
        // GLM's `P` plan served for GLM's `G` request is wrong
        let wrong = served[0].clone().expect("served");
        assert!(!plan_is_right(&pool.requests[1], &wrong, 9));
    }
}
