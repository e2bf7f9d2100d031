//! End-to-end behavior of the optimizer service on the paper's shapes:
//! warm hits skip the pipeline, served plans are never costlier than
//! greedy re-optimization, and the cache distinguishes regimes.

use spores_core::{plan_cost, Optimizer, OptimizerConfig, VarMeta};
use spores_ir::{parse_expr, ExprArena, Symbol};
use spores_ml::{workload_bundle, workloads};
use spores_service::{
    OptimizerService, PlanSource, Request, ServedWorkload, ServiceConfig, WorkloadRequest,
};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

fn vars(list: &[(&str, (u64, u64), f64)]) -> HashMap<Symbol, VarMeta> {
    list.iter()
        .map(|&(n, (r, c), s)| (Symbol::new(n), VarMeta::sparse(r, c, s)))
        .collect()
}

fn request(src: &str, vs: &HashMap<Symbol, VarMeta>) -> Request {
    let mut arena = ExprArena::new();
    let root = parse_expr(&mut arena, src).unwrap();
    Request::new(arena, root, vs.clone())
}

fn quick_service() -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        optimizer: OptimizerConfig {
            node_limit: 8_000,
            iter_limit: 15,
            ..OptimizerConfig::default()
        },
        workers: 2,
        ..ServiceConfig::default()
    })
}

#[test]
fn repeat_requests_hit_the_cache() {
    let svc = quick_service();
    let vs = vars(&[
        ("X", (1000, 500), 0.001),
        ("u", (1000, 1), 1.0),
        ("v", (500, 1), 1.0),
    ]);
    let src = "sum((X - u %*% t(v))^2)";
    let cold = svc.optimize(request(src, &vs)).unwrap();
    assert_eq!(cold.source, PlanSource::Miss);
    let warm = svc.optimize(request(src, &vs)).unwrap();
    assert_eq!(warm.source, PlanSource::Hit);
    // identical request ⇒ identical plan, and the verdict the miss left
    // behind: the pipeline's estimate, not a fresh re-check's
    assert_eq!(warm.arena.display(warm.root), cold.arena.display(cold.root));
    assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
    let warm_cost = plan_cost(&warm.arena, warm.root, &vs).unwrap();
    let cold_cost = plan_cost(&cold.arena, cold.root, &vs).unwrap();
    assert!((warm_cost - cold_cost).abs() <= 1e-6 * (1.0 + cold_cost.abs()));
    let stats = svc.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn renamed_and_resized_requests_share_one_entry() {
    let svc = quick_service();
    let a = vars(&[
        ("X", (1000, 500), 0.001),
        ("u", (1000, 1), 1.0),
        ("v", (500, 1), 1.0),
    ]);
    let b = vars(&[
        ("M", (2000, 800), 0.002),
        ("p", (2000, 1), 1.0),
        ("q", (800, 1), 1.0),
    ]);
    let cold = svc
        .optimize(request("sum((X - u %*% t(v))^2)", &a))
        .unwrap();
    assert_eq!(cold.source, PlanSource::Miss);
    let warm = svc
        .optimize(request("sum((M - p %*% t(q))^2)", &b))
        .unwrap();
    // the α-renamed, resized request reuses the template (the headline
    // plan is size-polymorphic) and speaks the caller's symbols
    assert_eq!(warm.source, PlanSource::Hit);
    let shown = warm.arena.display(warm.root);
    assert!(shown.contains('M'), "plan must use caller symbols: {shown}");
    assert!(!shown.contains('X'), "template symbols leaked: {shown}");
    assert_eq!(svc.cached_plans(), 1);
}

#[test]
fn hits_are_never_costlier_than_fresh_greedy_optimization() {
    // warm the cache at one size, then request several other sizes in the
    // same shape/sparsity classes and compare against a cold pipeline run
    let svc = quick_service();
    let src = "sum((X - u %*% t(v))^2)";
    let sizes: [(u64, u64); 4] = [(1000, 500), (600, 900), (2000, 300), (1500, 1500)];
    for &(m, n) in &sizes {
        let vs = vars(&[("X", (m, n), 0.001), ("u", (m, 1), 1.0), ("v", (n, 1), 1.0)]);
        let served = svc.optimize(request(src, &vs)).unwrap();
        // re-price the served plan from scratch and compare with what a
        // cold greedy pipeline produces for the same request
        let mut arena = ExprArena::new();
        let root = parse_expr(&mut arena, src).unwrap();
        let fresh = Optimizer::new(OptimizerConfig {
            node_limit: 8_000,
            iter_limit: 15,
            ..OptimizerConfig::default()
        })
        .optimize(&arena, root, &vs)
        .unwrap();
        let served_cost = plan_cost(&served.arena, served.root, &vs).unwrap();
        let fresh_cost = plan_cost(&fresh.arena, fresh.root, &vs).unwrap();
        // A cached template is one fixed plan shape, but the cheapest
        // member of a class can flip with aspect ratio (contracting
        // sum(X %*% v * u) vs sum(t(t(X) %*% u) * t(v)) trades m- vs
        // n-sized work), so a template warmed at one size may trail a
        // fresh optimization at an extreme other size by a modest
        // constant factor — the incremental-search runner explores
        // deeply enough to surface those per-size winners (observed
        // worst case ≈ 13% at 2000x300). 20% bounds the drift; the hit
        // must also stay transformative vs. the caller's unoptimized
        // plan (the service's actual guarantee).
        assert!(
            served_cost <= fresh_cost * 1.20 + 1e-6,
            "{m}x{n}: served {served_cost} > fresh greedy {fresh_cost} (source {:?})",
            served.source
        );
        let mut input_arena = ExprArena::new();
        let input_root = parse_expr(&mut input_arena, src).unwrap();
        let input_cost = plan_cost(&input_arena, input_root, &vs).unwrap();
        assert!(
            served_cost * 10.0 < input_cost,
            "{m}x{n}: served {served_cost} not transformative vs input {input_cost}"
        );
    }
    // at least some of those were warm
    assert!(svc.stats().hits > 0);
}

#[test]
fn a_hit_at_other_sizes_is_priced_at_its_own_metadata() {
    // the entry remembers its producer's verdict; a request with the same
    // fingerprint at other sizes must still be re-checked and priced at
    // *its* metadata
    let svc = quick_service();
    let src = "sum((X - u %*% t(v))^2)";
    let warmed = vars(&[
        ("X", (1000, 500), 0.001),
        ("u", (1000, 1), 1.0),
        ("v", (500, 1), 1.0),
    ]);
    let other = vars(&[
        ("X", (600, 900), 0.001),
        ("u", (600, 1), 1.0),
        ("v", (900, 1), 1.0),
    ]);
    let cold = svc.optimize(request(src, &warmed)).unwrap();
    assert_eq!(cold.source, PlanSource::Miss);
    for _ in 0..2 {
        let hit = svc.optimize(request(src, &other)).unwrap();
        assert_eq!(hit.source, PlanSource::Hit);
        let own = plan_cost(&hit.arena, hit.root, &other).unwrap();
        assert_eq!(hit.cost.to_bits(), own.to_bits());
        assert_ne!(hit.cost.to_bits(), cold.cost.to_bits());
    }
    // the first of those two ran the re-check, the second reused it
    let text = svc.metrics_text();
    assert!(
        text.contains("spores_service_recheck_memo_hits 1"),
        "{text}"
    );
    assert_eq!(svc.stats().cost_rejections, 0);
}

#[test]
fn different_sparsity_regimes_do_not_share_plans() {
    let svc = quick_service();
    let src = "sum((X - u %*% t(v))^2)";
    let sparse = vars(&[
        ("X", (1000, 500), 0.001),
        ("u", (1000, 1), 1.0),
        ("v", (500, 1), 1.0),
    ]);
    let dense = vars(&[
        ("X", (1000, 500), 1.0),
        ("u", (1000, 1), 1.0),
        ("v", (500, 1), 1.0),
    ]);
    let first = svc.optimize(request(src, &sparse)).unwrap();
    assert_eq!(first.source, PlanSource::Miss);
    let second = svc.optimize(request(src, &dense)).unwrap();
    assert_eq!(second.source, PlanSource::Miss, "regimes must not collide");
    assert_eq!(svc.cached_plans(), 2);
}

#[test]
fn batch_coalesces_duplicate_statements() {
    let svc = quick_service();
    let vs = vars(&[
        ("X", (1000, 500), 0.001),
        ("u", (1000, 1), 1.0),
        ("v", (500, 1), 1.0),
    ]);
    let src = "sum((X - u %*% t(v))^2)";
    let results = svc.optimize_batch(vec![
        request(src, &vs),
        request(src, &vs),
        request(src, &vs),
    ]);
    assert_eq!(results.len(), 3);
    for r in &results {
        r.as_ref().unwrap();
    }
    let stats = svc.stats();
    // one pipeline run; the two duplicates either coalesced onto it or
    // (if it finished fast enough) hit the cache
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.coalesced + stats.hits, 2, "{stats:?}");
}

fn bundle_request(program: &workloads::Workload) -> WorkloadRequest {
    let bundle = workload_bundle(program);
    WorkloadRequest::new(bundle.expr, bundle.vars)
}

/// `name = text` of every served root.
fn roots_text(served: &ServedWorkload) -> Vec<String> {
    served
        .roots
        .iter()
        .map(|&(name, root)| format!("{name} = {}", served.arena.display(root)))
        .collect()
}

#[test]
fn concurrent_cold_bundles_run_one_pipeline() {
    let svc = Arc::new(quick_service());
    let request = bundle_request(&workloads::als(200, 100, 8, 7));
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let (svc, request, barrier) = (svc.clone(), request.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                svc.optimize_workload(request).unwrap()
            })
        })
        .collect();
    let served: Vec<ServedWorkload> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let stats = svc.stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    let mut sources: Vec<PlanSource> = served.iter().map(|s| s.source).collect();
    sources.retain(|&s| s != PlanSource::Miss);
    assert!(
        matches!(sources[..], [PlanSource::Coalesced | PlanSource::Hit]),
        "{sources:?}"
    );
    assert_eq!(roots_text(&served[0]), roots_text(&served[1]));
}

#[test]
fn statements_and_bundles_share_one_capacity() {
    let svc = OptimizerService::new(ServiceConfig {
        optimizer: OptimizerConfig {
            node_limit: 2_000,
            iter_limit: 6,
            ..OptimizerConfig::default()
        },
        shards: 1,
        capacity: 2,
        workers: 1,
        ..ServiceConfig::default()
    });
    let vs = vars(&[("A", (50, 50), 1.0), ("B", (50, 50), 1.0)]);
    svc.optimize(request("A %*% B", &vs)).unwrap();
    for program in [workloads::glm(200, 40, 7), workloads::svm(200, 40, 7)] {
        svc.optimize_workload(bundle_request(&program)).unwrap();
    }
    assert_eq!(svc.stats().evictions, 1);
    assert_eq!(svc.cached_plans(), 2);
}

#[test]
fn unbound_variable_is_an_invalid_request() {
    let svc = quick_service();
    let vs = vars(&[("X", (10, 10), 1.0)]);
    let err = svc.optimize(request("X + Q", &vs)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Q"), "{msg}");
}

#[test]
fn eviction_keeps_the_cache_bounded() {
    let svc = OptimizerService::new(ServiceConfig {
        optimizer: OptimizerConfig {
            node_limit: 2_000,
            iter_limit: 6,
            ..OptimizerConfig::default()
        },
        shards: 1,
        capacity: 3,
        workers: 1,
        ..ServiceConfig::default()
    });
    // six structurally distinct expressions
    let vs = vars(&[("A", (50, 50), 1.0), ("B", (50, 50), 1.0)]);
    for src in [
        "A + B",
        "A * B",
        "A %*% B",
        "sum(A * B)",
        "t(A) %*% B",
        "rowSums(A + B)",
    ] {
        svc.optimize(request(src, &vs)).unwrap();
    }
    assert!(svc.cached_plans() <= 3);
    assert!(svc.stats().evictions >= 3);
}
