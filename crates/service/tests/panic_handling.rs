//! Worker-panic containment: a panicking pipeline run must surface a
//! typed [`ServiceError::WorkerPanic`] to every waiter (submitter and
//! coalescers alike), drain its inflight entry, leave the worker thread
//! alive, and leave the service fully usable — no leaked senders, no
//! permanently wedged fingerprint.

use spores_core::{OptimizerConfig, VarMeta};
use spores_ir::{parse_expr, ExprArena, Symbol};
use spores_ml::{workload_bundle, workloads};
use spores_service::{
    OptimizerService, PlanSource, Request, ServiceConfig, ServiceError, TryOptimize,
    WorkloadRequest,
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

fn als_request(rows: u64) -> Request {
    request(
        "sum((X - u %*% t(v))^2)",
        &vars(&[
            ("X", (rows, 500), 0.001),
            ("u", (rows, 1), 1.0),
            ("v", (500, 1), 1.0),
        ]),
    )
}

fn service(workers: usize) -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        optimizer: OptimizerConfig {
            node_limit: 4_000,
            iter_limit: 8,
            ..OptimizerConfig::default()
        },
        workers,
        ..ServiceConfig::default()
    })
}

#[test]
fn blocking_caller_gets_a_typed_error_when_its_worker_panics() {
    let svc = service(1);
    svc.inject_pipeline_panics(1);
    let err = svc.optimize(als_request(1000)).unwrap_err();
    assert!(
        matches!(err, ServiceError::WorkerPanic(_)),
        "expected WorkerPanic, got {err:?}"
    );
    assert_eq!(svc.stats().worker_panics, 1);

    // the fingerprint is not wedged and the (sole) worker survived: an
    // immediate retry of the same shape runs a fresh flight and succeeds
    let served = svc.optimize(als_request(1000)).expect("retry after panic");
    assert_eq!(served.source, PlanSource::Miss);
    // and the cache works again from here on
    assert_eq!(
        svc.optimize(als_request(1000)).unwrap().source,
        PlanSource::Hit
    );
}

#[test]
fn coalesced_waiters_are_drained_with_a_typed_error() {
    let svc = Arc::new(service(1));
    // enough injections that both requests fail even if they race into
    // two sequential flights instead of coalescing onto one
    svc.inject_pipeline_panics(2);

    let barrier = Arc::new(Barrier::new(2));
    let blocking = {
        let svc = svc.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            svc.optimize(als_request(2000))
        })
    };
    barrier.wait();
    // same fingerprint through the non-blocking door: either we coalesce
    // onto the blocking caller's flight or lead our own — both must end
    // in a typed WorkerPanic, never a hang on a leaked sender
    let mine = match svc.try_optimize(als_request(2000)) {
        Ok(TryOptimize::Ready(_)) => panic!("cold request cannot be a hit"),
        Ok(TryOptimize::Pending(ticket)) => ticket.wait(),
        Err(e) => Err(e),
    };
    let theirs = blocking.join().expect("blocking thread");

    svc.inject_pipeline_panics(0); // clear any unconsumed injection
    for (who, result) in [("ticket", mine), ("blocking", theirs)] {
        let err = result.unwrap_err();
        assert!(
            matches!(err, ServiceError::WorkerPanic(_)),
            "{who}: expected WorkerPanic, got {err:?}"
        );
    }
    assert!(svc.stats().worker_panics >= 1);

    // the inflight entry was removed: the same shape optimizes cleanly
    let served = svc.optimize(als_request(2000)).expect("post-panic flight");
    assert_eq!(served.source, PlanSource::Miss);
}

#[test]
fn a_panicking_bundle_pipeline_is_a_typed_error_too() {
    let svc = service(1);
    let bundle = workload_bundle(&workloads::glm(200, 40, 7));
    let request = WorkloadRequest::new(bundle.expr, bundle.vars);
    svc.inject_pipeline_panics(1);
    let err = svc.optimize_workload(request.clone()).unwrap_err();
    assert!(
        matches!(err, ServiceError::WorkerPanic(_)),
        "expected WorkerPanic, got {err:?}"
    );
    assert_eq!(svc.stats().worker_panics, 1);
    // the bundle's fingerprint is not wedged either
    let served = svc
        .optimize_workload(request.clone())
        .expect("retry after panic");
    assert_eq!(served.source, PlanSource::Miss);
    assert_eq!(
        svc.optimize_workload(request).unwrap().source,
        PlanSource::Hit
    );
}

#[test]
fn panics_do_not_poison_unrelated_requests() {
    let svc = service(2);
    svc.inject_pipeline_panics(1);
    let err = svc.optimize(als_request(3000)).unwrap_err();
    assert!(matches!(err, ServiceError::WorkerPanic(_)));
    // a different shape flows through the same pool untouched
    let other = request(
        "sum(W %*% H)",
        &vars(&[("W", (400, 8), 1.0), ("H", (8, 300), 1.0)]),
    );
    assert_eq!(
        svc.optimize(other).expect("unrelated request").source,
        PlanSource::Miss
    );
    let stats = svc.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.misses, 1);
}
