//! The ledger's 88 pool requests through the optimizer service.
//!
//! The pool is the five §4.2 programs at the roster sizes of
//! `plan_golden.rs`, with `X` at sparsity 0.001, 0.01, 0.1 and 1, sent to
//! a service with the ledger's settings. A second pass over the pool must
//! be all hits: each entry remembers the verdict of the request that
//! produced it. Before it did, `ALS.loss@0.1` and `ALS.loss@1` failed the
//! hit re-check against their *own* pipeline plan and re-saturated on
//! every repeat.
//!
//! The verdict table is keyed by metadata alone, not by symbols; the
//! second test pins that `plan_cost` does not see variable names.

use spores_core::{plan_cost, VarMeta};
use spores_ir::{ExprArena, Symbol};
use spores_ml::runner::statement_requests;
use spores_ml::workloads;
use spores_service::{OptimizerService, PlanSource, Request, Served, ServiceConfig};
use std::collections::HashMap;

/// Pass-2 misses before verdicts were remembered (self-rejections).
const SELF_REJECTED: [&str; 2] = ["ALS.loss@0.1", "ALS.loss@1"];

/// `(label, request)` of the 88 pool requests, in the ledger's order.
fn pool() -> Vec<(String, Request)> {
    let programs = [
        workloads::als(200, 100, 8, 7),
        workloads::pnmf(150, 120, 8, 7),
        workloads::glm(200, 40, 7),
        workloads::svm(200, 40, 7),
        workloads::mlr(200, 20, 7),
    ];
    let x = Symbol::new("X");
    let mut pool = Vec::new();
    for sparsity in [0.001, 0.01, 0.1, 1.0] {
        for program in &programs {
            for (target, mut request) in statement_requests(program) {
                if let Some(meta) = request.vars.get_mut(&x) {
                    meta.sparsity = sparsity;
                }
                pool.push((format!("{}.{target}@{sparsity}", program.name), request));
            }
        }
    }
    assert_eq!(pool.len(), 88);
    pool
}

/// A fresh service with the ledger's deployment values.
fn service() -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        workers: 1,
        capacity: 1024,
        shards: 8,
        ..ServiceConfig::default()
    })
}

fn serve(svc: &OptimizerService, label: &str, request: &Request) -> Served {
    svc.optimize(request.clone())
        .unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// The value of one counter line of `metrics_text()`.
fn counter(svc: &OptimizerService, name: &str) -> u64 {
    let text = svc.metrics_text();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no counter {name} in:\n{text}"))
}

#[test]
fn second_pass_over_the_pool_is_all_hits_with_the_same_plans() {
    let pool = pool();
    let svc = service();
    let first: Vec<Served> = pool.iter().map(|(l, r)| serve(&svc, l, r)).collect();
    // a saturation cut short by the wall clock (a loaded host) may have
    // cached a plan another request then re-checks: not comparable
    let comparable: Vec<usize> = (0..pool.len()).filter(|&i| !first[i].timed_out).collect();
    assert!(
        comparable.len() >= 80,
        "only {} of 88 saturations beat the clock",
        comparable.len()
    );
    for label in SELF_REJECTED {
        assert!(
            comparable.iter().any(|&i| pool[i].0 == label),
            "{label} is not comparable on this run"
        );
    }

    let before = svc.stats();
    let memo_before = counter(&svc, "spores_service_recheck_memo_hits");
    for &i in &comparable {
        let (label, request) = &pool[i];
        let again = serve(&svc, label, request);
        assert_eq!(again.source, PlanSource::Hit, "{label}: pass 2 not a hit");
        assert_eq!(
            again.arena.display(again.root),
            first[i].arena.display(first[i].root),
            "{label}: pass 2 served another plan"
        );
    }
    let after = svc.stats();
    assert_eq!(after.misses, before.misses, "{after:?}");
    assert_eq!(after.cost_rejections, before.cost_rejections, "{after:?}");
    // every pass-2 hit was served on a remembered verdict
    assert_eq!(
        counter(&svc, "spores_service_recheck_memo_hits") - memo_before,
        comparable.len() as u64
    );
}

#[test]
fn plan_cost_does_not_see_variable_names() {
    let svc = service();
    for (label, request) in pool() {
        let served = serve(&svc, &label, &request);
        // rename every variable, reversing their lexical order
        let mut names: Vec<Symbol> = request.vars.keys().copied().collect();
        names.sort_by_key(|s| s.to_string());
        let n = names.len();
        let renamed: HashMap<Symbol, Symbol> = names
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, Symbol::new(&format!("renamed{:02}", n - i))))
            .collect();
        let vars: HashMap<Symbol, VarMeta> =
            request.vars.iter().map(|(s, &m)| (renamed[s], m)).collect();
        let bits = |arena: &ExprArena, root, vars: &HashMap<Symbol, VarMeta>| {
            plan_cost(arena, root, vars)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .to_bits()
        };
        for (what, arena, root) in [
            ("input", &request.arena, request.root),
            ("served plan", &served.arena, served.root),
        ] {
            let (arena2, root2) = arena.rename_vars(root, &renamed);
            assert_eq!(
                bits(arena, root, &request.vars),
                bits(&arena2, root2, &vars),
                "{label}: renaming the variables moved the cost of the {what}"
            );
        }
    }
}
