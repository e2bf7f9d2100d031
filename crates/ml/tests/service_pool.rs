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
//!
//! `GOLDEN_BUNDLES` pins the five programs' workload bundles through the
//! same service, twice. It was recorded at the commit before bundles and
//! statements shared one request flow (one cache entry type, one miss
//! path): each line is the program, the source of both passes, the cost
//! bits of both passes and the text of every served root. Its `ALS` line
//! was re-recorded when translation became capture-free: both gradients
//! stopped building `U %*% t(V)` (cost 118252 → 78380).
//!
//! The last test pins that plan for the `ALS.GV` statement requests.

use spores_core::{plan_cost, VarMeta};
use spores_ir::{ExprArena, Symbol};
use spores_ml::runner::{statement_requests, workload_bundle};
use spores_ml::workloads;
use spores_service::{
    OptimizerService, PlanSource, Request, Served, ServedWorkload, ServiceConfig, WorkloadRequest,
};
use std::collections::HashMap;

/// Pass-2 misses before verdicts were remembered (self-rejections).
const SELF_REJECTED: [&str; 2] = ["ALS.loss@0.1", "ALS.loss@1"];

const GOLDEN_BUNDLES: &[&str] = &[
    "ALS pass1=Miss pass2=Hit cost1=40f322c000000000 cost2=40f322c000000000 roots: GU@1 = U %*% (t(V) %*% V) - X %*% V; U@1 = U + GU@1 * -0.0001; GV@1 = V %*% (t(U@1) %*% U@1) - t(X) %*% U@1; V@1 = V + GV@1 * -0.0001; loss@1 = sum(X * X) + (sum(rowSums(U@1 %*% t(V@1) * U@1 %*% t(V@1))) + sum(rowSums(t(U@1) * t(X %*% V@1))) * -2)",
    "PNMF pass1=Miss pass2=Hit cost1=40fc24d000000000 cost2=40fc24d000000000 roots: H@1 = H * t(W) %*% (X / W %*% H) * t(1 / colSums(W)); W@1 = W * (X / W %*% H@1) %*% t(H@1) * t(1 / rowSums(H@1)); obj@1 = sum(colSums(W@1) * t(rowSums(H@1))) - sum(log(W@1 %*% H@1) * X)",
    "GLM pass1=Miss pass2=Hit cost1=4096480000000000 cost2=4096480000000000 roots: P@1 = sigmoid(X %*% w); G@1 = t(colSums(X * P@1 - X * y)) + w * 0.01; w@1 = w + G@1 * -0.1; obj@1 = sum(P@1 * P@1) + (sum(y * y) + sum(y * P@1) * -2) + 0.01 * sum(w@1 * w@1)",
    "SVM pass1=Miss pass2=Hit cost1=409dd00000000000 cost2=409dd00000000000 roots: out@1 = 1 - y * X %*% w; sv@1 = out@1 > 0; G@1 = w * 0.01 - t(X) %*% (y * out@1 * sv@1); w@1 = w + G@1 * -0.1; obj@1 = 0.5 * sum((sv@1 * out@1)^2) + 0.01 * sum(w@1 * w@1)",
    "MLR pass1=Miss pass2=Hit cost1=4090840000000000 cost2=4090840000000000 roots: P@1 = sigmoid(X %*% w); D@1 = P@1 * (X - P@1 * X); G@1 = t(colSums(D@1)) + 0.01 * w; w@1 = w + G@1 * -0.1; obj@1 = sum(y * y) + -2 * sum(y * P@1) + sum(P@1 * P@1)",
];

/// The five §4.2 programs at the roster sizes of `plan_golden.rs`.
fn programs() -> [workloads::Workload; 5] {
    [
        workloads::als(200, 100, 8, 7),
        workloads::pnmf(150, 120, 8, 7),
        workloads::glm(200, 40, 7),
        workloads::svm(200, 40, 7),
        workloads::mlr(200, 20, 7),
    ]
}

/// `(label, request)` of the 88 pool requests, in the ledger's order.
fn pool() -> Vec<(String, Request)> {
    let programs = programs();
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

/// `name = text` of every served root, in bundle order.
fn roots_text(served: &ServedWorkload) -> String {
    served
        .roots
        .iter()
        .map(|&(name, root)| format!("{name} = {}", served.arena.display(root)))
        .collect::<Vec<_>>()
        .join("; ")
}

#[test]
fn bundles_repeat_the_recorded_plans_on_both_passes() {
    let bundles: Vec<(&str, WorkloadRequest)> = programs()
        .iter()
        .map(|program| {
            let bundle = workload_bundle(program);
            (program.name, WorkloadRequest::new(bundle.expr, bundle.vars))
        })
        .collect();
    let svc = service();
    let pass = |svc: &OptimizerService| -> Vec<ServedWorkload> {
        bundles
            .iter()
            .map(|(name, request)| {
                svc.optimize_workload(request.clone())
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
            .collect()
    };
    let first = pass(&svc);
    let second = pass(&svc);
    let mut got = Vec::new();
    for (((name, _), one), two) in bundles.iter().zip(&first).zip(&second) {
        // see above: a saturation the wall clock cut short is not comparable
        if one.timed_out {
            continue;
        }
        got.push(format!(
            "{name} pass1={:?} pass2={:?} cost1={:016x} cost2={:016x} roots: {}",
            one.source,
            two.source,
            one.cost.to_bits(),
            two.cost.to_bits(),
            roots_text(one),
        ));
        assert_eq!(
            roots_text(two),
            roots_text(one),
            "{name}: pass 2 served another plan"
        );
    }
    let listing = got
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n");
    for line in &got {
        let name = line.split(' ').next();
        let want = GOLDEN_BUNDLES.iter().find(|w| w.split(' ').next() == name);
        assert_eq!(want, Some(&line.as_str()), "this run:\n{listing}");
    }
    assert!(
        got.len() >= 4,
        "only {} of 5 saturations beat the clock",
        got.len()
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

/// `GV = t(t(U) %*% (U %*% t(V) - X))` is served as `V %*% (t(U) %*% U) -
/// t(X) %*% U` at every sparsity of `X`: the rows×cols `U %*% t(V)` is
/// never built. Translation reuses `U`'s fragment on both sides of the
/// outer product, and unless the side that sums `U`'s column index away
/// and the side that keeps it free use different names for it, the join
/// cannot move under that `Σ`.
#[test]
fn als_gradient_is_served_without_the_dense_product() {
    let svc = service();
    let mut compared = 0;
    for (label, request) in pool().iter().filter(|(l, _)| l.starts_with("ALS.GV@")) {
        let served = serve(&svc, label, request);
        // see above: a saturation the wall clock cut short is not comparable
        if served.timed_out {
            continue;
        }
        compared += 1;
        assert_eq!(
            served.arena.display(served.root),
            "V %*% (t(U) %*% U) - t(X) %*% U",
            "{label}"
        );
    }
    assert!(compared > 0, "no ALS.GV saturation beat the clock");
}
