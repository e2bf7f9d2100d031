//! End-to-end soundness of workload-level optimization through the
//! service.
//!
//! Random workload bundles are assembled from a roster of shape-correct
//! scalar statements (plus a final statement reading earlier roots, so
//! the SSA def-use wiring is exercised), then:
//!
//! * the served multi-root plan, evaluated through `spores-exec`'s
//!   shared-memo `run_many`, must produce per-root values identical to
//!   evaluating each statement's *independently optimized* plan in
//!   sequence;
//! * an α-variant of the same bundle requested at *different* leaf
//!   sizes (same shape/sparsity classes) after the cache is warm must —
//!   when served as a hit — still evaluate identically to its own
//!   unoptimized input.

use proptest::prelude::*;
use spores_core::{Optimizer, OptimizerConfig, VarMeta};
use spores_exec::{ExecConfig, Executor};
use spores_ir::{ExprArena, NodeId, Symbol, WorkloadExpr};
use spores_matrix::{gen, Matrix};
use spores_service::{OptimizerService, PlanSource, ServiceConfig, WorkloadRequest};
use std::collections::HashMap;

/// Scalar-valued statement templates over `X` (sparse M×N), `Y` (dense
/// M×N), `u` (M×1) and `v` (N×1).
const TEMPLATES: [&str; 8] = [
    "sum((X - u %*% t(v))^2)",
    "sum(X %*% v)",
    "sum(X * Y)",
    "sum(rowSums(X) * u)",
    "sum(colSums(X * Y))",
    "sum(sigmoid(X) * Y)",
    "sum((X + u %*% t(v))^2)",
    "sum(t(u) %*% X %*% v)",
];

/// Build a bundle: one root per picked template (names `s0`, `s1`, …)
/// plus a final root `out` summing every earlier root — reads of the
/// version symbols exercise the def-use wiring end to end.
fn build_bundle(picks: &[usize], names: &[&str; 4]) -> WorkloadExpr {
    let mut arena = ExprArena::new();
    let rename: HashMap<Symbol, Symbol> = [
        (Symbol::new("X"), Symbol::new(names[0])),
        (Symbol::new("Y"), Symbol::new(names[1])),
        (Symbol::new("u"), Symbol::new(names[2])),
        (Symbol::new("v"), Symbol::new(names[3])),
    ]
    .into();
    let mut roots: Vec<(Symbol, NodeId)> = Vec::new();
    for (i, &t) in picks.iter().enumerate() {
        let mut scratch = ExprArena::new();
        let parsed = spores_ir::parse_expr(&mut scratch, TEMPLATES[t % TEMPLATES.len()]).unwrap();
        let root = arena.graft(&scratch, parsed, &rename);
        roots.push((Symbol::new(&format!("s{i}")), root));
    }
    let mut acc = None;
    for &(name, _) in &roots {
        let leaf = arena.var(name);
        acc = Some(match acc {
            None => leaf,
            Some(prev) => arena.add(prev, leaf),
        });
    }
    let out = acc.expect("at least one statement");
    roots.push((Symbol::new("out"), out));
    WorkloadExpr::new(arena, roots).unwrap()
}

fn meta_for(bundle: &WorkloadExpr, names: &[&str; 4], m: u64, n: u64) -> HashMap<Symbol, VarMeta> {
    let mut vars = HashMap::from([
        (Symbol::new(names[0]), VarMeta::sparse(m, n, 0.3)),
        (Symbol::new(names[1]), VarMeta::dense(m, n)),
        (Symbol::new(names[2]), VarMeta::dense(m, 1)),
        (Symbol::new(names[3]), VarMeta::dense(n, 1)),
    ]);
    // version symbols of earlier roots: all templates are scalar-valued
    for &(name, _) in &bundle.roots {
        vars.entry(name).or_insert_with(VarMeta::scalar);
    }
    vars
}

fn inputs_for(names: &[&str; 4], m: usize, n: usize, seed: u64) -> HashMap<Symbol, Matrix> {
    let mut r = gen::rng(seed);
    HashMap::from([
        (
            Symbol::new(names[0]),
            gen::rand_sparse(m, n, 0.3, -1.0, 1.0, &mut r),
        ),
        (
            Symbol::new(names[1]),
            gen::rand_dense(m, n, -1.0, 1.0, &mut r),
        ),
        (
            Symbol::new(names[2]),
            gen::rand_dense(m, 1, -1.0, 1.0, &mut r),
        ),
        (
            Symbol::new(names[3]),
            gen::rand_dense(n, 1, -1.0, 1.0, &mut r),
        ),
    ])
}

fn optimizer_config() -> OptimizerConfig {
    OptimizerConfig {
        node_limit: 4_000,
        iter_limit: 8,
        ..OptimizerConfig::default()
    }
}

fn service() -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        optimizer: optimizer_config(),
        workers: 2,
        ..ServiceConfig::default()
    })
}

/// Evaluate a multi-root plan in root order with progressive bindings.
fn eval_roots(
    arena: &ExprArena,
    roots: &[(Symbol, NodeId)],
    env: &HashMap<Symbol, Matrix>,
) -> Vec<Matrix> {
    let mut env = env.clone();
    Executor::new(ExecConfig { fusion: true })
        .run_many(arena, roots, &mut env)
        .expect("workload evaluates");
    roots.iter().map(|(name, _)| env[name].clone()).collect()
}

const NAMES_A: [&str; 4] = ["X", "Y", "u", "v"];
const NAMES_B: [&str; 4] = ["P", "Q", "a", "b"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn served_workload_matches_per_statement_optimization(
        picks in prop::collection::vec(0..TEMPLATES.len(), 1..4),
        m in 3u64..9,
        n in 3u64..9,
        seed in any::<u64>(),
    ) {
        let bundle = build_bundle(&picks, &NAMES_A);
        let vars = meta_for(&bundle, &NAMES_A, m, n);
        let svc = service();
        let served = svc
            .optimize_workload(WorkloadRequest::new(bundle.clone(), vars.clone()))
            .unwrap();
        prop_assert_eq!(served.source, PlanSource::Miss);
        prop_assert_eq!(served.roots.len(), bundle.roots.len());

        let env = inputs_for(&NAMES_A, m as usize, n as usize, seed);
        let got = eval_roots(&served.arena, &served.roots, &env);

        // reference: optimize every statement independently (the
        // per-statement pipeline), evaluate sequentially with bindings
        let opt = Optimizer::new(optimizer_config());
        let mut ref_env = env.clone();
        let mut exec = Executor::new(ExecConfig { fusion: true });
        for (i, &(name, root)) in bundle.roots.iter().enumerate() {
            let single = opt.optimize(&bundle.arena, root, &vars).unwrap();
            let want = exec.run(&single.arena, single.root, &ref_env).unwrap();
            ref_env.insert(name, want.clone());
            let scale = 1.0 + want.to_dense().data.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            prop_assert!(
                want.approx_eq(&got[i], 1e-9 * scale),
                "root {i} ({name}) diverged: workload {} vs per-statement {}",
                served.arena.display(served.roots[i].1),
                single.arena.display(single.root)
            );
        }
    }

    #[test]
    fn warm_workload_hits_stay_sound_at_different_leaf_sizes(
        picks in prop::collection::vec(0..TEMPLATES.len(), 1..4),
        m in 3u64..9,
        n in 3u64..9,
        seed in any::<u64>(),
    ) {
        let svc = service();
        // warm with the A-variant at (m, n)
        let bundle_a = build_bundle(&picks, &NAMES_A);
        let vars_a = meta_for(&bundle_a, &NAMES_A, m, n);
        svc.optimize_workload(WorkloadRequest::new(bundle_a, vars_a)).unwrap();

        // α-variant at different sizes within the same classes
        let (m2, n2) = (m + 3, n + 2);
        let bundle_b = build_bundle(&picks, &NAMES_B);
        let vars_b = meta_for(&bundle_b, &NAMES_B, m2, n2);
        let served = svc
            .optimize_workload(WorkloadRequest::new(bundle_b.clone(), vars_b))
            .unwrap();

        let env = inputs_for(&NAMES_B, m2 as usize, n2 as usize, seed);
        let got = eval_roots(&served.arena, &served.roots, &env);
        let want = eval_roots(&bundle_b.arena, &bundle_b.roots, &env);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            let scale = 1.0 + w.to_dense().data.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            prop_assert!(
                w.approx_eq(g, 1e-9 * scale),
                "root {i} diverged after {:?} at resized leaves: {}",
                served.source,
                served.arena.display(served.roots[i].1)
            );
        }
    }
}

/// Deterministic companion: a size-polymorphic workload template must be
/// served as a HIT when re-requested at different sizes, and still agree.
#[test]
fn warm_hit_at_different_sizes_is_served_from_the_cache() {
    let svc = service();
    let picks = [2usize, 5]; // sum(X * Y), sum(sigmoid(X) * Y): polymorphic
    let bundle_a = build_bundle(&picks, &NAMES_A);
    let vars_a = meta_for(&bundle_a, &NAMES_A, 6, 5);
    let cold = svc
        .optimize_workload(WorkloadRequest::new(bundle_a, vars_a))
        .unwrap();
    assert_eq!(cold.source, PlanSource::Miss);

    let bundle_b = build_bundle(&picks, &NAMES_B);
    let vars_b = meta_for(&bundle_b, &NAMES_B, 9, 8);
    let served = svc
        .optimize_workload(WorkloadRequest::new(bundle_b.clone(), vars_b))
        .unwrap();
    assert_eq!(
        served.source,
        PlanSource::Hit,
        "size-polymorphic workload template must be reusable at other sizes"
    );
    let env = inputs_for(&NAMES_B, 9, 8, 42);
    let got = eval_roots(&served.arena, &served.roots, &env);
    let want = eval_roots(&bundle_b.arena, &bundle_b.roots, &env);
    for (w, g) in want.iter().zip(&got) {
        assert!(w.approx_eq(g, 1e-6));
    }
    assert_eq!(svc.stats().hits, 1);

    // the producing request's metadata, under the other names: served on
    // the verdict the miss left behind, at the miss's cost
    let bundle_c = build_bundle(&picks, &NAMES_B);
    let vars_c = meta_for(&bundle_c, &NAMES_B, 6, 5);
    let again = svc
        .optimize_workload(WorkloadRequest::new(bundle_c, vars_c))
        .unwrap();
    assert_eq!(again.source, PlanSource::Hit);
    assert_eq!(again.cost.to_bits(), cold.cost.to_bits());
    let text = svc.metrics_text();
    assert!(
        text.contains("spores_service_recheck_memo_hits 1"),
        "{text}"
    );
}
