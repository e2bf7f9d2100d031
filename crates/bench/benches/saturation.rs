//! Criterion micro-benchmarks for the equality-saturation engine:
//! e-graph insertion/rebuild throughput, full saturation of the paper's
//! headline expression under both schedulers, and indexed-vs-naive
//! e-matching on saturated graphs of the evaluation workload shapes.
//! (That the three matchers *agree* on those shapes is a test:
//! `indexed_matching_agrees_with_naive_on_real_rules` in `spores-core`.)

use criterion::{criterion_group, criterion_main, Criterion};
use spores_core::analysis::{Context, MetaAnalysis, VarMeta};
use spores_core::{default_rules, parse_math, MathRewrite};
use spores_egraph::{MatchingMode, Runner, Scheduler};
use std::hint::black_box;

fn ctx() -> Context {
    Context::new()
        .with_var("X", VarMeta::sparse(1000, 500, 0.001))
        .with_var("U", VarMeta::dense(1000, 1))
        .with_var("V", VarMeta::dense(500, 1))
        .with_index("i", 1000)
        .with_index("j", 500)
}

fn headline() -> spores_core::MathExpr {
    parse_math("(sum i (sum j (pow (+ (b i j X) (* -1 (* (b i _ U) (b j _ V)))) 2)))").unwrap()
}

/// RA translations of the evaluation workloads' hot expressions
/// (the shapes the paper's Figure 8 saturation loop is run on).
fn workload_exprs() -> Vec<(&'static str, spores_core::MathExpr)> {
    let parse = |s: &str| parse_math(s).unwrap();
    vec![
        ("headline", headline()),
        // ALS residual step: (U Vᵀ − X) V
        (
            "als",
            parse("(sum j (* (+ (* (b i _ U) (b j _ V)) (* -1 (b i j X))) (b j _ V)))"),
        ),
        // PNMF objective term: sum(W H)
        ("pnmf", parse("(sum i (sum j (* (b i _ U) (b j _ V))))")),
        // GLM-style weighted inner product: sum(X ⊙ u vᵀ)
        (
            "glm",
            parse("(sum i (sum j (* (b i j X) (* (b i _ U) (b j _ V)))))"),
        ),
        // MLR-style link function under aggregation
        ("mlr", parse("(sum i (sigmoid (* (b i j X) (b j _ V))))")),
    ]
}

/// Saturate one workload expression into a sizable e-graph.
fn saturated(expr: &spores_core::MathExpr) -> spores_core::analysis::MathGraph {
    Runner::new(MetaAnalysis::new(ctx()))
        .with_expr(expr)
        .with_scheduler(Scheduler::Sampling {
            match_limit: 40,
            seed: 1,
        })
        .with_node_limit(5_000)
        .with_iter_limit(8)
        .run(&default_rules())
        .egraph
}

fn search_all_indexed(rules: &[MathRewrite], eg: &spores_core::analysis::MathGraph) -> usize {
    rules.iter().map(|r| r.search(eg).len()).sum()
}

fn search_all_naive(rules: &[MathRewrite], eg: &spores_core::analysis::MathGraph) -> usize {
    rules
        .iter()
        .map(|r| r.searcher.naive_search(eg).len())
        .sum()
}

fn search_all_relational(rules: &[MathRewrite], eg: &spores_core::analysis::MathGraph) -> usize {
    rules
        .iter()
        .map(|r| {
            let ids = r.except_candidate_ids(eg, &Default::default());
            r.search_ids(eg, &ids, MatchingMode::Relational).0.len()
        })
        .sum()
}

fn bench_add_rebuild(c: &mut Criterion) {
    let expr = headline();
    c.bench_function("egraph/add_expr+rebuild", |b| {
        b.iter(|| {
            let mut eg = spores_core::analysis::MathGraph::new(MetaAnalysis::new(ctx()));
            let id = eg.add_expr(black_box(&expr));
            eg.rebuild();
            black_box(id)
        });
    });
}

fn bench_saturation(c: &mut Criterion) {
    let expr = headline();
    let rules = default_rules();
    let mut group = c.benchmark_group("saturation/headline");
    group.sample_size(10);
    group.bench_function("depth_first", |b| {
        b.iter(|| {
            Runner::new(MetaAnalysis::new(ctx()))
                .with_expr(&expr)
                .with_scheduler(Scheduler::DepthFirst)
                .with_node_limit(10_000)
                .run(black_box(&rules))
                .egraph
                .total_number_of_nodes()
        });
    });
    group.bench_function("sampling", |b| {
        b.iter(|| {
            Runner::new(MetaAnalysis::new(ctx()))
                .with_expr(&expr)
                .with_scheduler(Scheduler::Sampling {
                    match_limit: 40,
                    seed: 1,
                })
                .with_node_limit(10_000)
                .run(black_box(&rules))
                .egraph
                .total_number_of_nodes()
        });
    });
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let rules = default_rules();
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for (name, expr) in workload_exprs() {
        let eg = saturated(&expr);
        group.bench_function(&format!("{name}/indexed"), |b| {
            b.iter(|| search_all_indexed(black_box(&rules), &eg));
        });
        group.bench_function(&format!("{name}/naive"), |b| {
            b.iter(|| search_all_naive(black_box(&rules), &eg));
        });
        group.bench_function(&format!("{name}/relational"), |b| {
            b.iter(|| search_all_relational(black_box(&rules), &eg));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_add_rebuild, bench_saturation, bench_matching);
criterion_main!(benches);
