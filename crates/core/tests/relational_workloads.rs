//! Relational e-matching composed with the full saturation stack on the
//! paper's §4.2 evaluation workloads.
//!
//! The backend contract from `spores_egraph::relational` is that the
//! [`MatchingMode`] is *invisible*: swapping the structural compiled
//! matcher for the generic-join backend must not perturb a single
//! scheduling decision. These tests replay each workload's saturation —
//! sampling scheduler, backoff banking, delta search, and (for the
//! multi-statement run) per-region convergence freezing — at 1 and 8
//! threads in both modes, and require the relational lanes to reproduce
//! the structural 1-thread baseline bit for bit: stop reason, graph
//! size, per-iteration counts, per-rule `RuleIterStats` (including the
//! funnel's candidate accounting and mute/delta flags), frozen-region
//! flags, and the extracted terms.

use spores_core::analysis::{Context, MetaAnalysis, VarMeta};
use spores_core::{default_rules, parse_math, MatchingMode, MathExpr};
use spores_egraph::{AstSize, Extractor, ParallelConfig, RecExpr, RegionConfig, Runner, Scheduler};

fn ctx() -> Context {
    Context::new()
        .with_var("X", VarMeta::sparse(1000, 500, 0.001))
        .with_var("U", VarMeta::dense(1000, 1))
        .with_var("V", VarMeta::dense(500, 1))
        .with_index("i", 1000)
        .with_index("j", 500)
}

/// RA translations of the §4.2 workloads' hot expressions (the same
/// shapes `benches/saturation.rs` snapshots).
fn workload_exprs() -> Vec<(&'static str, MathExpr)> {
    let parse = |s: &str| parse_math(s).unwrap();
    vec![
        (
            "headline",
            parse("(sum i (sum j (pow (+ (b i j X) (* -1 (* (b i _ U) (b j _ V)))) 2)))"),
        ),
        (
            "als",
            parse("(sum j (* (+ (* (b i _ U) (b j _ V)) (* -1 (b i j X))) (b j _ V)))"),
        ),
        ("pnmf", parse("(sum i (sum j (* (b i _ U) (b j _ V))))")),
        (
            "glm",
            parse("(sum i (sum j (* (b i j X) (* (b i _ U) (b j _ V)))))"),
        ),
        ("mlr", parse("(sum i (sigmoid (* (b i j X) (b j _ V))))")),
    ]
}

/// Saturate `exprs` as one (possibly multi-root) run.
fn run(
    exprs: &[MathExpr],
    threads: usize,
    mode: MatchingMode,
    regions: Option<RegionConfig>,
) -> Runner<spores_core::Math, MetaAnalysis> {
    let mut runner = Runner::new(MetaAnalysis::new(ctx()))
        .with_scheduler(Scheduler::Sampling {
            match_limit: 40,
            seed: 1,
        })
        .with_node_limit(3_000)
        .with_iter_limit(6)
        .with_parallel(ParallelConfig { threads })
        .with_matching(mode);
    for expr in exprs {
        runner = runner.with_expr(expr);
    }
    if let Some(cfg) = regions {
        runner = runner.with_regions(cfg);
    }
    runner.run(&default_rules())
}

/// Assert `got` replays `base` exactly, down to per-rule funnel stats.
fn assert_replay(
    label: &str,
    base: &Runner<spores_core::Math, MetaAnalysis>,
    got: &Runner<spores_core::Math, MetaAnalysis>,
) {
    assert_eq!(got.stop_reason, base.stop_reason, "{label}: stop reason");
    assert_eq!(
        got.egraph.total_number_of_nodes(),
        base.egraph.total_number_of_nodes(),
        "{label}: e-node count"
    );
    assert_eq!(
        got.egraph.number_of_classes(),
        base.egraph.number_of_classes(),
        "{label}: e-class count"
    );
    assert_eq!(
        got.iterations.len(),
        base.iterations.len(),
        "{label}: iteration count"
    );
    for (it, (g, b)) in got.iterations.iter().zip(&base.iterations).enumerate() {
        assert_eq!(g.matches_found, b.matches_found, "{label} iter {it}");
        assert_eq!(g.matches_applied, b.matches_applied, "{label} iter {it}");
        assert_eq!(g.unions, b.unions, "{label} iter {it}");
        assert_eq!(g.egraph_nodes, b.egraph_nodes, "{label} iter {it}");
        assert_eq!(g.egraph_classes, b.egraph_classes, "{label} iter {it}");
        assert_eq!(
            g.frozen_regions, b.frozen_regions,
            "{label} iter {it}: frozen-region flags"
        );
        assert_eq!(g.rules.len(), b.rules.len(), "{label} iter {it}");
        for (gr, br) in g.rules.iter().zip(&b.rules) {
            assert_eq!(gr.rule, br.rule, "{label} iter {it}");
            assert_eq!(
                gr.candidates, br.candidates,
                "{label} iter {it} rule {}: candidates visited",
                gr.rule
            );
            assert_eq!(gr.matches, br.matches, "{label} iter {it} rule {}", gr.rule);
            assert_eq!(gr.applied, br.applied, "{label} iter {it} rule {}", gr.rule);
            assert_eq!(gr.unions, br.unions, "{label} iter {it} rule {}", gr.rule);
            assert_eq!(gr.muted, br.muted, "{label} iter {it} rule {}", gr.rule);
            assert_eq!(gr.delta, br.delta, "{label} iter {it} rule {}", gr.rule);
        }
    }
    let extract = |r: &Runner<spores_core::Math, MetaAnalysis>| -> Vec<(f64, RecExpr<_>)> {
        let ex = Extractor::new(&r.egraph, AstSize);
        r.roots
            .iter()
            .map(|&root| ex.find_best(root).expect("root extractable"))
            .collect()
    };
    assert_eq!(extract(got), extract(base), "{label}: extracted terms");
}

/// The (threads, mode) lanes compared against the 1-thread structural
/// baseline — the CI `SPORES_THREADS` matrix endpoints in both modes.
const LANES: [(usize, MatchingMode); 3] = [
    (1, MatchingMode::Relational),
    (8, MatchingMode::Structural),
    (8, MatchingMode::Relational),
];

#[test]
fn relational_replays_each_workload_saturation() {
    for (name, expr) in workload_exprs() {
        let exprs = [expr];
        let base = run(&exprs, 1, MatchingMode::Structural, None);
        assert!(
            base.iterations.iter().any(|it| it.unions > 0),
            "{name}: workload saturation did no work — test is vacuous"
        );
        for (threads, mode) in LANES {
            let got = run(&exprs, threads, mode, None);
            assert_replay(&format!("{name} @{threads}t/{mode:?}"), &base, &got);
        }
    }
}

#[test]
fn relational_replays_multi_root_run_with_region_freezing() {
    let exprs: Vec<MathExpr> = workload_exprs().into_iter().map(|(_, e)| e).collect();
    let regions = Some(RegionConfig::default());
    let base = run(&exprs, 1, MatchingMode::Structural, regions);
    assert!(
        base.iterations
            .iter()
            .any(|it| it.frozen_regions.iter().any(|&f| f)),
        "no region ever froze — freezing lane is vacuous"
    );
    for (threads, mode) in LANES {
        let got = run(&exprs, threads, mode, regions);
        assert_replay(&format!("workload-5 @{threads}t/{mode:?}"), &base, &got);
    }
}
