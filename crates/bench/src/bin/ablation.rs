//! Ablations for three design choices of the optimizer:
//!
//! 1. **sampling match-limit sweep** — convergence and e-graph size vs
//!    the per-rule match cap (§3.1's knob);
//! 2. **greedy vs ILP on a CSE-heavy plan** — the Figure 10 scenario
//!    where greedy double-counts a shared subplan;
//! 3. **custom-function equations on/off** — how many Figure 14 families
//!    still derive with bare R_EQ (run `fig14 --no-custom` for the full
//!    per-method table).

use spores_bench::Table;
use spores_core::analysis::{Context, MetaAnalysis, VarMeta};
use spores_core::{extract_greedy, extract_ilp, parse_math};
use spores_egraph::{Runner, Scheduler};
use spores_ilp::Solver;

fn sampling_sweep() {
    println!("Ablation 1: sampling match-limit sweep (ALS gradient expression)");
    println!();
    let ctx = Context::new()
        .with_var("X", VarMeta::sparse(2000, 1000, 0.01))
        .with_var("U", VarMeta::dense(2000, 10))
        .with_var("V", VarMeta::dense(1000, 10));
    // (U Vᵀ − X) V translated by hand (stable input for the sweep)
    let mut arena = spores_ir::ExprArena::new();
    let root = spores_ir::parse_expr(&mut arena, "(U %*% t(V) - X) %*% V").unwrap();
    let vars = ctx.vars.iter().map(|(&k, &v)| (k, v)).collect();
    let tr = spores_core::translate(&arena, root, &vars).unwrap();

    let mut table = Table::new(&[
        "match_limit",
        "iterations",
        "e-nodes",
        "converged",
        "saturate ms",
        "plan cost",
    ]);
    for limit in [5usize, 10, 20, 40, 80, usize::MAX] {
        let scheduler = if limit == usize::MAX {
            Scheduler::DepthFirst
        } else {
            Scheduler::Sampling {
                match_limit: limit,
                seed: 7,
            }
        };
        let t0 = std::time::Instant::now();
        let mut ctx2 = tr.ctx.clone();
        ctx2.vars = tr.ctx.vars.clone();
        let runner = Runner::new(MetaAnalysis::new(ctx2))
            .with_expr(&tr.expr)
            .with_scheduler(scheduler)
            .with_iter_limit(100)
            .with_node_limit(20_000)
            .run(&spores_core::default_rules());
        let cost = extract_greedy(&runner.egraph, runner.roots[0])
            .map_or_else(|| "-".into(), |(c, _)| format!("{c:.0}"));
        table.row(&[
            if limit == usize::MAX {
                "∞ (DFS)".into()
            } else {
                limit.to_string()
            },
            runner.iterations.len().to_string(),
            runner.egraph.total_number_of_nodes().to_string(),
            if runner.saturated() { "yes" } else { "no" }.into(),
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3),
            cost,
        ]);
    }
    table.print();
    println!();
}

fn greedy_vs_ilp() {
    println!("Ablation 2: greedy vs ILP extraction on a CSE-heavy plan (Figure 10)");
    println!();
    // (U⊗V) shared between a sparse-join consumer and a direct consumer:
    // greedy pays the dense outer product twice, ILP once.
    let ctx = Context::new()
        .with_var("X", VarMeta::sparse(1000, 500, 0.001))
        .with_var("U", VarMeta::dense(1000, 1))
        .with_var("V", VarMeta::dense(500, 1))
        .with_index("i", 1000)
        .with_index("j", 500);
    let outer = "(* (b i _ U) (b j _ V))";
    let src = format!("(+ (* (b i j X) {outer}) {outer})");
    let mut eg = spores_core::analysis::MathGraph::new(MetaAnalysis::new(ctx));
    let root = eg.add_expr(&parse_math(&src).unwrap());
    eg.rebuild();
    let (gc, _) = extract_greedy(&eg, root).unwrap();
    let (ic, _, stats) = extract_ilp(&eg, root, &Solver::default()).unwrap();
    let mut table = Table::new(&["extractor", "plan cost", "optimal?"]);
    table.row(&["greedy".into(), format!("{gc:.0}"), "no (tree cost)".into()]);
    table.row(&[
        "ILP".into(),
        format!("{ic:.0}"),
        if stats.optimal { "yes" } else { "incumbent" }.into(),
    ]);
    table.print();
    println!(
        "\nILP saves {:.1}% by paying the shared outer product once\n",
        (gc - ic) / gc * 100.0
    );
}

fn rules_ablation() {
    println!("Ablation 3: custom-function equations (§3.3) on/off");
    println!();
    let n_req = spores_core::req_rules().len();
    let n_all = spores_core::default_rules().len();
    println!("  R_EQ rules: {n_req}; with custom-function equations: {n_all}");
    println!("  (run `fig14 --no-custom` for the per-method derivability table)");
    println!();
}

fn main() {
    sampling_sweep();
    greedy_vs_ilp();
    rules_ablation();
}
