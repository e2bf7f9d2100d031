//! Figure 14: derive every hand-coded SystemML sum-product rewrite with
//! the relational rules.
//!
//! For each pattern of the corpus, derivation is established by (checked
//! in this order):
//!
//! 1. **canon** — the two sides' canonical forms are isomorphic
//!    (Theorem 2.3; index-name independent);
//! 2. **e-graph** — feeding both sides into one e-graph (with aligned
//!    result attributes) and saturating merges their classes — the
//!    experiment exactly as §4.1 describes it;
//! 3. **zero-invariant** — for the `Empty*` families, the optimizer
//!    proves the left side identically zero via the sparsity invariant.
//!
//! `--no-custom` drops the custom-function equations (§3.3), showing
//! which families need them (an ablation; see also `ablation`).

use spores_core::analysis::{MathGraph, MetaAnalysis};
use spores_core::translate::translate_pair;
use spores_core::{canon_of_la, polyterm_isomorphic, VarMeta};
use spores_egraph::{Language, Runner, Scheduler};
use spores_ir::{ExprArena, Symbol};
use spores_systemml::{RewritePattern, Validation, CORPUS};
use std::collections::HashMap;

#[derive(Copy, Clone, PartialEq, Debug)]
enum How {
    Canon,
    EGraph,
    ZeroInvariant,
    Failed,
}

fn vars_of(p: &RewritePattern) -> HashMap<Symbol, VarMeta> {
    p.vars
        .iter()
        .map(|&(n, r, c, s)| (Symbol::new(n), VarMeta::sparse(r, c, s)))
        .collect()
}

fn check(p: &RewritePattern, rules: &[spores_core::MathRewrite]) -> How {
    let mut arena = ExprArena::new();
    let lhs = spores_ir::parse_expr(&mut arena, p.lhs).expect("lhs parses");
    let rhs = spores_ir::parse_expr(&mut arena, p.rhs).expect("rhs parses");
    let vars = vars_of(p);

    if p.validation == Validation::ZeroInvariant {
        // the optimizer must prove nnz(LHS) == 0
        if let Ok(tr) = spores_core::translate(&arena, lhs, &vars) {
            let mut eg = MathGraph::new(MetaAnalysis::new(tr.ctx.clone()));
            let id = eg.add_expr(&tr.expr);
            eg.rebuild();
            if eg.class(id).data.sparsity == 0.0 {
                return How::ZeroInvariant;
            }
        }
        return How::Failed;
    }

    // 1. canonical forms (Theorem 2.3)
    if let (Ok(a), Ok(b)) = (
        canon_of_la(&arena, lhs, &vars),
        canon_of_la(&arena, rhs, &vars),
    ) {
        if polyterm_isomorphic(&a, &b) {
            return How::Canon;
        }
    }

    // 2. saturation merges the two (attribute-aligned) sides
    if let Ok(tr) = translate_pair(&arena, lhs, rhs, &vars) {
        let runner = Runner::new(MetaAnalysis::new(tr.ctx.clone()))
            .with_expr(&tr.expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_node_limit(30_000)
            .with_iter_limit(20)
            .run(rules);
        // the synthetic root is (+ lhs rhs); read back its children
        let root_class = runner.egraph.class(runner.roots[0]);
        for node in &root_class.nodes {
            if let spores_core::Math::Add([l, r]) = node {
                if runner.egraph.find(*l) == runner.egraph.find(*r) {
                    return How::EGraph;
                }
            }
            let _ = node.children();
        }
    }
    How::Failed
}

fn main() {
    let no_custom = std::env::args().any(|a| a == "--no-custom");
    let rules = if no_custom {
        spores_core::req_rules()
    } else {
        spores_core::default_rules()
    };
    println!(
        "Figure 14: SystemML sum-product rewrites derived by relational rules{}",
        if no_custom {
            " (R_EQ only, custom-function equations ablated)"
        } else {
            ""
        }
    );
    println!();

    let mut table = spores_bench::Table::new(&["Method", "#", "Derived", "Via"]);
    let mut total = 0;
    let mut derived = 0;
    for method in spores_systemml::patterns::methods() {
        let pats: Vec<&RewritePattern> = CORPUS.iter().filter(|p| p.method == method).collect();
        let results: Vec<How> = pats.iter().map(|p| check(p, &rules)).collect();
        let ok = results.iter().filter(|&&h| h != How::Failed).count();
        total += pats.len();
        derived += ok;
        let via: Vec<&str> = {
            let mut v = Vec::new();
            if results.contains(&How::Canon) {
                v.push("canon");
            }
            if results.contains(&How::EGraph) {
                v.push("e-graph");
            }
            if results.contains(&How::ZeroInvariant) {
                v.push("nnz=0");
            }
            if results.contains(&How::Failed) {
                v.push("FAILED");
            }
            v
        };
        table.row(&[
            method.to_string(),
            pats.len().to_string(),
            format!("{ok}/{}", pats.len()),
            via.join("+"),
        ]);
    }
    table.print();
    println!();
    println!("TOTAL: {derived}/{total} patterns derived across 31 methods");
    if !no_custom {
        assert_eq!(derived, total, "all Figure 14 patterns must derive");
    }
}
