//! Plan extraction: greedy and ILP (Figure 11).
//!
//! * **Greedy** — the bottom-up pass of §4.3, via
//!   [`spores_egraph::Extractor`] with the [`crate::cost::NnzCost`]
//!   function. Fast, but double-counts shared subexpressions (Figure 10).
//! * **ILP** — the Figure 11 encoding: a boolean `B_op` per e-node and
//!   `B_c` per e-class, constraints `F(op) = B_op → ∧ B_child` and
//!   `G(c) = B_c → ∨ B_op`, root asserted, objective `min Σ B_op · C_op`.
//!   Because each `B_op` is paid once no matter how many parents use it,
//!   shared plans are costed correctly. Saturated e-graphs contain cycles
//!   (`A = A + 0`), which the boolean encoding cannot exclude a priori;
//!   we add *lazy* blocking clauses whenever the solution's justification
//!   is cyclic and re-solve, mirroring how ILP extractors over e-graphs
//!   handle well-foundedness.

use crate::analysis::MetaAnalysis;
use crate::cost::{node_cost, NnzCost};
use crate::lang::{Math, MathExpr};
use spores_egraph::{EGraph, Extractor, FxHashMap, Id, Language};
use spores_ilp::{Problem, SolveResult, Solver};

/// Statistics from an ILP extraction run.
#[derive(Clone, Debug, Default)]
pub struct IlpStats {
    pub n_vars: usize,
    pub n_clauses: usize,
    /// Number of solve rounds (1 = no cycle-blocking needed).
    pub rounds: usize,
    /// Whether the final round proved optimality.
    pub optimal: bool,
    /// The greedy plan's DAG cost used to warm-start branch-and-bound
    /// (`None` when the greedy plan could not be priced as a DAG).
    pub warm_start: Option<f64>,
}

/// Extract the cheapest plan greedily (§4.3's fast strategy).
pub fn extract_greedy(egraph: &EGraph<Math, MetaAnalysis>, root: Id) -> Option<(f64, MathExpr)> {
    let extractor = Extractor::new(egraph, NnzCost);
    extractor.find_best(root)
}

/// Multi-root greedy extraction: the cheapest term of every root built
/// into ONE shared plan (per-class choices are global, so a sub-plan
/// reachable from several roots appears once). Returns the plan's DAG
/// cost — each distinct selected operator paid once *across roots* —
/// the plan, and each root's node id within it.
///
/// Greedy choices still optimize per-class tree cost, so they can
/// double-pay: a class may locally prefer an unshared cheap member over
/// a slightly pricier one whose sub-plan another root already needs.
/// [`extract_ilp_multi`] fixes that.
pub fn extract_greedy_multi(
    egraph: &EGraph<Math, MetaAnalysis>,
    roots: &[Id],
) -> Option<(f64, MathExpr, Vec<Id>)> {
    let (_, cost, expr, ids) = extract_greedy_costed(egraph, roots)?;
    Some((cost, expr, ids))
}

/// [`extract_greedy_multi`], with the summed per-root *tree* cost — the
/// quantity the greedy choices minimize, and what [`extract_greedy`]
/// reports — in front of the DAG cost.
pub(crate) fn extract_greedy_costed(
    egraph: &EGraph<Math, MetaAnalysis>,
    roots: &[Id],
) -> Option<(f64, f64, MathExpr, Vec<Id>)> {
    let extractor = Extractor::new(egraph, NnzCost);
    let (expr, ids) = extractor.find_best_multi(roots)?;
    let tree_cost = roots.iter().filter_map(|&r| extractor.best_cost(r)).sum();
    Some((tree_cost, dag_cost(egraph, &expr), expr, ids))
}

/// Extract the cheapest plan with the ILP encoding of Figure 11.
///
/// Returns the plan, its cost (sum over *distinct* selected operators,
/// i.e. DAG cost), and solver statistics. `None` when the root has no
/// extractable representation.
pub fn extract_ilp(
    egraph: &EGraph<Math, MetaAnalysis>,
    root: Id,
    solver: &Solver,
) -> Option<(f64, MathExpr, IlpStats)> {
    let (cost, expr, _, stats) = extract_ilp_multi(egraph, &[root], solver)?;
    Some((cost, expr, stats))
}

/// Multi-root ILP extraction (the workload-level Figure 11 encoding).
///
/// One boolean program covers the whole workload: every root's class is
/// asserted reachable (`B_c(root_k) = 1` for all k), the `F`/`G`
/// implication clauses are shared, and the objective sums each `B_op`
/// once — so a sub-plan selected on behalf of two roots is *paid for
/// once*, which is exactly the cross-statement CSE the per-statement
/// encoding cannot express. Cyclic justifications are excluded lazily
/// per the multi-root walk, and the branch-and-bound warm-starts from
/// the greedy multi-root plan's DAG cost.
pub fn extract_ilp_multi(
    egraph: &EGraph<Math, MetaAnalysis>,
    roots: &[Id],
    solver: &Solver,
) -> Option<(f64, MathExpr, Vec<Id>, IlpStats)> {
    let roots: Vec<Id> = roots.iter().map(|&r| egraph.find(r)).collect();

    // Eligibility fixpoint: reuse the greedy extractor — a class is
    // extractable iff greedy found any finite-cost term for it.
    let greedy = Extractor::new(egraph, NnzCost);
    for &root in &roots {
        greedy.best_cost(root)?;
    }

    // Warm start: the greedy multi-root plan is an achievable solution of
    // the ILP (select exactly its operators), so its DAG cost — each
    // distinct operator paid once across all roots, the objective the ILP
    // minimizes — is an incumbent upper bound. Branch-and-bound prunes
    // any branch that already costs more, long before it finds its first
    // own incumbent.
    let warm_start = greedy
        .find_best_multi(&roots)
        .map(|(expr, _)| dag_cost(egraph, &expr));

    // ---- variables -----------------------------------------------------
    let mut problem = Problem::new();
    let mut class_var: FxHashMap<Id, u32> = FxHashMap::default();
    // (class, node index within class) for each op var
    let mut ops: Vec<(Id, usize)> = Vec::new();
    let mut op_var: FxHashMap<(Id, usize), u32> = FxHashMap::default();

    for class in egraph.classes() {
        let id = egraph.find(class.id);
        if greedy.best_cost(id).is_none() {
            continue; // inextricable class: no variables (§3.2 pruning)
        }
        let c = problem.add_var(0.0);
        class_var.insert(id, c);
    }
    for class in egraph.classes() {
        let id = egraph.find(class.id);
        if !class_var.contains_key(&id) {
            continue;
        }
        let meta = &class.data;
        for (ni, node) in class.nodes.iter().enumerate() {
            let own = node_cost(meta, node);
            if !own.is_finite() {
                continue;
            }
            // every child class must itself be extractable
            if !node
                .children()
                .iter()
                .all(|&ch| class_var.contains_key(&egraph.find(ch)))
            {
                continue;
            }
            let v = problem.add_var(own);
            op_var.insert((id, ni), v);
            ops.push((id, ni));
        }
    }

    // ---- constraints (Figure 11) ----------------------------------------
    for &(cid, ni) in &ops {
        let v = op_var[&(cid, ni)];
        let node = &egraph.class(cid).nodes[ni];
        // F(op): selecting an operator selects all its children classes
        for &ch in node.children() {
            problem.imply(v, class_var[&egraph.find(ch)]);
        }
    }
    for (&cid, &cv) in &class_var {
        // G(c): a selected class needs at least one of its operators
        let members: Vec<u32> = egraph
            .class(cid)
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(ni, _)| op_var.get(&(cid, ni)).copied())
            .collect();
        debug_assert!(!members.is_empty());
        problem.imply_any(cv, &members);
    }
    // per-root reachability: every statement's class must be realized
    for &root in &roots {
        problem.require(class_var[&root]);
    }

    let mut stats = IlpStats {
        n_vars: problem.n_vars() as usize,
        n_clauses: problem.clauses.len(),
        rounds: 0,
        optimal: false,
        warm_start,
    };

    // ---- solve, lazily excluding cyclic justifications -------------------
    // `solver.time_limit` is the *total* extraction budget: rounds share
    // the deadline, so lazy re-solves cannot multiply it.
    const MAX_ROUNDS: usize = 64;
    let deadline = std::time::Instant::now() + solver.time_limit;
    for _ in 0..MAX_ROUNDS {
        stats.rounds += 1;
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return greedy_fallback(egraph, &roots, stats);
        }
        let round_solver = Solver {
            time_limit: remaining,
            upper_bound: match (solver.upper_bound, warm_start) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            ..solver.clone()
        };
        let result = round_solver.solve(&problem);
        let (solution, optimal) = match &result {
            SolveResult::Optimal(s) => (s, true),
            SolveResult::Unknown(Some(s)) => (s, false),
            _ => return greedy_fallback(egraph, &roots, stats),
        };
        stats.optimal = optimal;

        // chosen op per class: the cheapest selected one
        let chosen = |cid: Id| -> Option<usize> {
            let class = egraph.class(cid);
            let mut best: Option<(f64, usize)> = None;
            for (ni, _node) in class.nodes.iter().enumerate() {
                if let Some(&v) = op_var.get(&(cid, ni)) {
                    if solution.assignment[v as usize] {
                        let c = problem.objective[v as usize];
                        if best.is_none_or(|(bc, _)| c < bc) {
                            best = Some((c, ni));
                        }
                    }
                }
            }
            best.map(|(_, ni)| ni)
        };

        match build_acyclic(egraph, &roots, &chosen) {
            Ok((expr, ids)) => {
                let cost = solution.cost;
                return Some((cost, expr, ids, stats));
            }
            Err(cycle) => {
                // ban this particular cyclic justification and re-solve
                let vars: Vec<u32> = cycle.iter().map(|&(cid, ni)| op_var[&(cid, ni)]).collect();
                problem.forbid_all(&vars);
                stats.n_clauses += 1;
            }
        }
    }
    greedy_fallback(egraph, &roots, stats)
}

fn greedy_fallback(
    egraph: &EGraph<Math, MetaAnalysis>,
    roots: &[Id],
    mut stats: IlpStats,
) -> Option<(f64, MathExpr, Vec<Id>, IlpStats)> {
    stats.optimal = false;
    let (cost, expr, ids) = extract_greedy_multi(egraph, roots)?;
    Some((cost, expr, ids, stats))
}

/// `(class, node index)` ops lying on a cyclic justification.
type CycleOps = Vec<(Id, usize)>;

/// Walk the chosen ops from every root into one shared expression (one
/// memo across roots, so shared selections materialize once); `Err`
/// carries the ops on a cycle.
fn build_acyclic(
    egraph: &EGraph<Math, MetaAnalysis>,
    roots: &[Id],
    chosen: &dyn Fn(Id) -> Option<usize>,
) -> Result<(MathExpr, Vec<Id>), CycleOps> {
    enum State {
        OnStack,
        Done(Id),
    }
    fn go(
        egraph: &EGraph<Math, MetaAnalysis>,
        cid: Id,
        chosen: &dyn Fn(Id) -> Option<usize>,
        expr: &mut MathExpr,
        state: &mut FxHashMap<Id, State>,
        stack: &mut Vec<(Id, usize)>,
    ) -> Result<Id, Vec<(Id, usize)>> {
        let cid = egraph.find(cid);
        match state.get(&cid) {
            Some(State::Done(id)) => return Ok(*id),
            Some(State::OnStack) => {
                // collect the cycle: everything on the stack from the
                // first occurrence of cid
                let pos = stack
                    .iter()
                    .position(|&(c, _)| c == cid)
                    .expect("cid is on stack");
                return Err(stack[pos..].to_vec());
            }
            None => {}
        }
        let ni = chosen(cid).ok_or_else(|| stack.clone())?;
        state.insert(cid, State::OnStack);
        stack.push((cid, ni));
        let node = egraph.class(cid).nodes[ni].clone();
        let mut child_ids = Vec::with_capacity(node.children().len());
        for &ch in node.children() {
            child_ids.push(go(egraph, ch, chosen, expr, state, stack)?);
        }
        stack.pop();
        let mut k = 0;
        let node = node.map_children(|_| {
            let id = child_ids[k];
            k += 1;
            id
        });
        let id = expr.add(node);
        state.insert(cid, State::Done(id));
        Ok(id)
    }

    let mut expr = MathExpr::default();
    let mut state = FxHashMap::default();
    let mut stack = Vec::new();
    let mut ids = Vec::with_capacity(roots.len());
    for &root in roots {
        ids.push(go(egraph, root, chosen, &mut expr, &mut state, &mut stack)?);
    }
    Ok((expr, ids))
}

/// DAG cost of a concrete plan: each distinct node paid once.
/// (The metric the ILP optimizes; useful to compare with greedy.)
pub fn dag_cost(egraph: &EGraph<Math, MetaAnalysis>, expr: &MathExpr) -> f64 {
    // Re-associate each plan node with its class to price it.
    let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
    let mut total = 0.0;
    let mut seen: std::collections::HashSet<(Id, std::mem::Discriminant<Math>)> =
        std::collections::HashSet::new();
    for node in expr.nodes() {
        let canon = node.clone().map_children(|c| ids[c.index()]);
        let cid = egraph
            .lookup(canon.clone())
            .expect("extracted node must exist in the e-graph");
        if seen.insert((cid, std::mem::discriminant(node))) {
            total += node_cost(&egraph.class(cid).data, &canon);
        }
        ids.push(cid);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Context, MathGraph, MetaAnalysis, VarMeta};
    use crate::lang::parse_math;
    use crate::rules::default_rules;
    use spores_egraph::Scheduler;

    fn ctx() -> Context {
        Context::new()
            .with_var("X", VarMeta::sparse(1000, 500, 0.001))
            .with_var("U", VarMeta::dense(1000, 1))
            .with_var("V", VarMeta::dense(500, 1))
            .with_index("i", 1000)
            .with_index("j", 500)
    }

    fn saturated(src: &str) -> (spores_egraph::Id, MathGraph) {
        let expr = parse_math(src).unwrap();
        let runner = spores_egraph::Runner::new(MetaAnalysis::new(ctx()))
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_node_limit(20_000)
            .with_iter_limit(12)
            .run(&default_rules());
        (runner.roots[0], runner.egraph)
    }

    #[test]
    fn ilp_matches_greedy_on_tree_plans() {
        // no sharing: both extractors must find the same optimum
        let (root, eg) = saturated("(sum j (* (b i j X) (b j _ V)))");
        let (gc, ge) = extract_greedy(&eg, root).unwrap();
        let (ic, ie, stats) = extract_ilp(&eg, root, &Solver::default()).unwrap();
        assert!(stats.optimal);
        assert!(
            (gc - ic).abs() < 1e-6,
            "greedy {gc} ({ge}) vs ilp {ic} ({ie})"
        );
    }

    #[test]
    fn ilp_never_worse_than_greedy() {
        for src in [
            "(* (b i j X) (* (b i _ U) (b j _ V)))",
            "(sum i (sum j (* (b i j X) (* (b i _ U) (b j _ V)))))",
            "(+ (* (b i j X) (b i j X)) (* (b i j X) (b i j X)))",
        ] {
            let (root, eg) = saturated(src);
            let (gc, _) = extract_greedy(&eg, root).unwrap();
            let (ic, expr, _) = extract_ilp(&eg, root, &Solver::default()).unwrap();
            // ILP optimizes DAG cost; greedy tree cost is an upper bound
            assert!(ic <= gc + 1e-6, "{src}: ilp {ic} > greedy {gc}");
            // the extracted plan must still be in the root class
            assert_eq!(
                eg.lookup_expr(&expr).map(|i| eg.find(i)),
                Some(eg.find(root))
            );
        }
    }

    #[test]
    fn warm_start_bound_is_recorded_and_respected() {
        let (root, eg) = saturated("(sum i (sum j (* (b i j X) (* (b i _ U) (b j _ V)))))");
        let (ic, _, stats) = extract_ilp(&eg, root, &Solver::default()).unwrap();
        let ub = stats.warm_start.expect("greedy warm start recorded");
        assert!(stats.optimal);
        // the ILP optimum can never exceed the greedy plan's DAG cost
        assert!(ic <= ub + 1e-6, "ilp {ic} > warm-start bound {ub}");
    }

    #[test]
    fn ilp_handles_cycles_from_saturation() {
        // saturation introduces A = A·1-style cycles via constant folding
        let (root, eg) = saturated("(+ (b i j X) 0)");
        let (_, expr, stats) = extract_ilp(&eg, root, &Solver::default()).unwrap();
        assert!(stats.rounds >= 1);
        // must extract the plain leaf, not the cyclic justification
        assert_eq!(expr.to_string(), "(b i j X)");
    }

    #[test]
    fn ilp_exploits_sharing() {
        // (U⊗V) appears twice; greedy pays it twice, ILP once. Build the
        // e-graph without rules so the sharing structure is fixed.
        let mut eg = MathGraph::new(MetaAnalysis::new(ctx()));
        let outer = "(* (b i _ U) (b j _ V))";
        let src = format!("(+ (* (b i j X) {outer}) {outer})");
        let root = eg.add_expr(&parse_math(&src).unwrap());
        eg.rebuild();
        let (gc, _) = extract_greedy(&eg, root).unwrap();
        let (ic, _, stats) = extract_ilp(&eg, root, &Solver::default()).unwrap();
        assert!(stats.optimal);
        let outer_nnz = 1000.0 * 500.0;
        assert!(
            gc - ic >= outer_nnz - 1.0,
            "sharing must save ~one dense outer product: greedy {gc}, ilp {ic}"
        );
    }

    #[test]
    fn multi_root_greedy_counts_shared_subplans_once() {
        // both roots contain the dense outer product; the multi-root DAG
        // cost must pay it once, i.e. be well below the per-root sum
        let outer = "(* (b i _ U) (b j _ V))";
        let mut eg = MathGraph::new(MetaAnalysis::new(ctx()));
        let r1 = eg.add_expr(&parse_math(&format!("(* (b i j X) {outer})")).unwrap());
        let r2 = eg.add_expr(&parse_math(&format!("(+ (b i j X) {outer})")).unwrap());
        eg.rebuild();
        let (c1, _) = extract_greedy(&eg, r1).unwrap();
        let (c2, _) = extract_greedy(&eg, r2).unwrap();
        let (multi, expr, ids) = extract_greedy_multi(&eg, &[r1, r2]).unwrap();
        assert_eq!(ids.len(), 2);
        let outer_nnz = 1000.0 * 500.0;
        assert!(
            c1 + c2 - multi >= outer_nnz - 1.0,
            "shared outer product must be paid once: {c1} + {c2} vs {multi} ({expr})"
        );
    }

    #[test]
    fn multi_root_ilp_never_worse_than_multi_root_greedy() {
        let (ra, eg1) = saturated("(sum j (* (b i j X) (b j _ V)))");
        // a second root inside the same saturated graph
        let mut eg = eg1;
        let rb = eg.add_expr(&parse_math("(* (b i j X) (b i _ U))").unwrap());
        eg.rebuild();
        let (gc, _, _) = extract_greedy_multi(&eg, &[ra, rb]).unwrap();
        let (ic, expr, ids, stats) = extract_ilp_multi(&eg, &[ra, rb], &Solver::default()).unwrap();
        assert!(stats.optimal);
        assert_eq!(ids.len(), 2);
        assert!(ic <= gc + 1e-6, "ilp {ic} > greedy {gc} ({expr})");
        // warm start bound from the greedy multi-root plan is recorded
        let ub = stats.warm_start.expect("warm start recorded");
        assert!(ic <= ub + 1e-6);
    }

    #[test]
    fn extracts_factored_form_for_sparse_input() {
        // Σ_ij (X · (U⊗V)): joining X first keeps everything sparse
        let (root, eg) = saturated("(sum i (sum j (* (b i j X) (* (b i _ U) (b j _ V)))))");
        let (cost, expr, stats) = extract_ilp(&eg, root, &Solver::default()).unwrap();
        assert!(stats.optimal);
        // the dense outer product has nnz 500_000; a sparse plan stays ≈ 500
        assert!(cost < 5000.0, "cost {cost}, plan {expr}");
    }
}
