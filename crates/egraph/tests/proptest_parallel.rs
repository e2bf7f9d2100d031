//! Differential property tests for the parallel search phase.
//!
//! The runner's determinism contract: thread count and the e-matching
//! backend are *invisible* — `search_rules_parallel` must return
//! byte-identical results at 1, 2, and 8 threads in both
//! [`MatchingMode`]s, exhaustive or capped (matches in the same order,
//! same visited-candidate counts, same cut-off candidates), and a full
//! `Runner::run` must produce the same union sequence, the same
//! per-iteration `RuleIterStats`, the same stop reason, the same pending
//! dirty set, and the same extracted term at every (thread count, mode)
//! combination.
//!
//! `Pattern::naive_search` stays the ground-truth oracle for *what* the
//! search finds; the serial (1-thread, structural) path is the oracle
//! for *order*; an exhaustive search is the oracle for *where* a capped
//! search cuts.

use proptest::prelude::*;
use spores_egraph::{
    search_rules_parallel, AstSize, EGraph, Extractor, FxHashMap, FxHashSet, Id, Language,
    MatchingMode, ParallelConfig, RecExpr, Rewrite, RuleSearch, Runner, Scheduler, SearchBound,
    SearchMatches, SearchPlan, Subst, Var,
};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Tiny arithmetic language (mirrors `proptest_delta.rs`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Node {
    Add([Id; 2]),
    Neg(Id),
    Leaf(u8),
}

impl Language for Node {
    fn children(&self) -> &[Id] {
        match self {
            Node::Add(c) => c,
            Node::Neg(c) => std::slice::from_ref(c),
            Node::Leaf(_) => &[],
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            Node::Add(c) => c,
            Node::Neg(c) => std::slice::from_mut(c),
            Node::Leaf(_) => &mut [],
        }
    }

    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (Node::Add(_), Node::Add(_)) => true,
            (Node::Neg(_), Node::Neg(_)) => true,
            (Node::Leaf(a), Node::Leaf(b)) => a == b,
            _ => false,
        }
    }

    fn op_display(&self) -> String {
        match self {
            Node::Add(_) => "+".into(),
            Node::Neg(_) => "neg".into(),
            Node::Leaf(v) => v.to_string(),
        }
    }

    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, String> {
        match (op, children.len()) {
            ("+", 2) => Ok(Node::Add([children[0], children[1]])),
            ("neg", 1) => Ok(Node::Neg(children[0])),
            (s, 0) => s.parse::<u8>().map(Node::Leaf).map_err(|e| e.to_string()),
            _ => Err("bad arity".into()),
        }
    }
}

/// Construction script: grow an expression bottom-up.
#[derive(Clone, Debug)]
enum Step {
    Leaf(u8),
    Add(usize, usize),
    Neg(usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..5).prop_map(Step::Leaf),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
            any::<usize>().prop_map(Step::Neg),
        ],
        1..30,
    )
}

/// One mutation round between searches (see `proptest_delta.rs`).
#[derive(Clone, Debug)]
struct Round {
    rule_mask: u8,
    apply_cap: usize,
    unions: Vec<(usize, usize)>,
}

fn rounds() -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec(
        (
            any::<u8>(),
            1usize..4,
            prop::collection::vec((any::<usize>(), any::<usize>()), 0..3),
        )
            .prop_map(|(rule_mask, apply_cap, unions)| Round {
                rule_mask,
                apply_cap,
                unions,
            }),
        1..5,
    )
}

fn rules() -> Vec<Rewrite<Node, ()>> {
    vec![
        Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
        Rewrite::new("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
        Rewrite::new("neg-neg", "(neg (neg ?a))", "?a").unwrap(),
        Rewrite::new("add-self-neg", "(+ ?a ?a)", "(neg (neg (+ ?a ?a)))").unwrap(),
    ]
}

fn build(script: &[Step]) -> (EGraph<Node, ()>, Vec<Id>) {
    let mut eg: EGraph<Node, ()> = EGraph::default();
    let mut ids: Vec<Id> = Vec::new();
    for step in script {
        let id = match *step {
            Step::Leaf(v) => eg.add(Node::Leaf(v)),
            Step::Add(a, b) if !ids.is_empty() => {
                eg.add(Node::Add([ids[a % ids.len()], ids[b % ids.len()]]))
            }
            Step::Neg(a) if !ids.is_empty() => eg.add(Node::Neg(ids[a % ids.len()])),
            _ => eg.add(Node::Leaf(0)),
        };
        ids.push(id);
    }
    eg.rebuild();
    eg.check_invariants();
    (eg, ids)
}

/// Build the same expression as a `RecExpr` for `Runner::with_expr`.
fn build_expr(script: &[Step]) -> RecExpr<Node> {
    let mut expr = RecExpr::default();
    let mut ids: Vec<Id> = Vec::new();
    for step in script {
        let id = match *step {
            Step::Leaf(v) => expr.add(Node::Leaf(v)),
            Step::Add(a, b) if !ids.is_empty() => {
                expr.add(Node::Add([ids[a % ids.len()], ids[b % ids.len()]]))
            }
            Step::Neg(a) if !ids.is_empty() => expr.add(Node::Neg(ids[a % ids.len()])),
            _ => expr.add(Node::Leaf(0)),
        };
        ids.push(id);
    }
    expr
}

/// Exact comparable form: matches *in order*, substs *in order*.
fn exact(matches: &[SearchMatches]) -> Vec<(Id, Vec<Subst>)> {
    matches
        .iter()
        .map(|m| (m.eclass, m.substs.clone()))
        .collect()
}

/// Order-insensitive comparable form (for the naive oracle).
fn match_set(matches: &[SearchMatches]) -> HashSet<(Id, Vec<(Var, Id)>)> {
    let mut out = HashSet::new();
    for m in matches {
        for s in &m.substs {
            let mut subst: Vec<(Var, Id)> = s.iter().collect();
            subst.sort();
            out.insert((m.eclass, subst));
        }
    }
    out
}

/// A visit order that is neither ascending nor the same for every
/// rule: rotate by the rule index, reverse odd rules.
fn visit_order(mut ids: Vec<Id>, rule_ix: usize) -> Vec<Id> {
    if !ids.is_empty() {
        let k = rule_ix % ids.len();
        ids.rotate_left(k);
    }
    if rule_ix % 2 == 1 {
        ids.reverse();
    }
    ids
}

/// Exact comparable form of one search: per rule, the match stream *in
/// order*, the visited count, and the cut-off candidates *in order*.
type Comparable = Vec<Option<(Vec<(Id, Vec<Subst>)>, usize, Vec<Id>)>>;

fn comparable(rows: &[Option<RuleSearch>]) -> Comparable {
    rows.iter()
        .map(|row| {
            row.as_ref()
                .map(|r| (exact(&r.matches), r.visited, r.unvisited.clone()))
        })
        .collect()
}

/// What a capped search with single-candidate chunks must return,
/// derived from the exhaustive result: walking the candidates in plan
/// order, each is visited while its anchor region (lowest mask bit;
/// none is region 64) holds fewer than `cap` matches, and cut off after.
fn cut_oracle(
    plan: &[SearchPlan],
    exhaustive: &[Option<RuleSearch>],
    masks: Option<&FxHashMap<Id, u64>>,
    cap: usize,
) -> Vec<Option<RuleSearch>> {
    plan.iter()
        .zip(exhaustive)
        .map(|(rule_plan, full)| {
            let (ids, full) = (rule_plan.ids()?, full.as_ref().expect("unmuted"));
            let mut found: HashMap<u32, usize> = HashMap::new();
            let mut out = RuleSearch::default();
            for &id in ids {
                let region = masks.map_or(0, |m| m.get(&id).copied().unwrap_or(0).trailing_zeros());
                let found = found.entry(region).or_default();
                if *found >= cap {
                    out.unvisited.push(id);
                    continue;
                }
                out.visited += 1;
                if let Some(m) = full.matches.iter().find(|m| m.eclass == id) {
                    *found += m.substs.len();
                    out.matches.push(m.clone());
                }
            }
            out.matches.sort_unstable_by_key(|m| m.eclass);
            Some(out)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Phase-1 determinism at the search level: for arbitrary graphs,
    // dirty sets, muted-rule plans, visit orders, and (arbitrary, even
    // nonsensical) region masks, `search_rules_parallel` at 2 and 8
    // threads, exhaustive or capped with single-candidate chunks,
    // returns *exactly* the serial result — same match order, same
    // substs, same visited counts, same cut-off candidates — the
    // full-plan rows agree with `naive_search` as a set, and a capped
    // search cuts each region lane exactly where the exhaustive match
    // counts say it first holds `cap` matches.
    #[test]
    fn parallel_search_is_bit_identical_to_serial(
        script in steps(),
        rounds in rounds(),
        mask_bits in prop::collection::vec(any::<u64>(), 0..40),
        cap in 1usize..6,
    ) {
        let (mut eg, ids) = build(&script);
        let rules = rules();
        eg.take_dirty();

        for (round_ix, round) in rounds.iter().enumerate() {
            // --- mutate: capped rule applications + random unions ----
            let selected: Vec<(usize, Vec<SearchMatches>)> = rules
                .iter()
                .enumerate()
                .filter(|(ri, _)| round.rule_mask & (1 << ri) != 0)
                .map(|(ri, rule)| (ri, rule.search(&eg)))
                .collect();
            for (ri, matches) in selected {
                let rule = &rules[ri];
                let mut applied = 0;
                'outer: for m in &matches {
                    for s in &m.substs {
                        if applied >= round.apply_cap {
                            break 'outer;
                        }
                        rule.apply_match(&mut eg, m.eclass, s);
                        applied += 1;
                    }
                }
            }
            for &(a, b) in &round.unions {
                eg.union(ids[a % ids.len()], ids[b % ids.len()]);
            }
            eg.rebuild();
            eg.check_invariants();

            // --- plan: alternate full sweeps, delta sweeps, and muted
            // rules, exactly the shapes the runner produces -----------
            let mut dirty_sorted: Vec<Id> =
                eg.dirty_classes().iter().copied().collect();
            dirty_sorted.sort_unstable();
            let none = FxHashSet::default();
            let plan: Vec<SearchPlan> = rules
                .iter()
                .enumerate()
                .map(|(ri, rule)| match (round_ix + ri) % 3 {
                    0 => SearchPlan::Muted,
                    1 => SearchPlan::Full(visit_order(rule.except_candidate_ids(&eg, &none), ri)),
                    _ => SearchPlan::Delta(visit_order(
                        rule.delta_candidate_ids(&eg, &dirty_sorted),
                        ri,
                    )),
                })
                .collect();

            // arbitrary masks: sharding may group by them, results may not
            // depend on them
            let masks: FxHashMap<Id, u64> = eg
                .classes()
                .map(|c| c.id)
                .enumerate()
                .filter_map(|(i, id)| mask_bits.get(i).map(|&m| (id, m)))
                .collect();

            let search = |masks, threads, mode, bound| {
                search_rules_parallel(
                    &eg, &rules, &plan, masks, ParallelConfig { threads }, mode, bound,
                )
            };
            let serial = search(None, 1, MatchingMode::Structural, SearchBound::Exhaustive);
            for (rule, row) in rules.iter().zip(&serial) {
                if let Some(row) = row {
                    // full-plan rows must agree with the naive oracle
                    let naive = match_set(&rule.searcher.naive_search(&eg));
                    let got = match_set(&row.matches);
                    prop_assert!(
                        got.is_subset(&naive),
                        "{}: parallel search found a non-match", rule.name
                    );
                    prop_assert!(row.unvisited.is_empty(), "exhaustive search cut candidates");
                }
            }
            let capped = SearchBound::Capped { cap, chunk: 1 };
            for masks in [None, Some(&masks)] {
                // The cut oracle: each region cut where its exhaustive
                // match count first reaches `cap`; the exhaustive search
                // itself is the same with or without masks.
                let want_capped = cut_oracle(&plan, &serial, masks, cap);
                for bound in [SearchBound::Exhaustive, capped] {
                    let base = search(masks, 1, MatchingMode::Structural, bound);
                    let want = match bound {
                        SearchBound::Exhaustive => &serial,
                        SearchBound::Capped { .. } => &want_capped,
                    };
                    prop_assert_eq!(
                        comparable(&base), comparable(want),
                        "serial {:?} search diverged from its oracle (masks={})",
                        bound, masks.is_some()
                    );
                    // Every (thread count, backend) combination —
                    // including the serial relational path, which runs
                    // the lazy-guard plans single-candidate chunks take
                    // — must reproduce the serial structural result.
                    for mode in [MatchingMode::Structural, MatchingMode::Relational] {
                        for threads in [1usize, 2, 8] {
                            let got = search(masks, threads, mode, bound);
                            prop_assert_eq!(
                                comparable(&got), comparable(&base),
                                "{:?} search diverged at {} threads ({:?}, masks={})",
                                bound, threads, mode, masks.is_some()
                            );
                        }
                    }
                }
            }
            eg.take_dirty();
        }
    }

    // End-to-end determinism: a full saturation run — sampling
    // scheduler, capped search, backoff, delta search, rebuilds — is
    // replayed at 2 and 8 threads and in relational matching mode at
    // every thread count, and must reproduce the 1-thread structural
    // run exactly: stop reason, per-iteration counts and per-rule
    // `RuleIterStats` (cut or not included), final graph size, the
    // classes left dirty for a next iteration (the re-marked drops and
    // cut-off candidates), and extracted term.
    #[test]
    fn runner_is_deterministic_across_thread_counts(
        script in steps(),
        match_limit in 1usize..20,
    ) {
        let expr = build_expr(&script);
        let rules = rules();
        let run_at = |threads: usize, mode: MatchingMode| {
            Runner::new(())
                .with_expr(&expr)
                .with_scheduler(Scheduler::Sampling {
                    match_limit,
                    seed: 0xC0FFEE,
                })
                .with_iter_limit(6)
                .with_node_limit(1_500)
                .with_time_limit(Duration::from_secs(3600))
                .with_parallel(ParallelConfig { threads })
                .with_matching(mode)
                .run(&rules)
        };

        let baseline = run_at(1, MatchingMode::Structural);
        let base_term = Extractor::new(&baseline.egraph, AstSize)
            .find_best(baseline.roots[0])
            .expect("root extractable");

        let lanes = [
            (2usize, MatchingMode::Structural),
            (8, MatchingMode::Structural),
            (1, MatchingMode::Relational),
            (2, MatchingMode::Relational),
            (8, MatchingMode::Relational),
        ];
        for (threads, mode) in lanes {
            let got = run_at(threads, mode);
            prop_assert_eq!(
                &got.stop_reason, &baseline.stop_reason,
                "stop reason diverged at {} threads ({:?})", threads, mode
            );
            prop_assert_eq!(
                got.egraph.total_number_of_nodes(), baseline.egraph.total_number_of_nodes(),
                "e-node count diverged at {} threads ({:?})", threads, mode
            );
            prop_assert_eq!(
                got.egraph.number_of_classes(), baseline.egraph.number_of_classes(),
                "e-class count diverged at {} threads ({:?})", threads, mode
            );
            prop_assert_eq!(got.iterations.len(), baseline.iterations.len());
            for (it, (g, b)) in got.iterations.iter().zip(&baseline.iterations).enumerate() {
                prop_assert_eq!(g.matches_found, b.matches_found, "iter {}", it);
                prop_assert_eq!(g.matches_applied, b.matches_applied, "iter {}", it);
                prop_assert_eq!(g.unions, b.unions, "iter {}", it);
                prop_assert_eq!(g.egraph_nodes, b.egraph_nodes, "iter {}", it);
                prop_assert_eq!(g.egraph_classes, b.egraph_classes, "iter {}", it);
                prop_assert_eq!(g.rules.len(), b.rules.len(), "iter {}", it);
                for (gr, br) in g.rules.iter().zip(&b.rules) {
                    prop_assert_eq!(&gr.rule, &br.rule);
                    prop_assert_eq!(
                        gr.candidates, br.candidates,
                        "iter {} rule {}: candidate count diverged ({:?})", it, gr.rule, mode
                    );
                    prop_assert_eq!(gr.matches, br.matches, "iter {} rule {}", it, gr.rule);
                    prop_assert_eq!(gr.applied, br.applied, "iter {} rule {}", it, gr.rule);
                    prop_assert_eq!(gr.unions, br.unions, "iter {} rule {}", it, gr.rule);
                    prop_assert_eq!(gr.muted, br.muted, "iter {} rule {}", it, gr.rule);
                    prop_assert_eq!(gr.delta, br.delta, "iter {} rule {}", it, gr.rule);
                    prop_assert_eq!(gr.truncated, br.truncated, "iter {} rule {}", it, gr.rule);
                }
            }
            let pending = |r: &Runner<Node, ()>| {
                let mut d: Vec<Id> = r.egraph.dirty_classes().iter().copied().collect();
                d.sort_unstable();
                d
            };
            prop_assert_eq!(
                pending(&got), pending(&baseline),
                "pending dirty set diverged at {} threads ({:?})", threads, mode
            );
            let term = Extractor::new(&got.egraph, AstSize)
                .find_best(got.roots[0])
                .expect("root extractable");
            prop_assert_eq!(
                &term, &base_term,
                "extracted term diverged at {} threads ({:?})", threads, mode
            );
        }
    }
}
