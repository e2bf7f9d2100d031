//! Differential property test for the relational (generic-join)
//! e-matching backend.
//!
//! Three backends, two oracles. `naive_search` is the interpreted
//! ground truth for *what* a pattern matches; the structural
//! (compiled Bind/Compare) machine is the oracle for *order* and
//! *funnel accounting*. The relational generic-join path must agree
//! with both exactly — same matches, same substitutions, same order,
//! same visited-candidate counts — over random expressions, random
//! rule applications, random unions, and interleaved rebuilds
//! (mirroring `proptest_delta.rs`). The delta and frozen-region
//! candidate funnels are swept through both compiled backends too:
//! restricting the candidate list must commute with the backend
//! choice, bit for bit.

use proptest::prelude::*;
use spores_egraph::{
    EGraph, FxHashSet, Id, Language, MatchingMode, Pattern, Rewrite, SearchMatches, Subst, Var,
};
use std::collections::HashSet;

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

/// One mutation round between searches: a random subset of rules applied
/// to a random slice of their matches, plus random direct unions.
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
        1..6,
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

/// Pattern pool: the delta-test pool plus deeper shapes that exercise
/// multi-atom join plans, repeated variables across atoms, and ground
/// subterms (where the relational guard columns do real filtering).
fn patterns() -> Vec<Pattern<Node>> {
    [
        "?a",
        "(+ ?a ?b)",
        "(+ ?a ?a)",
        "(neg ?a)",
        "(neg (neg ?a))",
        "(+ (neg ?a) ?b)",
        "(+ ?a (+ ?b ?c))",
        "(+ (+ ?a ?b) (+ ?c ?d))",
        "(+ (+ ?a ?b) (+ ?b ?a))",
        "(neg (+ ?a (neg ?a)))",
        "(+ 1 ?x)",
        "(+ (+ 0 ?a) ?b)",
        "2",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

/// Exact comparable form: per-class substitution lists, order preserved.
fn exact(matches: &[SearchMatches]) -> Vec<(Id, Vec<Subst>)> {
    matches
        .iter()
        .map(|m| (m.eclass, m.substs.clone()))
        .collect()
}

/// Order-free comparable form for the naive oracle.
type MatchSet = HashSet<(Id, Vec<(Var, Id)>)>;

fn match_set(matches: &[SearchMatches]) -> MatchSet {
    let mut out = MatchSet::default();
    for m in matches {
        for s in &m.substs {
            let mut subst: Vec<(Var, Id)> = s.iter().collect();
            subst.sort();
            out.insert((m.eclass, subst));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relational_search_is_bit_identical_to_structural_and_naive(
        script in steps(),
        rounds in rounds(),
    ) {
        let mut eg: EGraph<Node, ()> = EGraph::default();
        let mut ids: Vec<Id> = Vec::new();
        for step in &script {
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

        let patterns = patterns();
        let rules = rules();

        // Differential sweep over the initial graph and after every
        // mutation round. `compare` is hoisted so round 0 (no mutations
        // yet) goes through the identical checks.
        let compare = |eg: &EGraph<Node, ()>, dirty_sorted: &[Id]| -> Result<(), TestCaseError> {
            for p in &patterns {
                // Full sweep: relational vs structural must agree on
                // match stream *and* funnel accounting; naive pins down
                // the semantics as a set.
                let all_ids = p.except_candidate_ids(eg, &FxHashSet::default());
                let (structural, vis_s) = p.search_ids(eg, &all_ids, MatchingMode::Structural);
                let (relational, vis_r) = p.search_ids(eg, &all_ids, MatchingMode::Relational);
                prop_assert_eq!(
                    vis_s, vis_r,
                    "{}: visited-candidate count diverged on full sweep", p
                );
                prop_assert_eq!(
                    exact(&structural), exact(&relational),
                    "{}: relational full sweep != structural", p
                );
                let naive = match_set(&p.naive_search(eg));
                prop_assert_eq!(
                    match_set(&structural), naive,
                    "{}: compiled backends != naive oracle", p
                );

                // Funnel composition: an explicit candidate list (the
                // delta funnel, and a frozen-region complement) must
                // commute with the backend choice.
                let delta_ids = p.delta_candidate_ids(eg, dirty_sorted);
                let frozen: FxHashSet<Id> =
                    dirty_sorted.iter().step_by(2).copied().collect();
                let except_ids = p.except_candidate_ids(eg, &frozen);
                for lane in [&delta_ids, &except_ids] {
                    let (sm, sv) = p.search_ids(eg, lane, MatchingMode::Structural);
                    let (rm, rv) = p.search_ids(eg, lane, MatchingMode::Relational);
                    prop_assert_eq!(
                        sv, rv,
                        "{}: visited count diverged on candidate lane", p
                    );
                    prop_assert_eq!(
                        exact(&sm), exact(&rm),
                        "{}: relational candidate lane != structural", p
                    );
                }
            }
            Ok(())
        };

        let all_sorted = |eg: &EGraph<Node, ()>| -> Vec<Id> {
            let mut v: Vec<Id> = eg.classes().map(|c| c.id).collect();
            v.sort_unstable();
            v
        };

        compare(&eg, &all_sorted(&eg))?;
        eg.take_dirty();

        for round in &rounds {
            // --- mutate: rule applications + random unions ----------
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
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                eg.union(a, b);
            }
            eg.rebuild();
            eg.check_invariants();

            let mut dirty_sorted: Vec<Id> =
                eg.dirty_classes().iter().copied().collect();
            dirty_sorted.sort_unstable();
            compare(&eg, &dirty_sorted)?;
            eg.take_dirty();
        }
    }
}
