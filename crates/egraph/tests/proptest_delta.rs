//! Differential property test for dirty-class delta e-matching.
//!
//! `naive_search` stays the oracle: over a sequence of "iterations"
//! (random rule applications, random unions, rebuilds), the delta search
//! restricted to the e-graph's dirty set must find exactly the matches
//! full indexed search finds, minus matches already reported before the
//! round's mutations (modulo id canonicalization). Concretely, after
//! every round:
//!
//! * `search_delta` ⊆ `search` ⊆ `naive_search` (all equal per class), and
//! * every full-search match missing from the delta results is *old*:
//!   canonicalizing the previous round's matches through the union-find
//!   yields it.
//!
//! Together these say delta search loses nothing: anything new since the
//! last iteration has a dirty root.

use proptest::prelude::*;
use spores_egraph::{EGraph, Id, Language, MatchingMode, Pattern, Rewrite, Var};
use std::collections::HashSet;

/// Tiny arithmetic language (mirrors `proptest_invariants.rs`).
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
    /// Bitmask over `rules()` — which rules fire this round.
    rule_mask: u8,
    /// Per-rule cap on how many (class, subst) instances get applied.
    apply_cap: usize,
    /// Random union endpoints (indices into the built id list).
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

fn patterns() -> Vec<Pattern<Node>> {
    [
        "?a",
        "(+ ?a ?b)",
        "(+ ?a ?a)",
        "(neg ?a)",
        "(neg (neg ?a))",
        "(+ (neg ?a) ?b)",
        "(+ ?a (+ ?b ?c))",
        "(+ 1 ?x)",
        "2",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

/// A match set in comparable form: (class, sorted substitution) pairs.
type MatchSet = HashSet<(Id, Vec<(Var, Id)>)>;

fn match_set(matches: &[spores_egraph::SearchMatches]) -> MatchSet {
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

/// Canonicalize a previously-recorded match set through the union-find.
fn canonicalize(set: &MatchSet, eg: &EGraph<Node, ()>) -> MatchSet {
    set.iter()
        .map(|(class, subst)| {
            let mut subst: Vec<(Var, Id)> = subst.iter().map(|&(v, id)| (v, eg.find(id))).collect();
            subst.sort();
            (eg.find(*class), subst)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_search_finds_exactly_the_new_matches(
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

        // Round 0 baseline: the full sweep (the runner's "dirty set
        // seeded with all classes"), after which the dirty set is taken.
        let mut previous: Vec<MatchSet> = patterns
            .iter()
            .map(|p| match_set(&p.search(&eg)))
            .collect();
        eg.take_dirty();

        for round in &rounds {
            // --- mutate: rule applications + random unions ----------
            // (search everything first, apply after: matching needs a
            // clean graph, like the runner's search/apply phases)
            let selected: Vec<(usize, Vec<spores_egraph::SearchMatches>)> = rules
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

            // --- differential: delta vs full vs naive ---------------
            let mut dirty: Vec<Id> = eg.dirty_classes().iter().copied().collect();
            dirty.sort_unstable();
            for (pi, p) in patterns.iter().enumerate() {
                let full = match_set(&p.search(&eg));
                let naive = match_set(&p.naive_search(&eg));
                prop_assert_eq!(&full, &naive, "indexed != naive for {}", p);

                let (delta_matches, visited) = p.search_ids(
                    &eg,
                    &p.delta_candidate_ids(&eg, &dirty),
                    MatchingMode::Structural,
                );
                let delta = match_set(&delta_matches);
                prop_assert!(visited <= dirty.len().max(eg.number_of_classes()));

                // delta results are genuine matches
                for m in &delta {
                    prop_assert!(full.contains(m), "delta found non-match for {}", p);
                }
                // anything delta skipped was already known before the round
                let old = canonicalize(&previous[pi], &eg);
                for m in &full {
                    prop_assert!(
                        delta.contains(m) || old.contains(m),
                        "pattern {}: new match {:?} missed by delta search",
                        p,
                        m
                    );
                }
                previous[pi] = full;
            }
            eg.take_dirty();
        }
    }
}
