//! Property tests for the e-graph: after any sequence of inserts and
//! unions followed by a rebuild, the congruence-closure invariants hold
//! and equality is correctly propagated.

use proptest::prelude::*;
use spores_egraph::{EGraph, FxHashSet, Id, Language, MatchingMode, Pattern, RecExpr};

/// Tiny arithmetic language for property testing.
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

/// An construction script: grow an expression bottom-up, then union
/// random pairs.
#[derive(Clone, Debug)]
enum Step {
    Leaf(u8),
    Add(usize, usize),
    Neg(usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..6).prop_map(Step::Leaf),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
            any::<usize>().prop_map(Step::Neg),
        ],
        1..40,
    )
}

/// Build an e-graph from a construction script + unions, rebuilt clean.
fn build_graph(script: &[Step], unions: &[(usize, usize)]) -> EGraph<Node, ()> {
    let mut eg: EGraph<Node, ()> = EGraph::default();
    let mut ids: Vec<Id> = Vec::new();
    for step in script {
        let id = match *step {
            Step::Leaf(v) => eg.add(Node::Leaf(v)),
            Step::Add(a, b) if !ids.is_empty() => {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                eg.add(Node::Add([a, b]))
            }
            Step::Neg(a) if !ids.is_empty() => {
                let a = ids[a % ids.len()];
                eg.add(Node::Neg(a))
            }
            _ => eg.add(Node::Leaf(0)),
        };
        ids.push(id);
    }
    for &(a, b) in unions {
        let a = ids[a % ids.len()];
        let b = ids[b % ids.len()];
        eg.union(a, b);
    }
    eg.rebuild();
    eg
}

/// Patterns exercising every machine feature: variable roots, repeated
/// (non-linear) variables, nesting, and literal leaves.
fn differential_patterns() -> Vec<Pattern<Node>> {
    [
        "?a",
        "(+ ?a ?b)",
        "(+ ?a ?a)",
        "(neg ?a)",
        "(neg (neg ?a))",
        "(+ (neg ?a) ?b)",
        "(+ ?a (+ ?b ?c))",
        "(+ (+ ?a ?b) (+ ?c ?a))",
        "(+ 1 ?x)",
        "(neg 3)",
        "2",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_after_unions(script in steps(), unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..10)) {
        let mut eg: EGraph<Node, ()> = EGraph::default();
        let mut ids: Vec<Id> = Vec::new();
        for step in &script {
            let id = match *step {
                Step::Leaf(v) => eg.add(Node::Leaf(v)),
                Step::Add(a, b) if !ids.is_empty() => {
                    let a = ids[a % ids.len()];
                    let b = ids[b % ids.len()];
                    eg.add(Node::Add([a, b]))
                }
                Step::Neg(a) if !ids.is_empty() => {
                    let a = ids[a % ids.len()];
                    eg.add(Node::Neg(a))
                }
                _ => eg.add(Node::Leaf(0)),
            };
            ids.push(id);
        }
        for &(a, b) in &unions {
            let a = ids[a % ids.len()];
            let b = ids[b % ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        eg.check_invariants();
    }

    #[test]
    fn congruence_propagates_to_parents(v in 0u8..6, w in 0u8..6) {
        prop_assume!(v != w);
        let mut eg: EGraph<Node, ()> = EGraph::default();
        let a = eg.add(Node::Leaf(v));
        let b = eg.add(Node::Leaf(w));
        let na = eg.add(Node::Neg(a));
        let nb = eg.add(Node::Neg(b));
        let nna = eg.add(Node::Neg(na));
        let nnb = eg.add(Node::Neg(nb));
        prop_assert_ne!(eg.find(nna), eg.find(nnb));
        eg.union(a, b);
        eg.rebuild();
        prop_assert_eq!(eg.find(na), eg.find(nb));
        prop_assert_eq!(eg.find(nna), eg.find(nnb));
        eg.check_invariants();
    }

    #[test]
    fn indexed_compiled_search_equals_naive(
        script in steps(),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        // The tentpole property: for any graph and any pattern, the
        // op-head-indexed compiled matcher returns exactly the matches
        // of the interpreted all-classes reference matcher.
        let eg = build_graph(&script, &unions);
        for p in differential_patterns() {
            let (indexed, candidates) = p.search_ids(
                &eg,
                &p.except_candidate_ids(&eg, &FxHashSet::default()),
                MatchingMode::Structural,
            );
            let naive = p.naive_search(&eg);
            prop_assert_eq!(indexed.len(), naive.len(), "pattern {}", &p);
            for (i, n) in indexed.iter().zip(&naive) {
                prop_assert_eq!(i.eclass, n.eclass, "pattern {}", &p);
                prop_assert_eq!(&i.substs, &n.substs, "pattern {}", &p);
            }
            prop_assert!(
                candidates <= eg.number_of_classes(),
                "index proposed more candidates than classes exist"
            );
        }
    }

    #[test]
    fn op_index_consistent_after_union_rebuild(
        script in steps(),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        // classes_with_op must agree with a from-scratch scan of the
        // canonical classes, for every op head present in the graph.
        let eg = build_graph(&script, &unions);
        let mut heads = std::collections::BTreeSet::new();
        for class in eg.classes() {
            for node in class.iter() {
                heads.insert(node.op_key());
            }
        }
        for key in heads {
            let mut want: Vec<Id> = eg
                .classes()
                .filter(|c| c.iter().any(|n| n.op_key() == key))
                .map(|c| eg.find(c.id))
                .collect();
            want.sort();
            let got = eg.classes_with_op(key).to_vec();
            prop_assert_eq!(got, want, "op index out of sync for {:?}", key);
        }
        eg.check_invariants();
    }

    #[test]
    fn add_expr_lookup_roundtrip(script in steps()) {
        // whatever we add must be found by lookup afterwards
        let mut eg: EGraph<Node, ()> = EGraph::default();
        let mut exprs: Vec<RecExpr<Node>> = Vec::new();
        let mut expr = RecExpr::default();
        let mut ids: Vec<Id> = Vec::new();
        for step in &script {
            let node = match *step {
                Step::Leaf(v) => Node::Leaf(v),
                Step::Add(a, b) if !ids.is_empty() => {
                    Node::Add([ids[a % ids.len()], ids[b % ids.len()]])
                }
                Step::Neg(a) if !ids.is_empty() => Node::Neg(ids[a % ids.len()]),
                _ => Node::Leaf(0),
            };
            ids.push(expr.add(node));
        }
        exprs.push(expr);
        for e in &exprs {
            let id = eg.add_expr(e);
            prop_assert_eq!(eg.lookup_expr(e), Some(eg.find(id)));
        }
    }
}
