//! Value sharing in the interpreter is invisible: random LA DAGs with
//! shared sub-expressions and several roots evaluate, through `run` and
//! through one shared-memo `run_many` pass, to what the reference
//! evaluator `spores_core::eval::eval_la` computes — and the input
//! bindings come out exactly as they went in.
//!
//! Every bundle has the shapes value sharing has to get right: roots
//! picked from one node pool (so a root's DAG contains other roots), a
//! fused `wsloss` root, a root that adds an earlier root's *node* to
//! another earlier root read back *by name*, and optionally a root that
//! is a bare variable. That one and a node picked as two roots are the
//! only values the executor may copy.

use proptest::prelude::*;
use spores_core::eval::{eval_la, Tensor};
use spores_exec::{Bindings, Executor, Overlay};
use spores_ir::{ExprArena, LaNode, NodeId, Symbol, UnOp};
use spores_matrix::{gen, Matrix};
use std::collections::HashMap;

/// All matrices are N×N, so every generated operation is well-shaped.
const N: usize = 4;
const LEAVES: [&str; 3] = ["X", "Y", "Z"];

#[derive(Clone, Debug)]
struct Case {
    /// `(opcode, operand, operand)`: each entry adds a node built from
    /// earlier pool entries (indices wrap).
    ops: Vec<(u8, u8, u8)>,
    /// Pool entries bound as roots `r0`, `r1`, ….
    picks: Vec<u8>,
    alias_root: bool,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 3..12),
        proptest::collection::vec(any::<u8>(), 2..4),
        any::<bool>(),
        0u64..1_000,
    )
        .prop_map(|(ops, picks, alias_root, seed)| Case {
            ops,
            picks,
            alias_root,
            seed,
        })
}

fn build(case: &Case) -> (ExprArena, Vec<(Symbol, NodeId)>) {
    let mut arena = ExprArena::new();
    let mut pool: Vec<NodeId> = LEAVES.iter().map(|&l| arena.var(l)).collect();
    for &(code, a, b) in &case.ops {
        let at = |i: u8| pool[usize::from(i) % pool.len()];
        let (a, b, c) = (at(a), at(b), at(a.wrapping_add(b)));
        // scaled so every pool entry stays within [-1, 1] like the leaves
        let (node, scale) = match code {
            0 => (arena.add(a, b), 0.5),
            1 => (arena.sub(a, b), 0.5),
            2 => (arena.mul(a, b), 1.0),
            3 => (arena.matmul(a, b), 0.25),
            4 => (arena.t(a), 1.0),
            5 => (arena.un(UnOp::Abs, a), 1.0),
            6 => (arena.un(UnOp::Sigmoid, a), 1.0),
            _ => {
                // three leaves: the executor's mmchain operator
                let ab = arena.matmul(a, b);
                (arena.matmul(ab, c), 0.0625)
            }
        };
        let scale = arena.lit(scale);
        let node = arena.mul(scale, node);
        pool.push(node);
    }
    let computed = &pool[LEAVES.len()..];
    let mut roots: Vec<(Symbol, NodeId)> = case
        .picks
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let node = computed[usize::from(p) % computed.len()];
            (Symbol::new(&format!("r{i}")), node)
        })
        .collect();
    // sum((X - r0 %*% r1)^2): fused, reads two roots' nodes
    let loss = {
        let x = arena.var("X");
        let product = arena.matmul(roots[0].1, roots[1].1);
        let diff = arena.sub(x, product);
        let two = arena.lit(2.0);
        let squared = arena.pow(diff, two);
        arena.sum(squared)
    };
    roots.push((Symbol::new("loss"), loss));
    // r0's node reused inside a later root, r1 read back by name
    let by_name = arena.var("r1");
    let reuse = arena.add(roots[0].1, by_name);
    roots.push((Symbol::new("reuse"), reuse));
    if case.alias_root {
        roots.push((Symbol::new("alias"), arena.var("X")));
    }
    (arena, roots)
}

fn inputs(seed: u64) -> HashMap<Symbol, Matrix> {
    let mut r = gen::rng(seed);
    HashMap::from([
        (
            Symbol::new("X"),
            gen::rand_sparse(N, N, 0.3, -1.0, 1.0, &mut r),
        ),
        (Symbol::new("Y"), gen::rand_dense(N, N, -1.0, 1.0, &mut r)),
        (Symbol::new("Z"), gen::rand_dense(N, N, -1.0, 1.0, &mut r)),
    ])
}

fn tensor(m: &Matrix) -> Tensor {
    Tensor::new(m.rows(), m.cols(), m.to_dense().data)
}

fn agrees(got: &Matrix, want: &Tensor) -> bool {
    tensor(got).approx_eq(want, 1e-9)
}

fn stored_cells(m: &Matrix) -> u64 {
    match m {
        Matrix::Dense(d) => (d.rows * d.cols) as u64,
        Matrix::Sparse(s) => 2 * s.nnz() as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_values_agree_with_the_reference_and_leave_inputs_alone(case in case()) {
        let (arena, roots) = build(&case);
        let given = inputs(case.seed);

        // one shared pass over every root
        let mut env = given.clone();
        let mut shared = Executor::default();
        shared.run_many(&arena, &roots, &mut env).expect("bundle evaluates");
        for (name, m) in &given {
            prop_assert_eq!(&env[name], m, "input {} changed", name);
        }
        // the only copies: a root that is another name for an existing
        // value (a bare variable, or a node a later root binds again)
        let aliased: u64 = roots
            .iter()
            .enumerate()
            .filter(|&(i, (_, node))| {
                matches!(arena.node(*node), LaNode::Var(_))
                    || roots[i + 1..].iter().any(|(_, later)| later == node)
            })
            .map(|(_, (name, _))| stored_cells(&env[name]))
            .sum();
        prop_assert_eq!(shared.stats.cells_copied, aliased);

        // the same pass over borrowed inputs
        let mut layered = Overlay::new(&given);
        Executor::default()
            .run_many(&arena, &roots, &mut layered)
            .expect("bundle evaluates over an overlay");

        // root by root: the reference evaluator, and `run` with a memo
        // table of its own, both reading earlier roots by name
        let mut reference: HashMap<Symbol, Tensor> =
            given.iter().map(|(&s, m)| (s, tensor(m))).collect();
        let mut stepwise = given.clone();
        let mut solo = Executor::default();
        for &(name, root) in &roots {
            let want = eval_la(&arena, root, &reference).expect("reference evaluates");
            prop_assert!(agrees(&env[&name], &want), "root {} differs from the reference", name);
            let alone = solo.run(&arena, root, &stepwise).expect("root evaluates");
            prop_assert_eq!(&alone, &env[&name], "run and run_many differ on {}", name);
            prop_assert_eq!(
                layered.lookup(name),
                Some(&alone),
                "overlay pass differs on {}",
                name
            );
            reference.insert(name, want);
            stepwise.insert(name, alone);
        }
        for (name, m) in &given {
            prop_assert_eq!(&stepwise[name], m, "input {} changed", name);
        }
    }
}
