//! Hash-consed linear-algebra expression DAGs.
//!
//! SystemML compiles DML scripts into HOP DAGs where common subexpressions
//! are shared; the SPORES optimizer receives such DAGs (paper §3.5). The
//! [`ExprArena`] reproduces that: inserting a structurally-identical node
//! returns the existing [`NodeId`], so sharing is by construction.

use crate::symbol::Symbol;
use std::collections::HashMap;
use std::fmt;

/// Index of a node in an [`ExprArena`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Unary LA operators (Table 1 plus SystemML element-wise maps).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// `t(X)` — transpose.
    T,
    /// `rowSums(X)` — row aggregate, `M×N → M×1`.
    RowSums,
    /// `colSums(X)` — column aggregate, `M×N → 1×N`.
    ColSums,
    /// `sum(X)` — full aggregate, `M×N → 1×1`.
    Sum,
    /// `-X`.
    Neg,
    Exp,
    Log,
    Sqrt,
    Abs,
    Sign,
    /// `1/(1+exp(-x))` element-wise.
    Sigmoid,
    /// `x*(1-x)` element-wise (SystemML's fused sample-proportion op).
    Sprop,
}

impl UnOp {
    /// True for operators that apply a scalar function cell-wise.
    pub fn is_elementwise(self) -> bool {
        !matches!(self, UnOp::T | UnOp::RowSums | UnOp::ColSums | UnOp::Sum)
    }

    /// Surface (DML-like) function name.
    pub fn name(self) -> &'static str {
        match self {
            UnOp::T => "t",
            UnOp::RowSums => "rowSums",
            UnOp::ColSums => "colSums",
            UnOp::Sum => "sum",
            UnOp::Neg => "-",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
            UnOp::Sign => "sign",
            UnOp::Sigmoid => "sigmoid",
            UnOp::Sprop => "sprop",
        }
    }
}

/// Binary LA operators. All but [`BinOp::MatMul`] are element-wise with
/// broadcasting (see [`crate::shape::broadcast`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// `X^k` element-wise power.
    Pow,
    /// `X %*% Y`.
    MatMul,
    Min,
    Max,
    Gt,
    Lt,
    Ge,
    Le,
}

impl BinOp {
    pub fn is_elementwise(self) -> bool {
        !matches!(self, BinOp::MatMul)
    }

    /// Surface syntax for the operator.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::MatMul => "%*%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
            BinOp::Ge => ">=",
            BinOp::Le => "<=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A scalar literal with `Eq`/`Hash` (bit-based, `-0.0` normalized, NaN
/// rejected) so [`LaNode`] can key the hash-cons table.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Num(f64);

impl Num {
    pub fn new(v: f64) -> Num {
        assert!(!v.is_nan(), "NaN literals are not representable");
        Num(if v == 0.0 { 0.0 } else { v })
    }

    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Num {}

impl std::hash::Hash for Num {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for Num {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Num {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // NaN is rejected at construction, so total_cmp agrees with the
        // usual order on the values we store.
        self.0.total_cmp(&other.0)
    }
}

/// One node of the LA DAG.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum LaNode {
    /// A free matrix (or vector/scalar) variable.
    Var(Symbol),
    /// A scalar constant.
    Scalar(Num),
    /// A constant-filled matrix: `matrix(v, rows, cols)` in DML.
    Fill(Num, u64, u64),
    Un(UnOp, NodeId),
    Bin(BinOp, NodeId, NodeId),
}

impl LaNode {
    /// Child node ids, in order.
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            LaNode::Var(_) | LaNode::Scalar(_) | LaNode::Fill(..) => vec![],
            LaNode::Un(_, a) => vec![*a],
            LaNode::Bin(_, a, b) => vec![*a, *b],
        }
    }
}

/// Hash-consed arena of [`LaNode`]s.
#[derive(Default, Clone, Debug)]
pub struct ExprArena {
    nodes: Vec<LaNode>,
    memo: HashMap<LaNode, NodeId>,
}

impl ExprArena {
    pub fn new() -> ExprArena {
        ExprArena::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: NodeId) -> &LaNode {
        &self.nodes[id.index()]
    }

    /// Insert a node, returning the id of the structurally-identical
    /// existing node when there is one (hash-consing).
    pub fn insert(&mut self, node: LaNode) -> NodeId {
        if let Some(&id) = self.memo.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.memo.insert(node, id);
        id
    }

    // --- convenience constructors -------------------------------------

    pub fn var(&mut self, name: impl Into<Symbol>) -> NodeId {
        self.insert(LaNode::Var(name.into()))
    }

    pub fn lit(&mut self, v: f64) -> NodeId {
        self.insert(LaNode::Scalar(Num::new(v)))
    }

    /// `matrix(v, rows, cols)` — a constant-filled matrix.
    pub fn fill(&mut self, v: f64, rows: u64, cols: u64) -> NodeId {
        self.insert(LaNode::Fill(Num::new(v), rows, cols))
    }

    pub fn un(&mut self, op: UnOp, a: NodeId) -> NodeId {
        self.insert(LaNode::Un(op, a))
    }

    pub fn bin(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        self.insert(LaNode::Bin(op, a, b))
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Add, a, b)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Sub, a, b)
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Mul, a, b)
    }

    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Div, a, b)
    }

    pub fn pow(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Pow, a, b)
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::MatMul, a, b)
    }

    pub fn t(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::T, a)
    }

    pub fn sum(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::Sum, a)
    }

    pub fn row_sums(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::RowSums, a)
    }

    pub fn col_sums(&mut self, a: NodeId) -> NodeId {
        self.un(UnOp::ColSums, a)
    }

    // --- traversal ------------------------------------------------------

    /// Nodes reachable from `root` in post order (children before parents),
    /// each exactly once.
    pub fn postorder(&self, root: NodeId) -> Vec<NodeId> {
        self.postorder_multi(&[root])
    }

    /// Nodes reachable from any of `roots` in post order, each exactly
    /// once. Earlier roots' sub-DAGs are visited first, so the order is
    /// canonical for a given root sequence — the property the multi-root
    /// workload fingerprint relies on.
    pub fn postorder_multi(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut visited = vec![false; self.nodes.len()];
        for &root in roots {
            // explicit stack: (node, children_pushed)
            let mut stack = vec![(root, false)];
            while let Some((id, expanded)) = stack.pop() {
                if visited[id.index()] {
                    continue;
                }
                if expanded {
                    visited[id.index()] = true;
                    order.push(id);
                } else {
                    stack.push((id, true));
                    for c in self.node(id).children() {
                        if !visited[c.index()] {
                            stack.push((c, false));
                        }
                    }
                }
            }
        }
        order
    }

    /// Number of distinct nodes reachable from `root`.
    pub fn dag_size(&self, root: NodeId) -> usize {
        self.postorder(root).len()
    }

    /// Free variables of the expression rooted at `root`.
    pub fn free_vars(&self, root: NodeId) -> Vec<Symbol> {
        let mut vars = Vec::new();
        for id in self.postorder(root) {
            if let LaNode::Var(v) = self.node(id) {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }

    /// Render `root` in DML-like surface syntax.
    pub fn display(&self, root: NodeId) -> String {
        let mut s = String::new();
        self.fmt_node(root, 0, &mut s);
        s
    }

    // Precedence levels: 0 outermost, higher binds tighter.
    fn fmt_node(&self, id: NodeId, parent_prec: u8, out: &mut String) {
        use std::fmt::Write;
        match self.node(id) {
            LaNode::Var(v) => {
                write!(out, "{v}").unwrap();
            }
            LaNode::Scalar(n) => {
                write!(out, "{}", n.get()).unwrap();
            }
            LaNode::Fill(n, r, c) => {
                write!(out, "matrix({}, {}, {})", n.get(), r, c).unwrap();
            }
            LaNode::Un(op, a) => match op {
                UnOp::Neg => {
                    let prec = 5;
                    if parent_prec > prec {
                        out.push('(');
                    }
                    out.push('-');
                    self.fmt_node(*a, prec + 1, out);
                    if parent_prec > prec {
                        out.push(')');
                    }
                }
                _ => {
                    write!(out, "{}(", op.name()).unwrap();
                    self.fmt_node(*a, 0, out);
                    out.push(')');
                }
            },
            LaNode::Bin(op, a, b) => {
                if matches!(op, BinOp::Min | BinOp::Max) {
                    write!(out, "{}(", op.token()).unwrap();
                    self.fmt_node(*a, 0, out);
                    out.push_str(", ");
                    self.fmt_node(*b, 0, out);
                    out.push(')');
                    return;
                }
                let prec = match op {
                    BinOp::Gt | BinOp::Lt | BinOp::Ge | BinOp::Le => 1,
                    BinOp::Add | BinOp::Sub => 2,
                    BinOp::Mul | BinOp::Div => 3,
                    BinOp::MatMul => 4,
                    BinOp::Pow => 6,
                    BinOp::Min | BinOp::Max => unreachable!(),
                };
                if parent_prec > prec {
                    out.push('(');
                }
                // left-assoc: left child may share prec, right child must bind tighter
                self.fmt_node(*a, prec, out);
                if matches!(op, BinOp::Pow) {
                    write!(out, "{}", op.token()).unwrap();
                } else {
                    write!(out, " {} ", op.token()).unwrap();
                }
                self.fmt_node(*b, prec + 1, out);
                if parent_prec > prec {
                    out.push(')');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut a = ExprArena::new();
        let x = a.var("X");
        let y = a.var("Y");
        let m1 = a.mul(x, y);
        let m2 = a.mul(x, y);
        assert_eq!(m1, m2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn postorder_is_children_first() {
        let mut a = ExprArena::new();
        let x = a.var("X");
        let t = a.t(x);
        let m = a.matmul(t, x);
        let order = a.postorder(m);
        let pos = |id: NodeId| order.iter().position(|&o| o == id).unwrap();
        assert!(pos(x) < pos(t));
        assert!(pos(t) < pos(m));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn dag_size_counts_shared_nodes_once() {
        let mut a = ExprArena::new();
        let x = a.var("X");
        let xx = a.mul(x, x); // shared X
        assert_eq!(a.dag_size(xx), 2);
    }

    #[test]
    fn display_precedence() {
        let mut a = ExprArena::new();
        let x = a.var("X");
        let y = a.var("Y");
        let z = a.var("Z");
        let s = a.add(x, y);
        let m = a.mul(s, z);
        assert_eq!(a.display(m), "(X + Y) * Z");
        let m2 = a.matmul(x, y);
        let p = a.add(m2, z);
        assert_eq!(a.display(p), "X %*% Y + Z");
        let two = a.lit(2.0);
        let sq = a.pow(s, two);
        let agg = a.sum(sq);
        assert_eq!(a.display(agg), "sum((X + Y)^2)");
    }

    #[test]
    fn neg_zero_literal_normalized() {
        let mut a = ExprArena::new();
        assert_eq!(a.lit(0.0), a.lit(-0.0));
    }

    #[test]
    fn free_vars_in_first_occurrence_order() {
        let mut a = ExprArena::new();
        let u = a.var("U");
        let v = a.var("V");
        let m = a.matmul(u, v);
        let m2 = a.mul(m, u);
        assert_eq!(a.free_vars(m2), vec![Symbol::new("U"), Symbol::new("V")]);
    }
}
