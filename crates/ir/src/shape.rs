//! Matrix shapes and SystemML-style shape inference.
//!
//! The paper's Table 1 types LA operators over `M_{M,N}` matrices; scalars
//! are `1×1` matrices and vectors are `M×1` / `1×N`. Element-wise binary
//! operators additionally broadcast scalars, column vectors and row vectors
//! the way SystemML (and R) do, which the ML workloads rely on.

use crate::arena::{BinOp, ExprArena, LaNode, NodeId, UnOp};
use crate::symbol::Symbol;
use std::collections::HashMap;
use std::fmt;

/// The shape of a matrix value. Scalars are `1×1`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Shape {
    pub rows: u64,
    pub cols: u64,
}

impl Shape {
    pub fn new(rows: u64, cols: u64) -> Shape {
        Shape { rows, cols }
    }

    pub fn scalar() -> Shape {
        Shape { rows: 1, cols: 1 }
    }

    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Total number of cells.
    pub fn nelem(&self) -> u64 {
        self.rows * self.cols
    }

    pub fn transposed(&self) -> Shape {
        Shape {
            rows: self.cols,
            cols: self.rows,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Shapes of the free matrix variables of an expression.
pub type ShapeEnv = HashMap<Symbol, Shape>;

/// A shape-inference failure, pointing at the offending node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeError {
    pub node: NodeId,
    pub message: String,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error at node {:?}: {}", self.node, self.message)
    }
}

impl std::error::Error for ShapeError {}

/// Shape of an element-wise binary op with broadcasting, or `None` if the
/// shapes are incompatible.
pub fn broadcast(a: Shape, b: Shape) -> Option<Shape> {
    if a == b {
        return Some(a);
    }
    if a.is_scalar() {
        return Some(b);
    }
    if b.is_scalar() {
        return Some(a);
    }
    // column vector broadcast across columns
    if a.cols == 1 && a.rows == b.rows {
        return Some(b);
    }
    if b.cols == 1 && b.rows == a.rows {
        return Some(a);
    }
    // row vector broadcast across rows
    if a.rows == 1 && a.cols == b.cols {
        return Some(b);
    }
    if b.rows == 1 && b.cols == a.cols {
        return Some(a);
    }
    None
}

impl ExprArena {
    /// Infer the shape of every node reachable from `root`.
    ///
    /// Returns a dense table indexed by [`NodeId`]; nodes not reachable from
    /// `root` may be `None`.
    pub fn infer_shapes(
        &self,
        root: NodeId,
        env: &ShapeEnv,
    ) -> Result<Vec<Option<Shape>>, ShapeError> {
        let mut shapes: Vec<Option<Shape>> = vec![None; self.len()];
        for id in self.postorder(root) {
            let shape = match self.node(id) {
                LaNode::Var(v) => *env.get(v).ok_or_else(|| ShapeError {
                    node: id,
                    message: format!("unbound variable {v}"),
                })?,
                LaNode::Scalar(_) => Shape::scalar(),
                LaNode::Fill(_, r, c) => Shape::new(*r, *c),
                LaNode::Un(op, a) => {
                    let sa = shapes[a.index()].expect("postorder");
                    match op {
                        UnOp::T => sa.transposed(),
                        UnOp::RowSums => Shape::new(sa.rows, 1),
                        UnOp::ColSums => Shape::new(1, sa.cols),
                        UnOp::Sum => Shape::scalar(),
                        _ => sa, // element-wise maps
                    }
                }
                LaNode::Bin(op, a, b) => {
                    let sa = shapes[a.index()].expect("postorder");
                    let sb = shapes[b.index()].expect("postorder");
                    match op {
                        BinOp::MatMul => {
                            if sa.cols != sb.rows {
                                return Err(ShapeError {
                                    node: id,
                                    message: format!("matmul mismatch {sa} %*% {sb}"),
                                });
                            }
                            Shape::new(sa.rows, sb.cols)
                        }
                        _ => broadcast(sa, sb).ok_or_else(|| ShapeError {
                            node: id,
                            message: format!("cannot broadcast {sa} {op} {sb}"),
                        })?,
                    }
                }
            };
            shapes[id.index()] = Some(shape);
        }
        Ok(shapes)
    }

    /// Shape of `root` alone (convenience wrapper).
    pub fn shape_of(&self, root: NodeId, env: &ShapeEnv) -> Result<Shape, ShapeError> {
        Ok(self.infer_shapes(root, env)?[root.index()].expect("root inferred"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn env(pairs: &[(&str, (u64, u64))]) -> ShapeEnv {
        pairs
            .iter()
            .map(|(n, (r, c))| (Symbol::new(n), Shape::new(*r, *c)))
            .collect()
    }

    #[test]
    fn broadcast_rules() {
        let s = Shape::scalar;
        assert_eq!(broadcast(s(), Shape::new(3, 4)), Some(Shape::new(3, 4)));
        assert_eq!(
            broadcast(Shape::new(3, 1), Shape::new(3, 4)),
            Some(Shape::new(3, 4))
        );
        assert_eq!(
            broadcast(Shape::new(3, 4), Shape::new(1, 4)),
            Some(Shape::new(3, 4))
        );
        assert_eq!(broadcast(Shape::new(3, 4), Shape::new(4, 3)), None);
        assert_eq!(broadcast(Shape::new(2, 1), Shape::new(3, 4)), None);
    }

    #[test]
    fn matmul_shapes() {
        let mut a = ExprArena::default();
        let root = parse_expr(&mut a, "X %*% Y").unwrap();
        let e = env(&[("X", (3, 5)), ("Y", (5, 7))]);
        assert_eq!(a.shape_of(root, &e).unwrap(), Shape::new(3, 7));

        let bad = env(&[("X", (3, 5)), ("Y", (4, 7))]);
        assert!(a.shape_of(root, &bad).is_err());
    }

    #[test]
    fn aggregates_and_transpose() {
        let mut a = ExprArena::default();
        let e = env(&[("X", (3, 5))]);
        for (src, want) in [
            ("t(X)", Shape::new(5, 3)),
            ("rowSums(X)", Shape::new(3, 1)),
            ("colSums(X)", Shape::new(1, 5)),
            ("sum(X)", Shape::scalar()),
        ] {
            let root = parse_expr(&mut a, src).unwrap();
            assert_eq!(a.shape_of(root, &e).unwrap(), want, "{src}");
        }
    }

    #[test]
    fn headline_expression_shape() {
        let mut a = ExprArena::default();
        let root = parse_expr(&mut a, "sum((X - U %*% t(V))^2)").unwrap();
        let e = env(&[("X", (100, 50)), ("U", (100, 1)), ("V", (50, 1))]);
        assert_eq!(a.shape_of(root, &e).unwrap(), Shape::scalar());
    }

    #[test]
    fn unbound_variable_errors() {
        let mut a = ExprArena::default();
        let root = parse_expr(&mut a, "Q + 1").unwrap();
        assert!(a.shape_of(root, &ShapeEnv::new()).is_err());
    }
}
