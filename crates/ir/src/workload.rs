//! Workload expression bundles: many named statements, one shared DAG.
//!
//! A [`WorkloadExpr`] packages *all* statements of a workload as named
//! roots over a single hash-consed [`ExprArena`], so subexpressions that
//! repeat across statements (PNMF's `W %*% H` appears in three) are
//! shared by construction — the form the workload-level optimizer
//! saturates in one e-graph and extracts as one multi-root plan.
//!
//! Bundles are in **SSA form**: each root binds a fresh name, and a
//! root's name may only be read (appear as a leaf variable) by *later*
//! roots. That makes the bundle's semantics order-independent per root —
//! evaluating the roots in order, binding each result under its name,
//! yields the same value per root as evaluating each against the final
//! environment — and is what makes merging all statements into one
//! e-graph sound: two syntactically identical subexpressions are
//! guaranteed to denote the same value. Sequential programs that
//! reassign variables are converted by version-renaming the targets
//! (see `spores-ml`'s workload bundle builder).

use crate::arena::{ExprArena, LaNode, NodeId};
use crate::symbol::Symbol;
use std::fmt;

/// A bundle of named statements over one shared arena. See module docs.
#[derive(Clone, Debug)]
pub struct WorkloadExpr {
    pub arena: ExprArena,
    /// `(name, root)` per statement, in program order.
    pub roots: Vec<(Symbol, NodeId)>,
}

/// A malformed bundle (empty, duplicate names, or non-SSA wiring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadError(pub String);

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed workload: {}", self.0)
    }
}

impl std::error::Error for WorkloadError {}

impl WorkloadExpr {
    /// Build a bundle, validating the SSA discipline: at least one root,
    /// distinct root names, and no root name read at or before its own
    /// definition.
    pub fn new(arena: ExprArena, roots: Vec<(Symbol, NodeId)>) -> Result<Self, WorkloadError> {
        if roots.is_empty() {
            return Err(WorkloadError("workload has no statements".into()));
        }
        for (i, (name, _)) in roots.iter().enumerate() {
            if roots[..i].iter().any(|(n, _)| n == name) {
                return Err(WorkloadError(format!("duplicate root name {name}")));
            }
        }
        let bundle = WorkloadExpr { arena, roots };
        for (i, (_, root)) in bundle.roots.iter().enumerate() {
            for leaf in bundle.arena.free_vars(*root) {
                if bundle.roots[i..].iter().any(|(n, _)| *n == leaf) {
                    return Err(WorkloadError(format!(
                        "root {} reads {leaf} before it is defined (bundle is not SSA)",
                        bundle.roots[i].0
                    )));
                }
            }
        }
        Ok(bundle)
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The root ids, in program order.
    pub fn root_ids(&self) -> Vec<NodeId> {
        self.roots.iter().map(|&(_, id)| id).collect()
    }

    /// Statement `ix` as its own single-root bundle: the per-statement
    /// baseline that differential tests and benches compare workload
    /// mode against. Reads of earlier roots stay leaf variables, exactly
    /// as the per-statement pipeline sees them.
    pub fn single_statement(&self, ix: usize) -> WorkloadExpr {
        let (name, root) = self.roots[ix];
        let mut arena = ExprArena::new();
        let r = arena.graft(&self.arena, root, &std::collections::HashMap::new());
        WorkloadExpr::new(arena, vec![(name, r)]).expect("sub-bundle of a valid bundle")
    }

    /// All leaf variables read anywhere in the bundle (inputs plus
    /// earlier-root names), each once, in first-read order.
    pub fn read_vars(&self) -> Vec<Symbol> {
        let mut vars = Vec::new();
        for id in self.arena.postorder_multi(&self.root_ids()) {
            if let LaNode::Var(v) = self.arena.node(id) {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn bundle(stmts: &[(&str, &str)]) -> Result<WorkloadExpr, WorkloadError> {
        let mut arena = ExprArena::new();
        let roots = stmts
            .iter()
            .map(|&(name, src)| (Symbol::new(name), parse_expr(&mut arena, src).unwrap()))
            .collect();
        WorkloadExpr::new(arena, roots)
    }

    #[test]
    fn valid_ssa_bundle() {
        let w = bundle(&[("G", "(U %*% t(V) - X) %*% V"), ("U1", "U - 0.0001 * G")]).unwrap();
        assert_eq!(w.len(), 2);
        let mut read: Vec<String> = w.read_vars().iter().map(|s| s.to_string()).collect();
        read.sort();
        // G is read but defined by the first root
        assert_eq!(read, vec!["G", "U", "V", "X"]);
    }

    #[test]
    fn shared_subexpressions_share_nodes() {
        // `W %*% H` in two statements is one node in the bundle arena
        let w = bundle(&[("a", "sum(W %*% H)"), ("b", "sum(X * log(W %*% H))")]).unwrap();
        let n_matmul = w
            .arena
            .postorder_multi(&w.root_ids())
            .iter()
            .filter(|&&id| matches!(w.arena.node(id), LaNode::Bin(crate::BinOp::MatMul, _, _)))
            .count();
        assert_eq!(n_matmul, 1);
    }

    #[test]
    fn rejects_duplicate_names() {
        assert!(bundle(&[("a", "X"), ("a", "Y")]).is_err());
    }

    #[test]
    fn rejects_read_before_define() {
        // statement reads its own target (reassignment without SSA)
        assert!(bundle(&[("U", "U - G")]).is_err());
        // and a forward reference
        assert!(bundle(&[("a", "b + X"), ("b", "X")]).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(bundle(&[]).is_err());
    }
}
