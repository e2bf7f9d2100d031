//! The sparsity-aware cost model (§3.1, Figure 12).
//!
//! "Each operation usually has cost proportional to the output size in
//! terms of memory allocation and computation. Since the size of a matrix
//! is proportional to its number of non-zeroes (nnz), we use \[the\]
//! estimate of nnz as the cost for each operation."
//!
//! The estimate itself is the class invariant maintained by
//! [`crate::analysis::MetaAnalysis`]; this module turns it into a
//! per-e-node cost and encodes which classes are *extractable*:
//!
//! * structural nodes (leaves, `bind`/`unbind`, `dim`, indexes) are free;
//! * operator nodes cost the estimated nnz of their output class (plus 1,
//!   so that plans with fewer operators win ties);
//! * joins whose schema exceeds two attributes cost nothing themselves —
//!   they can only be consumed by an enclosing aggregate, and the pair
//!   lowers to a fused contraction (`mmchain`-style) that never
//!   materializes the wide intermediate;
//! * non-join nodes with more than two attributes are *inextricable*
//!   (infinite cost): the paper generates ILP variables only for classes
//!   with at most two schema attributes (§3.2), since only those can be
//!   translated back to LA.

use crate::analysis::{Kind, Meta, MetaAnalysis};
use crate::lang::Math;
use spores_egraph::{CostFunction, EGraph, Id, Language};

/// How many schema attributes a class has, when it is relational.
/// `Scalar` counts as 0; LA shapes count their non-1 dimensions.
pub fn attr_count(meta: &Meta) -> Option<usize> {
    match &meta.kind {
        Kind::Scalar => Some(0),
        Kind::Rel(schema) => Some(schema.len()),
        Kind::Mat(s) => Some(usize::from(s.rows > 1) + usize::from(s.cols > 1)),
        Kind::Index { .. } => Some(0),
        Kind::Unknown => None,
    }
}

/// Is this class allowed to appear in an extracted plan?
/// (≤ 2 attributes, §3.2 — except wide joins, which fuse upward.)
pub fn class_extractable(meta: &Meta, enode: &Math) -> bool {
    match attr_count(meta) {
        None => false,
        Some(n) if n <= 2 => true,
        // wide intermediates are only allowed for joins and aggregates,
        // which lower into fused contractions
        Some(_) => matches!(enode, Math::Mul(_) | Math::Agg(_)),
    }
}

/// Per-node cost of the SPORES cost model. See the module docs.
pub fn node_cost(meta: &Meta, enode: &Math) -> f64 {
    use Math::*;
    match enode {
        // structural / zero-cost nodes
        Lit(_) | Sym(_) | NoIdx | Dim(_) | Bind(_) | Unbind(_) => 0.0,
        // transpose is pure metadata in our runtime as well
        LTrs(_) => 0.0,
        _ => {
            if !class_extractable(meta, enode) {
                return f64::INFINITY;
            }
            match attr_count(meta) {
                // wide join: fused into the enclosing contraction
                Some(n) if n > 2 => 1.0,
                _ => meta.nnz() + 1.0,
            }
        }
    }
}

/// The greedy cost function: total = own + Σ children (tree semantics,
/// which double-counts shared sub-plans — exactly the deficiency of
/// Figure 10 that ILP extraction fixes).
#[derive(Clone, Copy, Debug, Default)]
pub struct NnzCost;

impl CostFunction<Math, MetaAnalysis> for NnzCost {
    fn cost(
        &self,
        egraph: &EGraph<Math, MetaAnalysis>,
        class: Id,
        enode: &Math,
        child_cost: &dyn Fn(Id) -> f64,
    ) -> f64 {
        let own = node_cost(&egraph.class(class).data, enode);
        if !own.is_finite() {
            return f64::INFINITY;
        }
        own + enode.children().iter().map(|&c| child_cost(c)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Context, MathGraph, MetaAnalysis, VarMeta};
    use crate::lang::parse_math;
    use spores_egraph::Extractor;

    fn ctx() -> Context {
        Context::new()
            .with_var("X", VarMeta::sparse(1000, 500, 0.001))
            .with_var("U", VarMeta::dense(1000, 1))
            .with_var("V", VarMeta::dense(500, 1))
            .with_index("i", 1000)
            .with_index("j", 500)
            .with_index("k", 20)
    }

    fn cost_of(src: &str) -> f64 {
        let mut eg = MathGraph::new(MetaAnalysis::new(ctx()));
        let id = eg.add_expr(&parse_math(src).unwrap());
        eg.rebuild();
        let ext = Extractor::new(&eg, NnzCost);
        ext.best_cost(id).unwrap()
    }

    #[test]
    fn leaves_are_free() {
        assert_eq!(cost_of("(b i j X)"), 0.0);
        assert_eq!(cost_of("5"), 0.0);
        assert_eq!(cost_of("(dim i)"), 0.0);
    }

    #[test]
    fn sparse_join_order_beats_dense_intermediate() {
        // X * (U ⊗ V): the U⊗V intermediate is dense (500k nnz)
        let bad_order = cost_of("(* (b i j X) (* (b i _ U) (b j _ V)))");
        // (X * U) * V: every intermediate inherits X's sparsity (500 nnz)
        let good_order = cost_of("(* (* (b i j X) (b i _ U)) (b j _ V))");
        assert!(
            good_order * 100.0 < bad_order,
            "good {good_order} vs bad {bad_order}"
        );
    }

    #[test]
    fn aggregated_wide_join_is_fused() {
        // Σ_j X(i,j)·V(j) — matvec; the 2-attr product is materialized
        let matvec = cost_of("(sum j (* (b i j X) (b j _ V)))");
        assert!(matvec.is_finite());
        // a 3-attr product under two aggregates (matmul chain) must also
        // be extractable, with the wide join costing ~nothing
        let chain = cost_of("(sum j (* (b i j X) (* (b j k Y3) (b k _ W3))))");
        assert!(chain.is_finite());
    }

    #[test]
    fn wide_nonjoin_is_inextricable() {
        let mut eg = MathGraph::new(MetaAnalysis::new(ctx().with_index("l", 7)));
        // a 3-attr union cannot be translated back to LA
        let id = eg.add_expr(
            &parse_math("(+ (* (b i j X) (b k _ V2)) (* (b i j X) (b k _ V2)))").unwrap(),
        );
        eg.rebuild();
        let ext = Extractor::new(&eg, NnzCost);
        assert_eq!(ext.best_cost(id), None);
    }

    #[test]
    fn zero_sparsity_means_free() {
        // multiplying by a zero literal drives sparsity (and cost) to ~1
        let c = cost_of("(* (b i j X) 0)");
        assert!(c <= 1.0 + 1e-9, "{c}");
    }
}
