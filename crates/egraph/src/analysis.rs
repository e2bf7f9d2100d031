//! E-class analyses ("class invariants" in the paper, §3.2).
//!
//! An [`Analysis`] attaches a data value to every e-class and keeps it
//! consistent under insertion and merging. SPORES uses this for three
//! invariants: the relational *schema* of a class, its *sparsity* estimate
//! (tightened on merge, since equal expressions give independent bounds),
//! and *constant folding*.

use crate::egraph::EGraph;
use crate::language::{Id, Language};
use std::fmt::Debug;

/// Result of merging two analysis values: whether the left/right value
/// changed. Drives re-propagation to parents.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DidMerge(pub bool, pub bool);

impl std::ops::BitOr for DidMerge {
    type Output = DidMerge;
    fn bitor(self, rhs: DidMerge) -> DidMerge {
        DidMerge(self.0 | rhs.0, self.1 | rhs.1)
    }
}

/// Per-class semantic information maintained during saturation.
pub trait Analysis<L: Language>: Sized {
    /// The invariant value stored on each e-class.
    type Data: Debug + Clone;

    /// Compute the value for a newly inserted e-node from its children's
    /// values (accessible through `egraph`).
    fn make(egraph: &EGraph<L, Self>, enode: &L) -> Self::Data;

    /// Combine the values of two merged classes into `a`.
    fn merge(&mut self, a: &mut Self::Data, b: Self::Data) -> DidMerge;

    /// Hook run after a class is created or its data changes; may add
    /// nodes/unions (used for constant folding).
    fn modify(_egraph: &mut EGraph<L, Self>, _id: Id) {}
}

/// The trivial analysis: no data.
impl<L: Language> Analysis<L> for () {
    type Data = ();

    fn make(_egraph: &EGraph<L, Self>, _enode: &L) -> Self::Data {}

    fn merge(&mut self, _a: &mut Self::Data, _b: Self::Data) -> DidMerge {
        DidMerge(false, false)
    }
}
