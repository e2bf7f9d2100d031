//! A from-scratch equality-saturation engine (e-graphs + rewriting).
//!
//! This crate replaces the `egg` library the SPORES paper built on. It
//! provides:
//!
//! * [`EGraph`] — hash-consed e-classes with deferred congruence closure
//!   ([`EGraph::rebuild`]), following the design of egg.
//! * [`Analysis`] — e-class analyses, the "class invariants" of paper
//!   §3.2 (schema, sparsity, constant folding in `spores-core`).
//! * [`Pattern`] / [`Rewrite`] — s-expression patterns compiled to flat
//!   match programs, op-head-indexed e-matching (only candidate classes
//!   are visited), conditional rewrites.
//! * [`Runner`] — the saturation loop with iteration/node/time limits and
//!   the two match-application strategies of §3.1: depth-first and
//!   sampling.
//! * [`Extractor`] — greedy bottom-up extraction against a pluggable
//!   [`CostFunction`] (ILP extraction lives in `spores-core`, which
//!   encodes Figure 11 onto the `spores-ilp` solver).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod dot;
pub mod egraph;
pub mod extract;
pub mod hash;
pub mod language;
pub mod pattern;
pub mod relational;
pub mod rewrite;
pub mod runner;
pub mod unionfind;

pub use analysis::{Analysis, DidMerge};
pub use egraph::{audit_enabled, set_rebuild_audit, EClass, EGraph};
pub use extract::{AstSize, CostFunction, Extractor};
pub use hash::{FxHashMap, FxHashSet};
pub use language::{parse_rec_expr, Id, Language, OpKey, RecExpr};
pub use pattern::{ENodeOrVar, Pattern, SearchMatches, Subst, Var};
pub use relational::{MatchingMode, RelIndex, SlotKey};
pub use rewrite::{
    check_unique_names, Applier, Condition, ConditionMeta, DeclaredCondition, PatternSide, Rewrite,
    RewriteError,
};
pub use runner::{
    search_rules_parallel, Iteration, ParallelConfig, RegionConfig, RuleIterStats, Runner,
    Scheduler, SearchPlan, StopReason,
};
pub use unionfind::UnionFind;
