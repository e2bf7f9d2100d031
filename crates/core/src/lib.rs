//! SPORES: the relational equality-saturation optimizer (paper core).
//!
//! The pipeline of Figure 13, one module per stage:
//!
//! * [`lang`] — the unified LA + RA term language (Table 1).
//! * [`translate`](mod@translate) — LA → RA, the rules R_LR of Figure 2.
//! * [`rules`] — the equality rules R_EQ (Figure 3) and the custom
//!   function equations of §3.3.
//! * [`analysis`] — the class invariants of §3.2: schema, sparsity,
//!   constant folding.
//! * [`cost`] — the sparsity-aware cost model (Figure 12).
//! * [`extract`] — greedy and ILP (Figure 11) plan extraction.
//! * [`lower`](mod@lower) — RA → LA, the last step of Figure 13.
//! * [`optimizer`] / [`workload`] — the pipeline over one root or over
//!   every statement of a program in one e-graph.
//!
//! Two modules state the semantics the pipeline is checked against:
//! [`canon`] (canonical forms and their isomorphism test, §2.3 and
//! Lemma 2.2) and [`eval`] (reference LA and RA evaluators).
#![forbid(unsafe_code)]

pub mod analysis;
pub mod canon;
pub mod cost;
pub mod eval;
pub mod extract;
pub mod lang;
pub mod lower;
pub mod optimizer;
pub mod rules;
pub mod translate;
pub mod workload;

pub use analysis::{Context, Kind, MathGraph, Meta, MetaAnalysis, Schema, VarMeta};
pub use canon::{canon_of_la, canonical_form, la_equivalent, polyterm_isomorphic, Polyterm};
pub use cost::{node_cost, NnzCost};
pub use extract::{
    dag_cost, extract_greedy, extract_greedy_multi, extract_ilp, extract_ilp_multi, IlpStats,
};
pub use lang::{parse_math, Math, MathExpr};
pub use lower::{lower, lower_with_info, lower_workload, LowerError, Lowered, LoweredWorkload};
pub use optimizer::{
    plan_cost, ExtractorKind, Optimized, Optimizer, OptimizerConfig, PhaseTimings, SaturationStats,
};
pub use rules::{custom_rules, default_rules, req_rules, MathRewrite};
pub use spores_egraph::MatchingMode;
pub use translate::{
    translate, translate_workload, RootTranslation, Translation, WorkloadTranslation,
};
pub use workload::{workload_plan_cost, WorkloadOptimized};
