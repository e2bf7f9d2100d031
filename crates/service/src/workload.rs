//! Workload-level requests: whole programs served as one cache entry.
//!
//! A workload request carries an SSA statement bundle
//! ([`spores_ir::WorkloadExpr`]) and is optimized by
//! [`spores_core::Optimizer::optimize_workload`]: one shared e-graph,
//! one saturation pass, one multi-root plan with cross-statement CSE.
//! The cache key is the *workload-level* fingerprint
//! ([`spores_ir::fingerprint_workload`]) — the same α-renaming a
//! statement's fingerprint uses, applied over the multi-root DAG plus the
//! def-use wiring of statement names — so a repeated workload hits the
//! cache as ONE entry, and a hit re-instantiates the whole multi-root
//! template (sharing preserved) without touching saturation.
//!
//! A bundle takes the statement's request flow end to end
//! ([`crate::OptimizerService::optimize_workload`]): the same cache and
//! capacity, the same cost re-check and remembered verdicts on a hit, and
//! on a miss the same single-flight table, bounded worker queue and typed
//! [`crate::ServiceError::WorkerPanic`].

use crate::service::PlanSource;
use spores_core::PhaseTimings;
use spores_core::VarMeta;
use spores_ir::{ExprArena, NodeId, Symbol, WorkloadExpr};
use std::collections::HashMap;
use std::time::Duration;

/// One workload optimization request: an SSA bundle plus metadata for
/// every leaf it reads (inputs *and* version symbols of earlier roots).
#[derive(Clone, Debug)]
pub struct WorkloadRequest {
    pub workload: WorkloadExpr,
    pub vars: HashMap<Symbol, VarMeta>,
}

impl WorkloadRequest {
    pub fn new(workload: WorkloadExpr, vars: HashMap<Symbol, VarMeta>) -> WorkloadRequest {
        WorkloadRequest { workload, vars }
    }
}

/// A served workload plan: the shared multi-root arena plus provenance.
#[derive(Clone, Debug)]
pub struct ServedWorkload {
    /// The shared plan arena (common subplans bound once).
    pub arena: ExprArena,
    /// Per-statement `(name, plan root)` in request order, names taken
    /// from the caller's bundle.
    pub roots: Vec<(Symbol, NodeId)>,
    /// Summed [`spores_core::plan_cost`] of the served roots at the
    /// caller's metadata. A hit reports the value remembered for that
    /// exact metadata — for the producing request's own, the miss's value.
    pub cost: f64,
    pub source: PlanSource,
    pub latency: Duration,
    /// Pipeline phase timings (of the cached run, for hits).
    pub timings: PhaseTimings,
    /// Saturation facts of the producing run (cached, for hits).
    pub converged: bool,
    pub timed_out: bool,
    pub e_nodes: usize,
}
