//! The SPORES optimizer as a *service*: a thread-safe front-end that
//! memoizes optimization results behind shape-polymorphic plan
//! fingerprints.
//!
//! The paper's pipeline (§4.3) pays translate → saturate → extract →
//! lower on every statement, but production workloads — SystemML scripts
//! looping over epochs, model-serving fleets compiling the same script
//! per request — re-optimize the *same algebraic shapes* with only leaf
//! dimensions and sparsities drifting. This crate adds the serving layer:
//!
//! * [`OptimizerService`] — a two-tier front-end: warm hits run a
//!   synchronous lock-minimal fast path on the caller's thread (read-
//!   locked cache probe + α-instantiation, never touching the worker
//!   queue); misses coalesce through a striped single-flight table into
//!   a **bounded** worker pool with explicit backpressure. The blocking
//!   [`OptimizerService::optimize`] always succeeds (full queue → the
//!   pipeline runs inline on the caller); the non-blocking
//!   [`OptimizerService::try_optimize`] returns a hit, a pollable
//!   [`Ticket`], or a typed [`ServiceError::Overloaded`] rejection with
//!   a retry-after hint. Hits are re-checked against the cost model so
//!   they are never worse than the caller's own plan. A whole statement
//!   bundle ([`WorkloadRequest`], [`OptimizerService::optimize_workload`])
//!   takes the same flow as one cache entry.
//! * The plan cache is internal: canonical fingerprint → plan template
//!   (α-renamed leaves, one root per request root), with size-polymorphic
//!   templates reusable at any dimensions of the same shape classes and
//!   size-pinned templates keyed by exact shapes. Statements and bundles
//!   share it and its [`ServiceConfig::capacity`]. Probes take per-shard
//!   *read* locks and stamp recency with per-shard epoch atomics, so a
//!   warm cache scales with cores instead of serializing on shard mutexes.
//! * [`ServiceStats`] — hits/misses/coalesces/evictions/cost-rejections,
//!   backpressure + contention gauges (queue depth, shard-lock waits,
//!   poisoned shards, worker panics) plus a log₂ latency histogram.

#![forbid(unsafe_code)]

mod cache;
pub mod service;
pub mod stats;
pub mod workload;

pub use service::{
    OptimizerService, PlanSource, Request, Served, ServiceConfig, ServiceError, Ticket, TryOptimize,
};
pub use stats::{LatencyHistogram, ServiceStats, StatsSnapshot};
pub use workload::{ServedWorkload, WorkloadRequest};
