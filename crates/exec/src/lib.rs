//! LA plan execution engine.
//!
//! Stands in for the SystemML runtime: interprets `spores_ir` expression
//! DAGs over `spores_matrix` values with sparse-aware kernels, fused
//! operators (`wsloss`, `wcemm`, `wdivmm` and `mmchain` detected in the
//! plan; `sprop` and `sigmoid` emitted by the optimizer) and
//! deterministic FLOP/allocation accounting for the benchmark tables.

#![forbid(unsafe_code)]

pub mod env;
pub mod exec;
pub mod stats;

pub use env::{Bindings, Overlay};
pub use exec::{ExecConfig, ExecError, Executor};
pub use stats::ExecStats;
