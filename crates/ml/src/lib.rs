//! The five evaluation workloads of the paper (§4.2) and the harness
//! that compiles them under `base` / `opt2` / SPORES and executes them.

#![forbid(unsafe_code)]

pub mod runner;
pub mod workloads;

pub use runner::{
    compile, compile_workload, execute, execute_workload, run, run_workload_mode,
    statement_requests, workload_bundle, workload_optimizer_config, CompileReport, Compiled, Mode,
    RunReport, WorkloadBundle, WorkloadCompiled,
};
pub use workloads::{als, figure15_suite, glm, mlr, pnmf, svm, Scale, Statement, Workload};
