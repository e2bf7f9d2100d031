//! Dense and CSR sparse matrix kernels + synthetic data generators.
//!
//! This crate is the execution substrate standing in for SystemML's
//! matrix runtime: row-major dense
//! matrices, CSR sparse matrices with sparsity-exploiting kernels, a
//! unified [`Matrix`] value with SystemML-style representation selection,
//! and the synthetic generators behind every benchmark table.

#![forbid(unsafe_code)]

pub mod dense;
pub mod gen;
pub mod matrix;
pub mod sparse;

pub use dense::Dense;
pub use matrix::Matrix;
pub use sparse::Csr;
