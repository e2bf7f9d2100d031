//! Execution cost accounting.
//!
//! Figure 15/17 compare *run time*; our substrate reports both wall-clock
//! time and deterministic counters (floating-point operations, cells
//! allocated for intermediates) so the benchmark tables are reproducible
//! on any machine.

use std::ops::AddAssign;

/// Deterministic execution counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Cells allocated for intermediate results.
    pub cells_allocated: u64,
    /// Number of intermediate matrices materialized.
    pub intermediates: u64,
    /// Number of fused-operator executions (mmchain/sprop/wsloss).
    pub fused_ops: u64,
    /// Cells the executor itself deep-copied, on top of what the kernels
    /// allocated (the counters above): a root value that is only another
    /// name for an input or for an earlier root. Zero for any plan whose
    /// roots all compute something.
    pub cells_copied: u64,
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.flops += rhs.flops;
        self.cells_allocated += rhs.cells_allocated;
        self.intermediates += rhs.intermediates;
        self.fused_ops += rhs.fused_ops;
        self.cells_copied += rhs.cells_copied;
    }
}
