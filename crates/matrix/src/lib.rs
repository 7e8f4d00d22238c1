//! Dense and sparse matrix infrastructure for the Dynasparse reproduction.
//!
//! The Dynasparse accelerator (Zhang & Prasanna, IPDPS 2023) decouples GNN
//! *kernels* (feature aggregation and feature transformation) from the basic
//! computation *primitives* — dense-dense matrix multiplication (GEMM),
//! sparse-dense matrix multiplication (SpDMM) and sparse-sparse matrix
//! multiplication (SPMM).  Each primitive consumes its operands in a specific
//! data *format* (dense array or COO) and *layout* (row-major or
//! column-major), see Table III of the paper.
//!
//! This crate provides everything below the accelerator model:
//!
//! * [`DenseMatrix`] — a dense matrix with an explicit storage [`Layout`];
//! * [`CooMatrix`] — the coordinate sparse format the paper uses on-chip;
//! * [`CsrMatrix`] — compressed sparse rows, used by the functional executor
//!   and the host-side (CPU/GPU baseline) kernels;
//! * format transformation ([`format`](mod@format)) mirroring the Dense-to-Sparse /
//!   Sparse-to-Dense hardware modules;
//! * layout transformation ([`layout`]) mirroring the streaming-permutation
//!   Layout Transformation Unit;
//! * sparsity profiling ([`profile`]) mirroring the adder-tree Sparsity
//!   Profiler;
//! * block partitioning views ([`partition`]) implementing the
//!   block / fiber / subfiber scheme of Fig. 5;
//! * reference functional kernels ([`ops`]) for GEMM, SpDMM and SPMM used
//!   both for correctness oracles and for the host baselines.
//!
//! All numeric data is `f32`, matching the single-precision arithmetic of the
//! FPGA design; indices are `u32` (the paper's graphs fit comfortably).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod dispatch;
pub mod error;
pub mod format;
mod isa;
pub mod layout;
pub mod ops;
pub mod partition;
pub mod pool;
pub mod profile;
pub mod random;

pub use calibrate::{CalibrationConfig, HostCalibration, PrimitiveFit, ProductShape};
pub use coo::{CooEntry, CooMatrix};
pub use csr::{CsrMatrix, SpGemmScratch};
pub use dense::DenseMatrix;
pub use dispatch::{sanitize_density, DispatchPolicy, HostPrimitive};
pub use error::{MatrixError, Result};
pub use isa::kernel_isa;
pub use layout::Layout;
pub use partition::{row_blocks, BlockGrid, BlockIndex, PartitionSpec};
pub use pool::ThreadPool;
pub use profile::{density, DensityProfile};

/// Canonical zero tolerance: an element whose absolute value is below this
/// threshold is treated as a structural zero when profiling density or
/// converting to sparse formats.
///
/// The hardware Sparsity Profiler compares against exact zero; the reference
/// executor produces exact zeros for pruned weights and post-ReLU
/// activations, so a tiny epsilon only guards against `-0.0` and denormal
/// noise introduced by accumulation reordering.
pub const ZERO_EPS: f32 = 0.0;

/// Returns `true` if `v` is treated as a non-zero (stored) element.
#[inline]
pub fn is_nonzero(v: f32) -> bool {
    v.abs() > ZERO_EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonzero_predicate_matches_paper_semantics() {
        assert!(!is_nonzero(0.0));
        assert!(!is_nonzero(-0.0));
        assert!(is_nonzero(1.0e-30));
        assert!(is_nonzero(-3.5));
    }
}
