//! Cycle-level simulator of the Dynasparse FPGA accelerator (Section V of
//! the paper).
//!
//! The real system is an Alveo U250 design with seven Computation Cores
//! (Fig. 9), each containing an **Agile Computation Module** (ACM) — a
//! `psys × psys` ALU array reconfigurable between a GEMM systolic array, a
//! scatter-gather SpDMM datapath and row-wise-product SPMM pipelines — and an
//! **Auxiliary Hardware Module** (AHM) for sparsity profiling and data
//! format/layout transformation.  A MicroBlaze soft processor runs the
//! runtime system and a DDR4 memory system feeds the cores.
//!
//! This crate reproduces that hardware as two complementary models:
//!
//! * the **analytic model** ([`model`]) — exactly the Table IV performance
//!   model the paper's own Analyzer uses (cycles as a function of operand
//!   shape and density), plus the memory, AHM and soft-processor cost models;
//! * the **detailed model** ([`acm`]) — a block-level micro-architecture
//!   simulation of the three execution modes (systolic dataflow, ISN/DSN
//!   routing with per-bank conflicts, per-pipeline work imbalance) that also
//!   produces the functional result, used to validate the analytic model and
//!   the correctness of the datapath algorithms.
//!
//! [`core::ComputationCore`] combines both with double buffering, and
//! [`pool::CorePool`] provides the multi-core timeline the runtime system's
//! dynamic task scheduler (Algorithm 8) drives.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod acm;
pub mod ahm;
pub mod config;
pub mod core;
pub mod memory;
pub mod model;
pub mod pool;
pub mod primitive;
pub mod soft_processor;

pub use config::AcceleratorConfig;
pub use core::{BlockOperand, ComputationCore, PairExecution, TaskAccumulator};
pub use memory::MemoryModel;
pub use model::PerformanceModel;
pub use pool::{CorePool, ScheduleOutcome};
pub use primitive::Primitive;
pub use soft_processor::SoftProcessorModel;

/// Converts a cycle count at `frequency_mhz` into milliseconds.
pub fn cycles_to_ms(cycles: u64, frequency_mhz: f64) -> f64 {
    cycles as f64 / (frequency_mhz * 1e3)
}

/// Converts a cycle count at `frequency_mhz` into seconds.
pub fn cycles_to_seconds(cycles: u64, frequency_mhz: f64) -> f64 {
    cycles as f64 / (frequency_mhz * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_conversions_are_consistent() {
        // 250 000 cycles at 250 MHz = 1 ms.
        assert!((cycles_to_ms(250_000, 250.0) - 1.0).abs() < 1e-12);
        assert!((cycles_to_seconds(250_000, 250.0) - 1e-3).abs() < 1e-15);
        assert_eq!(cycles_to_ms(0, 250.0), 0.0);
    }
}
