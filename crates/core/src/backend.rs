//! The modeled-accelerator execution backend.
//!
//! [`ModeledAccelBackend`] routes and prices the block-granular executor's
//! products with the accelerator's Table IV performance model (the paper's
//! Analyzer decision) instead of the measured host calibration.  An
//! [`ExecBackend`] only decides and prices — the executor's one block loop
//! runs the kernels — so the *values* a session computes are bit-identical to
//! the host backend; only which primitive runs per block and what each block
//! is predicted to cost differ.
//! This is the backend behind `DYNASPARSE_BACKEND=accel` and
//! [`BackendKind::ModeledAccel`](dynasparse_model::BackendKind).

use dynasparse_accel::{cycles_to_ms, AcceleratorConfig, PerformanceModel, Primitive};
use dynasparse_matrix::{sanitize_density, HostPrimitive, ProductShape};
use dynasparse_model::{BackendKind, ExecBackend};

/// Execution backend that decides with the accelerator's cycle model.
#[derive(Debug, Clone, Copy)]
pub struct ModeledAccelBackend {
    model: PerformanceModel,
    frequency_mhz: f64,
}

impl ModeledAccelBackend {
    /// Builds the backend from an accelerator configuration (ALU dimension
    /// and core clock).
    pub fn new(config: &AcceleratorConfig) -> Self {
        ModeledAccelBackend {
            model: PerformanceModel::from_config(config),
            frequency_mhz: config.frequency_mhz,
        }
    }

    /// The wrapped Table IV performance model.
    pub fn performance_model(&self) -> &PerformanceModel {
        &self.model
    }
}

fn host_primitive(p: Primitive) -> HostPrimitive {
    match p {
        Primitive::Gemm => HostPrimitive::Gemm,
        Primitive::SpDmm => HostPrimitive::SpDmm,
        Primitive::Spmm => HostPrimitive::Spmm,
    }
}

impl ExecBackend for ModeledAccelBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::ModeledAccel
    }

    fn decide(&self, shape: ProductShape, alpha_x: f64, alpha_y: f64) -> (HostPrimitive, bool) {
        if shape.is_empty() {
            return (HostPrimitive::Skip, false);
        }
        let ax = sanitize_density(alpha_x);
        let ay = sanitize_density(alpha_y);
        match self.model.best_primitive(ax, ay) {
            Some(p) => (host_primitive(p), false),
            None => (HostPrimitive::Skip, false),
        }
    }

    fn predict_ms(
        &self,
        prim: HostPrimitive,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> f64 {
        let accel_prim = match prim {
            HostPrimitive::Gemm => Primitive::Gemm,
            // Table IV has one SpDMM, charged by the sparser operand
            // whichever side it is on.
            HostPrimitive::SpDmm | HostPrimitive::SpDmmRight => Primitive::SpDmm,
            HostPrimitive::Spmm => Primitive::Spmm,
            HostPrimitive::Skip => return 0.0,
        };
        let cycles = self.model.execution_cycles(
            accel_prim,
            shape.m,
            shape.n,
            shape.d,
            sanitize_density(alpha_x),
            sanitize_density(alpha_y),
        );
        cycles_to_ms(cycles, self.frequency_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_follow_the_table_iv_regions() {
        let b = ModeledAccelBackend::new(&AcceleratorConfig::default());
        let shape = ProductShape::new(64, 64, 16);
        assert_eq!(b.decide(shape, 0.9, 0.8).0, HostPrimitive::Gemm);
        assert_eq!(b.decide(shape, 0.01, 1.0).0, HostPrimitive::SpDmm);
        assert_eq!(b.decide(shape, 0.05, 0.1).0, HostPrimitive::Spmm);
        assert_eq!(b.decide(shape, 0.0, 0.5).0, HostPrimitive::Skip);
        assert_eq!(
            b.decide(ProductShape::new(0, 64, 16), 0.9, 0.9).0,
            HostPrimitive::Skip
        );
    }

    #[test]
    fn predictions_are_finite_wall_clock_milliseconds() {
        let b = ModeledAccelBackend::new(&AcceleratorConfig::default());
        let shape = ProductShape::new(256, 256, 128);
        let gemm = b.predict_ms(HostPrimitive::Gemm, shape, 1.0, 1.0);
        assert!(gemm.is_finite() && gemm > 0.0);
        // 256^2·128 / 16² MACs/cycle at 250 MHz.
        let cycles = (256.0f64 * 256.0 * 128.0 / 256.0).ceil();
        assert!((gemm - cycles / 250e3).abs() < 1e-9);
        assert_eq!(b.predict_ms(HostPrimitive::Skip, shape, 1.0, 1.0), 0.0);
    }

    #[test]
    fn backend_has_no_host_calibration() {
        let b = ModeledAccelBackend::new(&AcceleratorConfig::default());
        assert_eq!(b.kind(), BackendKind::ModeledAccel);
        assert!(b.calibration().is_none());
    }
}
