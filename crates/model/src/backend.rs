//! Execution backends: who decides and prices a block product.
//!
//! The executor (see [`crate::arena`]) separates *what* a kernel computes
//! from *who decides and prices it*.  An [`ExecBackend`] is that decision
//! surface and nothing else — `decide` picks the primitive for one
//! (sub-)product from its runtime densities, `predict_ms` prices it — while
//! the block kernels themselves belong to the executor's one block loop.
//! Swapping backends therefore changes *routing and pricing only*: every
//! route accumulates each output element in the same `k`-increasing order,
//! keeping results bit-identical across backends.
//!
//! * [`HostBackend`] wraps the host cost models of `dynasparse-matrix`: the
//!   measured [`CalibratedPolicy`] argmin when a calibration is supplied,
//!   the Table IV [`RegionPolicy`] otherwise.
//! * `ModeledAccelBackend` (in `dynasparse-core`, which can see the
//!   accelerator crate) prices the same products with the accelerator's
//!   cycle-accurate performance model instead.

use dynasparse_matrix::{
    CalibratedPolicy, CostModel, DispatchPolicy, HostCalibration, HostPrimitive, ProductShape,
    RegionPolicy,
};
use std::sync::Arc;

/// Environment variable selecting the execution backend (`host` or
/// `accel`/`modeled-accel`); `dynasparse`'s `HostExecutionOptions` applies
/// it where engine options enter a planner or template.
pub const BACKEND_ENV: &str = "DYNASPARSE_BACKEND";

/// Which backend family prices and routes kernel products.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum BackendKind {
    /// Host CPU kernels priced by the measured host calibration (or the
    /// Table IV regions when no calibration is available).
    #[default]
    Host,
    /// Host CPU kernels routed and priced by the modeled accelerator's
    /// cycle-accurate performance model (the paper's Analyzer decision).
    ModeledAccel,
}

impl BackendKind {
    /// Stable lowercase label for logs, fingerprints and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Host => "host",
            BackendKind::ModeledAccel => "modeled-accel",
        }
    }

    /// Stable one-byte code for cache fingerprints.
    pub fn code(self) -> u8 {
        match self {
            BackendKind::Host => 0,
            BackendKind::ModeledAccel => 1,
        }
    }

    /// Parses a backend name as accepted by [`BACKEND_ENV`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "host" | "cpu" => Some(BackendKind::Host),
            "accel" | "modeled" | "modeled-accel" | "modeled_accel" => {
                Some(BackendKind::ModeledAccel)
            }
            _ => None,
        }
    }
}

/// One execution backend: the decision and pricing surface of the
/// block-granular dispatcher.
///
/// Contract for implementors:
///
/// * `decide` must treat empty shapes and non-positive densities as
///   [`HostPrimitive::Skip`] (the caller zero-fills the block rows).
/// * `predict_ms` returns `NaN` when the backend cannot price the primitive
///   in wall-clock terms (drift tracking skips non-finite predictions).
pub trait ExecBackend: std::fmt::Debug + Send + Sync {
    /// Which backend family this is (fingerprints and reports key on it).
    fn kind(&self) -> BackendKind;

    /// Picks the primitive for one (sub-)product, additionally reporting
    /// whether a calibrated decision fell back to the Table IV regions on a
    /// degenerate fit (always `false` for backends that never predict).
    fn decide(&self, shape: ProductShape, alpha_x: f64, alpha_y: f64) -> (HostPrimitive, bool);

    /// Predicted milliseconds of executing `prim` on this product, or `NaN`
    /// when the backend has no wall-clock model for it.
    fn predict_ms(
        &self,
        prim: HostPrimitive,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> f64;

    /// The measured host calibration decisions come from, if any (used for
    /// drift-triggered recalibration; `None` for non-calibrated backends).
    fn calibration(&self) -> Option<&Arc<HostCalibration>> {
        None
    }
}

/// Which cost model a host backend decides with: the measured host
/// calibration (argmin over predicted milliseconds) or the Table IV regions
/// of the modeled accelerator (the oracle and fallback).
#[derive(Debug)]
enum HostCostModel {
    Regions(RegionPolicy),
    Calibrated(CalibratedPolicy),
}

/// The host execution backend: decisions from the measured host calibration
/// when one is supplied, from the Table IV regions otherwise.
#[derive(Debug)]
pub struct HostBackend {
    cost: HostCostModel,
}

impl HostBackend {
    /// Builds the host backend.  `policy` supplies the region fallback (and
    /// the regions themselves when `calibration` is `None`).
    pub fn new(policy: DispatchPolicy, calibration: Option<Arc<HostCalibration>>) -> Self {
        let cost = match calibration {
            Some(calibration) => {
                HostCostModel::Calibrated(CalibratedPolicy::new(calibration, policy))
            }
            None => HostCostModel::Regions(RegionPolicy::new(policy)),
        };
        HostBackend { cost }
    }

    /// Whether decisions come from a measured host calibration.
    pub fn is_calibrated(&self) -> bool {
        matches!(self.cost, HostCostModel::Calibrated(_))
    }
}

impl ExecBackend for HostBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Host
    }

    fn decide(&self, shape: ProductShape, alpha_x: f64, alpha_y: f64) -> (HostPrimitive, bool) {
        match &self.cost {
            HostCostModel::Regions(r) => (r.decide(shape, alpha_x, alpha_y), false),
            HostCostModel::Calibrated(c) => c.decide_with_fallback(shape, alpha_x, alpha_y),
        }
    }

    fn predict_ms(
        &self,
        prim: HostPrimitive,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> f64 {
        match &self.cost {
            // The Table IV regions predict MAC counts, not wall time.
            HostCostModel::Regions(_) => f64::NAN,
            HostCostModel::Calibrated(c) => c.predict(prim, shape, alpha_x, alpha_y),
        }
    }

    fn calibration(&self) -> Option<&Arc<HostCalibration>> {
        match &self.cost {
            HostCostModel::Calibrated(c) => Some(c.calibration()),
            HostCostModel::Regions(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_and_codes_are_stable() {
        assert_eq!(BackendKind::Host.label(), "host");
        assert_eq!(BackendKind::ModeledAccel.label(), "modeled-accel");
        assert_ne!(BackendKind::Host.code(), BackendKind::ModeledAccel.code());
    }

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(BackendKind::parse("host"), Some(BackendKind::Host));
        assert_eq!(BackendKind::parse("CPU"), Some(BackendKind::Host));
        assert_eq!(BackendKind::parse("accel"), Some(BackendKind::ModeledAccel));
        assert_eq!(
            BackendKind::parse("Modeled-Accel"),
            Some(BackendKind::ModeledAccel)
        );
        assert_eq!(BackendKind::parse("gpu"), None);
    }

    #[test]
    fn host_backend_without_calibration_uses_the_regions() {
        let b = HostBackend::new(DispatchPolicy::from_regions(16), None);
        assert!(!b.is_calibrated());
        assert!(b.calibration().is_none());
        let shape = ProductShape::new(32, 32, 8);
        let (prim, fell_back) = b.decide(shape, 0.9, 0.8);
        assert_eq!(prim, HostPrimitive::Gemm);
        assert!(!fell_back);
        assert!(b.predict_ms(prim, shape, 0.9, 0.8).is_nan());
    }

    #[test]
    fn host_backend_with_calibration_predicts_finite_costs() {
        let b = HostBackend::new(
            DispatchPolicy::from_regions(16),
            Some(Arc::new(HostCalibration::reference())),
        );
        assert!(b.is_calibrated());
        assert!(b.calibration().is_some());
        let shape = ProductShape::new(64, 64, 16);
        for prim in [
            HostPrimitive::Gemm,
            HostPrimitive::SpDmm,
            HostPrimitive::Spmm,
        ] {
            assert!(b.predict_ms(prim, shape, 0.3, 0.3).is_finite());
        }
        let (prim, _) = b.decide(shape, 0.0, 0.5);
        assert_eq!(prim, HostPrimitive::Skip);
    }
}
