//! Regression tests of the measured host cost model (the PR that replaced
//! the modeled Table IV regions in the host dispatcher).
//!
//! The bug this guards against: at α = 0.1 × 0.1 over a 512 × 512 × 64
//! product the region policy picks SPMM (1.195 ms measured) while SpDMM
//! measures 0.249 ms — a ~4.8x mispick in the density band GCN aggregations
//! live in.  The calibrated policy must pick SpDMM there, and plans must
//! share one process-wide fit by `Arc`.

mod common;

use common::{is_regions_child, rerun_on_the_regions_fallback};
use dynasparse::{MappingStrategy, Planner};
use dynasparse_graph::{Dataset, FeatureMatrix};
use dynasparse_matrix::DenseMatrix;
use dynasparse_matrix::{
    CalibrationConfig, DispatchPolicy, HostCalibration, HostPrimitive, ProductShape,
};
use dynasparse_model::{GnnModel, ReferenceExecutor};
use std::sync::Arc;

/// The shape and densities of the recorded mispick.
fn bench_point() -> (ProductShape, f64, f64) {
    (ProductShape::new(512, 512, 64), 0.1, 0.1)
}

/// Measures `[spdmm, spmm]` milliseconds at one grid point through the
/// calibration's own grid walk (same fixed seed as
/// `tests/timing_budgets.rs`).
fn measure_point(shape: ProductShape, ax: f64, ay: f64) -> [f64; 2] {
    let config = CalibrationConfig {
        shapes: vec![(shape.m, shape.n, shape.d)],
        densities: vec![(ax, ay)],
        reps: 3,
        seed: 42,
    };
    let sample = HostCalibration::measure_grid(&config)[0];
    [sample.spdmm_ms, sample.spmm_ms]
}

#[test]
fn calibrated_policy_fixes_the_recorded_spmm_mispick() {
    let Some(calibration) = HostCalibration::shared() else {
        // DYNASPARSE_CALIBRATION=off: nothing to calibrate against.
        return;
    };
    let regions = DispatchPolicy::from_regions(16);
    let (shape, ax, ay) = bench_point();
    // The accelerator's regions model SPMM as cheapest here (both densities
    // below 2/16) — on optimized host builds that is the recorded ~4.8x
    // mispick.
    assert_eq!(regions.decide(ax, ay), HostPrimitive::Spmm);
    let pick = calibration.cheapest(shape, ax, ay);
    // The calibrated pick must be (within measurement noise of) the
    // measured-fastest body a CSR left operand runs, on the binary actually
    // running — this holds in debug builds too, where the kernel cost
    // ratios differ.
    let measured = measure_point(shape, ax, ay);
    let best = measured[0].min(measured[1]);
    let pick_ms = match pick {
        HostPrimitive::SpDmm => measured[0],
        HostPrimitive::Spmm => measured[1],
        other => unreachable!("a CSR left operand does not run {other:?}"),
    };
    assert!(
        pick_ms <= 2.0 * best,
        "calibrated pick {pick:?} measures {pick_ms:.3} ms but the best \
         body measures {best:.3} ms (spdmm/spmm = {measured:?})"
    );
    // In optimized builds the sparse-dense row kernel wins this band by a
    // wide margin and the pick must be SpDMM — the acceptance criterion of
    // the mispick fix.  (Debug builds flatten the SpDMM/SPMM gap, which is
    // exactly why the model measures instead of assuming.)
    if !cfg!(debug_assertions) {
        assert_eq!(
            pick,
            HostPrimitive::SpDmm,
            "optimized host must pick SpDMM at α = 0.1 × 0.1 \
             (spdmm {:.4} ms, spmm {:.4} ms predicted)",
            calibration.predict(HostPrimitive::SpDmm, shape, ax, ay),
            calibration.predict(HostPrimitive::Spmm, shape, ax, ay),
        );
    }
}

#[test]
fn plans_share_one_process_wide_calibration() {
    if HostCalibration::shared().is_none() {
        return; // DYNASPARSE_CALIBRATION=off
    }
    let ds = Dataset::Cora.spec().generate_scaled(5, 0.1);
    let model = GnnModel::gcn(ds.features.dim(), 8, ds.spec.num_classes, 1);
    let plan_a = Planner::default().plan(&model, &ds).unwrap();
    let plan_b = Planner::default().plan(&model, &ds).unwrap();
    let (a, b) = (plan_a.calibration().unwrap(), plan_b.calibration().unwrap());
    assert!(
        Arc::ptr_eq(a, b),
        "every plan must share the process-wide measured fit, not re-measure"
    );
    // Serving sessions over a shared plan co-own the same fit (no clone).
    let shared = Planner::default().plan_shared(&model, &ds).unwrap();
    let before = Arc::strong_count(shared.calibration().unwrap());
    let s0 = shared.session_shared(&[MappingStrategy::Dynamic]);
    let s1 = shared.session_shared(&[MappingStrategy::Dynamic]);
    assert!(Arc::strong_count(shared.calibration().unwrap()) >= before);
    drop((s0, s1));
}

#[test]
fn a_fresh_dense_request_is_not_counted_to_pick_an_update_body() {
    // The dense Update's pick reads `H`'s density from a count that already
    // exists, or, for a fresh request, from the plan's compile-time input
    // density: serving a fresh dense request never counts it (the kernels'
    // own pass profiles it without touching its cached count).
    let ds = Dataset::Cora.spec().generate_scaled(5, 0.1);
    let model = GnnModel::gcn(ds.features.dim(), 16, ds.spec.num_classes, 1);
    let plan = Planner::default().plan(&model, &ds).unwrap();
    let calibrated = plan.calibration().is_some();
    let priced = if calibrated { model.weights.len() } else { 0 };
    assert_eq!(plan.update_fits().len(), priced);
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    let dense = ds.features.to_dense();
    let fresh =
        DenseMatrix::from_row_major(dense.rows(), dense.cols(), dense.as_slice().to_vec()).unwrap();
    assert_eq!(fresh.cached_nnz(), None);
    let fresh = FeatureMatrix::Dense(fresh);
    let report = session.infer(&fresh).unwrap();
    match &fresh {
        FeatureMatrix::Dense(fresh) => assert_eq!(fresh.cached_nnz(), None),
        FeatureMatrix::Sparse(_) => unreachable!(),
    }
    assert_eq!(report.predicted_kernel_ms > 0.0, calibrated);
    rerun_on_the_regions_fallback("a_fresh_dense_request_is_not_counted_to_pick_an_update_body");
}

#[test]
fn regions_cost_model_disables_calibration() {
    // `DYNASPARSE_CALIBRATION=off` is the one route onto the regions: no
    // fit is measured, no plan carries one, and nothing is priced.
    if !is_regions_child() {
        return rerun_on_the_regions_fallback("regions_cost_model_disables_calibration");
    }
    assert!(HostCalibration::shared().is_none());
    let ds = Dataset::Cora.spec().generate_scaled(5, 0.1);
    let model = GnnModel::gcn(ds.features.dim(), 8, ds.spec.num_classes, 1);
    let plan = Planner::default().plan(&model, &ds).unwrap();
    assert!(plan.calibration().is_none());
    // The regions plan still serves (it is the oracle and fallback).
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    let report = session.infer(&ds.features).unwrap();
    assert_eq!(report.predicted_kernel_ms, 0.0);
}

#[test]
fn calibrated_and_regions_sessions_are_bit_identical() {
    // The cost model only picks *which* host kernel runs; every route
    // accumulates in the same k-order, so embeddings cannot differ.  Both
    // the calibrated parent and the regions child equal the fixed-kernel
    // oracle bit for bit.
    let ds = Dataset::Cora.spec().generate_scaled(7, 0.15);
    let model = GnnModel::gcn(ds.features.dim(), 16, ds.spec.num_classes, 3);
    let want = ReferenceExecutor::new(&model, &ds.graph)
        .forward(&ds.features)
        .unwrap();
    let plan = Planner::default().plan(&model, &ds).unwrap();
    if is_regions_child() {
        assert!(plan.calibration().is_none());
    }
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    let got = session.infer(&ds.features).unwrap().output_embeddings;
    assert_eq!(got.to_dense().as_slice(), want.to_dense().as_slice());
    rerun_on_the_regions_fallback("calibrated_and_regions_sessions_are_bit_identical");
}
