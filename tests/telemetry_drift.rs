//! Predicted-vs-measured drift detection against a stale calibration.
//!
//! The drift gauges exist to catch exactly one failure mode: a persisted
//! `DYNASPARSE_CALIBRATION` fit that no longer describes the host it runs
//! on.  These tests manufacture that situation — the reference fit inflated
//! by six orders of magnitude — and prove (a) with online recalibration
//! pinned off, the per-primitive EWMA gauges move far away from the
//! calibrated-correctly reading (~1.0), and (b) with recalibration on (the
//! default), the session rescales the stale fit back and the gauges recover.
//!
//! This lives in its **own test binary** on purpose: the shared calibration
//! is a process-wide `OnceLock`, so the environment variable must be set
//! before anything in the process plans.  Sibling integration tests run in
//! other binaries and keep their measured (or default) calibration.

use dynasparse::{
    EngineOptions, HostExecutionOptions, MappingStrategy, Planner, Registry, TelemetryLevel,
};
use dynasparse_graph::Dataset;
use dynasparse_matrix::HostCalibration;
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_telemetry::GaugeId;
use std::sync::Arc;

/// Persists the 1e6x-inflated reference fit and points
/// `DYNASPARSE_CALIBRATION` at it.  Idempotent — both tests share the
/// process-wide `OnceLock`, and both want the stale fit loaded.
fn install_stale_calibration() {
    // A deliberately stale fit: every cost curve of the reference fixture
    // inflated 1e6x, so each prediction claims the host is a million times
    // slower than it is.  Uniform inflation keeps the argmin (and therefore
    // the dispatch decisions) unchanged — only the drift should notice.
    let mut stale = HostCalibration::reference();
    for fit in [
        &mut stale.gemm,
        &mut stale.spdmm,
        &mut stale.spdmm_right,
        &mut stale.spmm,
    ] {
        fit.work *= 1e6;
        fit.output *= 1e6;
        fit.per_row *= 1e6;
    }
    assert!(stale.is_valid(), "the stale fit must still parse as valid");
    let path = std::env::temp_dir().join("dynasparse_stale_calibration.json");
    let path = path.to_str().expect("utf-8 temp path").to_string();
    stale.save(&path).expect("persist the stale fit");
    std::env::set_var("DYNASPARSE_CALIBRATION", &path);
}

#[test]
fn stale_calibration_moves_the_drift_gauges() {
    install_stale_calibration();

    let ds = Dataset::Cora.spec().generate_scaled(11, 0.12);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    // Recalibration pinned off: this test observes the *raw* drift signal —
    // with the default `recalibrate: true` the session would rescale the
    // stale fit after the first out-of-band request and the gauges would
    // recover to ~1.0 (which `recalibration_repairs_a_stale_fit` proves).
    let plan = Planner::new(
        EngineOptions::builder()
            .host(HostExecutionOptions {
                recalibrate: false,
                ..Default::default()
            })
            .build(),
    )
    .plan(&model, &ds)
    .unwrap();
    let calibration = plan
        .calibration()
        .expect("the env var points at a loadable fit");
    assert!(
        calibration.gemm.work >= 0.5,
        "the plan must have loaded the stale fit, not re-measured \
         (gemm.work = {})",
        calibration.gemm.work
    );

    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));
    for _ in 0..3 {
        session.infer(&ds.features).unwrap();
    }

    let drifts = [
        ("gemm", registry.gauge(GaugeId::DriftGemm)),
        ("spdmm", registry.gauge(GaugeId::DriftSpdmm)),
        ("spmm", registry.gauge(GaugeId::DriftSpmm)),
    ];
    assert!(
        drifts.iter().any(|(_, d)| d.is_finite()),
        "at least one drift gauge must be set after dispatched requests, got {drifts:?}"
    );
    for (name, drift) in drifts {
        if drift.is_finite() {
            // measured/predicted against a 1e6x-inflated fit reads many
            // orders of magnitude below the healthy ~1.0; 0.5 leaves huge
            // slack for host noise while still proving the gauge moved.
            assert!(
                (0.0..0.5).contains(&drift),
                "drift gauge {name} must expose the stale fit, got {drift}"
            );
        }
    }
}

#[test]
fn recalibration_repairs_a_stale_fit() {
    install_stale_calibration();

    let ds = Dataset::Cora.spec().generate_scaled(11, 0.12);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    // Default options: `recalibrate: true`.  The first served request's
    // drift EWMA lands far below `DRIFT_BAND`, which rescales the offending
    // primitive's fit by the observed ratio, swaps it into the dispatcher
    // and resets the gauge — so after a few requests every finite gauge
    // must have recovered toward the healthy ~1.0 reading.
    let plan = Planner::default().plan(&model, &ds).unwrap();

    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));
    for _ in 0..8 {
        session.infer(&ds.features).unwrap();
    }

    let drifts = [
        ("gemm", registry.gauge(GaugeId::DriftGemm)),
        ("spdmm", registry.gauge(GaugeId::DriftSpdmm)),
        ("spmm", registry.gauge(GaugeId::DriftSpmm)),
    ];
    for (name, drift) in drifts {
        if drift.is_finite() {
            // A gauge that is finite after recalibration reflects the
            // *rescaled* fit.  The 1e6x staleness would read < 1e-3; the
            // generous band below only needs to prove the repair happened,
            // not that the one-shot rescale is perfectly converged.
            assert!(
                drift > 0.05,
                "drift gauge {name} must recover after online recalibration, got {drift}"
            );
        }
    }
}
