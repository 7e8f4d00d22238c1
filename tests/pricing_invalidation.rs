//! Drift-triggered invalidation of the pricing cache.
//!
//! An online recalibration rescales the host fit, which changes the
//! calibration fingerprint baked into every pricing key — so all resident
//! entries must stop matching (no hit may ever replay pricing derived under
//! the superseded fit), and steady-state hits must resume once the repaired
//! fit's keys repopulate.
//!
//! This lives in its **own test binary**, like `telemetry_drift.rs` and for
//! the same reason: it manufactures a stale `DYNASPARSE_CALIBRATION` fit,
//! and the loaded calibration is a process-wide `OnceLock` — sibling test
//! binaries must not inherit it.

use dynasparse::{
    EngineOptions, HostExecutionOptions, MappingStrategy, Planner, Registry, TelemetryLevel,
};
use dynasparse_graph::Dataset;
use dynasparse_matrix::HostCalibration;
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_telemetry::CounterId;
use std::sync::Arc;

/// Persists the 1e6x-inflated reference fit and points
/// `DYNASPARSE_CALIBRATION` at it (same fixture as `telemetry_drift.rs`,
/// separate file so parallel binaries never race on the JSON).
fn install_stale_calibration() {
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
    let path = std::env::temp_dir().join("dynasparse_stale_pricing_calibration.json");
    let path = path.to_str().expect("utf-8 temp path").to_string();
    stale.save(&path).expect("persist the stale fit");
    std::env::set_var("DYNASPARSE_CALIBRATION", &path);
}

fn fixture() -> (dynasparse_graph::GraphDataset, GnnModel) {
    let ds = Dataset::Cora.spec().generate_scaled(11, 0.12);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    (ds, model)
}

#[test]
fn recalibration_flushes_the_cache_then_hits_resume() {
    install_stale_calibration();
    let (ds, model) = fixture();

    // Default host options: recalibrate on, bucketed cache on.  Serving the
    // same request repeatedly would hit from request 2 onward — unless a
    // drift-triggered rescale swaps the fit and flushes the cache.
    let plan = Planner::default().plan(&model, &ds).unwrap();
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));

    let misses_after_first = {
        session.infer(&ds.features).unwrap();
        registry.counter(CounterId::PricingMiss)
    };
    assert!(misses_after_first > 0, "a cold cache must miss");

    // Keep serving the identical request until the stale fit has been
    // repaired at least once.  Exactly *when* the drift EWMA crosses the
    // band depends on host timing, so loop rather than pin a request index.
    let mut recalibrations = 0;
    for _ in 0..12 {
        session.infer(&ds.features).unwrap();
        recalibrations = registry.counter(CounterId::Recalibrations);
        if recalibrations > 0 {
            break;
        }
    }
    assert!(
        recalibrations > 0,
        "a 1e6x-stale fit must trigger online recalibration"
    );
    let misses_after_recal = registry.counter(CounterId::PricingMiss);
    assert!(
        misses_after_recal > misses_after_first,
        "the repaired fit changes the calibration fingerprint, so the \
         repeated request must re-miss ({misses_after_first} -> {misses_after_recal})"
    );

    // Once the gauges settle inside the drift band, the repaired fit's keys
    // are stable and the identical request must go back to pure hits.  Give
    // stragglers (late recalibrations of other primitives) a few requests.
    let mut saw_pure_hit_request = false;
    for _ in 0..10 {
        let hits = registry.counter(CounterId::PricingHit);
        let misses = registry.counter(CounterId::PricingMiss);
        session.infer(&ds.features).unwrap();
        let dh = registry.counter(CounterId::PricingHit) - hits;
        let dm = registry.counter(CounterId::PricingMiss) - misses;
        if dm == 0 && dh > 0 {
            saw_pure_hit_request = true;
            break;
        }
    }
    assert!(
        saw_pure_hit_request,
        "steady-state hits must resume after the fit is repaired"
    );
}

#[test]
fn pinned_calibration_never_invalidates() {
    install_stale_calibration();
    let (ds, model) = fixture();

    // Control: recalibration pinned off.  However stale the fit, the
    // calibration fingerprint never changes, so every repeat is a pure hit.
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
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));

    session.infer(&ds.features).unwrap();
    let misses = registry.counter(CounterId::PricingMiss);
    for _ in 0..5 {
        session.infer(&ds.features).unwrap();
    }
    assert_eq!(
        registry.counter(CounterId::PricingMiss),
        misses,
        "with the fingerprint pinned, repeats must never re-miss"
    );
    assert_eq!(
        registry.counter(CounterId::PricingHit),
        5 * misses,
        "every kernel-strategy lookup must hit on each of the 5 repeats"
    );
    assert_eq!(registry.counter(CounterId::Recalibrations), 0);
}
