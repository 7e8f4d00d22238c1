//! The drift gauges observe a stale host fit, and nothing acts on them.
//!
//! A fit that no longer describes the host it runs on is manufactured here:
//! the reference fit and the model's measured width fits inflated by six
//! orders of magnitude, so every prediction claims the host is a million
//! times slower than it is.  The per-primitive
//! measured/predicted EWMA gauges must expose it, and it must change nothing
//! else: embeddings stay bit-identical to the fixed-kernel oracle, and every
//! kernel runs the primitive the uninflated fit picks (uniform inflation
//! keeps the argmin).

use dynasparse_graph::{Dataset, FeatureMatrix};
use dynasparse_matrix::{DispatchPolicy, HostCalibration, PartitionSpec};
use dynasparse_model::{
    price_update_widths, GnnModel, GnnModelKind, KernelDispatcher, ReferenceExecutor,
};
use dynasparse_telemetry::{CounterId, GaugeId, Registry, SessionTelemetry, TelemetryLevel};
use std::sync::Arc;

const DISPATCHES: [CounterId; 4] = [
    CounterId::DispatchGemm,
    CounterId::DispatchSpdmm,
    CounterId::DispatchSpmm,
    CounterId::DispatchSkip,
];

/// What one `forward_dispatch` pass over a fit leaves behind.
struct Pass {
    /// The counters-level registry the pass published into.
    registry: Arc<Registry>,
    /// The `DISPATCHES` counts after every kernel, in execution order.
    dispatches: Vec<[u64; 4]>,
    embeddings: Vec<f32>,
}

/// One pass over `fit`, with the model's width fits scaled by `scale`.
fn dispatch_over(
    exec: &ReferenceExecutor,
    features: &FeatureMatrix,
    fit: HostCalibration,
    scale: f64,
) -> Pass {
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut telemetry = SessionTelemetry::new(Arc::clone(&registry));
    let mut widths = price_update_widths(exec.model());
    for width in &mut widths {
        for price in width.gemm.iter_mut().chain(&mut width.right_sparse) {
            *price *= scale;
        }
    }
    let dispatcher = KernelDispatcher::new(
        exec.model(),
        DispatchPolicy::from_regions(16),
        Some(Arc::new(fit)),
        &widths,
    );
    let mut arena = exec.arena(features.num_vertices());
    let mut dispatches = Vec::new();
    exec.forward_dispatch(
        features,
        &dispatcher,
        &mut arena,
        &PartitionSpec::new(64, 16).unwrap(),
        Some(&mut telemetry),
        |_, _, _, _, _, _| {
            dispatches.push(DISPATCHES.map(|id| registry.counter(id)));
            Ok(())
        },
    )
    .unwrap();
    Pass {
        embeddings: arena.output().to_dense().as_slice().to_vec(),
        registry,
        dispatches,
    }
}

#[test]
fn stale_calibration_moves_the_drift_gauges() {
    let ds = Dataset::Cora.spec().generate_scaled(11, 0.12);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let exec = ReferenceExecutor::new(&model, &ds.graph);
    let mut stale = HostCalibration::reference();
    for fit in [&mut stale.spdmm, &mut stale.spmm] {
        fit.work *= 1e6;
        fit.output *= 1e6;
        fit.per_row *= 1e6;
    }
    assert!(stale.is_valid());
    let got = dispatch_over(&exec, &ds.features, stale, 1e6);

    let drifts = [
        ("gemm", got.registry.gauge(GaugeId::DriftGemm)),
        ("spdmm", got.registry.gauge(GaugeId::DriftSpdmm)),
        ("spmm", got.registry.gauge(GaugeId::DriftSpmm)),
    ];
    assert!(
        drifts.iter().any(|(_, d)| d.is_finite()),
        "at least one drift gauge must be set after a dispatched pass, got {drifts:?}"
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

    let oracle = exec.forward(&ds.features).unwrap();
    assert_eq!(
        got.embeddings,
        oracle.to_dense().as_slice(),
        "a stale fit must not change the embeddings"
    );
    let fresh = dispatch_over(&exec, &ds.features, HostCalibration::reference(), 1.0);
    assert_eq!(got.dispatches.len(), model.num_kernels());
    assert_eq!(
        got.dispatches, fresh.dispatches,
        "every kernel must run the primitive the uninflated fit picks"
    );
}
