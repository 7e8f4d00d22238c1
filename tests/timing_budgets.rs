//! Timing budgets: three wall-clock bounds the host kernels, the template
//! path and the telemetry layer must stay inside.
//!
//! - `calibrated_pick_is_within_2x_of_the_measured_best`: over a fixed-seed
//!   density grid at 512 × 512 × 64 the calibrated pick costs at most 2x the
//!   measured best kernel, and α = 0.1 × 0.1 picks SpDMM outright.
//! - `template_instantiation_is_5x_faster_than_cold_planning`: on sampled
//!   Cora-quarter ego-nets a resident `ModelTemplate` acquires a servable
//!   plan at least 5x faster per request than a cold `Planner::plan`.
//! - `counters_telemetry_costs_at_most_3_percent`: counters-level
//!   telemetry costs at most 3 % of steady-state Dynamic-priced
//!   `Session::infer`.
//!
//! Timing means nothing in an unoptimized build, so every test returns early
//! unless built with `--release`; and a timing run must not share the CPU
//! with another, so the tests also take one lock.  Run them as
//!
//! ```text
//! cargo test --release --test timing_budgets -- --test-threads=1
//! ```
//!
//! Every other number these measurements could print is a perf-ledger row
//! (`core.plan_ms`, `core.instantiate_us`, `telemetry.overhead_share`, …).

use dynasparse::{
    EngineOptions, MappingStrategy, ModelTemplate, Planner, Registry, Session, TelemetryLevel,
};
use dynasparse_graph::{Dataset, FeatureMatrix, Graph, GraphDataset, NeighborSampler};
use dynasparse_matrix::{
    CalibrationConfig, DispatchPolicy, HostCalibration, HostPrimitive, ProductShape,
};
use dynasparse_model::{GnnModel, GnnModelKind};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

static ALONE: Mutex<()> = Mutex::new(());

/// The lock every timing test holds, or `None` in a debug build, where the
/// test has nothing to time.
fn timing_run(test: &str) -> Option<MutexGuard<'static, ()>> {
    if cfg!(debug_assertions) {
        println!("{test}: debug build, nothing timed (run with --release)");
        return None;
    }
    Some(
        ALONE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    )
}

#[test]
fn calibrated_pick_is_within_2x_of_the_measured_best() {
    let Some(_alone) = timing_run("calibrated_pick_is_within_2x_of_the_measured_best") else {
        return;
    };
    let Some(calibration) = HostCalibration::shared() else {
        println!("DYNASPARSE_CALIBRATION=off: no calibrated pick to check");
        return;
    };
    let regions = DispatchPolicy::from_regions(16);
    // Ground truth measured by the calibration's own grid walk.
    let config = CalibrationConfig {
        shapes: vec![(512, 512, 64)],
        densities: vec![
            (1.0, 1.0),
            (0.5, 1.0),
            (0.1, 1.0),
            (0.01, 1.0),
            (0.1, 0.1),
            (0.01, 0.01),
            // Pruned-weight updates: the right operand is the sparser one.
            (1.0, 0.1),
            (0.5, 0.1),
        ],
        reps: 3,
        seed: 42,
    };
    for (sample, &(ax, ay)) in HostCalibration::measure_grid(&config)
        .iter()
        .zip(&config.densities)
    {
        let (m, n, d) = (sample.m, sample.n, sample.d);
        // SpDMM by the right operand where the executor's right-sparse rule
        // for an Update over a dense-stored left operand fires; the
        // calibrated argmin everywhere else.
        let picked = if regions.prefers_right_sparse(sample.alpha_x, sample.alpha_y) {
            HostPrimitive::SpDmmRight
        } else {
            calibration.cheapest(ProductShape::new(m, n, d), sample.alpha_x, sample.alpha_y)
        };
        let measured = [
            sample.gemm_ms,
            sample.spdmm_ms,
            sample.spdmm_right_ms,
            sample.spmm_ms,
        ];
        let best = measured.iter().cloned().fold(f64::INFINITY, f64::min);
        let pick_ms = match picked {
            HostPrimitive::Gemm => sample.gemm_ms,
            HostPrimitive::SpDmm => sample.spdmm_ms,
            HostPrimitive::SpDmmRight => sample.spdmm_right_ms,
            HostPrimitive::Spmm => sample.spmm_ms,
            HostPrimitive::Skip => unreachable!("non-empty grid operands"),
        };
        println!(
            "alpha {ax} x {ay}: picked {} {pick_ms:.3} ms, best {best:.3} ms \
             (gemm/spdmm/spdmm-right/spmm = {measured:.3?})",
            picked.label()
        );
        assert!(
            pick_ms <= 2.0 * best,
            "calibrated policy picked {} ({pick_ms:.3} ms) at alpha {ax} x {ay} \
             but the measured best is {best:.3} ms \
             (gemm/spdmm/spdmm-right/spmm = {measured:?})",
            picked.label()
        );
        if (ax, ay) == (0.1, 0.1) {
            // The recorded mispick the calibrated model exists to fix.
            assert_eq!(
                picked,
                HostPrimitive::SpDmm,
                "alpha 0.1 x 0.1 at {m}x{n}x{d} must dispatch SpDMM \
                 (the Table IV regions pick SPMM there, ~4.8x slower)"
            );
        }
    }
}

/// Distinct two-root neighborhoods of the Cora quarter graph, sampled ahead
/// of the timed region.
fn sample_stream(parent: &GraphDataset, n: usize) -> Vec<(Graph, FeatureMatrix)> {
    (0..n)
        .map(|i| {
            let roots = [
                (i * 37 % parent.graph.num_vertices()) as u32,
                (i * 101 % parent.graph.num_vertices()) as u32,
            ];
            let sub = NeighborSampler::new([10, 5], 1000 + i as u64).sample(&parent.graph, &roots);
            let features = sub.extract_features(&parent.features);
            (sub.into_graph(), features)
        })
        .collect()
}

#[test]
fn template_instantiation_is_5x_faster_than_cold_planning() {
    let Some(_alone) = timing_run("template_instantiation_is_5x_faster_than_cold_planning") else {
        return;
    };
    const ROUNDS: usize = 4;
    const REQUESTS: usize = 8;
    let parent = Dataset::Cora.spec().generate_scaled(3, 0.25);
    // Hidden width 256: wide enough that the model-side profiling a cold plan
    // repeats per request (a 1433 × 256 weight grid) dwarfs the per-request
    // topology profiling.  At 128 the one-pass weight count leaves a cold
    // plan only about 5x an instantiation, the bound itself.
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        parent.features.dim(),
        256,
        parent.spec.num_classes,
        1,
    );
    let stream = sample_stream(&parent, REQUESTS);
    // Cold planning consumes `GraphDataset`s; the wrapper is metadata, so it
    // is built outside the timed region.
    let datasets: Vec<GraphDataset> = stream
        .iter()
        .map(|(g, f)| GraphDataset {
            spec: parent.spec,
            scale: parent.scale,
            graph: g.clone(),
            features: f.clone(),
        })
        .collect();

    let planner = Planner::default();
    let template = ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap();
    // Warm both paths once: fills the template's weight-profile cache and
    // the process-global calibration.
    template.instantiate(&stream[0].0, &stream[0].1).unwrap();
    planner.plan(&model, &datasets[0]).unwrap();

    // Interleaved best-of-rounds per-request acquisition time.
    let (mut cold, mut warm) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for ds in &datasets {
            black_box(planner.plan(&model, ds).unwrap());
        }
        cold = cold.min(start.elapsed().as_secs_f64() / REQUESTS as f64);

        let start = Instant::now();
        for (graph, features) in &stream {
            black_box(template.instantiate(graph, features).unwrap());
        }
        warm = warm.min(start.elapsed().as_secs_f64() / REQUESTS as f64);
    }
    let speedup = cold / warm;
    println!(
        "cold plan {:.3} ms, instantiate {:.3} ms per request: {speedup:.2}x",
        cold * 1e3,
        warm * 1e3
    );
    assert!(
        speedup >= 5.0,
        "template instantiation must be >= 5x faster than cold planning per request, \
         got {speedup:.2}x"
    );
}

/// Best-round per-request latency (s) of steady-state `Session::infer` with
/// telemetry off and at the counters level, for one pricing configuration.
fn telemetry_best_s(strategies: &[MappingStrategy]) -> [f64; 2] {
    const ROUNDS: usize = 6;
    const REQUESTS: usize = 8;
    let dataset = Dataset::Cora.spec().generate_scaled(3, 0.25);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        1,
    );
    let plan = Planner::default().plan(&model, &dataset).unwrap();
    // Two sessions on one plan, each bound to a registry of its own level,
    // so the comparison stays in-process and no environment is read.
    let mut sessions: Vec<Session<'_>> = [TelemetryLevel::Off, TelemetryLevel::Counters]
        .iter()
        .map(|&level| {
            let mut session = plan.session(strategies);
            session.set_telemetry(Arc::new(Registry::new(level)));
            // Warm-up: size the arena and caches, then time steady state.
            for _ in 0..2 {
                session.infer(&dataset.features).unwrap();
            }
            session
        })
        .collect();
    // Interleaved rounds, keeping each level's best, so a scheduler hiccup
    // cannot charge one side.
    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for (level, session) in sessions.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..REQUESTS {
                session.infer(&dataset.features).unwrap();
            }
            best[level] = best[level].min(start.elapsed().as_secs_f64() / REQUESTS as f64);
        }
    }
    best
}

#[test]
fn counters_telemetry_costs_at_most_3_percent() {
    let Some(_alone) = timing_run("counters_telemetry_costs_at_most_3_percent") else {
        return;
    };
    // Embeddings only (host kernels dominate, so per-kernel probes weigh
    // heaviest), then Dynamic-priced serving, the production configuration
    // the budget is pinned on: the last one measured is the one asserted.
    // Measuring the first also warms the process, which steadies the second.
    let mut priced_overhead_pct = 0.0;
    for (config, strategies) in [
        ("embeddings", Vec::new()),
        ("Dynamic-priced", vec![MappingStrategy::Dynamic]),
    ] {
        let [off, counters] = telemetry_best_s(&strategies);
        let overhead_pct = (counters / off - 1.0) * 100.0;
        println!(
            "{config} infer: off {:.1} us, counters {:.1} us ({overhead_pct:+.2} %)",
            off * 1e6,
            counters * 1e6
        );
        priced_overhead_pct = overhead_pct;
    }
    assert!(
        priced_overhead_pct <= 3.0,
        "counters-level telemetry must cost <= 3% on steady-state Dynamic-priced infer, \
         got {priced_overhead_pct:.2}%"
    );
}
