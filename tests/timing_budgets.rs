//! Timing budgets: four wall-clock bounds the host kernels, the template
//! path and the telemetry layer must stay inside.
//!
//! - `calibrated_pick_is_within_2x_of_the_measured_best`: over a fixed-seed
//!   density grid at 512 × 512 × 64 each of the dispatcher's two picks — for
//!   a CSR-stored left operand, and between the two bodies of a dense-stored
//!   one — costs at most 2x the measured best kernel it could have run, and
//!   α = 0.1 × 0.1 picks SpDMM outright.
//! - `per_width_pick_is_within_1_25x_of_the_measured_best`: on held-out
//!   Update products the dispatcher's choice between the counting GEMM and
//!   the right-sparse body costs at most 1.25x the faster of the two.
//! - `template_instantiation_is_5x_faster_than_cold_planning`: on sampled
//!   Cora-quarter ego-nets a resident `ModelTemplate` acquires a servable
//!   plan at least 5x faster per request than a cold `Planner::plan`.
//! - `counters_telemetry_costs_at_most_3_percent`: counters-level
//!   telemetry costs at most 3 % of steady-state Dynamic-priced
//!   `Session::infer`, read as the median of paired per-request
//!   differences on one session.
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
use dynasparse_matrix::ops::{gemm_rows_into, right_sparse_rows_into};
use dynasparse_matrix::random::random_dense;
use dynasparse_matrix::{
    CalibrationConfig, CsrMatrix, DenseMatrix, DispatchPolicy, HostCalibration, HostPrimitive,
    ProductShape, UpdateChoice,
};
use dynasparse_model::{GnnModel, GnnModelKind, KernelDispatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    let mut rng = StdRng::seed_from_u64(42);
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
        // The dispatcher's two decisions over this product: the calibrated
        // argmin, what a CSR-stored left operand runs (GEMM stands for the
        // dense kernel the argmin may still prefer), weighed against GEMM,
        // SpDMM and SPMM as the grid walk measured them; and the priced
        // choice between the two bodies of an Update over a dense-stored
        // one, weighed against those two measured over the whole product
        // in the executor's blocks.
        let csr_pick =
            calibration.cheapest(ProductShape::new(m, n, d), sample.alpha_x, sample.alpha_y);
        let csr_ms = match csr_pick {
            HostPrimitive::Gemm => sample.gemm_ms,
            HostPrimitive::SpDmm => sample.spdmm_ms,
            HostPrimitive::Spmm => sample.spmm_ms,
            other => unreachable!("the argmin never returns {other:?}"),
        };
        let csr_best = sample.gemm_ms.min(sample.spdmm_ms).min(sample.spmm_ms);
        let (x, y) = update_operands(&mut rng, (m, n, d), ax, ay);
        let dense_pick = dense_update_choice(&calibration, regions, &x, y.clone()).pick;
        let [gemm_ms, right_ms] = measure_update_bodies(&x, &y);
        let dense_ms = match dense_pick {
            HostPrimitive::SpDmmRight => right_ms,
            _ => gemm_ms,
        };
        println!(
            "alpha {ax} x {ay}: csr-left picked {} {csr_ms:.3} ms, best {csr_best:.3} ms \
             (gemm/spdmm/spmm = {:.3?}); dense-left picked {} {dense_ms:.3} ms \
             (gemm/right-sparse = {gemm_ms:.3}/{right_ms:.3})",
            csr_pick.label(),
            [sample.gemm_ms, sample.spdmm_ms, sample.spmm_ms],
            dense_pick.label(),
        );
        for (operand, picked, pick_ms, best) in [
            ("csr-left", csr_pick, csr_ms, csr_best),
            ("dense-left", dense_pick, dense_ms, gemm_ms.min(right_ms)),
        ] {
            assert!(
                pick_ms <= 2.0 * best,
                "the {operand} pick {} ({pick_ms:.3} ms) at alpha {ax} x {ay} \
                 costs more than 2x the measured best {best:.3} ms",
                picked.label()
            );
        }
        if (ax, ay) == (0.1, 0.1) {
            // The recorded mispick the calibrated model exists to fix.
            assert_eq!(
                csr_pick,
                HostPrimitive::SpDmm,
                "alpha 0.1 x 0.1 at {m}x{n}x{d} must dispatch SpDMM \
                 (the Table IV regions pick SPMM there, ~4.8x slower)"
            );
        }
    }
}

/// Fixed-seed operands of an Update `X (m × n) · W (n × d)` at densities
/// `alpha_x` and `alpha_w`, with `X`'s count taken (as a session's hidden
/// features have theirs).
fn update_operands(
    rng: &mut StdRng,
    (m, n, d): (usize, usize, usize),
    alpha_x: f64,
    alpha_w: f64,
) -> (DenseMatrix, DenseMatrix) {
    let x = random_dense(rng, m, n, alpha_x);
    let w = random_dense(rng, n, d, alpha_w);
    x.nnz();
    (x, w)
}

/// The dispatcher's choice for an Update of the dense-stored `x` by `w`:
/// a GCN whose first weight is `w`, priced at its widths by the same
/// dispatcher a session builds.
fn dense_update_choice(
    calibration: &Arc<HostCalibration>,
    policy: DispatchPolicy,
    x: &DenseMatrix,
    w: DenseMatrix,
) -> UpdateChoice {
    let mut model = GnnModel::gcn(w.rows(), w.cols(), 2, 1);
    model.weights[0] = w;
    let dispatcher = KernelDispatcher::new(&model, policy, Some(Arc::clone(calibration)));
    dispatcher
        .choose_dense_update(0, x)
        .expect("a calibrated dispatcher prices the dense Update")
}

/// Milliseconds of the faster of `REPS` runs of each dense-left Update body
/// over the whole of `x · w`, in the executor's 16-row blocks, each block
/// profiling its rows: `[GEMM, right-sparse]`.  The bodies alternate, so a
/// change in the box's speed lands on both.
fn measure_update_bodies(x: &DenseMatrix, w: &DenseMatrix) -> [f64; 2] {
    const REPS: usize = 5;
    const BLOCK: usize = 16;
    let (n, d) = w.shape();
    let wt = CsrMatrix::from_dense(&w.transpose());
    let mut out = vec![0.0f32; x.rows() * d];
    let mut counts = vec![0usize; n.div_ceil(BLOCK)];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (body, best) in best.iter_mut().enumerate() {
            let start = Instant::now();
            for (bi, rows) in out.chunks_mut(BLOCK * d).enumerate() {
                counts.fill(0);
                let r0 = bi * BLOCK;
                let finite = if body == 0 {
                    gemm_rows_into(x, w, r0, rows, BLOCK, &mut counts)
                } else {
                    right_sparse_rows_into(x, &wt, r0, rows, BLOCK, &mut counts)
                };
                black_box(finite.unwrap());
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

#[test]
fn per_width_pick_is_within_1_25x_of_the_measured_best() {
    let Some(_alone) = timing_run("per_width_pick_is_within_1_25x_of_the_measured_best") else {
        return;
    };
    let Some(calibration) = HostCalibration::shared() else {
        println!("DYNASPARSE_CALIBRATION=off: no priced pick to check");
        return;
    };
    let policy = DispatchPolicy::from_regions(16);
    // Held out from every width fit's tiles: the pruned-Update shapes of
    // `pruned_wide`'s sweep at 2048 rows over (α_H, α_W) pairs spanning
    // both bodies' bands and the rule's old loss band `0.8·α_H < α_W < α_H`;
    // then Cora's two GCN Updates (2708 rows).
    let pairs = [
        (1.0, 1.0),
        (1.0, 0.5),
        (1.0, 0.1),
        (0.9, 0.3),
        (0.5, 0.45),
        (0.5, 0.1),
        (0.2, 0.1),
        (0.1, 0.1),
        (0.05, 0.5),
        (0.0127, 0.1),
        (0.01, 1.0),
    ];
    let mut cases: Vec<((usize, usize, usize), f64, f64)> = Vec::new();
    for (n, d) in [(128, 64), (64, 16), (16, 16), (512, 32)] {
        cases.extend(pairs.iter().map(|&(ah, aw)| ((2048, n, d), ah, aw)));
    }
    cases.extend([0.1, 0.5, 1.0].map(|ah| ((2708, 16, 7), ah, 1.0)));
    cases.push(((2708, 1433, 16), 0.0127, 1.0));
    let mut rng = StdRng::seed_from_u64(20);
    let mut misses = Vec::new();
    for ((m, n, d), ah, aw) in cases {
        let (x, w) = update_operands(&mut rng, (m, n, d), ah, aw);
        let choice = dense_update_choice(&calibration, policy, &x, w.clone());
        let [gemm_ms, right_ms] = measure_update_bodies(&x, &w);
        let pick_ms = match choice.pick {
            HostPrimitive::SpDmmRight => right_ms,
            _ => gemm_ms,
        };
        let best = gemm_ms.min(right_ms);
        println!(
            "{m}x{n}x{d} at alpha_H {ah} alpha_W {aw}: picked {} {pick_ms:.3} ms \
             ({:.2}x best; measured gemm {gemm_ms:.3} right-sparse {right_ms:.3}, \
             priced {:.3} / {:.3})",
            choice.pick.label(),
            pick_ms / best,
            choice.gemm_ms,
            choice.right_sparse_ms,
        );
        if pick_ms > 1.25 * best {
            misses.push(format!("{m}x{n}x{d} ({ah}, {aw}): {:.2}x", pick_ms / best));
        }
    }
    assert!(
        misses.is_empty(),
        "the per-width pick must cost at most 1.25x the faster body: {misses:?}"
    );
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

/// Paired per-request samples the telemetry budget reads: ABBA quads of one
/// off, two counters and one off request.  At about 0.5 ms a request this is
/// about 4 s per configuration on a 2-core VM.
const TELEMETRY_QUADS: usize = 2000;

/// Counters-level telemetry's cost on steady-state `Session::infer`, as a
/// share of the off-level time: the median over ABBA quads of the paired
/// difference (counters minus off, per request), over the median off-level
/// request.  Both levels run on one session over one plan, whose registry is
/// swapped between requests ([`Session::set_telemetry`]): the two sides share
/// one arena, one pricing cache and one code layout, and each quad's two
/// sides are a few hundred microseconds apart, so a change in the box's speed
/// lands on both.  No environment is read.
fn telemetry_overhead(strategies: &[MappingStrategy]) -> (f64, f64) {
    let dataset = Dataset::Cora.spec().generate_scaled(3, 0.25);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        1,
    );
    let plan = Planner::default().plan(&model, &dataset).unwrap();
    let mut session = plan.session(strategies);
    let levels =
        [TelemetryLevel::Off, TelemetryLevel::Counters].map(|level| Arc::new(Registry::new(level)));
    // Warm-up: size the arena and caches under both registries.
    for registry in levels.iter().chain(&levels) {
        session.set_telemetry(Arc::clone(registry));
        session.infer(&dataset.features).unwrap();
    }
    let timed = |session: &mut Session<'_>, level: usize| {
        session.set_telemetry(Arc::clone(&levels[level]));
        let start = Instant::now();
        black_box(session.infer(&dataset.features).unwrap());
        start.elapsed().as_secs_f64()
    };
    let mut off = Vec::with_capacity(2 * TELEMETRY_QUADS);
    let mut diffs = Vec::with_capacity(TELEMETRY_QUADS);
    for _ in 0..TELEMETRY_QUADS {
        let a1 = timed(&mut session, 0);
        let b1 = timed(&mut session, 1);
        let b2 = timed(&mut session, 1);
        let a2 = timed(&mut session, 0);
        off.extend([a1, a2]);
        diffs.push((b1 + b2 - a1 - a2) / 2.0);
    }
    let off = median(&mut off);
    (median(&mut diffs) / off, off)
}

/// The median of `values` (the upper one of an even count; `values` is
/// reordered in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
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
        let (overhead, off) = telemetry_overhead(&strategies);
        let overhead_pct = overhead * 100.0;
        println!(
            "{config} infer: off {:.1} us, counters {overhead_pct:+.2} % \
             (median of {TELEMETRY_QUADS} ABBA quads)",
            off * 1e6,
        );
        priced_overhead_pct = overhead_pct;
    }
    assert!(
        priced_overhead_pct <= 3.0,
        "counters-level telemetry must cost <= 3% on steady-state Dynamic-priced infer, \
         got {priced_overhead_pct:.2}%"
    );
}
