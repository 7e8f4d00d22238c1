//! Equivalence of the fused batch path and the per-request loop.
//!
//! `Session::infer_batch` (with the default `batch_fusion`) concatenates a
//! micro-batch into one `m × (d·B)` operand and runs every kernel once per
//! layer; the per-request loop (`batch_fusion: false`) is kept as the
//! equivalence oracle.  This suite proves the fused path changes **nothing
//! observable**: per-request embeddings are bit-identical, density traces
//! (input density and every kernel stage) are exactly equal, strategy
//! pricing (cycles, latency bits, utilization, kernel reports, primitive
//! mixes) matches, and `request_index` numbering is unchanged — across
//! batch sizes 1/3/8, all four model kinds, and batches mixing per-request
//! feature densities and representations.

use dynasparse::{
    CompiledPlan, EngineOptions, HostExecutionOptions, InferenceReport, MappingStrategy, Planner,
};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix, GraphDataset};
use dynasparse_matrix::{CsrMatrix, DenseMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};

fn fixture(kind: GnnModelKind) -> (GnnModel, GraphDataset) {
    let ds = Dataset::Cora.spec().generate_scaled(19, 0.12);
    let model = GnnModel::standard(kind, ds.features.dim(), 16, ds.spec.num_classes, 3);
    (model, ds)
}

fn plan_with_fusion(model: &GnnModel, ds: &GraphDataset, fusion: bool) -> CompiledPlan {
    let options = EngineOptions::builder()
        .host(HostExecutionOptions {
            batch_fusion: fusion,
            ..Default::default()
        })
        .build();
    Planner::new(options).plan(model, ds).unwrap()
}

/// A micro-batch mixing per-request feature densities, with every other
/// request stored sparse (CSR) when `mixed_repr` is set.
fn request_batch(ds: &GraphDataset, n: usize, mixed_repr: bool) -> Vec<FeatureMatrix> {
    (0..n)
        .map(|i| {
            let density = 0.01 + 0.9 * (i as f64 / n.max(1) as f64);
            let f = dense_features(
                ds.graph.num_vertices(),
                ds.features.dim(),
                density,
                500 + i as u64,
            );
            if mixed_repr && i % 2 == 1 {
                FeatureMatrix::Sparse(CsrMatrix::from_dense(&f.to_dense()))
            } else {
                f
            }
        })
        .collect()
}

/// Exact equality of everything a report exposes, except the output
/// embeddings' storage representation (the fused path may materialise a
/// block dense where the solo pass kept CSR, or vice versa; the values must
/// still match bit for bit).
fn assert_reports_equal(want: &InferenceReport, got: &InferenceReport, ctx: &str) {
    assert_eq!(
        want.request_index, got.request_index,
        "{ctx}: request_index"
    );
    assert_eq!(
        want.data_movement_ms.to_bits(),
        got.data_movement_ms.to_bits(),
        "{ctx}: data_movement_ms"
    );
    assert_eq!(
        want.feature_movement_ms.to_bits(),
        got.feature_movement_ms.to_bits(),
        "{ctx}: feature_movement_ms"
    );
    assert_eq!(
        want.density_trace, got.density_trace,
        "{ctx}: density_trace"
    );
    assert_eq!(
        want.output_embeddings.to_dense().as_slice(),
        got.output_embeddings.to_dense().as_slice(),
        "{ctx}: embeddings"
    );
    assert_eq!(want.runs.len(), got.runs.len(), "{ctx}: run count");
    for (rw, rg) in want.runs.iter().zip(got.runs.iter()) {
        assert_eq!(rw.strategy, rg.strategy, "{ctx}: strategy");
        assert_eq!(rw.total_cycles, rg.total_cycles, "{ctx}: cycles");
        assert_eq!(
            rw.latency_ms.to_bits(),
            rg.latency_ms.to_bits(),
            "{ctx}: latency"
        );
        assert_eq!(
            rw.average_utilization.to_bits(),
            rg.average_utilization.to_bits(),
            "{ctx}: utilization"
        );
        assert_eq!(rw.overhead, rg.overhead, "{ctx}: overhead");
        assert_eq!(rw.kernels.len(), rg.kernels.len(), "{ctx}: kernel count");
        for (kw, kg) in rw.kernels.iter().zip(rg.kernels.iter()) {
            assert_eq!(
                (kw.kernel_id, kw.layer_id, kw.kind, kw.cycles, kw.decisions),
                (kg.kernel_id, kg.layer_id, kg.kind, kg.cycles, kg.decisions),
                "{ctx}: kernel identity/cost"
            );
            assert_eq!(kw.mix, kg.mix, "{ctx}: mix");
            assert_eq!(
                kw.input_density.to_bits(),
                kg.input_density.to_bits(),
                "{ctx}: input density"
            );
            assert_eq!(
                kw.output_density.to_bits(),
                kg.output_density.to_bits(),
                "{ctx}: output density"
            );
            assert_eq!(
                (kw.utilization.to_bits()),
                (kg.utilization.to_bits()),
                "{ctx}: kernel utilization"
            );
        }
    }
}

#[test]
fn fused_batches_are_bit_identical_to_the_per_request_loop() {
    for kind in GnnModelKind::all() {
        let (model, ds) = fixture(kind);
        let fused_plan = plan_with_fusion(&model, &ds, true);
        let loop_plan = plan_with_fusion(&model, &ds, false);
        let strategies = MappingStrategy::paper_strategies();
        let mut fused = fused_plan.session(&strategies);
        let mut serial = loop_plan.session(&strategies);
        for (batch_size, mixed) in [(1usize, false), (3, false), (8, true)] {
            let batch = request_batch(&ds, batch_size, mixed);
            let want = serial.infer_batch(&batch).unwrap();
            let got = fused.infer_batch(&batch).unwrap();
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(got.iter()) {
                assert_reports_equal(
                    w,
                    g,
                    &format!(
                        "{} batch {batch_size} mixed {mixed} request {}",
                        kind.name(),
                        w.request_index
                    ),
                );
            }
        }
        // Both sessions served the same number of requests in the same
        // order: fusion does not disturb request numbering.
        assert_eq!(fused.requests_served(), serial.requests_served());
    }
}

#[test]
fn fused_batches_match_sequential_single_infers() {
    let (model, ds) = fixture(GnnModelKind::Gcn);
    let plan = plan_with_fusion(&model, &ds, true);
    let batch = request_batch(&ds, 5, true);
    let mut one_by_one = plan.session(&[MappingStrategy::Dynamic]);
    let want: Vec<InferenceReport> = batch.iter().map(|f| one_by_one.infer(f).unwrap()).collect();
    let mut batched = plan.session(&[MappingStrategy::Dynamic]);
    let got = batched.infer_batch(&batch).unwrap();
    for (w, g) in want.iter().zip(got.iter()) {
        assert_reports_equal(
            w,
            g,
            &format!("vs Session::infer, request {}", w.request_index),
        );
    }
}

#[test]
fn a_request_reports_the_same_whether_or_not_its_non_zero_count_is_cached() {
    // A report's densities come from the profiles the kernels fill, never
    // from the request's own cached count: a request that has answered
    // `density()` before and a fresh copy of the same bytes (no count
    // cached) report identically — solo, as a batch of one, and as a member
    // of a fused batch.
    for kind in GnnModelKind::all() {
        let (model, ds) = fixture(kind);
        let plan = plan_with_fusion(&model, &ds, true);
        let warm = request_batch(&ds, 2, false).pop().unwrap();
        let want_density = warm.density();
        let fresh = || {
            let dense = warm.to_dense();
            let bytes = dense.as_slice().to_vec();
            let copy = DenseMatrix::from_row_major(dense.rows(), dense.cols(), bytes);
            FeatureMatrix::Dense(copy.unwrap())
        };
        let first_report = |batch: &[FeatureMatrix]| {
            let mut session = plan.session(&MappingStrategy::paper_strategies());
            session.infer_batch(batch).unwrap().swap_remove(0)
        };
        let want = plan
            .session(&MappingStrategy::paper_strategies())
            .infer(&warm)
            .unwrap();
        assert_eq!(
            want.density_trace.input_density.to_bits(),
            want_density.to_bits()
        );
        for (got, ctx) in [
            (first_report(&[fresh()]), "batch of one, fresh copy"),
            (first_report(&[fresh(), warm.clone()]), "fused, fresh copy"),
        ] {
            assert_reports_equal(&want, &got, &format!("{} {ctx}", kind.name()));
        }
    }
}

#[test]
fn fused_sessions_interleave_batch_sizes_and_stay_exact() {
    // The batch arena is sized for the largest batch seen and reused by
    // smaller (and later equal) micro-batches; correctness must not depend
    // on the batch-size history.
    let (model, ds) = fixture(GnnModelKind::GraphSage);
    let fused_plan = plan_with_fusion(&model, &ds, true);
    let loop_plan = plan_with_fusion(&model, &ds, false);
    let mut fused = fused_plan.session(&[MappingStrategy::Dynamic]);
    let mut serial = loop_plan.session(&[MappingStrategy::Dynamic]);
    for (batch_size, mixed) in [(8usize, false), (2, true), (8, true), (3, false)] {
        let batch = request_batch(&ds, batch_size, mixed);
        let want = serial.infer_batch(&batch).unwrap();
        let got = fused.infer_batch(&batch).unwrap();
        for (w, g) in want.iter().zip(got.iter()) {
            assert_reports_equal(
                w,
                g,
                &format!("interleaved batch {batch_size} request {}", w.request_index),
            );
        }
    }
}

#[test]
fn reserve_batch_pre_sizes_without_changing_results() {
    let (model, ds) = fixture(GnnModelKind::Gin);
    let plan = plan_with_fusion(&model, &ds, true);
    let batch = request_batch(&ds, 4, false);
    let mut lazy = plan.session(&[MappingStrategy::Dynamic]);
    let want = lazy.infer_batch(&batch).unwrap();
    let mut reserved = plan.session(&[MappingStrategy::Dynamic]);
    reserved.reserve_batch(8);
    let got = reserved.infer_batch(&batch).unwrap();
    for (w, g) in want.iter().zip(got.iter()) {
        assert_reports_equal(w, g, &format!("reserved request {}", w.request_index));
    }
}

#[test]
fn fused_batch_with_a_bad_shape_fails_before_serving_anything() {
    let (model, ds) = fixture(GnnModelKind::Gcn);
    let plan = plan_with_fusion(&model, &ds, true);
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    let mut batch = request_batch(&ds, 3, false);
    batch[1] = FeatureMatrix::Dense(dynasparse_matrix::DenseMatrix::zeros(3, 5));
    assert!(session.infer_batch(&batch).is_err());
    assert_eq!(session.requests_served(), 0);
    // The session stays healthy for the next valid (fused) batch.
    let ok = request_batch(&ds, 3, false);
    assert_eq!(session.infer_batch(&ok).unwrap().len(), 3);
    assert_eq!(session.requests_served(), 3);
}
