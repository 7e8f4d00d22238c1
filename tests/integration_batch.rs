//! A batch is a loop of single-request passes.
//!
//! `Session::infer_batch` validates every request up front and then serves
//! them one by one through the pass `Session::infer` runs.  This suite pins
//! that batching changes **nothing observable**: per-request embeddings are
//! bit-identical, density traces (input density and every kernel stage) are
//! exactly equal, strategy pricing (cycles, latency bits, utilization, kernel
//! reports, primitive mixes) matches, `request_index` numbering is unchanged,
//! and a request's predicted kernel time and telemetry spans are its own —
//! across batch sizes 0/1/2/3/8, all four model kinds, and batches of dense,
//! CSR and mixed requests of differing densities.  The prediction and the
//! trace are also checked at one and at two kernel threads.

mod common;

use common::at_one_and_two_kernel_threads;
use dynasparse::{
    CompiledPlan, CompilerConfig, EngineOptions, InferenceReport, MappingStrategy, Planner, Session,
};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix, GraphDataset};
use dynasparse_matrix::{CsrMatrix, DenseMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_telemetry::{CounterId, Registry, TelemetryLevel};
use std::sync::Arc;

fn fixture(kind: GnnModelKind) -> (GnnModel, GraphDataset) {
    let ds = Dataset::Cora.spec().generate_scaled(19, 0.12);
    let model = GnnModel::standard(kind, ds.features.dim(), 16, ds.spec.num_classes, 3);
    (model, ds)
}

fn plan(model: &GnnModel, ds: &GraphDataset) -> CompiledPlan {
    Planner::default().plan(model, ds).unwrap()
}

/// How the requests of a batch are stored.
#[derive(Debug, Clone, Copy)]
enum Repr {
    Dense,
    Csr,
    /// Every other request CSR.
    Mixed,
}

/// A micro-batch of `n` requests of differing feature densities.
fn request_batch(ds: &GraphDataset, n: usize, repr: Repr) -> Vec<FeatureMatrix> {
    (0..n)
        .map(|i| {
            let density = 0.01 + 0.9 * (i as f64 / n.max(1) as f64);
            let f = dense_features(
                ds.graph.num_vertices(),
                ds.features.dim(),
                density,
                500 + i as u64,
            );
            let csr = match repr {
                Repr::Dense => false,
                Repr::Csr => true,
                Repr::Mixed => i % 2 == 1,
            };
            if csr {
                FeatureMatrix::Sparse(CsrMatrix::from_dense(&f.to_dense()))
            } else {
                f
            }
        })
        .collect()
}

/// Exact equality of everything a report exposes outside wall-clock-derived
/// fields; embeddings are compared by value, bit for bit.
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

/// The one oracle: for every model kind × request representation, a session
/// serving batches of 1, 2, 3 and 8 requests reports exactly what a fresh
/// session serving the same requests through `infer`, one call each, reports.
#[test]
fn batches_match_sequential_single_infers() {
    let strategies = MappingStrategy::paper_strategies();
    for kind in GnnModelKind::all() {
        let (model, ds) = fixture(kind);
        let plan = plan(&model, &ds);
        for repr in [Repr::Dense, Repr::Csr, Repr::Mixed] {
            let mut one_by_one = plan.session(&strategies);
            let mut batched = plan.session(&strategies);
            for batch_size in [1usize, 2, 3, 8] {
                let batch = request_batch(&ds, batch_size, repr);
                let served = batched.requests_served();
                let got = batched.infer_batch(&batch).unwrap();
                assert_eq!(got.len(), batch_size);
                assert_eq!(batched.requests_served(), served + batch_size);
                for (features, got) in batch.iter().zip(&got) {
                    let want = one_by_one.infer(features).unwrap();
                    let ctx = format!(
                        "{} {repr:?} batch {batch_size} request {}",
                        kind.name(),
                        want.request_index
                    );
                    assert_reports_equal(&want, got, &ctx);
                }
            }
        }
    }
}

#[test]
fn a_request_reports_the_same_whether_or_not_its_non_zero_count_is_cached() {
    // A report's densities come from the profiles the kernels fill, never
    // from the request's own cached count: a request that has answered
    // `density()` before and a fresh copy of the same bytes (no count
    // cached) report identically — alone, as a batch of one, and as a member
    // of a batch of two.
    for kind in GnnModelKind::all() {
        let (model, ds) = fixture(kind);
        let plan = plan(&model, &ds);
        let warm = request_batch(&ds, 2, Repr::Dense).pop().unwrap();
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
            (
                first_report(&[fresh(), warm.clone()]),
                "batch of two, fresh copy",
            ),
        ] {
            assert_reports_equal(&want, &got, &format!("{} {ctx}", kind.name()));
        }
    }
}

#[test]
fn a_batch_with_a_bad_shape_fails_before_serving_anything() {
    let (model, ds) = fixture(GnnModelKind::Gcn);
    let plan = plan(&model, &ds);
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    let mut batch = request_batch(&ds, 3, Repr::Dense);
    batch[1] = FeatureMatrix::Dense(DenseMatrix::zeros(3, 5));
    assert!(session.infer_batch(&batch).is_err());
    assert_eq!(session.requests_served(), 0);
    // The session stays healthy for the next valid batch.
    let ok = request_batch(&ds, 3, Repr::Dense);
    assert_eq!(session.infer_batch(&ok).unwrap().len(), 3);
    assert_eq!(session.requests_served(), 3);
}

#[test]
fn an_empty_batch_serves_nothing() {
    let (model, ds) = fixture(GnnModelKind::Gcn);
    let plan = plan(&model, &ds);
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    let registry = Arc::new(Registry::new(TelemetryLevel::Trace));
    session.set_telemetry(registry.clone());
    // On a session that has never served, and after a two-request batch.
    for served in [0usize, 2] {
        assert!(session.infer_batch(&[]).unwrap().is_empty());
        assert_eq!(session.requests_served(), served);
        assert_eq!(registry.counter(CounterId::SessionRequests), served as u64);
        if served == 0 {
            let two = request_batch(&ds, 2, Repr::Mixed);
            assert_eq!(session.infer_batch(&two).unwrap().len(), 2);
        }
    }
    // No request index was consumed and no telemetry request opened: the
    // next request is the session's third on both counts.
    session.telemetry_mut().clear_recorder();
    let report = session.infer(&ds.features).unwrap();
    assert_eq!(report.request_index, 2);
    let recorder = session.telemetry().recorder();
    assert!(!recorder.is_empty());
    assert!(recorder.spans().all(|span| span.request == 3));
}

/// A session over `plan` recording into a private trace-level registry.
fn traced_session(plan: &CompiledPlan) -> Session<'_> {
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::new(Registry::new(TelemetryLevel::Trace)));
    session
}

/// A batched request's predicted kernel time and kernel spans are its own:
/// what serving it alone reports, not a share of a batch-wide sum.
#[test]
fn a_batched_request_predicts_and_traces_as_it_does_alone() {
    at_one_and_two_kernel_threads(
        "a_batched_request_predicts_and_traces_as_it_does_alone",
        || {
            let (model, ds) = fixture(GnnModelKind::Gin);
            let plan = plan(&model, &ds);
            let batch = request_batch(&ds, 3, Repr::Mixed);
            let mut batched = traced_session(&plan);
            let got = batched.infer_batch(&batch).unwrap();
            let mut alone_spans = 0u64;
            for (features, got) in batch.iter().zip(&got) {
                let mut alone = traced_session(&plan);
                let want = alone.infer(features).unwrap();
                assert_eq!(
                    want.predicted_kernel_ms.to_bits(),
                    got.predicted_kernel_ms.to_bits(),
                    "request {}",
                    got.request_index
                );
                alone_spans += alone.telemetry().recorder().recorded();
            }
            assert!(alone_spans >= (batch.len() * model.num_kernels()) as u64);
            assert_eq!(batched.telemetry().recorder().recorded(), alone_spans);
        },
    );
}

/// Whatever the kernel thread count, a traced pass records one block span
/// per row block of every dense-output kernel, in block order, and its
/// predicted kernel time is the block-order sum of those blocks'
/// predictions — bit for bit the same on every fresh session.
#[test]
fn every_row_block_is_traced_and_predicted_in_block_order() {
    at_one_and_two_kernel_threads(
        "every_row_block_is_traced_and_predicted_in_block_order",
        || {
            // A GCN over a dense-stored request runs every kernel over row
            // blocks; 16-row blocks give each kernel a few dozen of them, so two
            // threads interleave their claims.
            let (model, ds) = fixture(GnnModelKind::Gcn);
            let compiler = CompilerConfig {
                min_partition: 16,
                max_partition: 16,
                ..CompilerConfig::default()
            };
            let options = EngineOptions {
                compiler,
                ..EngineOptions::default()
            };
            let plan = Planner::new(options).plan(&model, &ds).unwrap();
            let partition = plan.partition();
            let request = request_batch(&ds, 2, Repr::Dense).pop().unwrap();
            let mut first_ms = None;
            for _ in 0..20 {
                let mut session = traced_session(&plan);
                let report = session.infer(&request).unwrap();
                let recorder = session.telemetry().recorder();
                assert_eq!(
                    recorder.recorded(),
                    recorder.len() as u64,
                    "the ring overflowed"
                );
                let mut block_sum = 0.0f64;
                for (l, layer) in model.layers.iter().enumerate() {
                    for (k, spec) in layer.kernels.iter().enumerate() {
                        let block_rows = if spec.op.is_aggregate() {
                            partition.aggregate_block_rows()
                        } else {
                            partition.update_block_rows()
                        };
                        let blocks: Vec<_> = recorder
                            .spans()
                            .filter(|s| s.is_block() && (s.layer, s.kernel) == (l as u16, k as u16))
                            .collect();
                        let order: Vec<usize> = blocks.iter().map(|s| s.block as usize).collect();
                        let want: Vec<usize> =
                            (0..plan.num_vertices().div_ceil(block_rows)).collect();
                        assert_eq!(order, want, "block spans of kernel ({l}, {k})");
                        block_sum += blocks
                            .iter()
                            .map(|s| f64::from(s.predicted_ms))
                            .filter(|&p| p.is_finite() && p > 0.0)
                            .sum::<f64>();
                    }
                }
                // A span stores its prediction as `f32`, so the sum of the spans
                // matches to `f32` precision.
                let predicted = report.predicted_kernel_ms;
                assert!(
                    (predicted - block_sum).abs() <= 1e-6 * predicted,
                    "predicted {predicted} ms vs block spans {block_sum} ms"
                );
                assert_eq!(predicted > 0.0, plan.calibration().is_some());
                let first = *first_ms.get_or_insert(predicted.to_bits());
                assert_eq!(predicted.to_bits(), first, "{predicted} ms");
            }
        },
    );
}
