//! The non-finite contract: a request holding a `NaN` or `±Inf` feature is
//! refused with the typed `MatrixError::NonFinite`, whatever the model, the
//! features' storage or the weights' sparsity.  Without it each route gave
//! such a request an answer of its own: the zero-skip dropped a dense `NaN`,
//! and pruned weights put `±Inf` into only some of the outputs the oracle
//! poisons.  A refused request leaves nothing behind — the session's next
//! clean request is served exactly as a fresh session serves it — and a
//! served ticket resolves to the error without costing its worker a respawn.

use dynasparse::{DynasparseError, EngineOptions, InferenceReport, MappingStrategy, Planner};
use dynasparse_compiler::KernelKind;
use dynasparse_graph::{Dataset, FeatureMatrix};
use dynasparse_matrix::{CsrMatrix, DenseMatrix, MatrixError};
use dynasparse_model::{prune_model, GnnModel, GnnModelKind};
use dynasparse_serve::{ServeConfig, ServeError, ServeRuntime};
use std::sync::Arc;

/// The two poisoned feature entries: a `NaN` and a `+Inf`.
const POISON: [(usize, usize, f32); 2] = [(3, 7, f32::NAN), (41, 200, f32::INFINITY)];

fn poisoned(clean: &DenseMatrix) -> DenseMatrix {
    let mut m = clean.clone();
    for (r, c, v) in POISON {
        m.set(r, c, v);
    }
    m
}

/// `m` in CSR with every element that is not `±0.0` stored, the non-finite
/// ones included (`CsrMatrix::from_dense` would drop the `NaN`).
fn stored_csr(m: &DenseMatrix) -> CsrMatrix {
    let (rows, cols) = m.shape();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for r in 0..rows {
        for c in 0..cols {
            let v = m.get(r, c);
            if v != 0.0 {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values)
}

/// Everything a report says, embeddings bit for bit.
fn fingerprint(report: &InferenceReport) -> (String, Vec<u32>) {
    let embeddings = report.output_embeddings.to_dense();
    let bits = embeddings.as_slice().iter().map(|v| v.to_bits()).collect();
    (serde_json::to_string(report).unwrap(), bits)
}

fn is_non_finite(err: &DynasparseError, op: &str) -> bool {
    matches!(err, DynasparseError::Execution(MatrixError::NonFinite { op: o }) if *o == op)
}

/// `m` with the stored value at entry `at` replaced by `v`.
fn with_stored(m: &CsrMatrix, at: usize, v: f32) -> CsrMatrix {
    let mut values = m.values().to_vec();
    values[at] = v;
    let (row_ptr, col_idx) = (m.row_ptr().to_vec(), m.col_idx().to_vec());
    CsrMatrix::from_parts(m.rows(), m.cols(), row_ptr, col_idx, values)
}

/// Each model kind over dense and 95 %-pruned weights refuses poisoned
/// requests: the two poisons together, dense- and CSR-stored, and each
/// non-finite value alone at the first and at the last stored entry of a
/// CSR request.  No value is read before the pass that serves a request.
/// GCN's kernel 0 is an Update over the request, refused by its own pass
/// (the gather or Gustavson rows that count its row blocks, or the refit
/// after a whole-product skip or sparse-sparse product); GraphSAGE, GIN and
/// SGC start with an Aggregate over the static adjacency, so the refit of
/// their input profile (`refit_dense`, `refit_csr`) refuses it.
#[test]
fn every_route_refuses_non_finite_features_and_serves_on() {
    let ds = Dataset::Cora.spec().generate_scaled(5, 0.12);
    let clean = ds.features.to_dense();
    let bad = poisoned(&clean);
    let clean_csr = CsrMatrix::from_dense(&clean);
    let mut requests = vec![
        (
            "dense-stored, both poisons".to_string(),
            FeatureMatrix::Dense(bad.clone()),
        ),
        (
            "CSR-stored, both poisons".to_string(),
            FeatureMatrix::Sparse(stored_csr(&bad)),
        ),
    ];
    for at in [0, clean_csr.nnz() - 1] {
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let request = FeatureMatrix::Sparse(with_stored(&clean_csr, at, v));
            requests.push((format!("CSR-stored, {v} at stored entry {at}"), request));
        }
    }
    let strategies = MappingStrategy::paper_strategies();
    for kind in GnnModelKind::all() {
        let dense_weights = GnnModel::standard(kind, clean.cols(), 16, ds.spec.num_classes, 2);
        for (weights, model) in [
            ("dense", dense_weights.clone()),
            ("95%-pruned", prune_model(&dense_weights, 0.95)),
        ] {
            let plan = Planner::new(EngineOptions::default())
                .plan(&model, &ds)
                .unwrap();
            let first = plan.program().kernels[0].ir.kind;
            assert_eq!(first == KernelKind::Update, kind == GnnModelKind::Gcn);
            let want = fingerprint(&plan.session(&strategies).infer(&ds.features).unwrap());
            for (what, request) in &requests {
                let ctx = format!("{kind:?}, {weights} weights, {what}");
                let mut session = plan.session(&strategies);
                let err = session.infer(request).unwrap_err();
                assert!(is_non_finite(&err, "session infer"), "{ctx}: {err:?}");
                let err = session
                    .infer_batch(std::slice::from_ref(request))
                    .unwrap_err();
                assert!(is_non_finite(&err, "session infer_batch"), "{ctx}: {err:?}");
                let served = session.infer(&ds.features).unwrap();
                assert!(
                    fingerprint(&served) == want,
                    "{ctx}: the next request differs"
                );
            }
        }
    }
}

/// Requests narrower than a block column: kernel 0 of GraphSAGE, GIN and SGC
/// is an Aggregate, so the refit of its dense-stored input is the refusal
/// point, and with the width under the partition's `N2` one block column
/// spans every row, so that refit counts each row block as one contiguous
/// slice.  Each non-finite value is planted alone, at the first element and
/// at the last (the tail of the last row block's slice when it is not a
/// whole number of 16-lane groups).
#[test]
fn requests_narrower_than_a_block_column_are_refused_too() {
    const WIDTH: usize = 8;
    let mut spec = Dataset::Cora.spec();
    spec.feature_dim = WIDTH;
    let ds = spec.generate_scaled(5, 0.12);
    let clean = ds.features.to_dense();
    let (rows, cols) = clean.shape();
    assert_eq!(cols, WIDTH);
    let strategies = MappingStrategy::paper_strategies();
    for kind in [
        GnnModelKind::GraphSage,
        GnnModelKind::Gin,
        GnnModelKind::Sgc,
    ] {
        let model = GnnModel::standard(kind, WIDTH, 16, ds.spec.num_classes, 2);
        let plan = Planner::new(EngineOptions::default())
            .plan(&model, &ds)
            .unwrap();
        assert_eq!(plan.program().kernels[0].ir.kind, KernelKind::Aggregate);
        assert!(
            plan.partition().n2 > WIDTH,
            "{kind:?}: {:?}",
            plan.partition()
        );
        let want = fingerprint(&plan.session(&strategies).infer(&ds.features).unwrap());
        for (r, c) in [(0, 0), (rows - 1, WIDTH - 1)] {
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let ctx = format!("{kind:?}, {v} at ({r}, {c})");
                let mut session = plan.session(&strategies);
                let mut bad = clean.clone();
                bad.set(r, c, v);
                let err = session.infer(&FeatureMatrix::Dense(bad)).unwrap_err();
                assert!(is_non_finite(&err, "session infer"), "{ctx}: {err:?}");
                let served = session.infer(&ds.features).unwrap();
                assert!(
                    fingerprint(&served) == want,
                    "{ctx}: the next request differs"
                );
            }
        }
    }
}

#[test]
fn a_serve_ticket_resolves_to_the_refusal_without_a_respawn() {
    let ds = Dataset::Cora.spec().generate_scaled(5, 0.12);
    let clean = ds.features.to_dense();
    let model = GnnModel::standard(GnnModelKind::Gcn, clean.cols(), 16, ds.spec.num_classes, 2);
    let plan = Planner::new(EngineOptions::default())
        .plan_shared(&model, &ds)
        .unwrap();
    let want = fingerprint(
        &plan
            .session(&[MappingStrategy::Dynamic])
            .infer(&ds.features)
            .unwrap(),
    );
    let runtime = ServeRuntime::start(Arc::clone(&plan), ServeConfig::default().workers(1));
    // Dense-stored: the first kernel's scan refuses it on the worker.
    let ticket = runtime
        .submit(FeatureMatrix::Dense(poisoned(&clean)))
        .unwrap();
    match ticket.wait() {
        Err(ServeError::Inference(err)) => assert!(is_non_finite(&err, "session infer"), "{err:?}"),
        other => panic!("expected the non-finite refusal, got {other:?}"),
    }
    // CSR-stored: accepted (submission reads no value), then refused on the
    // worker by kernel 0's gather, as a dense one is by its scan.
    let ticket = runtime
        .submit(FeatureMatrix::Sparse(stored_csr(&poisoned(&clean))))
        .unwrap();
    match ticket.wait() {
        Err(ServeError::Inference(err)) => assert!(is_non_finite(&err, "session infer"), "{err:?}"),
        other => panic!("expected the non-finite refusal, got {other:?}"),
    }
    let served = runtime.submit(ds.features.clone()).unwrap().wait().unwrap();
    assert_eq!(fingerprint(&served).1, want.1);
    let report = runtime.shutdown();
    assert_eq!((report.worker_panics, report.worker_respawns), (0, 0));
}
