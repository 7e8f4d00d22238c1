//! Equivalence of block-granular dispatch and the execution backends.
//!
//! The backend-abstracted executor rebuilds the dispatched forward pass as
//! a loop over the compiler's partition row blocks, with a per-block
//! density refit and a per-block primitive decision through the session's
//! [`ExecBackend`](dynasparse::ExecBackend).  Because row blocks never
//! split the `k` dimension and every route accumulates each output element
//! in `k`-increasing order, none of that may change a single bit of any
//! observable: this suite pins
//!
//! * block-granular execution (`block_dispatch: true`, the default) against
//!   whole-kernel dispatch (`block_dispatch: false`) — embeddings, density
//!   traces and strategy pricing bit-identical across all four model kinds,
//!   batch sizes 1 and 8, and requests whose row blocks have wildly mixed
//!   densities (a dense hub block over a sparse tail);
//! * the modeled-accelerator backend against the host backend — the
//!   backend may re-route and re-price every block product, but outputs
//!   and pricing stay bit-identical; only `predicted_kernel_ms` (the
//!   backend's own cost estimate) is allowed to differ;
//! * the one-scan dense ingest — a profile filled by the Update GEMM's own
//!   pass (block dispatch on) against the session's separate refit (off),
//!   with the kernel pool at one and at two threads.

use dynasparse::{
    BackendKind, CompiledPlan, EngineOptions, HostExecutionOptions, InferenceReport,
    MappingStrategy, Planner,
};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix, GraphDataset};
use dynasparse_matrix::CsrMatrix;
use dynasparse_model::{GnnModel, GnnModelKind};

fn fixture(kind: GnnModelKind) -> (GnnModel, GraphDataset) {
    let ds = Dataset::Cora.spec().generate_scaled(23, 0.12);
    let model = GnnModel::standard(kind, ds.features.dim(), 16, ds.spec.num_classes, 3);
    (model, ds)
}

fn plan_with(
    model: &GnnModel,
    ds: &GraphDataset,
    backend: BackendKind,
    block_dispatch: bool,
) -> CompiledPlan {
    let options = EngineOptions::builder()
        .host(HostExecutionOptions {
            backend,
            block_dispatch,
            ..Default::default()
        })
        .build();
    Planner::new(options).plan(model, ds).unwrap()
}

/// A request with mixed block densities: the first `hub_rows` vertices are
/// ~90 % dense (a hub block the dispatcher should route as GEMM) while the
/// tail stays ~1 % dense (SpDMM/SpGEMM territory).  Whole-kernel dispatch
/// sees one averaged density; the block loop refits each row block — the
/// point of the test is that the differing decisions change nothing.
fn skewed_request(ds: &GraphDataset, hub_rows: usize, seed: u64) -> FeatureMatrix {
    let v = ds.graph.num_vertices();
    let d = ds.features.dim();
    let mut tail = dense_features(v, d, 0.01, seed).to_dense();
    let hub = dense_features(v, d, 0.9, seed + 1).to_dense();
    for r in 0..hub_rows.min(v) {
        for c in 0..d {
            tail.set(r, c, hub.get(r, c));
        }
    }
    FeatureMatrix::Dense(tail)
}

/// A batch mixing uniform-density, skewed-density and CSR-represented
/// requests.
fn request_batch(ds: &GraphDataset, n: usize) -> Vec<FeatureMatrix> {
    (0..n)
        .map(|i| match i % 3 {
            0 => skewed_request(ds, ds.graph.num_vertices() / 4, 700 + i as u64),
            1 => dense_features(
                ds.graph.num_vertices(),
                ds.features.dim(),
                0.01 + 0.1 * i as f64 / n.max(1) as f64,
                700 + i as u64,
            ),
            _ => FeatureMatrix::Sparse(CsrMatrix::from_dense(
                &skewed_request(ds, ds.graph.num_vertices() / 8, 700 + i as u64).to_dense(),
            )),
        })
        .collect()
}

/// Exact equality of everything a report exposes except
/// `predicted_kernel_ms`: that field is the backend's own cost estimate
/// (whole-kernel predictions and summed per-block predictions legitimately
/// differ, as do host and modeled-accelerator prices), while everything
/// the paper's pipeline observes — embeddings, density traces, strategy
/// pricing — must match bit for bit.
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
        }
    }
}

/// Serves a batch-1 and a batch-8 request stream through `plan` and
/// returns every report in order.
fn serve(
    plan: &CompiledPlan,
    ds: &GraphDataset,
    strategies: &[MappingStrategy],
) -> Vec<InferenceReport> {
    let mut session = plan.session(strategies);
    let mut reports = Vec::new();
    reports.push(
        session
            .infer(&skewed_request(ds, ds.graph.num_vertices() / 4, 650))
            .unwrap(),
    );
    reports.extend(session.infer_batch(&request_batch(ds, 8)).unwrap());
    reports
}

#[test]
fn block_granular_dispatch_is_bit_identical_to_whole_kernel_on_both_backends() {
    for kind in GnnModelKind::all() {
        let (model, ds) = fixture(kind);
        for backend in [BackendKind::Host, BackendKind::ModeledAccel] {
            let whole = plan_with(&model, &ds, backend, false);
            let blocked = plan_with(&model, &ds, backend, true);
            let want = serve(&whole, &ds, &[MappingStrategy::Dynamic]);
            let got = serve(&blocked, &ds, &[MappingStrategy::Dynamic]);
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(got.iter()) {
                assert_reports_equal(
                    w,
                    g,
                    &format!(
                        "{} on {} request {}",
                        kind.name(),
                        backend.label(),
                        w.request_index
                    ),
                );
            }
        }
    }
}

#[test]
fn backends_agree_bitwise_and_the_modeled_backend_prices_every_request() {
    let (model, ds) = fixture(GnnModelKind::Gcn);
    let host_plan = plan_with(&model, &ds, BackendKind::Host, true);
    let accel_plan = plan_with(&model, &ds, BackendKind::ModeledAccel, true);
    let strategies = MappingStrategy::paper_strategies();
    let want = serve(&host_plan, &ds, &strategies);
    let got = serve(&accel_plan, &ds, &strategies);
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(got.iter()) {
        assert_reports_equal(
            w,
            g,
            &format!("host vs modeled-accel request {}", w.request_index),
        );
        // The modeled backend prices every kernel from the accelerator cost
        // model — a request can never come back unpriced.
        assert!(
            g.predicted_kernel_ms > 0.0,
            "modeled-accel request {} must carry a positive predicted cost",
            g.request_index
        );
        assert!(g.predicted_kernel_ms.is_finite());
    }
}

#[test]
fn whole_model_pricing_is_unchanged_across_paper_strategies() {
    // The full strategy sweep (Static1/Static2/Dynamic) over the blocked
    // path must reproduce the whole-kernel prices exactly — the Analyzer /
    // Scheduler pipeline consumes the same density traces either way.
    let (model, ds) = fixture(GnnModelKind::Gin);
    let strategies = MappingStrategy::paper_strategies();
    let whole = plan_with(&model, &ds, BackendKind::Host, false);
    let blocked = plan_with(&model, &ds, BackendKind::Host, true);
    let want = serve(&whole, &ds, &strategies);
    let got = serve(&blocked, &ds, &strategies);
    for (w, g) in want.iter().zip(got.iter()) {
        assert_reports_equal(
            w,
            g,
            &format!("paper strategies request {}", w.request_index),
        );
    }
}

/// Dense-stored requests whose layer-0 Update streams them: with block
/// dispatch on, that GEMM's own pass fills the kernel's input profile and
/// the session prices from it; with block dispatch off the session refits
/// the profile in a separate scan.  Everything a report exposes — decisions,
/// mix, cycles, density trace, embeddings — must be identical either way, on
/// both backends, for uniform, skewed and hostile (`-0.0`, denormal) inputs.
fn assert_scanned_profiles_equal_separate_refits() {
    let (model, ds) = fixture(GnnModelKind::Gcn);
    let v = ds.graph.num_vertices();
    let mut hostile = dense_features(v, ds.features.dim(), 0.02, 41).to_dense();
    for r in (0..v).step_by(7) {
        hostile.set(r, r % ds.features.dim(), -0.0);
        hostile.set(r, (r + 1) % ds.features.dim(), 1.0e-40);
    }
    let requests = [
        dense_features(v, ds.features.dim(), 0.0127, 40),
        skewed_request(&ds, v / 4, 42),
        FeatureMatrix::Dense(hostile),
        dense_features(v, ds.features.dim(), 0.0, 43),
    ];
    let strategies = MappingStrategy::paper_strategies();
    for backend in [BackendKind::Host, BackendKind::ModeledAccel] {
        let refit = plan_with(&model, &ds, backend, false);
        let scanned = plan_with(&model, &ds, backend, true);
        let mut refit_session = refit.session(&strategies);
        let mut scanned_session = scanned.session(&strategies);
        for (i, request) in requests.iter().enumerate() {
            assert_reports_equal(
                &refit_session.infer(request).unwrap(),
                &scanned_session.infer(request).unwrap(),
                &format!("one-scan profile on {} request {i}", backend.label()),
            );
        }
    }
}

#[test]
fn kernel_scanned_profiles_match_separate_refits_at_one_and_two_kernel_threads() {
    // The kernel pool is sized once per process from `DYNASPARSE_THREADS`,
    // so each pool size (inline, and two threads — where row blocks and
    // their profile counter rows are claimed by different threads) is a
    // child run of this very test.
    const CHILD: &str = "ONE_SCAN_EQUIVALENCE_CHILD";
    if std::env::var_os(CHILD).is_some() {
        return assert_scanned_profiles_equal_separate_refits();
    }
    for threads in ["1", "2"] {
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "kernel_scanned_profiles_match_separate_refits_at_one_and_two_kernel_threads",
            ])
            .env(CHILD, "1")
            .env("DYNASPARSE_THREADS", threads)
            .status()
            .expect("re-run this test binary");
        assert!(
            status.success(),
            "DYNASPARSE_THREADS={threads} child failed"
        );
    }
}
