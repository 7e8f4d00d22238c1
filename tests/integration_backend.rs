//! Equivalence of block-granular dispatch, calibrated and on the regions
//! fallback.
//!
//! The executor runs every dense-output kernel as a loop over the compiler's
//! partition row blocks, with a per-block density refit and a per-block
//! primitive decision through the session's `KernelDispatcher`: the argmin
//! over the measured host calibration, or the Table IV regions under
//! `DYNASPARSE_CALIBRATION=off`.  Because row blocks never split the `k`
//! dimension and every route accumulates each output element in
//! `k`-increasing order, none of that may change a single bit of any
//! observable: this suite pins
//!
//! * block-granular execution against the single oracle of `tests/common` —
//!   the fixed-kernel `ReferenceExecutor`, which runs one whole-matrix
//!   kernel per kernel kind, with `Analyzer`/`Scheduler` over the density
//!   profiles of its kernel inputs — embeddings, density traces and strategy
//!   pricing bit-identical across all four model kinds, batch sizes 1 and 8,
//!   the compiler's partition and small ragged blocks, and requests whose
//!   row blocks have wildly mixed densities (a dense hub block over a sparse
//!   tail);
//! * the regions fallback against the same oracle, in a child run of this
//!   binary under `DYNASPARSE_CALIBRATION=off` (the calibration is read once
//!   per process);
//! * the one-pass ingest — a profile filled by the layer-0 Update's own pass
//!   (the GEMM or right-sparse scan of a dense-stored request, the CSR
//!   gather's or Gustavson rows' count of a CSR-stored one) against the
//!   oracle's separate refit of the same operand, over dense and pruned
//!   weights, with the kernel pool at one and at two threads;
//! * column-major operands, which take one row-major copy at route
//!   resolution and then the ordinary block loop;
//! * pruned weights under dense-stored requests, whose Updates run by the
//!   weight's non-zeros (the right-sparse body), alone and in a batch.

mod common;

use common::{
    assert_matches_oracle, at_one_and_two_kernel_threads, is_regions_child,
    rerun_on_the_regions_fallback, run_oracle,
};
use dynasparse::{
    CompiledPlan, CompilerConfig, EngineOptions, InferenceReport, MappingStrategy, Planner,
    Registry, SessionTelemetry, SpanPrimitive, TelemetryLevel,
};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix, GraphDataset};
use dynasparse_matrix::{CsrMatrix, DenseMatrix, Layout};
use dynasparse_model::{prune_model, GnnModel, GnnModelKind, ReferenceExecutor};
use dynasparse_telemetry::CounterId;
use std::sync::Arc;

fn fixture(kind: GnnModelKind) -> (GnnModel, GraphDataset) {
    let ds = Dataset::Cora.spec().generate_scaled(23, 0.12);
    let model = GnnModel::standard(kind, ds.features.dim(), 16, ds.spec.num_classes, 3);
    (model, ds)
}

/// Plans `model` over `ds` with the compiler's partition.
fn plan(model: &GnnModel, ds: &GraphDataset) -> CompiledPlan {
    plan_with(model, ds, CompilerConfig::default())
}

/// Plans `model` over `ds` under `compiler`.  A regions-fallback child must
/// get a plan without a calibration, so it cannot silently run calibrated.
fn plan_with(model: &GnnModel, ds: &GraphDataset, compiler: CompilerConfig) -> CompiledPlan {
    let options = EngineOptions {
        compiler,
        ..EngineOptions::default()
    };
    let plan = Planner::new(options).plan(model, ds).unwrap();
    if is_regions_child() {
        assert!(
            plan.calibration().is_none(),
            "the child must run uncalibrated"
        );
    }
    plan
}

/// A request with mixed block densities: the first `hub_rows` vertices are
/// ~90 % dense (a hub block the dispatcher should route as GEMM) while the
/// tail stays ~1 % dense (SpDMM/SpGEMM territory).  A whole-product decision
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

/// The batch-1 and batch-8 request stream of the suite, in serving order.
fn request_stream(ds: &GraphDataset) -> Vec<FeatureMatrix> {
    let mut requests = vec![skewed_request(ds, ds.graph.num_vertices() / 4, 650)];
    requests.extend(request_batch(ds, 8));
    requests
}

/// Serves `requests` through a fresh session over `plan` — the first solo,
/// the rest as one batch — and returns every report in order.
fn serve(
    plan: &CompiledPlan,
    requests: &[FeatureMatrix],
    strategies: &[MappingStrategy],
) -> Vec<InferenceReport> {
    let mut session = plan.session(strategies);
    let mut reports = vec![session.infer(&requests[0]).unwrap()];
    if requests.len() > 1 {
        reports.extend(session.infer_batch(&requests[1..]).unwrap());
    }
    reports
}

/// Serves `requests` over `plan` (first alone, rest as one batch) and holds
/// every report to the oracle's run of the same request.
fn assert_served_stream_matches_oracle(
    model: &GnnModel,
    ds: &GraphDataset,
    plan: &CompiledPlan,
    requests: &[FeatureMatrix],
    strategies: &[MappingStrategy],
    ctx: &str,
) {
    let oracle = ReferenceExecutor::new(model, &ds.graph);
    let reports = serve(plan, requests, strategies);
    assert_eq!(reports.len(), requests.len());
    for (i, (request, got)) in requests.iter().zip(&reports).enumerate() {
        let want = run_oracle(&oracle, request, plan);
        assert_matches_oracle(got, plan, &want, &format!("{ctx} request {i}"));
    }
}

/// "Whole kernel" is the oracle: one fixed whole-matrix kernel per kernel
/// kind.  The executor itself has no whole-kernel dense path.
#[test]
fn block_granular_dispatch_is_bit_identical_with_and_without_calibration() {
    // Beside the compiler's own partition: eleven-row blocks, small and
    // ragged against the fixture's vertex count.
    let ragged = CompilerConfig {
        min_partition: 11,
        max_partition: 11,
        ..CompilerConfig::default()
    };
    for kind in GnnModelKind::all() {
        let (model, ds) = fixture(kind);
        assert_ne!(ds.graph.num_vertices() % 11, 0);
        let requests = request_stream(&ds);
        for compiler in [CompilerConfig::default(), ragged] {
            let plan = plan_with(&model, &ds, compiler);
            let partition = plan.partition();
            if compiler == ragged {
                assert_eq!((partition.n1, partition.n2), (11, 11));
            }
            assert_served_stream_matches_oracle(
                &model,
                &ds,
                &plan,
                &requests,
                &[MappingStrategy::Dynamic],
                &format!(
                    "{} at ({}, {}), regions {}",
                    kind.name(),
                    partition.n1,
                    partition.n2,
                    is_regions_child()
                ),
            );
        }
    }
    rerun_on_the_regions_fallback(
        "block_granular_dispatch_is_bit_identical_with_and_without_calibration",
    );
}

#[test]
fn whole_model_pricing_is_unchanged_across_paper_strategies() {
    // The full strategy sweep (Static1/Static2/Dynamic) over the block loop
    // must reproduce the oracle's prices exactly — the Analyzer / Scheduler
    // pipeline consumes the same density traces either way.
    let (model, ds) = fixture(GnnModelKind::Gin);
    assert_served_stream_matches_oracle(
        &model,
        &ds,
        &plan(&model, &ds),
        &request_stream(&ds),
        &MappingStrategy::paper_strategies(),
        "paper strategies",
    );
}

/// `m` in CSR storing every element that is not `+0.0` (so every `-0.0`),
/// and every `+0.0` at `(r, c)` with `keep_zero(r, c)`.
fn csr_storing(m: &DenseMatrix, keep_zero: impl Fn(usize, usize) -> bool) -> CsrMatrix {
    let (rows, cols) = m.shape();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for r in 0..rows {
        for c in 0..cols {
            let v = m.get(r, c);
            if v.to_bits() != 0 || keep_zero(r, c) {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values)
}

/// The CSR-stored requests of the one-pass ingest, for a plan whose Update
/// row blocks are `n2` rows: uniform at Cora's 1.27 %, hub-skewed rows,
/// explicitly stored `0.0`, `-0.0` and denormal entries, empty rows and two
/// empty row blocks, and an all-empty request.
fn csr_requests(ds: &GraphDataset, n2: usize) -> Vec<(&'static str, FeatureMatrix)> {
    let (v, dim) = (ds.graph.num_vertices(), ds.features.dim());
    let csr = |m: &DenseMatrix| FeatureMatrix::Sparse(CsrMatrix::from_dense(m));
    let mut explicit = dense_features(v, dim, 0.02, 44).to_dense();
    for r in (0..v).step_by(7) {
        explicit.set(r, r % dim, 0.0);
        explicit.set(r, (r + 1) % dim, -0.0);
        explicit.set(r, (r + 2) % dim, 1.0e-40);
    }
    let mut holes = dense_features(v, dim, 0.05, 45).to_dense();
    for r in (0..v).filter(|&r| r % 3 == 0 || (n2..3 * n2).contains(&r)) {
        for c in 0..dim {
            holes.set(r, c, 0.0);
        }
    }
    vec![
        (
            "CSR 1.27 %",
            csr(&dense_features(v, dim, 0.0127, 46).to_dense()),
        ),
        (
            "CSR hub-skewed",
            csr(&skewed_request(ds, v / 4, 47).to_dense()),
        ),
        (
            "CSR explicit zeros",
            FeatureMatrix::Sparse(csr_storing(&explicit, |r, c| r % 7 == 0 && c == r % dim)),
        ),
        ("CSR empty rows and blocks", csr(&holes)),
        (
            "CSR all-empty",
            FeatureMatrix::Sparse(CsrMatrix::empty(v, dim)),
        ),
    ]
}

/// Requests whose layer-0 Update streams them over row blocks, dense- or
/// CSR-stored: that kernel's own pass fills the kernel's input profile (the
/// GEMM's and right-sparse body's scan, the CSR gather's and Gustavson rows'
/// count) and the session prices from it, while the oracle refits the same
/// operand in a separate pass.  Everything a report exposes — decisions,
/// mix, cycles, density trace, embeddings — must agree, on hostile
/// (`-0.0`, denormal, empty) inputs, each served solo, over dense and
/// 95 %-pruned weights.  On the regions fallback the pruned model's
/// hub-skewed CSR request must run some of kernel 0's row blocks as
/// Gustavson rows, so their count is checked too.
fn assert_scanned_profiles_equal_separate_refits() {
    let (dense_model, ds) = fixture(GnnModelKind::Gcn);
    let v = ds.graph.num_vertices();
    let mut hostile = dense_features(v, ds.features.dim(), 0.02, 41).to_dense();
    for r in (0..v).step_by(7) {
        hostile.set(r, r % ds.features.dim(), -0.0);
        hostile.set(r, (r + 1) % ds.features.dim(), 1.0e-40);
    }
    let dense_requests = [
        (
            "dense 1.27 %",
            dense_features(v, ds.features.dim(), 0.0127, 40),
        ),
        ("dense hub-skewed", skewed_request(&ds, v / 4, 42)),
        ("dense hostile", FeatureMatrix::Dense(hostile)),
        (
            "dense all-zero",
            dense_features(v, ds.features.dim(), 0.0, 43),
        ),
    ];
    let strategies = MappingStrategy::paper_strategies();
    for (weights, model) in [
        ("dense", dense_model.clone()),
        ("95%-pruned", prune_model(&dense_model, 0.95)),
    ] {
        let oracle = ReferenceExecutor::new(&model, &ds.graph);
        let plan = plan(&model, &ds);
        let mut session = plan.session(&strategies);
        let registry = Arc::new(Registry::new(TelemetryLevel::Trace));
        *session.telemetry_mut() = SessionTelemetry::with_capacity(registry, 1 << 14);
        let mut gustavson_blocks = 0;
        let csr = csr_requests(&ds, plan.partition().n2);
        for (what, request) in dense_requests.iter().cloned().chain(csr) {
            session.telemetry_mut().clear_recorder();
            assert_matches_oracle(
                &session.infer(&request).unwrap(),
                &plan,
                &run_oracle(&oracle, &request, &plan),
                &format!("one-pass profile, {weights} weights, {what}"),
            );
            gustavson_blocks += session
                .telemetry()
                .recorder()
                .spans()
                .filter(|s| (s.layer, s.kernel) == (0, 0) && s.is_block())
                .filter(|s| s.primitive == SpanPrimitive::Spmm)
                .count();
        }
        if weights == "95%-pruned" && is_regions_child() {
            assert!(gustavson_blocks > 0, "no kernel-0 block ran Gustavson rows");
        }
    }
}

#[test]
fn kernel_scanned_profiles_match_separate_refits_at_one_and_two_kernel_threads() {
    // At two threads, row blocks and their profile counter rows are claimed
    // by different threads.  Each pool size runs calibrated and on the
    // regions fallback.
    const TEST: &str =
        "kernel_scanned_profiles_match_separate_refits_at_one_and_two_kernel_threads";
    at_one_and_two_kernel_threads(TEST, || {
        assert_scanned_profiles_equal_separate_refits();
        rerun_on_the_regions_fallback(TEST);
    });
}

#[test]
fn column_major_operands_are_served_bit_identically_solo_and_batched() {
    // Column-major request features reach a dense Update input (GCN) and a
    // dense Aggregate input (GraphSAGE, GIN), and one model weight is
    // column-major too: each takes one row-major copy at route resolution
    // and then runs the ordinary block loop.  Solo, then a batch of 3.
    for kind in [
        GnnModelKind::Gcn,
        GnnModelKind::GraphSage,
        GnnModelKind::Gin,
    ] {
        let (mut model, ds) = fixture(kind);
        model.weights[0] = model.weights[0].to_layout(Layout::ColMajor);
        let col_major = |seed: u64| {
            let request = skewed_request(&ds, ds.graph.num_vertices() / 4, seed).to_dense();
            FeatureMatrix::Dense(request.to_layout(Layout::ColMajor))
        };
        let requests = [
            col_major(810),
            col_major(811),
            dense_features(ds.graph.num_vertices(), ds.features.dim(), 0.05, 812),
            col_major(813),
        ];
        assert_served_stream_matches_oracle(
            &model,
            &ds,
            &plan(&model, &ds),
            &requests,
            &MappingStrategy::paper_strategies(),
            &format!("column-major {}", kind.name()),
        );
    }
}

#[test]
fn pruned_weights_run_updates_by_the_sparser_operand_solo_and_batched() {
    // Dense-stored requests on both sides of the pruned weights' densities:
    // one served alone, then a batch of three, against the oracle,
    // calibrated and on the regions fallback.
    for sparsity in [0.9, 0.99] {
        for kind in GnnModelKind::all() {
            let (model, ds) = fixture(kind);
            let model = prune_model(&model, sparsity);
            let (v, dim) = (ds.graph.num_vertices(), ds.features.dim());
            let requests: Vec<FeatureMatrix> = [0.5, 0.02, 0.5, 1.0]
                .iter()
                .zip(900..)
                .map(|(&density, seed)| dense_features(v, dim, density, seed))
                .collect();
            assert_served_stream_matches_oracle(
                &model,
                &ds,
                &plan(&model, &ds),
                &requests,
                &[MappingStrategy::Dynamic],
                &format!("{sparsity} pruned {}", kind.name()),
            );
        }
    }

    // And the session says what it ran.  Over a 90 %-pruned GIN and
    // half-dense requests, a pass runs its two Aggregates and all four
    // Updates as SpDMM; a batch of three is three such passes.
    let (model, ds) = fixture(GnnModelKind::Gin);
    let model = prune_model(&model, 0.9);
    let plan = plan(&model, &ds);
    let half_dense = |seed| dense_features(ds.graph.num_vertices(), ds.features.dim(), 0.5, seed);
    let dispatched = |batch: &[FeatureMatrix]| {
        let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
        let mut session = plan.session(&[]);
        session.set_telemetry(Arc::clone(&registry));
        session.infer_batch(batch).unwrap();
        (
            registry.counter(CounterId::DispatchGemm),
            registry.counter(CounterId::DispatchSpdmm),
        )
    };
    assert_eq!(dispatched(&[half_dense(910)]), (0, 6));
    assert_eq!(
        dispatched(&[half_dense(911), half_dense(912), half_dense(913)]),
        (0, 3 * 6)
    );
    rerun_on_the_regions_fallback(
        "pruned_weights_run_updates_by_the_sparser_operand_solo_and_batched",
    );
}
