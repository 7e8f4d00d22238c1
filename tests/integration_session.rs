//! Session reuse is lossless: serving a request from a reused, warmed
//! Planner/Session must produce bit-for-bit the numbers a one-shot request
//! (a fresh `Planner::plan` plus one `Session::infer`) produces for the same
//! inputs — identical latencies, primitive mixes, densities, overhead
//! accounting and output embeddings — for both the original features and
//! mutated features over the same graph topology.

use dynasparse::{DynasparseError, EngineOptions, InferenceReport, MappingStrategy, Planner};
use dynasparse_graph::{Dataset, FeatureMatrix, GraphDataset};
use dynasparse_matrix::DenseMatrix;
use dynasparse_model::{GnnModel, GnnModelKind};

fn setup(kind: GnnModelKind) -> (GnnModel, GraphDataset) {
    let ds = Dataset::Cora.spec().generate_scaled(33, 0.15);
    let model = GnnModel::standard(kind, ds.features.dim(), 16, ds.spec.num_classes, 5);
    (model, ds)
}

/// Serves `ds`'s own features once from a freshly planned session.
fn one_shot(
    model: &GnnModel,
    ds: &GraphDataset,
    strategies: &[MappingStrategy],
) -> InferenceReport {
    let plan = Planner::new(EngineOptions::default())
        .plan(model, ds)
        .unwrap();
    let report = plan.session(strategies).infer(&ds.features).unwrap();
    report
}

/// Compares every number the two paths share (everything except the
/// request index, which counts the reused session's requests).
fn assert_reports_match(cold: &InferenceReport, report: &InferenceReport) {
    assert_eq!(cold.data_movement_ms, report.data_movement_ms);
    assert_eq!(
        cold.density_trace.input_density,
        report.density_trace.input_density
    );
    assert_eq!(
        cold.density_trace.stages.len(),
        report.density_trace.stages.len()
    );
    for (a, b) in cold
        .density_trace
        .stages
        .iter()
        .zip(report.density_trace.stages.iter())
    {
        assert_eq!(a.layer, b.layer);
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.op, b.op);
        assert_eq!(a.density, b.density);
    }
    assert_eq!(cold.runs.len(), report.runs.len());
    for (a, b) in cold.runs.iter().zip(report.runs.iter()) {
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.average_utilization, b.average_utilization);
        assert_eq!(a.total_decisions(), b.total_decisions());
        assert_eq!(a.total_mix(), b.total_mix());
        assert_eq!(a.overhead.k2p_seconds, b.overhead.k2p_seconds);
        assert_eq!(a.overhead.scheduling_seconds, b.overhead.scheduling_seconds);
        assert_eq!(a.kernels.len(), b.kernels.len());
        for (ka, kb) in a.kernels.iter().zip(b.kernels.iter()) {
            assert_eq!(ka.kernel_id, kb.kernel_id);
            assert_eq!(ka.cycles, kb.cycles);
            assert_eq!(ka.utilization, kb.utilization);
            assert_eq!(ka.decisions, kb.decisions);
            assert_eq!(ka.mix, kb.mix);
            assert_eq!(ka.input_density, kb.input_density);
            assert_eq!(ka.output_density, kb.output_density);
        }
    }
    assert_eq!(
        cold.output_embeddings.to_dense().as_slice(),
        report.output_embeddings.to_dense().as_slice()
    );
}

/// Re-generates the dataset's topology with different features: every value
/// shifted and some rows zeroed, changing runtime densities substantially.
fn mutate_features(features: &FeatureMatrix) -> FeatureMatrix {
    let dense = features.to_dense();
    let (rows, cols) = dense.shape();
    FeatureMatrix::Dense(DenseMatrix::from_fn(rows, cols, |r, c| {
        if r % 7 == 0 {
            0.0
        } else {
            let v = dense.get(r, c);
            if v == 0.0 {
                ((r + c) % 11 == 0) as usize as f32 * 0.5
            } else {
                v + 0.25
            }
        }
    }))
}

#[test]
fn session_reuse_matches_one_shot_on_identical_features() {
    for kind in [GnnModelKind::Gcn, GnnModelKind::GraphSage] {
        let (model, ds) = setup(kind);
        let strategies = MappingStrategy::paper_strategies();

        let plan = Planner::new(EngineOptions::default())
            .plan(&model, &ds)
            .unwrap();
        let mut session = plan.session(&strategies);
        // Warm the session with an unrelated request first, then serve the
        // measured one: reuse must not leak state between requests.
        session.infer(&mutate_features(&ds.features)).unwrap();
        let report = session.infer(&ds.features).unwrap();

        let cold = one_shot(&model, &ds, &strategies);
        assert_reports_match(&cold, &report);
    }
}

#[test]
fn session_reuse_matches_one_shot_on_mutated_features() {
    let (model, ds) = setup(GnnModelKind::Gin);
    let strategies = MappingStrategy::paper_strategies();
    let mutated = mutate_features(&ds.features);

    // Session path: plan from the original dataset, then serve the mutated
    // request (same topology, new features — the serving scenario).
    let plan = Planner::new(EngineOptions::default())
        .plan(&model, &ds)
        .unwrap();
    let mut session = plan.session(&strategies);
    session.infer(&ds.features).unwrap();
    let report = session.infer(&mutated).unwrap();

    // One-shot path: a fresh dataset carrying the mutated features.
    let mut fresh = ds.clone();
    fresh.features = mutated;
    let cold = one_shot(&model, &fresh, &strategies);
    assert_reports_match(&cold, &report);
}

#[test]
fn compilation_happens_exactly_once_per_plan() {
    let (model, ds) = setup(GnnModelKind::Gcn);
    let plan = Planner::new(EngineOptions::default())
        .plan(&model, &ds)
        .unwrap();
    // The compile report is immutable plan state: its timing breakdown and
    // program are byte-stable across any number of served requests.
    let compile_ms = plan.compile_ms();
    let total_tasks = plan.program().total_tasks();
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    for _ in 0..5 {
        session.infer(&ds.features).unwrap();
    }
    assert_eq!(session.requests_served(), 5);
    assert_eq!(plan.compile_ms(), compile_ms);
    assert_eq!(plan.program().total_tasks(), total_tasks);
}

#[test]
fn stringly_model_errors_are_gone() {
    let (mut model, ds) = setup(GnnModelKind::Gcn);
    model.layers.clear();
    let err = Planner::new(EngineOptions::default())
        .plan(&model, &ds)
        .unwrap_err();
    // Typed end to end: DynasparseError::Model wraps ModelError::NoLayers.
    match err {
        DynasparseError::Model(dynasparse::ModelError::NoLayers) => {}
        other => panic!("expected Model(NoLayers), got {other:?}"),
    }
}
