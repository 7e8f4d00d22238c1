//! Numerical equivalence of the dispatching kernel engine.
//!
//! `Session::infer` (mode-picked kernels into the reusable arena, row blocks
//! over the kernel thread pool at one and at two threads) must be
//! bit-identical to the fixed-kernel oracle of `tests/common`
//! (`ReferenceExecutor::forward_with`) — same output embeddings, same
//! runtime density trace — and must price every strategy exactly as
//! `Analyzer`/`Scheduler` run on the density profiles of the oracle's kernel
//! inputs do, for every model kind, for dense and sparse feature storage,
//! and for pruned weights that trigger the sparse-sparse route.

mod common;

use common::{assert_matches_oracle, at_one_and_two_kernel_threads, run_oracle};
use dynasparse::{EngineOptions, MappingStrategy, Planner};
use dynasparse_graph::{Dataset, FeatureMatrix, GraphDataset};
use dynasparse_model::{prune_model, GnnModel, GnnModelKind, ReferenceExecutor};
use dynasparse_runtime::MappingStrategy as Strategy;

fn assert_equivalent(model: &GnnModel, dataset: &GraphDataset, label: &str) {
    let strategies = MappingStrategy::paper_strategies();
    let oracle = ReferenceExecutor::new(model, &dataset.graph);
    let plan = Planner::default().plan(model, dataset).unwrap();
    let want = run_oracle(&oracle, &dataset.features, &plan);
    let mut session = plan.session(&strategies);
    // Two requests: the second exercises steady-state arena reuse.
    let _first = session.infer(&dataset.features).unwrap();
    let got = session.infer(&dataset.features).unwrap();
    assert_matches_oracle(&got, &plan, &want, label);
}

#[test]
fn every_model_kind_is_equivalent_on_dense_features() {
    at_one_and_two_kernel_threads("every_model_kind_is_equivalent_on_dense_features", || {
        let dataset = Dataset::Cora.spec().generate_scaled(5, 0.12);
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(
                kind,
                dataset.features.dim(),
                16,
                dataset.spec.num_classes,
                7,
            );
            assert_equivalent(&model, &dataset, kind.name());
        }
    });
}

#[test]
fn sparse_stored_features_are_equivalent() {
    // NELL-like storage: very sparse features kept in CSR, which drives the
    // sparse-sparse aggregate route (and the keep-sparse output rule).
    at_one_and_two_kernel_threads("sparse_stored_features_are_equivalent", || {
        let mut dataset = Dataset::Cora.spec().generate_scaled(11, 0.12);
        let dense = dataset.features.to_dense();
        dataset.features = FeatureMatrix::Sparse(dynasparse_matrix::CsrMatrix::from_dense(&dense));
        let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 3);
        assert_equivalent(&model, &dataset, "gcn/sparse-features");
    });
}

#[test]
fn pruned_weights_are_equivalent() {
    // 95% magnitude pruning makes the weights SPMM-eligible, exercising the
    // cached-CSR sparse-sparse update route.
    at_one_and_two_kernel_threads("pruned_weights_are_equivalent", || {
        let mut dataset = Dataset::Cora.spec().generate_scaled(13, 0.12);
        let dense = dataset.features.to_dense();
        dataset.features = FeatureMatrix::Sparse(dynasparse_matrix::CsrMatrix::from_dense(&dense));
        let model = prune_model(
            &GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 9),
            0.95,
        );
        assert_equivalent(&model, &dataset, "gcn/pruned");
    });
}

#[test]
fn fully_dense_features_take_the_gemm_route_and_match() {
    at_one_and_two_kernel_threads("fully_dense_features_take_the_gemm_route_and_match", || {
        let mut dataset = Dataset::Cora.spec().generate_scaled(17, 0.12);
        let (v, f) = dataset.features.shape();
        dataset.features =
            FeatureMatrix::Dense(dynasparse_matrix::DenseMatrix::from_fn(v, f, |r, c| {
                ((r * 31 + c * 7) % 13) as f32 * 0.1 + 0.05
            }));
        let model = GnnModel::gcn(f, 16, dataset.spec.num_classes, 21);
        assert_equivalent(&model, &dataset, "gcn/full-density");
    });
}

#[test]
fn one_shot_dynamic_pricing_matches_or_beats_s1() {
    // A fresh plan serving one request rides the same session machinery;
    // its dynamic strategy must still beat or match the static mappings.
    let dataset = Dataset::Cora.spec().generate_scaled(23, 0.12);
    let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 2);
    let plan = Planner::new(EngineOptions::default())
        .plan(&model, &dataset)
        .unwrap();
    let report = plan
        .session(&MappingStrategy::paper_strategies())
        .infer(&dataset.features)
        .unwrap();
    let dynamic = report.run(Strategy::Dynamic).unwrap();
    let s1 = report.run(Strategy::Static1).unwrap();
    assert!(dynamic.total_cycles <= s1.total_cycles);
}
