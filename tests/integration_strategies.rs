//! Cross-crate behaviour of the mapping strategies on full engine runs: the
//! relationships the paper's evaluation hinges on must hold end to end, not
//! just at the single-pair level.

use dynasparse::{EngineOptions, InferenceReport, MappingStrategy, Planner};
use dynasparse_graph::Dataset;
use dynasparse_model::{prune_model, GnnModel, GnnModelKind};

/// Plans `kind` over a scaled `dataset` and serves its own features once,
/// pricing the three paper strategies.
fn evaluate(
    kind: GnnModelKind,
    dataset: Dataset,
    scale: f64,
    weight_sparsity: f64,
) -> InferenceReport {
    let ds = dataset.spec().generate_scaled(21, scale);
    let mut model = GnnModel::standard(kind, ds.features.dim(), 16, ds.spec.num_classes, 4);
    if weight_sparsity > 0.0 {
        model = prune_model(&model, weight_sparsity);
    }
    let plan = Planner::new(EngineOptions::default())
        .plan(&model, &ds)
        .expect("planning failed");
    plan.session(&MappingStrategy::paper_strategies())
        .infer(&ds.features)
        .expect("inference failed")
}

#[test]
fn dynamic_wins_or_ties_on_every_model_and_small_dataset() {
    for kind in GnnModelKind::all() {
        for dataset in [Dataset::Cora, Dataset::CiteSeer] {
            let report = evaluate(kind, dataset, 0.25, 0.0);
            let dynamic = report.run(MappingStrategy::Dynamic).unwrap().latency_ms;
            for s in [MappingStrategy::Static1, MappingStrategy::Static2] {
                let other = report.run(s).unwrap().latency_ms;
                assert!(
                    dynamic <= other * 1.001,
                    "{} on {}: dynamic {dynamic} vs {} {other}",
                    kind.name(),
                    dataset.name(),
                    s.label()
                );
            }
        }
    }
}

#[test]
fn gcn_speedup_over_s1_is_large_when_input_features_are_sparse() {
    // CiteSeer input features are 0.85% dense; the paper reports 41x at full
    // scale.  At quarter scale with a load-bound memory model we still expect
    // a substantial factor.
    let report = evaluate(GnnModelKind::Gcn, Dataset::CiteSeer, 0.25, 0.0);
    let so_s1 = report
        .speedup(MappingStrategy::Static1, MappingStrategy::Dynamic)
        .unwrap();
    assert!(so_s1 > 3.0, "SO-S1 = {so_s1}");
}

#[test]
fn weight_pruning_monotonically_helps_dynamic_relative_to_s2() {
    let mut last = 0.0;
    for sparsity in [0.0, 0.5, 0.9] {
        let report = evaluate(GnnModelKind::Gin, Dataset::Cora, 0.25, sparsity);
        let so_s2 = report
            .speedup(MappingStrategy::Static2, MappingStrategy::Dynamic)
            .unwrap();
        assert!(
            so_s2 >= last * 0.95,
            "SO-S2 should not shrink as weights get sparser: {last} -> {so_s2}"
        );
        last = so_s2;
    }
}

#[test]
fn static_strategies_map_kernels_the_way_prior_accelerators_do() {
    let report = evaluate(GnnModelKind::Gcn, Dataset::Cora, 0.2, 0.0);
    let s1 = report.run(MappingStrategy::Static1).unwrap();
    let s2 = report.run(MappingStrategy::Static2).unwrap();
    // S1 (HyGCN/BoostGCN): Aggregate -> SpDMM, Update -> GEMM, nothing skipped.
    for k in &s1.kernels {
        assert_eq!(k.mix.skipped, 0);
        match k.kind {
            dynasparse_compiler::KernelKind::Aggregate => {
                assert_eq!(k.mix.gemm, 0);
                assert_eq!(k.mix.spmm, 0);
                assert_eq!(k.mix.spdmm, k.mix.total());
            }
            dynasparse_compiler::KernelKind::Update => {
                assert_eq!(k.mix.spdmm, 0);
                assert_eq!(k.mix.gemm, k.mix.total());
            }
        }
    }
    // S2 (AWB-GCN): everything SpDMM, nothing skipped.
    for k in &s2.kernels {
        assert_eq!(k.mix.skipped, 0);
        assert_eq!(k.mix.spdmm, k.mix.total());
    }
    // Dynamic skips the empty feature partitions of the sparse input.
    let dynamic = report.run(MappingStrategy::Dynamic).unwrap();
    assert!(dynamic.total_mix().skipped > 0);
}

#[test]
fn functional_output_is_identical_across_strategies() {
    // The mapping strategy affects only the latency model, never the
    // numerical result (all primitives compute the same product).
    let report = evaluate(GnnModelKind::GraphSage, Dataset::Cora, 0.2, 0.0);
    // One functional pass serves all strategies, so the output embeddings and
    // the density trace are shared; check they are self-consistent.
    assert_eq!(
        report.density_trace.stages.len(),
        report.run(MappingStrategy::Dynamic).unwrap().kernels.len()
    );
    assert_eq!(report.output_embeddings.dim(), 7);
}
