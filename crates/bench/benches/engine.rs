//! Criterion benchmark of one cold request end to end — `Planner::plan`
//! (compilation) plus one `Session::infer` (functional execution + analysis
//! of the priced mapping strategies) — on a small and a medium dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use dynasparse::{InferenceReport, MappingStrategy, Planner};
use dynasparse_graph::{Dataset, GraphDataset};
use dynasparse_model::{GnnModel, GnnModelKind};

/// Plans `model` over `dataset` and serves the dataset's own features once.
fn plan_and_infer(
    model: &GnnModel,
    dataset: &GraphDataset,
    strategies: &[MappingStrategy],
) -> InferenceReport {
    let plan = Planner::default().plan(model, dataset).unwrap();
    let report = plan.session(strategies).infer(&dataset.features).unwrap();
    report
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_and_infer");
    group.sample_size(10);

    let cora = Dataset::Cora.spec().generate_scaled(3, 0.25);
    let cora_model = GnnModel::standard(
        GnnModelKind::Gcn,
        cora.features.dim(),
        16,
        cora.spec.num_classes,
        1,
    );
    group.bench_function("gcn_cora_quarter_scale", |b| {
        b.iter(|| plan_and_infer(&cora_model, &cora, &MappingStrategy::paper_strategies()))
    });

    let pubmed = Dataset::PubMed.spec().generate_scaled(3, 0.1);
    let pubmed_model = GnnModel::standard(
        GnnModelKind::GraphSage,
        pubmed.features.dim(),
        16,
        pubmed.spec.num_classes,
        1,
    );
    group.bench_function("graphsage_pubmed_tenth_scale", |b| {
        b.iter(|| plan_and_infer(&pubmed_model, &pubmed, &[MappingStrategy::Dynamic]))
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
