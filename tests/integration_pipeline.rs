//! Whole-pipeline consistency: compiler output, engine accounting and the
//! baseline models must agree on the quantities they share (task counts,
//! workload sizes, latency bookkeeping).

use dynasparse::{CompiledPlan, EngineOptions, InferenceReport, MappingStrategy, Planner};
use dynasparse_baselines::{EndToEndBreakdown, FrameworkBaseline, FrameworkKind, WorkloadSummary};
use dynasparse_compiler::{compile, CompilerConfig, ComputationGraph};
use dynasparse_graph::Dataset;
use dynasparse_model::{GnnModel, GnnModelKind};

fn setup() -> (GnnModel, dynasparse_graph::GraphDataset) {
    let ds = Dataset::PubMed.spec().generate_scaled(17, 0.1);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        5,
    );
    (model, ds)
}

/// Plans `model` over `ds` and serves the dataset's own features once.
fn serve_once(
    model: &GnnModel,
    ds: &dynasparse_graph::GraphDataset,
    strategies: &[MappingStrategy],
) -> (CompiledPlan, InferenceReport) {
    let plan = Planner::new(EngineOptions::default())
        .plan(model, ds)
        .unwrap();
    let report = plan.session(strategies).infer(&ds.features).unwrap();
    (plan, report)
}

#[test]
fn engine_kernel_cycles_sum_to_the_reported_total() {
    let (model, ds) = setup();
    let (plan, report) = serve_once(&model, &ds, &MappingStrategy::paper_strategies());
    for run in &report.runs {
        let sum: u64 = run.kernels.iter().map(|k| k.cycles).sum();
        assert_eq!(sum, run.total_cycles, "{}", run.strategy.label());
        let expect_ms = run.total_cycles as f64 / 250e3;
        assert!((run.latency_ms - expect_ms).abs() < 1e-9);
        assert!(
            (run.end_to_end_ms - (plan.compile_ms() + report.data_movement_ms + run.latency_ms))
                .abs()
                < 1e-9
        );
    }
}

#[test]
fn compiled_task_counts_match_what_the_scheduler_dispatched() {
    let (model, ds) = setup();
    let compiled = compile(&model, &ds, &CompilerConfig::default());
    let (_, report) = serve_once(&model, &ds, &[MappingStrategy::Dynamic]);
    let run = report.run(MappingStrategy::Dynamic).unwrap();
    // The engine analyzed exactly the kernels the compiler produced, and the
    // per-kernel decision count equals the number of block products.
    assert_eq!(run.kernels.len(), compiled.program.kernels.len());
    for (kr, ck) in run.kernels.iter().zip(compiled.program.kernels.iter()) {
        assert_eq!(kr.kernel_id, ck.ir.id);
        assert_eq!(kr.mix.total(), ck.total_pairs());
    }
}

#[test]
fn baseline_workload_uses_the_same_kernel_structure_as_the_compiler() {
    let (model, ds) = setup();
    let graph = ComputationGraph::from_model(&model, ds.graph.num_vertices(), ds.graph.num_edges());
    let workload = WorkloadSummary::from_graph(
        &graph,
        ds.graph.num_edges() + ds.graph.num_vertices(),
        ds.features.dim(),
        ds.feature_density(),
    );
    assert_eq!(workload.kernels.len(), graph.len());
    // Every baseline must take strictly positive time on a non-trivial model.
    for kind in FrameworkKind::software()
        .into_iter()
        .chain(FrameworkKind::accelerators())
    {
        let b = FrameworkBaseline::new(kind, workload.clone());
        assert!(b.execution_ms() > 0.0, "{}", kind.name());
    }
}

#[test]
fn dynasparse_is_faster_than_the_software_baselines_on_the_same_workload() {
    let (model, ds) = setup();
    let (_, report) = serve_once(&model, &ds, &[MappingStrategy::Dynamic]);
    let dynamic_ms = report.run(MappingStrategy::Dynamic).unwrap().latency_ms;
    let graph = ComputationGraph::from_model(&model, ds.graph.num_vertices(), ds.graph.num_edges());
    let workload = WorkloadSummary::from_graph(
        &graph,
        ds.graph.num_edges() + ds.graph.num_vertices(),
        ds.features.dim(),
        ds.feature_density(),
    );
    // At this reduced scale the GPU's raw throughput can mask its dispatch
    // overheads, so the guaranteed ordering is against the CPU frameworks
    // (the published-scale GPU comparison is produced by the fig14 harness).
    for kind in [FrameworkKind::PygCpu, FrameworkKind::DglCpu] {
        let b = FrameworkBaseline::new(kind, workload.clone());
        assert!(
            b.execution_ms() > dynamic_ms,
            "{} ({} ms) should be slower than Dynasparse ({dynamic_ms} ms)",
            kind.name(),
            b.execution_ms()
        );
    }
}

#[test]
fn end_to_end_breakdown_components_are_consistent() {
    let (model, ds) = setup();
    let (plan, report) = serve_once(&model, &ds, &[MappingStrategy::Dynamic]);
    let run = report.run(MappingStrategy::Dynamic).unwrap();
    let breakdown = EndToEndBreakdown {
        preprocessing_ms: plan.compile_ms(),
        data_movement_ms: report.data_movement_ms,
        execution_ms: run.latency_ms,
    };
    assert!((breakdown.total_ms() - run.end_to_end_ms).abs() < 1e-9);
    let (p, m, e) = breakdown.fractions();
    assert!((p + m + e - 1.0).abs() < 1e-9);
}

#[test]
fn strategy_runs_serialize_to_json_for_the_harness_reports() {
    let (model, ds) = setup();
    let (_, report) = serve_once(&model, &ds, &[MappingStrategy::Dynamic]);
    let json = serde_json::to_string(&report.runs).expect("runs serialize");
    assert!(json.contains("\"Dynamic\""));
    assert!(json.contains("latency_ms"));
}
