//! A fixed-plan runtime is a template runtime whose instance happens to be
//! constant.
//!
//! `ServeRuntime` has one worker loop: every request resolves to a plan (the
//! constant one, or the template instantiated on the request's subgraph)
//! and is served by one `Session::infer` on it.  So a template runtime fed
//! the *same* topology on every request must return exactly what a
//! fixed-plan runtime over that topology returns for the same request
//! stream — whether a drain takes one queued request or several.

use dynasparse::{EngineOptions, InferenceReport, MappingStrategy, ModelTemplate, Planner};
use dynasparse_graph::generators::dense_features;
use dynasparse_graph::{Dataset, FeatureMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_serve::{ServeConfig, ServeRuntime};

/// Bit-level equality of everything a report carries except
/// `end_to_end_ms`, which folds in the wall-clock compile (or instantiate)
/// time of the plan the request ran on.
fn assert_reports_identical(want: &InferenceReport, got: &InferenceReport, ctx: &str) {
    assert_eq!(want.request_index, got.request_index, "{ctx}: index");
    assert_eq!(
        want.output_embeddings, got.output_embeddings,
        "{ctx}: embeddings"
    );
    assert_eq!(want.density_trace, got.density_trace, "{ctx}: densities");
    assert_eq!(
        want.data_movement_ms.to_bits(),
        got.data_movement_ms.to_bits(),
        "{ctx}: data movement"
    );
    assert_eq!(
        want.feature_movement_ms.to_bits(),
        got.feature_movement_ms.to_bits(),
        "{ctx}: feature movement"
    );
    assert_eq!(want.runs.len(), got.runs.len(), "{ctx}: run count");
    for (w, g) in want.runs.iter().zip(&got.runs) {
        assert_eq!(w.strategy, g.strategy, "{ctx}: strategy order");
        assert_eq!(w.total_cycles, g.total_cycles, "{ctx}: cycles");
        assert_eq!(
            w.latency_ms.to_bits(),
            g.latency_ms.to_bits(),
            "{ctx}: latency"
        );
        assert_eq!(
            w.average_utilization.to_bits(),
            g.average_utilization.to_bits(),
            "{ctx}: utilization"
        );
        assert_eq!(w.overhead, g.overhead, "{ctx}: overhead");
        // `Debug` prints floats shortest-round-trip, so equal strings mean
        // every kernel report field is bit-identical.
        assert_eq!(
            format!("{:?}", w.kernels),
            format!("{:?}", g.kernels),
            "{ctx}: kernel reports"
        );
    }
}

#[test]
fn a_template_runtime_on_one_topology_matches_the_fixed_plan_runtime() {
    let ds = Dataset::Cora.spec().generate_scaled(31, 0.1);
    let model = GnnModel::standard(
        GnnModelKind::GraphSage,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        4,
    );
    let (rows, dim) = ds.features.shape();
    // Densities spanning the primitive regions, so the stream exercises
    // different kernel-to-primitive mappings (and pricing-cache buckets).
    let stream: Vec<FeatureMatrix> = std::iter::once(ds.features.clone())
        .chain((0..8).map(|i| dense_features(rows, dim, 0.01 + 0.12 * i as f64, 70 + i)))
        .collect();
    let strategies = MappingStrategy::paper_strategies();

    for max_batch in [1, 4] {
        let config = ServeConfig::default()
            .workers(2)
            .max_batch(max_batch)
            .strategies(&strategies);
        let fixed = ServeRuntime::start(
            Planner::default().plan_shared(&model, &ds).unwrap(),
            config.clone(),
        );
        let templated = ServeRuntime::start_template(
            ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap(),
            config,
        );
        let want = fixed.serve_all(stream.iter().cloned());
        let got = templated.serve_all(stream.iter().map(|f| (ds.graph.clone(), f.clone())));
        assert_eq!(want.len(), stream.len());
        for (i, (want, got)) in want.iter().zip(&got).enumerate() {
            let ctx = format!("max_batch {max_batch}, request {i}");
            let want = want.as_ref().expect("fixed-plan request serves");
            let got = got.as_ref().expect("template request serves");
            assert_eq!(want.request_index, i, "{ctx}");
            assert_reports_identical(want, got, &ctx);
        }
        assert_eq!(fixed.shutdown().requests, stream.len() as u64);
        assert_eq!(templated.shutdown().requests, stream.len() as u64);
    }
}
