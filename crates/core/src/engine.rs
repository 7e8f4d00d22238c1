//! Engine configuration.
//!
//! The serving API is [`Planner`](crate::Planner) →
//! [`CompiledPlan`](crate::CompiledPlan) → [`Session`](crate::Session); see
//! the crate docs for the quickstart.  [`EngineOptions`] is the one place
//! it is configured.

use dynasparse_accel::AcceleratorConfig;
use dynasparse_compiler::CompilerConfig;
use serde::{Deserialize, Serialize};

/// Engine configuration: the hardware and compiler parameters.
///
/// `Default` is the paper's Alveo U250 configuration; override a field with
/// struct update syntax, e.g. `EngineOptions { compiler,
/// ..EngineOptions::default() }`.  Options are `Clone` but deliberately not
/// `Copy`: they are cloned into each [`CompiledPlan`](crate::CompiledPlan)
/// once and borrowed everywhere else.
///
/// Nothing here changes how a session executes on the host: every kernel is
/// routed by the process-wide measured host calibration (the Table IV
/// regions under `DYNASPARSE_CALIBRATION=off`), its row blocks run on the
/// process-wide kernel thread pool (`DYNASPARSE_THREADS`), and every
/// session prices strategies through the one bucketed pricing cache.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineOptions {
    /// Accelerator (hardware) configuration.
    pub accelerator: AcceleratorConfig,
    /// Compiler configuration.
    pub compiler: CompilerConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DynasparseError;
    use crate::planner::{CompiledPlan, Planner};
    use crate::report::InferenceReport;
    use dynasparse_graph::Dataset;
    use dynasparse_model::{prune_model, GnnModel, GnnModelKind, ModelError};
    use dynasparse_runtime::MappingStrategy;

    /// Plans a small Cora instance and serves its own features once, pricing
    /// the three paper strategies.
    fn small_eval(kind: GnnModelKind, weight_sparsity: f64) -> (CompiledPlan, InferenceReport) {
        let dataset = Dataset::Cora.spec().generate_scaled(11, 0.2);
        let mut model = GnnModel::standard(
            kind,
            dataset.features.dim(),
            16,
            dataset.spec.num_classes,
            3,
        );
        if weight_sparsity > 0.0 {
            model = prune_model(&model, weight_sparsity);
        }
        let plan = Planner::new(EngineOptions::default())
            .plan(&model, &dataset)
            .unwrap();
        let report = plan
            .session(&MappingStrategy::paper_strategies())
            .infer(&dataset.features)
            .unwrap();
        (plan, report)
    }

    #[test]
    fn evaluation_produces_one_run_per_strategy() {
        let (plan, report) = small_eval(GnnModelKind::Gcn, 0.0);
        assert_eq!(report.runs.len(), 3);
        assert!(plan.compile_ms() > 0.0);
        assert!(report.data_movement_ms > 0.0);
        for run in &report.runs {
            assert!(run.total_cycles > 0);
            assert!(run.latency_ms > 0.0);
            assert!(run.end_to_end_ms > run.latency_ms);
            assert_eq!(run.kernels.len(), 4);
        }
    }

    #[test]
    fn dynamic_never_loses_to_static_strategies() {
        for kind in GnnModelKind::all() {
            let (_, report) = small_eval(kind, 0.0);
            let dynamic = report.run(MappingStrategy::Dynamic).unwrap().latency_ms;
            let s1 = report.run(MappingStrategy::Static1).unwrap().latency_ms;
            let s2 = report.run(MappingStrategy::Static2).unwrap().latency_ms;
            assert!(
                dynamic <= s1 * 1.001 && dynamic <= s2 * 1.001,
                "{}: dynamic {dynamic} s1 {s1} s2 {s2}",
                kind.name()
            );
        }
    }

    #[test]
    fn gcn_dynamic_beats_s1_substantially_on_sparse_inputs() {
        // Cora's input features are ~1% dense; S1 runs the dominating first
        // Update as dense GEMM, so the dynamic mapping wins by a large
        // factor (Table VII shows 21.5x at full scale).
        let (_, report) = small_eval(GnnModelKind::Gcn, 0.0);
        let speedup = report
            .speedup(MappingStrategy::Static1, MappingStrategy::Dynamic)
            .unwrap();
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn pruning_increases_dynamic_advantage_over_s2() {
        let (_, unpruned) = small_eval(GnnModelKind::Gin, 0.0);
        let (_, pruned) = small_eval(GnnModelKind::Gin, 0.95);
        let so_s2_unpruned = unpruned
            .speedup(MappingStrategy::Static2, MappingStrategy::Dynamic)
            .unwrap();
        let so_s2_pruned = pruned
            .speedup(MappingStrategy::Static2, MappingStrategy::Dynamic)
            .unwrap();
        assert!(
            so_s2_pruned > so_s2_unpruned,
            "pruned {so_s2_pruned} vs unpruned {so_s2_unpruned}"
        );
        // Pruning must not slow the dynamic strategy down; at this reduced
        // scale the kernels are partly load-bound, so we only require a
        // non-regression here (the full-scale sweep of the fig11_12 harness
        // shows the latency reduction the paper reports).
        let lat_unpruned = unpruned.run(MappingStrategy::Dynamic).unwrap().latency_ms;
        let lat_pruned = pruned.run(MappingStrategy::Dynamic).unwrap().latency_ms;
        assert!(lat_pruned <= lat_unpruned * 1.02);
    }

    #[test]
    fn density_trace_matches_kernel_reports() {
        let (_, report) = small_eval(GnnModelKind::Gcn, 0.0);
        assert_eq!(report.density_trace.stages.len(), 4);
        let run = report.run(MappingStrategy::Dynamic).unwrap();
        for (stage, kernel) in report.density_trace.stages.iter().zip(run.kernels.iter()) {
            assert!((stage.density - kernel.output_density).abs() < 1e-12);
        }
        assert_eq!(report.output_embeddings.dim(), 7);
    }

    #[test]
    fn runtime_overhead_accounting_is_consistent() {
        let (_, report) = small_eval(GnnModelKind::Gcn, 0.0);
        let run = report.run(MappingStrategy::Dynamic).unwrap();
        // One decision per block product was accounted.
        assert_eq!(run.total_decisions(), run.total_mix().total());
        assert!(run.overhead.total_seconds() > 0.0);
        // At this heavily down-scaled size the partitions are tiny, so the
        // soft-processor fraction is larger than the paper's full-scale 6.8%
        // average; it must still stay within the same order of magnitude as
        // the execution itself (the fig13 harness reports full-scale values).
        assert!(run.overhead.fraction_of_execution() < 20.0);
        // Static strategies make no runtime decisions.
        let s1 = report.run(MappingStrategy::Static1).unwrap();
        assert_eq!(s1.total_decisions(), 0);
        assert_eq!(s1.overhead.k2p_seconds, 0.0);
    }

    #[test]
    fn invalid_model_is_rejected_with_typed_error() {
        let dataset = Dataset::Cora.spec().generate_scaled(1, 0.1);
        let mut model = GnnModel::gcn(dataset.features.dim(), 8, 3, 1);
        model.weights.clear();
        let err = Planner::new(EngineOptions::default())
            .plan(&model, &dataset)
            .unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Model(ModelError::MissingWeight {
                layer: 0,
                weight: 0,
                available: 0
            })
        ));
    }
}
