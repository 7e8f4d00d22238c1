//! Engine configuration and the one-shot compatibility wrapper.
//!
//! The serving API is [`Planner`] → [`CompiledPlan`](crate::CompiledPlan) →
//! [`Session`]; see the crate docs for the quickstart.
//! [`Engine::evaluate`] keeps the pre-session one-shot signature alive by
//! planning, opening a single-request session and folding the
//! [`InferenceReport`](crate::InferenceReport) back into an [`Evaluation`] —
//! it produces cycle-for-cycle the same numbers as a session request over
//! the same features, just without amortizing the compilation.

use crate::error::DynasparseError;
use crate::planner::Planner;
use crate::report::Evaluation;
use crate::session::Session;
use dynasparse_accel::AcceleratorConfig;
use dynasparse_compiler::CompilerConfig;
use dynasparse_graph::GraphDataset;
use dynasparse_model::GnnModel;
use dynasparse_runtime::{MappingStrategy, PricingCacheMode};
use serde::{Deserialize, Serialize};

/// How a session executes the functional kernels on the host.
///
/// Every kernel is routed to a host primitive picked from its *runtime*
/// operand densities — the same signal the accelerator's Analyzer profiles —
/// by the argmin over the process-wide measured host calibration (the Table
/// IV regions under `DYNASPARSE_CALIBRATION=off`), and executes into a
/// reusable [`KernelArena`](dynasparse_model::KernelArena), performing zero
/// heap allocations per kernel in steady state.  A kernel's row blocks run
/// on the process-wide kernel thread pool
/// ([`ThreadPool::global`](dynasparse_matrix::ThreadPool::global)), sized
/// by `DYNASPARSE_THREADS` or else `available_parallelism` and inline at one
/// thread; no option here changes that.  The fixed-kernel
/// [`ReferenceExecutor::forward`](dynasparse_model::ReferenceExecutor::forward)
/// is the equivalence oracle the tests compare this engine against; it is
/// not a serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HostExecutionOptions {
    /// Cache Analyzer results keyed on quantized sparsity profiles (see
    /// [`PricingCacheMode`]).  `Bucketed` (default) shares one pricing pass
    /// across profiles that quantize into the same half-octave density
    /// buckets; `Exact` only amortizes exact repeats; `Off` restores
    /// uncached pricing.  Embeddings are unaffected in every mode — the
    /// cache only touches the strategy pricing pass.
    pub pricing_cache: PricingCacheMode,
}

/// Engine configuration: the hardware and compiler parameters.
///
/// Construct with [`EngineOptions::builder`] (or `Default` for the paper's
/// Alveo U250 configuration).  Options are `Clone` but deliberately not
/// `Copy`: they are cloned into each [`CompiledPlan`](crate::CompiledPlan) once and borrowed
/// everywhere else.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineOptions {
    /// Accelerator (hardware) configuration.
    pub accelerator: AcceleratorConfig,
    /// Compiler configuration.
    pub compiler: CompilerConfig,
    /// Host kernel execution configuration.
    pub host: HostExecutionOptions,
}

impl EngineOptions {
    /// Starts a builder pre-loaded with the paper-default configuration.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder {
            options: EngineOptions::default(),
        }
    }
}

/// Builder for [`EngineOptions`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptionsBuilder {
    options: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Sets the accelerator (hardware) configuration.
    pub fn accelerator(mut self, accelerator: AcceleratorConfig) -> Self {
        self.options.accelerator = accelerator;
        self
    }

    /// Sets the compiler configuration.
    pub fn compiler(mut self, compiler: CompilerConfig) -> Self {
        self.options.compiler = compiler;
        self
    }

    /// Sets the host kernel execution configuration.
    pub fn host(mut self, host: HostExecutionOptions) -> Self {
        self.options.host = host;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> EngineOptions {
        self.options
    }
}

/// The one-shot Dynasparse engine (compatibility wrapper over
/// [`Planner`] + [`Session`]).
#[derive(Debug, Clone, Default)]
pub struct Engine {
    options: EngineOptions,
}

impl Engine {
    /// Creates an engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Engine { options }
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Compiles and executes `model` on `dataset`, pricing every strategy in
    /// `strategies` from a single functional pass.
    ///
    /// This recompiles on every call.  To serve repeated requests over one
    /// graph topology, plan once with [`Planner::plan`] and call
    /// [`Session::infer`] per request instead.
    pub fn evaluate(
        &self,
        model: &GnnModel,
        dataset: &GraphDataset,
        strategies: &[MappingStrategy],
    ) -> Result<Evaluation, DynasparseError> {
        let plan = Planner::new(self.options.clone()).plan(model, dataset)?;
        let mut session = Session::new(&plan, strategies);
        let report = session.infer(&dataset.features)?;
        Ok(report.into_evaluation(&plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DynasparseError;
    use dynasparse_graph::Dataset;
    use dynasparse_model::{prune_model, GnnModelKind, ModelError};
    use dynasparse_runtime::MappingStrategy;

    fn small_eval(kind: GnnModelKind, weight_sparsity: f64) -> Evaluation {
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
        Engine::new(EngineOptions::default())
            .evaluate(&model, &dataset, &MappingStrategy::paper_strategies())
            .unwrap()
    }

    #[test]
    fn evaluation_produces_one_run_per_strategy() {
        let eval = small_eval(GnnModelKind::Gcn, 0.0);
        assert_eq!(eval.runs.len(), 3);
        assert!(eval.compile_ms > 0.0);
        assert!(eval.data_movement_ms > 0.0);
        for run in &eval.runs {
            assert!(run.total_cycles > 0);
            assert!(run.latency_ms > 0.0);
            assert!(run.end_to_end_ms > run.latency_ms);
            assert_eq!(run.kernels.len(), 4);
        }
    }

    #[test]
    fn dynamic_never_loses_to_static_strategies() {
        for kind in GnnModelKind::all() {
            let eval = small_eval(kind, 0.0);
            let dynamic = eval.run(MappingStrategy::Dynamic).unwrap().latency_ms;
            let s1 = eval.run(MappingStrategy::Static1).unwrap().latency_ms;
            let s2 = eval.run(MappingStrategy::Static2).unwrap().latency_ms;
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
        let eval = small_eval(GnnModelKind::Gcn, 0.0);
        let speedup = eval
            .speedup(MappingStrategy::Static1, MappingStrategy::Dynamic)
            .unwrap();
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn pruning_increases_dynamic_advantage_over_s2() {
        let unpruned = small_eval(GnnModelKind::Gin, 0.0);
        let pruned = small_eval(GnnModelKind::Gin, 0.95);
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
        let eval = small_eval(GnnModelKind::Gcn, 0.0);
        assert_eq!(eval.density_trace.stages.len(), 4);
        let run = eval.run(MappingStrategy::Dynamic).unwrap();
        for (stage, kernel) in eval.density_trace.stages.iter().zip(run.kernels.iter()) {
            assert!((stage.density - kernel.output_density).abs() < 1e-12);
        }
        assert_eq!(eval.output_embeddings.dim(), 7);
    }

    #[test]
    fn runtime_overhead_accounting_is_consistent() {
        let eval = small_eval(GnnModelKind::Gcn, 0.0);
        let run = eval.run(MappingStrategy::Dynamic).unwrap();
        // One decision per block product was accounted.
        assert_eq!(run.total_decisions(), run.total_mix().total());
        assert!(run.overhead.total_seconds() > 0.0);
        // At this heavily down-scaled size the partitions are tiny, so the
        // soft-processor fraction is larger than the paper's full-scale 6.8%
        // average; it must still stay within the same order of magnitude as
        // the execution itself (the fig13 harness reports full-scale values).
        assert!(run.overhead.fraction_of_execution() < 20.0);
        // Static strategies make no runtime decisions.
        let s1 = eval.run(MappingStrategy::Static1).unwrap();
        assert_eq!(s1.total_decisions(), 0);
        assert_eq!(s1.overhead.k2p_seconds, 0.0);
    }

    #[test]
    fn invalid_model_is_rejected_with_typed_error() {
        let dataset = Dataset::Cora.spec().generate_scaled(1, 0.1);
        let mut model = GnnModel::gcn(dataset.features.dim(), 8, 3, 1);
        model.weights.clear();
        let err = Engine::new(EngineOptions::default())
            .evaluate(&model, &dataset, &[MappingStrategy::Dynamic])
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

    #[test]
    fn options_builder_matches_struct_literal() {
        let built = EngineOptions::builder()
            .accelerator(AcceleratorConfig::default())
            .compiler(CompilerConfig::default())
            .build();
        assert_eq!(built, EngineOptions::default());
        let accel = AcceleratorConfig {
            num_cores: 3,
            ..Default::default()
        };
        let custom = EngineOptions::builder().accelerator(accel).build();
        assert_eq!(custom.accelerator.num_cores, 3);
        assert_eq!(custom.compiler, CompilerConfig::default());
    }
}
