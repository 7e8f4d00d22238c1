//! The Planner: one-time, input-independent preparation of a serving plan.
//!
//! Dynasparse's compile-time artifacts — the computation graph, the partition
//! sizes of Algorithm 9, the execution schemes of Algorithms 2/3, and the
//! static adjacency/weight sparsity profiles — do not depend on the input
//! feature matrix.  [`Planner::plan`] therefore runs them once, producing an
//! immutable [`CompiledPlan`] that any number of [`Session`]s can serve
//! inference requests from.  Only the per-request work (the runtime sparsity
//! profiling and the kernel-to-primitive mapping it drives) happens inside
//! [`Session::infer`].
//!
//! [`Session`]: crate::Session
//! [`Session::infer`]: crate::Session::infer

use crate::engine::EngineOptions;
use crate::error::{CompileError, DynasparseError};
use crate::session::{PlanHandle, Session};
use dynasparse_compiler::{compile, CompileReport, CompiledProgram};
use dynasparse_graph::{AggregatorKind, FeatureMatrix, Graph, GraphDataset};
use dynasparse_matrix::{CsrMatrix, HostCalibration, MatrixError, PartitionSpec, UpdateFit};
use dynasparse_model::{prepare_adjacencies, price_update_widths, GnnModel};
use dynasparse_runtime::MappingStrategy;
use std::collections::HashMap;
use std::sync::Arc;

/// Validates a model against a dataset and compiles a serving plan.
#[derive(Debug, Clone)]
pub struct Planner {
    options: EngineOptions,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new(EngineOptions::default())
    }
}

impl Planner {
    /// Creates a planner with the given engine options.
    pub fn new(options: EngineOptions) -> Self {
        Planner { options }
    }

    /// The options the planner compiles with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Validates `model`, checks it against `dataset`'s graph/features, and
    /// compiles the input-independent artifacts into a [`CompiledPlan`].
    ///
    /// The dataset's feature matrix participates only in the *static*
    /// sparsity profile (`H⁰` densities of Table IX); it must hold one row
    /// per graph vertex, and the plan itself serves any feature matrix with
    /// that shape.
    ///
    /// ```
    /// use dynasparse::{EngineOptions, MappingStrategy, Planner};
    /// use dynasparse_graph::Dataset;
    /// use dynasparse_model::GnnModel;
    ///
    /// let dataset = Dataset::Cora.spec().generate_scaled(42, 0.1);
    /// let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 7);
    ///
    /// // Compile once: the plan is immutable and input-independent.
    /// let plan = Planner::new(EngineOptions::default())
    ///     .plan(&model, &dataset)
    ///     .unwrap();
    /// assert_eq!(plan.num_vertices(), dataset.graph.num_vertices());
    /// assert!(plan.compile_ms() > 0.0);
    ///
    /// // Serve many: sessions borrow the plan and never recompile.
    /// let mut session = plan.session(&[MappingStrategy::Dynamic]);
    /// let report = session.infer(&dataset.features).unwrap();
    /// assert!(report.run(MappingStrategy::Dynamic).unwrap().total_cycles > 0);
    /// ```
    pub fn plan(
        &self,
        model: &GnnModel,
        dataset: &GraphDataset,
    ) -> Result<CompiledPlan, DynasparseError> {
        model.validate()?;
        check_topology(model, &dataset.graph, &dataset.features, "plan")?;

        // One-time compilation: computation graph, partition sizes
        // (Algorithm 9), execution schemes (Algorithms 2/3) and static
        // sparsity profiling.
        let report = compile(model, dataset, &self.options.compiler);
        // One-time graph preprocessing: normalized adjacency per aggregator.
        let adjacencies = Arc::new(prepare_adjacencies(model, &dataset.graph));
        // One-time host micro-calibration: every session of this plan —
        // including all serving workers — shares the fit by `Arc`, and the
        // dense Update's two bodies are priced at the model's widths.
        let calibration = HostCalibration::shared();
        let update_fits = update_fits_for(model, calibration.as_deref());

        Ok(CompiledPlan {
            options: self.options.clone(),
            model: Arc::new(model.clone()),
            adjacencies,
            calibration,
            update_fits,
            report,
        })
    }

    /// Like [`Planner::plan`], but returns the plan already wrapped in an
    /// [`Arc`], ready to be shared across serving threads.
    pub fn plan_shared(
        &self,
        model: &GnnModel,
        dataset: &GraphDataset,
    ) -> Result<Arc<CompiledPlan>, DynasparseError> {
        self.plan(model, dataset).map(Arc::new)
    }
}

/// The dense-left Update prices of `model` at its widths
/// ([`price_update_widths`]), measured only when the host is calibrated:
/// under the Table IV regions nothing is priced.
pub(crate) fn update_fits_for(
    model: &GnnModel,
    calibration: Option<&HostCalibration>,
) -> Arc<[UpdateFit]> {
    match calibration {
        Some(_) => price_update_widths(model).into(),
        None => Arc::new([]),
    }
}

/// Checks a `(graph, features)` pair against `model` before any topology
/// work, in this order: the graph has vertices, the features have the
/// model's input width, and they have one row per vertex.  `op` names the
/// rejecting entry point in the typed [`MatrixError::ShapeMismatch`].
pub(crate) fn check_topology(
    model: &GnnModel,
    graph: &Graph,
    features: &FeatureMatrix,
    op: &'static str,
) -> Result<(), DynasparseError> {
    if graph.num_vertices() == 0 {
        return Err(CompileError::EmptyGraph.into());
    }
    if features.dim() != model.input_dim {
        return Err(CompileError::FeatureDimensionMismatch {
            model_input_dim: model.input_dim,
            feature_dim: features.dim(),
        }
        .into());
    }
    if features.num_vertices() != graph.num_vertices() {
        return Err(MatrixError::ShapeMismatch {
            op,
            lhs: features.shape(),
            rhs: (graph.num_vertices(), model.input_dim),
        }
        .into());
    }
    Ok(())
}

/// The immutable result of planning: everything inference requests share.
///
/// A plan owns the compiled program (kernels + execution schemes), the
/// partition specification, the static sparsity profiles, the normalized
/// adjacency matrices, the model weights and the one-time data-movement
/// budget.  Create serving state with [`CompiledPlan::session`]; the plan is
/// never mutated by inference, so one plan can back many sessions.
///
/// Plans are `Send + Sync` (the model and adjacencies live behind [`Arc`]),
/// so an `Arc<CompiledPlan>` can be shared across worker threads; each
/// thread opens its own [`Session`] via [`CompiledPlan::session_shared`]
/// without copying any compiled state.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    pub(crate) options: EngineOptions,
    pub(crate) model: Arc<GnnModel>,
    pub(crate) adjacencies: Arc<HashMap<AggregatorKind, CsrMatrix>>,
    /// The measured host kernel cost model every session dispatches with;
    /// `None` under `DYNASPARSE_CALIBRATION=off`, where sessions decide by
    /// the Table IV regions.
    pub(crate) calibration: Option<Arc<HostCalibration>>,
    /// The prices of the dense Update's two bodies at the model's widths,
    /// one per weight; empty under the Table IV regions.
    pub(crate) update_fits: Arc<[UpdateFit]>,
    pub(crate) report: CompileReport,
}

// The serving runtime relies on plans being shareable across threads; keep
// that guarantee explicit so a non-Send field is a compile error here, not
// in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledPlan>();
};

impl CompiledPlan {
    /// Opens a session that serves inference requests from this plan,
    /// pricing every strategy in `strategies` on each request.
    pub fn session(&self, strategies: &[MappingStrategy]) -> Session<'_> {
        Session::build(PlanHandle::Borrowed(self), strategies)
    }

    /// Opens a session that co-owns this plan through the [`Arc`], so the
    /// session has no borrowed lifetime and can be moved onto another
    /// thread.  This is the entry point concurrent serving runtimes use:
    /// every worker opens its own `plan.session_shared(…)`.
    pub fn session_shared(self: &Arc<Self>, strategies: &[MappingStrategy]) -> Session<'static> {
        Session::build(PlanHandle::Shared(Arc::clone(self)), strategies)
    }

    /// Checks one request's shape against the plan: `features` needs
    /// [`CompiledPlan::num_vertices`] rows and [`CompiledPlan::input_dim`]
    /// columns.  `op` names the rejecting entry point in the typed
    /// [`MatrixError::ShapeMismatch`].  Nothing here reads the values:
    /// non-finite features, dense- or CSR-stored, are refused by the pass
    /// that serves the request, which reads every stored value anyway (see
    /// [`crate::Session::infer`]).
    pub fn validate_request(
        &self,
        features: &FeatureMatrix,
        op: &'static str,
    ) -> Result<(), DynasparseError> {
        let expected = (self.num_vertices(), self.input_dim());
        if features.shape() != expected {
            return Err(MatrixError::ShapeMismatch {
                op,
                lhs: features.shape(),
                rhs: expected,
            }
            .into());
        }
        Ok(())
    }

    /// The engine options the plan was compiled with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The model the plan was compiled for.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// The measured host kernel cost model sessions of this plan dispatch
    /// with: the process-wide [`HostCalibration::shared`] fit, or `None`
    /// under `DYNASPARSE_CALIBRATION=off` (sessions then decide by the
    /// Table IV regions).
    pub fn calibration(&self) -> Option<&Arc<HostCalibration>> {
        self.calibration.as_ref()
    }

    /// The prices of the two bodies a dense-stored Update can run (the
    /// counting GEMM and the right-sparse body), one [`UpdateFit`] per model
    /// weight, measured at the model's widths when the plan was made (or
    /// its template compiled); empty under `DYNASPARSE_CALIBRATION=off`.
    pub fn update_fits(&self) -> &[UpdateFit] {
        &self.update_fits
    }

    /// The overall density of the features the plan was compiled over: the
    /// density a dense-stored request is priced at before anything counts
    /// it.
    pub(crate) fn input_density(&self) -> f64 {
        self.report
            .program
            .static_sparsity
            .input_features_subfiber
            .overall_density()
    }

    /// The compiled program (optimized IR).
    pub fn program(&self) -> &CompiledProgram {
        &self.report.program
    }

    /// The full compile report, produced exactly once per plan (Table IX).
    pub fn compile_report(&self) -> &CompileReport {
        &self.report
    }

    /// One-time preprocessing wall-clock time in milliseconds.
    pub fn compile_ms(&self) -> f64 {
        self.report.total_ms()
    }

    /// The partition sizes chosen by Algorithm 9.
    pub fn partition(&self) -> PartitionSpec {
        self.report.program.partition
    }

    /// Number of vertices of the planned graph topology; every request's
    /// feature matrix must have this many rows.
    pub fn num_vertices(&self) -> usize {
        self.report.program.num_vertices
    }

    /// Input feature dimension every request must match.
    pub fn input_dim(&self) -> usize {
        self.model.input_dim
    }

    /// Approximate resident bytes of the plan: the compiled static data
    /// (graph adjacency, weights, IR), the normalized per-aggregator
    /// adjacency matrices, and the static density-profile records.  This is
    /// an accounting estimate for the plan cache's resident-bytes gauge (the
    /// inputs that scale with topology and model size), not an
    /// allocator-exact measurement.
    pub fn approx_bytes(&self) -> usize {
        let program = &self.report.program;
        let adjacencies: usize = self.adjacencies.values().map(|m| m.size_bytes()).sum();
        // Each per-partition density record is counted as one (nnz, total)
        // pair plus block coordinates: 16 bytes.
        let profile_records = program.static_sparsity.num_partition_records() * 16;
        program.static_data_bytes + adjacencies + profile_records
    }

    /// PCIe milliseconds for the one-time transfer of the static data
    /// (adjacency + weights + IR).
    pub fn static_data_movement_ms(&self) -> f64 {
        self.options
            .accelerator
            .pcie_transfer_seconds(self.report.program.static_data_bytes)
            * 1e3
    }

    /// PCIe milliseconds for one request moving `feature_bytes` of input
    /// features, on top of the static transfer.
    pub fn request_data_movement_ms(&self, feature_bytes: usize) -> f64 {
        self.options
            .accelerator
            .pcie_transfer_seconds(self.report.program.static_data_bytes + feature_bytes)
            * 1e3
    }

    /// PCIe milliseconds for `feature_bytes` of input features alone — the
    /// only transfer a request pays once the plan's static data is resident
    /// on the accelerator.
    pub fn feature_movement_ms(&self, feature_bytes: usize) -> f64 {
        self.options
            .accelerator
            .pcie_transfer_seconds(feature_bytes)
            * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_compiler::CompilerConfig;
    use dynasparse_graph::Dataset;
    use dynasparse_model::{GnnModelKind, ModelError};

    fn setup() -> (GnnModel, GraphDataset) {
        let ds = Dataset::Cora.spec().generate_scaled(9, 0.15);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            16,
            ds.spec.num_classes,
            3,
        );
        (model, ds)
    }

    #[test]
    fn plan_owns_the_compiled_artifacts() {
        let (model, ds) = setup();
        let plan = Planner::default().plan(&model, &ds).unwrap();
        assert_eq!(plan.program().kernels.len(), model.num_kernels());
        assert_eq!(plan.num_vertices(), ds.graph.num_vertices());
        assert_eq!(plan.input_dim(), ds.features.dim());
        assert!(plan.compile_ms() > 0.0);
        assert!(plan.partition().n1 >= plan.partition().n2);
        // Static movement is a strict subset of a full request's movement.
        let req = plan.request_data_movement_ms(ds.features.size_bytes());
        assert!(plan.static_data_movement_ms() < req);
    }

    #[test]
    fn plans_and_templates_keep_the_options_they_were_given() {
        let options = EngineOptions {
            compiler: CompilerConfig {
                min_partition: 32,
                ..CompilerConfig::default()
            },
            ..EngineOptions::default()
        };
        assert_ne!(options, EngineOptions::default());
        let planner = Planner::new(options.clone());
        assert_eq!(planner.options(), &options);
        let (model, ds) = setup();
        assert_eq!(planner.plan(&model, &ds).unwrap().options(), &options);
        let template = crate::ModelTemplate::compile(&model, options.clone()).unwrap();
        assert_eq!(template.options(), &options);
    }

    #[test]
    fn invalid_model_fails_with_typed_error() {
        let (mut model, ds) = setup();
        model.weights.clear();
        let err = Planner::default().plan(&model, &ds).unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Model(ModelError::MissingWeight { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_fails_at_plan_time() {
        let (_, ds) = setup();
        let model = GnnModel::gcn(ds.features.dim() + 1, 8, ds.spec.num_classes, 1);
        let err = Planner::default().plan(&model, &ds).unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Compile(CompileError::FeatureDimensionMismatch { .. })
        ));
    }

    #[test]
    fn feature_rows_must_match_the_graph_at_plan_time() {
        // Features with fewer rows than the graph has vertices are rejected
        // when planning, not on the plan's first request.
        let (model, mut ds) = setup();
        let (v, f) = ds.features.shape();
        let short = dynasparse_graph::generators::dense_features(v - 3, f, 0.5, 1);
        ds.features = short.clone();
        let err = Planner::default().plan(&model, &ds).unwrap_err();
        assert_eq!(
            err,
            DynasparseError::Execution(MatrixError::ShapeMismatch {
                op: "plan",
                lhs: (v - 3, f),
                rhs: (v, f),
            })
        );
        // The input width is checked before the row count.
        let narrow = GnnModel::gcn(f + 1, 8, ds.spec.num_classes, 1);
        assert!(matches!(
            Planner::default().plan(&narrow, &ds).unwrap_err(),
            DynasparseError::Compile(CompileError::FeatureDimensionMismatch { .. })
        ));
        // The template's entry point rejects the same pair under its own name.
        let template = crate::ModelTemplate::compile(&model, EngineOptions::default()).unwrap();
        assert!(matches!(
            template.instantiate(&ds.graph, &short).unwrap_err(),
            DynasparseError::Execution(MatrixError::ShapeMismatch {
                op: "template instantiate",
                ..
            })
        ));
    }
}
