//! Model templates: the topology-independent half of a [`CompiledPlan`],
//! compiled once per model and instantiated cheaply per request.
//!
//! [`Planner::plan`](crate::Planner::plan) fuses two kinds of work that have
//! very different lifetimes in a subgraph-serving deployment (GraphSAGE-style
//! traffic where every request carries its own sampled ego-net):
//!
//! * **Model-only work** — validating the model, profiling the *weight*
//!   matrices' block densities, measuring the host calibration and pricing
//!   the dense Update's two bodies at the model's widths.  None of it
//!   depends on the request's topology, yet a cold plan repeats it per
//!   request.
//! * **Topology work** — building the computation graph IR, choosing
//!   partition sizes (Algorithm 9), generating execution schemes, profiling
//!   the adjacency and input-feature densities, and normalizing the
//!   adjacency per aggregator.  This is genuinely per-request.
//!
//! [`ModelTemplate::compile`] performs the model-only work once;
//! [`ModelTemplate::instantiate`] performs only the topology work, producing
//! a [`TemplateInstance`] whose [`CompiledPlan`] is **bit-identical** to what
//! a cold `Planner::plan` would produce for the same `(model, subgraph)` —
//! same program, same density profiles, same strategy pricing, same
//! embeddings (proved by `tests/integration_template.rs`).  The weight
//! profiles are memoized per distinct partition width `N2` (the weight grid
//! depends on the spec only through `N2`), so steady-state instantiation
//! profiles nothing but the request's adjacency and features.

use crate::engine::EngineOptions;
use crate::error::DynasparseError;
use crate::planner::{check_topology, update_fits_for, CompiledPlan};
use crate::session::OwnedSession;
use dynasparse_compiler::{compile_topology_with_weights, StaticSparsity};
use dynasparse_graph::{FeatureMatrix, Graph};
use dynasparse_matrix::{DensityProfile, HostCalibration, PartitionSpec, UpdateFit};
use dynasparse_model::{prepare_adjacencies, GnnModel};
use dynasparse_runtime::MappingStrategy;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The topology-independent, reusable half of a [`CompiledPlan`]: the
/// validated model, the engine options, the shared host calibration, and a
/// cache of weight density profiles keyed by partition width `N2`.
///
/// Compile a template once per resident model, then instantiate it against
/// each request's sampled subgraph — instantiation re-profiles neither the
/// weights nor the host, which is what makes per-request topologies cheap:
///
/// ```
/// use dynasparse::{EngineOptions, MappingStrategy, ModelTemplate};
/// use dynasparse_graph::{Dataset, NeighborSampler};
/// use dynasparse_model::GnnModel;
///
/// let full = Dataset::Cora.spec().generate_scaled(42, 0.2);
/// let model = GnnModel::gcn(full.features.dim(), 16, full.spec.num_classes, 7);
///
/// // Model-only compilation: weights, calibration — once per model.
/// let template = ModelTemplate::compile(&model, EngineOptions::default()).unwrap();
///
/// // Per request: sample an ego-net, instantiate, infer.
/// let sub = NeighborSampler::new([8, 4], 7).sample(&full.graph, &[3]);
/// let features = sub.extract_features(&full.features);
/// let instance = template.instantiate(sub.graph(), &features).unwrap();
/// let mut session = instance.session(&[MappingStrategy::Dynamic]);
/// let report = session.infer(&features).unwrap();
///
/// // Row i of the embeddings belongs to global vertex sub.global_id(i).
/// let embeddings = report.output_embeddings.to_dense();
/// assert_eq!(embeddings.rows(), sub.num_vertices());
/// assert_eq!(sub.global_id(0), 3, "local 0 is the queried root");
/// ```
#[derive(Debug)]
pub struct ModelTemplate {
    options: EngineOptions,
    model: Arc<GnnModel>,
    calibration: Option<Arc<HostCalibration>>,
    /// The dense Update's prices at the model's widths, shared by every
    /// instance.
    update_fits: Arc<[UpdateFit]>,
    /// Weight density profiles per distinct partition width `N2`.  The
    /// weight grid is `BlockGrid::new(rows, cols, n2, n2)` — independent of
    /// `N1` and of the topology — so every instantiation that lands on the
    /// same `N2` shares one profiling pass.
    weight_profiles: Mutex<HashMap<usize, Arc<Vec<DensityProfile>>>>,
    compile_ms: f64,
}

// Serving runtimes hold one resident template behind an `Arc` and
// instantiate it from every worker thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModelTemplate>();
};

impl ModelTemplate {
    /// Validates `model` and performs every input-independent preparation:
    /// the process-wide host calibration a [`Planner`](crate::Planner)
    /// shares, the dense Update's prices at the model's widths, and the
    /// (lazily filled) weight-profile cache.
    pub fn compile(model: &GnnModel, options: EngineOptions) -> Result<Self, DynasparseError> {
        let start = Instant::now();
        model.validate()?;
        let calibration = HostCalibration::shared();
        let update_fits = update_fits_for(model, calibration.as_deref());
        Ok(ModelTemplate {
            options,
            model: Arc::new(model.clone()),
            calibration,
            update_fits,
            weight_profiles: Mutex::new(HashMap::new()),
            compile_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Like [`ModelTemplate::compile`], but returns the template already
    /// wrapped in an [`Arc`], ready to be shared across serving threads.
    pub fn compile_shared(
        model: &GnnModel,
        options: EngineOptions,
    ) -> Result<Arc<Self>, DynasparseError> {
        Self::compile(model, options).map(Arc::new)
    }

    /// The engine options every instance compiles with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The resident model.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Milliseconds the one-time model compilation took.
    pub fn compile_ms(&self) -> f64 {
        self.compile_ms
    }

    /// Number of distinct partition widths whose weight profiles are cached.
    pub fn weight_profile_cache_len(&self) -> usize {
        self.weight_profiles.lock().unwrap().len()
    }

    /// Approximate resident bytes of the template: the model weights plus
    /// the cached weight density-profile records (16 bytes each).  The
    /// template counterpart of [`CompiledPlan::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        let weights: usize = self.model.weights.iter().map(|w| w.size_bytes()).sum();
        let profiles: usize = self
            .weight_profiles
            .lock()
            .unwrap()
            .values()
            .map(|ps| ps.iter().map(|p| p.block_count() * 16).sum::<usize>())
            .sum();
        weights + profiles
    }

    /// Instantiates the template against one request's topology: builds the
    /// IR, chooses partition sizes, generates execution schemes, profiles
    /// the adjacency and input features, and normalizes the adjacency per
    /// aggregator — but re-profiles no weights and re-measures no
    /// calibration.  It validates the pair exactly as
    /// [`Planner::plan`](crate::Planner::plan) does, and the resulting plan
    /// is bit-identical to a cold `Planner::plan` over the same `(model,
    /// subgraph, features)`.
    pub fn instantiate(
        &self,
        graph: &Graph,
        features: &FeatureMatrix,
    ) -> Result<TemplateInstance, DynasparseError> {
        let start = Instant::now();
        check_topology(&self.model, graph, features, "template instantiate")?;
        let report = compile_topology_with_weights(
            &self.model,
            graph,
            features,
            &self.options.compiler,
            |spec| self.weights_for(spec),
        );
        let adjacencies = Arc::new(prepare_adjacencies(&self.model, graph));
        let plan = CompiledPlan {
            options: self.options.clone(),
            model: Arc::clone(&self.model),
            adjacencies,
            calibration: self.calibration.clone(),
            update_fits: Arc::clone(&self.update_fits),
            report,
        };
        Ok(TemplateInstance {
            plan: Arc::new(plan),
            instantiate_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// The weight profiles for `spec`, out of the per-`N2` cache; a miss
    /// profiles them once and keeps them for every later instantiation that
    /// lands on the same partition width.
    fn weights_for(&self, spec: &PartitionSpec) -> Vec<DensityProfile> {
        let mut cache = self.weight_profiles.lock().unwrap();
        let cached = cache
            .entry(spec.n2)
            .or_insert_with(|| Arc::new(StaticSparsity::profile_weights(&self.model, spec)));
        cached.as_ref().clone()
    }
}

/// One per-request instantiation of a [`ModelTemplate`]: a shareable
/// [`CompiledPlan`] over the request's subgraph, plus how long the
/// instantiation took (the per-request counterpart of
/// [`CompiledPlan::compile_ms`]).
///
/// Dereferences to the plan, so every plan accessor
/// ([`num_vertices`](CompiledPlan::num_vertices),
/// [`partition`](CompiledPlan::partition), …) is available directly.
#[derive(Debug, Clone)]
pub struct TemplateInstance {
    plan: Arc<CompiledPlan>,
    instantiate_ms: f64,
}

impl TemplateInstance {
    /// The instantiated plan.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// Consumes the instance, returning the shared plan.
    pub fn into_plan(self) -> Arc<CompiledPlan> {
        self.plan
    }

    /// Milliseconds the per-request instantiation took (validation,
    /// IR + partitioning + schemes, adjacency/feature profiling, adjacency
    /// normalization).
    pub fn instantiate_ms(&self) -> f64 {
        self.instantiate_ms
    }

    /// Opens a session over the instantiated plan (see
    /// [`CompiledPlan::session`]); the session co-owns the plan, so it can
    /// outlive the instance and move across threads.
    pub fn session(&self, strategies: &[MappingStrategy]) -> OwnedSession {
        self.plan.session_shared(strategies)
    }
}

impl std::ops::Deref for TemplateInstance {
    type Target = CompiledPlan;

    fn deref(&self) -> &CompiledPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CompileError;
    use dynasparse_graph::{Dataset, NeighborSampler};
    use dynasparse_matrix::MatrixError;

    fn fixture() -> (GnnModel, dynasparse_graph::GraphDataset) {
        let ds = Dataset::Cora.spec().generate_scaled(13, 0.15);
        let model = GnnModel::gcn(ds.features.dim(), 16, ds.spec.num_classes, 3);
        (model, ds)
    }

    #[test]
    fn instantiate_validates_like_the_planner() {
        let (model, ds) = fixture();
        let template = ModelTemplate::compile(&model, EngineOptions::default()).unwrap();
        let sub = NeighborSampler::new([6, 3], 5).sample(&ds.graph, &[1]);
        let features = sub.extract_features(&ds.features);

        // Wrong feature dimension.
        let narrow = dynasparse_graph::generators::dense_features(sub.num_vertices(), 4, 0.5, 1);
        let err = template.instantiate(sub.graph(), &narrow).unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Compile(CompileError::FeatureDimensionMismatch { .. })
        ));

        // Row count disagreeing with the subgraph.
        let tall = dynasparse_graph::generators::dense_features(
            sub.num_vertices() + 1,
            ds.features.dim(),
            0.5,
            1,
        );
        let err = template.instantiate(sub.graph(), &tall).unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Execution(MatrixError::ShapeMismatch {
                op: "template instantiate",
                ..
            })
        ));

        // The valid pair instantiates.
        let instance = template.instantiate(sub.graph(), &features).unwrap();
        assert_eq!(instance.num_vertices(), sub.num_vertices());
        assert!(instance.instantiate_ms() >= 0.0);
        assert!(template.approx_bytes() > 0);
    }

    #[test]
    fn weight_profiles_are_cached_per_partition_width() {
        let (model, ds) = fixture();
        let template = ModelTemplate::compile(&model, EngineOptions::default()).unwrap();
        assert_eq!(template.weight_profile_cache_len(), 0);

        let sampler = NeighborSampler::new([8, 4], 11);
        let a = sampler.sample(&ds.graph, &[2]);
        let fa = a.extract_features(&ds.features);
        let ia = template.instantiate(a.graph(), &fa).unwrap();
        assert_eq!(template.weight_profile_cache_len(), 1);

        // A differently sized subgraph landing on the same N2 reuses the
        // cached profiles instead of re-profiling.
        let b = sampler.sample(&ds.graph, &[2, 30, 57]);
        let fb = b.extract_features(&ds.features);
        let ib = template.instantiate(b.graph(), &fb).unwrap();
        if ia.partition().n2 == ib.partition().n2 {
            assert_eq!(template.weight_profile_cache_len(), 1);
        }
        assert_eq!(
            ia.program().static_sparsity.weights,
            ib.program().static_sparsity.weights
        );
    }

    #[test]
    fn instances_share_the_template_model_and_calibration_by_pointer() {
        let (model, ds) = fixture();
        let template = ModelTemplate::compile(&model, EngineOptions::default()).unwrap();
        let sub = NeighborSampler::new([5, 5], 3).sample(&ds.graph, &[0]);
        let features = sub.extract_features(&ds.features);
        let a = template.instantiate(sub.graph(), &features).unwrap();
        let b = template.instantiate(sub.graph(), &features).unwrap();
        assert!(Arc::ptr_eq(&a.plan().model, &b.plan().model));
        match (&a.plan().calibration, &b.plan().calibration) {
            (Some(x), Some(y)) => assert!(Arc::ptr_eq(x, y)),
            (None, None) => {}
            _ => panic!("instances must agree on calibration"),
        }
    }
}
