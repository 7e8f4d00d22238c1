//! The Session: amortized serving of inference requests over one plan.
//!
//! A session holds everything reusable across requests for a fixed graph
//! topology — the functional executor with its pre-normalized adjacency
//! matrices, one `Analyzer`/`Scheduler` pair per mapping strategy, and the
//! report scratch buffers — so a request performs **zero recompilation**:
//! only the runtime work of Fig. 3 runs per request (functional kernel
//! execution, runtime sparsity profiling, kernel-to-primitive mapping and
//! task scheduling).  This mirrors the paper's serving model, where the
//! compiled IR lives on the FPGA and each inference only moves the new
//! feature matrix across PCIe.

use crate::backend::ModeledAccelBackend;
use crate::error::DynasparseError;
use crate::planner::CompiledPlan;
use crate::report::{InferenceReport, KernelReport, StrategyRun};
use dynasparse_accel::{cycles_to_ms, ComputationCore, SoftProcessorModel};
use dynasparse_compiler::KernelKind;
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::{BlockGrid, DensityProfile, DispatchPolicy, MatrixError};
use dynasparse_model::{
    BackendKind, DensityTrace, KernelArena, KernelDispatcher, ReferenceExecutor, StageDensity,
    StageOp,
};
use dynasparse_runtime::{
    pricing, Analyzer, KernelAnalysis, MappingStrategy, OperandProfiles, PricingCache,
    PricingCacheMode, PricingKey, RuntimeOverhead, Scheduler, SharedPricingTier,
};
use dynasparse_telemetry::{CounterId, GaugeId, Registry, SessionTelemetry};
use std::sync::Arc;
use std::time::Instant;

/// Environment variable force-disabling online recalibration (`0` / `off` /
/// `false`), regardless of
/// [`HostExecutionOptions::recalibrate`](crate::HostExecutionOptions).
pub const RECALIBRATE_ENV: &str = "DYNASPARSE_RECALIBRATE";

/// Accepted band of the per-primitive measured/predicted drift EWMA
/// (`measured_ms / predicted_ms`, see
/// [`DriftTracker`](dynasparse_telemetry::DriftTracker)).  A finite gauge
/// outside the band after a served request triggers one online
/// recalibration: the session rescales that primitive's calibration fit by
/// the observed ratio, swaps the rescaled fit into its dispatcher and
/// resets the gauge.
pub const DRIFT_BAND: (f64, f64) = (0.5, 2.0);

/// Reusable per-strategy state: the Analyzer is stateless and the Scheduler
/// is rewound between requests.  The kernel-report buffer is handed to each
/// request's report and re-sized ahead of the next request (reports own
/// their data, so one `Vec` per strategy is allocated per request).
struct StrategyState {
    strategy: MappingStrategy,
    analyzer: Analyzer,
    scheduler: Scheduler,
    kernels: Vec<KernelReport>,
}

/// How a session holds its plan: borrowed from the caller (the classic
/// single-threaded shape) or co-owned through an [`Arc`] (the serving
/// shape, where a `Session<'static>` is moved onto a worker thread while
/// sibling sessions share the same plan).
enum PlanHandle<'p> {
    Borrowed(&'p CompiledPlan),
    Shared(Arc<CompiledPlan>),
}

impl PlanHandle<'_> {
    fn get(&self) -> &CompiledPlan {
        match self {
            PlanHandle::Borrowed(plan) => plan,
            PlanHandle::Shared(plan) => plan,
        }
    }
}

/// A fault-injection hook run inside the execution path of every request,
/// once per kernel (with the kernel's execution-order index), *after* that
/// kernel has written its output into the session's arena.  Installed via
/// [`Session::set_fault_hook`]; a hook that panics therefore unwinds out of
/// [`Session::infer`] / [`Session::infer_batch`] mid-forward, with arena
/// slots and profile scratch in a partially-written state — exactly the
/// failure a serving supervisor must contain.  Serving-layer fault-injection
/// tests use this to prove worker supervision loses no request.
pub type FaultHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Serving state bound to one [`CompiledPlan`].
pub struct Session<'p> {
    plan: PlanHandle<'p>,
    strategies: Vec<MappingStrategy>,
    executor: ReferenceExecutor,
    soft: SoftProcessorModel,
    states: Vec<StrategyState>,
    density_scratch: Vec<StageDensity>,
    /// The dispatching kernel engine (mode-picked host kernels + arena);
    /// `None` when `EngineOptions::host.dispatch` is off, in which case
    /// requests run the fixed-kernel reference path.
    dispatcher: Option<KernelDispatcher>,
    /// Plan-sized ping-pong feature buffers reused by every request;
    /// allocated only when the dispatcher is (legacy sessions never touch
    /// them, and the buffers are plan-sized).
    arena: Option<KernelArena>,
    /// One reusable runtime sparsity profile per compiled kernel, refit in
    /// place per request (no per-kernel allocation on the dispatch path).
    profile_scratch: Vec<DensityProfile>,
    /// One cached profiling grid per compiled kernel: the grid depends only
    /// on the plan topology and the kernel's input width, so it is derived
    /// on the first request and reused by every later request (and by every
    /// request of a batch) instead of being re-derived per kernel call.
    grid_scratch: Vec<Option<BlockGrid>>,
    /// Batch-sized arena of the fused [`Session::infer_batch`] path; sized
    /// lazily for the largest batch seen (or eagerly via
    /// [`Session::reserve_batch`]) and reused across micro-batches.  `None`
    /// until the first fused batch, and always `None` when dispatch or
    /// batch fusion is off.
    batch_arena: Option<KernelArena>,
    /// One reusable per-request profile per batch slot (fused path): each
    /// kernel's batch-wide profiling pass refits these in place.
    batch_profile_scratch: Vec<DensityProfile>,
    /// Reusable per-request output nnz counts of the fused path.
    batch_nnz_scratch: Vec<usize>,
    /// Per kernel: the later kernel whose input profile doubles as this
    /// kernel's output counts (see [`output_deferral_map`]); `None` means
    /// the fused path counts the output directly.
    defer_out: Vec<Option<usize>>,
    /// Inverse of `defer_out`: at kernel `t`, the earlier kernel whose
    /// deferred output densities resolve from `t`'s input profiles.
    out_source_for: Vec<Option<usize>>,
    /// The session's telemetry bundle: counters/histograms through a writer
    /// shard of a [`Registry`] (the process-global one by default), plus the
    /// kernel-span flight recorder and drift tracker.  Costs one predictable
    /// branch per call site when the registry level is `off`.
    telemetry: SessionTelemetry,
    /// Fault-injection hook run per executed kernel (see [`FaultHook`]);
    /// `None` (the default) costs one branch per kernel.
    fault_hook: Option<FaultHook>,
    /// Execute dispatched kernels as row-block loops over the compiler
    /// partition (`HostExecutionOptions::block_dispatch`).
    block_dispatch: bool,
    /// Drift-triggered online recalibration enabled: the options flag gated
    /// by [`RECALIBRATE_ENV`], resolved once at build.
    recalibrate: bool,
    /// Pricing-cache mode: the options value gated by
    /// [`PRICING_CACHE_ENV`](dynasparse_runtime::PRICING_CACHE_ENV),
    /// resolved once at build.
    pricing_mode: PricingCacheMode,
    /// Per-session pricing cache (`None` when the mode is `Off` or the
    /// session prices no strategies).  Values are pure functions of their
    /// keys, so reuse never depends on request order or cache state.
    pricing_cache: Option<PricingCache>,
    /// Optional read-mostly tier shared across the serve workers of one
    /// runtime; consulted on a local miss, published to on a fresh pass.
    pricing_tier: Option<Arc<SharedPricingTier>>,
    /// Fingerprint of the dispatcher's current calibration; refreshed when
    /// online recalibration swaps a rescaled fit in, which makes every key
    /// minted under the old fit unreachable.
    calib_fingerprint: u64,
    /// Fingerprint of the plan's static operands (adjacency + weight
    /// profiles); recomputed on rebind so template instances of the same
    /// subgraph class share pricing while different topologies never do.
    statics_fingerprint: u64,
    /// Reusable scratch holding the bucket-representative quantization of
    /// the current kernel's feature profile (bucketed-mode misses only).
    quant_scratch: DensityProfile,
    requests_served: usize,
}

/// Per-request bookkeeping captured while a batch executes fused: everything
/// the report replay needs, in kernel execution order.
struct BatchRecord {
    stages: Vec<StageDensity>,
    /// `(input_density, output_density)` per kernel.
    kernel_io: Vec<(f64, f64)>,
    /// One analysis per kernel per strategy, kernel-major
    /// (`kernel * num_strategies + strategy`).  `Arc`s so same-key requests
    /// of one fused batch share a single Analyzer pass through the pricing
    /// cache instead of cloning the task-cycle vectors.
    analyses: Vec<Arc<KernelAnalysis>>,
}

/// For every kernel (execution order), the later kernel whose **input** is
/// the same unmodified matrix as this kernel's output — either a kernel in
/// the same layer reading `Kernel(this)`, or (for a layer's sole
/// contributor with no output activation) the first kernel of the next
/// layer.  Since reports are assembled by replay after the forward pass,
/// the fused batch path defers those kernels' output-density counts and
/// recovers them for free from the target kernel's input profiles, instead
/// of paying a separate counting pass over the batch operand.
fn output_deferral_map(model: &dynasparse_model::GnnModel) -> Vec<Option<usize>> {
    let mut layer_bases = Vec::with_capacity(model.layers.len());
    let mut base = 0usize;
    for layer in &model.layers {
        layer_bases.push(base);
        base += layer.kernels.len();
    }
    let mut map = Vec::with_capacity(base);
    for (l, layer) in model.layers.iter().enumerate() {
        let contributors = layer
            .kernels
            .iter()
            .filter(|k| k.contributes_to_output)
            .count();
        for (ki, spec) in layer.kernels.iter().enumerate() {
            let in_layer = layer
                .kernels
                .iter()
                .enumerate()
                .skip(ki + 1)
                .find(
                    |(_, k)| matches!(k.input, dynasparse_model::KernelInput::Kernel(j) if j == ki),
                )
                .map(|(kj, _)| layer_bases[l] + kj);
            let target = in_layer.or_else(|| {
                let sole = contributors == 1 && spec.contributes_to_output;
                let next_reads_layer_input = model.layers.get(l + 1).is_some_and(|next| {
                    matches!(
                        next.kernels[0].input,
                        dynasparse_model::KernelInput::LayerInput
                    )
                });
                (sole && layer.output_activation.is_none() && next_reads_layer_input)
                    .then(|| layer_bases[l + 1])
            });
            map.push(target);
        }
    }
    map
}

/// Default per-session pricing-cache capacity: several density-bucket
/// working sets per (kernel, strategy) pair, floored so small plans still
/// ride out bursty density mixes without thrashing.
fn default_pricing_capacity(num_kernels: usize, num_strategies: usize) -> usize {
    (num_kernels * num_strategies.max(1) * 8).max(256)
}

/// A session that co-owns its plan and therefore has no borrowed lifetime;
/// this is what worker threads of a serving runtime hold.  Produced by
/// [`Session::shared`] / [`CompiledPlan::session_shared`].
pub type OwnedSession = Session<'static>;

// Worker threads move owned sessions across thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<OwnedSession>();
};

impl<'p> Session<'p> {
    /// Opens a session over `plan`, pricing every strategy in `strategies`
    /// on each request.  Equivalent to
    /// [`CompiledPlan::session`](crate::CompiledPlan::session).
    pub fn new(plan: &'p CompiledPlan, strategies: &[MappingStrategy]) -> Self {
        let executor = ReferenceExecutor::from_prepared(
            Arc::clone(&plan.model),
            Arc::clone(&plan.adjacencies),
        );
        Self::build(PlanHandle::Borrowed(plan), executor, strategies)
    }

    /// Opens a session that co-owns `plan`, so the session can outlive the
    /// caller's borrow and be moved onto another thread.  Equivalent to
    /// [`CompiledPlan::session_shared`](crate::CompiledPlan::session_shared).
    pub fn shared(plan: Arc<CompiledPlan>, strategies: &[MappingStrategy]) -> OwnedSession {
        let executor = ReferenceExecutor::from_prepared(
            Arc::clone(&plan.model),
            Arc::clone(&plan.adjacencies),
        );
        Session::<'static>::build(PlanHandle::Shared(plan), executor, strategies)
    }

    fn build(
        plan: PlanHandle<'p>,
        executor: ReferenceExecutor,
        strategies: &[MappingStrategy],
    ) -> Session<'p> {
        let accelerator = plan.get().options().accelerator;
        let host = plan.get().options().host;
        let core = ComputationCore::new(accelerator);
        let num_kernels = plan.get().program().kernels.len();
        let num_vertices = plan.get().num_vertices();
        let states = strategies
            .iter()
            .map(|&strategy| StrategyState {
                strategy,
                analyzer: Analyzer::new(core, strategy),
                scheduler: Scheduler::new(accelerator.num_cores),
                kernels: Vec::with_capacity(num_kernels),
            })
            .collect();
        let dispatcher = host.dispatch.then(|| {
            // Calibrated when the plan carries a measured host fit; the
            // accelerator's Table IV regions otherwise (they also stay the
            // sparse-output threshold and degenerate-prediction fallback).
            let mut dispatcher = executor.dispatcher_calibrated(
                DispatchPolicy::from_regions(accelerator.psys),
                plan.get().calibration.clone(),
                host.parallel,
            );
            // The modeled-accelerator backend swaps in over the same weight
            // caches and retention policy: routing and pricing change,
            // results stay bit-identical.
            if host.backend == BackendKind::ModeledAccel {
                dispatcher.set_backend(Arc::new(ModeledAccelBackend::new(&accelerator)));
            }
            dispatcher
        });
        let recalibrate = host.recalibrate
            && !matches!(
                std::env::var(RECALIBRATE_ENV)
                    .ok()
                    .as_deref()
                    .map(str::trim),
                Some("0") | Some("off") | Some("false")
            );
        let pricing_mode = PricingCacheMode::resolve(host.pricing_cache);
        let pricing_cache =
            (pricing_mode != PricingCacheMode::Off && !strategies.is_empty()).then(|| {
                PricingCache::with_capacity(default_pricing_capacity(num_kernels, strategies.len()))
            });
        let calib_fingerprint = pricing::calibration_fingerprint(plan.get().calibration.as_deref());
        let statics = &plan.get().program().static_sparsity;
        let statics_fingerprint =
            pricing::statics_fingerprint(&statics.adjacency, &statics.weights);
        let arena = dispatcher.is_some().then(|| executor.arena(num_vertices));
        let defer_out = output_deferral_map(executor.model());
        let mut out_source_for = vec![None; defer_out.len()];
        for (k, target) in defer_out.iter().enumerate() {
            if let Some(t) = target {
                debug_assert!(out_source_for[*t].is_none(), "deferral targets are unique");
                out_source_for[*t] = Some(k);
            }
        }
        Session {
            plan,
            strategies: strategies.to_vec(),
            executor,
            soft: SoftProcessorModel::from_config(&accelerator),
            states,
            density_scratch: Vec::with_capacity(num_kernels),
            dispatcher,
            arena,
            profile_scratch: vec![DensityProfile::default(); num_kernels],
            grid_scratch: (0..num_kernels).map(|_| None).collect(),
            batch_arena: None,
            batch_profile_scratch: Vec::new(),
            batch_nnz_scratch: Vec::new(),
            defer_out,
            out_source_for,
            telemetry: SessionTelemetry::from_global(),
            fault_hook: None,
            block_dispatch: host.block_dispatch,
            recalibrate,
            pricing_mode,
            pricing_cache,
            pricing_tier: None,
            calib_fingerprint,
            statics_fingerprint,
            quant_scratch: DensityProfile::default(),
            requests_served: 0,
        }
    }

    /// The plan this session serves from.
    pub fn plan(&self) -> &CompiledPlan {
        self.plan.get()
    }

    /// Rebinds the session to a different plan, keeping every buffer the new
    /// plan can reuse.
    ///
    /// This is the serving primitive behind per-request subgraph
    /// instantiation: a worker holds one session and rebinds it to each
    /// request's freshly instantiated plan instead of constructing a new
    /// session (and its arena) per request.  When the new plan shares the
    /// old plan's model and calibration by pointer — which is exactly what
    /// [`ModelTemplate::instantiate`](crate::ModelTemplate::instantiate)
    /// produces — the dispatcher, the kernel arenas, and the per-kernel
    /// profile scratch survive the rebind: arena buffers are *re-shaped* to
    /// the new topology on the next request (growing capacity at most once
    /// per high-water mark, never shrinking), and the cached profiling grids
    /// refit themselves through the existing per-request shape check.
    /// Otherwise the session state is rebuilt from scratch, as if freshly
    /// opened over the new plan.
    ///
    /// Either way `requests_served` continues counting across the rebind,
    /// and serving from the rebound session is bit-identical to a fresh
    /// session over the same plan (the retained state is pure capacity).
    pub fn rebind(&mut self, plan: Arc<CompiledPlan>) {
        let old = self.plan.get();
        let same_model = Arc::ptr_eq(&old.model, &plan.model);
        let same_calibration = match (&old.calibration, &plan.calibration) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        let executor = ReferenceExecutor::from_prepared(
            Arc::clone(&plan.model),
            Arc::clone(&plan.adjacencies),
        );
        // `EngineOptions` carries no equality; a shared model pointer only
        // arises when both plans came from the same template (or the same
        // `Arc` clone), which fixes the options and the dispatcher inputs.
        if same_model && same_calibration {
            self.telemetry
                .registry()
                .incr(self.telemetry.shard(), CounterId::RebindReuse);
            self.executor = executor;
            self.plan = PlanHandle::Shared(plan);
            for state in &mut self.states {
                state.scheduler.reset();
                state.kernels.clear();
            }
            self.density_scratch.clear();
            // The topology changed under the same model/calibration: refresh
            // the static-operand fingerprint so pricing keys separate the
            // new subgraph from the old.  The cache itself survives — it is
            // content-addressed, so a rebind back to an equal topology (or
            // another instance of the same subgraph class) hits again while
            // a different topology can only miss.
            let statics = &self.plan.get().program().static_sparsity;
            self.statics_fingerprint =
                pricing::statics_fingerprint(&statics.adjacency, &statics.weights);
            return;
        }
        let strategies = std::mem::take(&mut self.strategies);
        let served = self.requests_served;
        // Rebuilding replaces every field; carry the telemetry bundle (its
        // registry binding, pinned shard and retained spans) across, the same
        // way the request counter survives.  The shared pricing tier is
        // runtime wiring, not plan state, so it also survives; the local
        // pricing cache does not (the new plan's calibration may differ, and
        // `build` re-derives both fingerprints from the new plan).
        let telemetry = std::mem::replace(&mut self.telemetry, SessionTelemetry::from_global());
        let tier = self.pricing_tier.take();
        *self = Session::build(PlanHandle::Shared(plan), executor, &strategies);
        self.telemetry = telemetry;
        self.pricing_tier = tier;
        self.telemetry
            .registry()
            .incr(self.telemetry.shard(), CounterId::RebindRebuild);
        self.requests_served = served;
    }

    /// Rebuilds every piece of per-session execution state from the bound
    /// plan, as if the session had been freshly opened — keeping the
    /// strategies, the telemetry bundle (registry binding, pinned shard)
    /// and the `requests_served` counter.
    ///
    /// This is the recovery primitive a serving supervisor calls after a
    /// panic unwound out of [`Session::infer`] / [`Session::infer_batch`]
    /// (e.g. through a [`FaultHook`]).  **Unwind-safety rule:** a panic
    /// mid-forward may leave arena slots, profile scratch and scheduler
    /// state partially written; none of that state is self-healing, so the
    /// session must not serve again until it is rebuilt (or dropped).  The
    /// per-request resets in `infer` clear scheduler/report scratch, but
    /// arena buffer *shapes* and cached grids can be left mid-transition —
    /// rebuilding discards them wholesale.  Any installed fault hook is
    /// cleared.
    pub fn rebuild_after_panic(&mut self) {
        let strategies = std::mem::take(&mut self.strategies);
        let served = self.requests_served;
        let telemetry = std::mem::replace(&mut self.telemetry, SessionTelemetry::from_global());
        let plan = match &self.plan {
            PlanHandle::Borrowed(p) => PlanHandle::Borrowed(p),
            PlanHandle::Shared(p) => PlanHandle::Shared(Arc::clone(p)),
        };
        let executor = ReferenceExecutor::from_prepared(
            Arc::clone(&plan.get().model),
            Arc::clone(&plan.get().adjacencies),
        );
        let tier = self.pricing_tier.take();
        *self = Session::build(plan, executor, &strategies);
        self.telemetry = telemetry;
        // The shared tier holds only key-pure analyses, so a panicked
        // forward cannot have poisoned it; the rebuilt local cache starts
        // fresh.
        self.pricing_tier = tier;
        self.requests_served = served;
    }

    /// Installs (or clears) the per-kernel [`FaultHook`].  Serving layers
    /// use a panicking hook to inject faults inside the kernel execution
    /// path; after a caught panic the session must be recovered with
    /// [`Session::rebuild_after_panic`] before serving again.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// The strategies priced on every request, in request order.
    pub fn strategies(&self) -> &[MappingStrategy] {
        &self.strategies
    }

    /// The pricing-cache mode the session resolved at build (options value
    /// gated by `DYNASPARSE_PRICING_CACHE`).
    pub fn pricing_mode(&self) -> PricingCacheMode {
        self.pricing_mode
    }

    /// Attaches (or detaches) a shared pricing tier.  Serve runtimes hand
    /// every worker session the same tier so a profile priced by one worker
    /// is a cache hit for all of them; safe because cached analyses are
    /// pure functions of their keys.
    pub fn set_pricing_tier(&mut self, tier: Option<Arc<SharedPricingTier>>) {
        self.pricing_tier = tier;
    }

    /// Replaces the session pricing cache with a fresh one of (at least)
    /// `capacity` slots.  A no-op when the cache is disabled.  Mainly a
    /// test/tuning knob: a tiny capacity forces steady-state eviction.
    pub fn set_pricing_capacity(&mut self, capacity: usize) {
        if self.pricing_cache.is_some() {
            self.pricing_cache = Some(PricingCache::with_capacity(capacity));
        }
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> usize {
        self.requests_served
    }

    /// The session's telemetry bundle (flight recorder, drift tracker,
    /// registry handle).
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry bundle (e.g. to clear the flight
    /// recorder between probes).
    pub fn telemetry_mut(&mut self) -> &mut SessionTelemetry {
        &mut self.telemetry
    }

    /// Rebinds the session's telemetry to `registry`, replacing the
    /// process-global default.  Serving runtimes call this so every worker
    /// session publishes into the runtime's registry.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = SessionTelemetry::new(registry);
    }

    /// Pins the telemetry writer shard (serve workers pin their worker index
    /// so per-shard counters read as per-worker counters).
    pub fn set_telemetry_shard(&mut self, shard: usize) {
        self.telemetry.set_shard(shard);
    }

    /// Serves one inference request: runs the model functionally on
    /// `features`, profiles the runtime sparsity kernel by kernel, and prices
    /// every session strategy from the single functional pass.
    ///
    /// The request must match the plan's topology: `features` needs
    /// [`CompiledPlan::num_vertices`] rows and [`CompiledPlan::input_dim`]
    /// columns.
    pub fn infer(&mut self, features: &FeatureMatrix) -> Result<InferenceReport, DynasparseError> {
        self.validate_request(features, "session infer")?;
        self.infer_validated(features)
    }

    /// Checks one request's shape against the plan topology.
    fn validate_request(
        &self,
        features: &FeatureMatrix,
        op: &'static str,
    ) -> Result<(), DynasparseError> {
        let plan = self.plan.get();
        let expected = (plan.num_vertices(), plan.input_dim());
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

    /// Serves one already-validated request (see [`Session::infer`]).
    fn infer_validated(
        &mut self,
        features: &FeatureMatrix,
    ) -> Result<InferenceReport, DynasparseError> {
        let plan = self.plan.get();
        let program = plan.program();
        let spec = program.partition;
        let num_vertices = plan.num_vertices();
        let num_kernels = program.kernels.len();
        // The clears matter on the recovery path: a request that failed
        // mid-execution leaves partial kernel reports and density stages
        // behind, which the next request must not inherit.
        for state in &mut self.states {
            state.scheduler.reset();
            state.kernels.clear();
        }
        self.density_scratch.clear();

        let states = &mut self.states;
        let density_stages = &mut self.density_scratch;
        let profile_scratch = &mut self.profile_scratch;
        let grid_scratch = &mut self.grid_scratch;
        let executor = &self.executor;
        let dispatcher = self.dispatcher.as_ref();
        let arena = self.arena.as_mut();
        let dispatch_enabled = dispatcher.is_some();
        let telemetry = &mut self.telemetry;
        // Phase stopwatches (profile refit, Analyzer/Scheduler pricing) only
        // run when the registry records; the accumulators are plain locals so
        // the timed path stays allocation-free.
        let probe = telemetry.enabled();
        let fault_hook = self.fault_hook.clone();
        let pricing_mode = self.pricing_mode;
        let mut pricing_cache = self.pricing_cache.as_mut();
        let pricing_tier = self.pricing_tier.clone();
        let calib_fp = self.calib_fingerprint;
        let statics_fp = self.statics_fingerprint;
        let quant_scratch = &mut self.quant_scratch;
        let mut profile_ns = 0u64;
        let mut pricing_ns = 0u64;
        let mut pricing_hits = 0u64;
        let mut pricing_misses = 0u64;
        let mut pricing_evictions = 0u64;
        let mut pricing_hit_ns = 0u64;
        let mut pricing_miss_ns = 0u64;
        let mut kernel_counter = 0usize;
        let mut on_kernel = |_layer: usize,
                             _ki: usize,
                             spec_kernel: &dynasparse_model::KernelSpec,
                             input: &FeatureMatrix,
                             out: &FeatureMatrix,
                             scanned_profile: Option<&DensityProfile>| {
            // Fault injection: runs after the kernel wrote its output, so a
            // panicking hook unwinds with the arena mid-request.
            if let Some(hook) = &fault_hook {
                hook(kernel_counter);
            }
            let compiled = &program.kernels[kernel_counter];
            debug_assert_eq!(
                compiled.ir.kind == KernelKind::Aggregate,
                spec_kernel.op.is_aggregate(),
                "compiled kernel order must match execution order"
            );
            // Runtime sparsity profiling of the kernel's input feature
            // matrix at the granularity its execution scheme uses.  The
            // grid depends only on the (fixed) topology and kernel input
            // width, so it is fit once and reused by every later request.
            let profile_started = probe.then(Instant::now);
            let grid_slot = &mut grid_scratch[kernel_counter];
            let input_shape = (num_vertices, input.dim());
            if grid_slot.as_ref().map(BlockGrid::shape) != Some(input_shape) {
                *grid_slot = Some(match compiled.ir.kind {
                    KernelKind::Aggregate => spec.feature_grid(num_vertices, input.dim()),
                    KernelKind::Update => spec.subfiber_grid(num_vertices, input.dim()),
                });
            }
            let grid = grid_slot.as_ref().expect("grid fit above");
            // A kernel that streamed its dense input anyway (the blocked
            // Update GEMM) hands its profile over: one scan, not two.  Every
            // other dispatch route refits a per-kernel reusable profile (no
            // allocation); the legacy path keeps its allocating profiler.
            let owned_profile;
            let feature_profile: &DensityProfile = match scanned_profile {
                Some(scanned) => {
                    debug_assert_eq!(scanned.shape(), grid.shape());
                    debug_assert_eq!(
                        scanned.block_shape(),
                        (grid.block_rows(), grid.block_cols())
                    );
                    scanned
                }
                None if dispatch_enabled => {
                    let slot = &mut profile_scratch[kernel_counter];
                    input.density_profile_into(grid, slot);
                    slot
                }
                None => {
                    owned_profile = input.density_profile(grid);
                    &owned_profile
                }
            };
            if let Some(started) = profile_started {
                profile_ns += started.elapsed().as_nanos() as u64;
            }
            let profiles = OperandProfiles {
                adjacency: &program.static_sparsity.adjacency,
                weights: &program.static_sparsity.weights,
                features: feature_profile,
            };
            let pricing_started = probe.then(Instant::now);
            // The strategy-free part of the pricing key hashes the profile
            // once per kernel; strategies fold in per state below.  The
            // bucket-representative quantization is also shared by every
            // strategy's miss of this kernel.
            let base_key = pricing_cache.is_some().then(|| {
                PricingKey::base(
                    calib_fp,
                    statics_fp,
                    kernel_counter,
                    pricing_mode,
                    feature_profile,
                )
            });
            let mut quantized = false;
            for state in states.iter_mut() {
                let state_started = probe.then(Instant::now);
                let mut hit = false;
                let analysis: Arc<KernelAnalysis> = match (&mut pricing_cache, base_key) {
                    (Some(cache), Some(base)) => {
                        let key = base.with_strategy(state.strategy);
                        let mut cached = cache.get(&key);
                        if cached.is_none() {
                            if let Some(tier) = pricing_tier.as_deref() {
                                if let Some(a) = tier.get(&key) {
                                    if cache.insert(key, Arc::clone(&a)) {
                                        pricing_evictions += 1;
                                    }
                                    cached = Some(a);
                                }
                            }
                        }
                        match cached {
                            Some(a) => {
                                hit = true;
                                a
                            }
                            None => {
                                // Determinism invariant: a bucketed-mode miss
                                // prices the bucket's canonical representative
                                // profile, never the first-seen exact one, so
                                // the cached value is a pure function of the
                                // key (order-, worker- and cache-state-free).
                                let a = if pricing_mode == PricingCacheMode::Bucketed {
                                    if !quantized {
                                        pricing::quantize_profile_into(
                                            feature_profile,
                                            quant_scratch,
                                        );
                                        quantized = true;
                                    }
                                    let priced = OperandProfiles {
                                        adjacency: &program.static_sparsity.adjacency,
                                        weights: &program.static_sparsity.weights,
                                        features: &*quant_scratch,
                                    };
                                    Arc::new(state.analyzer.analyze_kernel(compiled, &priced))
                                } else {
                                    Arc::new(state.analyzer.analyze_kernel(compiled, &profiles))
                                };
                                if cache.insert(key, Arc::clone(&a)) {
                                    pricing_evictions += 1;
                                }
                                if let Some(tier) = pricing_tier.as_deref() {
                                    if tier.publish(key, Arc::clone(&a)) {
                                        pricing_evictions += 1;
                                    }
                                }
                                a
                            }
                        }
                    }
                    _ => Arc::new(state.analyzer.analyze_kernel(compiled, &profiles)),
                };
                let schedule = state.scheduler.schedule_kernel(compiled.ir.id, &analysis);
                state.kernels.push(KernelReport {
                    kernel_id: compiled.ir.id,
                    layer_id: compiled.ir.layer_id,
                    kind: compiled.ir.kind,
                    cycles: schedule.cycles(),
                    utilization: schedule.utilization,
                    decisions: analysis.decisions,
                    mix: analysis.mix,
                    input_density: input.density(),
                    output_density: out.density(),
                });
                if base_key.is_some() {
                    if hit {
                        pricing_hits += 1;
                    } else {
                        pricing_misses += 1;
                    }
                }
                if let Some(started) = state_started {
                    let ns = started.elapsed().as_nanos() as u64;
                    if base_key.is_some() {
                        if hit {
                            pricing_hit_ns += ns;
                        } else {
                            pricing_miss_ns += ns;
                        }
                    }
                }
            }
            if let Some(started) = pricing_started {
                pricing_ns += started.elapsed().as_nanos() as u64;
            }
            density_stages.push(StageDensity {
                layer: compiled.ir.layer_id - 1,
                kernel: compiled.ir.kernel_in_layer,
                op: match compiled.ir.kind {
                    KernelKind::Aggregate => StageOp::Aggregate,
                    KernelKind::Update => StageOp::Update,
                },
                density: out.density(),
            });
            kernel_counter += 1;
        };
        telemetry.begin_request();
        let block_dispatch = self.block_dispatch;
        let mut predicted_kernel_ms = 0.0;
        let output = match (dispatcher, arena) {
            (Some(dispatcher), Some(arena)) => {
                // The dispatching engine: mode-picked host kernels writing
                // into the session's arena (zero per-kernel allocations),
                // block-granular over the compiler partition by default,
                // probed per dispatch when telemetry is on.
                predicted_kernel_ms = executor.forward_dispatch_blocked_profiled(
                    features,
                    dispatcher,
                    arena,
                    block_dispatch.then_some(&spec),
                    Some(&mut *telemetry),
                    &mut on_kernel,
                )?;
                arena.output().clone()
            }
            _ => executor.forward_with(features, |l, k, s, i, o| on_kernel(l, k, s, i, o, None))?,
        };
        if probe {
            telemetry.record_request_phases(profile_ns, pricing_ns);
            telemetry.record_pricing_cache(
                pricing_hits,
                pricing_misses,
                pricing_evictions,
                pricing_hit_ns,
                pricing_miss_ns,
            );
        }

        let freq = plan.options().accelerator.frequency_mhz;
        let compile_ms = plan.compile_ms();
        let data_movement_ms = plan.request_data_movement_ms(features.size_bytes());
        let feature_movement_ms = plan.feature_movement_ms(features.size_bytes());
        let runs = self
            .states
            .iter_mut()
            .map(|state| {
                let total_cycles = state.scheduler.total_cycles();
                let latency_ms = cycles_to_ms(total_cycles, freq);
                let decisions: usize = state.kernels.iter().map(|k| k.decisions).sum();
                let overhead = RuntimeOverhead::from_counts(
                    &self.soft,
                    decisions,
                    state.scheduler.total_schedule_events(),
                    latency_ms * 1e-3,
                );
                StrategyRun {
                    strategy: state.strategy,
                    average_utilization: state.scheduler.average_utilization(),
                    kernels: std::mem::replace(&mut state.kernels, Vec::with_capacity(num_kernels)),
                    total_cycles,
                    latency_ms,
                    end_to_end_ms: compile_ms + data_movement_ms + latency_ms,
                    overhead,
                }
            })
            .collect();

        self.maybe_recalibrate();
        let request_index = self.requests_served;
        self.requests_served += 1;
        Ok(InferenceReport {
            request_index,
            data_movement_ms,
            feature_movement_ms,
            density_trace: DensityTrace {
                input_density: features.density(),
                stages: std::mem::replace(
                    &mut self.density_scratch,
                    Vec::with_capacity(num_kernels),
                ),
            },
            runs,
            predicted_kernel_ms,
            output_embeddings: output,
        })
    }

    /// Online drift-triggered recalibration (host backend only): after a
    /// served request, any per-primitive drift gauge
    /// (measured/predicted EWMA, see
    /// [`DriftTracker`](dynasparse_telemetry::DriftTracker)) that is finite
    /// but outside [`DRIFT_BAND`] rescales that primitive's calibration fit
    /// by the observed ratio; the rescaled calibration is swapped into the
    /// dispatcher in one step and the tripped gauges reset to `1.0`.
    /// Decisions and predictions change, results never do (the calibration
    /// only picks among bit-identical routes).
    fn maybe_recalibrate(&mut self) {
        if !self.recalibrate {
            return;
        }
        let Some(dispatcher) = self.dispatcher.as_mut() else {
            return;
        };
        if dispatcher.backend_kind() != BackendKind::Host {
            return;
        }
        let Some(calibration) = dispatcher.calibration().cloned() else {
            return;
        };
        const GAUGES: [GaugeId; 3] = [GaugeId::DriftGemm, GaugeId::DriftSpdmm, GaugeId::DriftSpmm];
        let mut ratios = [1.0f64; 3];
        let mut drifted = false;
        let registry = Arc::clone(self.telemetry.registry());
        for (ratio, gauge) in ratios.iter_mut().zip(GAUGES) {
            let r = registry.gauge(gauge);
            if r.is_finite() && r > 0.0 && !(DRIFT_BAND.0..=DRIFT_BAND.1).contains(&r) {
                *ratio = r;
                drifted = true;
            }
        }
        if !drifted {
            return;
        }
        let mut rescaled = (*calibration).clone();
        let fits = [&mut rescaled.gemm, &mut rescaled.spdmm, &mut rescaled.spmm];
        for (fit, ratio) in fits.into_iter().zip(ratios) {
            if ratio != 1.0 {
                fit.work *= ratio;
                fit.output *= ratio;
                fit.per_row *= ratio;
            }
        }
        // The rescaled fit invalidates every cached pricing decision: the
        // fingerprint change makes old keys unreachable (also in the shared
        // tier, without a flush — sibling workers recalibrate on their own
        // schedule), and clearing the local cache returns its slots to the
        // fresh fit's working set immediately.
        let new_fingerprint = pricing::calibration_fingerprint(Some(&rescaled));
        dispatcher.recalibrate(Arc::new(rescaled));
        self.calib_fingerprint = new_fingerprint;
        if let Some(cache) = &mut self.pricing_cache {
            cache.clear();
        }
        for (gauge, ratio) in GAUGES.into_iter().zip(ratios) {
            if ratio != 1.0 {
                registry.gauge_set(gauge, 1.0);
            }
        }
        self.telemetry.record_recalibration();
    }

    /// Serves a batch of requests over the same plan, returning one report
    /// per request in order.  Compilation, adjacency normalization,
    /// analyzer/scheduler state, the arena and the per-kernel
    /// profile/grid scratch are shared across the whole batch.
    ///
    /// With the default [`HostExecutionOptions`](crate::HostExecutionOptions)
    /// (`dispatch && batch_fusion`) and two or more requests, the batch is
    /// **fused**: the per-request feature matrices are horizontally
    /// concatenated into one `m × (d·B)` operand and every kernel executes
    /// once per layer through the [`KernelDispatcher`] — which now decides
    /// from the batch operand's density and widened shape — into
    /// batch-sized [`KernelArena`] slots reused across micro-batches.
    /// Per-request reports are recovered from block views and are
    /// bit-identical to the request-by-request loop (the fallback when
    /// fusion is disabled), including density traces, strategy pricing and
    /// `request_index` (proved by `tests/integration_batch.rs`).
    ///
    /// **Every** request's shape is validated before **any** request runs:
    /// a shape-mismatched matrix anywhere in the batch fails the whole call
    /// up front (typed [`MatrixError::ShapeMismatch`], `op = "session
    /// infer_batch"`) instead of erroring midway with earlier requests
    /// already served.
    ///
    /// ```
    /// use dynasparse::{MappingStrategy, Planner};
    /// use dynasparse_graph::Dataset;
    /// use dynasparse_model::GnnModel;
    ///
    /// let dataset = Dataset::Cora.spec().generate_scaled(42, 0.1);
    /// let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 7);
    /// let plan = Planner::default().plan(&model, &dataset).unwrap();
    /// let mut session = plan.session(&[MappingStrategy::Dynamic]);
    ///
    /// // A micro-batch of three requests: one fused kernel pass per layer.
    /// let batch = vec![dataset.features.clone(); 3];
    /// let reports = session.infer_batch(&batch).unwrap();
    /// assert_eq!(reports.len(), 3);
    /// assert_eq!(reports[2].request_index, 2);
    /// // Every request got its own embeddings and strategy pricing.
    /// assert!(reports[0].run(MappingStrategy::Dynamic).unwrap().total_cycles > 0);
    /// ```
    pub fn infer_batch(
        &mut self,
        batch: &[FeatureMatrix],
    ) -> Result<Vec<InferenceReport>, DynasparseError> {
        for features in batch {
            self.validate_request(features, "session infer_batch")?;
        }
        let fused = batch.len() > 1
            && self.dispatcher.is_some()
            && self.plan.get().options().host.batch_fusion;
        if !fused {
            return batch
                .iter()
                .map(|features| self.infer_validated(features))
                .collect();
        }
        self.infer_batch_fused(batch)
    }

    /// Pre-sizes the fused-batch arena for micro-batches of up to
    /// `max_batch` requests, so serving steady state never grows a buffer
    /// mid-batch.  A no-op when dispatch or batch fusion is off (or for
    /// `max_batch < 2`); serving runtimes call this once per worker with
    /// their configured batch cap.
    pub fn reserve_batch(&mut self, max_batch: usize) {
        if self.dispatcher.is_none()
            || !self.plan.get().options().host.batch_fusion
            || max_batch < 2
        {
            return;
        }
        self.ensure_batch_arena(max_batch);
    }

    fn ensure_batch_arena(&mut self, batch: usize) {
        let num_vertices = self.plan.get().num_vertices();
        let grow = match &self.batch_arena {
            Some(arena) => arena.batch_capacity() < batch,
            None => true,
        };
        if grow {
            self.batch_arena = Some(self.executor.arena_batch(num_vertices, batch));
        }
    }

    /// The fused batch path: one `forward_dispatch_batch` pass captures
    /// per-request profiles/analyses through block views, then the reports
    /// are replayed per request — the analyzer is stateless and the
    /// scheduler replays the same kernel order with the same analyses, so
    /// every report is bit-identical to the per-request loop's.
    fn infer_batch_fused(
        &mut self,
        batch: &[FeatureMatrix],
    ) -> Result<Vec<InferenceReport>, DynasparseError> {
        let bsz = batch.len();
        self.ensure_batch_arena(bsz);
        let plan = self.plan.get();
        let program = plan.program();
        let spec = program.partition;
        let num_vertices = plan.num_vertices();
        let num_kernels = program.kernels.len();
        let num_states = self.states.len();
        // The clears matter on the recovery path (see `infer_validated`).
        for state in &mut self.states {
            state.scheduler.reset();
            state.kernels.clear();
        }
        let analyzers: Vec<Analyzer> = self.states.iter().map(|s| s.analyzer).collect();
        let mut records: Vec<BatchRecord> = (0..bsz)
            .map(|_| BatchRecord {
                stages: Vec::with_capacity(num_kernels),
                kernel_io: Vec::with_capacity(num_kernels),
                analyses: Vec::with_capacity(num_kernels * num_states),
            })
            .collect();

        if self.batch_profile_scratch.len() < bsz {
            self.batch_profile_scratch
                .resize_with(bsz, DensityProfile::default);
        }
        let batch_profiles = &mut self.batch_profile_scratch;
        let out_counts = &mut self.batch_nnz_scratch;
        let grid_scratch = &mut self.grid_scratch;
        let defer_out = &self.defer_out;
        let out_source_for = &self.out_source_for;
        let executor = &self.executor;
        let dispatcher = self
            .dispatcher
            .as_ref()
            .expect("fused path has a dispatcher");
        let arena = self.batch_arena.as_mut().expect("ensured above");
        let telemetry = &mut self.telemetry;
        let probe = telemetry.enabled();
        let fault_hook = self.fault_hook.clone();
        let pricing_mode = self.pricing_mode;
        let mut pricing_cache = self.pricing_cache.as_mut();
        let pricing_tier = self.pricing_tier.clone();
        let calib_fp = self.calib_fingerprint;
        let statics_fp = self.statics_fingerprint;
        let quant_scratch = &mut self.quant_scratch;
        let mut profile_ns = 0u64;
        let mut pricing_ns = 0u64;
        let mut pricing_hits = 0u64;
        let mut pricing_misses = 0u64;
        let mut pricing_evictions = 0u64;
        let mut pricing_hit_ns = 0u64;
        let mut pricing_miss_ns = 0u64;
        let mut kernel_counter = 0usize;
        telemetry.begin_request();
        let block_dispatch = self.block_dispatch;
        let predicted_batch_ms = executor.forward_dispatch_batch_blocked_probed(
            batch,
            dispatcher,
            arena,
            block_dispatch.then_some(&spec),
            Some(&mut *telemetry),
            |_layer, _ki, spec_kernel, views| {
                let kidx = kernel_counter;
                kernel_counter += 1;
                // Fault injection (see `FaultHook`): the fused pass executes
                // each kernel once for the whole batch, so a panicking hook
                // fails the batch — the serving supervisor then retries the
                // requests individually to isolate the poisoned one.
                if let Some(hook) = &fault_hook {
                    hook(kidx);
                }
                let compiled = &program.kernels[kidx];
                debug_assert_eq!(
                    compiled.ir.kind == KernelKind::Aggregate,
                    spec_kernel.op.is_aggregate(),
                    "compiled kernel order must match execution order"
                );
                // Grids depend on the per-request width only, so the whole
                // batch shares the cached grid.
                let in_dim = views.input_dim();
                let grid_slot = &mut grid_scratch[kidx];
                let input_shape = (num_vertices, in_dim);
                if grid_slot.as_ref().map(BlockGrid::shape) != Some(input_shape) {
                    *grid_slot = Some(match compiled.ir.kind {
                        KernelKind::Aggregate => spec.feature_grid(num_vertices, in_dim),
                        KernelKind::Update => spec.subfiber_grid(num_vertices, in_dim),
                    });
                }
                let grid = grid_slot.as_ref().expect("grid fit above");
                // One pass over the batch operands recovers every request's
                // input profile (and, for most kernels, the *previous* kernel's
                // output densities — see below); the resulting densities are
                // bit-equal to what the per-request loop computes (the same
                // integer counts divided the same way).
                let profile_started = probe.then(Instant::now);
                views.profile_inputs_into(grid, batch_profiles);
                if let Some(started) = profile_started {
                    profile_ns += started.elapsed().as_nanos() as u64;
                }
                let input_total = num_vertices * in_dim;
                // A kernel whose input is an earlier kernel's unmodified output
                // resolves that kernel's deferred output densities from the
                // profiles just fit — no separate counting pass.
                if let Some(src) = out_source_for[kidx] {
                    for (b, record) in records.iter_mut().enumerate() {
                        let d = if input_total == 0 {
                            0.0
                        } else {
                            batch_profiles[b].total_nnz() as f64 / input_total as f64
                        };
                        record.kernel_io[src].1 = d;
                        record.stages[src].density = d;
                    }
                }
                let deferred = defer_out[kidx].is_some();
                if !deferred {
                    views.output_nnz_into(out_counts);
                }
                let output_total = num_vertices * views.output_dim();
                let pricing_started = probe.then(Instant::now);
                for (b, record) in records.iter_mut().enumerate() {
                    let profiles = OperandProfiles {
                        adjacency: &program.static_sparsity.adjacency,
                        weights: &program.static_sparsity.weights,
                        features: &batch_profiles[b],
                    };
                    // Batch amortization: request `b` misses, computes and
                    // inserts; any later request of this batch whose kernel
                    // key collides hits the just-inserted entry — one
                    // Analyzer pass per distinct key per fused batch.
                    let base_key = pricing_cache.is_some().then(|| {
                        PricingKey::base(
                            calib_fp,
                            statics_fp,
                            kidx,
                            pricing_mode,
                            &batch_profiles[b],
                        )
                    });
                    let mut quantized = false;
                    for analyzer in &analyzers {
                        let state_started = probe.then(Instant::now);
                        let mut hit = false;
                        let analysis: Arc<KernelAnalysis> = match (&mut pricing_cache, base_key) {
                            (Some(cache), Some(base)) => {
                                let key = base.with_strategy(analyzer.strategy());
                                let mut cached = cache.get(&key);
                                if cached.is_none() {
                                    if let Some(tier) = pricing_tier.as_deref() {
                                        if let Some(a) = tier.get(&key) {
                                            if cache.insert(key, Arc::clone(&a)) {
                                                pricing_evictions += 1;
                                            }
                                            cached = Some(a);
                                        }
                                    }
                                }
                                match cached {
                                    Some(a) => {
                                        hit = true;
                                        a
                                    }
                                    None => {
                                        let a = if pricing_mode == PricingCacheMode::Bucketed {
                                            if !quantized {
                                                pricing::quantize_profile_into(
                                                    &batch_profiles[b],
                                                    quant_scratch,
                                                );
                                                quantized = true;
                                            }
                                            let priced = OperandProfiles {
                                                adjacency: &program.static_sparsity.adjacency,
                                                weights: &program.static_sparsity.weights,
                                                features: &*quant_scratch,
                                            };
                                            Arc::new(analyzer.analyze_kernel(compiled, &priced))
                                        } else {
                                            Arc::new(analyzer.analyze_kernel(compiled, &profiles))
                                        };
                                        if cache.insert(key, Arc::clone(&a)) {
                                            pricing_evictions += 1;
                                        }
                                        if let Some(tier) = pricing_tier.as_deref() {
                                            if tier.publish(key, Arc::clone(&a)) {
                                                pricing_evictions += 1;
                                            }
                                        }
                                        a
                                    }
                                }
                            }
                            _ => Arc::new(analyzer.analyze_kernel(compiled, &profiles)),
                        };
                        record.analyses.push(analysis);
                        if base_key.is_some() {
                            if hit {
                                pricing_hits += 1;
                            } else {
                                pricing_misses += 1;
                            }
                        }
                        if let Some(started) = state_started {
                            let ns = started.elapsed().as_nanos() as u64;
                            if base_key.is_some() {
                                if hit {
                                    pricing_hit_ns += ns;
                                } else {
                                    pricing_miss_ns += ns;
                                }
                            }
                        }
                    }
                    let input_density = if input_total == 0 {
                        0.0
                    } else {
                        batch_profiles[b].total_nnz() as f64 / input_total as f64
                    };
                    let out_density = if deferred {
                        // Patched when the consuming kernel profiles this
                        // matrix as its input.
                        f64::NAN
                    } else if output_total == 0 {
                        0.0
                    } else {
                        out_counts[b] as f64 / output_total as f64
                    };
                    record.kernel_io.push((input_density, out_density));
                    record.stages.push(StageDensity {
                        layer: compiled.ir.layer_id - 1,
                        kernel: compiled.ir.kernel_in_layer,
                        op: match compiled.ir.kind {
                            KernelKind::Aggregate => StageOp::Aggregate,
                            KernelKind::Update => StageOp::Update,
                        },
                        density: out_density,
                    });
                }
                if let Some(started) = pricing_started {
                    pricing_ns += started.elapsed().as_nanos() as u64;
                }
            },
        )?;
        if probe {
            // One fused pass served the whole batch: attribute the shared
            // phase time evenly across requests so the per-request histograms
            // stay comparable to the sequential path.
            let per = bsz.max(1) as u64;
            for _ in 0..bsz {
                telemetry.record_request_phases(profile_ns / per, pricing_ns / per);
            }
            // Cache activity is counted per lookup, not per request, so the
            // batch's aggregate records once.
            telemetry.record_pricing_cache(
                pricing_hits,
                pricing_misses,
                pricing_evictions,
                pricing_hit_ns,
                pricing_miss_ns,
            );
        }

        let freq = plan.options().accelerator.frequency_mhz;
        let compile_ms = plan.compile_ms();
        // One fused pass priced the whole batch: attribute the predicted
        // kernel milliseconds evenly across the batch's reports.
        let predicted_kernel_ms = predicted_batch_ms / bsz.max(1) as f64;
        let arena = self.batch_arena.as_ref().expect("ensured above");
        let mut reports = Vec::with_capacity(bsz);
        for (b, (features, record)) in batch.iter().zip(records).enumerate() {
            for state in &mut self.states {
                state.scheduler.reset();
                state.kernels.clear();
            }
            for (kidx, compiled) in program.kernels.iter().enumerate() {
                let (input_density, output_density) = record.kernel_io[kidx];
                debug_assert!(
                    !output_density.is_nan(),
                    "deferred output density of kernel {kidx} must have been resolved"
                );
                for (s, state) in self.states.iter_mut().enumerate() {
                    let analysis = record.analyses[kidx * num_states + s].as_ref();
                    let schedule = state.scheduler.schedule_kernel(compiled.ir.id, analysis);
                    state.kernels.push(KernelReport {
                        kernel_id: compiled.ir.id,
                        layer_id: compiled.ir.layer_id,
                        kind: compiled.ir.kind,
                        cycles: schedule.cycles(),
                        utilization: schedule.utilization,
                        decisions: analysis.decisions,
                        mix: analysis.mix,
                        input_density,
                        output_density,
                    });
                }
            }
            let data_movement_ms = plan.request_data_movement_ms(features.size_bytes());
            let feature_movement_ms = plan.feature_movement_ms(features.size_bytes());
            let runs = self
                .states
                .iter_mut()
                .map(|state| {
                    let total_cycles = state.scheduler.total_cycles();
                    let latency_ms = cycles_to_ms(total_cycles, freq);
                    let decisions: usize = state.kernels.iter().map(|k| k.decisions).sum();
                    let overhead = RuntimeOverhead::from_counts(
                        &self.soft,
                        decisions,
                        state.scheduler.total_schedule_events(),
                        latency_ms * 1e-3,
                    );
                    StrategyRun {
                        strategy: state.strategy,
                        average_utilization: state.scheduler.average_utilization(),
                        kernels: std::mem::replace(
                            &mut state.kernels,
                            Vec::with_capacity(num_kernels),
                        ),
                        total_cycles,
                        latency_ms,
                        end_to_end_ms: compile_ms + data_movement_ms + latency_ms,
                        overhead,
                    }
                })
                .collect();
            let request_index = self.requests_served;
            self.requests_served += 1;
            reports.push(InferenceReport {
                request_index,
                data_movement_ms,
                feature_movement_ms,
                density_trace: DensityTrace {
                    input_density: features.density(),
                    stages: record.stages,
                },
                runs,
                predicted_kernel_ms,
                output_embeddings: arena.output_block(b),
            });
        }
        self.maybe_recalibrate();
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::planner::Planner;
    use dynasparse_graph::Dataset;
    use dynasparse_model::{GnnModel, GnnModelKind};

    fn plan_fixture() -> (CompiledPlan, FeatureMatrix) {
        let ds = Dataset::Cora.spec().generate_scaled(21, 0.15);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            16,
            ds.spec.num_classes,
            3,
        );
        let plan = Planner::new(EngineOptions::default())
            .plan(&model, &ds)
            .unwrap();
        (plan, ds.features)
    }

    #[test]
    fn repeated_requests_are_identical_and_free_of_recompilation() {
        let (plan, features) = plan_fixture();
        let compile_ms = plan.compile_ms();
        let mut session = plan.session(&MappingStrategy::paper_strategies());
        let a = session.infer(&features).unwrap();
        let b = session.infer(&features).unwrap();
        assert_eq!(session.requests_served(), 2);
        assert_eq!(a.request_index, 0);
        assert_eq!(b.request_index, 1);
        // The plan (and with it the compile report) is untouched by serving.
        assert_eq!(plan.compile_ms(), compile_ms);
        // Deterministic serving: identical requests price identically.
        for (ra, rb) in a.runs.iter().zip(b.runs.iter()) {
            assert_eq!(ra.strategy, rb.strategy);
            assert_eq!(ra.total_cycles, rb.total_cycles);
            assert_eq!(ra.latency_ms, rb.latency_ms);
            assert_eq!(ra.total_mix(), rb.total_mix());
        }
        assert_eq!(
            a.output_embeddings.to_dense().as_slice(),
            b.output_embeddings.to_dense().as_slice()
        );
        // Steady-state accounting: the amortized request pays the feature
        // transfer only; the one-time static transfer is plan state.
        let dynamic = a.run(MappingStrategy::Dynamic).unwrap();
        let amortized = a.amortized_ms(MappingStrategy::Dynamic).unwrap();
        assert!(amortized < a.data_movement_ms + dynamic.latency_ms);
        assert!(
            (a.feature_movement_ms + plan.static_data_movement_ms() - a.data_movement_ms).abs()
                < 1e-12
        );
    }

    #[test]
    fn different_features_change_the_mapping_but_not_the_plan() {
        let (plan, features) = plan_fixture();
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let sparse = session.infer(&features).unwrap();
        // A fully dense request over the same topology.
        let dense = FeatureMatrix::Dense(dynasparse_matrix::DenseMatrix::from_fn(
            plan.num_vertices(),
            plan.input_dim(),
            |_, _| 1.0,
        ));
        let dense_report = session.infer(&dense).unwrap();
        let s = sparse.run(MappingStrategy::Dynamic).unwrap();
        let d = dense_report.run(MappingStrategy::Dynamic).unwrap();
        // Denser input features make the dynamic mapping more expensive.
        assert!(d.total_cycles > s.total_cycles);
        assert!(d.total_mix().gemm > s.total_mix().gemm);
        // Both requests reused one plan: same partition, same kernel count.
        assert_eq!(s.kernels.len(), d.kernels.len());
    }

    #[test]
    fn batched_requests_match_sequential_requests() {
        let (plan, features) = plan_fixture();
        let mut sequential = plan.session(&[MappingStrategy::Dynamic]);
        let s0 = sequential.infer(&features).unwrap();
        let s1 = sequential.infer(&features).unwrap();
        let mut batched = plan.session(&[MappingStrategy::Dynamic]);
        let reports = batched
            .infer_batch(&[features.clone(), features.clone()])
            .unwrap();
        assert_eq!(reports.len(), 2);
        for (seq, bat) in [s0, s1].iter().zip(reports.iter()) {
            assert_eq!(
                seq.run(MappingStrategy::Dynamic).unwrap().total_cycles,
                bat.run(MappingStrategy::Dynamic).unwrap().total_cycles
            );
        }
    }

    #[test]
    fn shared_session_moves_across_threads_and_matches_borrowed() {
        let (plan, features) = plan_fixture();
        let mut borrowed = plan.session(&[MappingStrategy::Dynamic]);
        assert_eq!(borrowed.strategies(), &[MappingStrategy::Dynamic]);
        let want = borrowed.infer(&features).unwrap();

        let plan = Arc::new(plan);
        let mut owned: OwnedSession = plan.session_shared(&[MappingStrategy::Dynamic]);
        let request = features.clone();
        let got = std::thread::spawn(move || owned.infer(&request).unwrap())
            .join()
            .unwrap();

        let w = want.run(MappingStrategy::Dynamic).unwrap();
        let g = got.run(MappingStrategy::Dynamic).unwrap();
        assert_eq!(w.total_cycles, g.total_cycles);
        assert_eq!(w.latency_ms.to_bits(), g.latency_ms.to_bits());
        assert_eq!(want.output_embeddings, got.output_embeddings);
        // The plan is still usable here: sessions share it, they don't take it.
        assert_eq!(plan.num_vertices(), features.num_vertices());
    }

    #[test]
    fn opening_sessions_shares_plan_state_instead_of_cloning() {
        let (plan, _) = plan_fixture();
        let plan = Arc::new(plan);
        let sessions: Vec<OwnedSession> = (0..4)
            .map(|_| plan.session_shared(&[MappingStrategy::Dynamic]))
            .collect();
        // 4 sessions + the planner's handle: the adjacency map and model are
        // reference-counted, not deep-cloned per session.
        assert_eq!(Arc::strong_count(&plan.adjacencies), 5);
        assert_eq!(Arc::strong_count(&plan.model), 5);
        drop(sessions);
        assert_eq!(Arc::strong_count(&plan.adjacencies), 1);
    }

    #[test]
    fn batch_with_a_bad_shape_fails_before_serving_anything() {
        // A mismatched matrix anywhere in the batch must be caught by the
        // up-front validation pass: no request of the batch runs, instead
        // of earlier requests being served and a mid-batch error leaving
        // the caller with partial results.
        let (plan, features) = plan_fixture();
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let wrong = FeatureMatrix::Dense(dynasparse_matrix::DenseMatrix::zeros(3, 5));
        let err = session
            .infer_batch(&[features.clone(), wrong, features.clone()])
            .unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Execution(MatrixError::ShapeMismatch {
                op: "session infer_batch",
                ..
            })
        ));
        assert_eq!(
            session.requests_served(),
            0,
            "no request of an invalid batch may execute"
        );
        // The session stays healthy for the next (valid) batch.
        let reports = session.infer_batch(&[features.clone(), features]).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(session.requests_served(), 2);
    }

    #[test]
    fn default_plan_dispatches_with_a_shared_calibration() {
        let (plan, _) = plan_fixture();
        match plan.calibration() {
            Some(calibration) => assert!(calibration.is_valid()),
            // Only when the environment disables calibration explicitly.
            None => assert!(std::env::var("DYNASPARSE_CALIBRATION").is_ok()),
        }
    }

    #[test]
    fn dispatch_reports_backend_predicted_kernel_cost() {
        let (plan, features) = plan_fixture();
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let report = session.infer(&features).unwrap();
        if plan.calibration().is_some() {
            assert!(
                report.predicted_kernel_ms > 0.0,
                "a calibrated backend must price the request"
            );
        }
        assert!(report.predicted_kernel_ms.is_finite());
        // The fused batch attributes one batch-wide sum evenly.
        let reports = session
            .infer_batch(&[features.clone(), features.clone()])
            .unwrap();
        assert_eq!(
            reports[0].predicted_kernel_ms.to_bits(),
            reports[1].predicted_kernel_ms.to_bits()
        );
    }

    #[test]
    fn drift_outside_band_triggers_one_recalibration() {
        use dynasparse_telemetry::TelemetryLevel;
        let (plan, features) = plan_fixture();
        if plan.calibration().is_none() {
            return; // calibration disabled via the environment
        }
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
        session.set_telemetry(registry.clone());
        // Seed the gemm drift gauge far outside the accepted band, as if the
        // measured kernels had been running 16x over their predictions.
        registry.gauge_set(GaugeId::DriftGemm, 16.0);
        session.infer(&features).unwrap();
        assert_eq!(
            registry.counter(CounterId::Recalibrations),
            1,
            "one request with a tripped gauge must recalibrate once"
        );
        // The tripped gauge was reset after the swap.
        assert!((registry.gauge(GaugeId::DriftGemm) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recalibration_can_be_disabled_by_options() {
        use dynasparse_telemetry::TelemetryLevel;
        let ds = Dataset::Cora.spec().generate_scaled(21, 0.15);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            16,
            ds.spec.num_classes,
            3,
        );
        let mut options = EngineOptions::default();
        options.host.recalibrate = false;
        let plan = Planner::new(options).plan(&model, &ds).unwrap();
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
        session.set_telemetry(registry.clone());
        registry.gauge_set(GaugeId::DriftGemm, 16.0);
        session.infer(&ds.features).unwrap();
        assert_eq!(registry.counter(CounterId::Recalibrations), 0);
    }

    #[test]
    fn mismatched_request_shape_is_a_typed_execution_error() {
        let (plan, _) = plan_fixture();
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let wrong = FeatureMatrix::Dense(dynasparse_matrix::DenseMatrix::zeros(3, 5));
        let err = session.infer(&wrong).unwrap_err();
        assert!(matches!(
            err,
            DynasparseError::Execution(MatrixError::ShapeMismatch {
                op: "session infer",
                ..
            })
        ));
        // A failed request does not count as served.
        assert_eq!(session.requests_served(), 0);
    }
}
