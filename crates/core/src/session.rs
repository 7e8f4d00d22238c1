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
//!
//! Every request — served alone or as a member of a batch — crosses the
//! same stages through one executor call: **profile refit** (the kernel's
//! input density profile), **pricing** (one [`PricingStage::price`] call per
//! kernel per request) and **report assembly** (one replay of the recorded
//! analyses through each strategy's scheduler).  A batch is a loop of such
//! passes.

use crate::error::DynasparseError;
use crate::planner::CompiledPlan;
use crate::report::{InferenceReport, KernelReport, StrategyRun};
use dynasparse_accel::{cycles_to_ms, ComputationCore, SoftProcessorModel};
use dynasparse_compiler::{CompiledProgram, KernelKind};
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::{BlockGrid, DensityProfile, DispatchPolicy, MatrixError};
use dynasparse_model::{
    DensityTrace, KernelArena, KernelDispatcher, KernelSpec, ReferenceExecutor, StageDensity,
    StageOp,
};
use dynasparse_runtime::{
    Analyzer, KernelAnalysis, MappingStrategy, OperandProfiles, PricingStage, RuntimeOverhead,
    Scheduler,
};
use dynasparse_telemetry::{CounterId, Registry, SessionTelemetry};
use std::sync::Arc;
use std::time::Instant;

/// How a session holds its plan: borrowed from the caller (the classic
/// single-threaded shape) or co-owned through an [`Arc`] (the serving
/// shape, where a `Session<'static>` is moved onto a worker thread while
/// sibling sessions share the same plan).
pub(crate) enum PlanHandle<'p> {
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
/// failure a serving supervisor must contain.  The serve worker arms it per
/// request, around the one [`Session::infer`] call that serves it, so a
/// panicking hook fails exactly the request it was armed for.
/// Serving-layer fault-injection tests use this to prove worker supervision
/// loses no request.
pub type FaultHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Serving state bound to one [`CompiledPlan`].
pub struct Session<'p> {
    plan: PlanHandle<'p>,
    strategies: Vec<MappingStrategy>,
    executor: ReferenceExecutor,
    soft: SoftProcessorModel,
    /// One stateless Analyzer per strategy, in strategy order.
    analyzers: Vec<Analyzer>,
    /// One Scheduler per strategy, rewound for every report.
    schedulers: Vec<Scheduler>,
    /// The dispatching kernel engine (mode-picked host kernels).
    dispatcher: KernelDispatcher,
    /// Plan-sized ping-pong feature buffers reused by every request.
    arena: KernelArena,
    /// One reusable runtime sparsity profile per compiled kernel, refit in
    /// place per request (no per-kernel allocation).
    profile_scratch: Vec<DensityProfile>,
    /// One cached profiling grid per compiled kernel: the grid depends only
    /// on the plan topology and the kernel's input width, so it is derived
    /// on the first request and reused by every later request instead of
    /// being re-derived per kernel call.
    grid_scratch: Vec<Option<BlockGrid>>,
    /// The reusable record of the request being served.
    record: RequestRecord,
    /// The session's telemetry bundle: counters/histograms through a writer
    /// shard of a [`Registry`] (the process-global one by default), plus the
    /// kernel-span flight recorder and drift tracker.  Costs one predictable
    /// branch per call site when the registry level is `off`.
    telemetry: SessionTelemetry,
    /// Fault-injection hook run per executed kernel (see [`FaultHook`]);
    /// `None` (the default) costs one branch per kernel.
    fault_hook: Option<FaultHook>,
    /// Cache, fingerprints and counters of the pricing stage.
    /// Cached values are pure functions of their keys, so reuse never
    /// depends on request order or cache state.
    pricing: PricingStage,
    requests_served: usize,
}

/// What one request leaves behind while the executor runs, in kernel
/// execution order: everything report assembly needs.
#[derive(Default)]
struct RequestRecord {
    stages: Vec<StageDensity>,
    /// `(input_density, output_density)` per kernel.
    kernel_io: Vec<(f64, f64)>,
    /// One analysis per kernel per strategy, kernel-major
    /// (`kernel * num_strategies + strategy`).  `Arc`s so same-key requests
    /// share a single Analyzer pass through the pricing cache instead of
    /// cloning the task-cycle vectors.
    analyses: Vec<Arc<KernelAnalysis>>,
}

/// The per-kernel stages the executor callback runs, over the session state
/// they need: kernel entry (fault hook, grid fit), the profile stopwatch, and
/// pricing + recording of the request's kernel.
struct KernelObserver<'s> {
    program: &'s CompiledProgram,
    num_vertices: usize,
    grids: &'s mut [Option<BlockGrid>],
    pricing: &'s mut PricingStage,
    analyzers: &'s [Analyzer],
    record: &'s mut RequestRecord,
    fault_hook: Option<FaultHook>,
    /// Phase stopwatches only run when the registry records.
    probe: bool,
    profile_ns: u64,
    next_kernel: usize,
}

impl KernelObserver<'_> {
    /// Enters the next kernel in execution order and returns its index.
    /// Fault injection runs here, after the kernel wrote its output, so a
    /// panicking hook unwinds with the arena mid-request.
    fn enter(&mut self, spec_kernel: &KernelSpec, input_dim: usize) -> usize {
        let kidx = self.next_kernel;
        self.next_kernel += 1;
        if let Some(hook) = &self.fault_hook {
            hook(kidx);
        }
        let kind = self.program.kernels[kidx].ir.kind;
        debug_assert_eq!(
            kind == KernelKind::Aggregate,
            spec_kernel.op.is_aggregate(),
            "compiled kernel order must match execution order"
        );
        // The grid depends only on the topology and the per-request input
        // width, so it is fit once and shared by every later request.
        let shape = (self.num_vertices, input_dim);
        let slot = &mut self.grids[kidx];
        if slot.as_ref().map(BlockGrid::shape) != Some(shape) {
            let spec = self.program.partition;
            *slot = Some(match kind {
                KernelKind::Aggregate => spec.feature_grid(shape.0, shape.1),
                KernelKind::Update => spec.subfiber_grid(shape.0, shape.1),
            });
        }
        kidx
    }

    /// The profiling grid of an entered kernel: feature fibers for an
    /// Aggregate, subfibers for an Update.
    fn grid(&self, kidx: usize) -> &BlockGrid {
        self.grids[kidx].as_ref().expect("grid fit on kernel entry")
    }

    /// Runs `refit` over the kernel's grid under the profile stopwatch.
    fn profile(&mut self, kidx: usize, refit: impl FnOnce(&BlockGrid)) {
        let started = self.probe.then(Instant::now);
        refit(self.grid(kidx));
        if let Some(started) = started {
            self.profile_ns += started.elapsed().as_nanos() as u64;
        }
    }

    /// Prices kernel `kidx` from its input profile and records its
    /// densities.
    fn record(
        &mut self,
        kidx: usize,
        features: &DensityProfile,
        input_density: f64,
        output_density: f64,
    ) {
        let compiled = &self.program.kernels[kidx];
        let statics = &self.program.static_sparsity;
        let profiles = OperandProfiles {
            adjacency: &statics.adjacency,
            weights: &statics.weights,
            features,
        };
        let record = &mut *self.record;
        self.pricing.price(
            kidx,
            compiled,
            &profiles,
            self.analyzers,
            self.probe,
            &mut record.analyses,
        );
        record.kernel_io.push((input_density, output_density));
        record.stages.push(StageDensity {
            layer: compiled.ir.layer_id - 1,
            kernel: compiled.ir.kernel_in_layer,
            op: match compiled.ir.kind {
                KernelKind::Aggregate => StageOp::Aggregate,
                KernelKind::Update => StageOp::Update,
            },
            density: output_density,
        });
    }
}

/// `nnz / total`, with an empty matrix at density 0 — the same integer
/// counts divided the same way as `FeatureMatrix::density`.
fn density_of(nnz: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        nnz as f64 / total as f64
    }
}
/// Default per-session pricing-cache capacity: several density-bucket
/// working sets per (kernel, strategy) pair, floored so small plans still
/// ride out bursty density mixes without thrashing; zero (no cache) for a
/// session that prices no strategy.
fn default_pricing_capacity(num_kernels: usize, num_strategies: usize) -> usize {
    if num_strategies == 0 {
        0
    } else {
        (num_kernels * num_strategies * 8).max(256)
    }
}

/// The functional executor over a plan's model and pre-normalized
/// adjacencies (both shared by refcount, nothing is copied).
fn executor_over(plan: &CompiledPlan) -> ReferenceExecutor {
    ReferenceExecutor::from_prepared(Arc::clone(&plan.model), Arc::clone(&plan.adjacencies))
}

/// A session that co-owns its plan and therefore has no borrowed lifetime;
/// this is what worker threads of a serving runtime hold.  Produced by
/// [`CompiledPlan::session_shared`].
pub type OwnedSession = Session<'static>;

// Worker threads move owned sessions across thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<OwnedSession>();
};

impl<'p> Session<'p> {
    /// Opens a session over `plan`, pricing every strategy in `strategies`
    /// on each request: the one builder behind [`CompiledPlan::session`]
    /// and [`CompiledPlan::session_shared`].
    pub(crate) fn build(plan: PlanHandle<'p>, strategies: &[MappingStrategy]) -> Session<'p> {
        let compiled = plan.get();
        let executor = executor_over(compiled);
        let accelerator = compiled.options().accelerator;
        let core = ComputationCore::new(accelerator);
        let num_kernels = compiled.program().kernels.len();
        // The accelerator's Table IV regions own the sparse-output threshold
        // and the CSR weight-cache gate, and are the whole decision when the
        // plan carries no measured host fit.  With one, the dense Update is
        // priced by the plan's width fits, and a fresh dense request is
        // priced at the plan's input density until something counts it.
        // Decisions change routing only: results stay bit-identical.
        let policy = DispatchPolicy::from_regions(accelerator.psys);
        let mut dispatcher = KernelDispatcher::new(
            executor.model(),
            policy,
            compiled.calibration.clone(),
            &compiled.update_fits,
        );
        dispatcher.set_input_density(compiled.input_density());
        let statics = &compiled.program().static_sparsity;
        let pricing = PricingStage::new(
            default_pricing_capacity(num_kernels, strategies.len()),
            compiled.calibration.as_deref(),
            &statics.adjacency,
            &statics.weights,
        );
        let arena = executor.arena(compiled.num_vertices());
        Session {
            strategies: strategies.to_vec(),
            soft: SoftProcessorModel::from_config(&accelerator),
            analyzers: strategies
                .iter()
                .map(|&strategy| Analyzer::new(core, strategy))
                .collect(),
            schedulers: strategies
                .iter()
                .map(|_| Scheduler::new(accelerator.num_cores))
                .collect(),
            dispatcher,
            arena,
            profile_scratch: vec![DensityProfile::default(); num_kernels],
            grid_scratch: (0..num_kernels).map(|_| None).collect(),
            record: RequestRecord::default(),
            telemetry: SessionTelemetry::from_global(),
            fault_hook: None,
            pricing,
            requests_served: 0,
            executor,
            plan,
        }
    }

    /// Replaces every piece of per-session execution state with a fresh
    /// build over `plan`, keeping what is not plan state: the strategies,
    /// the telemetry bundle (registry binding, pinned shard, retained
    /// spans) and the `requests_served` counter.  The pricing cache starts
    /// fresh, keyed under the new plan's fingerprints.
    fn rebuild(&mut self, plan: PlanHandle<'p>) {
        let strategies = std::mem::take(&mut self.strategies);
        let telemetry = std::mem::replace(&mut self.telemetry, SessionTelemetry::from_global());
        let served = self.requests_served;
        *self = Session::build(plan, &strategies);
        self.telemetry = telemetry;
        self.requests_served = served;
    }

    /// The plan this session serves from.
    pub fn plan(&self) -> &CompiledPlan {
        self.plan.get()
    }

    /// Rebinds the session to a different plan, keeping every buffer the new
    /// plan can reuse.  Rebinding to the plan the session already co-owns
    /// (the same `Arc`) returns immediately.
    ///
    /// This is the serving primitive behind per-request subgraph
    /// instantiation: a worker holds one session and rebinds it to each
    /// request's freshly instantiated plan instead of constructing a new
    /// session (and its arena) per request.  When the new plan shares the
    /// old plan's model and calibration by pointer — which is exactly what
    /// [`ModelTemplate::instantiate`](crate::ModelTemplate::instantiate)
    /// produces — the dispatcher, the kernel arena, and the per-kernel
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
        if matches!(&self.plan, PlanHandle::Shared(bound) if Arc::ptr_eq(bound, &plan)) {
            return;
        }
        let old = self.plan.get();
        let same_model = Arc::ptr_eq(&old.model, &plan.model);
        let same_calibration = match (&old.calibration, &plan.calibration) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        // A shared model pointer only arises when both plans came from the
        // same template (or the same `Arc` clone), which fixes the options
        // and the dispatcher inputs.
        let counter = if same_model && same_calibration {
            self.executor = executor_over(&plan);
            self.dispatcher.set_input_density(plan.input_density());
            // The topology changed under the same model/calibration: re-key
            // pricing so the new subgraph separates from the old.
            let statics = &plan.program().static_sparsity;
            self.pricing
                .rebind_statics(&statics.adjacency, &statics.weights);
            self.plan = PlanHandle::Shared(plan);
            CounterId::RebindReuse
        } else {
            self.rebuild(PlanHandle::Shared(plan));
            CounterId::RebindRebuild
        };
        self.telemetry
            .registry()
            .incr(self.telemetry.shard(), counter);
    }

    /// Rebuilds every piece of per-session execution state from the bound
    /// plan, as if the session had been freshly opened — keeping the
    /// strategies, the telemetry bundle (registry binding, pinned shard)
    /// and the `requests_served` counter.
    ///
    /// This is the recovery primitive a serving supervisor calls after a
    /// panic unwound out of [`Session::infer`] / [`Session::infer_batch`]
    /// (e.g. through a [`FaultHook`]).  **Unwind-safety rule:** a panic
    /// mid-forward may leave arena slots, profile scratch and request
    /// records partially written; none of that state is self-healing, so
    /// the session must not serve again until it is rebuilt (or dropped).
    /// Every request restarts its records and schedulers, but arena buffer
    /// *shapes* and cached grids can be left mid-transition — rebuilding
    /// discards them wholesale.  Any installed fault hook is cleared.
    pub fn rebuild_after_panic(&mut self) {
        let plan = match &self.plan {
            PlanHandle::Borrowed(p) => PlanHandle::Borrowed(p),
            PlanHandle::Shared(p) => PlanHandle::Shared(Arc::clone(p)),
        };
        self.rebuild(plan);
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

    /// Replaces the session pricing cache with a fresh one of (at least)
    /// `capacity` slots.  A no-op for a session that prices no strategy.
    /// Mainly a test/tuning knob: a tiny capacity forces steady-state
    /// eviction.
    pub fn set_pricing_capacity(&mut self, capacity: usize) {
        self.pricing.set_capacity(capacity);
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
    /// columns ([`CompiledPlan::validate_request`]).  Every feature must be
    /// finite: a `NaN` or `±Inf`, dense- or CSR-stored, is refused with
    /// [`MatrixError::NonFinite`] by the pass that reads the request once —
    /// the first kernel's own scan when it is an Update over row blocks,
    /// else the refit of its input profile — after which the session serves
    /// the next request as if the refused one had never come.
    pub fn infer(&mut self, features: &FeatureMatrix) -> Result<InferenceReport, DynasparseError> {
        const OP: &str = "session infer";
        self.plan.get().validate_request(features, OP)?;
        self.serve(features, OP)
    }

    /// Serves one already-validated request through the one executor pass;
    /// `op` names the entry point in a [`MatrixError::NonFinite`] refusal.
    /// The executor calls back after every kernel; the callback profiles the
    /// kernel's input and hands the profile to [`KernelObserver::record`],
    /// which prices it.  The report is assembled afterwards by replay — the
    /// analyzer is stateless and the scheduler replays the same kernel order
    /// with the same analyses.
    fn serve(
        &mut self,
        features: &FeatureMatrix,
        op: &'static str,
    ) -> Result<InferenceReport, DynasparseError> {
        let plan = self.plan.get();
        let program = plan.program();
        let num_vertices = plan.num_vertices();
        // The record restarts empty, which also covers recovery: a request
        // that failed mid-execution leaves a partial record behind, which
        // the next request must not inherit.
        self.record.stages.clear();
        self.record.stages.reserve(program.kernels.len());
        self.record.kernel_io.clear();
        self.record.analyses.clear();
        let probe = self.telemetry.enabled();
        let mut observer = KernelObserver {
            program,
            num_vertices,
            grids: &mut self.grid_scratch,
            pricing: &mut self.pricing,
            analyzers: &self.analyzers,
            record: &mut self.record,
            fault_hook: self.fault_hook.clone(),
            probe,
            profile_ns: 0,
            next_kernel: 0,
        };
        self.telemetry.begin_request();
        // The executor runs dense-output kernels over the compiler
        // partition's row blocks, probes every kernel when telemetry is on and
        // returns the predicted kernel milliseconds of the pass.
        let profile_scratch = &mut self.profile_scratch;
        let predicted_kernel_ms = self.executor.forward_dispatch(
            features,
            &self.dispatcher,
            &mut self.arena,
            &program.partition,
            Some(&mut self.telemetry),
            |_layer, _ki, spec_kernel, input, out, scanned| {
                let kidx = observer.enter(spec_kernel, input.dim());
                // A kernel that streamed its input anyway (an Update over
                // row blocks, dense- or CSR-stored) hands its profile over:
                // one pass, not two.  Every other route refits the kernel's
                // reusable profile.
                let (profile, finite): (&DensityProfile, bool) = match scanned {
                    Some((scanned, finite)) => {
                        let grid = observer.grid(kidx);
                        debug_assert_eq!(scanned.shape(), grid.shape());
                        debug_assert_eq!(
                            scanned.block_shape(),
                            (grid.block_rows(), grid.block_cols())
                        );
                        (scanned, finite)
                    }
                    None => {
                        let slot = &mut profile_scratch[kidx];
                        let mut finite = true;
                        observer.profile(kidx, |grid| match input {
                            FeatureMatrix::Dense(m) => finite = slot.refit_dense(m, grid),
                            FeatureMatrix::Sparse(m) => finite = slot.refit_csr(m, grid),
                        });
                        (slot, finite)
                    }
                };
                // Kernel 0 reads the request, so its scan is the request's
                // finiteness check, whatever the storage; the scans of later
                // kernels' inputs are not consulted.
                if kidx == 0 && !finite {
                    return Err(MatrixError::NonFinite { op });
                }
                // The profile already holds the input's non-zero count:
                // asking `input` for its density would scan a request the
                // cache has not seen a second time.
                let input_total = num_vertices * input.dim();
                let input_density = density_of(profile.total_nnz(), input_total);
                observer.record(kidx, profile, input_density, out.density());
                Ok(())
            },
        )?;
        let profile_ns = observer.profile_ns;
        let counters = self.pricing.take_counters();
        if probe {
            self.telemetry
                .record_request_phases(profile_ns, counters.pricing_ns);
            self.telemetry.record_pricing_cache(
                counters.hits,
                counters.misses,
                counters.evictions,
                counters.hit_ns,
                counters.miss_ns,
            );
        }
        Ok(self.assemble(features, predicted_kernel_ms))
    }

    /// Assembles the served request's report from its record: each
    /// strategy's scheduler replays the recorded analyses in kernel
    /// execution order.
    fn assemble(&mut self, features: &FeatureMatrix, predicted_kernel_ms: f64) -> InferenceReport {
        let plan = self.plan.get();
        let program = plan.program();
        let freq = plan.options().accelerator.frequency_mhz;
        let compile_ms = plan.compile_ms();
        let data_movement_ms = plan.request_data_movement_ms(features.size_bytes());
        let feature_movement_ms = plan.feature_movement_ms(features.size_bytes());
        let record = &mut self.record;
        let num_strategies = self.analyzers.len();
        let soft = &self.soft;
        let runs = self
            .analyzers
            .iter()
            .zip(&mut self.schedulers)
            .enumerate()
            .map(|(s, (analyzer, scheduler))| {
                scheduler.reset();
                let kernels: Vec<KernelReport> = program
                    .kernels
                    .iter()
                    .enumerate()
                    .map(|(kidx, compiled)| {
                        let analysis = &record.analyses[kidx * num_strategies + s];
                        let schedule = scheduler.schedule_kernel(compiled.ir.id, analysis);
                        let (input_density, output_density) = record.kernel_io[kidx];
                        KernelReport {
                            kernel_id: compiled.ir.id,
                            layer_id: compiled.ir.layer_id,
                            kind: compiled.ir.kind,
                            cycles: schedule.cycles(),
                            utilization: schedule.utilization,
                            decisions: analysis.decisions,
                            mix: analysis.mix,
                            input_density,
                            output_density,
                        }
                    })
                    .collect();
                let total_cycles = scheduler.total_cycles();
                let latency_ms = cycles_to_ms(total_cycles, freq);
                let decisions: usize = kernels.iter().map(|k| k.decisions).sum();
                let overhead = RuntimeOverhead::from_counts(
                    soft,
                    decisions,
                    scheduler.total_schedule_events(),
                    latency_ms * 1e-3,
                );
                StrategyRun {
                    strategy: analyzer.strategy(),
                    average_utilization: scheduler.average_utilization(),
                    kernels,
                    total_cycles,
                    latency_ms,
                    end_to_end_ms: compile_ms + data_movement_ms + latency_ms,
                    overhead,
                }
            })
            .collect();
        let request_index = self.requests_served;
        self.requests_served += 1;
        InferenceReport {
            request_index,
            data_movement_ms,
            feature_movement_ms,
            density_trace: DensityTrace {
                // Kernel 0 reads the layer input, so its recorded input
                // density is the request's (no second count of `features`).
                input_density: record.kernel_io[0].0,
                stages: std::mem::take(&mut record.stages),
            },
            runs,
            predicted_kernel_ms,
            output_embeddings: self.arena.output().clone(),
        }
    }

    /// Serves a batch of requests over the same plan, returning one report
    /// per request in order: a loop of [`Session::infer`]'s pass over the
    /// session's one arena, so every report — density trace, strategy
    /// pricing, `predicted_kernel_ms`, `request_index` — and every telemetry
    /// span is exactly what serving the requests one by one produces (proved
    /// by `tests/integration_batch.rs`).  An empty batch serves nothing and
    /// returns no report.  The serving runtime does not call this: a worker
    /// serves its requests one [`Session::infer`] at a time, so each has its
    /// own fault arming, timing and reply.
    ///
    /// **Every** request's shape is validated before **any** request runs:
    /// a shape-mismatched matrix anywhere in the batch fails the whole call
    /// up front ([`CompiledPlan::validate_request`] with
    /// `op = "session infer_batch"`) instead of erroring midway with earlier
    /// requests already served.  A request is checked for non-finite values,
    /// dense- or CSR-stored, by the pass that serves it (see
    /// [`Session::infer`]), so it fails the call when its turn comes.
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
    /// // A micro-batch of three requests.
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
            self.plan
                .get()
                .validate_request(features, "session infer_batch")?;
        }
        batch
            .iter()
            .map(|features| self.serve(features, "session infer_batch"))
            .collect()
    }

    /// A no-op — a batch runs through the session's one plan-sized arena —
    /// kept because the perf ledger (`crates/bench/src/bin/ledger`) calls it.
    pub fn reserve_batch(&mut self, _max_batch: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::planner::Planner;
    use dynasparse_graph::Dataset;
    use dynasparse_matrix::MatrixError;
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
            None => assert!(std::env::var_os("DYNASPARSE_CALIBRATION").is_some()),
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
                "a calibrated session must price the request"
            );
        }
        assert!(report.predicted_kernel_ms.is_finite());
        // Every request of a batch reports its own prediction, summed in
        // block order: equal requests agree bit for bit.
        let reports = session
            .infer_batch(&[features.clone(), features.clone()])
            .unwrap();
        let (a, b) = (
            reports[0].predicted_kernel_ms,
            reports[1].predicted_kernel_ms,
        );
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn drift_left_on_the_registry_changes_no_prediction_and_flushes_no_pricing() {
        use dynasparse_telemetry::{GaugeId, TelemetryLevel};
        let (plan, features) = plan_fixture();
        let mut session = plan.session(&[MappingStrategy::Dynamic]);
        let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
        session.set_telemetry(registry.clone());
        // What a sibling session on the same registry leaves behind: drift
        // gauges far outside 0.5–2.0, as if its GEMMs had run 16x and its
        // SpDMMs 4x over their predictions.  The gauges only observe, so the
        // fit, the predictions and the cached prices all stay as they were.
        registry.gauge_set(GaugeId::DriftGemm, 16.0);
        registry.gauge_set(GaugeId::DriftSpdmm, 4.0);
        let first = session.infer(&features).unwrap();
        let misses = registry.counter(CounterId::PricingMiss);
        assert!(misses > 0, "the first request prices from a cold cache");
        for _ in 0..2 {
            let again = session.infer(&features).unwrap();
            assert_eq!(
                again.predicted_kernel_ms.to_bits(),
                first.predicted_kernel_ms.to_bits(),
                "{} vs {}",
                again.predicted_kernel_ms,
                first.predicted_kernel_ms
            );
        }
        assert_eq!(
            registry.counter(CounterId::PricingMiss),
            misses,
            "repeated requests must hit the pricing cache"
        );
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
