//! The traced run: per-layer metrics of one workload.
//!
//! Three parts, all inside benchmark-owned spans (`trace.rs`):
//!
//! 1. the machine's roof (`roofline.rs`), measured in this process;
//! 2. a replay of the workload — a quarter-length slice with tracing on and
//!    as long again with tracing off, interleaved — whose registry deltas
//!    give the dispatch and pricing counts and whose two throughputs give
//!    the tracing overhead;
//! 3. probes: each layer's public functions called directly on this
//!    workload's inputs, timed in a box of `Scale::probe_ms` each.
//!
//! Counts are deltas of a [`Registry`] the run injects; the end-to-end run
//! never does, and end-to-end numbers never come from here.

use crate::load::{self, LoadShape};
use crate::metrics::Report;
use crate::roofline::{self, Machine};
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use crate::workloads::{
    self, account, drive, set_up, Inputs, Kind, Outcome, Scale, Stage, SERVE_MAX_BATCH,
};
use dynasparse::{
    CompiledPlan, CounterId, EngineOptions, GaugeId, MappingStrategy, ModelTemplate, OwnedSession,
    Planner, PricingCacheMode, Registry, TelemetryLevel,
};
use dynasparse_accel::ComputationCore;
use dynasparse_compiler::{compile_topology, KernelKind, StaticSparsity};
use dynasparse_graph::{FeatureMatrix, Graph, SampledSubgraph};
use dynasparse_matrix::ops::gemm_into;
use dynasparse_matrix::{
    BlockGrid, CalibrationConfig, CsrMatrix, DenseMatrix, DensityProfile, HostCalibration,
    SpGemmScratch,
};
use dynasparse_model::{KernelOp, ReferenceExecutor};
use dynasparse_runtime::{pricing, Analyzer, OperandProfiles, PricingCache, PricingKey, Scheduler};
use dynasparse_serve::{BoundedQueue, PlanCache, ServeReport, ServeRuntime};
use std::cell::Cell;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls of one probe: at least this many, …
const MIN_CALLS: usize = 3;
/// … and no more than this many, however short they are.
const MAX_CALLS: usize = 2_000;
/// Instantiated ego-nets the whole-request probes of an ego-net workload
/// rotate through (more than the pricing cache holds kernels for).
const EGO_ROTATION: u64 = 64;
/// Traced and untraced stretches the replay alternates between.
const REPLAY_STRETCHES: usize = 5;
/// Calls timed together where one call is too short for the clock.
const BATCHED_CALLS: u32 = 256;

/// Times calls into one layer, each inside a span.
struct Prober<'t> {
    tracer: &'t mut Tracer,
    time_box: Duration,
}

impl Prober<'_> {
    /// Calls `f` until the time box closes.  `f` marks the start and end of
    /// the part of itself that counts, so untimed preparation can precede
    /// it.  Returns the marked durations in microseconds.
    fn time_marked<R>(
        &mut self,
        name: &'static str,
        mut f: impl FnMut() -> (Instant, Instant, R),
    ) -> Samples {
        let mut durations = Vec::new();
        let opened = Instant::now();
        while durations.len() < MIN_CALLS
            || (opened.elapsed() < self.time_box && durations.len() < MAX_CALLS)
        {
            let (start, end, result) = f();
            self.tracer.record(name, start, end, None, None);
            black_box(result);
            durations.push((end - start).as_secs_f64() * 1e6);
        }
        Samples::new(durations)
    }

    /// [`Prober::time_marked`] with the whole call timed.
    fn time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> Samples {
        self.time_marked(name, || {
            let start = Instant::now();
            let result = f();
            (start, Instant::now(), result)
        })
    }

    /// For calls of tens of nanoseconds: one span covers [`BATCHED_CALLS`]
    /// calls.  Returns nanoseconds per call.
    fn time_batched<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> Samples {
        let per_batch = self.time(name, || {
            for _ in 0..BATCHED_CALLS {
                black_box(f());
            }
        });
        let per_call = |us: &f64| us * 1e3 / f64::from(BATCHED_CALLS);
        Samples::new(per_batch.values().iter().map(per_call).collect())
    }

    /// Times `a` and `b` in strict alternation inside one time box, so that a
    /// drift of the box lands on both.
    fn time_interleaved<R>(
        &mut self,
        name_a: &'static str,
        mut a: impl FnMut() -> (Instant, Instant, R),
        name_b: &'static str,
        mut b: impl FnMut() -> (Instant, Instant, R),
    ) -> (Samples, Samples) {
        let (mut us_a, mut us_b) = (Vec::new(), Vec::new());
        let opened = Instant::now();
        while us_a.len() < MIN_CALLS || (opened.elapsed() < self.time_box && us_a.len() < MAX_CALLS)
        {
            for (name, f, us) in [
                (name_a, &mut a as &mut dyn FnMut() -> _, &mut us_a),
                (name_b, &mut b as &mut dyn FnMut() -> _, &mut us_b),
            ] {
                let (start, end, result) = f();
                self.tracer.record(name, start, end, None, None);
                black_box(result);
                us.push((end - start).as_secs_f64() * 1e6);
            }
        }
        (Samples::new(us_a), Samples::new(us_b))
    }
}

/// Median of `samples` into `report`, scaled by `scale` (unit conversion).
fn set_median(report: &mut Report, name: &'static str, samples: &Samples, scale: f64) {
    report.set(name, samples.q(0.5) * scale, Some(samples.count()));
}

/// The registry counters the replay reads as deltas.
const COUNTERS: [CounterId; 8] = [
    CounterId::DispatchGemm,
    CounterId::DispatchSpdmm,
    CounterId::DispatchSpmm,
    CounterId::DispatchSkip,
    CounterId::Recalibrations,
    CounterId::PricingHit,
    CounterId::PricingMiss,
    CounterId::PricingEvict,
];

/// One reading (or an accumulated delta) of [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default)]
struct Counts([u64; COUNTERS.len()]);

impl Counts {
    fn read(registry: &Registry) -> Counts {
        Counts(COUNTERS.map(|id| registry.counter(id)))
    }

    /// Adds what was counted between `before` and now.
    fn add_since(&mut self, before: Counts, registry: &Registry) {
        let now = Counts::read(registry);
        for ((sum, now), before) in self.0.iter_mut().zip(now.0).zip(before.0) {
            *sum += now - before;
        }
    }

    fn get(&self, id: CounterId) -> f64 {
        let slot = COUNTERS.iter().position(|c| *c == id);
        self.0[slot.expect("counter is in COUNTERS")] as f64
    }
}

/// Where the trace of `workload` is written: `ledger-traces/` under the
/// cargo target directory this binary was built into (`<target>/<profile>/`
/// holds the executable), so traces land beside the build output wherever
/// `CARGO_TARGET_DIR` put it.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"));
    target
        .join("ledger-traces")
        .join(format!("{workload}.trace.json"))
}

/// The traced run of one workload.
pub fn run_traced(inputs: &Inputs, seconds: f64, scale: &Scale) -> Report {
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut tracer = Tracer::new(true);
    let mut report = Report::default();

    let machine = tracer.span("machine.roofline", None, None, || {
        roofline::measure(scale.probe_ms)
    });
    report.set("machine.fma_gflops", machine.fma_gflops, None);
    report.set("machine.triad_gbs", machine.triad_gbs, None);

    let replay = Replay::run(inputs, seconds, scale, &registry, &mut tracer, &mut report);

    let probes = Probes::new(inputs, scale, &registry, replay.plan.clone());
    let mut prober = Prober {
        tracer: &mut tracer,
        time_box: Duration::from_millis(scale.probe_ms),
    };
    probes.plan_acquisition(&mut prober, &mut report, &replay.traced);
    let direct_batch_rps = probes.requests(&mut prober, &mut report);
    probes.telemetry(&mut prober, &mut report);
    probes.matrix(&mut prober, &mut report, &machine);
    probes.model_and_runtime(&mut prober, &mut report);
    probes.serve(&mut prober, &mut report, &replay, direct_batch_rps);

    note_self_times(&mut report, &tracer, replay.traced.wall_s);
    let path = trace_path(inputs.def.name);
    match tracer.write_chrome_file(&path) {
        Ok(()) => report.note(format!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.violation(format!("cannot write {}: {e}", path.display())),
    }
    report
}

/// What the replay leaves for the probes.
struct Replay {
    /// The traced stretches, merged.
    traced: Outcome,
    /// Answered requests per second over the untraced stretches.
    untraced_rps: f64,
    /// The plan the replay served from (none for per-request topologies).
    plan: Option<Arc<CompiledPlan>>,
    /// The serve pool's own report, if the workload has a pool.
    serve: Option<ServeReport>,
}

impl Replay {
    /// Replays a quarter-length slice of the workload traced and as long
    /// again untraced, in alternating stretches so that a drift of the box
    /// (or of the system: recalibration, cache fill) lands on both sides of
    /// the overhead comparison, and reports what the registry counted.
    fn run(
        inputs: &Inputs,
        seconds: f64,
        scale: &Scale,
        registry: &Arc<Registry>,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Replay {
        let stretch = seconds / 4.0 / REPLAY_STRETCHES as f64;
        let mut stage = set_up(inputs, true, Some(registry), scale);
        let (mut untraced, mut traced) = (Outcome::default(), Outcome::default());
        let mut counts = Counts::default();
        let mut off = Tracer::new(false);
        for _ in 0..REPLAY_STRETCHES {
            let next = untraced.attempted() + traced.attempted();
            untraced.absorb(drive(inputs, &mut stage, stretch, next, scale, &mut off));
            let next = untraced.attempted() + traced.attempted();
            let before = Counts::read(registry);
            traced.absorb(drive(inputs, &mut stage, stretch, next, scale, tracer));
            counts.add_since(before, registry);
        }
        let drift = [GaugeId::DriftGemm, GaugeId::DriftSpdmm, GaugeId::DriftSpmm]
            .map(|gauge| registry.gauge(gauge));
        let plan = match &stage {
            Stage::Session { plan, .. } | Stage::Serve { plan, .. } => Some(Arc::clone(plan)),
            Stage::Egonet { .. } => None,
        };
        let serve = stage.tear_down();
        account(
            inputs,
            &[&untraced, &traced],
            serve.as_ref(),
            workloads::serve_warmup(scale),
            report,
        );

        let requests = traced.answered().max(1) as f64;
        let n = Some(traced.answered() as usize);
        for (name, id) in [
            ("model.dispatch_gemm", CounterId::DispatchGemm),
            ("model.dispatch_spdmm", CounterId::DispatchSpdmm),
            ("model.dispatch_spgemm", CounterId::DispatchSpmm),
            ("model.dispatch_skip", CounterId::DispatchSkip),
        ] {
            report.set(name, counts.get(id) / requests, n);
        }
        report.set(
            "model.recalibrations",
            counts.get(CounterId::Recalibrations),
            n,
        );
        report.set("model.drift_gemm", drift[0], None);
        report.set("model.drift_spdmm", drift[1], None);
        report.set("model.drift_spgemm", drift[2], None);
        let hits = counts.get(CounterId::PricingHit);
        let lookups = hits + counts.get(CounterId::PricingMiss);
        let looked = Some(lookups as usize);
        report.set("runtime.pricing_hit_ratio", hits / lookups.max(1.0), looked);
        report.set(
            "runtime.pricing_evictions",
            counts.get(CounterId::PricingEvict),
            looked,
        );
        report.set("bench.span_coverage", tracer.coverage("request"), n);
        report.set(
            "bench.trace_overhead_share",
            (untraced.rps() - traced.rps()) / untraced.rps().max(1e-9),
            n,
        );
        // The tail a caller saw, tracing off: no statistic of it repeats
        // within a bound on a shared box, so it is reported here, unbounded.
        let latencies = untraced.events.iter().filter_map(|e| e.latency_ms);
        let latencies = Samples::new(latencies.collect());
        report.set(
            "bench.latency_p95_ms",
            latencies.q(0.95),
            Some(latencies.count()),
        );
        let lag = Samples::new(traced.lag_ms.clone());
        report.set("bench.generator_lag_p99_ms", lag.q(0.99), Some(lag.count()));
        Replay {
            untraced_rps: untraced.rps(),
            traced,
            plan,
            serve,
        }
    }
}

/// What the probes call the layers with: this workload's inputs, plus a
/// fixed topology to hold still where a probe needs one.
struct Probes<'a> {
    inputs: &'a Inputs,
    scale: &'a Scale,
    registry: &'a Arc<Registry>,
    template: Arc<ModelTemplate>,
    /// A typical ego-net of the workload's graph (the median-sized of the
    /// first few) and its features: what plan-acquisition probes instantiate.
    ego: SampledSubgraph,
    ego_features: [FeatureMatrix; 1],
    /// The fixed-topology plan: the workload's own, or for an ego-net
    /// workload (which has none) the typical ego-net's.
    plan: Arc<CompiledPlan>,
    /// Instantiated ego-nets whole-request probes of an ego-net workload
    /// rebind through, as the workload does; empty for fixed topologies.
    rotation: Vec<(Arc<CompiledPlan>, FeatureMatrix)>,
}

impl<'a> Probes<'a> {
    fn new(
        inputs: &'a Inputs,
        scale: &'a Scale,
        registry: &'a Arc<Registry>,
        replay_plan: Option<Arc<CompiledPlan>>,
    ) -> Probes<'a> {
        let template = ModelTemplate::compile_shared(&inputs.model, EngineOptions::default())
            .expect("generated model is valid");
        let instantiate = |sub: &SampledSubgraph, features: &FeatureMatrix| {
            template
                .instantiate(sub.graph(), features)
                .expect("sampled ego-net is a valid request")
                .into_plan()
        };
        let mut egos: Vec<_> = (0..15).map(|i| inputs.sample_egonet(i)).collect();
        egos.sort_by_key(SampledSubgraph::num_vertices);
        let ego = egos.swap_remove(egos.len() / 2);
        let ego_features = [ego.extract_features(&inputs.parent.features)];
        let plan = replay_plan.unwrap_or_else(|| instantiate(&ego, &ego_features[0]));
        let rotation = match inputs.def.kind {
            Kind::Egonet => (1..=EGO_ROTATION)
                .map(|i| {
                    let sub = inputs.sample_egonet(i);
                    let features = sub.extract_features(&inputs.parent.features);
                    (instantiate(&sub, &features), features)
                })
                .collect(),
            _ => Vec::new(),
        };
        Probes {
            inputs,
            scale,
            registry,
            template,
            ego,
            ego_features,
            plan,
            rotation,
        }
    }

    /// The graph of the fixed topology.
    fn graph(&self) -> &Graph {
        match self.inputs.def.kind {
            Kind::Egonet => self.ego.graph(),
            _ => &self.inputs.parent.graph,
        }
    }

    /// The requests of the fixed topology.
    fn fixed_requests(&self) -> &[FeatureMatrix] {
        match self.inputs.def.kind {
            Kind::Egonet => &self.ego_features,
            _ => &self.inputs.requests,
        }
    }

    /// The strategies pricing probes use: the workload's, or `[Dynamic]`
    /// where it prices nothing (its pricing layer is still measured).
    fn priced(&self) -> &[MappingStrategy] {
        if self.inputs.strategies.is_empty() {
            &[MappingStrategy::Dynamic]
        } else {
            &self.inputs.strategies
        }
    }

    /// A warmed session over the fixed plan, publishing into `registry`.
    fn open_session(
        &self,
        strategies: &[MappingStrategy],
        registry: &Arc<Registry>,
    ) -> OwnedSession {
        let mut session = self.plan.session_shared(strategies);
        session.set_telemetry(Arc::clone(registry));
        for _ in 0..self.scale.warmup {
            session
                .infer(&self.fixed_requests()[0])
                .expect("probe request");
        }
        session
    }

    /// Serves the `turn`-th request of the workload through `session`, timing
    /// `infer` alone: an ego-net workload's session is first rebound to the
    /// next rotating ego-net, as the workload itself does per request.
    fn infer_turn(
        &self,
        session: &mut OwnedSession,
        turn: &Cell<usize>,
    ) -> (Instant, Instant, bool) {
        let next = turn.get() + 1;
        turn.set(next);
        let features = match self.rotation.get(next % self.rotation.len().max(1)) {
            Some((plan, features)) => {
                session.rebind(Arc::clone(plan));
                features
            }
            None => &self.fixed_requests()[next % self.fixed_requests().len()],
        };
        let start = Instant::now();
        let answered = session.infer(features).is_ok();
        (start, Instant::now(), answered)
    }

    /// graph + compiler + core: what acquiring a plan for a sampled ego-net
    /// of this workload's graph costs, next to planning the whole graph.
    fn plan_acquisition(&self, prober: &mut Prober<'_>, report: &mut Report, traced: &Outcome) {
        let inputs = self.inputs;
        let (ego, ego_features) = (&self.ego, &self.ego_features[0]);
        let mut index = 0u64;
        let mut vertices = Vec::new();
        let sample = prober.time("graph.sample", || {
            index += 1;
            let sub = inputs.sample_egonet(index);
            vertices.push(sub.num_vertices() as f64);
            sub
        });
        set_median(report, "graph.sample_us", &sample, 1.0);
        // An ego-net workload reports the ego-nets it actually served.
        if !traced.subgraph_vertices.is_empty() {
            vertices.clone_from(&traced.subgraph_vertices);
        }
        report.set(
            "graph.subgraph_vertices",
            vertices.iter().sum::<f64>() / vertices.len().max(1) as f64,
            Some(vertices.len()),
        );
        let compiler_config = EngineOptions::default().compiler;
        let topology = prober.time("compiler.compile_topology", || {
            compile_topology(&inputs.model, ego.graph(), ego_features, &compiler_config)
        });
        set_median(report, "compiler.topology_us", &topology, 1.0);
        let planned = prober.time("core.plan", || {
            Planner::default().plan(&inputs.model, &inputs.parent)
        });
        set_median(report, "core.plan_ms", &planned, 1e-3);
        let compiled = prober.time("core.template_compile", || {
            ModelTemplate::compile(&inputs.model, EngineOptions::default())
        });
        set_median(report, "core.template_compile_ms", &compiled, 1e-3);
        let instantiate = prober.time("core.instantiate", || {
            self.template.instantiate(ego.graph(), ego_features)
        });
        set_median(report, "core.instantiate_us", &instantiate, 1.0);
        let mut pooled = self.plan.session_shared(self.priced());
        let rebind = prober.time_marked("core.rebind", || {
            let instance = self
                .template
                .instantiate(ego.graph(), ego_features)
                .expect("probe topology is a valid request")
                .into_plan();
            let start = Instant::now();
            pooled.rebind(instance);
            (start, Instant::now(), ())
        });
        set_median(report, "core.rebind_us", &rebind, 1.0);
        let opened = prober.time("core.session_open", || {
            self.plan.session_shared(&inputs.strategies)
        });
        set_median(report, "core.session_open_ms", &opened, 1e-3);
    }

    /// core + runtime: a request without and with pricing, and a fused batch
    /// of eight.  Returns the direct batch loop's requests per second.
    fn requests(&self, prober: &mut Prober<'_>, report: &mut Report) -> f64 {
        let strategies = &self.inputs.strategies;
        let mut embed_session = self.open_session(&[], self.registry);
        let mut priced_session = self.open_session(strategies, self.registry);
        let turn = Cell::new(0);
        let (embed, priced) = if strategies.is_empty() {
            // With no strategy priced, the priced request *is* the
            // embeddings-only request: the share is exactly zero.
            let embed = prober.time_marked("core.infer_embed", || {
                self.infer_turn(&mut embed_session, &turn)
            });
            (embed.clone(), embed)
        } else {
            prober.time_interleaved(
                "core.infer_embed",
                || self.infer_turn(&mut embed_session, &turn),
                "core.infer_priced",
                || self.infer_turn(&mut priced_session, &turn),
            )
        };
        set_median(report, "core.infer_embed_us", &embed, 1.0);
        set_median(report, "core.infer_priced_us", &priced, 1.0);
        report.set(
            "runtime.pricing_share",
            (priced.q(0.5) - embed.q(0.5)) / priced.q(0.5).max(1e-9),
            Some(priced.count()),
        );

        let requests = self.fixed_requests();
        let batch: Vec<FeatureMatrix> = (0..SERVE_MAX_BATCH)
            .map(|i| requests[i % requests.len()].clone())
            .collect();
        if !self.rotation.is_empty() {
            priced_session.rebind(Arc::clone(&self.plan));
        }
        priced_session.reserve_batch(batch.len());
        priced_session.infer_batch(&batch).expect("probe batch");
        let batched = prober.time("core.infer_batch8", || priced_session.infer_batch(&batch));
        let per_request = 1.0 / batch.len() as f64;
        set_median(
            report,
            "core.infer_batch8_us_per_req",
            &batched,
            per_request,
        );
        1e6 * batch.len() as f64 / batched.q(0.5).max(1e-9)
    }

    /// telemetry: the same priced request under a counting and a silent
    /// registry, and a snapshot.
    fn telemetry(&self, prober: &mut Prober<'_>, report: &mut Report) {
        let silent = Arc::new(Registry::new(TelemetryLevel::Off));
        let mut counting_session = self.open_session(self.priced(), self.registry);
        let mut silent_session = self.open_session(self.priced(), &silent);
        let turn = Cell::new(0);
        let (counting, silent_run) = prober.time_interleaved(
            "telemetry.infer_counters",
            || self.infer_turn(&mut counting_session, &turn),
            "telemetry.infer_off",
            || self.infer_turn(&mut silent_session, &turn),
        );
        report.set(
            "telemetry.overhead_share",
            (counting.q(0.5) - silent_run.q(0.5)) / counting.q(0.5).max(1e-9),
            Some(counting.count()),
        );
        let snapshot = prober.time("telemetry.snapshot", || self.registry.snapshot());
        set_median(report, "telemetry.snapshot_us", &snapshot, 1.0);
    }

    /// The profiling grid a session fits for a kernel of `kind` whose input
    /// is `width` wide.
    fn kernel_grid(&self, kind: KernelKind, width: usize) -> BlockGrid {
        let (spec, vertices) = (self.plan.partition(), self.plan.num_vertices());
        match kind {
            KernelKind::Aggregate => spec.feature_grid(vertices, width),
            KernelKind::Update => spec.subfiber_grid(vertices, width),
        }
    }

    /// matrix: calibration, a request's profile and format change, and the
    /// three primitives on the layer-0 operand shapes.
    fn matrix(&self, prober: &mut Prober<'_>, report: &mut Report, machine: &Machine) {
        let calibrated = prober.time("matrix.calibrate", || {
            HostCalibration::measure(&CalibrationConfig::default())
        });
        set_median(report, "matrix.calibrate_ms", &calibrated, 1e-3);
        let requests = self.fixed_requests();
        let first_kernel = self.plan.program().kernels[0].ir.kind;
        let grid = self.kernel_grid(first_kernel, self.plan.input_dim());
        let mut profile = DensityProfile::default();
        let mut turn = 0usize;
        let profiled = prober.time("matrix.density_profile", || {
            turn += 1;
            requests[turn % requests.len()].density_profile_into(&grid, &mut profile)
        });
        set_median(report, "matrix.profile_us", &profiled, 1.0);
        let x_dense = requests[0].to_dense();
        let d2s = prober.time("matrix.csr_from_dense", || CsrMatrix::from_dense(&x_dense));
        set_median(report, "matrix.d2s_us", &d2s, 1.0);
        let first_update = self.inputs.model.layers[0]
            .kernels
            .iter()
            .find_map(|k| match k.op {
                KernelOp::Update { weight } => Some(weight),
                KernelOp::Aggregate { .. } => None,
            })
            .expect("every layer has an Update kernel");
        let w_dense = &self.inputs.model.weights[first_update];
        primitive_metrics(prober, report, machine, &x_dense, w_dense);
    }

    /// model + runtime: the oracle, one cold pricing pass (every kernel,
    /// every strategy), the key hash and a warm cache lookup.
    fn model_and_runtime(&self, prober: &mut Prober<'_>, report: &mut Report) {
        let requests = self.fixed_requests();
        let oracle = ReferenceExecutor::new(&self.inputs.model, self.graph());
        let mut turn = 0usize;
        let forward = prober.time("model.reference_forward", || {
            turn += 1;
            oracle.forward(&requests[turn % requests.len()])
        });
        set_median(report, "model.reference_forward_us", &forward, 1.0);

        // The profile every kernel's input has on request 0, fitted the way
        // a session fits it.
        let program = self.plan.program();
        let mut kernel_profiles: Vec<DensityProfile> = Vec::with_capacity(program.kernels.len());
        oracle
            .forward_with(&requests[0], |_, _, _, input, _| {
                let kernel = &program.kernels[kernel_profiles.len()];
                let grid = self.kernel_grid(kernel.ir.kind, input.dim());
                kernel_profiles.push(input.density_profile(&grid));
            })
            .expect("probe request");
        let accelerator = self.plan.options().accelerator;
        let statics = &program.static_sparsity;
        let priced = self.priced();
        let analyze = prober.time("runtime.analyze", || {
            for &strategy in priced {
                let analyzer = Analyzer::new(ComputationCore::new(accelerator), strategy);
                let mut scheduler = Scheduler::new(accelerator.num_cores);
                for (kernel, features) in program.kernels.iter().zip(&kernel_profiles) {
                    let analysis = analyzer.analyze_kernel(kernel, &operands(statics, features));
                    black_box(scheduler.schedule_kernel(kernel.ir.id, &analysis));
                }
            }
        });
        set_median(report, "runtime.analyze_us", &analyze, 1.0);

        let calibration =
            pricing::calibration_fingerprint(self.plan.calibration().map(Arc::as_ref));
        let statics_print = pricing::statics_fingerprint(&statics.adjacency, &statics.weights);
        let make_key = || {
            PricingKey::base(
                calibration,
                statics_print,
                0,
                PricingCacheMode::Bucketed,
                &kernel_profiles[0],
            )
            .with_strategy(priced[0])
        };
        let key = prober.time("runtime.pricing_key", make_key);
        set_median(report, "runtime.key_ns", &key, 1e3);
        let mut cache = PricingCache::with_capacity(256);
        let warm_key = make_key();
        let analysis = Analyzer::new(ComputationCore::new(accelerator), priced[0])
            .analyze_kernel(&program.kernels[0], &operands(statics, &kernel_profiles[0]));
        cache.insert(warm_key, Arc::new(analysis));
        let lookup = prober.time_batched("runtime.pricing_cache_get", || cache.get(&warm_key));
        set_median(report, "runtime.cache_get_ns", &lookup, 1.0);
    }

    /// serve: the queue and the plan cache on their own, then the pool under
    /// load.  A workload that is itself a serve workload reports its own
    /// replay; the others get a short saturated stint over their requests.
    /// Serving efficiency always compares a *saturated* pool with the direct
    /// batch loop.
    fn serve(
        &self,
        prober: &mut Prober<'_>,
        report: &mut Report,
        replay: &Replay,
        direct_batch_rps: f64,
    ) {
        let queue = BoundedQueue::<u64>::new(SERVE_MAX_BATCH);
        let queue_op = prober.time_batched("serve.queue_push_pop", || {
            for item in 0..SERVE_MAX_BATCH as u64 {
                queue.push(item).expect("queue has room");
            }
            queue.pop_batch(SERVE_MAX_BATCH, Duration::ZERO)
        });
        let per_item = 1.0 / SERVE_MAX_BATCH as f64;
        set_median(report, "serve.queue_op_ns", &queue_op, per_item);
        let (model, parent) = (&self.inputs.model, &self.inputs.parent);
        let mut plan_cache = PlanCache::new(Planner::default(), 2);
        plan_cache
            .get_or_plan(model, parent)
            .expect("generated model and graph agree");
        let cache_hit = prober.time("serve.plan_cache_hit", || {
            plan_cache.get_or_plan(model, parent)
        });
        set_median(report, "serve.plan_cache_hit_us", &cache_hit, 1.0);

        let stint_budget = prober.time_box * 10;
        let stint = |tracer: &mut Tracer| {
            let config = self.inputs.serve_config(Some(self.registry));
            let runtime = ServeRuntime::start(Arc::clone(&self.plan), config);
            let outcome = load::drive_serve(
                self.fixed_requests(),
                &runtime,
                LoadShape::Saturated,
                stint_budget,
                0,
                tracer,
            );
            (outcome, runtime.shutdown())
        };
        let saturated_rps = match (self.inputs.def.kind, &replay.serve) {
            (Kind::ServeSaturated, Some(serve)) => {
                serve_metrics(report, prober.tracer, &replay.traced, serve);
                replay.untraced_rps
            }
            (Kind::ServePaced, Some(serve)) => {
                serve_metrics(report, prober.tracer, &replay.traced, serve);
                stint(&mut Tracer::new(false)).0.rps()
            }
            _ => {
                let mut stint_tracer = prober.tracer.fork(2);
                let (outcome, serve) = stint(&mut stint_tracer);
                serve_metrics(report, &stint_tracer, &outcome, &serve);
                prober.tracer.absorb(stint_tracer);
                outcome.rps()
            }
        };
        report.set(
            "serve.efficiency",
            saturated_rps / direct_batch_rps.max(1e-9),
            None,
        );
    }
}

/// The operands of one kernel's pricing: the plan's static profiles plus the
/// kernel's runtime feature profile.
fn operands<'p>(statics: &'p StaticSparsity, features: &'p DensityProfile) -> OperandProfiles<'p> {
    OperandProfiles {
        adjacency: &statics.adjacency,
        weights: &statics.weights,
        features,
    }
}

/// Serve-side numbers of one load stint, from the client's spans and the
/// runtime's own report.
fn serve_metrics(report: &mut Report, tracer: &Tracer, outcome: &Outcome, serve: &ServeReport) {
    let submits = Samples::new(tracer.durations_us("serve.submit"));
    set_median(report, "serve.submit_us", &submits, 1.0);
    let waits = Some(serve.queue_wait.count);
    report.set("serve.queue_wait_p50_ms", serve.queue_wait.p50_ms, waits);
    report.set("serve.queue_wait_p99_ms", serve.queue_wait.p99_ms, waits);
    let served = Some(serve.service.count);
    report.set("serve.service_p50_ms", serve.service.p50_ms, served);
    let batches = Some(serve.batches as usize);
    report.set("serve.mean_batch", serve.mean_batch_size(), batches);
    let turnaround = Samples::new(outcome.events.iter().filter_map(|e| e.latency_ms).collect());
    let n = Some(turnaround.count());
    report.set("serve.turnaround_p95_ms", turnaround.q(0.95), n);
    report.set("serve.turnaround_p99_ms", turnaround.q(0.99), n);
    let sent = Some(outcome.events.len());
    report.set("serve.refused", outcome.refused as f64, sent);
}

/// GFLOP/s, bytes moved and fraction of the roof for the three primitives on
/// `x · w`.  Operation counts and bytes are computed from the operand sizes
/// (dense: every element; CSR: stored entries and index arrays), not counted
/// by hardware.
fn primitive_metrics(
    prober: &mut Prober<'_>,
    report: &mut Report,
    machine: &Machine,
    x_dense: &DenseMatrix,
    w_dense: &DenseMatrix,
) {
    let (x_csr, w_csr) = (
        CsrMatrix::from_dense(x_dense),
        CsrMatrix::from_dense(w_dense),
    );
    let (m, n, d) = (x_dense.rows(), x_dense.cols(), w_dense.cols());
    let f32s = std::mem::size_of::<f32>();
    let mut out = DenseMatrix::zeros(m, d);

    // The dense kernel skips left-operand zeros, so it executes as many
    // multiply-adds as SpDMM does; what differs is the bytes it must scan.
    let gemm = prober.time("matrix.gemm", || gemm_into(x_dense, w_dense, &mut out));
    let gemm_flops = 2.0 * (x_csr.nnz() * d) as f64;
    let gemm_bytes = (f32s * (m * n + n * d + m * d)) as f64;

    let spdmm = prober.time("matrix.spdmm", || x_csr.spmm_dense_into(w_dense, &mut out));
    let spdmm_flops = 2.0 * (x_csr.nnz() * d) as f64;
    let spdmm_bytes = (x_csr.size_bytes() + f32s * (n * d + m * d)) as f64;

    let mut scratch = SpGemmScratch::new();
    let mut product_bytes = 0usize;
    let spgemm = prober.time("matrix.spgemm", || {
        let product = x_csr
            .spgemm_with(&w_csr, &mut scratch)
            .expect("operand shapes agree");
        product_bytes = product.size_bytes();
        scratch.reclaim(product.into_parts());
    });
    let spgemm_macs: usize = x_csr
        .col_idx()
        .iter()
        .map(|&k| w_csr.row_nnz(k as usize))
        .sum();
    let spgemm_flops = 2.0 * spgemm_macs as f64;
    let spgemm_bytes = (x_csr.size_bytes() + w_csr.size_bytes() + product_bytes) as f64;

    for (names, samples, flops, bytes) in [
        (
            [
                "matrix.gemm_gflops",
                "matrix.gemm_bytes",
                "matrix.gemm_roof_frac",
            ],
            &gemm,
            gemm_flops,
            gemm_bytes,
        ),
        (
            [
                "matrix.spdmm_gflops",
                "matrix.spdmm_bytes",
                "matrix.spdmm_roof_frac",
            ],
            &spdmm,
            spdmm_flops,
            spdmm_bytes,
        ),
        (
            [
                "matrix.spgemm_gflops",
                "matrix.spgemm_bytes",
                "matrix.spgemm_roof_frac",
            ],
            &spgemm,
            spgemm_flops,
            spgemm_bytes,
        ),
    ] {
        let seconds = samples.q(0.5) * 1e-6;
        let n = Some(samples.count());
        report.set(names[0], roofline::gflops(flops, seconds), n);
        report.set(names[1], bytes, None);
        report.set(names[2], machine.roof_fraction(flops, bytes, seconds), n);
    }
}

/// Notes where the run's wall clock went, by span self time.
fn note_self_times(report: &mut Report, tracer: &Tracer, replay_wall_s: f64) {
    report.note(format!(
        "self time by span, replay and probes (the traced replay took {replay_wall_s:.3} s):"
    ));
    for (name, ns, count) in tracer.self_time_by_name().into_iter().take(14) {
        report.note(format!(
            "  {name:<28} {:>10.3} ms  {count:>7} spans  median {:>10.3} us",
            ns as f64 / 1e6,
            stats::median(&tracer.durations_us(name)),
        ));
    }
}
