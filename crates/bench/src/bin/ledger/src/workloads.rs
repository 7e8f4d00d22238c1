//! The seven workloads: seeded inputs, set-up, the measured loop, and the
//! output check.
//!
//! Everything here drives the system from outside, through the public
//! functions of the layers.  The same loops serve the end-to-end run (tracer
//! off) and the traced run (tracer on, registry injected).

use crate::load::{self, LoadShape};
use crate::metrics::{Report, LATENCY_LIMIT_MS};
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use dynasparse::{
    CompiledPlan, EngineOptions, MappingStrategy, ModelTemplate, OwnedSession, Planner, Registry,
};
use dynasparse_graph::generators::{dense_features, power_law_graph, PowerLawConfig};
use dynasparse_graph::{Dataset, FeatureMatrix, Graph, GraphDataset, NeighborSampler};
use dynasparse_matrix::{CalibrationConfig, CsrMatrix, HostCalibration};
use dynasparse_model::{prune_model, GnnModel, GnnModelKind, ReferenceExecutor};
use dynasparse_serve::{ServeConfig, ServeReport, ServeRuntime};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload puts load on the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `Session` over a fixed topology, closed loop of `infer` calls.
    Session,
    /// Per-request topology: sample → extract → instantiate → rebind →
    /// infer, closed loop.
    Egonet,
    /// `ServeRuntime`, open loop: Poisson arrivals at a fixed rate.
    ServePaced,
    /// `ServeRuntime`, closed loop: one client keeps the queue full.
    ServeSaturated,
}

/// A workload's name and the reason it is in the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why it was chosen (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// How it loads the system.
    pub kind: Kind,
    /// Whether `BENCHMARK.json` lists it, so that the driver runs it and
    /// holds later changes to its bounds.  The contract's time limit pays
    /// for four 27-second workloads; the other three run with `ledger` and
    /// `ledger repeat` all the same (README: "What the driver gates").
    pub gated: bool,
    /// Length of the time windows its measured loop is cut into, seconds;
    /// each end-to-end timing is the best window's ([`stats::Windowed`]).
    /// Short enough that a quiet moment of the box fills one, long enough
    /// to hold a fair mix of the workload's requests.
    pub window_s: f64,
}

/// The workload set, in the order the ledger runs it.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "fullgraph_dense_in",
        why: "Paper headline: Cora GCN-16 over dense-stored 1.27%-dense features; time goes to scanning a mostly-zero dense operand (matrix/model), pricing all hits, serve unused.",
        kind: Kind::Session,
        gated: true,
        window_s: 0.05,
    },
    WorkloadDef {
        name: "fullgraph_csr_in",
        why: "Same graph, model and densities with CSR-stored features: the CSR profile and SpDMM/Gustavson paths; a change that helps one storage format at the other's cost shows here.",
        kind: Kind::Session,
        gated: false,
        window_s: 0.05,
    },
    WorkloadDef {
        name: "egonet_stream",
        why: "Per-request topology (sample, instantiate, rebind) on ~15-vertex ego-nets, GraphSAGE-128: plan acquisition is on the request path and kernels are tiny, so a kernel speed-up must not move it.",
        kind: Kind::Egonet,
        gated: false,
        window_s: 0.05,
    },
    WorkloadDef {
        name: "pruned_wide",
        why: "Power-law graph, GIN with 90%-pruned weights, 50%-dense features, no strategies priced: compute-bound mid-density GEMM/SpDMM; pricing does nothing, so a pricing change must not move it.",
        kind: Kind::Session,
        gated: true,
        window_s: 0.05,
    },
    WorkloadDef {
        name: "pricing_churn",
        why: "All three paper strategies over 256 feature matrices with log-uniform density: the key working set exceeds the pricing cache, so Analyzer/Scheduler/PricingCache do most of the work.",
        kind: Kind::Session,
        gated: true,
        window_s: 0.25,
    },
    WorkloadDef {
        name: "serve_paced",
        why: "ServeRuntime, open loop, Poisson arrivals at a fixed 300 req/s of fullgraph_csr_in requests: what a caller sees at moderate load (queue wait, batch formation, ticket resolve).",
        kind: Kind::ServePaced,
        gated: true,
        window_s: 0.05,
    },
    WorkloadDef {
        name: "serve_saturated",
        why: "Same runtime, closed loop keeping the bounded queue full: mean batch near 8, so infer_batch fusion, the shared pricing tier and queue contention do the work serve_paced bypasses.",
        kind: Kind::ServeSaturated,
        gated: false,
        window_s: 0.1,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes and repetition counts: full size, or tiny for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fraction of Cora's published vertex count.
    pub cora_scale: f64,
    /// Rotating request matrices of the fixed-topology workloads.
    pub rotating: usize,
    /// Distinct request matrices of `pricing_churn`.
    pub churn_matrices: usize,
    /// `(vertices, edges)` of the `pruned_wide` graph.
    pub wide_graph: (usize, usize),
    /// How many times a run sets the system up (the fastest is reported).
    pub setups: usize,
    /// Warm-up requests after each set-up.
    pub warmup: usize,
    /// Offered rate of `serve_paced`, requests per second.
    pub paced_rps: f64,
    /// Time box of one layer probe, milliseconds.
    pub probe_ms: u64,
}

impl Scale {
    /// The scale the benchmark contract measures at.
    pub const FULL: Scale = Scale {
        cora_scale: 1.0,
        rotating: 8,
        churn_matrices: 256,
        wide_graph: (2048, 32_768),
        setups: 16,
        warmup: 4,
        paced_rps: 300.0,
        probe_ms: 100,
    };

    /// Tiny counts: every code path in a few seconds, numbers meaningless.
    pub const SMOKE: Scale = Scale {
        cora_scale: 0.08,
        rotating: 2,
        churn_matrices: 12,
        wide_graph: (192, 1_536),
        setups: 1,
        warmup: 2,
        paced_rps: 200.0,
        probe_ms: 1,
    };
}

/// Serve pool size; the benchmark box has two cores.
pub const SERVE_WORKERS: usize = 2;
/// Micro-batch cap of both serve workloads.
pub const SERVE_MAX_BATCH: usize = 8;
/// Queue capacity of `serve_paced` (never reached at half saturation).
const PACED_QUEUE: usize = 256;
/// Queue capacity — and so the client's window — of `serve_saturated`:
/// deep enough for every worker to drain full batches, shallow enough that
/// a request's turnaround stays under the latency limit.
const SATURATED_QUEUE: usize = 8;
/// Neighbor-sampling fan-outs of the ego-net requests.
pub const FANOUTS: [usize; 2] = [10, 5];
/// Consecutive `pricing_churn` requests that together span the whole density
/// ladder.
const CHURN_BLOCK: usize = 16;
/// Root pairs the ego-net stream rotates through.
const ROOT_PAIRS: usize = 4096;

/// Everything a workload feeds the system, generated from the seed alone.
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub def: &'static WorkloadDef,
    /// The seed they were generated from.
    pub seed: u64,
    /// The graph requests run over (for ego-nets: sample from), with the
    /// features the plan's static profile is compiled against.
    pub parent: GraphDataset,
    /// The model served.
    pub model: GnnModel,
    /// Strategies priced on every request.
    pub strategies: Vec<MappingStrategy>,
    /// Full-graph request matrices the loop rotates through.
    pub requests: Vec<FeatureMatrix>,
    /// Root pairs ego-net sampling rotates through.
    pub roots: Vec<[u32; 2]>,
}

impl Inputs {
    /// Generates `def`'s inputs; the same seed gives the same inputs.
    pub fn generate(def: &'static WorkloadDef, seed: u64, scale: &Scale) -> Inputs {
        let cora = || Dataset::Cora.spec().generate_scaled(seed, scale.cora_scale);
        // Cora's published input feature density; requests keep it.
        let cora_density = Dataset::Cora.spec().feature_density;
        let gcn = |ds: &GraphDataset| {
            GnnModel::standard(
                GnnModelKind::Gcn,
                ds.features.dim(),
                16,
                ds.spec.num_classes,
                seed ^ 0x6c6e,
            )
        };
        let csr_requests = |ds: &GraphDataset, count: usize, density: &dyn Fn(usize) -> f64| {
            (0..count)
                .map(|i| {
                    csr_features(
                        ds.num_vertices(),
                        ds.features.dim(),
                        density(i),
                        seed ^ (0xC5A0 + i as u64),
                    )
                })
                .collect::<Vec<_>>()
        };
        let (parent, model, strategies, requests) = match def.name {
            "fullgraph_dense_in" => {
                let ds = cora();
                let requests = (0..scale.rotating)
                    .map(|i| {
                        dense_features(
                            ds.num_vertices(),
                            ds.features.dim(),
                            cora_density,
                            seed ^ (0xDE00 + i as u64),
                        )
                    })
                    .collect();
                let model = gcn(&ds);
                (ds, model, vec![MappingStrategy::Dynamic], requests)
            }
            "fullgraph_csr_in" | "serve_paced" | "serve_saturated" => {
                let ds = cora();
                let requests = csr_requests(&ds, scale.rotating, &|_| cora_density);
                let model = gcn(&ds);
                (ds, model, vec![MappingStrategy::Dynamic], requests)
            }
            "egonet_stream" => {
                let ds = cora();
                let model = GnnModel::standard(
                    GnnModelKind::GraphSage,
                    ds.features.dim(),
                    128,
                    ds.spec.num_classes,
                    seed ^ 0x5a6e,
                );
                // Probes that need a full-graph request use the parent's own
                // feature matrix.
                let requests = vec![ds.features.clone()];
                (ds, model, vec![MappingStrategy::Dynamic], requests)
            }
            "pruned_wide" => {
                let (num_vertices, num_edges) = scale.wide_graph;
                let graph = power_law_graph(
                    "pruned-wide",
                    &PowerLawConfig {
                        num_vertices,
                        num_edges,
                        exponent: 2.2,
                        seed,
                    },
                );
                let requests: Vec<FeatureMatrix> = (0..scale.rotating.min(4))
                    .map(|i| dense_features(num_vertices, 128, 0.5, seed ^ (0x91D0 + i as u64)))
                    .collect();
                let model = prune_model(
                    &GnnModel::standard(GnnModelKind::Gin, 128, 64, 16, seed ^ 0x9150),
                    0.9,
                );
                // `spec` is descriptive metadata; planning reads only the
                // graph and the features.
                let ds = GraphDataset {
                    spec: Dataset::Cora.spec(),
                    scale: 1.0,
                    graph,
                    features: requests[0].clone(),
                };
                (ds, model, Vec::new(), requests)
            }
            "pricing_churn" => {
                let ds = cora();
                // Log-uniform in 0.002..0.2, so half-octave bucket keys keep
                // changing from one request to the next.  The densities are
                // an even log-spaced ladder rather than independent draws, so
                // every seed does the same total work, and the ladder is
                // dealt out in blocks of 16 that each span it end to end:
                // rung `k` of block `b` is step `(b + 7k) mod blocks` of the
                // ladder's `k`-th sixteenth, so every block also holds one
                // step from each position inside a sixteenth (7 is coprime
                // with the full scale's 16 blocks) and the blocks weigh the
                // same.  The order inside
                // a block is seeded.  Every window of the loop so sees the
                // same mix of cheap and dear requests.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
                let steps = scale.churn_matrices;
                let blocks = steps.div_ceil(CHURN_BLOCK);
                let mut densities = Vec::with_capacity(steps);
                for block in 0..blocks {
                    let from = densities.len();
                    densities.extend(
                        (0..CHURN_BLOCK)
                            .map(|k| k * blocks + (block + 7 * k) % blocks)
                            .filter(|&step| step < steps)
                            .map(|step| 0.002 * 100f64.powf((step as f64 + 0.5) / steps as f64)),
                    );
                    for i in (from + 1..densities.len()).rev() {
                        densities.swap(i, rng.gen_range(from..=i));
                    }
                }
                let requests = csr_requests(&ds, scale.churn_matrices, &|i| densities[i]);
                let model = gcn(&ds);
                (
                    ds,
                    model,
                    MappingStrategy::paper_strategies().to_vec(),
                    requests,
                )
            }
            other => unreachable!("workload {other} has no input generator"),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2007);
        let n = parent.num_vertices() as u32;
        let roots = (0..ROOT_PAIRS)
            .map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)])
            .collect();
        Inputs {
            def,
            seed,
            parent,
            model,
            strategies,
            requests,
            roots,
        }
    }

    /// The `i`-th ego-net request: sampled subgraph and its features.
    pub fn sample_egonet(&self, i: u64) -> dynasparse_graph::SampledSubgraph {
        let roots = self.roots[i as usize % self.roots.len()];
        NeighborSampler::new(FANOUTS, self.seed ^ i).sample(&self.parent.graph, &roots)
    }

    /// The serve configuration of a serve workload (or of the serve probe
    /// the traced run makes for the others).
    pub fn serve_config(&self, registry: Option<&Arc<Registry>>) -> ServeConfig {
        let queue = match self.def.kind {
            Kind::ServePaced => PACED_QUEUE,
            _ => SATURATED_QUEUE,
        };
        let probe_strategies;
        let strategies: &[MappingStrategy] = if self.def.kind == Kind::Egonet {
            // Ego-net requests never reach the fixed-topology runtime.
            probe_strategies = [MappingStrategy::Dynamic];
            &probe_strategies
        } else {
            &self.strategies
        };
        let config = ServeConfig::default()
            .workers(SERVE_WORKERS)
            .max_batch(SERVE_MAX_BATCH)
            .queue_capacity(queue)
            .strategies(strategies);
        match registry {
            Some(registry) => config.telemetry(Arc::clone(registry)),
            None => config,
        }
    }
}

/// A CSR feature matrix whose entries are non-zero independently with
/// probability `density`, values uniform in `(0, 1]`.  Walks the matrix in
/// geometric jumps from one non-zero to the next, so the cost is per stored
/// entry: `pricing_churn` generates 256 of these per run, which the
/// per-row hash-set sampler of `dynasparse_graph::generators` takes seconds
/// to do.
pub fn csr_features(rows: usize, cols: usize, density: f64, seed: u64) -> FeatureMatrix {
    let density = density.clamp(1e-9, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let log_miss = (1.0 - density).ln();
    // Room for the expected count plus six standard deviations, so that no
    // seed makes a buffer grow (and the resident set jump).
    let expected = (rows * cols) as f64 * density;
    let room = (expected + 6.0 * expected.sqrt()) as usize + 64;
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::with_capacity(room);
    let mut values = Vec::with_capacity(room);
    row_ptr.push(0);
    let total = rows * cols;
    let mut at = 0usize;
    loop {
        // Zeros skipped before the next non-zero: geometric in `density`.
        let skip = if density >= 1.0 {
            0.0
        } else {
            let u: f64 = rng.gen_range(0.0..1.0);
            ((1.0 - u).ln() / log_miss).floor()
        };
        at = at.saturating_add(skip.min(total as f64) as usize);
        if at >= total {
            break;
        }
        while row_ptr.len() <= at / cols {
            row_ptr.push(col_idx.len());
        }
        col_idx.push((at % cols) as u32);
        values.push(rng.gen_range(0.0f32..1.0) + f32::EPSILON);
        at += 1;
    }
    row_ptr.resize(rows + 1, col_idx.len());
    FeatureMatrix::Sparse(CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values))
}

/// The system, set up and warmed, ready for the measured loop.
pub enum Stage {
    /// A session over the workload's plan.
    Session {
        /// The compiled plan.
        plan: Arc<CompiledPlan>,
        /// The serving session.
        session: OwnedSession,
    },
    /// A template and the pooled session ego-net requests rebind.
    Egonet {
        /// The resident template.
        template: Arc<ModelTemplate>,
        /// The pooled session.
        session: OwnedSession,
    },
    /// A running serve pool.
    Serve {
        /// The compiled plan.
        plan: Arc<CompiledPlan>,
        /// The runtime.
        runtime: ServeRuntime,
    },
}

/// Host calibration, paid the way a fresh process pays it: the first call
/// fills the process-wide fit, later calls repeat the same measurement so
/// that every set-up of a run costs the same.
pub fn calibrate(first: bool) {
    if first {
        std::hint::black_box(HostCalibration::shared());
    } else {
        std::hint::black_box(HostCalibration::measure(&CalibrationConfig::default()));
    }
}

/// Sets the system up for `inputs`: calibration, plan or template compile,
/// session or runtime start, warm-up.  `registry` is injected by the traced
/// run; the end-to-end run passes `None` and gets the shipped defaults.
pub fn set_up(
    inputs: &Inputs,
    first: bool,
    registry: Option<&Arc<Registry>>,
    scale: &Scale,
) -> Stage {
    calibrate(first);
    let plan = || {
        Planner::default()
            .plan_shared(&inputs.model, &inputs.parent)
            .expect("generated model and graph agree")
    };
    match inputs.def.kind {
        Kind::Session => {
            let plan = plan();
            let mut session = plan.session_shared(&inputs.strategies);
            if let Some(registry) = registry {
                session.set_telemetry(Arc::clone(registry));
            }
            for i in 0..scale.warmup {
                session
                    .infer(&inputs.requests[i % inputs.requests.len()])
                    .expect("warm-up request");
            }
            Stage::Session { plan, session }
        }
        Kind::Egonet => {
            let template = ModelTemplate::compile_shared(&inputs.model, EngineOptions::default())
                .expect("generated model is valid");
            let mut session = None;
            for i in 0..scale.warmup.max(1) as u64 {
                // Warm-up draws from the far end of the sampler-seed space
                // so the measured loop's first requests are not pre-warmed.
                let sub = inputs.sample_egonet(u64::MAX - i);
                let features = sub.extract_features(&inputs.parent.features);
                let instance = template
                    .instantiate(sub.graph(), &features)
                    .expect("sampled ego-net is a valid request");
                let session = session.get_or_insert_with(|| {
                    let mut s = instance.session(&inputs.strategies);
                    if let Some(registry) = registry {
                        s.set_telemetry(Arc::clone(registry));
                    }
                    s
                });
                session.rebind(instance.into_plan());
                session.infer(&features).expect("warm-up request");
            }
            Stage::Egonet {
                template,
                session: session.expect("at least one warm-up request"),
            }
        }
        Kind::ServePaced | Kind::ServeSaturated => {
            let plan = plan();
            let runtime = ServeRuntime::start(Arc::clone(&plan), inputs.serve_config(registry));
            let warm = runtime.serve_all(
                (0..serve_warmup(scale) as usize)
                    .map(|i| inputs.requests[i % inputs.requests.len()].clone()),
            );
            assert!(warm.iter().all(Result::is_ok), "warm-up request failed");
            Stage::Serve { plan, runtime }
        }
    }
}

/// Warm-up requests a serve pool is sent at set-up (both workers warm).
pub fn serve_warmup(scale: &Scale) -> u64 {
    (scale.warmup * SERVE_WORKERS) as u64
}

impl Stage {
    /// Stops what set-up started; a serve pool hands back its report.
    pub fn tear_down(self) -> Option<ServeReport> {
        match self {
            Stage::Serve { runtime, .. } => Some(runtime.shutdown()),
            _ => None,
        }
    }
}

/// What an output check needs to recompute one answer.
pub enum SampleInput {
    /// Index into [`Inputs::requests`] (fixed topology).
    Request(usize),
    /// A per-request topology and its features.
    Subgraph(Graph, FeatureMatrix),
}

/// One served answer kept for the output check.
pub struct Sample {
    /// What was asked.
    pub input: SampleInput,
    /// What was answered.
    pub embeddings: FeatureMatrix,
}

/// The fixed sample the output check covers: requests 0, 1, 2, 4, 8, …
/// (early and late, a dozen-odd answers however long the run).
pub fn sampled(index: u64) -> bool {
    index == 0 || index.is_power_of_two()
}

/// One attempted request of a measured loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When it was issued (closed loop) or due (open loop), seconds from the
    /// start of the loop.  Latency counts from here.
    pub issued_s: f64,
    /// Milliseconds until its answer was in hand; `None` if it was refused
    /// or resolved to an error.
    pub latency_ms: Option<f64>,
}

/// What the measured loop observed.
#[derive(Default)]
pub struct Outcome {
    /// Every attempted request.
    pub events: Vec<Event>,
    /// Requests the runtime refused at admission.
    pub refused: u64,
    /// Requests that resolved to an error.
    pub errors: u64,
    /// Wall-clock seconds of the measured loop.
    pub wall_s: f64,
    /// Answers kept for the output check.
    pub samples: Vec<Sample>,
    /// How late each open-loop request was sent, milliseconds.
    pub lag_ms: Vec<f64>,
    /// Vertices of every sampled ego-net.
    pub subgraph_vertices: Vec<f64>,
}

impl Outcome {
    /// Requests sent (or, for an open loop, due).
    pub fn attempted(&self) -> u64 {
        self.events.len() as u64
    }

    /// Requests answered without an error.
    pub fn answered(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.latency_ms.is_some())
            .count() as u64
    }

    /// Whole-loop answered requests per second.
    pub fn rps(&self) -> f64 {
        self.answered() as f64 / self.wall_s.max(1e-9)
    }

    /// The loop cut into windows of `window_s` seconds.
    pub fn windows(&self, seconds: f64, window_s: f64) -> stats::Windowed {
        let events = self.events.iter().map(|e| (e.issued_s, e.latency_ms));
        stats::windowed(events, seconds, window_s, LATENCY_LIMIT_MS)
    }

    /// Appends a later stretch of the same loop.
    pub fn absorb(&mut self, later: Outcome) {
        let offset = self.wall_s;
        self.events.extend(later.events.into_iter().map(|e| Event {
            issued_s: e.issued_s + offset,
            ..e
        }));
        self.refused += later.refused;
        self.errors += later.errors;
        self.wall_s += later.wall_s;
        self.samples.extend(later.samples);
        self.lag_ms.extend(later.lag_ms);
        self.subgraph_vertices.extend(later.subgraph_vertices);
    }

    fn push(&mut self, started: Instant, sent: Instant, ok: bool) {
        self.events.push(Event {
            issued_s: sent.saturating_duration_since(started).as_secs_f64(),
            latency_ms: ok.then(|| sent.elapsed().as_secs_f64() * 1e3),
        });
        if !ok {
            self.errors += 1;
        }
    }
}

/// Runs the workload's measured loop for `seconds`.  Requests are numbered
/// from `first_index`, so a loop run in several stretches keeps distinct
/// request identifiers (and, for ego-nets, distinct topologies).
pub fn drive(
    inputs: &Inputs,
    stage: &mut Stage,
    seconds: f64,
    first_index: u64,
    scale: &Scale,
    tracer: &mut Tracer,
) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    match stage {
        Stage::Session { session, .. } => {
            drive_session(inputs, session, budget, first_index, tracer)
        }
        Stage::Egonet { template, session } => {
            drive_egonet(inputs, template, session, budget, first_index, tracer)
        }
        Stage::Serve { runtime, .. } => {
            let shape = match inputs.def.kind {
                Kind::ServePaced => LoadShape::Paced {
                    rate_rps: scale.paced_rps,
                    seed: inputs.seed ^ first_index,
                },
                _ => LoadShape::Saturated,
            };
            load::drive_serve(
                &inputs.requests,
                runtime,
                shape,
                budget,
                first_index,
                tracer,
            )
        }
    }
}

fn drive_session(
    inputs: &Inputs,
    session: &mut OwnedSession,
    budget: Duration,
    first_index: u64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        let index = first_index + out.attempted();
        let slot = index as usize % inputs.requests.len();
        let request = &inputs.requests[slot];
        let sent = Instant::now();
        let span = tracer.begin("request", None, Some(index));
        let result = tracer.span("core.infer", Some(span), Some(index), || {
            session.infer(request)
        });
        tracer.end(span);
        out.push(started, sent, result.is_ok());
        if let (Ok(report), true) = (result, sampled(index - first_index)) {
            out.samples.push(Sample {
                input: SampleInput::Request(slot),
                embeddings: report.output_embeddings,
            });
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

fn drive_egonet(
    inputs: &Inputs,
    template: &ModelTemplate,
    session: &mut OwnedSession,
    budget: Duration,
    first_index: u64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        let index = first_index + out.attempted();
        let id = Some(index);
        let sent = Instant::now();
        let span = tracer.begin("request", None, id);
        let parent = Some(span);
        let sub = tracer.span("graph.sample", parent, id, || inputs.sample_egonet(index));
        let features = tracer.span("graph.extract_features", parent, id, || {
            sub.extract_features(&inputs.parent.features)
        });
        let instance = tracer.span("core.instantiate", parent, id, || {
            template.instantiate(sub.graph(), &features)
        });
        let result = instance.and_then(|instance| {
            tracer.span("core.rebind", parent, id, || {
                session.rebind(instance.into_plan())
            });
            tracer.span("core.infer", parent, id, || session.infer(&features))
        });
        tracer.end(span);
        out.push(started, sent, result.is_ok());
        out.subgraph_vertices.push(sub.num_vertices() as f64);
        if let (Ok(report), true) = (result, sampled(index - first_index)) {
            out.samples.push(Sample {
                input: SampleInput::Subgraph(sub.into_graph(), features),
                embeddings: report.output_embeddings,
            });
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Whether two embedding matrices agree bit for bit.
pub fn bit_identical(a: &FeatureMatrix, b: &FeatureMatrix) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    let (a, b) = (a.to_dense(), b.to_dense());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Recomputes every sampled answer with `ReferenceExecutor::forward`, the
/// oracle, and returns how many are not bit-identical to it.
pub fn mismatches(inputs: &Inputs, samples: &[Sample]) -> u64 {
    let mut fixed: Option<ReferenceExecutor> = None;
    let mut wrong = 0;
    for sample in samples {
        let expected = match &sample.input {
            SampleInput::Request(slot) => fixed
                .get_or_insert_with(|| ReferenceExecutor::new(&inputs.model, &inputs.parent.graph))
                .forward(&inputs.requests[*slot]),
            SampleInput::Subgraph(graph, features) => {
                ReferenceExecutor::new(&inputs.model, graph).forward(features)
            }
        };
        match expected {
            Ok(expected) if bit_identical(&expected, &sample.embeddings) => {}
            _ => wrong += 1,
        }
    }
    wrong
}

/// Peak resident set of this process (`VmHWM`), megabytes; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accounts an outcome into `report`: request counts, output check, and for
/// serve workloads ticket conservation against the runtime's own report.
pub fn account(
    inputs: &Inputs,
    outcomes: &[&Outcome],
    serve: Option<&ServeReport>,
    warmup_requests: u64,
    report: &mut Report,
) {
    let sum = |f: &dyn Fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
    let (attempted, answered) = (sum(&Outcome::attempted), sum(&Outcome::answered));
    let (refused, errors) = (sum(&|o| o.refused), sum(&|o| o.errors));
    let checked = sum(&|o| o.samples.len() as u64);
    let wrong = sum(&|o| mismatches(inputs, &o.samples));
    report.attempted = attempted;
    report.failed = errors + refused + wrong;
    if wrong > 0 {
        report.violation(format!(
            "{wrong} of {checked} sampled answers differ from ReferenceExecutor::forward"
        ));
    }
    if checked == 0 {
        report.violation("no answer was checked against the oracle".into());
    }
    if attempted != answered + refused + errors {
        report.violation(format!(
            "ticket conservation: {attempted} sent != {answered} answered + {refused} refused + {errors} errors"
        ));
    }
    if let Some(serve) = serve {
        // Every accepted ticket was served exactly once: the runtime's own
        // count (warm-up included) matches what the collector redeemed.
        let accepted = attempted - refused + warmup_requests;
        if serve.requests != accepted {
            report.violation(format!(
                "ticket conservation: runtime served {} of {accepted} accepted tickets",
                serve.requests
            ));
        }
        let dropped = serve.shed + serve.deadline_expired + serve.worker_panics;
        if dropped != 0 || !serve.worker_failures.is_empty() {
            report.violation(format!(
                "runtime shed/expired/panicked {dropped} requests: {:?}",
                serve.worker_failures
            ));
        }
    }
}

/// Sets the system up once and returns it with the seconds that took.
fn timed_set_up(inputs: &Inputs, first: bool, scale: &Scale) -> (Stage, f64) {
    let started = Instant::now();
    let stage = set_up(inputs, first, None, scale);
    (stage, started.elapsed().as_secs_f64())
}

/// `best / lower quartile / median / upper quartile / worst` of `values`,
/// best first whichever direction that is.
fn spread_row(values: &[f64], best_is_high: bool) -> String {
    let sorted = Samples::new(values.to_vec());
    let mut row = [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| sorted.q(q));
    if best_is_high {
        row.reverse();
    }
    row.map(|v| format!("{v:.3}")).join(" / ")
}

/// The end-to-end run of one workload: set up `scale.setups` times — half
/// before the measured loop, half after it, so that they do not all meet the
/// box in the same mood — measure for `seconds` with tracing off, check the
/// outputs.  `setup_s` is the fastest set-up, for the reason the timings are
/// the best window's: a neighbour only ever slows one down.  Over four sets
/// of ten runs the fastest of ten set-ups spread 0.05–0.23 and its median
/// moved by up to 0.22 from one set to the next, the median of the ten
/// 0.11–0.35 and 0.25.
pub fn run_end_to_end(inputs: &Inputs, seconds: f64, scale: &Scale) -> Report {
    let before = scale.setups.div_ceil(2).max(1);
    let mut setup_s = Vec::with_capacity(scale.setups);
    let mut stage: Option<Stage> = None;
    for round in 0..before {
        if let Some(previous) = stage.take() {
            previous.tear_down();
        }
        let (fresh, took_s) = timed_set_up(inputs, round == 0, scale);
        stage = Some(fresh);
        setup_s.push(took_s);
    }
    let mut stage = stage.expect("set up at least once");
    let mut tracer = Tracer::new(false);
    let outcome = drive(inputs, &mut stage, seconds, 0, scale, &mut tracer);
    let serve = stage.tear_down();
    for _ in before..scale.setups {
        let (extra, took_s) = timed_set_up(inputs, false, scale);
        extra.tear_down();
        setup_s.push(took_s);
    }

    let mut report = Report::default();
    account(
        inputs,
        &[&outcome],
        serve.as_ref(),
        serve_warmup(scale),
        &mut report,
    );
    let windows = outcome.windows(seconds, inputs.def.window_s);
    let n = Some(stats::median(&windows.answered) as usize);
    let fastest_s = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    report.set("setup_s", fastest_s, Some(setup_s.len()));
    // An open loop answers what it is offered: its throughput is the whole
    // loop's, and only moves if requests are refused or lost.
    let throughput_rps = match inputs.def.kind {
        Kind::ServePaced => outcome.answered() as f64 / seconds,
        _ => windows.best_throughput_rps(),
    };
    report.set("throughput_rps", throughput_rps, n);
    report.set("latency_p50_ms", windows.best_p50_ms(), n);
    report.set(
        "within_limit_share",
        stats::median(&windows.within_share),
        n,
    );
    report.note(format!(
        "set-ups, s: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "{} windows of {} s; best / quartile / median / quartile / worst window:",
        windows.windows(),
        inputs.def.window_s
    ));
    report.note(format!(
        "  req/s   {}",
        spread_row(&windows.throughput_rps, true)
    ));
    report.note(format!("  p50 ms  {}", spread_row(&windows.p50_ms, false)));
    let all = Samples::new(outcome.events.iter().filter_map(|e| e.latency_ms).collect());
    report.note(format!(
        "whole loop: {:.1} req/s, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms (n={})",
        outcome.rps(),
        all.q(0.5),
        all.q(0.95),
        all.q(0.99),
        all.count()
    ));
    report.set("peak_rss_mb", peak_rss_mb(), None);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_features_are_seeded_sorted_and_about_as_dense_as_asked() {
        let a = csr_features(200, 300, 0.05, 9);
        assert_eq!(a.to_dense(), csr_features(200, 300, 0.05, 9).to_dense());
        assert_ne!(a.to_dense(), csr_features(200, 300, 0.05, 10).to_dense());
        let csr = a.as_sparse().expect("CSR-stored");
        assert_eq!(csr.shape(), (200, 300));
        assert!((0.04..0.06).contains(&csr.density()), "{}", csr.density());
        for r in 0..csr.rows() {
            let (cols, values) = csr.row(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} ascends");
            assert!(cols.iter().all(|&c| (c as usize) < 300));
            assert!(values.iter().all(|&v| v > 0.0 && v <= 1.0 + f32::EPSILON));
        }
        assert_eq!(csr_features(7, 5, 1.0, 1).nnz(), 35);
    }

    #[test]
    fn every_workload_generates_from_its_seed_alone() {
        for def in WORKLOADS {
            let a = Inputs::generate(def, 5, &Scale::SMOKE);
            let b = Inputs::generate(def, 5, &Scale::SMOKE);
            assert_eq!(a.model, b.model, "{}", def.name);
            assert_eq!(a.roots, b.roots, "{}", def.name);
            assert_eq!(a.requests.len(), b.requests.len());
            for (x, y) in a.requests.iter().zip(&b.requests) {
                assert!(bit_identical(x, y), "{}", def.name);
            }
            let other = Inputs::generate(def, 6, &Scale::SMOKE);
            assert_ne!(a.roots, other.roots, "{}", def.name);
            assert_eq!(find(def.name), Some(def));
        }
        assert_eq!(find("nope"), None);
        assert!(sampled(0) && sampled(1) && sampled(64) && !sampled(3));
    }
}
