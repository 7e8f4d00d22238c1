//! # Dynasparse
//!
//! A from-scratch Rust reproduction of **"Dynasparse: Accelerating GNN
//! Inference through Dynamic Sparsity Exploitation"** (Zhang & Prasanna,
//! IPDPS 2023).
//!
//! Dynasparse accelerates full-graph GNN inference by decoupling the GNN
//! *kernels* (feature aggregation and feature transformation) from the basic
//! computation *primitives* (GEMM, SpDMM, SPMM) and choosing the primitive
//! for every data partition **at runtime**, based on the measured sparsity of
//! the operands.  The original system is an FPGA (Alveo U250) design; this
//! reproduction replaces the FPGA with a cycle-level simulator while keeping
//! every other component — compiler, IR, data partitioning, runtime system,
//! dynamic kernel-to-primitive mapping, task scheduling — faithful to the
//! paper.
//!
//! ## The compile-once / serve-many API
//!
//! The pipeline separates what the paper computes once per (model, graph)
//! pair from what it computes per inference request:
//!
//! 1. [`Planner::plan`] validates the model and runs the one-time work —
//!    computation-graph construction, partition sizing (Algorithm 9),
//!    execution-scheme generation (Algorithms 2/3), static sparsity
//!    profiling and adjacency normalization — into an immutable
//!    [`CompiledPlan`].
//! 2. [`CompiledPlan::session`] opens a [`Session`] holding the reusable
//!    per-strategy Analyzer/Scheduler state and scratch buffers.
//! 3. [`Session::infer`] (or [`Session::infer_batch`]) serves each request:
//!    one functional pass measures the runtime-only feature densities
//!    (Fig. 2) and prices every requested mapping strategy, with **zero
//!    recompilation**.
//!
//! ## Quick start
//!
//! ```
//! use dynasparse::{EngineOptions, MappingStrategy, Planner};
//! use dynasparse_graph::Dataset;
//! use dynasparse_model::{GnnModel, GnnModelKind};
//!
//! // A down-scaled Cora instance keeps the example fast.
//! let dataset = Dataset::Cora.spec().generate_scaled(42, 0.2);
//! let model = GnnModel::standard(
//!     GnnModelKind::Gcn,
//!     dataset.features.dim(),
//!     16,
//!     dataset.spec.num_classes,
//!     7,
//! );
//!
//! // Compile once...
//! let planner = Planner::new(EngineOptions::default());
//! let plan = planner.plan(&model, &dataset).unwrap();
//!
//! // ...serve many.  Every request reuses the compiled program, the
//! // partition sizes, the static sparsity profiles and the normalized
//! // adjacency matrices.
//! let mut session = plan.session(&MappingStrategy::paper_strategies());
//! let report = session.infer(&dataset.features).unwrap();
//!
//! let dynamic = report.run(MappingStrategy::Dynamic).unwrap();
//! let s1 = report.run(MappingStrategy::Static1).unwrap();
//! assert!(dynamic.latency_ms <= s1.latency_ms);
//! println!(
//!     "Dynamic {:.3} ms vs S1 {:.3} ms ({:.2}x); amortized request {:.3} ms",
//!     dynamic.latency_ms,
//!     s1.latency_ms,
//!     s1.latency_ms / dynamic.latency_ms,
//!     report.amortized_ms(MappingStrategy::Dynamic).unwrap(),
//! );
//!
//! // Same topology, new features: no recompilation.
//! let second = session.infer(&dataset.features).unwrap();
//! assert_eq!(second.request_index, 1);
//! ```
//!
//! ## Concurrent serving
//!
//! A [`CompiledPlan`] is immutable and `Send + Sync`; wrap it in an `Arc`
//! and any number of sessions can serve from it concurrently, each on its
//! own thread, sharing (not copying) the model weights and normalized
//! adjacencies:
//!
//! ```
//! use dynasparse::{MappingStrategy, OwnedSession, Planner};
//! use dynasparse_graph::Dataset;
//! use dynasparse_model::{GnnModel, GnnModelKind};
//! use std::sync::Arc;
//!
//! let dataset = Dataset::Cora.spec().generate_scaled(42, 0.1);
//! let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 7);
//! let plan = Planner::default().plan_shared(&model, &dataset).unwrap();
//!
//! let threads: Vec<_> = (0..2)
//!     .map(|_| {
//!         let mut session: OwnedSession =
//!             plan.session_shared(&[MappingStrategy::Dynamic]);
//!         let features = dataset.features.clone();
//!         std::thread::spawn(move || session.infer(&features).unwrap())
//!     })
//!     .collect();
//! for t in threads {
//!     assert!(t.join().unwrap().run(MappingStrategy::Dynamic).is_some());
//! }
//! ```
//!
//! The `dynasparse-serve` crate builds the full serving runtime on this
//! surface: a plan cache keyed by a structural (model, topology)
//! fingerprint, a bounded request queue, a worker thread pool serving one
//! request at a time per worker, and serving metrics.
//!
//! ## The dispatching kernel engine
//!
//! A session's host execution exploits dynamic sparsity the same
//! way the modeled accelerator does: a per-session
//! [`KernelDispatcher`](dynasparse_model::KernelDispatcher) resolves every
//! kernel's route once from its *runtime* operand densities and executes
//! dense-output kernels over the compiler partition's row blocks, each block
//! picking the zero-skipping dense GEMM, the sparse-dense CSR kernel or
//! Gustavson sparse-sparse rows of `dynasparse-matrix` and writing into the
//! session's zero-allocation
//! [`KernelArena`](dynasparse_model::KernelArena).  Decisions are the
//! argmin over the **measured host calibration**; under
//! `DYNASPARSE_CALIBRATION=off` they are the accelerator's Table IV regions,
//! which also stay the oracle.
//! [`Session::infer_batch`] serves a micro-batch as a loop of the same pass,
//! one request at a time.
//!
//! The full story — the Planner → CompiledPlan → Session →
//! KernelDispatcher → KernelArena → ServeRuntime data flow, the
//! buffer-ownership rules behind the zero-allocation contract, where the
//! calibrated cost model sits relative to the Table IV regions, and what a
//! micro-batch does and does not amortize — lives in `ARCHITECTURE.md` at
//! the repository root, together with the knobs documented in `README.md`
//! (`DYNASPARSE_CALIBRATION`, `DYNASPARSE_THREADS`, …).
//!
//! Whether the calibration or the regions decide, and at any kernel thread
//! count, embeddings stay bit-identical to the fixed-kernel
//! `ReferenceExecutor::forward`, the test oracle
//! (`tests/integration_dispatch.rs`, `tests/integration_backend.rs`), and a
//! batched request reports exactly what it reports served alone
//! (`tests/integration_batch.rs`).  Every session prices its strategies
//! through one bucketed pricing cache (`dynasparse_runtime::PricingStage`):
//! a miss runs the Analyzer on the profile's density-bucket representative,
//! so what a request reports never depends on what the session served
//! before.
//!
//! ## Errors
//!
//! Every fallible call returns the typed [`DynasparseError`]:
//! [`DynasparseError::Model`] for structural model problems
//! ([`ModelError`]), [`DynasparseError::Compile`] for plan-time model/graph
//! mismatches ([`CompileError`]), and [`DynasparseError::Execution`] for
//! functional failures (`MatrixError`), including requests whose feature
//! shape does not match the plan.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | `dynasparse-matrix` | dense/COO/CSR matrices, formats, layouts, profiling |
//! | `dynasparse-graph` | graphs, normalization, synthetic Table VI datasets |
//! | `dynasparse-model` | GCN / GraphSAGE / GIN / SGC, pruning, reference executor |
//! | `dynasparse-compiler` | IR, data partitioning (Alg. 9), execution schemes (Alg. 2/3) |
//! | `dynasparse-accel` | cycle-level accelerator model (ACM, AHM, memory, soft processor) |
//! | `dynasparse-runtime` | Analyzer (Alg. 7), Scheduler (Alg. 8), S1/S2 baselines |
//! | `dynasparse` (this crate) | Planner → CompiledPlan → Session |
//! | `dynasparse-serve` | plan cache, worker pool, bounded queue, serving metrics |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod error;
pub mod planner;
pub mod report;
pub mod session;
pub mod template;

pub use engine::EngineOptions;
pub use error::{CompileError, DynasparseError};
pub use planner::{CompiledPlan, Planner};
pub use report::{InferenceReport, KernelReport, StrategyRun};
pub use session::{FaultHook, OwnedSession, Session};
pub use template::{ModelTemplate, TemplateInstance};

// Re-export the pieces a downstream user needs to drive the engine without
// depending on every sub-crate explicitly.
pub use dynasparse_accel::AcceleratorConfig;
pub use dynasparse_compiler::CompilerConfig;
pub use dynasparse_model::{LayerError, ModelError};
pub use dynasparse_runtime::{MappingStrategy, PricingCacheMode};
pub use dynasparse_telemetry::{
    CounterId, FlightRecorder, GaugeId, HistogramId, KernelSpan, Registry, SessionTelemetry,
    SpanPrimitive, TelemetryLevel, TelemetrySnapshot, TELEMETRY_ENV,
};
