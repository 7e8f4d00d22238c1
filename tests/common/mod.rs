//! The single oracle the equivalence suites compare a served report against.
//!
//! [`run_oracle`] runs the fixed-kernel `ReferenceExecutor::forward_with`
//! and records what it observes kernel by kernel; [`price_oracle`] prices the
//! density profiles of the oracle's kernel inputs with a fresh
//! `Analyzer`/`Scheduler` — uncached pricing is exactly that Analyzer run on
//! the exact profiles; [`assert_matches_oracle`] holds a served
//! [`InferenceReport`] to both.  Nothing here touches the dispatching
//! executor, so "the session equals the oracle" is a statement about the one
//! production path — including that a profile filled by a kernel's own scan
//! equals a separate refit of the same operand.

// Every test binary that mounts this module uses a subset of it.
#![allow(dead_code)]

use dynasparse::{CompiledPlan, InferenceReport, MappingStrategy};
use dynasparse_accel::ComputationCore;
use dynasparse_compiler::KernelKind;
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::{DensityProfile, DispatchPolicy};
use dynasparse_model::{GnnModel, KernelDispatcher, ReferenceExecutor, StageDensity, StageOp};
use dynasparse_runtime::{pricing, Analyzer, OperandProfiles, PrimitiveMix, Scheduler};

/// Set in a child run of a test binary under `DYNASPARSE_CALIBRATION=off`.
const REGIONS_CHILD: &str = "REGIONS_FALLBACK_CHILD";

/// Whether this process is a child run on the Table IV regions fallback
/// (see [`rerun_on_the_regions_fallback`]).
pub fn is_regions_child() -> bool {
    std::env::var_os(REGIONS_CHILD).is_some()
}

/// Runs test `test` of this test binary again in a child process with `env`
/// set, and fails unless it ran and passed (the child's output is shown only
/// then).
pub fn rerun(test: &str, env: &[(&str, &str)]) {
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", test])
        .envs(env.iter().copied())
        .output()
        .expect("re-run this test binary");
    let ran = String::from_utf8_lossy(&child.stdout).contains("test result: ok. 1 passed");
    assert!(
        child.status.success() && ran,
        "{test} failed in a child run under {env:?}:\n{}{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}

/// Runs `test` again under `DYNASPARSE_CALIBRATION=off`, so its sessions
/// decide by the Table IV regions: the calibration is read once per process,
/// so the fallback needs a process of its own.  A no-op inside such a child.
pub fn rerun_on_the_regions_fallback(test: &str) {
    if !is_regions_child() {
        rerun(
            test,
            &[(REGIONS_CHILD, "1"), ("DYNASPARSE_CALIBRATION", "off")],
        );
    }
}

/// Set in a child run of a test binary at a pinned kernel thread count.
const THREADS_CHILD: &str = "KERNEL_THREADS_CHILD";

/// Runs `body` in two child runs of test `test`, with the kernel thread pool
/// at one thread (row blocks inline on the caller) and at two (row blocks
/// claimed by different threads): the pool is sized once per process from
/// `DYNASPARSE_THREADS`, so each size needs a process of its own.  Inside
/// such a child it just runs `body`.
pub fn at_one_and_two_kernel_threads(test: &str, body: impl FnOnce()) {
    if std::env::var_os(THREADS_CHILD).is_some() {
        return body();
    }
    for threads in ["1", "2"] {
        rerun(
            test,
            &[(THREADS_CHILD, "1"), ("DYNASPARSE_THREADS", threads)],
        );
    }
}

/// A dispatcher deciding by the Table IV regions (no calibration), for
/// executor-level tests.
pub fn regions_dispatcher(model: &GnnModel, policy: DispatchPolicy) -> KernelDispatcher {
    KernelDispatcher::new(model, policy, None, &[])
}

/// What the fixed-kernel oracle observes, kernel by kernel in execution
/// order.
pub struct Oracle {
    pub embeddings: FeatureMatrix,
    pub stages: Vec<StageDensity>,
    /// `(input_density, output_density)` per kernel.
    pub io: Vec<(f64, f64)>,
    /// Each kernel's input profiled at the granularity its scheme uses.
    pub input_profiles: Vec<DensityProfile>,
}

/// Runs `features` through the oracle executor `exec` (built over the model
/// and graph `plan` was compiled for).
pub fn run_oracle(
    exec: &ReferenceExecutor,
    features: &FeatureMatrix,
    plan: &CompiledPlan,
) -> Oracle {
    let (spec, vertices) = (plan.partition(), plan.num_vertices());
    let kernels = &plan.program().kernels;
    let (mut stages, mut io, mut input_profiles) = (Vec::new(), Vec::new(), Vec::new());
    let embeddings = exec
        .forward_with(features, |_, _, _, input, out| {
            let ir = &kernels[stages.len()].ir;
            let (grid, op) = match ir.kind {
                KernelKind::Aggregate => {
                    (spec.feature_grid(vertices, input.dim()), StageOp::Aggregate)
                }
                KernelKind::Update => (spec.subfiber_grid(vertices, input.dim()), StageOp::Update),
            };
            input_profiles.push(input.density_profile(&grid));
            io.push((input.density(), out.density()));
            stages.push(StageDensity {
                layer: ir.layer_id - 1,
                kernel: ir.kernel_in_layer,
                op,
                density: out.density(),
            });
        })
        .unwrap();
    Oracle {
        embeddings,
        stages,
        io,
        input_profiles,
    }
}

/// One kernel of the oracle, priced.
pub struct PricedKernel {
    pub cycles: u64,
    pub utilization: f64,
    pub decisions: usize,
    pub mix: PrimitiveMix,
}

/// Which feature profile of a kernel input [`price_oracle`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profiles {
    /// The exact profile: uncached pricing.
    Exact,
    /// Each block snapped to its density bucket's representative: what a
    /// session's pricing cache prices.
    BucketRepresentatives,
}

/// Prices the oracle's kernel inputs under `strategy` with a fresh
/// `Analyzer`/`Scheduler`: total cycles and every kernel's schedule and
/// primitive mix.
pub fn price_oracle(
    plan: &CompiledPlan,
    oracle: &Oracle,
    strategy: MappingStrategy,
    profiles: Profiles,
) -> (u64, Vec<PricedKernel>) {
    let program = plan.program();
    let accelerator = plan.options().accelerator;
    let analyzer = Analyzer::new(ComputationCore::new(accelerator), strategy);
    let mut scheduler = Scheduler::new(accelerator.num_cores);
    let mut quantized = DensityProfile::default();
    let kernels = program
        .kernels
        .iter()
        .zip(&oracle.input_profiles)
        .map(|(compiled, exact)| {
            let features = if profiles == Profiles::BucketRepresentatives {
                pricing::quantize_profile_into(exact, &mut quantized);
                &quantized
            } else {
                exact
            };
            let analysis = analyzer.analyze_kernel(
                compiled,
                &OperandProfiles {
                    adjacency: &program.static_sparsity.adjacency,
                    weights: &program.static_sparsity.weights,
                    features,
                },
            );
            let schedule = scheduler.schedule_kernel(compiled.ir.id, &analysis);
            PricedKernel {
                cycles: schedule.cycles(),
                utilization: schedule.utilization,
                decisions: analysis.decisions,
                mix: analysis.mix,
            }
        })
        .collect();
    (scheduler.total_cycles(), kernels)
}

/// Holds a served report to the oracle: embeddings and density trace bit for
/// bit, and every strategy run priced exactly as [`price_oracle`] prices the
/// bucket representatives of the oracle's kernel inputs.
pub fn assert_matches_oracle(got: &InferenceReport, plan: &CompiledPlan, want: &Oracle, ctx: &str) {
    assert_eq!(
        got.output_embeddings.to_dense().as_slice(),
        want.embeddings.to_dense().as_slice(),
        "{ctx}: embeddings must be bit-identical"
    );
    assert_eq!(
        got.density_trace.stages, want.stages,
        "{ctx}: density traces must match"
    );
    // Kernel 0 reads the request, so the oracle's first input density is it.
    assert_eq!(
        got.density_trace.input_density.to_bits(),
        want.io[0].0.to_bits(),
        "{ctx}: input density"
    );
    for run in &got.runs {
        let ctx = format!("{ctx}, {}", run.strategy.label());
        let (total_cycles, kernels) =
            price_oracle(plan, want, run.strategy, Profiles::BucketRepresentatives);
        assert_eq!(run.total_cycles, total_cycles, "{ctx}: modeled cycles");
        assert_eq!(run.kernels.len(), kernels.len(), "{ctx}: kernel count");
        for ((gk, wk), (input_density, output_density)) in
            run.kernels.iter().zip(&kernels).zip(&want.io)
        {
            assert_eq!(gk.mix, wk.mix, "{ctx}: primitive mix");
            assert_eq!(
                (gk.cycles, gk.decisions, gk.utilization.to_bits()),
                (wk.cycles, wk.decisions, wk.utilization.to_bits()),
                "{ctx}: kernel schedule"
            );
            assert_eq!(gk.input_density.to_bits(), input_density.to_bits());
            assert_eq!(gk.output_density.to_bits(), output_density.to_bits());
        }
    }
}
