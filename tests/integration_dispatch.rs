//! Numerical equivalence of the dispatching kernel engine.
//!
//! `Session::infer` (mode-picked kernels into the reusable arena, optionally
//! pooled) must be bit-identical to the fixed-kernel oracle
//! (`ReferenceExecutor::forward_with`) — same output embeddings, same
//! runtime density trace — and must price every strategy exactly as
//! `Analyzer`/`Scheduler` run on the density profiles of the oracle's kernel
//! inputs do, for every model kind, for dense and sparse feature storage,
//! and for pruned weights that trigger the sparse-sparse route.

use dynasparse::{
    CompiledPlan, EngineOptions, HostExecutionOptions, MappingStrategy, Planner, PricingCacheMode,
};
use dynasparse_accel::ComputationCore;
use dynasparse_compiler::KernelKind;
use dynasparse_graph::{Dataset, FeatureMatrix, GraphDataset};
use dynasparse_matrix::DensityProfile;
use dynasparse_model::{
    prune_model, GnnModel, GnnModelKind, ReferenceExecutor, StageDensity, StageOp,
};
use dynasparse_runtime::{
    pricing, Analyzer, MappingStrategy as Strategy, OperandProfiles, PrimitiveMix, Scheduler,
};

fn options(parallel: bool) -> EngineOptions {
    EngineOptions::builder()
        .host(HostExecutionOptions {
            parallel,
            ..Default::default()
        })
        .build()
}

/// What the fixed-kernel oracle observes, kernel by kernel in execution
/// order.
struct Oracle {
    embeddings: FeatureMatrix,
    stages: Vec<StageDensity>,
    /// `(input_density, output_density)` per kernel.
    io: Vec<(f64, f64)>,
    /// Each kernel's input profiled at the granularity its scheme uses.
    input_profiles: Vec<DensityProfile>,
}

fn run_oracle(model: &GnnModel, dataset: &GraphDataset, plan: &CompiledPlan) -> Oracle {
    let (spec, vertices) = (plan.partition(), plan.num_vertices());
    let kernels = &plan.program().kernels;
    let (mut stages, mut io, mut input_profiles) = (Vec::new(), Vec::new(), Vec::new());
    let embeddings = ReferenceExecutor::new(model, &dataset.graph)
        .forward_with(&dataset.features, |_, _, _, input, out| {
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

/// Prices the oracle's kernel inputs under `strategy` with a fresh
/// `Analyzer`/`Scheduler`: total cycles and per-kernel primitive mix.  In
/// bucketed cache mode a session prices each profile's bucket
/// representative, so the expectation does too.
fn price_oracle(
    plan: &CompiledPlan,
    oracle: &Oracle,
    strategy: MappingStrategy,
    mode: PricingCacheMode,
) -> (u64, Vec<PrimitiveMix>) {
    let program = plan.program();
    let accelerator = plan.options().accelerator;
    let analyzer = Analyzer::new(ComputationCore::new(accelerator), strategy);
    let mut scheduler = Scheduler::new(accelerator.num_cores);
    let mut quantized = DensityProfile::default();
    let mixes = program
        .kernels
        .iter()
        .zip(&oracle.input_profiles)
        .map(|(compiled, exact)| {
            let features = if mode == PricingCacheMode::Bucketed {
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
            scheduler.schedule_kernel(compiled.ir.id, &analysis);
            analysis.mix
        })
        .collect();
    (scheduler.total_cycles(), mixes)
}

fn assert_equivalent(model: &GnnModel, dataset: &GraphDataset, label: &str) {
    let strategies = MappingStrategy::paper_strategies();
    for parallel in [false, true] {
        let plan = Planner::new(options(parallel))
            .plan(model, dataset)
            .unwrap();
        let want = run_oracle(model, dataset, &plan);
        let mut session = plan.session(&strategies);
        // Two requests: the second exercises steady-state arena reuse.
        let _first = session.infer(&dataset.features).unwrap();
        let got = session.infer(&dataset.features).unwrap();

        assert_eq!(
            got.output_embeddings.to_dense().as_slice(),
            want.embeddings.to_dense().as_slice(),
            "{label} (parallel={parallel}): embeddings must be bit-identical"
        );
        assert_eq!(
            got.density_trace.stages, want.stages,
            "{label} (parallel={parallel}): density traces must match"
        );
        for g in &got.runs {
            let (total_cycles, mixes) =
                price_oracle(&plan, &want, g.strategy, session.pricing_mode());
            assert_eq!(
                g.total_cycles,
                total_cycles,
                "{label} (parallel={parallel}, {}): modeled cycles must match",
                g.strategy.label()
            );
            assert_eq!(g.kernels.len(), mixes.len());
            for ((gk, mix), (input_density, output_density)) in
                g.kernels.iter().zip(mixes).zip(&want.io)
            {
                assert_eq!(gk.mix, mix, "{label}: primitive mix must match");
                assert_eq!(gk.input_density, *input_density);
                assert_eq!(gk.output_density, *output_density);
            }
        }
    }
}

#[test]
fn every_model_kind_is_equivalent_on_dense_features() {
    let dataset = Dataset::Cora.spec().generate_scaled(5, 0.12);
    for kind in GnnModelKind::all() {
        let model = GnnModel::standard(
            kind,
            dataset.features.dim(),
            16,
            dataset.spec.num_classes,
            7,
        );
        assert_equivalent(&model, &dataset, kind.name());
    }
}

#[test]
fn sparse_stored_features_are_equivalent() {
    // NELL-like storage: very sparse features kept in CSR, which drives the
    // sparse-sparse aggregate route (and the keep-sparse output rule).
    let mut dataset = Dataset::Cora.spec().generate_scaled(11, 0.12);
    let dense = dataset.features.to_dense();
    dataset.features = FeatureMatrix::Sparse(dynasparse_matrix::CsrMatrix::from_dense(&dense));
    let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 3);
    assert_equivalent(&model, &dataset, "gcn/sparse-features");
}

#[test]
fn pruned_weights_are_equivalent() {
    // 95% magnitude pruning makes the weights SPMM-eligible, exercising the
    // cached-CSR sparse-sparse update route.
    let mut dataset = Dataset::Cora.spec().generate_scaled(13, 0.12);
    let dense = dataset.features.to_dense();
    dataset.features = FeatureMatrix::Sparse(dynasparse_matrix::CsrMatrix::from_dense(&dense));
    let model = prune_model(
        &GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 9),
        0.95,
    );
    assert_equivalent(&model, &dataset, "gcn/pruned");
}

#[test]
fn fully_dense_features_take_the_gemm_route_and_match() {
    let mut dataset = Dataset::Cora.spec().generate_scaled(17, 0.12);
    let (v, f) = dataset.features.shape();
    dataset.features =
        FeatureMatrix::Dense(dynasparse_matrix::DenseMatrix::from_fn(v, f, |r, c| {
            ((r * 31 + c * 7) % 13) as f32 * 0.1 + 0.05
        }));
    let model = GnnModel::gcn(f, 16, dataset.spec.num_classes, 21);
    assert_equivalent(&model, &dataset, "gcn/full-density");
}

#[test]
fn dispatch_strategies_price_identically_to_engine_wrapper() {
    // The one-shot Engine wrapper rides the same session machinery; its
    // dynamic strategy must still beat or match the static mappings.
    let dataset = Dataset::Cora.spec().generate_scaled(23, 0.12);
    let model = GnnModel::gcn(dataset.features.dim(), 16, dataset.spec.num_classes, 2);
    let eval = dynasparse::Engine::new(EngineOptions::default())
        .evaluate(&model, &dataset, &MappingStrategy::paper_strategies())
        .unwrap();
    let dynamic = eval.run(Strategy::Dynamic).unwrap();
    let s1 = eval.run(Strategy::Static1).unwrap();
    assert!(dynamic.total_cycles <= s1.total_cycles);
}
