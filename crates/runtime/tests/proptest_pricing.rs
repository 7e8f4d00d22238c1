//! Property-based tests of the pricing-cache key machinery: keys must be a
//! total, stable function of profile *content* — independent of how the
//! profile was built (fresh vs. refit into reused scratch) and of what the
//! scratch held before — and the density-bucket grid must preserve exact
//! zeros (Skip decisions) while bounding the distortion of everything else.
//!
//! The last property is the Analyzer's differential oracle: every other
//! pricing expectation in the workspace (`tests/common::price_oracle`,
//! `tests/pricing_cache.rs`) is computed *with* the Analyzer, so only a
//! composition that does not go through it can catch a wrong cost table.

use dynasparse_accel::{AcceleratorConfig, ComputationCore, Primitive};
use dynasparse_compiler::schemes::generate_tasks;
use dynasparse_compiler::{CompiledKernel, ComputationGraph, KernelKind};
use dynasparse_matrix::{BlockGrid, DenseMatrix, DensityProfile, PartitionSpec};
use dynasparse_model::GnnModel;
use dynasparse_runtime::pricing::{bucket_nnz, density_bucket, quantize_profile_into, SKIP_BUCKET};
use dynasparse_runtime::{
    Analyzer, KernelAnalysis, MappingStrategy, OperandProfiles, PricingCacheMode, PricingKey,
    PrimitiveMix,
};
use proptest::prelude::*;

/// Strategy: a small dense matrix with a random zero-heavy value mix, so the
/// profiles cover empty, sparse and dense blocks.
fn dense_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![
                3 => Just(0.0f32),
                2 => (-5.0f32..5.0).prop_filter("non-zero", |v| *v != 0.0),
            ],
            rows * cols,
        )
        .prop_map(move |data| DenseMatrix::from_row_major(rows, cols, data).unwrap())
    })
}

fn keys_for(profile: &DensityProfile) -> Vec<PricingKey> {
    MappingStrategy::paper_strategies()
        .iter()
        .map(|&s| PricingKey::base(7, 11, 2, PricingCacheMode::Bucketed, profile).with_strategy(s))
        .collect()
}

/// A profile over `grid` whose block occupancies mix the corner cases a
/// cost keyed on occupancy has to get right — empty, a single non-zero,
/// full — with everything in between.
fn feature_profile(grid: BlockGrid) -> impl Strategy<Value = DensityProfile> {
    let area = grid.block_rows() * grid.block_cols();
    let blocks = grid.grid_rows() * grid.grid_cols();
    collection::vec(
        prop_oneof![Just(0usize), Just(1usize), Just(area), 0..=area],
        blocks,
    )
    .prop_map(move |counts| profile_over(&grid, counts))
}

fn profile_over(grid: &BlockGrid, counts: Vec<usize>) -> DensityProfile {
    let (rows, cols) = grid.shape();
    DensityProfile::from_block_nnz(rows, cols, grid, counts)
}

/// A weight profile over `grid` in one of the regimes the sparsification
/// papers prune to: unpruned, about 90 % pruned, 99.9 % pruned, all zero.
fn weight_profile(grid: BlockGrid) -> impl Strategy<Value = DensityProfile> {
    let area = grid.block_rows() * grid.block_cols();
    let blocks = grid.grid_rows() * grid.grid_cols();
    prop_oneof![
        Just(vec![area; blocks]),
        collection::vec(0..=area.div_ceil(5), blocks),
        collection::vec(prop_oneof![19 => Just(0usize), 1 => Just(1usize)], blocks),
        Just(vec![0; blocks]),
    ]
    .prop_map(move |counts| profile_over(&grid, counts))
}

/// One Update kernel (`H (v × f_in) × W (f_in × hidden)`) and the Aggregate
/// kernel behind it (`A (v × v) × H (v × hidden)`), with a profile for every
/// operand and a budget for the stationary one.
#[derive(Debug)]
struct PricingProblem {
    kernels: Vec<CompiledKernel>,
    adjacency: DensityProfile,
    weights: Vec<DensityProfile>,
    /// Input features of the Update (subfibers) and of the Aggregate (fibers).
    features: [DensityProfile; 2],
    operand_cache_bytes: usize,
}

fn pricing_problem() -> impl Strategy<Value = PricingProblem> {
    (
        1usize..=40,
        1usize..=40,
        1usize..=20,
        (1usize..=6, 1usize..=3),
        // Nothing fits, only small operands fit, everything fits.
        prop_oneof![Just(0usize), Just(512usize), Just(4usize << 20)],
        // A degenerate instantiation: the first task has no products.
        prop_oneof![3 => Just(false), 1 => Just(true)],
    )
        .prop_flat_map(
            |(v, f_in, hidden, (n2, subfibers), operand_cache_bytes, strip)| {
                let spec = PartitionSpec::new(n2 * subfibers, n2).unwrap();
                let graph = ComputationGraph::from_model(&GnnModel::gcn(f_in, hidden, 3, 1), v, 0);
                let kernels: Vec<CompiledKernel> = graph.kernels[..2]
                    .iter()
                    .map(|ir| {
                        let mut tasks = generate_tasks(ir, &spec);
                        if strip {
                            tasks[0].pairs.clear();
                        }
                        CompiledKernel {
                            ir: ir.clone(),
                            tasks,
                        }
                    })
                    .collect();
                assert_eq!(kernels[0].ir.kind, KernelKind::Update);
                assert_eq!(kernels[1].ir.kind, KernelKind::Aggregate);
                (
                    feature_profile(spec.adjacency_grid(v)),
                    weight_profile(spec.weight_grid(f_in, hidden)),
                    feature_profile(spec.subfiber_grid(v, f_in)),
                    feature_profile(spec.feature_grid(v, hidden)),
                )
                    .prop_map(
                        move |(adjacency, weight, update_in, aggregate_in)| PricingProblem {
                            kernels: kernels.clone(),
                            adjacency,
                            weights: vec![weight],
                            features: [update_in, aggregate_in],
                            operand_cache_bytes,
                        },
                    )
            },
        )
}

/// The Analyzer as a plain composition of the Computation Core's per-product
/// and per-task models: every block product looked up, decided and priced on
/// its own, every task's products collected and handed to
/// `execute_task_analytic`.
fn naive_analysis(
    core: &ComputationCore,
    strategy: MappingStrategy,
    kernel: &CompiledKernel,
    profiles: &OperandProfiles<'_>,
) -> KernelAnalysis {
    let perf = core.performance_model();
    let stationary = match kernel.ir.kind {
        KernelKind::Aggregate => profiles.features,
        KernelKind::Update => &profiles.weights[kernel.ir.weight.unwrap()],
    };
    let (y_rows, y_cols) = stationary.block_shape();
    let stationary_bytes: usize = stationary
        .block_counts()
        .iter()
        .map(|&nnz| dynasparse_accel::BlockOperand::new(y_rows, y_cols, nnz).stored_bytes())
        .sum();
    let resident_y = stationary_bytes <= core.config().operand_cache_bytes;
    let mut loaded = std::collections::HashSet::new();
    let mut analysis = KernelAnalysis {
        task_cycles: Vec::new(),
        decisions: 0,
        mix: PrimitiveMix::default(),
        total_cycles: 0,
    };
    for task in &kernel.tasks {
        let mut executions = Vec::new();
        let (mut out_rows, mut out_cols) = (0, 0);
        for pair in &task.pairs {
            let (x, y) = (profiles.lookup(&pair.x), profiles.lookup(&pair.y));
            (out_rows, out_cols) = (x.rows, y.cols);
            let decision = strategy.decide(kernel.ir.kind, x.density(), y.density(), perf);
            analysis.decisions += usize::from(strategy.uses_runtime_sparsity());
            match decision.primitive {
                Some(Primitive::Gemm) => analysis.mix.gemm += 1,
                Some(Primitive::SpDmm) => analysis.mix.spdmm += 1,
                Some(Primitive::Spmm) => analysis.mix.spmm += 1,
                None => analysis.mix.skipped += 1,
            }
            let mut execution = core.execute_pair_analytic(decision.primitive, &x, &y);
            if decision.primitive == Some(Primitive::SpDmm) {
                let (ax, ay) = (x.density(), y.density());
                let forced = strategy.pair_cycles(&decision, x.rows, x.cols, y.cols, ax, ay, perf);
                execution.compute_cycles = forced + 1;
            }
            // An executed product leaves its Y block on-chip; a later one
            // does not load it again.
            if resident_y
                && decision.primitive.is_some()
                && !loaded.insert((pair.y.grid_row, pair.y.grid_col))
            {
                execution.load_cycles -= core.operand_load_cycles(&y);
            }
            executions.push(execution);
        }
        let task = core.execute_task_analytic(&executions, out_rows, out_cols);
        analysis.task_cycles.push(task.total_cycles);
    }
    analysis.total_cycles = analysis.task_cycles.iter().sum();
    analysis
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Analyzer::analyze_kernel` equals the naive composition field for
    /// field: both kernel kinds, grids from a single block to ragged edges,
    /// every strategy, exact and bucket-representative feature profiles, the
    /// stationary operand resident or not.
    #[test]
    fn analyzer_equals_the_naive_composition(problem in pricing_problem()) {
        let core = ComputationCore::new(AcceleratorConfig {
            operand_cache_bytes: problem.operand_cache_bytes,
            ..AcceleratorConfig::default()
        });
        for (kernel, exact) in problem.kernels.iter().zip(&problem.features) {
            let mut representative = DensityProfile::default();
            quantize_profile_into(exact, &mut representative);
            for features in [exact, &representative] {
                let profiles = OperandProfiles {
                    adjacency: &problem.adjacency,
                    weights: &problem.weights,
                    features,
                };
                for strategy in [
                    MappingStrategy::Static1,
                    MappingStrategy::Static2,
                    MappingStrategy::Dynamic,
                    MappingStrategy::Oracle,
                ] {
                    prop_assert_eq!(
                        Analyzer::new(core, strategy).analyze_kernel(kernel, &profiles),
                        naive_analysis(&core, strategy, kernel, &profiles),
                        "{:?} {:?} over {:?}", kernel.ir.kind, strategy, problem
                    );
                }
            }
        }
    }

    /// Equal profile content gives equal keys regardless of construction
    /// path: a profile refit into scratch that previously held a *different*
    /// profile must key identically to a freshly built one.
    #[test]
    fn keys_depend_on_content_not_construction(
        m in dense_matrix(24, 24),
        decoy in dense_matrix(24, 24),
        block in 1usize..=8,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block, block);
        let fresh = DensityProfile::of_dense(&m, &grid);

        let decoy_grid = BlockGrid::new(decoy.rows(), decoy.cols(), block, block);
        let mut scratch = DensityProfile::of_dense(&decoy, &decoy_grid);
        scratch.refit_dense(&m, &grid);

        prop_assert_eq!(keys_for(&fresh), keys_for(&scratch));
        // Strategies must stay separated (total order of distinct tags).
        let dynamic = PricingKey::base(7, 11, 2, PricingCacheMode::Bucketed, &fresh)
            .with_strategy(MappingStrategy::Dynamic);
        let s1 = PricingKey::base(7, 11, 2, PricingCacheMode::Bucketed, &fresh)
            .with_strategy(MappingStrategy::Static1);
        prop_assert_ne!(dynamic, s1);
    }

    /// `density_bucket` is total — no occupancy, however degenerate
    /// (empty, over-full, zero-area), may panic or produce a non-Skip bucket
    /// for an empty block.
    #[test]
    fn buckets_are_total_and_zero_preserving(
        nnz in 0usize..=40_960,
        area in 0usize..=4_096,
    ) {
        let b = density_bucket(nnz, area);
        if nnz == 0 || area == 0 {
            prop_assert_eq!(b, SKIP_BUCKET);
            prop_assert_eq!(bucket_nnz(b, area), 0);
        } else {
            prop_assert_ne!(b, SKIP_BUCKET);
            let rep = bucket_nnz(b, area);
            prop_assert!(rep >= 1 && rep <= area);
        }
    }

    /// The bucket representative distorts a real occupancy by at most the
    /// advertised quarter-octave factor (plus integer rounding).
    #[test]
    fn bucket_distortion_stays_bounded(
        area in 1usize..=4_096,
        frac in 0.0f64..=1.0,
    ) {
        let nnz = ((frac * area as f64) as usize).clamp(1, area);
        let rep = bucket_nnz(density_bucket(nnz, area), area);
        let ratio = rep as f64 / nnz as f64;
        let slack = 1.0 / nnz as f64;
        let bound = dynasparse_runtime::pricing::BUCKET_MAX_RATIO;
        prop_assert!(
            ratio <= bound + slack && ratio >= 1.0 / bound - slack,
            "area {} nnz {} rep {} ratio {}", area, nnz, rep, ratio
        );
    }

    /// Quantization snaps blocks to representatives without ever turning a
    /// non-empty block empty (or vice versa), and profiles that share every
    /// block bucket quantize to the same representative profile.
    #[test]
    fn quantization_preserves_emptiness_and_bucket_classes(
        m in dense_matrix(24, 24),
        block in 1usize..=8,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block, block);
        let profile = DensityProfile::of_dense(&m, &grid);
        let mut quantized = DensityProfile::of_dense(&m, &grid);
        quantize_profile_into(&profile, &mut quantized);
        prop_assert_eq!(profile.shape(), quantized.shape());
        prop_assert_eq!(profile.grid_shape(), quantized.grid_shape());
        let (br, bc) = profile.block_shape();
        let area = br * bc;
        for (&orig, &snap) in profile
            .block_counts()
            .iter()
            .zip(quantized.block_counts())
        {
            prop_assert_eq!(orig == 0, snap == 0, "emptiness must be preserved");
            prop_assert_eq!(snap, bucket_nnz(density_bucket(orig, area), area));
        }
    }
}

/// Bucket-interior exactness, end to end through the Analyzer: a feature
/// profile whose every block sits exactly at its bucket's representative
/// occupancy is a fixed point of quantization, so the bucketed cache prices
/// it bit-identically to an uncached analysis — for every paper strategy.
/// (Representatives are guaranteed fixed points only over power-of-two block
/// areas, which the compiler's subfiber partition provides.)
#[test]
fn analysis_is_exact_at_bucket_representatives() {
    use dynasparse_accel::{AcceleratorConfig, ComputationCore};
    use dynasparse_compiler::{compile, CompilerConfig, KernelKind};
    use dynasparse_graph::Dataset;
    use dynasparse_model::GnnModel;

    let ds = Dataset::Cora.spec().generate_scaled(7, 0.3);
    let model = GnnModel::gcn(ds.features.dim(), 16, 7, 3);
    let program = compile(&model, &ds, &CompilerConfig::default()).program;
    let spec = program.partition;
    let v = ds.graph.num_vertices();
    let f = ds.features.dim();
    let grid = spec.subfiber_grid(v, f);
    let area = grid.block_rows() * grid.block_cols();
    assert!(
        area.is_power_of_two(),
        "subfiber blocks must have power-of-two area for exact representatives"
    );

    // Every block pinned to a representative occupancy, cycling a spread of
    // buckets (including Skip) across the grid.
    let buckets: [u8; 8] = [SKIP_BUCKET, 1, 2, 3, 5, 8, 13, 21];
    let cells = grid.grid_rows() * grid.grid_cols();
    let counts: Vec<usize> = (0..cells)
        .map(|i| bucket_nnz(buckets[i % buckets.len()], area))
        .collect();
    let profile = DensityProfile::from_block_nnz(v, f, &grid, counts.clone());
    let mut quantized = DensityProfile::from_block_nnz(v, f, &grid, counts);
    quantize_profile_into(&profile, &mut quantized);
    assert_eq!(
        profile.block_counts(),
        quantized.block_counts(),
        "representative occupancies must be fixed points of quantization"
    );

    let kernel = program
        .kernels
        .iter()
        .find(|k| matches!(k.ir.kind, KernelKind::Update))
        .expect("the compiled GCN must contain an Update kernel");
    for strategy in MappingStrategy::paper_strategies() {
        let fresh = Analyzer::new(ComputationCore::new(AcceleratorConfig::default()), strategy)
            .analyze_kernel(
                kernel,
                &OperandProfiles {
                    adjacency: &program.static_sparsity.adjacency,
                    weights: &program.static_sparsity.weights,
                    features: &profile,
                },
            );
        let cached = Analyzer::new(ComputationCore::new(AcceleratorConfig::default()), strategy)
            .analyze_kernel(
                kernel,
                &OperandProfiles {
                    adjacency: &program.static_sparsity.adjacency,
                    weights: &program.static_sparsity.weights,
                    features: &quantized,
                },
            );
        assert_eq!(
            fresh, cached,
            "{strategy:?}: pricing at a bucket representative must be exact"
        );
    }
}
