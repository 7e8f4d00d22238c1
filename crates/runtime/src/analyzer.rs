//! The Analyzer: dynamic kernel-to-primitive mapping over a compiled kernel.
//!
//! For each computation task of a kernel the Analyzer walks the task's block
//! products, fetches the densities of the two operand partitions (from the
//! compile-time profiles for `A`, `W` and `H⁰`, and from the runtime
//! Sparsity Profiler's output for intermediate feature matrices), applies the
//! mapping strategy and prices the task with the Computation Core's cycle
//! model.  The result is the per-task cycle cost the Scheduler distributes
//! over the cores, plus the bookkeeping needed for the overhead analysis
//! (how many decisions the soft processor made, how many products were
//! skipped, which primitives were used).
//!
//! Every block of an operand is described at the profile's nominal block
//! shape, so within one kernel and strategy a product's decision and cycle
//! breakdown depend on nothing but the two blocks' non-zero counts.  The
//! walk therefore prices each *distinct* `(x_nnz, y_nnz)` once and looks the
//! rest up in a bounded table; only the stationary operand's residency
//! discount and the double-buffered fold of a task depend on the position of
//! a product, and those stay in the walk.

use crate::strategy::MappingStrategy;
use dynasparse_accel::{BlockOperand, ComputationCore, PairExecution, Primitive, TaskAccumulator};
use dynasparse_compiler::{BlockRef, CompiledKernel, KernelKind, OperandKind};
use dynasparse_matrix::DensityProfile;
use serde::{Deserialize, Serialize};

/// Density profiles of every operand a kernel can reference.
#[derive(Debug, Clone, Copy)]
pub struct OperandProfiles<'a> {
    /// Profile of the normalized adjacency matrix (`N1 × N1` blocks).
    pub adjacency: &'a DensityProfile,
    /// Profiles of the weight matrices (`N2 × N2` blocks), indexed by the
    /// model's weight index.
    pub weights: &'a [DensityProfile],
    /// Profile of the kernel's input feature matrix at the granularity the
    /// kernel needs (fibers for Aggregate, subfibers for Update).
    pub features: &'a DensityProfile,
}

impl<'a> OperandProfiles<'a> {
    fn profile(&self, operand: OperandKind) -> &'a DensityProfile {
        match operand {
            OperandKind::Adjacency => self.adjacency,
            OperandKind::Features => self.features,
            OperandKind::Weight(w) => &self.weights[w],
        }
    }

    /// Resolves a block reference to its shape and occupancy.
    pub fn lookup(&self, block: &BlockRef) -> BlockOperand {
        let profile = self.profile(block.operand);
        let (rows, cols) = profile.block_shape();
        let nnz = profile.block_nnz(block.grid_row, block.grid_col);
        BlockOperand::new(rows, cols, nnz)
    }
}

/// How many block products were mapped to each primitive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrimitiveMix {
    /// Products executed as GEMM.
    pub gemm: usize,
    /// Products executed as SpDMM.
    pub spdmm: usize,
    /// Products executed as SPMM.
    pub spmm: usize,
    /// Products skipped because an operand partition was empty.
    pub skipped: usize,
}

impl PrimitiveMix {
    fn record(&mut self, primitive: Option<Primitive>) {
        match primitive {
            Some(Primitive::Gemm) => self.gemm += 1,
            Some(Primitive::SpDmm) => self.spdmm += 1,
            Some(Primitive::Spmm) => self.spmm += 1,
            None => self.skipped += 1,
        }
    }

    /// Total number of block products considered.
    pub fn total(&self) -> usize {
        self.gemm + self.spdmm + self.spmm + self.skipped
    }
}

/// Result of analyzing one kernel under one mapping strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelAnalysis {
    /// Cycle cost of each task of the kernel (same order as the compiled
    /// kernel's task list).
    pub task_cycles: Vec<u64>,
    /// Number of kernel-to-primitive decisions the soft processor made
    /// (one per block product for the dynamic strategies, zero for static
    /// mappings which are fixed at compile time).
    pub decisions: usize,
    /// Primitive usage statistics.
    pub mix: PrimitiveMix,
    /// Total compute cycles summed over tasks before scheduling (a lower
    /// bound on makespan × cores).
    pub total_cycles: u64,
}

impl KernelAnalysis {
    /// Largest single-task cost (a lower bound on the kernel makespan).
    pub fn critical_task_cycles(&self) -> u64 {
        self.task_cycles.iter().copied().max().unwrap_or(0)
    }
}

/// What one block product costs as a function of its operands' occupancies.
#[derive(Debug, Clone, Copy)]
struct PairCost {
    x_nnz: usize,
    y_nnz: usize,
    /// Decision and cycle breakdown with both operands streamed from DDR.
    exec: PairExecution,
    /// The Y block's share of `exec.load_cycles`: what the product saves
    /// when the stationary operand is already resident on-chip.
    y_load_cycles: u64,
}

/// Most slots a [`PairCostTable`] ever has (56 KB).  Bucket-representative
/// features against unpruned weights make a few dozen distinct products per
/// kernel; exact counts against 90 %-pruned weights make several hundred,
/// and measured 2x slower at 256 slots than at 1024.
const MAX_COST_SLOTS: usize = 1024;

/// Direct-mapped memo of [`PairCost`]s keyed on `(x_nnz, y_nnz)`.  A slot
/// holds the last product priced into it and a colliding key prices afresh,
/// so the table bounds the Analyzer's memory, never what it computes.
struct PairCostTable {
    slots: Vec<Option<PairCost>>,
}

impl PairCostTable {
    /// A table for a kernel of `pairs` block products: one slot per product
    /// up to [`MAX_COST_SLOTS`], so a one-product ego-net kernel does not
    /// set up (or clear) a full-graph-sized table.
    fn for_pairs(pairs: usize) -> PairCostTable {
        let slots = pairs.clamp(1, MAX_COST_SLOTS).next_power_of_two();
        PairCostTable {
            slots: vec![None; slots],
        }
    }

    /// The cost of a product over blocks of `x_nnz` and `y_nnz` non-zeros,
    /// priced by `price` unless the slot already holds it.
    #[inline]
    fn get_or_price(
        &mut self,
        x_nnz: usize,
        y_nnz: usize,
        price: impl FnOnce() -> PairCost,
    ) -> PairCost {
        // Fibonacci hashing: occupancies are small integers, and the top
        // bits of the product spread consecutive ones over the table.
        let hash = (x_nnz as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (y_nnz as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        let index = (hash >> (64 - MAX_COST_SLOTS.trailing_zeros())) as usize;
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[index & mask];
        match slot {
            Some(cost) if cost.x_nnz == x_nnz && cost.y_nnz == y_nnz => *cost,
            _ => *slot.insert(price()),
        }
    }
}

/// The Analyzer, bound to a Computation Core's cycle model and a strategy.
#[derive(Debug, Clone, Copy)]
pub struct Analyzer {
    core: ComputationCore,
    strategy: MappingStrategy,
}

impl Analyzer {
    /// Creates an Analyzer for the given core model and mapping strategy.
    pub fn new(core: ComputationCore, strategy: MappingStrategy) -> Self {
        Analyzer { core, strategy }
    }

    /// The mapping strategy in use.
    pub fn strategy(&self) -> MappingStrategy {
        self.strategy
    }

    /// Decides and prices one block product `X × Y` of a `kind` kernel, both
    /// operands streamed from DDR.
    fn price_pair(&self, kind: KernelKind, x: &BlockOperand, y: &BlockOperand) -> PairCost {
        let perf = self.core.performance_model();
        let decision = self.strategy.decide(kind, x.density(), y.density(), perf);
        // Compute cycles under the strategy's (possibly forced-role)
        // pricing, then let the core add load/transform costs.
        let mut exec = self.core.execute_pair_analytic(decision.primitive, x, y);
        if decision.primitive == Some(Primitive::SpDmm) {
            let forced = self.strategy.pair_cycles(
                &decision,
                x.rows,
                x.cols,
                y.cols,
                x.density(),
                y.density(),
                perf,
            );
            // Preserve the mode-switch cycle the core added.
            exec.compute_cycles = forced + 1;
        }
        PairCost {
            x_nnz: x.nnz,
            y_nnz: y.nnz,
            exec,
            y_load_cycles: self.core.operand_load_cycles(y),
        }
    }

    /// Analyzes one compiled kernel: decides a primitive for every block
    /// product and prices every task.  A product's `X` (`Y`) block is read
    /// from the `X` (`Y`) operand of the kernel's execution scheme:
    /// adjacency × features for an Aggregate (Algorithm 2), features ×
    /// weight for an Update (Algorithm 3).
    pub fn analyze_kernel(
        &self,
        kernel: &CompiledKernel,
        profiles: &OperandProfiles<'_>,
    ) -> KernelAnalysis {
        let kind = kernel.ir.kind;
        let (x_operand, y_operand) = match kind {
            KernelKind::Aggregate => (OperandKind::Adjacency, OperandKind::Features),
            KernelKind::Update => (
                OperandKind::Features,
                kernel
                    .ir
                    .weight
                    .map_or(OperandKind::Features, OperandKind::Weight),
            ),
        };
        let (x_profile, y_profile) = (profiles.profile(x_operand), profiles.profile(y_operand));
        let (x_rows, x_cols) = x_profile.block_shape();
        let (y_rows, y_cols) = y_profile.block_shape();

        // The Y-side operand of a kernel is *stationary*: every task of an
        // Update kernel walks the same weight blocks, every task of an
        // Aggregate kernel walks the same feature fibers of its column.  When
        // the whole operand fits the on-chip operand-cache budget it is
        // loaded once and reused, so its DDR traffic is charged only on the
        // first touch of each block.
        let y_total_bytes: usize = y_profile
            .block_counts()
            .iter()
            .map(|&nnz| BlockOperand::new(y_rows, y_cols, nnz).stored_bytes())
            .sum();
        let cache_y = y_total_bytes <= self.core.config().operand_cache_bytes;
        // Residency map of the stationary operand's blocks: a flat bitmap
        // indexed by grid position (a hash set per kernel costs a SipHash
        // per block product on the serving hot path).
        let y_grid_cols = y_profile.grid_shape().1;
        let mut y_loaded = vec![false; y_profile.block_count()];

        // Output partition shape: rows from the X operand tiling, cols from
        // the Y operand tiling.
        let store_cycles = self.core.task_store_cycles(x_rows, y_cols);
        let pairs = kernel.total_pairs();
        let mut costs = PairCostTable::for_pairs(pairs);
        let mut task_cycles = Vec::with_capacity(kernel.tasks.len());
        let mut mix = PrimitiveMix::default();
        for task in &kernel.tasks {
            let mut pipeline = TaskAccumulator::default();
            for pair in &task.pairs {
                debug_assert_eq!(
                    (pair.x.operand, pair.y.operand),
                    (x_operand, y_operand),
                    "block products follow the kernel's execution scheme"
                );
                let x_nnz = x_profile.block_nnz(pair.x.grid_row, pair.x.grid_col);
                let y_nnz = y_profile.block_nnz(pair.y.grid_row, pair.y.grid_col);
                let cost = costs.get_or_price(x_nnz, y_nnz, || {
                    self.price_pair(
                        kind,
                        &BlockOperand::new(x_rows, x_cols, x_nnz),
                        &BlockOperand::new(y_rows, y_cols, y_nnz),
                    )
                });
                mix.record(cost.exec.primitive);
                let mut exec = cost.exec;
                if cache_y && exec.primitive.is_some() {
                    let slot = &mut y_loaded[pair.y.grid_row * y_grid_cols + pair.y.grid_col];
                    if *slot {
                        // Stationary operand already resident on-chip.
                        exec.load_cycles = exec.load_cycles.saturating_sub(cost.y_load_cycles);
                    } else {
                        *slot = true;
                    }
                }
                pipeline.push(&exec);
            }
            // A task without products has no output partition to write back.
            let store = if task.pairs.is_empty() {
                0
            } else {
                store_cycles
            };
            task_cycles.push(pipeline.total_cycles(store));
        }

        let total_cycles = task_cycles.iter().sum();
        KernelAnalysis {
            task_cycles,
            // The soft processor decides once per product, or never.
            decisions: if self.strategy.uses_runtime_sparsity() {
                pairs
            } else {
                0
            },
            mix,
            total_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_accel::AcceleratorConfig;
    use dynasparse_compiler::{compile, CompilerConfig};
    use dynasparse_graph::Dataset;
    use dynasparse_matrix::DensityProfile;
    use dynasparse_model::{prune_model, GnnModel};

    struct Fixture {
        program: dynasparse_compiler::CompiledProgram,
        features_fiber: DensityProfile,
        features_subfiber: DensityProfile,
    }

    fn fixture(weight_sparsity: f64) -> Fixture {
        let ds = Dataset::Cora.spec().generate_scaled(7, 0.3);
        let mut model = GnnModel::gcn(ds.features.dim(), 16, 7, 3);
        if weight_sparsity > 0.0 {
            model = prune_model(&model, weight_sparsity);
        }
        let report = compile(&model, &ds, &CompilerConfig::default());
        let spec = report.program.partition;
        let v = ds.graph.num_vertices();
        let f = ds.features.dim();
        let features_fiber = ds.features.density_profile(&spec.feature_grid(v, f));
        let features_subfiber = ds.features.density_profile(&spec.subfiber_grid(v, f));
        Fixture {
            program: report.program,
            features_fiber,
            features_subfiber,
        }
    }

    fn core() -> ComputationCore {
        ComputationCore::new(AcceleratorConfig::default())
    }

    fn analyze(fix: &Fixture, kernel_idx: usize, strategy: MappingStrategy) -> KernelAnalysis {
        let kernel = &fix.program.kernels[kernel_idx];
        let features = match kernel.ir.kind {
            dynasparse_compiler::KernelKind::Aggregate => &fix.features_fiber,
            dynasparse_compiler::KernelKind::Update => &fix.features_subfiber,
        };
        let profiles = OperandProfiles {
            adjacency: &fix.program.static_sparsity.adjacency,
            weights: &fix.program.static_sparsity.weights,
            features,
        };
        Analyzer::new(core(), strategy).analyze_kernel(kernel, &profiles)
    }

    #[test]
    fn analysis_produces_one_cost_per_task() {
        let fix = fixture(0.0);
        for k in 0..fix.program.kernels.len() {
            let a = analyze(&fix, k, MappingStrategy::Dynamic);
            assert_eq!(a.task_cycles.len(), fix.program.kernels[k].tasks.len());
            assert_eq!(a.mix.total(), fix.program.kernels[k].total_pairs());
            assert!(a.total_cycles > 0);
            assert!(a.critical_task_cycles() <= a.total_cycles);
        }
    }

    #[test]
    fn dynamic_first_update_exploits_sparse_input_features_vs_static1() {
        let fix = fixture(0.0);
        // Kernel 0 is Update(H0, W1); H0 of Cora is ~1% dense.
        let dynamic = analyze(&fix, 0, MappingStrategy::Dynamic);
        let s1 = analyze(&fix, 0, MappingStrategy::Static1);
        assert!(
            dynamic.total_cycles * 3 < s1.total_cycles,
            "dynamic {} vs S1 {}",
            dynamic.total_cycles,
            s1.total_cycles
        );
        // S1 maps everything to GEMM, skipping nothing.
        assert_eq!(s1.mix.gemm, s1.mix.total());
        assert_eq!(s1.decisions, 0);
        assert!(dynamic.decisions > 0);
    }

    #[test]
    fn dynamic_matches_static2_on_unpruned_gcn_first_update() {
        // With 100%-dense weights both Dynamic and S2 exploit only the H0
        // sparsity of the first Update kernel, so they should be close
        // (the paper observes the same on GCN, Section VIII-B).
        let fix = fixture(0.0);
        let dynamic = analyze(&fix, 0, MappingStrategy::Dynamic);
        let s2 = analyze(&fix, 0, MappingStrategy::Static2);
        let ratio = s2.total_cycles as f64 / dynamic.total_cycles as f64;
        assert!(ratio >= 1.0, "dynamic should not lose: ratio {ratio}");
        assert!(
            ratio < 2.5,
            "dynamic and S2 should be comparable: ratio {ratio}"
        );
    }

    #[test]
    fn pruned_weights_widen_the_gap_over_static2() {
        let unpruned = fixture(0.0);
        let pruned = fixture(0.95);
        // Second-layer Update (kernel 2) has a dense feature input, so S2
        // gains nothing there while Dynamic exploits the pruned weights.
        let d_unpruned = analyze(&unpruned, 2, MappingStrategy::Dynamic);
        let s2_unpruned = analyze(&unpruned, 2, MappingStrategy::Static2);
        let d_pruned = analyze(&pruned, 2, MappingStrategy::Dynamic);
        let s2_pruned = analyze(&pruned, 2, MappingStrategy::Static2);
        let gap_unpruned = s2_unpruned.total_cycles as f64 / d_unpruned.total_cycles as f64;
        let gap_pruned = s2_pruned.total_cycles as f64 / d_pruned.total_cycles as f64;
        assert!(
            gap_pruned > gap_unpruned,
            "pruning should widen the gap: {gap_unpruned} -> {gap_pruned}"
        );
    }

    #[test]
    fn empty_kernel_analyzes_to_nothing() {
        // A kernel with zero tasks (possible for degenerate subgraph
        // instantiations) must produce an empty, zero-cost analysis instead
        // of panicking — the pricing cache stores such analyses verbatim.
        let fix = fixture(0.0);
        let mut kernel = fix.program.kernels[0].clone();
        kernel.tasks.clear();
        let profiles = OperandProfiles {
            adjacency: &fix.program.static_sparsity.adjacency,
            weights: &fix.program.static_sparsity.weights,
            features: &fix.features_subfiber,
        };
        for strategy in MappingStrategy::paper_strategies() {
            let a = Analyzer::new(core(), strategy).analyze_kernel(&kernel, &profiles);
            assert!(a.task_cycles.is_empty());
            assert_eq!(a.total_cycles, 0);
            assert_eq!(a.critical_task_cycles(), 0);
            assert_eq!(a.decisions, 0);
            assert_eq!(a.mix.total(), 0);
        }
    }

    #[test]
    fn all_empty_features_skip_every_product_under_dynamic() {
        // With a completely empty feature operand, Dynamic must skip every
        // block product of an Update kernel (each pair has an empty X
        // partition) while still recording one decision per product.
        let fix = fixture(0.0);
        let (rows, cols) = fix.features_subfiber.shape();
        let (br, bc) = fix.features_subfiber.block_shape();
        let (gr, gc) = fix.features_subfiber.grid_shape();
        let grid = dynasparse_matrix::partition::BlockGrid::new(rows, cols, br, bc);
        let zero = DensityProfile::from_block_nnz(rows, cols, &grid, vec![0; gr * gc]);
        let kernel = &fix.program.kernels[0];
        assert_eq!(kernel.ir.kind, dynasparse_compiler::KernelKind::Update);
        let profiles = OperandProfiles {
            adjacency: &fix.program.static_sparsity.adjacency,
            weights: &fix.program.static_sparsity.weights,
            features: &zero,
        };
        let a = Analyzer::new(core(), MappingStrategy::Dynamic).analyze_kernel(kernel, &profiles);
        assert!(a.mix.total() > 0);
        assert_eq!(a.mix.skipped, a.mix.total(), "every product must skip");
        assert_eq!(a.mix.gemm + a.mix.spdmm + a.mix.spmm, 0);
        assert_eq!(a.decisions, a.mix.total());
        // Skipped products execute nothing, so the priced cost must be far
        // below the same kernel's cost on the real (non-empty) features.
        let real = analyze(&fix, 0, MappingStrategy::Dynamic);
        assert!(
            a.total_cycles < real.total_cycles / 10,
            "all-skip kernel priced {} vs real {}",
            a.total_cycles,
            real.total_cycles
        );
    }

    #[test]
    fn empty_feature_partitions_are_skipped_only_by_dynamic() {
        let fix = fixture(0.0);
        let dynamic = analyze(&fix, 0, MappingStrategy::Dynamic);
        let s2 = analyze(&fix, 0, MappingStrategy::Static2);
        // Cora's H0 at ~1% density over 16-wide subfiber tiles leaves many
        // tiles completely empty.
        assert!(dynamic.mix.skipped > 0);
        assert_eq!(s2.mix.skipped, 0);
    }

    #[test]
    fn operand_lookup_uses_the_right_profile() {
        let fix = fixture(0.0);
        let adj_block = BlockRef {
            operand: OperandKind::Adjacency,
            grid_row: 0,
            grid_col: 0,
        };
        let feat_block = BlockRef {
            operand: OperandKind::Features,
            grid_row: 0,
            grid_col: 0,
        };
        let w_block = BlockRef {
            operand: OperandKind::Weight(0),
            grid_row: 0,
            grid_col: 0,
        };
        let profiles = OperandProfiles {
            adjacency: &fix.program.static_sparsity.adjacency,
            weights: &fix.program.static_sparsity.weights,
            features: &fix.features_subfiber,
        };
        let a = profiles.lookup(&adj_block);
        let f = profiles.lookup(&feat_block);
        let w = profiles.lookup(&w_block);
        let spec = fix.program.partition;
        assert_eq!((a.rows, a.cols), (spec.n1, spec.n1));
        assert_eq!((f.rows, f.cols), (spec.n2, spec.n2));
        assert_eq!((w.rows, w.cols), (spec.n2, spec.n2));
        // Unpruned weights: the first weight block is fully dense.
        assert!((w.density() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn primitive_mix_accounting_is_consistent() {
        let mut mix = PrimitiveMix::default();
        mix.record(Some(Primitive::Gemm));
        mix.record(Some(Primitive::SpDmm));
        mix.record(Some(Primitive::Spmm));
        mix.record(None);
        assert_eq!(mix.total(), 4);
        assert_eq!(mix.gemm, 1);
        assert_eq!(mix.skipped, 1);
    }
}
