//! The Computation Core: block-product execution with double buffering.
//!
//! A Computation Core executes one task (Algorithm 4) at a time: it loads the
//! operand partitions of each block product into the double-buffered on-chip
//! buffers, executes the product in the execution mode selected by the
//! runtime system, accumulates into the Result Buffer and finally writes the
//! output partition back to DDR.  Because the buffers are double-buffered,
//! the load of block product `t+1` overlaps the computation of block product
//! `t`; sparsity profiling and format/layout transformation are streaming and
//! ride along with the loads/stores (Section V-B3).

use crate::acm::{self, DetailedExecution};
use crate::ahm::AhmModel;
use crate::config::AcceleratorConfig;
use crate::memory::MemoryModel;
use crate::model::PerformanceModel;
use crate::primitive::Primitive;
use dynasparse_matrix::format::{DataFormat, FormattedBlock};
use serde::{Deserialize, Serialize};

/// Summary description of one operand partition as the scheduler sees it:
/// its shape, occupancy and the format it is stored in external memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockOperand {
    /// Rows of the partition.
    pub rows: usize,
    /// Columns of the partition.
    pub cols: usize,
    /// Non-zero count of the partition.
    pub nnz: usize,
    /// Format the partition is stored in (external memory).
    pub stored_format: DataFormat,
}

impl BlockOperand {
    /// Builds an operand descriptor, storing it in whichever format is more
    /// compact (the compiler's policy for external memory).
    pub fn new(rows: usize, cols: usize, nnz: usize) -> Self {
        BlockOperand {
            rows,
            cols,
            nnz,
            stored_format: DataFormat::preferred(rows, cols, nnz),
        }
    }

    /// Density of the partition relative to its full (padded) area.
    pub fn density(&self) -> f64 {
        let area = self.rows * self.cols;
        if area == 0 {
            0.0
        } else {
            self.nnz as f64 / area as f64
        }
    }

    /// Bytes occupied in external memory.
    pub fn stored_bytes(&self) -> usize {
        self.stored_format
            .size_bytes(self.rows, self.cols, self.nnz)
    }
}

/// Cycle breakdown of one block product on a Computation Core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairExecution {
    /// The primitive the product was executed with (`None` = skipped because
    /// one operand was empty).
    pub primitive: Option<Primitive>,
    /// Cycles spent in the ACM.
    pub compute_cycles: u64,
    /// Cycles to load the two operand partitions from DDR.
    pub load_cycles: u64,
    /// Cycles of format/layout transformation riding on the load stream.
    pub transform_cycles: u64,
}

impl PairExecution {
    /// The load-side cost (loads plus streaming transformations), which
    /// double buffering overlaps with the previous product's compute.
    pub fn load_side_cycles(&self) -> u64 {
        self.load_cycles + self.transform_cycles
    }
}

/// Cycle account of one full task on one Computation Core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskExecution {
    /// Per-pair breakdown, in execution order.
    pub pairs: Vec<PairExecution>,
    /// Cycles to write the output partition back (and profile its sparsity).
    pub store_cycles: u64,
    /// Total cycles of the task after double-buffering overlap.
    pub total_cycles: u64,
    /// Total cycles the task would take without double buffering
    /// (sequential load → compute), kept for the ablation harness.
    pub total_cycles_no_overlap: u64,
}

/// Streaming double-buffered total of one task: feed it the task's block
/// products in execution order and it keeps the cycle count so far, holding
/// back only the last executed product's compute (which still has to be
/// compared with the next product's loads).  Skipped products take no part
/// in the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskAccumulator {
    overlapped: u64,
    sequential: u64,
    /// Compute cycles of the last executed product, not yet charged (0
    /// before the first: its loads have nothing to hide behind).
    pending_compute: u64,
}

impl TaskAccumulator {
    /// Adds the next block product of the task.
    #[inline]
    pub fn push(&mut self, pair: &PairExecution) {
        if pair.primitive.is_none() {
            return;
        }
        let load = pair.load_side_cycles();
        // Double buffering: this product's loads ran under the previous
        // product's compute.
        self.overlapped += self.pending_compute.max(load);
        self.sequential += pair.compute_cycles + load;
        self.pending_compute = pair.compute_cycles;
    }

    /// Cycles of the task once its output partition has been written back
    /// in `store_cycles`.
    pub fn total_cycles(&self, store_cycles: u64) -> u64 {
        self.overlapped + self.pending_compute + store_cycles
    }

    /// The same without double buffering (sequential load → compute).
    pub fn total_cycles_no_overlap(&self, store_cycles: u64) -> u64 {
        self.sequential + store_cycles
    }
}

/// A single Computation Core (cycle model side).
#[derive(Debug, Clone, Copy)]
pub struct ComputationCore {
    config: AcceleratorConfig,
    perf: PerformanceModel,
    memory: MemoryModel,
    ahm: AhmModel,
}

impl ComputationCore {
    /// Builds a core from the accelerator configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        ComputationCore {
            config,
            perf: PerformanceModel::from_config(&config),
            memory: MemoryModel::from_config(&config),
            ahm: AhmModel::from_config(&config),
        }
    }

    /// The analytic performance model of this core.
    pub fn performance_model(&self) -> &PerformanceModel {
        &self.perf
    }

    /// The memory model of this core.
    pub fn memory_model(&self) -> &MemoryModel {
        &self.memory
    }

    /// The configuration this core was built from.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Cycles to stream one operand partition from DDR in its stored format.
    pub fn operand_load_cycles(&self, op: &BlockOperand) -> u64 {
        match op.stored_format {
            DataFormat::Dense => self.memory.dense_tile_load_cycles(op.rows, op.cols),
            DataFormat::Sparse => self.memory.sparse_tile_load_cycles(op.nnz),
        }
    }

    /// Cycle cost of one block product given the primitive chosen by the
    /// runtime system (`None` = the product is skipped; only the load of the
    /// non-empty operand — if any — would have been wasted, so it costs 0).
    pub fn execute_pair_analytic(
        &self,
        primitive: Option<Primitive>,
        x: &BlockOperand,
        y: &BlockOperand,
    ) -> PairExecution {
        let Some(primitive) = primitive else {
            return PairExecution {
                primitive: None,
                compute_cycles: 0,
                load_cycles: 0,
                transform_cycles: 0,
            };
        };
        debug_assert_eq!(x.cols, y.rows, "inner dimensions must agree");
        let compute_cycles =
            self.perf
                .execution_cycles(primitive, x.rows, x.cols, y.cols, x.density(), y.density())
                + self.config.mode_switch_cycles;

        // Loads: each operand is streamed in its stored format.
        let load_cycles = self.operand_load_cycles(x) + self.operand_load_cycles(y);

        // Format transformation: each execution mode requires a specific
        // on-chip format per operand (Table III).
        let (x_fmt, y_fmt) = required_formats(primitive);
        let transform_cycles = self
            .ahm
            .format_transform_cycles(x.stored_format, x_fmt, x.rows, x.cols)
            + self
                .ahm
                .format_transform_cycles(y.stored_format, y_fmt, y.rows, y.cols)
            // GEMM wants Y in column-major order; everything is stored
            // row-major in DDR, so charge one layout transformation.
            + if primitive == Primitive::Gemm {
                self.ahm.layout_transform_cycles(y.rows, y.cols)
            } else {
                0
            };

        PairExecution {
            primitive: Some(primitive),
            compute_cycles,
            load_cycles,
            transform_cycles,
        }
    }

    /// Cycles to write a task's output partition back to DDR and profile
    /// its sparsity on the way out.
    pub fn task_store_cycles(&self, output_rows: usize, output_cols: usize) -> u64 {
        self.memory.dense_tile_load_cycles(output_rows, output_cols)
            + self.ahm.profile_cycles(output_rows * output_cols)
    }

    /// Cycle cost of a whole task: the sequence of block products plus the
    /// output write-back, with double buffering overlapping each product's
    /// compute with the next product's loads.
    pub fn execute_task_analytic(
        &self,
        pairs: &[PairExecution],
        output_rows: usize,
        output_cols: usize,
    ) -> TaskExecution {
        let store_cycles = self.task_store_cycles(output_rows, output_cols);
        let mut pipeline = TaskAccumulator::default();
        for pair in pairs {
            pipeline.push(pair);
        }
        TaskExecution {
            pairs: pairs.to_vec(),
            store_cycles,
            total_cycles: pipeline.total_cycles(store_cycles),
            total_cycles_no_overlap: pipeline.total_cycles_no_overlap(store_cycles),
        }
    }

    /// Detailed (functional + micro-architectural) execution of one block
    /// product.  Used by validation tests and the primitive ablation bench.
    pub fn execute_pair_detailed(
        &self,
        primitive: Primitive,
        x: &FormattedBlock,
        y: &FormattedBlock,
    ) -> DetailedExecution {
        let psys = self.config.psys;
        match primitive {
            Primitive::Gemm => acm::gemm::simulate(&x.to_dense(), &y.to_dense(), psys),
            Primitive::SpDmm => acm::spdmm::simulate(&x.to_coo(), &y.to_dense(), psys),
            Primitive::Spmm => acm::spmm::simulate(&x.to_coo(), &y.to_coo(), psys),
        }
    }
}

/// The on-chip formats each execution mode requires for `(X, Y)` (Table III).
fn required_formats(primitive: Primitive) -> (DataFormat, DataFormat) {
    match primitive {
        Primitive::Gemm => (DataFormat::Dense, DataFormat::Dense),
        Primitive::SpDmm => (DataFormat::Sparse, DataFormat::Dense),
        Primitive::Spmm => (DataFormat::Sparse, DataFormat::Sparse),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_matrix::random::random_dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn core() -> ComputationCore {
        ComputationCore::new(AcceleratorConfig::default())
    }

    #[test]
    fn block_operand_prefers_compact_storage() {
        let sparse = BlockOperand::new(128, 128, 100);
        assert_eq!(sparse.stored_format, DataFormat::Sparse);
        assert!(sparse.density() < 0.01);
        let dense = BlockOperand::new(128, 128, 16000);
        assert_eq!(dense.stored_format, DataFormat::Dense);
        assert_eq!(dense.stored_bytes(), 128 * 128 * 4);
    }

    #[test]
    fn skipped_pair_costs_nothing() {
        let c = core();
        let x = BlockOperand::new(256, 256, 0);
        let y = BlockOperand::new(256, 128, 1000);
        let e = c.execute_pair_analytic(None, &x, &y);
        assert_eq!(e.compute_cycles, 0);
        assert_eq!(e.load_side_cycles(), 0);
    }

    #[test]
    fn gemm_pair_charges_layout_transform_for_y() {
        let c = core();
        let x = BlockOperand::new(128, 128, 128 * 128);
        let y = BlockOperand::new(128, 128, 128 * 128);
        let gemm = c.execute_pair_analytic(Some(Primitive::Gemm), &x, &y);
        let spdmm = c.execute_pair_analytic(Some(Primitive::SpDmm), &x, &y);
        assert!(gemm.transform_cycles > 0);
        // For a fully dense pair SpDMM needs a dense→sparse conversion of X.
        assert!(spdmm.transform_cycles > 0);
        // GEMM computes the dense pair in fewer cycles than SpDMM.
        assert!(gemm.compute_cycles < spdmm.compute_cycles);
    }

    #[test]
    fn sparse_pair_prefers_spmm_cycles() {
        let c = core();
        let x = BlockOperand::new(256, 256, 600);
        let y = BlockOperand::new(256, 128, 300);
        let gemm = c.execute_pair_analytic(Some(Primitive::Gemm), &x, &y);
        let spmm = c.execute_pair_analytic(Some(Primitive::Spmm), &x, &y);
        assert!(spmm.compute_cycles < gemm.compute_cycles / 10);
    }

    #[test]
    fn double_buffering_never_exceeds_sequential_execution() {
        let c = core();
        let x = BlockOperand::new(256, 256, 6000);
        let y = BlockOperand::new(256, 128, 256 * 128);
        let pair = c.execute_pair_analytic(Some(Primitive::SpDmm), &x, &y);
        let pairs = vec![pair; 5];
        let task = c.execute_task_analytic(&pairs, 256, 128);
        assert!(task.total_cycles <= task.total_cycles_no_overlap);
        assert!(task.total_cycles > 0);
        assert_eq!(task.pairs.len(), 5);
    }

    #[test]
    fn compute_bound_tasks_hide_their_loads() {
        let c = core();
        // Dense 256-blocks: compute (GEMM) far exceeds the load stream.
        let x = BlockOperand::new(256, 256, 256 * 256);
        let y = BlockOperand::new(256, 256, 256 * 256);
        let pair = c.execute_pair_analytic(Some(Primitive::Gemm), &x, &y);
        assert!(pair.compute_cycles > pair.load_side_cycles());
        let pairs = vec![pair; 4];
        let task = c.execute_task_analytic(&pairs, 256, 256);
        let store = task.store_cycles;
        let compute_sum: u64 = pairs.iter().map(|p| p.compute_cycles).sum();
        // Total = first load + all computes + store (loads 2..n hidden).
        assert_eq!(
            task.total_cycles,
            pairs[0].load_side_cycles() + compute_sum + store
        );
    }

    #[test]
    fn skipped_products_take_no_part_in_the_pipeline() {
        let c = core();
        let executed = |compute_cycles, load_cycles, transform_cycles| PairExecution {
            primitive: Some(Primitive::SpDmm),
            compute_cycles,
            load_cycles,
            transform_cycles,
        };
        let empty = BlockOperand::new(16, 16, 0);
        let skipped = c.execute_pair_analytic(None, &empty, &empty);
        let (a, b, d) = (
            executed(10, 30, 5),
            executed(100, 20, 0),
            executed(7, 90, 10),
        );
        let task = c.execute_task_analytic(&[skipped, a, skipped, b, d, skipped], 16, 16);
        // a's loads, then a's compute under b's loads (the loads are longer),
        // b's compute over d's loads (exactly hidden), d's compute, the store.
        assert_eq!(task.total_cycles, 35 + 20 + 100 + 7 + task.store_cycles);
        assert_eq!(
            task.total_cycles_no_overlap,
            (10 + 35) + (100 + 20) + (7 + 100) + task.store_cycles
        );
        assert_eq!(task.pairs.len(), 6);
        let idle = c.execute_task_analytic(&[skipped, skipped], 16, 16);
        assert_eq!(idle.total_cycles, idle.store_cycles);
    }

    #[test]
    fn empty_task_costs_only_the_output_store() {
        let c = core();
        let task = c.execute_task_analytic(&[], 128, 128);
        assert_eq!(task.total_cycles, task.store_cycles);
    }

    #[test]
    fn detailed_execution_agrees_with_reference_for_all_primitives() {
        let c = core();
        let mut rng = StdRng::seed_from_u64(30);
        let xd = random_dense(&mut rng, 32, 48, 0.2);
        let yd = random_dense(&mut rng, 48, 24, 0.3);
        let want = dynasparse_matrix::ops::gemm_reference(&xd, &yd).unwrap();
        for p in Primitive::all() {
            let det = c.execute_pair_detailed(
                p,
                &FormattedBlock::Dense(xd.clone()),
                &FormattedBlock::Dense(yd.clone()),
            );
            assert!(det.result.approx_eq(&want, 1e-4), "{}", p.label());
            assert!(det.cycles > 0);
        }
    }

    #[test]
    fn required_formats_follow_table_iii() {
        assert_eq!(
            required_formats(Primitive::Gemm),
            (DataFormat::Dense, DataFormat::Dense)
        );
        assert_eq!(
            required_formats(Primitive::SpDmm),
            (DataFormat::Sparse, DataFormat::Dense)
        );
        assert_eq!(
            required_formats(Primitive::Spmm),
            (DataFormat::Sparse, DataFormat::Sparse)
        );
    }
}
