//! The dispatching host executor: mode-picked kernels over a zero-allocation
//! arena.
//!
//! The plain [`ReferenceExecutor::forward_with`] path runs one fixed host
//! kernel per kernel kind and materialises every intermediate feature matrix
//! in a fresh allocation.  This module adds the path a serving session
//! actually uses:
//!
//! * [`KernelDispatcher`] inspects the *runtime* operand densities of every
//!   kernel — the same signal the paper's Analyzer profiles — and routes the
//!   host execution to the blocked dense GEMM, the sparse-dense CSR kernel
//!   or the Gustavson sparse-sparse kernel.  The decision comes from a
//!   [`CostModel`](dynasparse_matrix::CostModel): by default the measured
//!   host calibration ([`CalibratedPolicy`](dynasparse_matrix::CalibratedPolicy)
//!   — argmin over predicted milliseconds of each primitive), with the
//!   closed-form Table IV regions ([`RegionPolicy`](dynasparse_matrix::RegionPolicy) /
//!   [`DispatchPolicy`]) retained as the accelerator-side oracle and
//!   fallback.  Sparse-sparse outputs stay in CSR form while their density
//!   is below the dispatch threshold.
//! * [`KernelArena`] owns plan-sized ping-pong feature buffers (one
//!   dual-representation slot per kernel of the widest layer, plus the layer
//!   input/output pair and a densify scratch), so the steady-state forward
//!   pass performs **zero heap allocations**: kernels write into reused
//!   buffers via the `_into` kernels of `dynasparse-matrix`, activations
//!   apply in place, layer outputs become the next layer's input by pointer
//!   swap, and a slot that flips between CSR and dense across requests
//!   reuses its retained counterpart buffer instead of reallocating.
//! * Row-parallel kernels run over the persistent [`ThreadPool`] when the
//!   dispatcher is built with `parallel = true` (the vendored rayon
//!   stand-in is sequential, so this is the only intra-request parallelism
//!   available).
//!
//! The dispatched pass is numerically identical to the fixed-kernel path:
//! every route accumulates contributions to one output element in the same
//! `k`-increasing order the reference kernels use (see the equivalence suite
//! in `tests/integration_dispatch.rs`).

use crate::activation::Activation;
use crate::backend::{BackendKind, ExecBackend, HostBackend};
use crate::kernel::{KernelInput, KernelOp, KernelSpec};
use crate::models::GnnModel;
use crate::reference::ReferenceExecutor;
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::ops::{gemm_into, gemm_into_pooled};
use dynasparse_matrix::{
    row_blocks, CsrMatrix, DenseMatrix, DensityProfile, DispatchPolicy, HostCalibration,
    HostPrimitive, Layout, PartitionSpec, ProductShape, SpGemmScratch, ThreadPool,
};
use dynasparse_telemetry::{SessionTelemetry, SpanPrimitive};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The telemetry-facing name of a host primitive.
pub(crate) fn span_primitive(prim: HostPrimitive) -> SpanPrimitive {
    match prim {
        HostPrimitive::Gemm => SpanPrimitive::Gemm,
        HostPrimitive::SpDmm => SpanPrimitive::SpDmm,
        HostPrimitive::Spmm => SpanPrimitive::Spmm,
        HostPrimitive::Skip => SpanPrimitive::Skip,
    }
}

/// One kernel's telemetry context on the probed forward paths: the session's
/// telemetry bundle plus the kernel's coordinates in the model.
pub(crate) struct ProbeCtx<'a> {
    pub(crate) telemetry: &'a mut SessionTelemetry,
    pub(crate) layer: u16,
    pub(crate) kernel: u16,
}

/// Runtime kernel-to-host-primitive dispatcher for one model.
///
/// Holds the execution backend that picks and prices the primitive of every
/// kernel-level product (see [`ExecBackend`]) plus the per-model caches the
/// routes need: a CSR copy of every SPMM-eligible weight matrix (a weight
/// sparse enough that the sparse-sparse route can ever be chosen for it),
/// built once when the dispatcher is created.
#[derive(Debug)]
pub struct KernelDispatcher {
    policy: DispatchPolicy,
    backend: Arc<dyn ExecBackend>,
    parallel: bool,
    /// CSR forms of SPMM-eligible weights, indexed like `model.weights`.
    weight_csr: Vec<Option<CsrMatrix>>,
}

impl KernelDispatcher {
    /// Builds a region-model dispatcher for `model`.  `policy` supplies the
    /// density regions (usually [`DispatchPolicy::from_regions`] of the
    /// accelerator's ALU dimension); `parallel` routes row-parallel kernels
    /// over the global [`ThreadPool`].
    pub fn new(model: &GnnModel, policy: DispatchPolicy, parallel: bool) -> Self {
        Self::with_calibration(model, policy, None, parallel)
    }

    /// Builds a dispatcher that decides with the measured host `calibration`
    /// when one is supplied, and with `policy`'s Table IV regions otherwise
    /// (the regions also remain the fallback for degenerate predictions and
    /// keep owning the sparse-output retention threshold).
    pub fn with_calibration(
        model: &GnnModel,
        policy: DispatchPolicy,
        calibration: Option<Arc<HostCalibration>>,
        parallel: bool,
    ) -> Self {
        Self::with_backend(
            model,
            policy,
            Arc::new(HostBackend::new(policy, calibration)),
            parallel,
        )
    }

    /// Builds a dispatcher deciding and pricing through an arbitrary
    /// execution backend (the modeled-accelerator backend lives in
    /// `dynasparse-core`, which can see the accelerator crate).  `policy`
    /// keeps owning the sparse-output retention threshold and the CSR
    /// weight-cache gate.
    pub fn with_backend(
        model: &GnnModel,
        policy: DispatchPolicy,
        backend: Arc<dyn ExecBackend>,
        parallel: bool,
    ) -> Self {
        // Cache a CSR for any weight either cost model could route
        // sparse-sparse: the calibrated argmin is not bounded by the
        // accelerator's SpDMM threshold, so the gate is the (wider) GEMM
        // boundary.  An uncached weight simply forces the sparse-dense
        // route, so widening the gate never changes results.
        let csr_bound = policy.gemm_min_density.max(policy.spdmm_max_density);
        let weight_csr = model
            .weights
            .iter()
            .map(|w| {
                if w.density() < csr_bound {
                    Some(CsrMatrix::from_dense(w))
                } else {
                    None
                }
            })
            .collect();
        KernelDispatcher {
            policy,
            backend,
            parallel,
            weight_csr,
        }
    }

    /// The dispatch thresholds in use (sparse-output retention + region
    /// fallback).
    pub fn policy(&self) -> &DispatchPolicy {
        &self.policy
    }

    /// Whether decisions come from a measured host calibration (as opposed
    /// to the accelerator's Table IV regions or cycle model).
    pub fn is_calibrated(&self) -> bool {
        self.backend.calibration().is_some()
    }

    /// The shared calibration the dispatcher decides with, if any.
    pub fn calibration(&self) -> Option<&Arc<HostCalibration>> {
        self.backend.calibration()
    }

    /// The execution backend deciding and pricing every product.
    pub fn backend(&self) -> &Arc<dyn ExecBackend> {
        &self.backend
    }

    /// Which backend family routes this dispatcher's kernels.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Swaps the execution backend (the per-model weight caches and the
    /// retention policy are backend-independent and stay).
    pub fn set_backend(&mut self, backend: Arc<dyn ExecBackend>) {
        self.backend = backend;
    }

    /// Swaps in a freshly rescaled host calibration — the online
    /// recalibration hook.  A non-host backend is left untouched (its
    /// decisions never came from the calibration).
    pub fn recalibrate(&mut self, calibration: Arc<HostCalibration>) {
        if self.backend.kind() == BackendKind::Host {
            self.backend = Arc::new(HostBackend::new(self.policy, Some(calibration)));
        }
    }

    /// Picks the host primitive for one kernel-level product through the
    /// active backend.
    pub fn decide(&self, shape: ProductShape, alpha_x: f64, alpha_y: f64) -> HostPrimitive {
        self.backend.decide(shape, alpha_x, alpha_y).0
    }

    /// [`KernelDispatcher::decide`], additionally reporting whether a
    /// calibrated decision fell back to the Table IV regions on a degenerate
    /// fit (always `false` for a backend that never predicts).
    pub fn decide_traced(
        &self,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> (HostPrimitive, bool) {
        self.backend.decide(shape, alpha_x, alpha_y)
    }

    /// The active backend's predicted milliseconds for executing `prim` on
    /// this product, or `NaN` when the backend has no wall-clock model
    /// (drift tracking skips non-finite predictions).
    pub fn predict_ms(
        &self,
        prim: HostPrimitive,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> f64 {
        self.backend.predict_ms(prim, shape, alpha_x, alpha_y)
    }

    /// Whether kernels fan out over the global thread pool.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    pub(crate) fn pool(&self) -> Option<&'static ThreadPool> {
        if self.parallel {
            let pool = ThreadPool::global();
            if !pool.is_inline() {
                return Some(pool);
            }
        }
        None
    }
}

/// One arena slot with **dual representations**: the active value consumers
/// read, plus the retained dense buffer of the inactive representation.
///
/// A kernel whose output density straddles the `sparse_output_threshold`
/// flips the slot between CSR and dense across requests; without the spare
/// buffer every flip dropped one representation's allocation and re-grew it
/// on the next flip.  Keeping the dense buffer beside the CSR (whose own
/// buffers cycle through the [`SpGemmScratch`] reclaim pool) restores the
/// zero-allocation contract under oscillating densities.
#[derive(Debug)]
pub(crate) struct ArenaSlot {
    /// The representation the last kernel wrote (what consumers read).
    pub(crate) value: FeatureMatrix,
    /// Retained dense capacity while `value` is sparse; empty otherwise
    /// (the capacity migrates between `value` and here on each flip).
    spare_dense: DenseMatrix,
}

impl ArenaSlot {
    fn with_capacity(num_vertices: usize, max_dim: usize) -> Self {
        let mut m = DenseMatrix::zeros(num_vertices, max_dim);
        m.reset(0, 0); // keep the capacity, drop the shape
        ArenaSlot {
            value: FeatureMatrix::Dense(m),
            spare_dense: DenseMatrix::zeros(0, 0),
        }
    }
}

/// The density profile of the current kernel's input, when the kernel's own
/// scan filled it: the dense-input Update GEMM of the block-granular path
/// streams every `X` row exactly once and counts as it goes, so the session
/// prices the kernel from this profile instead of scanning the operand again.
#[derive(Debug, Default)]
pub(crate) struct ScannedProfile {
    /// Counters over the kernel's `N2 × N2` subfiber tiling of its input.
    profile: DensityProfile,
    /// Whether the kernel that just ran filled `profile`.
    filled: bool,
}

/// Plan-sized reusable buffers for the dispatched forward pass.
///
/// Lifetime rules: an arena belongs to one session (it is `Send`, not
/// `Sync`) and is valid for any request over the topology it was sized for
/// — [`KernelArena::for_model`] sizes every buffer for the widest layer of
/// the model at the plan's vertex count, so steady-state requests never
/// grow a buffer.  Between requests the arena carries only capacity, never
/// data: every slot is reshaped (`reset`) before a kernel writes it.
#[derive(Debug)]
pub struct KernelArena {
    /// One slot per kernel of the widest layer (kernel outputs).
    pub(crate) slots: Vec<ArenaSlot>,
    /// The current layer's input features (`H^{l-1}`).
    pub(crate) input: ArenaSlot,
    /// The layer-output accumulator; swapped with `input` at layer end.
    pub(crate) acc: ArenaSlot,
    /// Dense scratch for densifying a sparse operand on the GEMM/SpDMM
    /// routes.
    pub(crate) densify: DenseMatrix,
    /// Workspace of the Gustavson sparse-sparse kernel; also recycles the
    /// CSR buffers of sparse slot outputs.
    pub(crate) spgemm: SpGemmScratch,
    /// The current kernel's input profile, when its own scan fills one (the
    /// counters grow to the largest grid once, then are reused).
    scanned: ScannedProfile,
    /// Largest batch the buffers are sized for (1 for a per-request arena).
    pub(crate) batch_capacity: usize,
    /// Batch size of the last `forward_dispatch_batch` pass (0 before one).
    pub(crate) batch: usize,
}

impl KernelArena {
    /// Sizes an arena for `model` serving requests with `num_vertices`
    /// vertices: each buffer gets capacity for the widest feature matrix any
    /// kernel of the model can produce.
    pub fn for_model(model: &GnnModel, num_vertices: usize) -> Self {
        Self::for_model_batch(model, num_vertices, 1)
    }

    /// Sizes an arena for batch-fused execution: every slot gets capacity
    /// for `max_batch` horizontally concatenated feature matrices of the
    /// model's widest dimension (`num_vertices × (max_dim · max_batch)`), so
    /// micro-batches up to `max_batch` execute with zero steady-state
    /// allocations.  Memory scales linearly with `max_batch`.
    pub fn for_model_batch(model: &GnnModel, num_vertices: usize, max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        let mut max_dim = model.input_dim;
        for layer in &model.layers {
            max_dim = max_dim.max(layer.in_dim).max(layer.out_dim);
        }
        for w in &model.weights {
            max_dim = max_dim.max(w.rows()).max(w.cols());
        }
        let max_kernels = model
            .layers
            .iter()
            .map(|l| l.kernels.len())
            .max()
            .unwrap_or(0);
        let batch_dim = max_dim * max_batch;
        let empty_dense = |rows: usize, cols: usize| {
            let mut m = DenseMatrix::zeros(rows, cols);
            m.reset(0, 0);
            m
        };
        KernelArena {
            slots: (0..max_kernels)
                .map(|_| ArenaSlot::with_capacity(num_vertices, batch_dim))
                .collect(),
            input: ArenaSlot::with_capacity(num_vertices, batch_dim),
            acc: ArenaSlot::with_capacity(num_vertices, batch_dim),
            densify: empty_dense(num_vertices, batch_dim),
            spgemm: SpGemmScratch::new(),
            scanned: ScannedProfile::default(),
            batch_capacity: max_batch,
            batch: 0,
        }
    }

    /// Largest batch this arena's buffers are sized for.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// The final embeddings of the last dispatched forward pass.  After a
    /// batched pass this is the whole `m × (d·B)` batch output; use
    /// [`KernelArena::output_block`] for one request's embeddings.
    pub fn output(&self) -> &FeatureMatrix {
        &self.input.value
    }

    /// One request's embeddings out of the last batched pass: column block
    /// `block` of [`KernelArena::output`], materialised in the batch
    /// output's representation.  Allocates (reports own their embeddings).
    pub fn output_block(&self, block: usize) -> FeatureMatrix {
        let bsz = self.batch.max(1);
        debug_assert!(block < bsz, "block {block} out of batch {bsz}");
        let width = self.input.value.dim() / bsz;
        let (c0, c1) = (block * width, (block + 1) * width);
        match &self.input.value {
            FeatureMatrix::Dense(d) => {
                let mut out = DenseMatrix::zeros(0, 0);
                d.copy_cols_into(c0, c1, &mut out);
                FeatureMatrix::Dense(out)
            }
            FeatureMatrix::Sparse(s) => FeatureMatrix::Sparse(s.col_block(c0, c1)),
        }
    }
}

/// Reshapes `slot` into a writable dense matrix, reusing its allocation.  A
/// slot currently holding a sparse matrix flips to its retained spare dense
/// buffer (dual representation — no allocation once the spare has served
/// this topology) and donates its CSR buffers to the spgemm workspace.
pub(crate) fn slot_as_dense<'s>(
    slot: &'s mut ArenaSlot,
    spgemm: &mut SpGemmScratch,
) -> &'s mut DenseMatrix {
    if let FeatureMatrix::Sparse(_) = &slot.value {
        let dense = std::mem::replace(&mut slot.spare_dense, DenseMatrix::zeros(0, 0));
        let old = std::mem::replace(&mut slot.value, FeatureMatrix::Dense(dense));
        if let FeatureMatrix::Sparse(csr) = old {
            spgemm.reclaim(csr.into_parts());
        }
    }
    match &mut slot.value {
        FeatureMatrix::Dense(d) => d,
        FeatureMatrix::Sparse(_) => unreachable!("slot was just made dense"),
    }
}

/// Stores `csr` into `slot`.  A previously sparse slot recycles its old CSR
/// buffers through the spgemm workspace; a previously dense slot retains its
/// dense buffer as the spare so a later flip back to dense is free.
pub(crate) fn slot_set_sparse(slot: &mut ArenaSlot, csr: CsrMatrix, spgemm: &mut SpGemmScratch) {
    let old = std::mem::replace(&mut slot.value, FeatureMatrix::Sparse(csr));
    match old {
        FeatureMatrix::Sparse(old_csr) => spgemm.reclaim(old_csr.into_parts()),
        FeatureMatrix::Dense(d) => slot.spare_dense = d,
    }
}

/// Applies an activation to a slot in place (no allocation on either
/// representation).
pub(crate) fn apply_activation_inplace(slot: &mut FeatureMatrix, act: Activation) {
    match slot {
        FeatureMatrix::Dense(d) => d.map_inplace(|v| act.apply_scalar(v)),
        FeatureMatrix::Sparse(s) => s.map_retain(|v| act.apply_scalar(v)),
    }
}

/// Adds a CSR matrix element-wise into a dense accumulator.
pub(crate) fn add_csr_into_dense(acc: &mut DenseMatrix, csr: &CsrMatrix) {
    debug_assert_eq!(acc.shape(), csr.shape());
    debug_assert_eq!(
        acc.layout(),
        dynasparse_matrix::Layout::RowMajor,
        "arena accumulators are always row-major"
    );
    let cols_total = acc.cols();
    let data = acc.as_mut_slice();
    for r in 0..csr.rows() {
        let (cols, vals) = csr.row(r);
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            data[r * cols_total + c as usize] += v;
        }
    }
}

/// Combines a layer's contributing kernel slots into the accumulator slot —
/// one contributor swaps by pointer, several accumulate densely in kernel
/// order (the same order the reference path adds them).  Shared by the
/// per-request and batch-fused forward passes.
pub(crate) fn combine_layer_outputs(
    layer: &crate::kernel::LayerSpec,
    slots: &mut [ArenaSlot],
    acc: &mut ArenaSlot,
    spgemm: &mut SpGemmScratch,
) -> dynasparse_matrix::Result<()> {
    let contributors = layer
        .kernels
        .iter()
        .filter(|k| k.contributes_to_output)
        .count();
    if contributors == 1 {
        let j = layer
            .kernels
            .iter()
            .position(|k| k.contributes_to_output)
            .expect("counted one contributor");
        std::mem::swap(acc, &mut slots[j]);
    } else {
        let (rows, cols) = slots
            .iter()
            .zip(layer.kernels.iter())
            .find(|(_, k)| k.contributes_to_output)
            .map(|(s, _)| s.value.shape())
            .expect("validated layers have a contributing kernel");
        let acc_dense = slot_as_dense(acc, spgemm);
        let mut first = true;
        for (slot, k) in slots.iter().zip(layer.kernels.iter()) {
            if !k.contributes_to_output {
                continue;
            }
            if first {
                match &slot.value {
                    FeatureMatrix::Dense(d) => acc_dense.copy_from(d),
                    FeatureMatrix::Sparse(s) => {
                        acc_dense.reset(rows, cols);
                        s.to_dense_into(acc_dense);
                    }
                }
                first = false;
            } else {
                match &slot.value {
                    FeatureMatrix::Dense(d) => acc_dense.add_assign(d)?,
                    FeatureMatrix::Sparse(s) => add_csr_into_dense(acc_dense, s),
                }
            }
        }
    }
    Ok(())
}

/// The density a row block dispatches at: `nnz / (rows · n)`, `0.0` for a
/// degenerate block.
#[inline]
fn block_density(nnz: usize, rows: usize, n: usize) -> f64 {
    let cells = (rows * n) as f64;
    if cells > 0.0 {
        nnz as f64 / cells
    } else {
        0.0
    }
}

/// The counter rows of a route whose kernels profile nothing.
fn no_count_rows() -> std::slice::ChunksMut<'static, usize> {
    <&mut [usize]>::default().chunks_mut(1)
}

/// The shared row-block execution loop of
/// [`ReferenceExecutor::execute_kernel_blocked`]: reshapes the slot's dense
/// output for overwrite (every block kernel writes its whole chunk) and
/// walks `block_rows`-row blocks, calling `refit(r0, r1)` for the block's
/// left-operand density, `decide(shape, ax)` for its primitive and
/// `exec(prim, r0, chunk)` to compute it.  Returns the summed finite
/// positive per-block predictions.
///
/// `count_rows` lends block `k` the `k`-th counter row of the kernel
/// input's density profile (see [`DensityProfile::refit_tiled`]; exhausted
/// for routes that profile nothing, whose blocks get an empty row).  A
/// kernel whose own scan counts non-zeros anyway (the dense-input GEMM
/// route) fills its row and has `exec` return the block's *measured*
/// left-operand density: pricing runs after execution and prefers it over
/// the refit estimate, so such routes need no up-front operand scan at all.
///
/// With a thread pool the blocks are the parallel shards
/// ([`ThreadPool::for_each_chunk_mut`] hands out disjoint row chunks); each
/// worker refits, decides and computes its own blocks, and per-block spans
/// are not recorded (the telemetry ring is single-writer).  On the serial
/// path the loop is software-pipelined: block `k+1`'s density refit runs
/// before block `k`'s kernel, mirroring the paper's overlap of profiling
/// and computation, and each block lands in the trace ring through `probe`.
#[allow(clippy::too_many_arguments)]
fn blocked_dense_loop<R, D, E>(
    out_slot: &mut ArenaSlot,
    spgemm: &mut SpGemmScratch,
    dispatcher: &KernelDispatcher,
    (rows, n, d): (usize, usize, usize),
    alpha_y: f64,
    block_rows: usize,
    mut count_rows: std::slice::ChunksMut<'_, usize>,
    refit: R,
    decide: D,
    exec: E,
    mut probe: Option<&mut ProbeCtx<'_>>,
) -> dynasparse_matrix::Result<f64>
where
    R: Fn(usize, usize) -> f64 + Sync,
    D: Fn(ProductShape, f64) -> HostPrimitive + Sync,
    E: Fn(HostPrimitive, usize, &mut [f32], &mut [usize]) -> Option<f64> + Sync,
{
    let backend = dispatcher.backend().as_ref();
    let out = slot_as_dense(out_slot, spgemm);
    out.reset_for_overwrite(rows, d);
    if rows == 0 || d == 0 {
        return Ok(0.0);
    }
    let out_slice = out.as_mut_slice();
    let mut predicted = 0.0f64;
    match dispatcher.pool() {
        Some(pool) => {
            let predicted_bits = AtomicU64::new(0.0f64.to_bits());
            // Each shard owns its output rows *and* its counter row.
            let blocks = out_slice
                .chunks_mut(block_rows * d)
                .enumerate()
                .map(move |(bi, chunk)| (bi, chunk, count_rows.next().unwrap_or_default()));
            pool.for_each_item(blocks, |(bi, chunk, counts)| {
                let r0 = bi * block_rows;
                let r1 = r0 + chunk.len() / d;
                let ax = refit(r0, r1);
                let shape = ProductShape::new(r1 - r0, n, d);
                let prim = decide(shape, ax);
                let ax = exec(prim, r0, chunk, counts).unwrap_or(ax);
                let p = backend.predict_ms(prim, shape, ax, alpha_y);
                if p.is_finite() && p > 0.0 {
                    let _ =
                        predicted_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                            Some((f64::from_bits(b) + p).to_bits())
                        });
                }
            });
            predicted = f64::from_bits(predicted_bits.load(Ordering::Relaxed));
        }
        None => {
            let mut iter = row_blocks(rows, block_rows);
            let mut next = iter.next().map(|(r0, r1)| (r0, r1, refit(r0, r1)));
            let mut bi: usize = 0;
            while let Some((r0, r1, ax)) = next {
                // Refit block k+1 before computing block k: the density
                // profile of the next block overlaps this block's kernel.
                next = iter.next().map(|(s0, s1)| (s0, s1, refit(s0, s1)));
                let shape = ProductShape::new(r1 - r0, n, d);
                let prim = decide(shape, ax);
                let chunk = &mut out_slice[r0 * d..r1 * d];
                let counts = count_rows.next().unwrap_or_default();
                match probe.as_deref_mut().filter(|pr| pr.telemetry.tracing()) {
                    Some(pr) => {
                        let started = Instant::now();
                        let ax = exec(prim, r0, chunk, counts).unwrap_or(ax);
                        let measured = started.elapsed().as_secs_f64() * 1e3;
                        let p = backend.predict_ms(prim, shape, ax, alpha_y);
                        if p.is_finite() && p > 0.0 {
                            predicted += p;
                        }
                        pr.telemetry.record_block_span(
                            pr.layer,
                            pr.kernel,
                            bi.min(u16::MAX as usize - 1) as u16,
                            span_primitive(prim),
                            (r1 - r0, n, d),
                            ax,
                            alpha_y,
                            p,
                            measured,
                        );
                    }
                    None => {
                        let ax = exec(prim, r0, chunk, counts).unwrap_or(ax);
                        let p = backend.predict_ms(prim, shape, ax, alpha_y);
                        if p.is_finite() && p > 0.0 {
                            predicted += p;
                        }
                    }
                }
                bi += 1;
            }
        }
    }
    Ok(predicted)
}

impl ReferenceExecutor {
    /// Builds the runtime dispatcher for this executor's model, deciding
    /// with `policy`'s Table IV regions.
    pub fn dispatcher(&self, policy: DispatchPolicy, parallel: bool) -> KernelDispatcher {
        KernelDispatcher::new(self.model(), policy, parallel)
    }

    /// Builds the runtime dispatcher for this executor's model, deciding by
    /// argmin over the measured host `calibration` when one is supplied
    /// (`policy` stays the region fallback and sparse-output threshold).
    pub fn dispatcher_calibrated(
        &self,
        policy: DispatchPolicy,
        calibration: Option<Arc<HostCalibration>>,
        parallel: bool,
    ) -> KernelDispatcher {
        KernelDispatcher::with_calibration(self.model(), policy, calibration, parallel)
    }

    /// Builds an arena sized for this executor's model at `num_vertices`.
    pub fn arena(&self, num_vertices: usize) -> KernelArena {
        KernelArena::for_model(self.model(), num_vertices)
    }

    /// Builds an arena sized for batch-fused execution of up to `max_batch`
    /// concatenated requests (see [`KernelArena::for_model_batch`]).
    pub fn arena_batch(&self, num_vertices: usize, max_batch: usize) -> KernelArena {
        KernelArena::for_model_batch(self.model(), num_vertices, max_batch)
    }

    /// Runs the full model through the dispatching kernel engine, invoking
    /// `on_kernel(layer, kernel, spec, input, output)` after every kernel.
    /// The final embeddings are left in [`KernelArena::output`]; in steady
    /// state (an arena reused across requests of one topology) the pass
    /// performs no heap allocation.
    pub fn forward_dispatch<F>(
        &self,
        input: &FeatureMatrix,
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        on_kernel: F,
    ) -> dynasparse_matrix::Result<()>
    where
        F: FnMut(usize, usize, &KernelSpec, &FeatureMatrix, &FeatureMatrix),
    {
        self.forward_dispatch_probed(input, dispatcher, arena, None, on_kernel)
    }

    /// [`ReferenceExecutor::forward_dispatch`] with telemetry: when
    /// `telemetry` is supplied (and enabled), every kernel dispatch is timed
    /// and recorded as a kernel span — counters and the kernel-time
    /// histogram always, the flight-recorder ring at `trace` level.  The
    /// probe itself allocates nothing.
    pub fn forward_dispatch_probed<F>(
        &self,
        input: &FeatureMatrix,
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        telemetry: Option<&mut SessionTelemetry>,
        on_kernel: F,
    ) -> dynasparse_matrix::Result<()>
    where
        F: FnMut(usize, usize, &KernelSpec, &FeatureMatrix, &FeatureMatrix),
    {
        self.forward_dispatch_blocked_probed(input, dispatcher, arena, None, telemetry, on_kernel)
            .map(|_| ())
    }

    /// [`ReferenceExecutor::forward_dispatch_blocked_profiled`] for callers
    /// that do not consume kernel-scanned input profiles.
    pub fn forward_dispatch_blocked_probed<F>(
        &self,
        input: &FeatureMatrix,
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        partition: Option<&PartitionSpec>,
        telemetry: Option<&mut SessionTelemetry>,
        mut on_kernel: F,
    ) -> dynasparse_matrix::Result<f64>
    where
        F: FnMut(usize, usize, &KernelSpec, &FeatureMatrix, &FeatureMatrix),
    {
        self.forward_dispatch_blocked_profiled(
            input,
            dispatcher,
            arena,
            partition,
            telemetry,
            |l, k, spec, kin, out, _| on_kernel(l, k, spec, kin, out),
        )
    }

    /// The block-granular dispatched forward pass: every dense-output kernel
    /// is executed as a loop over the row blocks of the compiler's
    /// [`PartitionSpec`] (`N1` rows per Aggregate block, `N2` per Update
    /// block), with a **per-block density refit** and a **per-block
    /// primitive decision** through the dispatcher's [`ExecBackend`].  With
    /// `partition = None` this is exactly the whole-kernel
    /// [`ReferenceExecutor::forward_dispatch_probed`].
    ///
    /// Because row blocks never split the `k` dimension and every route
    /// accumulates contributions to one output element in `k`-increasing
    /// order, the pass is bit-identical to whole-kernel dispatch (and to the
    /// fixed-kernel reference path) regardless of what each block decides —
    /// see `tests/integration_backend.rs`.
    ///
    /// `on_kernel(layer, kernel, spec, input, output, input_profile)` runs
    /// after every kernel.  `input_profile` is `Some` when the kernel's own
    /// scan already profiled `input` — the dense-input Update GEMM of the
    /// blocked path, whose profile over the `N2 × N2` subfiber tiling equals
    /// `input.density_profile_into(&partition.subfiber_grid(..), ..)` — and
    /// `None` when the caller must refit it (CSR inputs, Aggregates,
    /// whole-kernel and column-major fallbacks).
    ///
    /// Returns the backend-predicted milliseconds summed over every executed
    /// kernel (finite predictions only; `0.0` when the backend prices
    /// nothing) — the serve runtime prices modeled device dwell with it.
    pub fn forward_dispatch_blocked_profiled<F>(
        &self,
        input: &FeatureMatrix,
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        partition: Option<&PartitionSpec>,
        telemetry: Option<&mut SessionTelemetry>,
        mut on_kernel: F,
    ) -> dynasparse_matrix::Result<f64>
    where
        F: FnMut(
            usize,
            usize,
            &KernelSpec,
            &FeatureMatrix,
            &FeatureMatrix,
            Option<&DensityProfile>,
        ),
    {
        let mut telemetry = telemetry.filter(|t| t.enabled());
        let mut predicted_total = 0.0f64;
        let KernelArena {
            slots,
            input: input_slot,
            acc,
            densify,
            spgemm,
            scanned,
            ..
        } = arena;
        // Layer 0 reads the request features directly (no copy into the
        // arena); later layers read the swapped-in accumulator.
        let mut external_input = Some(input);
        let model = self.model();
        for (l, layer) in model.layers.iter().enumerate() {
            for (ki, spec) in layer.kernels.iter().enumerate() {
                let (read, write) = slots.split_at_mut(ki);
                let out_slot = &mut write[0];
                let kin: &FeatureMatrix = match spec.input {
                    KernelInput::LayerInput => match external_input {
                        Some(ext) => ext,
                        None => &input_slot.value,
                    },
                    KernelInput::Kernel(j) => &read[j].value,
                };
                let probe = telemetry.as_deref_mut().map(|t| ProbeCtx {
                    telemetry: t,
                    layer: l as u16,
                    kernel: ki as u16,
                });
                let block_rows = partition.map(|p| match spec.op {
                    KernelOp::Aggregate { .. } => p.aggregate_block_rows(),
                    KernelOp::Update { .. } => p.update_block_rows(),
                });
                scanned.filled = false;
                let predicted = self.execute_kernel_dispatch_blocked_probed(
                    spec, kin, out_slot, dispatcher, densify, spgemm, block_rows, scanned, probe,
                )?;
                if predicted.is_finite() {
                    predicted_total += predicted;
                }
                if let Some(act) = spec.activation {
                    apply_activation_inplace(&mut out_slot.value, act);
                }
                let input_profile = scanned.filled.then_some(&scanned.profile);
                on_kernel(l, ki, spec, kin, &out_slot.value, input_profile);
            }
            combine_layer_outputs(layer, slots, acc, spgemm)?;
            if let Some(act) = layer.output_activation {
                apply_activation_inplace(&mut acc.value, act);
            }
            std::mem::swap(input_slot, acc);
            external_input = None;
        }
        Ok(predicted_total)
    }

    /// Executes one kernel like
    /// [`ReferenceExecutor::execute_kernel_dispatch`] with optional
    /// block granularity: when `block_rows` is supplied and the kernel's
    /// route supports row blocking, the output is computed block by block
    /// with a per-block density refit and primitive decision
    /// ([`ReferenceExecutor::execute_kernel_blocked`]); routes that cannot
    /// block (sparse-output retention, column-major operands) fall back to
    /// the whole-kernel route, bit-identically either way.
    ///
    /// Returns the backend-predicted milliseconds for the kernel: the sum of
    /// per-block predictions on the blocked path, the whole-product
    /// prediction otherwise (`NaN`/`0.0` when the backend prices nothing).
    /// The whole-kernel telemetry contract is unchanged — exactly one
    /// counter bump, histogram observation and drift fold per kernel; block
    /// spans additionally land in the trace ring on the serial path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_kernel_dispatch_blocked_probed(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        out_slot: &mut ArenaSlot,
        dispatcher: &KernelDispatcher,
        densify: &mut DenseMatrix,
        spgemm: &mut SpGemmScratch,
        block_rows: Option<usize>,
        scanned: &mut ScannedProfile,
        probe: Option<ProbeCtx<'_>>,
    ) -> dynasparse_matrix::Result<f64> {
        let Some(mut probe) = probe else {
            if let Some(br) = block_rows.filter(|&br| br > 0) {
                if let Some(predicted) = self.execute_kernel_blocked(
                    spec, kin, out_slot, dispatcher, densify, spgemm, br, scanned, None,
                )? {
                    return Ok(predicted);
                }
            }
            let (executed, shape, ax, ay, _) = self.span_plan(spec, kin, dispatcher);
            self.execute_kernel_dispatch(spec, kin, out_slot, dispatcher, densify, spgemm)?;
            return Ok(dispatcher.predict_ms(executed, shape, ax, ay));
        };
        let (executed, shape, ax, ay, fell_back) = self.span_plan(spec, kin, dispatcher);
        if fell_back {
            probe.telemetry.record_fallback();
        }
        let started = Instant::now();
        let mut predicted_ms = f64::NAN;
        let mut blocked = false;
        if let Some(br) = block_rows.filter(|&br| br > 0) {
            if let Some(sum) = self.execute_kernel_blocked(
                spec,
                kin,
                out_slot,
                dispatcher,
                densify,
                spgemm,
                br,
                scanned,
                Some(&mut probe),
            )? {
                predicted_ms = sum;
                blocked = true;
            }
        }
        if !blocked {
            self.execute_kernel_dispatch(spec, kin, out_slot, dispatcher, densify, spgemm)?;
            predicted_ms = dispatcher.predict_ms(executed, shape, ax, ay);
        }
        let measured_ms = started.elapsed().as_secs_f64() * 1e3;
        probe.telemetry.record_span(
            probe.layer,
            probe.kernel,
            span_primitive(executed),
            (shape.m, shape.n, shape.d),
            ax,
            ay,
            predicted_ms,
            measured_ms,
        );
        Ok(predicted_ms)
    }

    /// Attempts to execute one kernel block-granularly: the dense output is
    /// partitioned into `block_rows`-row blocks (the compiler's `N1`/`N2`
    /// partition sizes), and every block gets its **own** density refit
    /// (O(1) from CSR row pointers; counted by the GEMM row kernel's own pass
    /// for dense-stored features, which also leaves the kernel input's whole
    /// profile in `scanned`) and its own primitive decision/prediction
    /// through the dispatcher's backend.
    ///
    /// Returns `Ok(Some(predicted_ms_sum))` when the kernel ran blocked, and
    /// `Ok(None)` when this route must stay whole-kernel, which happens for:
    ///
    /// - sparse-output candidates (a whole-kernel `Spmm` decision whose
    ///   output may be retained as CSR — the representation choice needs the
    ///   whole product density);
    /// - a whole-kernel `Skip` (resetting the output once is the blocked
    ///   loop degenerate case, and the whole-kernel route already does it);
    /// - column-major operands (the block kernels are allocation-free and
    ///   refuse layout copies).
    ///
    /// Bit-identity is structural: row blocks never split the `k`
    /// dimension, every block kernel runs the same fill-then-accumulate row
    /// loop as its whole-kernel counterpart, and the one genuinely different
    /// route pairing (Gustavson rows into a dense block vs densify-then-
    /// SpDMM) accumulates in the same `k` order and normalizes `-0.0`.
    #[allow(clippy::too_many_arguments)]
    fn execute_kernel_blocked(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        out_slot: &mut ArenaSlot,
        dispatcher: &KernelDispatcher,
        densify: &mut DenseMatrix,
        spgemm: &mut SpGemmScratch,
        block_rows: usize,
        scanned: &mut ScannedProfile,
        probe: Option<&mut ProbeCtx<'_>>,
    ) -> dynasparse_matrix::Result<Option<f64>> {
        let backend = dispatcher.backend().as_ref();
        match spec.op {
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .adjacency(aggregator)
                    .expect("adjacency prepared at executor construction");
                let (rows, n) = (adj.rows(), adj.cols());
                match kin {
                    FeatureMatrix::Dense(h) => {
                        if h.layout() != Layout::RowMajor {
                            return Ok(None);
                        }
                        let d = h.cols();
                        // The route is structurally forced (adjacencies are
                        // stored sparse): the per-block refit only chooses
                        // between SpDMM and skipping an empty row block.
                        blocked_dense_loop(
                            out_slot,
                            spgemm,
                            dispatcher,
                            (rows, n, d),
                            1.0,
                            block_rows,
                            no_count_rows(),
                            |r0, r1| block_density(adj.rows_nnz(r0, r1), r1 - r0, n),
                            |shape, ax| {
                                if shape.is_empty() || ax <= 0.0 {
                                    HostPrimitive::Skip
                                } else {
                                    HostPrimitive::SpDmm
                                }
                            },
                            |prim, r0, chunk, _| {
                                match prim {
                                    HostPrimitive::Skip => chunk.fill(0.0),
                                    _ => backend
                                        .spdmm_block(adj, h, r0, chunk)
                                        .expect("pre-validated block kernel"),
                                }
                                None
                            },
                            probe,
                        )
                        .map(Some)
                    }
                    FeatureMatrix::Sparse(h) => {
                        let d = h.cols();
                        let shape = ProductShape::new(rows, n, d);
                        match dispatcher.decide(shape, adj.density(), h.density()) {
                            // Whole-kernel Skip resets once; whole-kernel
                            // Spmm may retain a sparse output — both stay on
                            // the unblocked route.
                            HostPrimitive::Skip | HostPrimitive::Spmm => Ok(None),
                            HostPrimitive::Gemm | HostPrimitive::SpDmm => {
                                // Densify H once; per block the refit picks
                                // sparse-sparse rows (Gustavson into the
                                // dense block), sparse-dense, or skip — the
                                // genuine three-way per-block mix.
                                h.to_dense_into(densify);
                                let ay = h.density();
                                let densified: &DenseMatrix = densify;
                                blocked_dense_loop(
                                    out_slot,
                                    spgemm,
                                    dispatcher,
                                    (rows, n, d),
                                    ay,
                                    block_rows,
                                    no_count_rows(),
                                    |r0, r1| block_density(adj.rows_nnz(r0, r1), r1 - r0, n),
                                    |shape, ax| match dispatcher.decide(shape, ax, ay) {
                                        HostPrimitive::Skip => HostPrimitive::Skip,
                                        HostPrimitive::Spmm => HostPrimitive::Spmm,
                                        _ => HostPrimitive::SpDmm,
                                    },
                                    |prim, r0, chunk, _| {
                                        match prim {
                                            HostPrimitive::Skip => chunk.fill(0.0),
                                            HostPrimitive::Spmm => backend
                                                .spgemm_block(adj, h, r0, chunk)
                                                .expect("pre-validated block kernel"),
                                            _ => backend
                                                .spdmm_block(adj, densified, r0, chunk)
                                                .expect("pre-validated block kernel"),
                                        }
                                        None
                                    },
                                    probe,
                                )
                                .map(Some)
                            }
                        }
                    }
                }
            }
            KernelOp::Update { weight } => {
                let w = &self.model().weights[weight];
                match kin {
                    FeatureMatrix::Dense(h) => {
                        if h.layout() != Layout::RowMajor || w.layout() != Layout::RowMajor {
                            return Ok(None);
                        }
                        let (rows, n, d) = (h.rows(), h.cols(), w.cols());
                        let ay = w.density();
                        // The GEMM row kernel skips zero elements of H, so it
                        // doubles as the host SpDMM here (same as the
                        // whole-kernel route) — and its one pass over H also
                        // profiles it.  An Update row block is one grid row
                        // of the kernel's `N2 × N2` subfiber tiling of H, so
                        // block `k` owns counter row `k`: the refit is a
                        // placeholder, the block is priced from its exact
                        // measured density after execution, and the filled
                        // profile is handed to `on_kernel`.  (With `d == 0`
                        // no row is scanned and nothing is handed over.)  An
                        // all-zero block computed as GEMM writes the same
                        // exact `+0.0` a skip fill would.
                        scanned.filled = d > 0;
                        let count_rows = scanned
                            .profile
                            .refit_tiled((rows, n), (block_rows, block_rows));
                        blocked_dense_loop(
                            out_slot,
                            spgemm,
                            dispatcher,
                            (rows, n, d),
                            ay,
                            block_rows,
                            count_rows,
                            |_, _| 1.0,
                            |shape, _ax| {
                                if shape.is_empty() {
                                    HostPrimitive::Skip
                                } else {
                                    HostPrimitive::Gemm
                                }
                            },
                            |prim, r0, chunk, counts| match prim {
                                HostPrimitive::Skip => {
                                    chunk.fill(0.0);
                                    None
                                }
                                _ => {
                                    backend
                                        .gemm_block(h, w, r0, chunk, block_rows, counts)
                                        .expect("pre-validated block kernel");
                                    let nnz = counts.iter().sum();
                                    Some(block_density(nnz, chunk.len() / d, n))
                                }
                            },
                            probe,
                        )
                        .map(Some)
                    }
                    FeatureMatrix::Sparse(h) => {
                        let (rows, n, d) = (h.rows(), h.cols(), w.cols());
                        let shape = ProductShape::new(rows, n, d);
                        let ay = w.density();
                        let w_csr = dispatcher.weight_csr[weight].as_ref();
                        match (dispatcher.decide(shape, h.density(), ay), w_csr) {
                            (HostPrimitive::Skip, _) => Ok(None),
                            // Sparse-sparse with retention: the output
                            // representation depends on the whole product
                            // density, so it stays whole-kernel.
                            (HostPrimitive::Spmm, Some(_)) => Ok(None),
                            _ => {
                                if w.layout() != Layout::RowMajor {
                                    return Ok(None);
                                }
                                blocked_dense_loop(
                                    out_slot,
                                    spgemm,
                                    dispatcher,
                                    (rows, n, d),
                                    ay,
                                    block_rows,
                                    no_count_rows(),
                                    |r0, r1| block_density(h.rows_nnz(r0, r1), r1 - r0, n),
                                    |shape, ax| match (dispatcher.decide(shape, ax, ay), w_csr) {
                                        (HostPrimitive::Skip, _) => HostPrimitive::Skip,
                                        (HostPrimitive::Spmm, Some(_)) => HostPrimitive::Spmm,
                                        _ => HostPrimitive::SpDmm,
                                    },
                                    |prim, r0, chunk, _| {
                                        match (prim, w_csr) {
                                            (HostPrimitive::Skip, _) => chunk.fill(0.0),
                                            (HostPrimitive::Spmm, Some(w_csr)) => backend
                                                .spgemm_block(h, w_csr, r0, chunk)
                                                .expect("pre-validated block kernel"),
                                            _ => backend
                                                .spdmm_block(h, w, r0, chunk)
                                                .expect("pre-validated block kernel"),
                                        }
                                        None
                                    },
                                    probe,
                                )
                                .map(Some)
                            }
                        }
                    }
                }
            }
        }
    }

    /// What [`ReferenceExecutor::execute_kernel_dispatch`] is about to do
    /// for this kernel, without doing it: the host primitive that will
    /// execute, the product shape, the densities the decision sees, and
    /// whether a calibrated decision fell back to the regions.  Mirrors the
    /// routing of `execute_kernel_dispatch` exactly; densities of
    /// dense-stored operands are reported as the values the routes charge
    /// for them (adjacency/weight densities are cached, so this never
    /// rescans a matrix on the hot path).
    fn span_plan(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        dispatcher: &KernelDispatcher,
    ) -> (HostPrimitive, ProductShape, f64, f64, bool) {
        match spec.op {
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .adjacency(aggregator)
                    .expect("adjacency prepared at executor construction");
                match kin {
                    FeatureMatrix::Dense(h) => {
                        // Forced sparse-dense route; the kernel touches every
                        // stored element of H, so α_Y is the dense 1.0.
                        let shape = ProductShape::new(adj.rows(), adj.cols(), h.cols());
                        (HostPrimitive::SpDmm, shape, adj.density(), 1.0, false)
                    }
                    FeatureMatrix::Sparse(h) => {
                        let shape = ProductShape::new(adj.rows(), adj.cols(), h.cols());
                        let (ax, ay) = (adj.density(), h.density());
                        let (decision, fell_back) = dispatcher.decide_traced(shape, ax, ay);
                        let executed = match decision {
                            HostPrimitive::Skip => HostPrimitive::Skip,
                            HostPrimitive::Spmm => HostPrimitive::Spmm,
                            // The GEMM/SpDMM decision densifies H and runs
                            // the sparse-dense kernel over the adjacency.
                            HostPrimitive::Gemm | HostPrimitive::SpDmm => HostPrimitive::SpDmm,
                        };
                        (executed, shape, ax, ay, fell_back)
                    }
                }
            }
            KernelOp::Update { weight } => {
                let w = &self.model().weights[weight];
                match kin {
                    FeatureMatrix::Dense(h) => {
                        let shape = ProductShape::new(h.rows(), h.cols(), w.cols());
                        (HostPrimitive::Gemm, shape, 1.0, w.density(), false)
                    }
                    FeatureMatrix::Sparse(h) => {
                        let shape = ProductShape::new(h.rows(), h.cols(), w.cols());
                        let (ax, ay) = (h.density(), w.density());
                        let (decision, fell_back) = dispatcher.decide_traced(shape, ax, ay);
                        let executed = match (decision, dispatcher.weight_csr[weight].as_ref()) {
                            (HostPrimitive::Skip, _) => HostPrimitive::Skip,
                            (HostPrimitive::Spmm, Some(_)) => HostPrimitive::Spmm,
                            _ => HostPrimitive::SpDmm,
                        };
                        (executed, shape, ax, ay, fell_back)
                    }
                }
            }
        }
    }

    /// Executes one kernel, routed by runtime density, into `out_slot`.
    pub(crate) fn execute_kernel_dispatch(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        out_slot: &mut ArenaSlot,
        dispatcher: &KernelDispatcher,
        densify: &mut DenseMatrix,
        spgemm: &mut SpGemmScratch,
    ) -> dynasparse_matrix::Result<()> {
        let policy = &dispatcher.policy;
        let pool = dispatcher.pool();
        match spec.op {
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .adjacency(aggregator)
                    .expect("adjacency prepared at executor construction");
                match kin {
                    FeatureMatrix::Dense(h) => {
                        // A is stored sparse, H dense: the sparse-dense row
                        // kernel regardless of mode (a GEMM-mode adjacency
                        // would need a dense A, which graph adjacencies
                        // never justify).
                        let out = slot_as_dense(out_slot, spgemm);
                        match pool {
                            Some(p) => adj.spmm_dense_into_pooled(p, h, out)?,
                            None => adj.spmm_dense_into(h, out)?,
                        }
                    }
                    FeatureMatrix::Sparse(h) => {
                        let shape = ProductShape::new(adj.rows(), adj.cols(), h.cols());
                        match dispatcher.decide(shape, adj.density(), h.density()) {
                            HostPrimitive::Skip => {
                                slot_as_dense(out_slot, spgemm).reset(adj.rows(), h.cols());
                            }
                            HostPrimitive::Spmm => {
                                // Sparse × sparse: Gustavson, output stays
                                // CSR below the dispatch threshold.
                                let product = match pool {
                                    Some(p) => adj.spgemm_pooled(p, h)?,
                                    None => adj.spgemm_with(h, spgemm)?,
                                };
                                if policy.keep_sparse_output(product.density()) {
                                    slot_set_sparse(out_slot, product, spgemm);
                                } else {
                                    let out = slot_as_dense(out_slot, spgemm);
                                    product.to_dense_into(out);
                                    spgemm.reclaim(product.into_parts());
                                }
                            }
                            HostPrimitive::Gemm | HostPrimitive::SpDmm => {
                                // H is stored sparse but dense enough that
                                // the dense-operand kernel wins: densify it
                                // into the scratch, then run sparse-dense.
                                h.to_dense_into(densify);
                                let out = slot_as_dense(out_slot, spgemm);
                                match pool {
                                    Some(p) => adj.spmm_dense_into_pooled(p, densify, out)?,
                                    None => adj.spmm_dense_into(densify, out)?,
                                }
                            }
                        }
                    }
                }
            }
            KernelOp::Update { weight } => {
                let w = &self.model().weights[weight];
                match kin {
                    FeatureMatrix::Dense(h) => {
                        // Dense-stored H: the blocked GEMM skips zero
                        // elements of H, so it doubles as the host SpDMM for
                        // a sparse-in-value H; the mode decision here only
                        // affects the modeled accelerator, not which host
                        // loop runs.
                        let out = slot_as_dense(out_slot, spgemm);
                        match pool {
                            Some(p) => gemm_into_pooled(p, h, w, out)?,
                            None => gemm_into(h, w, out)?,
                        }
                    }
                    FeatureMatrix::Sparse(h) => {
                        let shape = ProductShape::new(h.rows(), h.cols(), w.cols());
                        let decision = dispatcher.decide(shape, h.density(), w.density());
                        match (decision, dispatcher.weight_csr[weight].as_ref()) {
                            (HostPrimitive::Skip, _) => {
                                slot_as_dense(out_slot, spgemm).reset(h.rows(), w.cols());
                            }
                            (HostPrimitive::Spmm, Some(w_csr)) => {
                                // Both operands sparse (pruned weights):
                                // sparse-sparse route.
                                let product = match pool {
                                    Some(p) => h.spgemm_pooled(p, w_csr)?,
                                    None => h.spgemm_with(w_csr, spgemm)?,
                                };
                                if policy.keep_sparse_output(product.density()) {
                                    slot_set_sparse(out_slot, product, spgemm);
                                } else {
                                    let out = slot_as_dense(out_slot, spgemm);
                                    product.to_dense_into(out);
                                    spgemm.reclaim(product.into_parts());
                                }
                            }
                            _ => {
                                // Sparse H × dense W: the CSR row kernel.
                                let out = slot_as_dense(out_slot, spgemm);
                                match pool {
                                    Some(p) => h.spmm_dense_into_pooled(p, w, out)?,
                                    None => h.spmm_dense_into(w, out)?,
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::GnnModelKind;
    use crate::pruning::prune_model;
    use dynasparse_graph::generators::{dense_features, power_law_graph, PowerLawConfig};
    use dynasparse_graph::Graph;
    use dynasparse_matrix::CsrMatrix;

    fn small_graph() -> Graph {
        power_law_graph(
            "dispatch-test",
            &PowerLawConfig {
                num_vertices: 48,
                num_edges: 180,
                exponent: 2.2,
                seed: 3,
            },
        )
    }

    fn check_dispatch_matches_reference(
        model: &GnnModel,
        features: &FeatureMatrix,
        parallel: bool,
    ) {
        let exec = ReferenceExecutor::new(model, &small_graph());
        let want = exec.forward(features).unwrap();
        let dispatcher = exec.dispatcher(DispatchPolicy::from_regions(16), parallel);
        let mut arena = exec.arena(features.num_vertices());
        exec.forward_dispatch(features, &dispatcher, &mut arena, |_, _, _, _, _| {})
            .unwrap();
        let got = arena.output();
        assert_eq!(got.shape(), want.shape());
        assert_eq!(
            got.to_dense().as_slice(),
            want.to_dense().as_slice(),
            "dispatched forward must match the reference bit for bit"
        );
    }

    #[test]
    fn every_model_kind_matches_the_reference_executor() {
        let h0 = dense_features(48, 24, 0.3, 9);
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            check_dispatch_matches_reference(&model, &h0, false);
        }
    }

    #[test]
    fn sparse_features_and_pruned_weights_match_the_reference() {
        let h0_dense = dense_features(48, 24, 0.04, 10);
        let h0 = FeatureMatrix::Sparse(CsrMatrix::from_dense(&h0_dense.to_dense()));
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            check_dispatch_matches_reference(&model, &h0, false);
        }
    }

    #[test]
    fn dense_full_density_features_take_the_gemm_route() {
        let h0 = dense_features(48, 24, 1.0, 11);
        let model = GnnModel::gcn(24, 8, 5, 19);
        check_dispatch_matches_reference(&model, &h0, false);
    }

    fn check_blocked_matches_whole_kernel(
        model: &GnnModel,
        features: &FeatureMatrix,
        partition: &PartitionSpec,
        parallel: bool,
    ) {
        let exec = ReferenceExecutor::new(model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::from_regions(16), parallel);
        let mut whole = exec.arena(features.num_vertices());
        exec.forward_dispatch(features, &dispatcher, &mut whole, |_, _, _, _, _| {})
            .unwrap();
        let mut blocked = exec.arena(features.num_vertices());
        exec.forward_dispatch_blocked_probed(
            features,
            &dispatcher,
            &mut blocked,
            Some(partition),
            None,
            |_, _, _, _, _| {},
        )
        .unwrap();
        assert_eq!(blocked.output().shape(), whole.output().shape());
        assert_eq!(
            blocked.output().to_dense().as_slice(),
            whole.output().to_dense().as_slice(),
            "block-granular dispatch must match whole-kernel dispatch bit for bit"
        );
    }

    #[test]
    fn blocked_dispatch_matches_whole_kernel_for_every_model_kind() {
        let h0 = dense_features(48, 24, 0.3, 9);
        // Block sizes that don't divide 48 exercise the fringe block.
        let partition = PartitionSpec::new(13, 7).unwrap();
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            check_blocked_matches_whole_kernel(&model, &h0, &partition, false);
            check_blocked_matches_whole_kernel(&model, &h0, &partition, true);
        }
    }

    #[test]
    fn blocked_dispatch_matches_on_sparse_features_and_pruned_weights() {
        let h0_dense = dense_features(48, 24, 0.04, 10);
        let h0 = FeatureMatrix::Sparse(CsrMatrix::from_dense(&h0_dense.to_dense()));
        let partition = PartitionSpec::new(48, 5).unwrap();
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            check_blocked_matches_whole_kernel(&model, &h0, &partition, false);
        }
    }

    #[test]
    fn blocked_dispatch_returns_predicted_cost_with_a_calibrated_backend() {
        let h0 = dense_features(48, 24, 0.3, 9);
        let model = GnnModel::gcn(24, 8, 5, 13);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let calibration = Arc::new(HostCalibration::reference());
        let dispatcher =
            exec.dispatcher_calibrated(DispatchPolicy::from_regions(16), Some(calibration), false);
        let partition = PartitionSpec::new(13, 7).unwrap();
        let mut arena = exec.arena(h0.num_vertices());
        let predicted = exec
            .forward_dispatch_blocked_probed(
                &h0,
                &dispatcher,
                &mut arena,
                Some(&partition),
                None,
                |_, _, _, _, _| {},
            )
            .unwrap();
        assert!(
            predicted.is_finite() && predicted > 0.0,
            "calibrated backend must price the blocked pass, got {predicted}"
        );
    }

    #[test]
    fn arena_is_reusable_across_requests() {
        let model = GnnModel::graphsage(16, 8, 4, 23);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::default(), false);
        let mut arena = exec.arena(48);
        let a = dense_features(48, 16, 0.5, 1);
        let b = dense_features(48, 16, 0.9, 2);
        let want_a = exec.forward(&a).unwrap().to_dense();
        let want_b = exec.forward(&b).unwrap().to_dense();
        for _ in 0..3 {
            exec.forward_dispatch(&a, &dispatcher, &mut arena, |_, _, _, _, _| {})
                .unwrap();
            assert_eq!(arena.output().to_dense().as_slice(), want_a.as_slice());
            exec.forward_dispatch(&b, &dispatcher, &mut arena, |_, _, _, _, _| {})
                .unwrap();
            assert_eq!(arena.output().to_dense().as_slice(), want_b.as_slice());
        }
    }

    #[test]
    fn callback_sees_every_kernel_in_order() {
        let model = GnnModel::gin(16, 8, 4, 29);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::default(), false);
        let mut arena = exec.arena(48);
        let h0 = dense_features(48, 16, 0.4, 5);
        let mut seen = Vec::new();
        exec.forward_dispatch(&h0, &dispatcher, &mut arena, |l, k, spec, input, out| {
            assert_eq!(input.num_vertices(), 48);
            assert_eq!(out.num_vertices(), 48);
            seen.push((l, k, spec.op.is_aggregate()));
        })
        .unwrap();
        assert_eq!(seen.len(), model.num_kernels());
        let mut expected = Vec::new();
        for (l, layer) in model.layers.iter().enumerate() {
            for (k, spec) in layer.kernels.iter().enumerate() {
                expected.push((l, k, spec.op.is_aggregate()));
            }
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn pooled_dispatch_matches_serial_dispatch() {
        // Force a real pool through the explicit env override is not
        // possible per-test; exercise the pooled kernels through a parallel
        // dispatcher (on a 1-core host this still runs the pooled code
        // path selection logic and falls back inline).
        let h0 = dense_features(48, 24, 0.6, 31);
        let model = GnnModel::gcn(24, 8, 5, 37);
        check_dispatch_matches_reference(&model, &h0, true);
    }

    #[test]
    fn calibrated_dispatcher_matches_the_reference_executor() {
        let h0_dense = dense_features(48, 24, 0.04, 10);
        let h0 = FeatureMatrix::Sparse(CsrMatrix::from_dense(&h0_dense.to_dense()));
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            let exec = ReferenceExecutor::new(&model, &small_graph());
            let want = exec.forward(&h0).unwrap();
            let dispatcher = exec.dispatcher_calibrated(
                DispatchPolicy::from_regions(16),
                Some(std::sync::Arc::new(HostCalibration::reference())),
                false,
            );
            assert!(dispatcher.is_calibrated());
            assert!(dispatcher.calibration().is_some());
            let mut arena = exec.arena(h0.num_vertices());
            exec.forward_dispatch(&h0, &dispatcher, &mut arena, |_, _, _, _, _| {})
                .unwrap();
            assert_eq!(
                arena.output().to_dense().as_slice(),
                want.to_dense().as_slice(),
                "calibrated dispatch must stay bit-identical (sparsity {sparsity})"
            );
        }
    }

    #[test]
    fn oscillating_output_density_flips_representations_and_stays_correct() {
        // Two request classes whose sparse-sparse kernel outputs land on
        // opposite sides of the retention threshold: the same arena slot
        // must flip CSR ↔ dense across requests and keep exact results.
        let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), 0.98);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let policy = DispatchPolicy {
            gemm_min_density: 0.5,
            spdmm_max_density: 2.0 / 64.0,
            // Between the measured aggregate-output densities of the two
            // request classes (0.0052 and 0.0208), so the slot flips.
            sparse_output_threshold: 0.015,
        };
        let dispatcher = exec.dispatcher(policy, false);
        let mut arena = exec.arena(48);
        let sparse_req = FeatureMatrix::Sparse(CsrMatrix::from_dense(
            &dense_features(48, 24, 0.01, 3).to_dense(),
        ));
        let dense_req = FeatureMatrix::Sparse(CsrMatrix::from_dense(
            &dense_features(48, 24, 0.06, 4).to_dense(),
        ));
        let want_sparse = exec.forward(&sparse_req).unwrap().to_dense();
        let want_dense = exec.forward(&dense_req).unwrap().to_dense();
        let mut kinds: Vec<Vec<bool>> = Vec::new();
        for _ in 0..2 {
            for (req, want) in [(&sparse_req, &want_sparse), (&dense_req, &want_dense)] {
                let mut pass = Vec::new();
                exec.forward_dispatch(req, &dispatcher, &mut arena, |_, _, _, _, out| {
                    pass.push(out.is_sparse());
                })
                .unwrap();
                assert_eq!(arena.output().to_dense().as_slice(), want.as_slice());
                kinds.push(pass);
            }
        }
        // The workload genuinely oscillates: at least one kernel's output
        // representation differs between the two request classes.
        assert_ne!(
            kinds[0], kinds[1],
            "request classes must straddle the sparse-output threshold \
             (kinds {kinds:?}) — retune the test densities otherwise"
        );
        // And the oscillation is stable request over request.
        assert_eq!(kinds[0], kinds[2]);
        assert_eq!(kinds[1], kinds[3]);
    }

    #[test]
    fn spmm_eligible_weights_are_cached_as_csr() {
        let model = prune_model(&GnnModel::gcn(24, 16, 5, 41), 0.95);
        let dispatcher = KernelDispatcher::new(&model, DispatchPolicy::from_regions(16), false);
        assert!(
            dispatcher.weight_csr.iter().any(|w| w.is_some()),
            "a 95%-pruned weight is SPMM-eligible"
        );
        let dense_model = GnnModel::gcn(24, 16, 5, 41);
        let dense_dispatcher =
            KernelDispatcher::new(&dense_model, DispatchPolicy::from_regions(16), false);
        assert!(dense_dispatcher.weight_csr.iter().all(|w| w.is_none()));
    }
}
