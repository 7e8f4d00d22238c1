//! The dispatching host executor: one kernel runner over a zero-allocation
//! arena.
//!
//! The plain [`ReferenceExecutor::forward_with`] path runs one fixed host
//! kernel per kernel kind and materialises every intermediate feature matrix
//! in a fresh allocation.  This module is the path a serving session uses,
//! and it follows the paper's execution model: a GNN *kernel* is decoupled
//! from the *primitive* that runs it, and the mapping is made per data
//! partition at runtime.
//!
//! * **One route per kernel.**  `Pass::resolve` turns `(op, input
//!   representation, the dispatcher's whole-product decision, cached weight
//!   CSR)` into a `Route` exactly once: the whole-product view the kernel
//!   span reports plus one of three execution shapes (`Exec`) — *skip*
//!   (an empty product resets the output), *sparse product* (Gustavson to
//!   CSR, retained sparse below the policy threshold; the representation
//!   choice needs the whole product's density, so this is the one
//!   whole-kernel route) or *rows* (a dense output computed over the
//!   compiler partition's row blocks, `N1` rows per Aggregate block and
//!   `N2` per Update block).  The span, the prediction and the execution all
//!   read that one value.
//! * **One decision per block.**  A *rows* route has one of three block
//!   bodies (`BlockBody`).  A dense-stored left operand (an Update over
//!   dense `H`) runs the counting GEMM, whose zero-skip doubles as the host
//!   SpDMM by the *left* operand, or the right-sparse kernel over the cached
//!   CSR of `Wᵀ`, the host SpDMM by the *right* operand — whichever the
//!   model's width fit prices lower at `H`'s known density
//!   ([`KernelDispatcher::choose_dense_update`]; under the Table IV regions,
//!   the density rule [`DispatchPolicy::prefers_right_sparse`]).  Either
//!   one's single pass over the operand also fills the kernel input's
//!   sparsity profile.  A CSR left operand refits every
//!   block's density from the row pointers and picks Skip / SpDMM /
//!   Gustavson-into-dense through [`KernelDispatcher::decide`]; when it is
//!   the kernel input (a CSR-stored Update, not an Aggregate's adjacency),
//!   the SpDMM and Gustavson rows count its stored columns into the same
//!   profile as they stream them.  The kernel's predicted cost is the sum
//!   of its blocks' predictions.
//! * **One runner.**  `Pass::run` wraps whichever shape executes with the
//!   timing and the kernel span behind a single `Option` probe.
//! * [`KernelArena`] owns plan-sized ping-pong feature buffers (one
//!   dual-representation slot per kernel of the widest layer, plus the layer
//!   input/output pair and the kernel scratch), so the steady-state forward
//!   pass performs **zero heap allocations**: kernels write into reused
//!   buffers, activations apply in place, layer outputs become the next
//!   layer's input by pointer swap, and a slot that flips between CSR and
//!   dense across requests reuses its retained counterpart buffer.
//! * **One block loop.**  Row blocks are claimed by the threads of the
//!   persistent [`ThreadPool::global`], which runs them inline when it has
//!   one thread (the vendored rayon stand-in is sequential, so this is the
//!   only intra-request parallelism available).  Each block writes what it
//!   ran into its own slot; the kernel's prediction and its block spans are
//!   read back from the slots in block order, so neither depends on the
//!   thread count.
//!
//! The dispatched pass is bit-identical to the fixed-kernel path whatever
//! each block decides: row blocks never split the `k` dimension, and every
//! route accumulates contributions to one output element in the same
//! `k`-increasing order the reference kernels use (the one genuinely
//! different pairing, Gustavson rows into a dense block vs SpDMM over the
//! densified operand, also normalizes `-0.0`).  See the equivalence suites in
//! `tests/integration_dispatch.rs` and `tests/integration_backend.rs`.

use crate::activation::Activation;
use crate::kernel::{KernelInput, KernelOp, KernelSpec};
use crate::models::GnnModel;
use crate::reference::ReferenceExecutor;
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::ops::{gemm_rows_into, right_sparse_rows_into};
use dynasparse_matrix::{
    CsrMatrix, DenseMatrix, DensityProfile, DispatchPolicy, HostCalibration, HostPrimitive,
    MatrixError, PartitionSpec, ProductShape, Result, SpGemmScratch, ThreadPool, UpdateChoice,
    UpdateFit,
};
use dynasparse_telemetry::{SessionTelemetry, SpanPrimitive};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// One kernel's telemetry context on a probed forward pass: the session's
/// telemetry bundle plus the kernel's coordinates in the model.
struct ProbeCtx<'a> {
    telemetry: &'a mut SessionTelemetry,
    layer: u16,
    kernel: u16,
}

/// The telemetry-facing name of a host primitive.
fn span_primitive(prim: HostPrimitive) -> SpanPrimitive {
    match prim {
        HostPrimitive::Gemm => SpanPrimitive::Gemm,
        HostPrimitive::SpDmm | HostPrimitive::SpDmmRight => SpanPrimitive::SpDmm,
        HostPrimitive::Spmm => SpanPrimitive::Spmm,
        HostPrimitive::Skip => SpanPrimitive::Skip,
    }
}

/// Prices the two bodies a dense-stored Update can run at `model`'s widths:
/// one [`UpdateFit`] per weight, indexed like `model.weights`, each timed once
/// per process per `(n, d, α_W)` ([`UpdateFit::shared`]).  Planning and
/// template compilation call it, so a session, an instantiation or a later
/// plan of the same widths times nothing.
pub fn price_update_widths(model: &GnnModel) -> Vec<UpdateFit> {
    model.weights.iter().map(UpdateFit::shared).collect()
}

/// Runtime kernel-to-host-primitive dispatcher for one model: the one host
/// decider.
///
/// A product over a CSR-stored left operand runs one of the bodies such an
/// operand has — Skip, SpDMM or Gustavson — as [`KernelDispatcher::decide`]
/// picks it: with a valid host calibration, the cheaper of the two
/// calibrated curves ([`HostCalibration::cheapest`]).  An Update over
/// dense-stored features runs whichever of its two bodies — the counting
/// GEMM or the right-sparse body over `Wᵀ` — its [`UpdateFit`] prices lower
/// at the model's widths ([`KernelDispatcher::choose_dense_update`]).
/// Without a calibration (`DYNASPARSE_CALIBRATION=off`, or a fit
/// [`KernelDispatcher::new`] refused) both run the Table IV regions of
/// `policy`, with the density rule [`DispatchPolicy::prefers_right_sparse`]
/// for the dense Update.  `policy` also owns the sparse-output threshold and
/// the Gustavson weight-cache gate.  The dispatcher also holds the per-model caches the routes need,
/// built once when it is created: `W` in CSR for every weight sparse enough
/// that a sparse-sparse route can be chosen for it, and `Wᵀ` in CSR for
/// every weight the right-sparse body can run — under a fit, every weight
/// whose prices cross or favour that body somewhere in `[0, 1]`, dense
/// weights included.
#[derive(Debug)]
pub struct KernelDispatcher {
    policy: DispatchPolicy,
    calibration: Option<Arc<HostCalibration>>,
    /// The dense-left Update prices, indexed like `model.weights`; empty
    /// under the regions.
    update_fits: Vec<UpdateFit>,
    /// The density a dense-stored Update input is priced at when its
    /// non-zero count is not known: the plan's compile-time input density
    /// (`1.0`, dense, until [`KernelDispatcher::set_input_density`]).
    input_density: f64,
    /// `W` in CSR for the sparse-eligible weights (the right operand of the
    /// sparse-sparse routes), indexed like `model.weights`.
    weight_csr: Vec<Option<CsrMatrix>>,
    /// `Wᵀ` in CSR — column `j` of `W` as row `j` — for every weight the
    /// right-sparse Update body can run, indexed like `model.weights`.
    weight_t: Vec<Option<CsrMatrix>>,
}

impl KernelDispatcher {
    /// Builds the dispatcher for `model`, deciding by `calibration` when one
    /// is supplied and by the Table IV regions of `policy` otherwise.
    /// `policy` also owns the sparse-output retention threshold and the CSR
    /// weight-cache gate.  `update_fits` holds the dense-left Update prices,
    /// one [`UpdateFit`] per weight, indexed like `model.weights` (a plan's,
    /// timed by [`price_update_widths`], or hand-built ones); they are read
    /// only with a valid `calibration`, and a weight without a fit runs the
    /// GEMM.
    ///
    /// The fit is checked here, once: one that is not
    /// [valid](HostCalibration::is_valid) (a non-finite, negative or zero
    /// work term — only a hand-built fit can be one) is dropped, so the
    /// dispatcher decides by the regions, prices nothing, and
    /// [`KernelDispatcher::calibration`] returns `None`.
    pub fn new(
        model: &GnnModel,
        policy: DispatchPolicy,
        calibration: Option<Arc<HostCalibration>>,
        update_fits: &[UpdateFit],
    ) -> Self {
        let calibration = calibration.filter(|c| c.is_valid());
        let update_fits = match calibration {
            Some(_) => update_fits.to_vec(),
            None => Vec::new(),
        };
        // Cache `W` in CSR for any weight the sparse-sparse routes could
        // read: the calibrated argmin is not bounded by the accelerator's
        // SpDMM threshold, so the gate is the (wider) GEMM boundary.  An
        // uncached weight simply forces the routes that read it dense, so
        // widening the gate never changes results.
        let csr_bound = policy.gemm_min_density.max(policy.spdmm_max_density);
        let weight_csr: Vec<Option<CsrMatrix>> = model
            .weights
            .iter()
            .map(|w| (w.density() < csr_bound).then(|| CsrMatrix::from_dense(w)))
            .collect();
        // `Wᵀ` wherever the right-sparse body can be picked: under a fit,
        // unless GEMM is priced lower at every density; under the regions,
        // where the density rule can fire (a weight below the GEMM region).
        let weight_t = model
            .weights
            .iter()
            .zip(&weight_csr)
            .enumerate()
            .map(|(i, (w, csr))| {
                let runs = match calibration {
                    Some(_) => update_fits
                        .get(i)
                        .is_some_and(|fit| fit.settled() != Some(HostPrimitive::Gemm)),
                    None => csr.is_some(),
                };
                runs.then(|| match csr {
                    Some(csr) => csr.transpose(),
                    None => CsrMatrix::from_dense(&w.transpose()),
                })
            })
            .collect();
        KernelDispatcher {
            policy,
            calibration,
            update_fits,
            input_density: 1.0,
            weight_csr,
            weight_t,
        }
    }

    /// Sets the density a dense-stored Update input is priced at when its
    /// non-zero count is not already known — the compile-time density of
    /// the plan's input features, so a fresh request is never scanned just
    /// to pick a body.
    pub fn set_input_density(&mut self, alpha: f64) {
        self.input_density = alpha;
    }

    /// The shared host calibration the dispatcher decides with, if any
    /// (`None` under the Table IV regions).
    pub fn calibration(&self) -> Option<&Arc<HostCalibration>> {
        self.calibration.as_ref()
    }

    /// Picks the body one (sub-)product over a CSR-stored left operand runs:
    /// [`HostPrimitive::Skip`], [`HostPrimitive::SpDmm`] or
    /// [`HostPrimitive::Spmm`], the only bodies such an operand has.  An
    /// empty shape or a non-positive (or `NaN`) density is Skip (the caller
    /// zero-fills the block rows).  Under the Table IV regions a GEMM
    /// decision runs as SpDMM: a CSR operand has no dense rows to stream,
    /// and the CSR row kernel computes the same product.
    pub fn decide(&self, shape: ProductShape, alpha_x: f64, alpha_y: f64) -> HostPrimitive {
        match &self.calibration {
            Some(calibration) => calibration.cheapest(shape, alpha_x, alpha_y),
            None if shape.is_empty() => HostPrimitive::Skip,
            None => match self.policy.decide(alpha_x, alpha_y) {
                HostPrimitive::Gemm => HostPrimitive::SpDmm,
                prim => prim,
            },
        }
    }

    /// The priced choice between the two bodies of an Update of the
    /// dense-stored features `h` by weight `weight`: both candidates'
    /// predicted milliseconds over `h`'s rows and the cheaper one, or `None`
    /// when nothing is priced (the Table IV regions, or no fit for the
    /// weight).
    ///
    /// `h` is never scanned: its density is the count it already caches (an
    /// activation or an earlier density query left it), else the plan's
    /// compile-time input density ([`KernelDispatcher::set_input_density`]).
    /// Where the prices do not cross in `[0, 1]`
    /// ([`UpdateFit::settled`]) that density cannot change the pick.
    pub fn choose_dense_update(&self, weight: usize, h: &DenseMatrix) -> Option<UpdateChoice> {
        let fit = self.update_fits.get(weight)?;
        let alpha_h = match h.cached_nnz() {
            Some(nnz) => block_density(nnz, h.rows(), h.cols()),
            None => self.input_density,
        };
        Some(fit.choose(h.rows(), alpha_h))
    }

    /// The calibrated milliseconds of executing `prim` on this product, or
    /// `NaN` without a calibration (the Table IV regions price nothing in
    /// wall-clock terms; drift tracking skips non-finite predictions).
    pub fn predict_ms(
        &self,
        prim: HostPrimitive,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> f64 {
        self.calibration
            .as_ref()
            .map_or(f64::NAN, |c| c.predict(prim, shape, alpha_x, alpha_y))
    }

    /// The cached CSR of `Wᵀ`, with the density of `h` it was picked at,
    /// when an Update of the dense-stored features `h` by weight `weight`
    /// (of density `alpha_w`) runs SpDMM by the right operand; `None` runs
    /// the counting GEMM.  Under a fit the pick is
    /// [`KernelDispatcher::choose_dense_update`]'s, which scans nothing;
    /// under the regions it is the density rule, over `h`'s counted density
    /// (`h` is scanned only when `Wᵀ` is cached).
    fn right_sparse_weight(
        &self,
        weight: usize,
        h: &DenseMatrix,
        alpha_w: f64,
    ) -> Option<(&CsrMatrix, f64)> {
        let wt = self.weight_t[weight].as_ref()?;
        let (runs, alpha_h) = match self.choose_dense_update(weight, h) {
            Some(choice) => (choice.pick == HostPrimitive::SpDmmRight, choice.alpha_h),
            None => {
                let alpha_h = h.density();
                (self.policy.prefers_right_sparse(alpha_h, alpha_w), alpha_h)
            }
        };
        runs.then_some((wt, alpha_h))
    }

    /// Whether a sparse-sparse kernel output of this density stays CSR.
    fn keep_sparse_output(&self, output_density: f64) -> bool {
        self.policy.keep_sparse_output(output_density)
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
struct ArenaSlot {
    /// The representation the last kernel wrote (what consumers read).
    value: FeatureMatrix,
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

/// The working set the kernels of a pass share, borrowed as one piece.
#[derive(Debug)]
struct KernelScratch {
    /// Dense scratch for densifying a sparse operand ahead of a
    /// dense-operand kernel.
    densify: DenseMatrix,
    /// Workspace of the Gustavson sparse-sparse kernel; also recycles the
    /// CSR buffers of sparse slot outputs.
    spgemm: SpGemmScratch,
    /// The current kernel's input profile over its `N2 × N2` subfiber
    /// tiling, when the kernel's own scan fills one: an Update's row blocks
    /// stream every `X` row exactly once — dense-stored or CSR-stored — and
    /// count as they go, so the session prices the kernel from this profile
    /// instead of reading the operand again (the counters grow to the
    /// largest grid once, then are reused).
    profile: DensityProfile,
    /// Whether the kernel that just ran filled `profile` (`Some`), and if so
    /// whether every element its scan read was finite.
    scanned: Option<bool>,
    /// One slot per row block of the current kernel, written by whichever
    /// thread ran the block and read back in block order (grown to the
    /// largest block count once, then reused).
    blocks: Vec<BlockRun>,
}

/// What one row block ran, as its slot records it: the primitive, the
/// block's product shape, its left-operand density, whether every element of
/// the left operand its scan read was finite (`true` for a body that scans
/// nothing), and its wall time in milliseconds (`0.0` unless the pass
/// traces).
#[derive(Debug, Clone, Copy)]
struct BlockRun {
    prim: HostPrimitive,
    shape: ProductShape,
    alpha_x: f64,
    finite: bool,
    measured_ms: f64,
}

impl BlockRun {
    /// A slot no block has written yet.
    const UNSET: BlockRun = BlockRun {
        prim: HostPrimitive::Skip,
        shape: ProductShape { m: 0, n: 0, d: 0 },
        alpha_x: 0.0,
        finite: true,
        measured_ms: 0.0,
    };

    /// The slot of a block that ran `prim` over `shape` at density
    /// `alpha_x`, before its time is stamped.
    fn ran(prim: HostPrimitive, shape: ProductShape, alpha_x: f64, finite: bool) -> BlockRun {
        BlockRun {
            prim,
            shape,
            alpha_x,
            finite,
            measured_ms: 0.0,
        }
    }
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
    slots: Vec<ArenaSlot>,
    /// The current layer's input features (`H^{l-1}`).
    input: ArenaSlot,
    /// The layer-output accumulator; swapped with `input` at layer end.
    acc: ArenaSlot,
    /// What every kernel borrows besides its operands and output slot.
    scratch: KernelScratch,
}

impl KernelArena {
    /// Sizes an arena for `model` serving requests with `num_vertices`
    /// vertices: each buffer gets capacity for the widest feature matrix any
    /// kernel of the model can produce.
    pub fn for_model(model: &GnnModel, num_vertices: usize) -> Self {
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
        let empty_dense = |rows: usize, cols: usize| {
            let mut m = DenseMatrix::zeros(rows, cols);
            m.reset(0, 0);
            m
        };
        KernelArena {
            slots: (0..max_kernels)
                .map(|_| ArenaSlot::with_capacity(num_vertices, max_dim))
                .collect(),
            input: ArenaSlot::with_capacity(num_vertices, max_dim),
            acc: ArenaSlot::with_capacity(num_vertices, max_dim),
            scratch: KernelScratch {
                densify: empty_dense(num_vertices, max_dim),
                spgemm: SpGemmScratch::new(),
                profile: DensityProfile::default(),
                scanned: None,
                blocks: Vec::new(),
            },
        }
    }

    /// The final embeddings of the last dispatched forward pass.
    pub fn output(&self) -> &FeatureMatrix {
        &self.input.value
    }
}

/// Reshapes `slot` into a writable dense matrix, reusing its allocation.  A
/// slot currently holding a sparse matrix flips to its retained spare dense
/// buffer (dual representation — no allocation once the spare has served
/// this topology) and donates its CSR buffers to the spgemm workspace.
fn slot_as_dense<'s>(slot: &'s mut ArenaSlot, spgemm: &mut SpGemmScratch) -> &'s mut DenseMatrix {
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
fn slot_set_sparse(slot: &mut ArenaSlot, csr: CsrMatrix, spgemm: &mut SpGemmScratch) {
    let old = std::mem::replace(&mut slot.value, FeatureMatrix::Sparse(csr));
    match old {
        FeatureMatrix::Sparse(old_csr) => spgemm.reclaim(old_csr.into_parts()),
        FeatureMatrix::Dense(d) => slot.spare_dense = d,
    }
}

/// Applies an activation to a slot in place (no allocation on either
/// representation).
fn apply_activation_inplace(slot: &mut FeatureMatrix, act: Activation) {
    match slot {
        FeatureMatrix::Dense(d) => d.map_inplace(|v| act.apply_scalar(v)),
        FeatureMatrix::Sparse(s) => s.map_retain(|v| act.apply_scalar(v)),
    }
}

/// Adds a CSR matrix element-wise into a dense accumulator.
fn add_csr_into_dense(acc: &mut DenseMatrix, csr: &CsrMatrix) {
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
/// order (the same order the reference path adds them).
fn combine_layer_outputs(
    layer: &crate::kernel::LayerSpec,
    slots: &mut [ArenaSlot],
    acc: &mut ArenaSlot,
    spgemm: &mut SpGemmScratch,
) -> Result<()> {
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

/// The whole-product view of one executed kernel — what its kernel span
/// reports and what a whole-kernel prediction prices.  Densities are the
/// values the routes charge (a dense-stored operand the kernel streams in
/// full counts as `1.0`; adjacency and weight densities are cached), so
/// building one never rescans a matrix.
#[derive(Debug, Clone, Copy)]
struct Product {
    /// The primitive the whole-product decision executes as.
    executed: HostPrimitive,
    shape: ProductShape,
    alpha_x: f64,
    alpha_y: f64,
    /// The width fit that prices the blocks of a dense-stored Update (its
    /// GEMM or right-sparse body); `None` for every other route, and under
    /// the regions.
    update: Option<UpdateFit>,
}

impl Product {
    /// The dispatcher's prediction for the product executed whole.
    fn predicted_ms(&self, dispatcher: &KernelDispatcher) -> f64 {
        dispatcher.predict_ms(self.executed, self.shape, self.alpha_x, self.alpha_y)
    }

    /// The prediction for one row block that ran `run`: the width fit's
    /// price for a dense-stored Update's body, at the block's counted
    /// density; the dispatcher's otherwise.
    fn block_predicted_ms(&self, dispatcher: &KernelDispatcher, run: &BlockRun) -> f64 {
        match self.update {
            Some(fit) => fit.predict(run.prim, run.shape.m, run.alpha_x),
            None => dispatcher.predict_ms(run.prim, run.shape, run.alpha_x, self.alpha_y),
        }
    }
}

/// One kernel's routing, resolved once by [`Pass::resolve`].
struct Route<'a> {
    product: Product,
    exec: Exec<'a>,
}

/// How a resolved kernel executes.
enum Exec<'a> {
    /// An empty product: the output is reset to zeros.
    Skip,
    /// Sparse × sparse by Gustavson into CSR, kept sparse while the product's
    /// density is below the dispatch threshold.
    SparseProduct(&'a CsrMatrix, &'a CsrMatrix),
    /// A dense output computed `block_rows` rows at a time.
    Rows {
        block_rows: usize,
        body: BlockBody<'a>,
    },
}

/// What every row block of an [`Exec::Rows`] route runs.  Dense operands are
/// row-major: a column-major one was copied once at route resolution
/// ([`DenseMatrix::row_major`] borrows otherwise), so the block kernels stay
/// allocation-free.
enum BlockBody<'a> {
    /// Dense × dense.  The GEMM row kernel skips zero elements of `x`, so it
    /// doubles as the host SpDMM for a sparse-in-value dense operand, and
    /// its one pass over `x` counts the block's non-zeros into the block's
    /// counter row of the kernel input's profile — the block is priced from
    /// that exact density after it ran, and nothing scans `x` twice.
    Gemm {
        x: Cow<'a, DenseMatrix>,
        y: Cow<'a, DenseMatrix>,
    },
    /// Dense × CSR: the host SpDMM by the right operand, over `wt`, the CSR
    /// of `Wᵀ`.  It reads every element of `x` and multiplies by the stored
    /// weights only; it counts the block's non-zeros as the GEMM body does.
    RightSparse {
        x: Cow<'a, DenseMatrix>,
        wt: &'a CsrMatrix,
    },
    /// CSR × dense.  The block's density is an O(1) row-pointer difference;
    /// an empty block is skipped, and when the right operand also exists in
    /// CSR form (`y_csr`: sparse features, a cached pruned weight) the
    /// dispatcher picks per block between SpDMM against `y` and Gustavson rows
    /// accumulated straight into the dense block.  With `profiles` (an
    /// Update, whose `x` is the kernel input) either kernel counts the
    /// block's stored columns as it streams its rows, and probes their
    /// values, as the dense-left bodies do; an Aggregate's `x` is its static
    /// adjacency, which is not the kernel input and is not counted.
    CsrLeft {
        x: &'a CsrMatrix,
        y: Cow<'a, DenseMatrix>,
        y_csr: Option<&'a CsrMatrix>,
        profiles: bool,
    },
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

impl BlockBody<'_> {
    /// Decides and computes the output rows starting at `r0` into `out_rows`
    /// (every element is written), returning the block's slot.  `counts` is
    /// the block's counter row of the kernel input's profile (empty for a
    /// body that profiles nothing).
    fn run_block(
        &self,
        dispatcher: &KernelDispatcher,
        product: &Product,
        block_rows: usize,
        r0: usize,
        out_rows: &mut [f32],
        counts: &mut [usize],
    ) -> BlockRun {
        let ProductShape { n, d, .. } = product.shape;
        let rows = out_rows.len() / d;
        let shape = ProductShape::new(rows, n, d);
        match self {
            BlockBody::Gemm { x, y } => {
                // An Update row block is one grid row of the `N2 × N2`
                // subfiber tiling of `x`, so block columns are `block_rows`
                // wide.  An all-zero block computed as GEMM writes the same
                // exact `+0.0` a skip fill would.
                let finite = gemm_rows_into(x, y, r0, out_rows, block_rows, counts)
                    .expect("shapes and layouts were settled at route resolution");
                let nnz = counts.iter().sum();
                let alpha_x = block_density(nnz, rows, n);
                BlockRun::ran(HostPrimitive::Gemm, shape, alpha_x, finite)
            }
            BlockBody::RightSparse { x, wt } => {
                let finite = right_sparse_rows_into(x, wt, r0, out_rows, block_rows, counts)
                    .expect("shapes and layouts were settled at route resolution");
                let nnz = counts.iter().sum();
                let alpha_x = block_density(nnz, rows, n);
                BlockRun::ran(HostPrimitive::SpDmmRight, shape, alpha_x, finite)
            }
            BlockBody::CsrLeft { x, y, y_csr, .. } => {
                let alpha_x = block_density(x.rows_nnz(r0, r0 + rows), rows, n);
                let prim = match y_csr {
                    Some(_) => dispatcher.decide(shape, alpha_x, product.alpha_y),
                    // Without a CSR right operand the route is structurally
                    // forced: the block has work for the sparse-dense kernel
                    // or it has none.
                    None if alpha_x > 0.0 => HostPrimitive::SpDmm,
                    None => HostPrimitive::Skip,
                };
                // A Skip block stores nothing (the route is a whole-product
                // Skip when `y` is empty), so its counters stay at zero.
                let finite = match (prim, y_csr) {
                    (HostPrimitive::Skip, _) => {
                        debug_assert_eq!(alpha_x, 0.0, "a skipped block stores nothing");
                        out_rows.fill(0.0);
                        true
                    }
                    (HostPrimitive::Spmm, Some(y_csr)) => x
                        .spgemm_rows_dense_into(y_csr, r0, out_rows, block_rows, counts)
                        .expect("shapes were settled at route resolution"),
                    _ => x
                        .spmm_dense_rows_into(y, r0, out_rows, block_rows, counts)
                        .expect("shapes and layouts were settled at route resolution"),
                };
                BlockRun::ran(prim, shape, alpha_x, finite)
            }
        }
    }
}

/// The shape of `left × right`, or the mismatch error of a request that
/// does not fit the model.
fn product_shape(left: (usize, usize), right: (usize, usize)) -> Result<ProductShape> {
    if left.1 != right.0 {
        return Err(MatrixError::ShapeMismatch {
            op: "forward_dispatch",
            lhs: left,
            rhs: right,
        });
    }
    Ok(ProductShape::new(left.0, left.1, right.1))
}

/// What stays fixed over one forward pass: the executor (model and
/// adjacencies), the dispatcher, and the compiler partition whose row blocks
/// dense-output kernels execute over.
struct Pass<'a> {
    executor: &'a ReferenceExecutor,
    dispatcher: &'a KernelDispatcher,
    partition: &'a PartitionSpec,
}

impl Pass<'_> {
    /// Resolves the routing of `spec` over the input `kin` — the one place a
    /// kernel's route is decided.  A sparse right operand the dense-operand
    /// block kernel will read is densified into `densify` here.
    fn resolve<'k>(
        &'k self,
        spec: &KernelSpec,
        kin: &'k FeatureMatrix,
        densify: &'k mut DenseMatrix,
    ) -> Result<Route<'k>> {
        // The operands as stored: the CSR left operand, the right operand in
        // whichever of its dense / CSR forms exist, the density the route
        // charges for it, and whether the route is forced whatever the
        // dispatcher would decide.
        let (shape, block_rows, x, y_dense, y_csr, alpha_y, forced) = match spec.op {
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .executor
                    .adjacency(aggregator)
                    .expect("adjacency prepared at executor construction");
                let shape = product_shape(adj.shape(), kin.shape())?;
                let block_rows = self.partition.aggregate_block_rows().max(1);
                match kin {
                    // Adjacencies are stored sparse, so a dense `H` forces
                    // the sparse-dense route, and the kernel touches every
                    // stored element of `H`: α_Y is the dense 1.0.
                    FeatureMatrix::Dense(h) => (shape, block_rows, adj, Some(h), None, 1.0, true),
                    FeatureMatrix::Sparse(h) => {
                        (shape, block_rows, adj, None, Some(h), h.density(), false)
                    }
                }
            }
            KernelOp::Update { weight } => {
                let w = &self.executor.model().weights[weight];
                let shape = product_shape(kin.shape(), w.shape())?;
                let block_rows = self.partition.update_block_rows().max(1);
                match kin {
                    // Dense-stored `H`: the counting GEMM, which skips the
                    // zeros of `H`, or the right-sparse body, which skips the
                    // weight's, whichever the dispatcher prices lower at
                    // these widths (the density rule under the regions).
                    FeatureMatrix::Dense(h) => {
                        let alpha_w = w.density();
                        let x = h.row_major();
                        let (executed, alpha_x, body) =
                            match self.dispatcher.right_sparse_weight(weight, h, alpha_w) {
                                Some((wt, alpha_h)) => (
                                    HostPrimitive::SpDmmRight,
                                    alpha_h,
                                    BlockBody::RightSparse { x, wt },
                                ),
                                // The GEMM streams every stored element of
                                // `H`: α_X is the dense 1.0.
                                None => (
                                    HostPrimitive::Gemm,
                                    1.0,
                                    BlockBody::Gemm {
                                        x,
                                        y: w.row_major(),
                                    },
                                ),
                            };
                        let product = Product {
                            executed,
                            shape,
                            alpha_x,
                            alpha_y: alpha_w,
                            update: self.dispatcher.update_fits.get(weight).copied(),
                        };
                        let exec = Exec::Rows { block_rows, body };
                        return Ok(Route { product, exec });
                    }
                    FeatureMatrix::Sparse(h) => {
                        let w_csr = self.dispatcher.weight_csr[weight].as_ref();
                        (shape, block_rows, h, Some(w), w_csr, w.density(), false)
                    }
                }
            }
        };
        let alpha_x = x.density();
        let decision = if forced {
            HostPrimitive::SpDmm
        } else {
            self.dispatcher.decide(shape, alpha_x, alpha_y)
        };
        let (executed, exec) = match (decision, y_csr) {
            (HostPrimitive::Skip, _) => (HostPrimitive::Skip, Exec::Skip),
            (HostPrimitive::Spmm, Some(y_csr)) => {
                (HostPrimitive::Spmm, Exec::SparseProduct(x, y_csr))
            }
            // SpDMM, or Gustavson without a CSR right operand: the CSR-left
            // block body against the dense right operand.
            (_, y_csr) => {
                let y = match (y_dense, y_csr) {
                    (Some(y), _) => y.row_major(),
                    (None, Some(y_csr)) => {
                        y_csr.to_dense_into(densify);
                        Cow::Borrowed(&*densify)
                    }
                    (None, None) => unreachable!("every right operand has a stored form"),
                };
                // An Update's left operand is the kernel input; an
                // Aggregate's is the static adjacency.
                let profiles = matches!(spec.op, KernelOp::Update { .. });
                let body = BlockBody::CsrLeft {
                    x,
                    y,
                    y_csr,
                    profiles,
                };
                (HostPrimitive::SpDmm, Exec::Rows { block_rows, body })
            }
        };
        let product = Product {
            executed,
            shape,
            alpha_x,
            alpha_y,
            update: None,
        };
        Ok(Route { product, exec })
    }

    /// The one kernel runner: resolves `spec`'s route, runs it into
    /// `out_slot` and returns the predicted milliseconds — the sum of
    /// per-block predictions for a *rows* route, the whole-product prediction
    /// otherwise (`NaN` when the dispatcher prices nothing).  When a probe is
    /// attached it times the kernel and records its span (counters and the
    /// kernel-time histogram always, the flight-recorder ring at `trace`
    /// level): exactly one counter bump, histogram observation and drift
    /// fold per call.  The probe itself allocates nothing.
    fn run(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        out_slot: &mut ArenaSlot,
        scratch: &mut KernelScratch,
        mut probe: Option<&mut ProbeCtx<'_>>,
    ) -> Result<f64> {
        let started = probe.as_ref().map(|_| Instant::now());
        let KernelScratch {
            densify,
            spgemm,
            profile,
            scanned,
            blocks,
        } = scratch;
        *scanned = None;
        let Route { product, exec } = self.resolve(spec, kin, densify)?;
        let ProductShape { m, n, d } = product.shape;
        let predicted_ms = match exec {
            Exec::Skip => {
                slot_as_dense(out_slot, spgemm).reset(m, d);
                product.predicted_ms(self.dispatcher)
            }
            Exec::SparseProduct(x, y) => {
                let sparse = x.spgemm_with(y, spgemm)?;
                if self.dispatcher.keep_sparse_output(sparse.density()) {
                    slot_set_sparse(out_slot, sparse, spgemm);
                } else {
                    sparse.to_dense_into(slot_as_dense(out_slot, spgemm));
                    spgemm.reclaim(sparse.into_parts());
                }
                product.predicted_ms(self.dispatcher)
            }
            Exec::Rows { block_rows, body } => {
                // Every block kernel writes its whole chunk, so the reshape
                // skips the zero-fill.
                let out = slot_as_dense(out_slot, spgemm);
                out.reset_for_overwrite(m, d);
                // Block `k` of a body that profiles the kernel input owns
                // counter row `k` of the profile handed to `on_kernel` (with
                // `d == 0` no row is read and nothing is handed over).
                let (scans, count_rows) = match body {
                    BlockBody::Gemm { .. }
                    | BlockBody::RightSparse { .. }
                    | BlockBody::CsrLeft { profiles: true, .. } => {
                        (d > 0, profile.refit_tiled((m, n), (block_rows, block_rows)))
                    }
                    BlockBody::CsrLeft { .. } => (false, <&mut [usize]>::default().chunks_mut(1)),
                };
                let out = out.as_mut_slice();
                let probe = probe.as_deref_mut();
                let (predicted_ms, finite) =
                    self.run_rows(&product, block_rows, &body, out, count_rows, blocks, probe);
                *scanned = scans.then_some(finite);
                predicted_ms
            }
        };
        if let (Some(probe), Some(started)) = (probe, started) {
            probe.telemetry.record_span(
                probe.layer,
                probe.kernel,
                span_primitive(product.executed),
                (product.shape.m, product.shape.n, product.shape.d),
                product.alpha_x,
                product.alpha_y,
                predicted_ms,
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
        Ok(predicted_ms)
    }

    /// Runs the row blocks of a dense-output route through the global
    /// [`ThreadPool`] (inline when it has one thread).  Block `k` is claimed
    /// together with its output rows, slot `k` of `runs` and the `k`-th
    /// counter row of `count_rows` (exhausted for a body that profiles
    /// nothing), and gets its own density and decision through
    /// [`BlockBody::run_block`].  Once every block ran, the slots are read
    /// back in block order: each block is priced, the finite positive
    /// predictions are summed — so the sum does not depend on which thread
    /// ran which block — and, at `trace` level, each block lands in the
    /// trace ring through `probe`.  Returns the summed prediction and whether
    /// every block's scan found its rows finite.
    #[allow(clippy::too_many_arguments)]
    fn run_rows(
        &self,
        product: &Product,
        block_rows: usize,
        body: &BlockBody<'_>,
        out: &mut [f32],
        mut count_rows: std::slice::ChunksMut<'_, usize>,
        runs: &mut Vec<BlockRun>,
        probe: Option<&mut ProbeCtx<'_>>,
    ) -> (f64, bool) {
        if out.is_empty() {
            return (0.0, true);
        }
        let dispatcher = self.dispatcher;
        let chunk = block_rows * product.shape.d;
        let blocks = out.len().div_ceil(chunk);
        if runs.len() < blocks {
            runs.resize(blocks, BlockRun::UNSET);
        }
        let runs = &mut runs[..blocks];
        let mut probe = probe.filter(|probe| probe.telemetry.tracing());
        let tracing = probe.is_some();
        let items = out
            .chunks_mut(chunk)
            .zip(runs.iter_mut())
            .enumerate()
            .map(move |(bi, (rows, run))| (bi, rows, run, count_rows.next().unwrap_or_default()));
        ThreadPool::global().for_each_item(items, |(bi, rows, run, counts)| {
            let started = tracing.then(Instant::now);
            let r0 = bi * block_rows;
            *run = body.run_block(dispatcher, product, block_rows, r0, rows, counts);
            run.measured_ms = started.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1e3);
        });
        let alpha_y = product.alpha_y;
        let mut predicted = 0.0f64;
        let mut finite = true;
        for (bi, run) in runs.iter().enumerate() {
            finite &= run.finite;
            let p = product.block_predicted_ms(dispatcher, run);
            if p.is_finite() && p > 0.0 {
                predicted += p;
            }
            if let Some(probe) = probe.as_deref_mut() {
                probe.telemetry.record_block_span(
                    probe.layer,
                    probe.kernel,
                    bi.min(u16::MAX as usize - 1) as u16,
                    span_primitive(run.prim),
                    (run.shape.m, run.shape.n, run.shape.d),
                    run.alpha_x,
                    alpha_y,
                    p,
                    run.measured_ms,
                );
            }
        }
        (predicted, finite)
    }
}

impl ReferenceExecutor {
    /// Builds an arena sized for this executor's model at `num_vertices`.
    pub fn arena(&self, num_vertices: usize) -> KernelArena {
        KernelArena::for_model(self.model(), num_vertices)
    }

    /// Runs the full model through the dispatching kernel engine: every
    /// kernel's route is resolved once from its runtime operands, and every
    /// dense-output kernel executes over the row blocks of the compiler's
    /// `partition` with a per-block density and primitive decision through
    /// [`KernelDispatcher::decide`].  The final embeddings are left in
    /// [`KernelArena::output`]; in steady state (an arena reused across
    /// requests of one topology) the pass performs no heap allocation.
    ///
    /// When `telemetry` is supplied (and enabled) every kernel is timed and
    /// recorded as one kernel span.
    ///
    /// `on_kernel(layer, kernel, spec, input, output, scanned)` runs after
    /// every kernel; an error it returns ends the pass with that error.
    /// `scanned` is `Some((profile, finite))` when the kernel's own pass
    /// already profiled `input` — an Update run over row blocks, whatever
    /// `input`'s storage, whose profile over the `N2 × N2` subfiber tiling
    /// equals `input.density_profile_into(&partition.subfiber_grid(..), ..)`,
    /// and `finite` says whether every element (stored value, for a CSR
    /// `input`) is finite — and `None` when the caller must refit it
    /// (Aggregates, and an Update that ran whole: an empty product or a
    /// sparse-sparse product into CSR).
    ///
    /// Returns the predicted milliseconds summed over every executed kernel
    /// (finite predictions only; `0.0` when the dispatcher prices nothing),
    /// which becomes the report's `predicted_kernel_ms`.
    pub fn forward_dispatch<F>(
        &self,
        input: &FeatureMatrix,
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        partition: &PartitionSpec,
        telemetry: Option<&mut SessionTelemetry>,
        mut on_kernel: F,
    ) -> Result<f64>
    where
        F: FnMut(
            usize,
            usize,
            &KernelSpec,
            &FeatureMatrix,
            &FeatureMatrix,
            Option<(&DensityProfile, bool)>,
        ) -> Result<()>,
    {
        let mut telemetry = telemetry.filter(|t| t.enabled());
        let mut predicted_total = 0.0f64;
        let KernelArena {
            slots,
            input: input_slot,
            acc,
            scratch,
        } = arena;
        let pass = Pass {
            executor: self,
            dispatcher,
            partition,
        };
        // Layer 0 reads the request features directly (no copy into the
        // arena); later layers read the swapped-in accumulator.
        let mut external_input = Some(input);
        for (l, layer) in self.model().layers.iter().enumerate() {
            for (ki, spec) in layer.kernels.iter().enumerate() {
                let (read, write) = slots.split_at_mut(ki);
                let out_slot = &mut write[0];
                let kin: &FeatureMatrix = match spec.input {
                    KernelInput::LayerInput => external_input.unwrap_or(&input_slot.value),
                    KernelInput::Kernel(j) => &read[j].value,
                };
                let mut probe = telemetry.as_deref_mut().map(|t| ProbeCtx {
                    telemetry: t,
                    layer: l as u16,
                    kernel: ki as u16,
                });
                let predicted = pass.run(spec, kin, out_slot, scratch, probe.as_mut())?;
                if predicted.is_finite() {
                    predicted_total += predicted;
                }
                if let Some(act) = spec.activation {
                    apply_activation_inplace(&mut out_slot.value, act);
                }
                let scanned = scratch.scanned.map(|finite| (&scratch.profile, finite));
                on_kernel(l, ki, spec, kin, &out_slot.value, scanned)?;
            }
            combine_layer_outputs(layer, slots, acc, &mut scratch.spgemm)?;
            if let Some(act) = layer.output_activation {
                apply_activation_inplace(&mut acc.value, act);
            }
            std::mem::swap(input_slot, acc);
            external_input = None;
        }
        Ok(predicted_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::GnnModelKind;
    use crate::pruning::prune_model;
    use crate::reference::prepare_adjacencies;
    use dynasparse_graph::generators::{dense_features, power_law_graph, PowerLawConfig};
    use dynasparse_graph::Graph;
    use dynasparse_matrix::{CalibrationConfig, Layout, UPDATE_FIT_ALPHAS};
    use dynasparse_telemetry::{Registry, TelemetryLevel};

    const VERTICES: usize = 48;

    fn small_graph() -> Graph {
        power_law_graph(
            "dispatch-test",
            &PowerLawConfig {
                num_vertices: VERTICES,
                num_edges: 180,
                exponent: 2.2,
                seed: 3,
            },
        )
    }

    fn sparse(features: &FeatureMatrix) -> FeatureMatrix {
        FeatureMatrix::Sparse(CsrMatrix::from_dense(&features.to_dense()))
    }

    /// The one equivalence check of the executor: over `model` on the test
    /// graph, every request must equal the fixed-kernel oracle
    /// [`ReferenceExecutor::forward`] bit for bit, whatever `partition`
    /// blocks the kernels into and under both host cost models.
    fn check_against_reference(
        model: &GnnModel,
        requests: &[FeatureMatrix],
        partition: &PartitionSpec,
    ) {
        let exec = ReferenceExecutor::new(model, &small_graph());
        check_executor_against_reference(&exec, requests, partition);
    }

    /// [`check_against_reference`] over a caller-built executor (hand-made
    /// adjacencies).
    fn check_executor_against_reference(
        exec: &ReferenceExecutor,
        requests: &[FeatureMatrix],
        partition: &PartitionSpec,
    ) {
        let policy = DispatchPolicy::from_regions(16);
        let want: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| exec.forward(r).unwrap().to_dense())
            .collect();
        for calibration in [None, Some(Arc::new(HostCalibration::reference()))] {
            let ctx = format!(
                "partition ({}, {}), calibrated {}",
                partition.n1,
                partition.n2,
                calibration.is_some()
            );
            let dispatcher = KernelDispatcher::new(
                exec.model(),
                policy,
                calibration,
                &price_update_widths(exec.model()),
            );
            // One arena serves every request: reuse across requests of
            // different densities and representations is part of the check.
            let mut arena = exec.arena(VERTICES);
            for (i, (request, want)) in requests.iter().zip(&want).enumerate() {
                exec.forward_dispatch(
                    request,
                    &dispatcher,
                    &mut arena,
                    partition,
                    None,
                    |_, _, _, _, _, _| Ok(()),
                )
                .unwrap();
                assert_eq!(arena.output().shape(), want.shape());
                assert_eq!(
                    arena.output().to_dense().as_slice(),
                    want.as_slice(),
                    "request {i} must match the reference bit for bit ({ctx})"
                );
            }
        }
    }

    #[test]
    fn every_model_kind_matches_the_reference_executor() {
        let h0 = dense_features(VERTICES, 24, 0.3, 9);
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            check_against_reference(&model, std::slice::from_ref(&h0), &PartitionSpec::default());
        }
    }

    #[test]
    fn sparse_features_and_pruned_weights_match_the_reference() {
        let h0 = sparse(&dense_features(VERTICES, 24, 0.04, 10));
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            check_against_reference(&model, std::slice::from_ref(&h0), &PartitionSpec::default());
        }
    }

    #[test]
    fn dense_full_density_features_take_the_gemm_route() {
        let h0 = dense_features(VERTICES, 24, 1.0, 11);
        let model = GnnModel::gcn(24, 8, 5, 19);
        check_against_reference(&model, &[h0], &PartitionSpec::default());
    }

    /// "Whole kernel" is the oracle's fixed whole-matrix kernel per kernel
    /// kind; the executor has no whole-kernel dense path of its own.
    #[test]
    fn blocked_dispatch_matches_whole_kernel_for_every_model_kind() {
        let h0 = dense_features(VERTICES, 24, 0.3, 9);
        // Block sizes that don't divide 48 exercise the fringe block.
        let partition = PartitionSpec::new(13, 7).unwrap();
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            check_against_reference(&model, std::slice::from_ref(&h0), &partition);
        }
    }

    #[test]
    fn blocked_dispatch_matches_on_sparse_features_and_pruned_weights() {
        let h0 = sparse(&dense_features(VERTICES, 24, 0.04, 10));
        let partition = PartitionSpec::new(48, 5).unwrap();
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            check_against_reference(&model, std::slice::from_ref(&h0), &partition);
        }
    }

    /// Requests for the hostile-partition cases: dense and CSR, each with
    /// rows 8..24 zeroed so whole Update row blocks are empty.
    fn requests_with_an_all_zero_row_block(dim: usize) -> Vec<FeatureMatrix> {
        let mut holed = dense_features(VERTICES, dim, 0.3, 21).to_dense();
        for r in 8..24 {
            for c in 0..dim {
                holed.set(r, c, 0.0);
            }
        }
        let holed = FeatureMatrix::Dense(holed);
        vec![
            sparse(&holed),
            holed,
            dense_features(VERTICES, dim, 0.05, 22),
        ]
    }

    #[test]
    fn hostile_partitions_match_the_reference() {
        let requests = requests_with_an_all_zero_row_block(24);
        // One-row blocks, blocks taller than the matrix, sizes that do not
        // divide 48 (alone and against each other).
        for (n1, n2) in [(1, 1), (VERTICES, VERTICES), (1000, 64), (13, 7), (5, 3)] {
            let partition = PartitionSpec::new(n1, n2).unwrap();
            for kind in GnnModelKind::all() {
                let model = prune_model(&GnnModel::standard(kind, 24, 8, 5, 13), 0.9);
                check_against_reference(&model, &requests, &partition);
            }
            let model = GnnModel::gcn(24, 8, 5, 13);
            check_against_reference(&model, &requests, &partition);
        }
    }

    #[test]
    fn pruned_weights_over_dense_requests_match_the_reference() {
        // Dense-stored requests on both sides of the pruned weights'
        // densities (and of Table IV's SpDMM boundary), so Updates take the
        // right-sparse body, the counting GEMM, and both within one pass —
        // over the hostile partitions (ragged and one-row tiles of the
        // right-sparse kernel).
        let requests: Vec<FeatureMatrix> = [0.02, 0.5, 1.0]
            .iter()
            .map(|&density| dense_features(VERTICES, 24, density, 51))
            .collect();
        for sparsity in [0.9, 0.99] {
            for kind in GnnModelKind::all() {
                let model = prune_model(&GnnModel::standard(kind, 24, 8, 5, 13), sparsity);
                let partitions = [
                    (1, 1),
                    (VERTICES, VERTICES),
                    (1000, 64),
                    (13, 7),
                    (5, 3),
                    (17, 16),
                ];
                for (n1, n2) in partitions {
                    let partition = PartitionSpec::new(n1, n2).unwrap();
                    check_against_reference(&model, &requests, &partition);
                }
            }
        }
    }

    /// The kernel spans of one pass (the block spans with `blocks`), as
    /// `(layer, kernel, primitive)`, recorded at trace level under the
    /// Table IV regions.
    fn span_primitives(
        exec: &ReferenceExecutor,
        request: &FeatureMatrix,
        partition: &PartitionSpec,
        blocks: bool,
    ) -> Vec<(u16, u16, SpanPrimitive)> {
        let dispatcher = KernelDispatcher::new(exec.model(), DispatchPolicy::default(), None, &[]);
        spans_under(&dispatcher, exec, request, partition, blocks)
    }

    /// [`span_primitives`] under a caller-built dispatcher.
    fn spans_under(
        dispatcher: &KernelDispatcher,
        exec: &ReferenceExecutor,
        request: &FeatureMatrix,
        partition: &PartitionSpec,
        blocks: bool,
    ) -> Vec<(u16, u16, SpanPrimitive)> {
        let registry = Arc::new(Registry::new(TelemetryLevel::Trace));
        let mut telemetry = SessionTelemetry::with_capacity(registry, 4096);
        let mut arena = exec.arena(VERTICES);
        exec.forward_dispatch(
            request,
            dispatcher,
            &mut arena,
            partition,
            Some(&mut telemetry),
            |_, _, _, _, _, _| Ok(()),
        )
        .unwrap();
        let spans = telemetry.recorder().spans();
        spans
            .filter(|s| s.is_block() == blocks)
            .map(|s| (s.layer, s.kernel, s.primitive))
            .collect()
    }

    /// Under the Table IV regions fallback the dense Update's body is the
    /// density rule's ([`DispatchPolicy::prefers_right_sparse`]).
    #[test]
    fn a_pruned_weight_runs_a_dense_update_as_spdmm_where_it_is_the_sparser_operand() {
        let partition = PartitionSpec::new(16, 16).unwrap();
        // What every Update kernel of one pass ran as, in execution order.
        let updates = |model: &GnnModel, request: &FeatureMatrix| -> Vec<SpanPrimitive> {
            let exec = ReferenceExecutor::new(model, &small_graph());
            let update = |&(l, k, _): &(u16, u16, SpanPrimitive)| {
                !model.layers[l as usize].kernels[k as usize]
                    .op
                    .is_aggregate()
            };
            let kernels = span_primitives(&exec, request, &partition, false);
            let blocks = span_primitives(&exec, request, &partition, true);
            let kernels: Vec<_> = kernels.into_iter().filter(update).collect();
            // Every block of a kernel ran what the kernel span says.
            for &(l, k, prim) in blocks.iter().filter(|&span| update(span)) {
                assert!(
                    kernels.contains(&(l, k, prim)),
                    "block of ({l}, {k}) ran {prim:?}"
                );
            }
            kernels.into_iter().map(|(_, _, prim)| prim).collect()
        };
        let half_dense = dense_features(VERTICES, 24, 0.5, 61);
        // A 90 %-pruned GIN: all four Updates read features denser than
        // their weight.
        let gin = prune_model(&GnnModel::gin(24, 16, 8, 13), 0.9);
        assert_eq!(updates(&gin, &half_dense), [SpanPrimitive::SpDmm; 4]);
        // A 1 %-dense request is sparser than the first weight of a pruned
        // GCN: that Update stays the counting GEMM.
        let gcn = prune_model(&GnnModel::gcn(24, 16, 8, 13), 0.9);
        let sparse_request = dense_features(VERTICES, 24, 0.01, 62);
        assert_eq!(updates(&gcn, &sparse_request)[0], SpanPrimitive::Gemm);
        assert_eq!(updates(&gcn, &half_dense)[0], SpanPrimitive::SpDmm);
        // The rule's other two boundaries (a cached weight is never in the
        // GEMM region of the 16×16 regions): below the SpDMM region a
        // sparser weight still runs the counting GEMM, and inside it a
        // weight denser than the request does.
        let regions = DispatchPolicy::default();
        for (pruned, alpha_h, seed, region) in [
            (0.97, 0.08, 63, HostPrimitive::Spmm),
            (0.6, 0.2, 64, HostPrimitive::SpDmm),
        ] {
            let gcn = prune_model(&GnnModel::gcn(24, 16, 8, 13), pruned);
            let request = dense_features(VERTICES, 24, alpha_h, seed);
            let (alpha_h, alpha_w) = (request.density(), gcn.weights[0].density());
            assert_eq!(regions.decide(alpha_h, alpha_w), region);
            assert_eq!(alpha_w < alpha_h, region == HostPrimitive::Spmm);
            let ran = updates(&gcn, &request);
            assert_eq!(ran[0], SpanPrimitive::Gemm, "{region:?}");
        }
        // An unpruned weight caches no CSR: every Update is GEMM.
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 16, 8, 13);
            let ran = updates(&model, &half_dense);
            assert!(
                ran.iter().all(|&prim| prim == SpanPrimitive::Gemm),
                "{kind:?}: {ran:?}"
            );
        }
    }

    /// A hand-built width fit shaped like the measured ones, with no
    /// timing: the GEMM pays a scan of the row plus two units per surviving
    /// multiply-add, the right-sparse body a transposition of the row plus
    /// one unit per stored weight, whatever `α_H` (1 ns a unit).  So the
    /// right-sparse body wins above `α_H = (1 + α_W·d) / (2·d)`.
    fn modeled_fit(n: usize, d: usize, alpha_w: f64) -> UpdateFit {
        let (n, d) = (n as f64, d as f64);
        let at = |price: &dyn Fn(f64) -> f64| UPDATE_FIT_ALPHAS.map(price);
        UpdateFit {
            gemm: at(&|alpha| 1e-6 * (n + 2.0 * alpha * n * d)),
            right_sparse: at(&|_| 1e-6 * (2.0 * n + alpha_w * n * d)),
        }
    }

    /// A hand-built fit whose right-sparse body is priced lower above
    /// `alpha_h = cross` and GEMM below.
    fn crossing_fit(cross: f64) -> UpdateFit {
        UpdateFit {
            gemm: UPDATE_FIT_ALPHAS.map(|alpha| 1e-4 * (0.1 + alpha)),
            right_sparse: [1e-4 * (0.1 + cross); UPDATE_FIT_ALPHAS.len()],
        }
    }

    /// A hand-built fit whose GEMM is priced lower at every density.
    fn gemm_everywhere_fit() -> UpdateFit {
        UpdateFit {
            gemm: UPDATE_FIT_ALPHAS.map(|alpha| 1e-4 * (0.1 + alpha)),
            right_sparse: [1e-4 * 1.2; UPDATE_FIT_ALPHAS.len()],
        }
    }

    /// A dispatcher over `model` that prices every weight's dense Update by
    /// `fit(n, d, α_W)`, with a plan input density of `input_density`.
    fn dispatcher_with_fits(
        model: &GnnModel,
        fit: impl Fn(usize, usize, f64) -> UpdateFit,
        input_density: f64,
    ) -> KernelDispatcher {
        let fits: Vec<UpdateFit> = model
            .weights
            .iter()
            .map(|w| fit(w.rows(), w.cols(), w.density()))
            .collect();
        let calibration = Some(Arc::new(HostCalibration::reference()));
        let policy = DispatchPolicy::from_regions(16);
        let mut dispatcher = KernelDispatcher::new(model, policy, calibration, &fits);
        dispatcher.set_input_density(input_density);
        dispatcher
    }

    /// A fresh dense `rows × cols` request at `density`: nothing has counted
    /// it.
    fn fresh_dense(rows: usize, cols: usize, density: f64, seed: u64) -> DenseMatrix {
        let fresh = dense_features(rows, cols, density, seed).to_dense();
        assert_eq!(fresh.cached_nnz(), None);
        fresh
    }

    #[test]
    fn each_dense_update_body_is_picked_in_its_band_with_both_prices() {
        let model = GnnModel::gcn(24, 16, 5, 13);
        let dispatcher = dispatcher_with_fits(&model, |_, _, _| crossing_fit(0.5), 1.0);
        for (alpha_h, seed, want) in [
            (0.05, 71, HostPrimitive::Gemm),
            (0.3, 72, HostPrimitive::Gemm),
            (0.7, 73, HostPrimitive::SpDmmRight),
            (1.0, 74, HostPrimitive::SpDmmRight),
        ] {
            let h = fresh_dense(VERTICES, 24, alpha_h, seed);
            let counted = h.density();
            let choice = dispatcher.choose_dense_update(0, &h).unwrap();
            assert_eq!(choice.pick, want, "α_H {counted}");
            assert_eq!(choice.alpha_h, counted);
            // Both candidates are priced over every row, and the pick is
            // the cheaper one.
            let fit = crossing_fit(0.5);
            let gemm = fit.predict(HostPrimitive::Gemm, VERTICES, counted);
            let right = fit.predict(HostPrimitive::SpDmmRight, VERTICES, counted);
            assert_eq!((choice.gemm_ms, choice.right_sparse_ms), (gemm, right));
            assert!(gemm > 0.0 && right > 0.0);
            assert_eq!(want == HostPrimitive::SpDmmRight, right < gemm);
        }
        // Under the regions nothing is priced.
        let regions = KernelDispatcher::new(&model, DispatchPolicy::default(), None, &[]);
        let h = fresh_dense(VERTICES, 24, 0.5, 75);
        assert_eq!(regions.choose_dense_update(0, &h), None);
    }

    #[test]
    fn a_sparse_wide_request_keeps_gemm_and_is_not_scanned_to_pick_it() {
        // Cora's shapes: a 1.27 %-dense 2708 × 1433 request under an
        // unpruned 1433 × 16 weight, whose prices cross at α_H ≈ 0.53.
        let model = GnnModel::gcn(1433, 16, 7, 13);
        let fit = modeled_fit(1433, 16, 1.0);
        assert_eq!(fit.settled(), None, "the price depends on α_H");
        let dispatcher = dispatcher_with_fits(&model, modeled_fit, 0.0127);
        let exec = ReferenceExecutor::from_prepared(Arc::new(model), Arc::default());
        let pass = Pass {
            executor: &exec,
            dispatcher: &dispatcher,
            partition: &PartitionSpec::default(),
        };
        let spec = &exec.model().layers[0].kernels[0];
        let resolved = |h: &DenseMatrix| {
            let h = FeatureMatrix::Dense(h.clone());
            let mut densify = DenseMatrix::zeros(0, 0);
            let route = pass.resolve(spec, &h, &mut densify).unwrap();
            route.product.executed
        };
        let fresh = fresh_dense(2708, 1433, 0.0127, 76);
        assert_eq!(resolved(&fresh), HostPrimitive::Gemm);
        assert_eq!(fresh.cached_nnz(), None, "resolving kernel 0 scanned it");
        let choice = dispatcher.choose_dense_update(0, &fresh).unwrap();
        assert_eq!(choice.alpha_h, 0.0127, "priced at the plan's density");
        assert!(choice.gemm_ms < choice.right_sparse_ms);
        assert_eq!(fresh.cached_nnz(), None);
        // Counted, it is still GEMM; a dense request runs right-sparse once
        // its count is known, and GEMM (the plan's density) until then.
        fresh.nnz();
        assert_eq!(resolved(&fresh), HostPrimitive::Gemm);
        let dense = fresh_dense(2708, 1433, 0.9, 77);
        assert_eq!(resolved(&dense), HostPrimitive::Gemm);
        assert_eq!(dense.cached_nnz(), None);
        dense.nnz();
        assert_eq!(resolved(&dense), HostPrimitive::SpDmmRight);
    }

    #[test]
    fn a_priced_dense_update_runs_the_cheaper_body_bit_identically() {
        // A counted request is priced at its own α_H, so the pick follows
        // each request through the pass, and the embeddings stay the
        // oracle's either way.
        let partition = PartitionSpec::new(16, 16).unwrap();
        let model = GnnModel::gcn(24, 16, 8, 13);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = dispatcher_with_fits(&model, |_, _, _| crossing_fit(0.5), 0.5);
        let first_update = |request: &FeatureMatrix| -> SpanPrimitive {
            request.density();
            spans_under(&dispatcher, &exec, request, &partition, false)[0].2
        };
        let sparse_request = dense_features(VERTICES, 24, 0.01, 78);
        assert_eq!(first_update(&sparse_request), SpanPrimitive::Gemm);
        let dense_request = dense_features(VERTICES, 24, 1.0, 79);
        assert_eq!(first_update(&dense_request), SpanPrimitive::SpDmm);
        let mut arena = exec.arena(VERTICES);
        for request in [&sparse_request, &dense_request] {
            exec.forward_dispatch(
                request,
                &dispatcher,
                &mut arena,
                &partition,
                None,
                |_, _, _, _, _, _| Ok(()),
            )
            .unwrap();
            let want = exec.forward(request).unwrap().to_dense();
            assert_eq!(arena.output().to_dense().as_slice(), want.as_slice());
        }
    }

    #[test]
    fn empty_row_blocks_are_skipped_per_block_and_stay_exact() {
        // Isolated vertices *without* self-loops: rows 8..16 of every
        // adjacency are empty, so with 4-row Aggregate blocks two blocks of
        // each Aggregate kernel have no non-zero at all.
        let model = GnnModel::graphsage(24, 8, 5, 13);
        let adjacencies = prepare_adjacencies(&model, &small_graph())
            .into_iter()
            .map(|(kind, adj)| {
                let mut dense = adj.to_dense();
                for r in 8..16 {
                    for c in 0..VERTICES {
                        dense.set(r, c, 0.0);
                    }
                }
                (kind, CsrMatrix::from_dense(&dense))
            })
            .collect();
        let exec = ReferenceExecutor::from_prepared(Arc::new(model), Arc::new(adjacencies));
        let requests = requests_with_an_all_zero_row_block(24);
        let partition = PartitionSpec::new(4, 4).unwrap();
        check_executor_against_reference(&exec, &requests, &partition);

        // The empty blocks really are decided per block: the Aggregate
        // kernels skip exactly their empty adjacency blocks, and the CSR
        // request's layer-0 Update skips its four all-zero feature blocks.
        let skipped = |request: &FeatureMatrix, aggregate: bool| {
            span_primitives(&exec, request, &partition, true)
                .into_iter()
                .filter(|&(l, k, prim)| {
                    let spec = &exec.model().layers[l as usize].kernels[k as usize];
                    spec.op.is_aggregate() == aggregate && prim == SpanPrimitive::Skip
                })
                .count()
        };
        let aggregates = exec.model().layers.iter().flat_map(|l| &l.kernels);
        let aggregates = aggregates.filter(|k| k.op.is_aggregate()).count();
        assert_eq!(skipped(&requests[1], true), 2 * aggregates);
        assert!(skipped(&requests[0], false) >= 4);
    }

    #[test]
    fn column_major_operands_match_the_reference() {
        // A column-major request reaches a dense Update input (GCN) and a
        // dense Aggregate input (GraphSAGE, GIN); one model weight is
        // column-major too.  Each takes one row-major copy at route
        // resolution and then runs the ordinary block loop.
        let partition = PartitionSpec::new(13, 7).unwrap();
        let col_major =
            |f: &FeatureMatrix| FeatureMatrix::Dense(f.to_dense().to_layout(Layout::ColMajor));
        let requests = [
            col_major(&dense_features(VERTICES, 24, 0.3, 31)),
            dense_features(VERTICES, 24, 0.1, 32),
            col_major(&dense_features(VERTICES, 24, 0.02, 33)),
        ];
        for kind in GnnModelKind::all() {
            let mut model = GnnModel::standard(kind, 24, 8, 5, 13);
            model.weights[0] = model.weights[0].to_layout(Layout::ColMajor);
            check_against_reference(&model, &requests, &partition);
        }
    }

    #[test]
    fn a_request_that_does_not_fit_the_model_is_a_shape_error() {
        let model = GnnModel::gcn(24, 8, 5, 13);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = KernelDispatcher::new(&model, DispatchPolicy::default(), None, &[]);
        let mut arena = exec.arena(VERTICES);
        for request in [
            dense_features(VERTICES, 23, 0.3, 1),
            sparse(&dense_features(VERTICES, 25, 0.3, 1)),
        ] {
            let err = exec
                .forward_dispatch(
                    &request,
                    &dispatcher,
                    &mut arena,
                    &PartitionSpec::default(),
                    None,
                    |_, _, _, _, _, _| Ok(()),
                )
                .unwrap_err();
            assert!(matches!(
                err,
                MatrixError::ShapeMismatch {
                    op: "forward_dispatch",
                    ..
                }
            ));
        }
    }

    #[test]
    fn blocked_dispatch_returns_predicted_cost_with_a_calibrated_backend() {
        let h0 = dense_features(VERTICES, 24, 0.3, 9);
        let model = GnnModel::gcn(24, 8, 5, 13);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let calibration = Arc::new(HostCalibration::reference());
        let policy = DispatchPolicy::from_regions(16);
        let dispatcher = KernelDispatcher::new(
            &model,
            policy,
            Some(calibration),
            &price_update_widths(&model),
        );
        let partition = PartitionSpec::new(13, 7).unwrap();
        let mut arena = exec.arena(VERTICES);
        let predicted = exec
            .forward_dispatch(
                &h0,
                &dispatcher,
                &mut arena,
                &partition,
                None,
                |_, _, _, _, _, _| Ok(()),
            )
            .unwrap();
        assert!(
            predicted.is_finite() && predicted > 0.0,
            "a calibrated dispatcher must price the blocked pass, got {predicted}"
        );
    }

    /// The bodies the generic grid prices, the two a CSR left operand runs
    /// (the dense-left bodies are priced per width by an `UpdateFit`).
    const PRIMITIVES: [HostPrimitive; 2] = [HostPrimitive::SpDmm, HostPrimitive::Spmm];

    #[test]
    fn without_a_calibration_the_dispatcher_decides_by_the_regions() {
        let model = GnnModel::gcn(24, 8, 5, 13);
        let policy = DispatchPolicy::from_regions(16);
        let dispatcher = KernelDispatcher::new(&model, policy, None, &[]);
        assert!(dispatcher.calibration().is_none());
        let shape = ProductShape::new(32, 32, 8);
        for (ax, ay, body) in [
            (0.9, 0.8, HostPrimitive::SpDmm),
            (0.01, 1.0, HostPrimitive::SpDmm),
            (0.05, 0.1, HostPrimitive::Spmm),
        ] {
            assert_eq!(dispatcher.decide(shape, ax, ay), body);
            for prim in PRIMITIVES {
                assert!(dispatcher.predict_ms(prim, shape, ax, ay).is_nan());
            }
        }
        // The regions' GEMM runs as SpDMM over a CSR left operand.
        assert_eq!(policy.decide(0.9, 0.8), HostPrimitive::Gemm);
    }

    #[test]
    fn a_calibrated_dispatcher_predicts_finite_costs() {
        let model = GnnModel::gcn(24, 8, 5, 13);
        let calibration = Arc::new(HostCalibration::reference());
        let policy = DispatchPolicy::from_regions(16);
        let widths = price_update_widths(&model);
        let dispatcher =
            KernelDispatcher::new(&model, policy, Some(Arc::clone(&calibration)), &widths);
        assert!(Arc::ptr_eq(dispatcher.calibration().unwrap(), &calibration));
        let shape = ProductShape::new(64, 64, 16);
        for prim in PRIMITIVES {
            let predicted = dispatcher.predict_ms(prim, shape, 0.3, 0.3);
            assert!(predicted.is_finite() && predicted > 0.0, "{prim:?}");
        }
        for prim in [HostPrimitive::Gemm, HostPrimitive::SpDmmRight] {
            let predicted = dispatcher.predict_ms(prim, shape, 0.3, 0.3);
            assert!(predicted.is_nan(), "the grid has no {prim:?} curve");
        }
        // Prices follow the fit the dispatcher was built over.
        let mut doubled = (*calibration).clone();
        doubled.spdmm.work *= 2.0;
        doubled.spdmm.output *= 2.0;
        doubled.spdmm.per_row *= 2.0;
        let rescaled = KernelDispatcher::new(&model, policy, Some(Arc::new(doubled)), &widths);
        let before = dispatcher.predict_ms(HostPrimitive::SpDmm, shape, 0.3, 0.3);
        let after = rescaled.predict_ms(HostPrimitive::SpDmm, shape, 0.3, 0.3);
        assert!(
            (after - 2.0 * before).abs() <= 1e-12 * after,
            "{before} → {after}"
        );
    }

    #[test]
    fn a_csr_left_decision_is_a_body_a_csr_operand_runs() {
        // Whatever decides — the reference fit, a measured one or the Table
        // IV regions — a CSR left operand is sent only to a body it has.
        let model = GnnModel::gcn(24, 8, 5, 13);
        let policy = DispatchPolicy::from_regions(16);
        let measured = HostCalibration::measure(&CalibrationConfig {
            shapes: vec![(32, 32, 8), (48, 24, 16)],
            densities: vec![(1.0, 1.0), (0.5, 0.5), (0.1, 1.0), (0.1, 0.1), (0.02, 0.02)],
            reps: 1,
            seed: 13,
        });
        let mut densities: Vec<f64> = (0..=16)
            .map(|i| 10f64.powf(-4.0 + i as f64 / 4.0))
            .collect();
        densities.extend([0.0, f64::NAN]);
        for fit in [None, Some(HostCalibration::reference()), Some(measured)] {
            let calibrated = fit.is_some();
            let dispatcher = KernelDispatcher::new(&model, policy, fit.map(Arc::new), &[]);
            assert_eq!(dispatcher.calibration().is_some(), calibrated);
            for (m, n, d) in [
                (0, 24, 8),
                (48, 0, 8),
                (48, 24, 0),
                (1, 1, 1),
                (48, 24, 8),
                (2708, 1433, 16),
                (2708, 2708, 7),
            ] {
                let shape = ProductShape::new(m, n, d);
                for &ax in &densities {
                    for &ay in &densities {
                        let body = dispatcher.decide(shape, ax, ay);
                        assert!(
                            matches!(
                                body,
                                HostPrimitive::Skip | HostPrimitive::SpDmm | HostPrimitive::Spmm
                            ),
                            "{body:?} for {shape:?} at α = {ax} × {ay}, calibrated {calibrated}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_shapes_and_dead_densities_skip_with_and_without_a_calibration() {
        let model = GnnModel::gcn(24, 8, 5, 13);
        let policy = DispatchPolicy::from_regions(16);
        for calibration in [None, Some(Arc::new(HostCalibration::reference()))] {
            let dispatcher =
                KernelDispatcher::new(&model, policy, calibration, &price_update_widths(&model));
            let calibrated = dispatcher.calibration().is_some();
            for shape in [
                ProductShape::new(0, 16, 16),
                ProductShape::new(16, 0, 16),
                ProductShape::new(16, 16, 0),
            ] {
                let decision = dispatcher.decide(shape, 0.9, 0.9);
                assert_eq!(decision, HostPrimitive::Skip, "{shape:?}");
            }
            let shape = ProductShape::new(64, 64, 16);
            for dead in [0.0, f64::NAN, f64::NEG_INFINITY] {
                for (ax, ay) in [(dead, 0.5), (0.5, dead)] {
                    assert_eq!(
                        dispatcher.decide(shape, ax, ay),
                        HostPrimitive::Skip,
                        "α = {ax} × {ay}, calibrated {calibrated}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_non_finite_fit_prediction_falls_back_to_the_regions() {
        // The fit is checked once, when the dispatcher is built: one with an
        // invalid curve is dropped, so every decision is the regions' and
        // nothing is priced.
        let model = GnnModel::gcn(24, 8, 5, 13);
        let policy = DispatchPolicy::from_regions(16);
        let widths = price_update_widths(&model);
        let shape = ProductShape::new(64, 64, 16);
        type Curve = fn(&mut HostCalibration) -> &mut f64;
        let curves: [(&str, Curve); 2] = [
            ("spdmm", |fit| &mut fit.spdmm.work),
            ("spmm", |fit| &mut fit.spmm.work),
        ];
        for (curve, work) in curves {
            for broken in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
                let mut fit = HostCalibration::reference();
                *work(&mut fit) = broken;
                let dispatcher =
                    KernelDispatcher::new(&model, policy, Some(Arc::new(fit)), &widths);
                assert!(
                    dispatcher.calibration().is_none(),
                    "{curve}.work = {broken}"
                );
                for (ax, ay, body) in [
                    (0.9, 0.8, HostPrimitive::SpDmm),
                    (0.01, 1.0, HostPrimitive::SpDmm),
                    (0.05, 0.1, HostPrimitive::Spmm),
                ] {
                    assert_eq!(dispatcher.decide(shape, ax, ay), body);
                    assert!(dispatcher
                        .predict_ms(HostPrimitive::SpDmm, shape, ax, ay)
                        .is_nan());
                }
            }
        }
        // A sound fit is kept.
        let sound = KernelDispatcher::new(
            &model,
            policy,
            Some(Arc::new(HostCalibration::reference())),
            &widths,
        );
        assert!(sound.calibration().is_some());
    }

    #[test]
    fn a_measured_fit_is_kept_even_on_a_degenerate_grid() {
        // Dropping the per-decision fallback rests on this: whatever grid
        // `measure` walks, its fit passes the dispatcher's one check.
        let model = GnnModel::gcn(24, 8, 5, 13);
        let policy = DispatchPolicy::from_regions(16);
        let grid =
            |shapes: Vec<(usize, usize, usize)>, densities: Vec<(f64, f64)>| CalibrationConfig {
                shapes,
                densities,
                reps: 1,
                seed: 11,
            };
        let pairs = vec![(1.0, 1.0), (0.1, 0.1)];
        for (what, config) in [
            ("no shapes", grid(vec![], pairs.clone())),
            ("no density pairs", grid(vec![(16, 16, 8)], vec![])),
            ("a single point", grid(vec![(16, 16, 8)], vec![(0.5, 0.5)])),
            (
                "all-zero operands",
                grid(
                    vec![(16, 16, 8), (24, 8, 16)],
                    vec![(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)],
                ),
            ),
        ] {
            let fit = Arc::new(HostCalibration::measure(&config));
            let dispatcher = KernelDispatcher::new(
                &model,
                policy,
                Some(Arc::clone(&fit)),
                &price_update_widths(&model),
            );
            assert!(
                dispatcher.calibration().is_some(),
                "{what}: the dispatcher refused the measured fit {fit:?}"
            );
        }
    }

    #[test]
    fn arena_is_reusable_across_requests() {
        let model = GnnModel::graphsage(16, 8, 4, 23);
        let a = dense_features(VERTICES, 16, 0.5, 1);
        let b = dense_features(VERTICES, 16, 0.9, 2);
        let requests = [a.clone(), b.clone(), a.clone(), b.clone(), a, b];
        check_against_reference(&model, &requests, &PartitionSpec::default());
    }

    #[test]
    fn a_csr_update_input_is_counted_by_its_gather_and_an_adjacency_is_not() {
        // Kernel 0 of GCN is an Update over the CSR-stored request, which its
        // gather counts and probes; kernel 0 of GraphSAGE is an Aggregate
        // whose CSR left operand is the adjacency, never counted.  Regions
        // decisions at α 0.3 run both as CSR-left row blocks.
        let partition = PartitionSpec::new(16, 8).unwrap();
        let clean = CsrMatrix::from_dense(&dense_features(VERTICES, 24, 0.3, 7).to_dense());
        let mut poisoned = clean.values().to_vec();
        *poisoned.last_mut().unwrap() = f32::NAN;
        let poisoned = CsrMatrix::from_parts(
            VERTICES,
            24,
            clean.row_ptr().to_vec(),
            clean.col_idx().to_vec(),
            poisoned,
        );
        for kind in [GnnModelKind::Gcn, GnnModelKind::GraphSage] {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            let exec = ReferenceExecutor::new(&model, &small_graph());
            let dispatcher =
                KernelDispatcher::new(&model, DispatchPolicy::from_regions(16), None, &[]);
            let mut arena = exec.arena(VERTICES);
            for (request, finite) in [(&clean, true), (&poisoned, false)] {
                let request = FeatureMatrix::Sparse(request.clone());
                let mut kernel0 = None;
                exec.forward_dispatch(
                    &request,
                    &dispatcher,
                    &mut arena,
                    &partition,
                    None,
                    |l, k, _, input, _, scanned| {
                        if (l, k) == (0, 0) {
                            let grid = partition.subfiber_grid(VERTICES, input.dim());
                            kernel0 = Some(scanned.map(|(profile, finite)| {
                                (profile == &input.density_profile(&grid), finite)
                            }));
                        }
                        Ok(())
                    },
                )
                .unwrap();
                let want = (kind == GnnModelKind::Gcn).then_some((true, finite));
                assert_eq!(kernel0, Some(want), "{kind:?}, finite {finite}");
            }
        }
    }

    #[test]
    fn callback_sees_every_kernel_in_order() {
        let model = GnnModel::gin(16, 8, 4, 29);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = KernelDispatcher::new(&model, DispatchPolicy::default(), None, &[]);
        let mut arena = exec.arena(VERTICES);
        let h0 = dense_features(VERTICES, 16, 0.4, 5);
        let partition = PartitionSpec::new(16, 8).unwrap();
        let mut seen = Vec::new();
        exec.forward_dispatch(
            &h0,
            &dispatcher,
            &mut arena,
            &partition,
            None,
            |l, k, spec, input, out, scanned| {
                assert_eq!(input.num_vertices(), VERTICES);
                assert_eq!(out.num_vertices(), VERTICES);
                // Exactly the dense-input Updates hand over a scanned
                // profile, and it is the separate refit's.
                assert_eq!(scanned.is_some(), !spec.op.is_aggregate());
                if let Some((scanned, finite)) = scanned {
                    let grid = partition.subfiber_grid(VERTICES, input.dim());
                    assert_eq!(scanned, &input.density_profile(&grid));
                    assert!(finite);
                }
                seen.push((l, k, spec.op.is_aggregate()));
                Ok(())
            },
        )
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
    fn calibrated_dispatcher_matches_the_reference_executor() {
        let model = GnnModel::gcn(24, 8, 5, 17);
        let calibration = Some(Arc::new(HostCalibration::reference()));
        let policy = DispatchPolicy::from_regions(16);
        let calibrated =
            KernelDispatcher::new(&model, policy, calibration, &price_update_widths(&model));
        assert!(calibrated.calibration().is_some());
        assert!(KernelDispatcher::new(&model, policy, None, &[])
            .calibration()
            .is_none());
        // `check_against_reference` runs every case under both cost models.
        let h0 = sparse(&dense_features(VERTICES, 24, 0.04, 10));
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&model, sparsity);
            check_against_reference(&model, std::slice::from_ref(&h0), &PartitionSpec::default());
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
        let dispatcher = KernelDispatcher::new(&model, policy, None, &[]);
        let mut arena = exec.arena(VERTICES);
        let sparse_req = sparse(&dense_features(VERTICES, 24, 0.01, 3));
        let dense_req = sparse(&dense_features(VERTICES, 24, 0.06, 4));
        let want_sparse = exec.forward(&sparse_req).unwrap().to_dense();
        let want_dense = exec.forward(&dense_req).unwrap().to_dense();
        let mut kinds: Vec<Vec<bool>> = Vec::new();
        for _ in 0..2 {
            for (req, want) in [(&sparse_req, &want_sparse), (&dense_req, &want_dense)] {
                let mut pass = Vec::new();
                exec.forward_dispatch(
                    req,
                    &dispatcher,
                    &mut arena,
                    &PartitionSpec::default(),
                    None,
                    |_, _, _, _, out, _| {
                        pass.push(out.is_sparse());
                        Ok(())
                    },
                )
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
        let policy = DispatchPolicy::from_regions(16);
        let model = prune_model(&GnnModel::gcn(24, 16, 5, 41), 0.95);
        let dispatcher = KernelDispatcher::new(&model, policy, None, &[]);
        assert!(
            dispatcher.weight_csr.iter().any(|w| w.is_some()),
            "a 95%-pruned weight is SPMM-eligible"
        );
        let cached = dispatcher.weight_csr.iter().zip(&dispatcher.weight_t);
        for (w, (csr, transposed)) in model.weights.iter().zip(cached) {
            let csr = csr.as_ref().expect("every weight is 95 % pruned");
            assert_eq!(csr.to_dense(), *w);
            let transposed = transposed.as_ref().expect("the rule can fire");
            assert_eq!(transposed.to_dense(), w.transpose());
        }
        let dense_model = GnnModel::gcn(24, 16, 5, 41);
        let dense_dispatcher = KernelDispatcher::new(&dense_model, policy, None, &[]);
        assert!(dense_dispatcher.weight_csr.iter().all(|w| w.is_none()));
        assert!(dense_dispatcher.weight_t.iter().all(|w| w.is_none()));
    }

    #[test]
    fn a_price_caches_the_transpose_of_every_weight_it_can_send_right_sparse() {
        // Under a fit, `Wᵀ` is cached wherever the right-sparse body is
        // priced lower somewhere in [0, 1] — a dense weight included — and
        // nowhere GEMM wins at every density; `W` keeps the sparse gate.
        let policy = DispatchPolicy::from_regions(16);
        let calibration = Some(Arc::new(HostCalibration::reference()));
        let model = GnnModel::gcn(24, 16, 5, 41);
        let fits = [crossing_fit(0.5), gemm_everywhere_fit()];
        let dispatcher = KernelDispatcher::new(&model, policy, calibration, &fits);
        assert!(dispatcher.weight_csr.iter().all(|w| w.is_none()));
        let transposed = dispatcher.weight_t[0].as_ref().expect("a price crosses");
        assert_eq!(transposed.to_dense(), model.weights[0].transpose());
        assert!(dispatcher.weight_t[1].is_none());
    }
}
