//! Batch-fused dispatched execution: one kernel pass per layer for a whole
//! micro-batch.
//!
//! [`ReferenceExecutor::forward_dispatch`] serves one request at a time, so a
//! micro-batch of `B` requests pays `B` dispatch decisions, `B` arena passes
//! and `B` skinny kernels per layer.  [`ReferenceExecutor::forward_dispatch_batch`]
//! instead makes the batch a first-class execution dimension:
//!
//! * The batch operands are the **horizontal concatenations** of the `B`
//!   per-request feature matrices (all `m × d`) into `m × (d·B)` matrices —
//!   materialised **lazily**: layer-0 kernels write each request's column
//!   block of the batch-shaped output directly (`gemm_into_cols` /
//!   `spmm_dense_into_cols`), so the wide input features are never copied,
//!   and every later layer flows through genuinely batch-shaped operands.
//! * **Aggregate** kernels (`A × H`) run once on the batch operand: left
//!   multiplication commutes with horizontal concatenation, so the existing
//!   sparse-dense / Gustavson kernels apply unchanged — and each adjacency
//!   non-zero now feeds `d·B` output columns instead of `d`, amortising the
//!   per-entry traversal overhead that dominates skinny aggregations.
//! * **Update** kernels (`H × W`) run once through the column-blocked
//!   kernels of `dynasparse-matrix` ([`gemm_col_blocked_into`],
//!   [`spmm_dense_col_blocked_into`](dynasparse_matrix::CsrMatrix::spmm_dense_col_blocked_into)): block `b` of the output
//!   is `H_b × W`, the shared weight streamed once per row pass.
//! * The [`KernelDispatcher`] still picks the host primitive per kernel,
//!   now from the **batch** operand's density and the widened product shape
//!   — a wider inner dimension can legitimately flip the pick (e.g.
//!   SpDMM → GEMM as `d·B` grows), exactly the effect the measured cost
//!   model's shape terms exist to capture.  (Lazily-concatenated layer-0
//!   kernels route per request by representation, like the per-request
//!   path.)
//!
//! Every route accumulates contributions to one output element in the same
//! `k`-increasing order as the per-request kernels, so each request's block
//! of the batch output is **bit-identical** to serving that request alone
//! (proved by `tests/integration_batch.rs`).  The per-request densities and
//! sparsity profiles the serving session reports are recovered through
//! zero-copy [`BatchKernelViews`] handed to the callback — single-pass
//! probes over the batch operands, never extraction copies.

use crate::arena::{
    apply_activation_inplace, combine_layer_outputs, slot_as_dense, span_primitive, ArenaSlot,
    KernelArena, KernelDispatcher, ProbeCtx, ScannedProfile,
};
use crate::kernel::{KernelInput, KernelOp, KernelSpec};
use crate::reference::ReferenceExecutor;
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::ops::{
    gemm_col_blocked_into, gemm_col_blocked_into_pooled, gemm_into_cols, gemm_into_cols_pooled,
};
use dynasparse_matrix::{
    BlockGrid, DenseMatrix, DensityProfile, HostPrimitive, MatrixError, PartitionSpec,
    ProductShape, SpGemmScratch,
};
use dynasparse_telemetry::SessionTelemetry;
use std::time::Instant;

/// One executed batch kernel's operands, as the fused forward pass hands
/// them to its per-kernel callback.
///
/// The input side is either the original per-request matrices (layer-0
/// kernels, which are lazily concatenated) or the `m × (d·B)` batch
/// operand; the output side is always the batch-shaped kernel output.  The
/// probe methods compute **per-request** profiles and non-zero counts in
/// single cache-friendly passes over the batch buffers; their results are
/// exactly what the per-request path computes on each request's own
/// matrices.
#[derive(Debug, Clone, Copy)]
pub struct BatchKernelViews<'a> {
    input: BatchOperandView<'a>,
    out: &'a FeatureMatrix,
    bsz: usize,
}

#[derive(Debug, Clone, Copy)]
enum BatchOperandView<'a> {
    /// Layer-0: the original request matrices.
    Requests(&'a [FeatureMatrix]),
    /// Later kernels: one concatenated batch operand.
    Batch(&'a FeatureMatrix),
}

impl BatchKernelViews<'_> {
    /// Number of requests in the batch.
    pub fn batch_size(&self) -> usize {
        self.bsz
    }

    /// Per-request input width (the kernel's input feature dimension).
    pub fn input_dim(&self) -> usize {
        match self.input {
            BatchOperandView::Requests(reqs) => reqs[0].dim(),
            BatchOperandView::Batch(m) => m.dim() / self.bsz,
        }
    }

    /// Per-request output width.
    pub fn output_dim(&self) -> usize {
        self.out.dim() / self.bsz
    }

    /// Number of vertices (rows) of every operand.
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Fits one *per-request* input profile per batch slot into
    /// `profiles[..batch_size()]` (each identical to profiling that
    /// request's extracted input), in one pass over the batch operand.
    /// `grid` is the per-request grid.
    pub fn profile_inputs_into(&self, grid: &BlockGrid, profiles: &mut [DensityProfile]) {
        debug_assert!(profiles.len() >= self.bsz);
        match self.input {
            BatchOperandView::Requests(reqs) => {
                for (r, p) in reqs.iter().zip(profiles.iter_mut()) {
                    r.density_profile_into(grid, p);
                }
            }
            BatchOperandView::Batch(m) => {
                m.density_profile_col_blocks_into(
                    grid,
                    self.input_dim(),
                    &mut profiles[..self.bsz],
                );
            }
        }
    }

    /// Per-request non-zero counts of the kernel output, one pass.
    pub fn output_nnz_into(&self, counts: &mut Vec<usize>) {
        self.out.nnz_col_blocks(self.output_dim(), counts);
    }
}

impl ReferenceExecutor {
    /// Runs the full model once for a whole micro-batch of same-shape
    /// requests, fusing each kernel across the batch dimension.
    ///
    /// `on_kernel(layer, kernel, spec, views)` is invoked once per
    /// **kernel** (after the whole batch's kernel has executed) with
    /// zero-copy [`BatchKernelViews`] whose probe methods recover
    /// per-request profiles and densities in single passes over the batch
    /// operands.
    ///
    /// The final batch embeddings are left in [`KernelArena::output`];
    /// per-request embeddings come from [`KernelArena::output_block`].  The
    /// arena must have been sized with a batch capacity of at least
    /// `inputs.len()` ([`KernelArena::for_model_batch`]); in steady state
    /// the pass performs no heap allocation.
    pub fn forward_dispatch_batch<F>(
        &self,
        inputs: &[FeatureMatrix],
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        on_kernel: F,
    ) -> dynasparse_matrix::Result<()>
    where
        F: FnMut(usize, usize, &KernelSpec, &BatchKernelViews<'_>),
    {
        self.forward_dispatch_batch_probed(inputs, dispatcher, arena, None, on_kernel)
    }

    /// [`ReferenceExecutor::forward_dispatch_batch`] with telemetry: when
    /// `telemetry` is supplied (and enabled), every executed kernel is timed
    /// and recorded as a kernel span.  Fused kernels record **one span per
    /// batch kernel** (the batch is the execution unit); the lazily
    /// concatenated layer-0 kernels route per request and record one span
    /// per request.
    pub fn forward_dispatch_batch_probed<F>(
        &self,
        inputs: &[FeatureMatrix],
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        telemetry: Option<&mut SessionTelemetry>,
        on_kernel: F,
    ) -> dynasparse_matrix::Result<()>
    where
        F: FnMut(usize, usize, &KernelSpec, &BatchKernelViews<'_>),
    {
        self.forward_dispatch_batch_blocked_probed(
            inputs, dispatcher, arena, None, telemetry, on_kernel,
        )
        .map(|_| ())
    }

    /// The block-granular fused batch pass: **aggregate** kernels — whose
    /// batch route is the per-request route on the batch operand — execute
    /// as row-block loops over the partition's `N1` with per-block density
    /// refits and primitive decisions, exactly like
    /// [`ReferenceExecutor::forward_dispatch_blocked_probed`].  **Update**
    /// kernels keep their column-blocked batch kernels: the batch dimension
    /// *is* their block structure, and splitting their rows as well would
    /// break the shared-weight streaming that makes batch fusion win.
    ///
    /// Returns the backend-predicted milliseconds summed over every executed
    /// kernel (finite predictions only).
    pub fn forward_dispatch_batch_blocked_probed<F>(
        &self,
        inputs: &[FeatureMatrix],
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        partition: Option<&PartitionSpec>,
        telemetry: Option<&mut SessionTelemetry>,
        mut on_kernel: F,
    ) -> dynasparse_matrix::Result<f64>
    where
        F: FnMut(usize, usize, &KernelSpec, &BatchKernelViews<'_>),
    {
        let mut telemetry = telemetry.filter(|t| t.enabled());
        let mut predicted_total = 0.0f64;
        let bsz = inputs.len();
        if bsz == 0 {
            return Ok(0.0);
        }
        if bsz > arena.batch_capacity {
            return Err(MatrixError::ShapeMismatch {
                op: "forward_dispatch_batch",
                lhs: (bsz, inputs[0].dim()),
                rhs: (arena.batch_capacity, inputs[0].dim()),
            });
        }
        arena.batch = bsz;
        let KernelArena {
            slots,
            input: input_slot,
            acc,
            densify,
            spgemm,
            ..
        } = arena;
        let model = self.model();
        for (l, layer) in model.layers.iter().enumerate() {
            for (ki, spec) in layer.kernels.iter().enumerate() {
                let (read, write) = slots.split_at_mut(ki);
                let out_slot = &mut write[0];
                let from_requests = l == 0 && matches!(spec.input, KernelInput::LayerInput);
                let kin: Option<&FeatureMatrix> = if from_requests {
                    // The batch input is never materialised: layer-0 kernels
                    // write each request's column block of the batch-shaped
                    // output directly (lazy concatenation).
                    None
                } else {
                    Some(match spec.input {
                        KernelInput::LayerInput => &input_slot.value,
                        KernelInput::Kernel(j) => &read[j].value,
                    })
                };
                let probe = telemetry.as_deref_mut().map(|t| ProbeCtx {
                    telemetry: t,
                    layer: l as u16,
                    kernel: ki as u16,
                });
                let predicted = match kin {
                    // Lazy concatenation: each request's kernel writes its
                    // own column block of the batch-shaped output.
                    None => {
                        self.execute_layer0_lazy(spec, inputs, out_slot, dispatcher, spgemm, probe)?
                    }
                    Some(kin) => {
                        let block_rows = partition
                            .filter(|_| matches!(spec.op, KernelOp::Aggregate { .. }))
                            .map(|p| p.aggregate_block_rows());
                        self.execute_kernel_dispatch_batch_probed(
                            spec, kin, bsz, out_slot, dispatcher, densify, spgemm, block_rows,
                            probe,
                        )?
                    }
                };
                if predicted.is_finite() {
                    predicted_total += predicted;
                }
                if let Some(act) = spec.activation {
                    apply_activation_inplace(&mut out_slot.value, act);
                }
                let views = BatchKernelViews {
                    input: match kin {
                        None => BatchOperandView::Requests(inputs),
                        Some(kin) => BatchOperandView::Batch(kin),
                    },
                    out: &out_slot.value,
                    bsz,
                };
                on_kernel(l, ki, spec, &views);
            }
            combine_layer_outputs(layer, slots, acc, spgemm)?;
            if let Some(act) = layer.output_activation {
                apply_activation_inplace(&mut acc.value, act);
            }
            std::mem::swap(input_slot, acc);
        }
        Ok(predicted_total)
    }

    /// Layer-0 execution for dense/mixed batches: the batch input is never
    /// materialised; request `b`'s kernel writes columns
    /// `[b·width, (b+1)·width)` of the batch-shaped output directly.
    /// Routing is per request by representation (exactly the per-request
    /// path's routes), so results stay bit-identical.  Returns the summed
    /// backend-predicted milliseconds of the per-request kernels.
    fn execute_layer0_lazy(
        &self,
        spec: &KernelSpec,
        inputs: &[FeatureMatrix],
        out_slot: &mut ArenaSlot,
        dispatcher: &KernelDispatcher,
        spgemm: &mut SpGemmScratch,
        mut probe: Option<ProbeCtx<'_>>,
    ) -> dynasparse_matrix::Result<f64> {
        let bsz = inputs.len();
        let m = inputs[0].num_vertices();
        let pool = dispatcher.pool();
        let mut predicted_total = 0.0f64;
        match spec.op {
            KernelOp::Update { weight } => {
                let w = &self.model().weights[weight];
                let n = w.cols();
                let ay = w.density();
                let out = slot_as_dense(out_slot, spgemm);
                // Every request's kernel fully defines its own block, so the
                // batch slot is reshaped without a redundant zero-fill.
                out.reset_for_overwrite(m, n * bsz);
                for (b, f) in inputs.iter().enumerate() {
                    let shape = ProductShape::new(m, f.dim(), n);
                    let (executed, ax) = match f {
                        FeatureMatrix::Dense(_) => (HostPrimitive::Gemm, 1.0),
                        FeatureMatrix::Sparse(h) => (HostPrimitive::SpDmm, h.density()),
                    };
                    let predicted_ms = dispatcher.predict_ms(executed, shape, ax, ay);
                    if predicted_ms.is_finite() && predicted_ms > 0.0 {
                        predicted_total += predicted_ms;
                    }
                    let started = probe.as_ref().map(|_| Instant::now());
                    match f {
                        FeatureMatrix::Dense(h) => match pool {
                            Some(p) => gemm_into_cols_pooled(p, h, w, out, b * n)?,
                            None => gemm_into_cols(h, w, out, b * n)?,
                        },
                        FeatureMatrix::Sparse(h) => match pool {
                            Some(p) => h.spmm_dense_into_cols_pooled(p, w, out, b * n)?,
                            None => h.spmm_dense_into_cols(w, out, b * n)?,
                        },
                    }
                    if let (Some(p), Some(started)) = (probe.as_mut(), started) {
                        p.telemetry.record_span(
                            p.layer,
                            p.kernel,
                            span_primitive(executed),
                            (shape.m, shape.n, shape.d),
                            ax,
                            ay,
                            predicted_ms,
                            started.elapsed().as_secs_f64() * 1e3,
                        );
                    }
                }
            }
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .adjacency(aggregator)
                    .expect("adjacency prepared at executor construction");
                let d = inputs[0].dim();
                let out = slot_as_dense(out_slot, spgemm);
                out.reset_for_overwrite(m, d * bsz);
                for (b, f) in inputs.iter().enumerate() {
                    let shape = ProductShape::new(adj.rows(), adj.cols(), d);
                    let ax = adj.density();
                    let (executed, ay) = match f {
                        FeatureMatrix::Dense(_) => (HostPrimitive::SpDmm, 1.0),
                        FeatureMatrix::Sparse(h) => (HostPrimitive::Spmm, h.density()),
                    };
                    let predicted_ms = dispatcher.predict_ms(executed, shape, ax, ay);
                    if predicted_ms.is_finite() && predicted_ms > 0.0 {
                        predicted_total += predicted_ms;
                    }
                    let started = probe.as_ref().map(|_| Instant::now());
                    match f {
                        FeatureMatrix::Dense(h) => match pool {
                            Some(p) => adj.spmm_dense_into_cols_pooled(p, h, out, b * d)?,
                            None => adj.spmm_dense_into_cols(h, out, b * d)?,
                        },
                        FeatureMatrix::Sparse(h) => {
                            // Sparse request in a mixed batch: Gustavson,
                            // scattered into the explicitly-zeroed block
                            // (same k-order).
                            let product = match pool {
                                Some(p) => adj.spgemm_pooled(p, h)?,
                                None => adj.spgemm_with(h, spgemm)?,
                            };
                            out.zero_cols(b * d, (b + 1) * d);
                            product.write_into_dense_cols(out, b * d);
                            spgemm.reclaim(product.into_parts());
                        }
                    }
                    if let (Some(p), Some(started)) = (probe.as_mut(), started) {
                        p.telemetry.record_span(
                            p.layer,
                            p.kernel,
                            span_primitive(executed),
                            (shape.m, shape.n, shape.d),
                            ax,
                            ay,
                            predicted_ms,
                            started.elapsed().as_secs_f64() * 1e3,
                        );
                    }
                }
            }
        }
        Ok(predicted_total)
    }

    /// Executes one batch kernel like
    /// [`ReferenceExecutor::execute_kernel_dispatch_batch`], recording one
    /// kernel span for the fused kernel when `probe` is supplied, and
    /// returning the backend-predicted milliseconds for the kernel.
    /// `block_rows` row-blocks aggregate kernels (whose batch route is the
    /// per-request route); update kernels ignore it — the batch dimension is
    /// their column blocking.
    #[allow(clippy::too_many_arguments)]
    fn execute_kernel_dispatch_batch_probed(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        bsz: usize,
        out_slot: &mut ArenaSlot,
        dispatcher: &KernelDispatcher,
        densify: &mut DenseMatrix,
        spgemm: &mut SpGemmScratch,
        block_rows: Option<usize>,
        probe: Option<ProbeCtx<'_>>,
    ) -> dynasparse_matrix::Result<f64> {
        if matches!(spec.op, KernelOp::Aggregate { .. }) {
            // The batch aggregate reuses the per-request routes (and their
            // span plan, and the block-granular loop) verbatim on the batch
            // operand; no aggregate route profiles its input, so the
            // scanned-profile slot is a throwaway.
            return self.execute_kernel_dispatch_blocked_probed(
                spec,
                kin,
                out_slot,
                dispatcher,
                densify,
                spgemm,
                block_rows,
                &mut ScannedProfile::default(),
                probe,
            );
        }
        let KernelOp::Update { weight } = spec.op else {
            unreachable!("aggregates handled above");
        };
        let w = &self.model().weights[weight];
        let width = kin.dim() / bsz;
        let shape = ProductShape::new(kin.num_vertices(), width, w.cols() * bsz);
        let ay = w.density();
        let (executed, ax, fell_back) = match kin {
            FeatureMatrix::Dense(_) => (HostPrimitive::Gemm, 1.0, false),
            FeatureMatrix::Sparse(h) => {
                let ax = h.density();
                let (decision, fell_back) = dispatcher.decide_traced(shape, ax, ay);
                let executed = match decision {
                    HostPrimitive::Skip => HostPrimitive::Skip,
                    HostPrimitive::Gemm => HostPrimitive::Gemm,
                    // Both sparse-operand modes run the column-blocked CSR
                    // kernel against the dense weight.
                    HostPrimitive::SpDmm | HostPrimitive::Spmm => HostPrimitive::SpDmm,
                };
                (executed, ax, fell_back)
            }
        };
        let predicted_ms = dispatcher.predict_ms(executed, shape, ax, ay);
        let Some(probe) = probe else {
            self.execute_kernel_dispatch_batch(
                spec, kin, bsz, out_slot, dispatcher, densify, spgemm,
            )?;
            return Ok(predicted_ms);
        };
        if fell_back {
            probe.telemetry.record_fallback();
        }
        let started = Instant::now();
        self.execute_kernel_dispatch_batch(spec, kin, bsz, out_slot, dispatcher, densify, spgemm)?;
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

    /// Executes one kernel for the whole batch, routed by the batch
    /// operand's runtime density.  Aggregates reuse the per-request routes
    /// unchanged (left multiplication commutes with concatenation); Updates
    /// go through the column-blocked kernels with the shared weight.
    #[allow(clippy::too_many_arguments)]
    fn execute_kernel_dispatch_batch(
        &self,
        spec: &KernelSpec,
        kin: &FeatureMatrix,
        bsz: usize,
        out_slot: &mut ArenaSlot,
        dispatcher: &KernelDispatcher,
        densify: &mut DenseMatrix,
        spgemm: &mut SpGemmScratch,
    ) -> dynasparse_matrix::Result<()> {
        match spec.op {
            KernelOp::Aggregate { .. } => {
                // A × [H₁ | … | H_B] = [A·H₁ | … | A·H_B]: the per-request
                // aggregate routes apply verbatim to the batch operand, with
                // the dispatch decision seeing the widened inner dimension.
                self.execute_kernel_dispatch(spec, kin, out_slot, dispatcher, densify, spgemm)
            }
            KernelOp::Update { weight } => {
                let w = &self.model().weights[weight];
                let pool = dispatcher.pool();
                match kin {
                    FeatureMatrix::Dense(h) => {
                        // Dense-stored batch: the column-blocked GEMM is the
                        // host kernel for every mode (as in the per-request
                        // path, the mode only affects the modeled
                        // accelerator).
                        let out = slot_as_dense(out_slot, spgemm);
                        match pool {
                            Some(p) => gemm_col_blocked_into_pooled(p, h, w, bsz, out)?,
                            None => gemm_col_blocked_into(h, w, bsz, out)?,
                        }
                    }
                    FeatureMatrix::Sparse(h) => {
                        // The batched product is B disjoint (m × w × n)
                        // GEMMs; modelling it as m × w × (n·B) keeps every
                        // primitive's flop count exact while exposing the
                        // widened output to the cost model.
                        let width = h.cols() / bsz;
                        let shape = ProductShape::new(h.rows(), width, w.cols() * bsz);
                        match dispatcher.decide(shape, h.density(), w.density()) {
                            HostPrimitive::Skip => {
                                slot_as_dense(out_slot, spgemm).reset(h.rows(), w.cols() * bsz);
                            }
                            HostPrimitive::Gemm => {
                                h.to_dense_into(densify);
                                let out = slot_as_dense(out_slot, spgemm);
                                match pool {
                                    Some(p) => {
                                        gemm_col_blocked_into_pooled(p, densify, w, bsz, out)?
                                    }
                                    None => gemm_col_blocked_into(densify, w, bsz, out)?,
                                }
                            }
                            HostPrimitive::SpDmm | HostPrimitive::Spmm => {
                                // Both sparse-operand modes run the
                                // column-blocked CSR kernel against the
                                // dense weight: identical accumulation
                                // order, so the result stays bit-identical
                                // whichever mode the accelerator model
                                // prices.
                                let out = slot_as_dense(out_slot, spgemm);
                                match pool {
                                    Some(p) => {
                                        h.spmm_dense_col_blocked_into_pooled(p, w, bsz, out)?
                                    }
                                    None => h.spmm_dense_col_blocked_into(w, bsz, out)?,
                                }
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{GnnModel, GnnModelKind};
    use crate::pruning::prune_model;
    use dynasparse_graph::generators::{dense_features, power_law_graph, PowerLawConfig};
    use dynasparse_graph::Graph;
    use dynasparse_matrix::{CsrMatrix, DispatchPolicy};

    fn small_graph() -> Graph {
        power_law_graph(
            "batch-test",
            &PowerLawConfig {
                num_vertices: 48,
                num_edges: 180,
                exponent: 2.2,
                seed: 3,
            },
        )
    }

    fn requests(dim: usize, n: usize, sparse: bool) -> Vec<FeatureMatrix> {
        (0..n)
            .map(|i| {
                let density = 0.02 + 0.12 * i as f64;
                let f = dense_features(48, dim, density, 40 + i as u64);
                if sparse {
                    FeatureMatrix::Sparse(CsrMatrix::from_dense(&f.to_dense()))
                } else {
                    f
                }
            })
            .collect()
    }

    fn check_batch_matches_per_request(model: &GnnModel, reqs: &[FeatureMatrix], parallel: bool) {
        let exec = ReferenceExecutor::new(model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::from_regions(16), parallel);
        let mut arena = exec.arena(48);
        let mut batch_arena = exec.arena_batch(48, reqs.len());
        let mut want = Vec::new();
        for r in reqs {
            exec.forward_dispatch(r, &dispatcher, &mut arena, |_, _, _, _, _| {})
                .unwrap();
            want.push(arena.output().to_dense());
        }
        exec.forward_dispatch_batch(reqs, &dispatcher, &mut batch_arena, |_, _, _, _| {})
            .unwrap();
        for (b, want) in want.iter().enumerate() {
            let got = batch_arena.output_block(b);
            assert_eq!(
                got.to_dense().as_slice(),
                want.as_slice(),
                "request {b} of the fused batch must match its solo pass bit for bit"
            );
        }
    }

    #[test]
    fn every_model_kind_matches_the_per_request_pass() {
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            check_batch_matches_per_request(&model, &requests(24, 3, false), false);
        }
    }

    #[test]
    fn sparse_requests_concatenate_in_csr_and_match() {
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            check_batch_matches_per_request(&model, &requests(24, 4, true), false);
        }
    }

    #[test]
    fn mixed_representation_batches_match() {
        let mut reqs = requests(24, 2, false);
        reqs.extend(requests(24, 2, true));
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 23);
            check_batch_matches_per_request(&model, &reqs, false);
        }
    }

    #[test]
    fn pooled_batch_matches_serial() {
        let model = GnnModel::gin(24, 8, 5, 29);
        check_batch_matches_per_request(&model, &requests(24, 3, false), true);
    }

    #[test]
    fn blocked_batch_matches_per_request_solo_passes() {
        let partition = PartitionSpec::new(11, 5).unwrap();
        let mut reqs = requests(24, 2, false);
        reqs.extend(requests(24, 2, true));
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 23);
            let exec = ReferenceExecutor::new(&model, &small_graph());
            let dispatcher = exec.dispatcher(DispatchPolicy::from_regions(16), false);
            let mut arena = exec.arena(48);
            let mut want = Vec::new();
            for r in &reqs {
                exec.forward_dispatch(r, &dispatcher, &mut arena, |_, _, _, _, _| {})
                    .unwrap();
                want.push(arena.output().to_dense());
            }
            let mut batch_arena = exec.arena_batch(48, reqs.len());
            exec.forward_dispatch_batch_blocked_probed(
                &reqs,
                &dispatcher,
                &mut batch_arena,
                Some(&partition),
                None,
                |_, _, _, _| {},
            )
            .unwrap();
            for (b, want) in want.iter().enumerate() {
                assert_eq!(
                    batch_arena.output_block(b).to_dense().as_slice(),
                    want.as_slice(),
                    "request {b} of the blocked batch must match its solo pass bit for bit"
                );
            }
        }
    }

    #[test]
    fn callback_sees_every_kernel_in_order_with_batch_views() {
        let model = GnnModel::gcn(16, 8, 4, 7);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::default(), false);
        let reqs = requests(16, 3, false);
        let mut batch_arena = exec.arena_batch(48, reqs.len());
        let mut seen = Vec::new();
        exec.forward_dispatch_batch(&reqs, &dispatcher, &mut batch_arena, |l, k, spec, views| {
            assert_eq!(views.num_vertices(), 48);
            assert_eq!(views.batch_size(), 3);
            seen.push((
                l,
                k,
                spec.op.is_aggregate(),
                views.input_dim(),
                views.output_dim(),
            ));
        })
        .unwrap();
        let mut expected = Vec::new();
        for (l, layer) in model.layers.iter().enumerate() {
            for (k, spec) in layer.kernels.iter().enumerate() {
                let (in_dim, out_dim) = if l == 0 {
                    if k == 0 {
                        (16, 8)
                    } else {
                        (8, 8)
                    }
                } else if k == 0 {
                    (8, 4)
                } else {
                    (4, 4)
                };
                expected.push((l, k, spec.op.is_aggregate(), in_dim, out_dim));
            }
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn batch_views_recover_solo_pass_profiles_and_densities() {
        let model = GnnModel::gcn(16, 8, 4, 7);
        let g = small_graph();
        let exec = ReferenceExecutor::new(&model, &g);
        let dispatcher = exec.dispatcher(DispatchPolicy::default(), false);
        for sparse in [false, true] {
            let reqs = requests(16, 3, sparse);
            // Solo passes record the per-kernel input profile and the
            // input/output densities of every request.
            let grid = BlockGrid::new(48, 16, 8, 4);
            let mut arena = exec.arena(48);
            let mut solo: Vec<Vec<(Option<DensityProfile>, f64, f64)>> = Vec::new();
            for r in &reqs {
                let mut stages = Vec::new();
                exec.forward_dispatch(r, &dispatcher, &mut arena, |_, _, _, i, o| {
                    let profile = (i.dim() == 16).then(|| i.density_profile(&grid));
                    stages.push((profile, i.density(), o.density()));
                })
                .unwrap();
                solo.push(stages);
            }
            let mut batch_arena = exec.arena_batch(48, reqs.len());
            let mut profiles = vec![DensityProfile::default(); reqs.len()];
            let mut counts = Vec::new();
            let mut kernel = 0usize;
            exec.forward_dispatch_batch(&reqs, &dispatcher, &mut batch_arena, |_, _, _, views| {
                views.output_nnz_into(&mut counts);
                if views.input_dim() == 16 {
                    views.profile_inputs_into(&grid, &mut profiles);
                }
                for b in 0..views.batch_size() {
                    let (want_profile, want_in, want_out) = &solo[b][kernel];
                    if let Some(want_profile) = want_profile {
                        assert_eq!(&profiles[b], want_profile, "request {b} profile");
                    }
                    let in_total = 48 * views.input_dim();
                    if views.input_dim() == 16 {
                        let got_in = profiles[b].total_nnz() as f64 / in_total as f64;
                        assert_eq!(got_in, *want_in, "request {b} input density");
                    }
                    let got_out = counts[b] as f64 / (48 * views.output_dim()) as f64;
                    assert_eq!(got_out, *want_out, "request {b} output density");
                }
                kernel += 1;
            })
            .unwrap();
            assert_eq!(kernel, model.num_kernels());
        }
    }

    #[test]
    fn batch_larger_than_arena_capacity_is_rejected() {
        let model = GnnModel::gcn(16, 8, 4, 7);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::default(), false);
        let mut arena = exec.arena_batch(48, 2);
        let reqs = requests(16, 3, false);
        let err = exec
            .forward_dispatch_batch(&reqs, &dispatcher, &mut arena, |_, _, _, _| {})
            .unwrap_err();
        assert!(matches!(
            err,
            MatrixError::ShapeMismatch {
                op: "forward_dispatch_batch",
                ..
            }
        ));
    }

    #[test]
    fn batch_arena_is_reusable_across_micro_batches() {
        let model = GnnModel::gcn(24, 8, 5, 17);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = exec.dispatcher(DispatchPolicy::default(), false);
        let mut batch_arena = exec.arena_batch(48, 4);
        let big = requests(24, 4, false);
        let small = requests(24, 2, true);
        let mut arena = exec.arena(48);
        for reqs in [&big, &small, &big] {
            let mut want = Vec::new();
            for r in reqs.iter() {
                exec.forward_dispatch(r, &dispatcher, &mut arena, |_, _, _, _, _| {})
                    .unwrap();
                want.push(arena.output().to_dense());
            }
            exec.forward_dispatch_batch(reqs, &dispatcher, &mut batch_arena, |_, _, _, _| {})
                .unwrap();
            for (b, want) in want.iter().enumerate() {
                assert_eq!(
                    batch_arena.output_block(b).to_dense().as_slice(),
                    want.as_slice()
                );
            }
        }
    }
}
