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
//!   multiplication commutes with horizontal concatenation, so the solo
//!   path's route and row-block loop ([`crate::arena`]) apply verbatim — and
//!   each adjacency non-zero now feeds `d·B` output columns instead of `d`,
//!   amortising the per-entry traversal overhead that dominates skinny
//!   aggregations.
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
//! * Whatever executes — a shared Aggregate, a column-blocked Update, one
//!   request's layer-0 kernel — goes through the solo path's one runner
//!   (`run_kernel`), so timing and span recording exist once.
//!
//! Every route accumulates contributions to one output element in the same
//! `k`-increasing order as the per-request kernels, so each request's block
//! of the batch output is **bit-identical** to serving that request alone
//! (proved by `tests/integration_batch.rs`).  The per-request densities and
//! sparsity profiles the serving session reports are recovered through
//! zero-copy [`BatchKernelViews`] handed to the callback — single-pass
//! probes over the batch operands, never extraction copies.

use crate::arena::{
    apply_activation_inplace, combine_layer_outputs, run_kernel, slot_as_dense, ArenaSlot,
    KernelArena, KernelDispatcher, KernelScratch, Pass, ProbeCtx, Product,
};
use crate::kernel::{KernelInput, KernelOp, KernelSpec};
use crate::reference::ReferenceExecutor;
use dynasparse_graph::FeatureMatrix;
use dynasparse_matrix::ops::{
    gemm_col_blocked_into, gemm_col_blocked_into_pooled, gemm_into_cols, gemm_into_cols_pooled,
};
use dynasparse_matrix::{
    BlockGrid, CsrMatrix, DenseMatrix, DensityProfile, HostPrimitive, MatrixError, PartitionSpec,
    ProductShape, Result,
};
use dynasparse_telemetry::SessionTelemetry;

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
    /// **Aggregate** kernels — whose batch route is the per-request route on
    /// the batch operand — resolve and execute exactly like
    /// [`ReferenceExecutor::forward_dispatch`]: over the row blocks of the
    /// compiler's `partition` (`N1` rows each) with per-block decisions.
    /// **Update** kernels keep their column-blocked batch kernels: the batch
    /// dimension *is* their block structure, and splitting their rows as
    /// well would break the shared-weight streaming that makes batch fusion
    /// win.
    ///
    /// `on_kernel(layer, kernel, spec, views)` is invoked once per
    /// **kernel** (after the whole batch's kernel has executed) with
    /// zero-copy [`BatchKernelViews`] whose probe methods recover
    /// per-request profiles and densities in single passes over the batch
    /// operands.  When `telemetry` is supplied (and enabled), fused kernels
    /// record **one span per batch kernel** (the batch is the execution
    /// unit); the lazily concatenated layer-0 kernels route per request and
    /// record one span per request.
    ///
    /// The final batch embeddings are left in [`KernelArena::output`];
    /// per-request embeddings come from [`KernelArena::output_block`].  The
    /// arena must have been sized with a batch capacity of at least
    /// `inputs.len()` ([`KernelArena::for_model_batch`]) and every request
    /// must have the first one's shape — either mismatch is a
    /// [`MatrixError::ShapeMismatch`].  In steady state the pass performs no
    /// heap allocation.
    ///
    /// Returns the backend-predicted milliseconds summed over every executed
    /// kernel (finite predictions only).
    pub fn forward_dispatch_batch<F>(
        &self,
        inputs: &[FeatureMatrix],
        dispatcher: &KernelDispatcher,
        arena: &mut KernelArena,
        partition: &PartitionSpec,
        telemetry: Option<&mut SessionTelemetry>,
        mut on_kernel: F,
    ) -> Result<f64>
    where
        F: FnMut(usize, usize, &KernelSpec, &BatchKernelViews<'_>),
    {
        let mut telemetry = telemetry.filter(|t| t.enabled());
        let mut predicted_total = 0.0f64;
        let bsz = inputs.len();
        let Some(first) = inputs.first() else {
            return Ok(0.0);
        };
        // Layer-0 kernels write request `b` into column block `b` of an
        // output shaped from the first request without a zero-fill: a
        // narrower request would leave stale floats behind, a wider one
        // would overrun its neighbour.
        let mismatch = |lhs, rhs| MatrixError::ShapeMismatch {
            op: "forward_dispatch_batch",
            lhs,
            rhs,
        };
        if bsz > arena.batch_capacity {
            return Err(mismatch(
                (bsz, first.dim()),
                (arena.batch_capacity, first.dim()),
            ));
        }
        if let Some(ragged) = inputs.iter().find(|f| f.shape() != first.shape()) {
            return Err(mismatch(first.shape(), ragged.shape()));
        }
        arena.batch = bsz;
        let KernelArena {
            slots,
            input: input_slot,
            acc,
            scratch,
            ..
        } = arena;
        let pass = Pass {
            executor: self,
            dispatcher,
            partition,
        };
        for (l, layer) in self.model().layers.iter().enumerate() {
            for (ki, spec) in layer.kernels.iter().enumerate() {
                let (read, write) = slots.split_at_mut(ki);
                let out_slot = &mut write[0];
                // The batch input is never materialised: layer-0 kernels
                // write each request's column block of the batch-shaped
                // output directly (lazy concatenation).
                let kin: Option<&FeatureMatrix> = match spec.input {
                    KernelInput::LayerInput if l == 0 => None,
                    KernelInput::LayerInput => Some(&input_slot.value),
                    KernelInput::Kernel(j) => Some(&read[j].value),
                };
                let mut probe = telemetry.as_deref_mut().map(|t| ProbeCtx {
                    telemetry: t,
                    layer: l as u16,
                    kernel: ki as u16,
                });
                let probe = probe.as_mut();
                let predicted = match (kin, spec.op) {
                    (None, _) => pass.run_layer0_lazy(spec, inputs, out_slot, scratch, probe)?,
                    // A × [H₁ | … | H_B] = [A·H₁ | … | A·H_B]: the
                    // per-request route applies verbatim to the batch
                    // operand, its decisions seeing the widened product.
                    (Some(kin), KernelOp::Aggregate { .. }) => {
                        pass.run(spec, kin, out_slot, scratch, probe)?
                    }
                    (Some(kin), KernelOp::Update { weight }) => {
                        pass.run_batch_update(weight, kin, bsz, out_slot, scratch, probe)?
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
            combine_layer_outputs(layer, slots, acc, &mut scratch.spgemm)?;
            if let Some(act) = layer.output_activation {
                apply_activation_inplace(&mut acc.value, act);
            }
            std::mem::swap(input_slot, acc);
        }
        Ok(predicted_total)
    }
}

impl Pass<'_> {
    /// Layer-0 execution: the batch input is never materialised; request
    /// `b`'s kernel writes columns `[b·width, (b+1)·width)` of the
    /// batch-shaped output directly.  Routing is per request by
    /// representation, every request is one [`run_kernel`] call (one span
    /// each), and the column-block kernels accumulate in the per-request
    /// kernels' order, so results stay bit-identical.  Returns the summed
    /// backend-predicted milliseconds of the per-request kernels.
    fn run_layer0_lazy(
        &self,
        spec: &KernelSpec,
        inputs: &[FeatureMatrix],
        out_slot: &mut ArenaSlot,
        scratch: &mut KernelScratch,
        mut probe: Option<&mut ProbeCtx<'_>>,
    ) -> Result<f64> {
        /// The kernel's model-side operand.
        #[derive(Clone, Copy)]
        enum Operand<'a> {
            Adjacency(&'a CsrMatrix),
            Weight(&'a DenseMatrix),
        }
        let dispatcher = self.dispatcher;
        let pool = dispatcher.pool();
        let (m, dim) = inputs[0].shape();
        let (operand, shape) = match spec.op {
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .executor
                    .adjacency(aggregator)
                    .expect("adjacency prepared at executor construction");
                let shape = ProductShape::new(adj.rows(), adj.cols(), dim);
                (Operand::Adjacency(adj), shape)
            }
            KernelOp::Update { weight } => {
                let w = &self.executor.model().weights[weight];
                (Operand::Weight(w), ProductShape::new(m, dim, w.cols()))
            }
        };
        let width = shape.d;
        let spgemm = &mut scratch.spgemm;
        let out = slot_as_dense(out_slot, spgemm);
        // Every request's kernel fully defines its own block, so the batch
        // slot is reshaped without a redundant zero-fill.
        out.reset_for_overwrite(m, width * inputs.len());
        let mut predicted_total = 0.0f64;
        for (b, f) in inputs.iter().enumerate() {
            let c0 = b * width;
            let predicted_ms = run_kernel(probe.as_deref_mut(), |_| {
                let (executed, alpha_x, alpha_y) = match (operand, f) {
                    (Operand::Weight(w), FeatureMatrix::Dense(h)) => {
                        match pool {
                            Some(p) => gemm_into_cols_pooled(p, h, w, out, c0)?,
                            None => gemm_into_cols(h, w, out, c0)?,
                        }
                        (HostPrimitive::Gemm, 1.0, w.density())
                    }
                    (Operand::Weight(w), FeatureMatrix::Sparse(h)) => {
                        match pool {
                            Some(p) => h.spmm_dense_into_cols_pooled(p, w, out, c0)?,
                            None => h.spmm_dense_into_cols(w, out, c0)?,
                        }
                        (HostPrimitive::SpDmm, h.density(), w.density())
                    }
                    (Operand::Adjacency(adj), FeatureMatrix::Dense(h)) => {
                        match pool {
                            Some(p) => adj.spmm_dense_into_cols_pooled(p, h, out, c0)?,
                            None => adj.spmm_dense_into_cols(h, out, c0)?,
                        }
                        (HostPrimitive::SpDmm, adj.density(), 1.0)
                    }
                    (Operand::Adjacency(adj), FeatureMatrix::Sparse(h)) => {
                        // Sparse request in a mixed batch: Gustavson,
                        // scattered into the explicitly-zeroed block (same
                        // k-order).
                        let product = match pool {
                            Some(p) => adj.spgemm_pooled(p, h)?,
                            None => adj.spgemm_with(h, spgemm)?,
                        };
                        out.zero_cols(c0, c0 + width);
                        product.write_into_dense_cols(out, c0);
                        spgemm.reclaim(product.into_parts());
                        (HostPrimitive::Spmm, adj.density(), h.density())
                    }
                };
                let product = Product {
                    executed,
                    shape,
                    alpha_x,
                    alpha_y,
                    fell_back: false,
                };
                Ok((product, product.predicted_ms(dispatcher)))
            })?;
            if predicted_ms.is_finite() && predicted_ms > 0.0 {
                predicted_total += predicted_ms;
            }
        }
        Ok(predicted_total)
    }

    /// One Update kernel for the whole batch (`kin` concatenates `bsz`
    /// requests): routed once by the batch operand's runtime density, run
    /// through the column-blocked kernels with the shared weight, and
    /// recorded as one kernel span.
    fn run_batch_update(
        &self,
        weight: usize,
        kin: &FeatureMatrix,
        bsz: usize,
        out_slot: &mut ArenaSlot,
        scratch: &mut KernelScratch,
        probe: Option<&mut ProbeCtx<'_>>,
    ) -> Result<f64> {
        let w = &self.executor.model().weights[weight];
        let pool = self.dispatcher.pool();
        // The batched product is B disjoint (m × width × n) GEMMs; modelling
        // it as m × width × (n·B) keeps every primitive's flop count exact
        // while exposing the widened output to the cost model.
        let shape = ProductShape::new(kin.num_vertices(), kin.dim() / bsz, w.cols() * bsz);
        let alpha_y = w.density();
        run_kernel(probe, |_| {
            let (executed, alpha_x, fell_back) = match kin {
                // Dense-stored batch: the column-blocked GEMM whatever the
                // density, as in the per-request path.
                FeatureMatrix::Dense(_) => (HostPrimitive::Gemm, 1.0, false),
                FeatureMatrix::Sparse(h) => {
                    let alpha_x = h.density();
                    let (decision, fell_back) = self.dispatcher.decide(shape, alpha_x, alpha_y);
                    // Both sparse-operand modes run the column-blocked CSR
                    // kernel against the dense weight: identical
                    // accumulation order, so the result stays bit-identical
                    // whichever mode the cost model prices.
                    let executed = match decision {
                        HostPrimitive::Spmm => HostPrimitive::SpDmm,
                        other => other,
                    };
                    (executed, alpha_x, fell_back)
                }
            };
            let out = slot_as_dense(out_slot, &mut scratch.spgemm);
            match (executed, kin) {
                (HostPrimitive::Skip, _) => out.reset(shape.m, shape.d),
                (HostPrimitive::Gemm, kin) => {
                    let h = match kin {
                        FeatureMatrix::Dense(h) => h,
                        FeatureMatrix::Sparse(h) => {
                            h.to_dense_into(&mut scratch.densify);
                            &scratch.densify
                        }
                    };
                    match pool {
                        Some(p) => gemm_col_blocked_into_pooled(p, h, w, bsz, out)?,
                        None => gemm_col_blocked_into(h, w, bsz, out)?,
                    }
                }
                (_, FeatureMatrix::Sparse(h)) => match pool {
                    Some(p) => h.spmm_dense_col_blocked_into_pooled(p, w, bsz, out)?,
                    None => h.spmm_dense_col_blocked_into(w, bsz, out)?,
                },
                (_, FeatureMatrix::Dense(_)) => unreachable!("a dense batch routes to GEMM"),
            }
            let product = Product {
                executed,
                shape,
                alpha_x,
                alpha_y,
                fell_back,
            };
            Ok((product, product.predicted_ms(self.dispatcher)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::{
        check_against_reference, host_dispatcher, small_graph, sparse, VERTICES,
    };
    use crate::models::{GnnModel, GnnModelKind};
    use crate::pruning::prune_model;
    use dynasparse_graph::generators::dense_features;
    use dynasparse_matrix::DispatchPolicy;

    fn requests(dim: usize, n: usize, as_csr: bool) -> Vec<FeatureMatrix> {
        (0..n)
            .map(|i| {
                let density = 0.02 + 0.12 * i as f64;
                let f = dense_features(VERTICES, dim, density, 40 + i as u64);
                if as_csr {
                    sparse(&f)
                } else {
                    f
                }
            })
            .collect()
    }

    fn mixed_requests() -> Vec<FeatureMatrix> {
        let mut reqs = requests(24, 2, false);
        reqs.extend(requests(24, 2, true));
        reqs
    }

    #[test]
    fn every_model_kind_matches_the_per_request_pass() {
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 13);
            let reqs = requests(24, 3, false);
            check_against_reference(&model, &reqs, &PartitionSpec::default(), false);
        }
    }

    #[test]
    fn sparse_requests_concatenate_in_csr_and_match() {
        for sparsity in [0.0, 0.95] {
            let model = prune_model(&GnnModel::gcn(24, 8, 5, 17), sparsity);
            let reqs = requests(24, 4, true);
            check_against_reference(&model, &reqs, &PartitionSpec::default(), false);
        }
    }

    #[test]
    fn mixed_representation_batches_match() {
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 23);
            check_against_reference(&model, &mixed_requests(), &PartitionSpec::default(), false);
        }
    }

    #[test]
    fn pooled_batch_matches_serial() {
        let model = GnnModel::gin(24, 8, 5, 29);
        let reqs = requests(24, 3, false);
        check_against_reference(&model, &reqs, &PartitionSpec::default(), true);
    }

    #[test]
    fn blocked_batch_matches_per_request_solo_passes() {
        let partition = PartitionSpec::new(11, 5).unwrap();
        for kind in GnnModelKind::all() {
            let model = GnnModel::standard(kind, 24, 8, 5, 23);
            check_against_reference(&model, &mixed_requests(), &partition, false);
        }
    }

    #[test]
    fn callback_sees_every_kernel_in_order_with_batch_views() {
        let model = GnnModel::gcn(16, 8, 4, 7);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = host_dispatcher(&model, DispatchPolicy::default(), None, false);
        let reqs = requests(16, 3, false);
        let mut batch_arena = exec.arena_batch(VERTICES, reqs.len());
        let mut seen = Vec::new();
        exec.forward_dispatch_batch(
            &reqs,
            &dispatcher,
            &mut batch_arena,
            &PartitionSpec::default(),
            None,
            |l, k, spec, views| {
                assert_eq!(views.num_vertices(), VERTICES);
                assert_eq!(views.batch_size(), 3);
                seen.push((
                    l,
                    k,
                    spec.op.is_aggregate(),
                    views.input_dim(),
                    views.output_dim(),
                ));
            },
        )
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
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = host_dispatcher(&model, DispatchPolicy::default(), None, false);
        let partition = PartitionSpec::default();
        for as_csr in [false, true] {
            let reqs = requests(16, 3, as_csr);
            // Solo passes record the per-kernel input profile and the
            // input/output densities of every request.
            let grid = BlockGrid::new(VERTICES, 16, 8, 4);
            let mut arena = exec.arena(VERTICES);
            let mut solo: Vec<Vec<(Option<DensityProfile>, f64, f64)>> = Vec::new();
            for r in &reqs {
                let mut stages = Vec::new();
                exec.forward_dispatch(
                    r,
                    &dispatcher,
                    &mut arena,
                    &partition,
                    None,
                    |_, _, _, i, o, _| {
                        let profile = (i.dim() == 16).then(|| i.density_profile(&grid));
                        stages.push((profile, i.density(), o.density()));
                    },
                )
                .unwrap();
                solo.push(stages);
            }
            let mut batch_arena = exec.arena_batch(VERTICES, reqs.len());
            let mut profiles = vec![DensityProfile::default(); reqs.len()];
            let mut counts = Vec::new();
            let mut kernel = 0usize;
            exec.forward_dispatch_batch(
                &reqs,
                &dispatcher,
                &mut batch_arena,
                &partition,
                None,
                |_, _, _, views| {
                    views.output_nnz_into(&mut counts);
                    if views.input_dim() == 16 {
                        views.profile_inputs_into(&grid, &mut profiles);
                    }
                    for b in 0..views.batch_size() {
                        let (want_profile, want_in, want_out) = &solo[b][kernel];
                        if let Some(want_profile) = want_profile {
                            assert_eq!(&profiles[b], want_profile, "request {b} profile");
                        }
                        let in_total = VERTICES * views.input_dim();
                        if views.input_dim() == 16 {
                            let got_in = profiles[b].total_nnz() as f64 / in_total as f64;
                            assert_eq!(got_in, *want_in, "request {b} input density");
                        }
                        let got_out = counts[b] as f64 / (VERTICES * views.output_dim()) as f64;
                        assert_eq!(got_out, *want_out, "request {b} output density");
                    }
                    kernel += 1;
                },
            )
            .unwrap();
            assert_eq!(kernel, model.num_kernels());
        }
    }

    /// What a batch the executor must refuse returns.
    fn batch_error(model: &GnnModel, capacity: usize, reqs: &[FeatureMatrix]) -> MatrixError {
        let exec = ReferenceExecutor::new(model, &small_graph());
        let dispatcher = host_dispatcher(model, DispatchPolicy::default(), None, false);
        let mut arena = exec.arena_batch(VERTICES, capacity);
        exec.forward_dispatch_batch(
            reqs,
            &dispatcher,
            &mut arena,
            &PartitionSpec::default(),
            None,
            |_, _, _, _| {},
        )
        .unwrap_err()
    }

    #[test]
    fn batch_larger_than_arena_capacity_is_rejected() {
        let err = batch_error(&GnnModel::gcn(16, 8, 4, 7), 2, &requests(16, 3, false));
        assert!(matches!(
            err,
            MatrixError::ShapeMismatch {
                op: "forward_dispatch_batch",
                ..
            }
        ));
    }

    #[test]
    fn ragged_batch_is_rejected_instead_of_serving_stale_floats() {
        // Aggregate-first models never multiply the raw request by a weight,
        // so no kernel notices a narrower request: its column block of the
        // un-zeroed batch slot would keep the previous micro-batch's values.
        for model in [GnnModel::gin(16, 8, 4, 7), GnnModel::sgc(16, 8, 4, 7)] {
            for narrow in [12, 20] {
                let mut reqs = requests(16, 3, false);
                reqs[1] = dense_features(VERTICES, narrow, 0.3, 77);
                let err = batch_error(&model, 3, &reqs);
                assert!(
                    matches!(
                        err,
                        MatrixError::ShapeMismatch {
                            op: "forward_dispatch_batch",
                            lhs: (VERTICES, 16),
                            rhs,
                        } if rhs == (VERTICES, narrow)
                    ),
                    "{:?} with a {narrow}-wide request: {err:?}",
                    model.kind
                );
            }
        }
    }

    #[test]
    fn batch_arena_is_reusable_across_micro_batches() {
        let model = GnnModel::gcn(24, 8, 5, 17);
        let exec = ReferenceExecutor::new(&model, &small_graph());
        let dispatcher = host_dispatcher(&model, DispatchPolicy::default(), None, false);
        let mut batch_arena = exec.arena_batch(VERTICES, 4);
        let big = requests(24, 4, false);
        let small = requests(24, 2, true);
        for reqs in [&big, &small, &big] {
            exec.forward_dispatch_batch(
                reqs,
                &dispatcher,
                &mut batch_arena,
                &PartitionSpec::default(),
                None,
                |_, _, _, _| {},
            )
            .unwrap();
            for (b, r) in reqs.iter().enumerate() {
                assert_eq!(
                    batch_arena.output_block(b).to_dense().as_slice(),
                    exec.forward(r).unwrap().to_dense().as_slice()
                );
            }
        }
    }
}
