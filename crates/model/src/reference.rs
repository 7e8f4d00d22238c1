//! Reference (functional) full-graph inference.
//!
//! The reference executor runs a [`GnnModel`] on a graph exactly as
//! Algorithm 1 of the paper prescribes, materialising every intermediate
//! feature matrix.  It serves three purposes:
//!
//! 1. **Correctness oracle** — the accelerator simulator's functional output
//!    must match it bit-for-bit up to floating-point accumulation order.
//! 2. **Runtime sparsity source** — the densities of the intermediate
//!    feature matrices `{H¹, …, Hᴸ}` are only known once they are computed
//!    (Fig. 2); the engine profiles them through the
//!    [`ReferenceExecutor::forward_with`] callback, mirroring the hardware
//!    Sparsity Profiler.
//! 3. **CPU baseline kernel** — the per-kernel work it performs (CSR SpMM
//!    for Aggregate, dense GEMM for Update) is what PyG/DGL do on a CPU,
//!    which the baseline latency models build on.

use crate::kernel::{KernelInput, KernelOp, KernelSpec};
use crate::models::GnnModel;
use dynasparse_graph::{normalized_adjacency, AggregatorKind, FeatureMatrix, Graph};
use dynasparse_matrix::CsrMatrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The kernel kind of a density-trace stage.
///
/// A `Copy` enum rather than a `String` so recording a stage allocates
/// nothing; the serde names are the exact strings (`"Aggregate"` /
/// `"Update"`) the former `String` field serialized to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageOp {
    /// An Aggregate kernel (`A × H`).
    Aggregate,
    /// An Update kernel (`H × W`).
    Update,
}

impl StageOp {
    /// Stable display label, identical to the serialized name.
    pub fn label(self) -> &'static str {
        match self {
            StageOp::Aggregate => "Aggregate",
            StageOp::Update => "Update",
        }
    }
}

impl std::fmt::Display for StageOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl PartialEq<&str> for StageOp {
    fn eq(&self, other: &&str) -> bool {
        self.label() == *other
    }
}

/// Density of the feature matrix after one kernel (one bar of Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageDensity {
    /// Layer index (0-based).
    pub layer: usize,
    /// Kernel index within the layer.
    pub kernel: usize,
    /// Which kernel kind produced the stage.
    pub op: StageOp,
    /// Density of the kernel's output feature matrix (after its activation).
    pub density: f64,
}

/// Densities of the input features and of every kernel output — the data of
/// Fig. 2 for one (model, graph) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityTrace {
    /// Density of the input feature matrix `H⁰`.
    pub input_density: f64,
    /// One entry per executed kernel, in execution order.
    pub stages: Vec<StageDensity>,
}

impl DensityTrace {
    /// Density after the last kernel of the model (the output embeddings).
    pub fn output_density(&self) -> f64 {
        self.stages
            .last()
            .map(|s| s.density)
            .unwrap_or(self.input_density)
    }
}

/// Functional executor bound to one model and one graph.
///
/// The executor holds its model and normalized adjacencies behind [`Arc`],
/// so it is `Send + Sync` and cheap to construct from a compiled serving
/// plan: concurrent sessions over one plan share a single copy of the
/// weights and adjacency matrices instead of deep-cloning them per session.
pub struct ReferenceExecutor {
    model: Arc<GnnModel>,
    /// Normalized adjacency matrices, one per aggregator kind the model uses.
    adjacencies: Arc<HashMap<AggregatorKind, CsrMatrix>>,
}

impl ReferenceExecutor {
    /// Prepares the executor: pre-computes every normalized adjacency matrix
    /// the model's Aggregate kernels need.  The model is cloned into shared
    /// ownership; callers that already hold `Arc`s should use
    /// [`ReferenceExecutor::from_prepared`] instead.
    pub fn new(model: &GnnModel, graph: &Graph) -> Self {
        Self::from_prepared(
            Arc::new(model.clone()),
            Arc::new(prepare_adjacencies(model, graph)),
        )
    }

    /// Builds an executor from adjacencies normalized ahead of time with
    /// [`prepare_adjacencies`].  This is the compile-once hook: a serving
    /// plan normalizes the adjacency matrices once per graph topology and
    /// every executor (one per session) shares them by reference count —
    /// opening a session performs no deep copy of model or graph state.
    pub fn from_prepared(
        model: Arc<GnnModel>,
        adjacencies: Arc<HashMap<AggregatorKind, CsrMatrix>>,
    ) -> Self {
        ReferenceExecutor { model, adjacencies }
    }

    /// The normalized adjacency matrix for `aggregator`, if the model uses it.
    pub fn adjacency(&self, aggregator: AggregatorKind) -> Option<&CsrMatrix> {
        self.adjacencies.get(&aggregator)
    }

    /// The model this executor runs.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Executes a single kernel on `input`, returning its activated output.
    pub fn execute_kernel(
        &self,
        spec: &KernelSpec,
        input: &FeatureMatrix,
    ) -> dynasparse_matrix::Result<FeatureMatrix> {
        let raw = match spec.op {
            KernelOp::Aggregate { aggregator } => {
                let adj = self
                    .adjacencies
                    .get(&aggregator)
                    .expect("adjacency prepared in new()");
                input.aggregate(adj)?
            }
            KernelOp::Update { weight } => input.update(&self.model.weights[weight])?,
        };
        Ok(match spec.activation {
            Some(act) => act.apply(&raw),
            None => raw,
        })
    }

    /// Runs the full model, invoking `on_kernel(layer, kernel, spec, input,
    /// output)` after every kernel.  Returns the final embeddings.
    pub fn forward_with<F>(
        &self,
        input: &FeatureMatrix,
        mut on_kernel: F,
    ) -> dynasparse_matrix::Result<FeatureMatrix>
    where
        F: FnMut(usize, usize, &KernelSpec, &FeatureMatrix, &FeatureMatrix),
    {
        let mut layer_input = input.clone();
        for (l, layer) in self.model.layers.iter().enumerate() {
            let mut kernel_outputs: Vec<FeatureMatrix> = Vec::with_capacity(layer.kernels.len());
            let mut layer_output: Option<FeatureMatrix> = None;
            for (ki, spec) in layer.kernels.iter().enumerate() {
                let kin = match spec.input {
                    KernelInput::LayerInput => &layer_input,
                    KernelInput::Kernel(j) => &kernel_outputs[j],
                };
                let out = self.execute_kernel(spec, kin)?;
                on_kernel(l, ki, spec, kin, &out);
                if spec.contributes_to_output {
                    layer_output = Some(match layer_output {
                        None => out.clone(),
                        Some(acc) => acc.add(&out)?,
                    });
                }
                kernel_outputs.push(out);
            }
            let mut out = layer_output.expect("validated layers have a contributing kernel");
            if let Some(act) = layer.output_activation {
                out = act.apply(&out);
            }
            layer_input = out;
        }
        Ok(layer_input)
    }

    /// Runs the full model and returns the final embeddings.
    pub fn forward(&self, input: &FeatureMatrix) -> dynasparse_matrix::Result<FeatureMatrix> {
        self.forward_with(input, |_, _, _, _, _| {})
    }

    /// Runs the full model recording the per-stage feature densities
    /// (the data of Fig. 2).
    pub fn forward_trace(
        &self,
        input: &FeatureMatrix,
    ) -> dynasparse_matrix::Result<(FeatureMatrix, DensityTrace)> {
        let mut stages = Vec::new();
        let out = self.forward_with(input, |layer, kernel, spec, _in, out| {
            stages.push(StageDensity {
                layer,
                kernel,
                op: if spec.op.is_aggregate() {
                    StageOp::Aggregate
                } else {
                    StageOp::Update
                },
                density: out.density(),
            });
        })?;
        Ok((
            out,
            DensityTrace {
                input_density: input.density(),
                stages,
            },
        ))
    }
}

/// Normalizes every adjacency matrix the model's Aggregate kernels need —
/// the graph-side half of [`ReferenceExecutor::new`], exposed separately so
/// compile-once callers can keep the result and rebuild executors cheaply.
pub fn prepare_adjacencies(model: &GnnModel, graph: &Graph) -> HashMap<AggregatorKind, CsrMatrix> {
    let mut adjacencies = HashMap::new();
    for layer in &model.layers {
        for k in &layer.kernels {
            if let KernelOp::Aggregate { aggregator } = k.op {
                adjacencies
                    .entry(aggregator)
                    .or_insert_with(|| normalized_adjacency(graph.adjacency(), aggregator));
            }
        }
    }
    adjacencies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::GnnModelKind;
    use dynasparse_graph::generators::{dense_features, power_law_graph, PowerLawConfig};
    use dynasparse_matrix::ops::gemm_reference;
    use dynasparse_matrix::DenseMatrix;

    fn small_graph() -> Graph {
        power_law_graph(
            "test",
            &PowerLawConfig {
                num_vertices: 60,
                num_edges: 240,
                exponent: 2.3,
                seed: 9,
            },
        )
    }

    fn small_features(dim: usize, density: f64) -> FeatureMatrix {
        dense_features(60, dim, density, 4)
    }

    /// The manual formulas below run `gemm_reference` alone, never the
    /// executor's CSR gather, and every host route promises its additions
    /// in its order: the embeddings must match bit for bit.
    fn assert_same_bits(got: &DenseMatrix, want: &DenseMatrix) {
        let bits = |m: &DenseMatrix| -> Vec<u32> {
            m.row_major()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(got.shape(), want.shape());
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn all_models_run_and_produce_finite_output() {
        let g = small_graph();
        let h0 = small_features(32, 0.3);
        for kind in GnnModelKind::all() {
            let m = GnnModel::standard(kind, 32, 8, 5, 11);
            let exec = ReferenceExecutor::new(&m, &g);
            let out = exec.forward(&h0).unwrap();
            assert_eq!(out.shape(), (60, 5), "{}", kind.name());
            assert!(
                out.to_dense().as_slice().iter().all(|v| v.is_finite()),
                "{} produced non-finite values",
                kind.name()
            );
        }
    }

    #[test]
    fn gcn_forward_matches_manual_formula() {
        // Manual 2-layer GCN: H1 = ReLU(Â (H0 W1)); H2 = Â (H1 W2).
        let g = small_graph();
        let h0 = small_features(12, 0.5);
        let m = GnnModel::gcn(12, 6, 3, 2);
        let exec = ReferenceExecutor::new(&m, &g);
        let got = exec.forward(&h0).unwrap().to_dense();

        let a_hat = normalized_adjacency(g.adjacency(), AggregatorKind::GcnSymmetric).to_dense();
        let h0d = h0.to_dense();
        let t1 = gemm_reference(&h0d, &m.weights[0]).unwrap();
        let h1 = gemm_reference(&a_hat, &t1).unwrap().map(|v| v.max(0.0));
        let t2 = gemm_reference(&h1, &m.weights[1]).unwrap();
        let want = gemm_reference(&a_hat, &t2).unwrap();
        assert_same_bits(&got, &want);
    }

    #[test]
    fn graphsage_combines_self_and_neighbour_branches() {
        let g = small_graph();
        let h0 = small_features(10, 0.6);
        let m = GnnModel::graphsage(10, 4, 3, 7);
        let exec = ReferenceExecutor::new(&m, &g);
        let got = exec.forward(&h0).unwrap().to_dense();

        let a_mean = normalized_adjacency(g.adjacency(), AggregatorKind::Mean).to_dense();
        let h0d = h0.to_dense();
        let layer = |h: &DenseMatrix, wn: &DenseMatrix, ws: &DenseMatrix| {
            let agg = gemm_reference(&a_mean, h).unwrap();
            gemm_reference(&agg, wn)
                .unwrap()
                .add(&gemm_reference(h, ws).unwrap())
                .unwrap()
        };
        let h1 = layer(&h0d, &m.weights[0], &m.weights[1]).map(|v| v.max(0.0));
        let want = layer(&h1, &m.weights[2], &m.weights[3]);
        assert_same_bits(&got, &want);
    }

    #[test]
    fn sgc_equals_two_hops_then_update() {
        let g = small_graph();
        let h0 = small_features(8, 0.7);
        let m = GnnModel::sgc(8, 4, 2, 3);
        let exec = ReferenceExecutor::new(&m, &g);
        let got = exec.forward(&h0).unwrap().to_dense();

        let a_hat = normalized_adjacency(g.adjacency(), AggregatorKind::GcnSymmetric).to_dense();
        let h0d = h0.to_dense();
        let one_hop = gemm_reference(&a_hat, &h0d).unwrap();
        let two_hop = gemm_reference(&a_hat, &one_hop).unwrap();
        let want = gemm_reference(&two_hop, &m.weights[0]).unwrap();
        assert_same_bits(&got, &want);
    }

    #[test]
    fn gin_forward_matches_manual_formula() {
        // Manual 2-layer GIN, each layer an MLP over the sum aggregate:
        // H' = ReLU(Â H W_a) W_b with Â = A + I, ReLU between the layers.
        let g = small_graph();
        let h0 = small_features(16, 0.5);
        let m = GnnModel::gin(16, 8, 4, 5);
        let exec = ReferenceExecutor::new(&m, &g);
        let got = exec.forward(&h0).unwrap().to_dense();

        let a_sum = normalized_adjacency(g.adjacency(), AggregatorKind::Sum).to_dense();
        let layer = |h: &DenseMatrix, wa: &DenseMatrix, wb: &DenseMatrix| {
            let agg = gemm_reference(&a_sum, h).unwrap();
            let t = gemm_reference(&agg, wa).unwrap().map(|v| v.max(0.0));
            gemm_reference(&t, wb).unwrap()
        };
        let h1 = layer(&h0.to_dense(), &m.weights[0], &m.weights[1]).map(|v| v.max(0.0));
        let want = layer(&h1, &m.weights[2], &m.weights[3]);
        assert_same_bits(&got, &want);
    }

    #[test]
    fn density_trace_covers_every_kernel() {
        let g = small_graph();
        let h0 = small_features(16, 0.2);
        let m = GnnModel::gcn(16, 8, 4, 1);
        let exec = ReferenceExecutor::new(&m, &g);
        let (_, trace) = exec.forward_trace(&h0).unwrap();
        assert_eq!(trace.stages.len(), m.num_kernels());
        assert!((trace.input_density - h0.density()).abs() < 1e-12);
        assert!(trace
            .stages
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.density)));
        // The first stage of our GCN is the Update of layer 0.
        assert_eq!(trace.stages[0].op, "Update");
        assert_eq!(trace.stages[1].op, "Aggregate");
        assert!(trace.output_density() > 0.0);
    }

    #[test]
    fn relu_layers_increase_sparsity_relative_to_no_activation() {
        let g = small_graph();
        let h0 = small_features(16, 1.0);
        let m = GnnModel::gcn(16, 8, 4, 1);
        let exec = ReferenceExecutor::new(&m, &g);
        let (_, trace) = exec.forward_trace(&h0).unwrap();
        // The post-ReLU aggregate output of layer 0 must contain zeros (the
        // signed Xavier weights guarantee some negatives before ReLU).
        let relu_stage = &trace.stages[1];
        assert!(relu_stage.density < 1.0);
    }

    #[test]
    fn forward_with_callback_sees_consistent_shapes() {
        let g = small_graph();
        let h0 = small_features(16, 0.4);
        let m = GnnModel::gin(16, 8, 4, 5);
        let exec = ReferenceExecutor::new(&m, &g);
        let mut count = 0;
        exec.forward_with(&h0, |_, _, spec, input, output| {
            count += 1;
            assert_eq!(input.num_vertices(), 60);
            assert_eq!(output.num_vertices(), 60);
            if let KernelOp::Update { weight } = spec.op {
                assert_eq!(input.dim(), m.weights[weight].rows());
                assert_eq!(output.dim(), m.weights[weight].cols());
            }
        })
        .unwrap();
        assert_eq!(count, m.num_kernels());
    }

    #[test]
    fn pruned_model_still_runs_and_output_differs() {
        let g = small_graph();
        let h0 = small_features(20, 0.5);
        let m = GnnModel::gcn(20, 8, 4, 6);
        let pruned = crate::pruning::prune_model(&m, 0.9);
        let out_full = ReferenceExecutor::new(&m, &g).forward(&h0).unwrap();
        let out_pruned = ReferenceExecutor::new(&pruned, &g).forward(&h0).unwrap();
        assert_eq!(out_full.shape(), out_pruned.shape());
        assert!(!out_full.to_dense().approx_eq(&out_pruned.to_dense(), 1e-6));
    }
}
