//! Result types produced by the engine: the per-request [`InferenceReport`]
//! of the Planner → Session pipeline and the per-strategy runs it holds.

use dynasparse_compiler::KernelKind;
use dynasparse_graph::FeatureMatrix;
use dynasparse_model::DensityTrace;
use dynasparse_runtime::{MappingStrategy, PrimitiveMix, RuntimeOverhead};
use serde::Serialize;

/// Per-kernel execution summary under one mapping strategy.
#[derive(Debug, Clone, Serialize)]
pub struct KernelReport {
    /// Kernel id (execution order).
    pub kernel_id: usize,
    /// GNN layer the kernel belongs to (1-based).
    pub layer_id: usize,
    /// Aggregate or Update.
    pub kind: KernelKind,
    /// Accelerator cycles spent on this kernel (its scheduled makespan).
    pub cycles: u64,
    /// Core utilization while this kernel ran.
    pub utilization: f64,
    /// Kernel-to-primitive decisions made by the soft processor.
    pub decisions: usize,
    /// How the kernel's block products were mapped.
    pub mix: PrimitiveMix,
    /// Density of the kernel's input feature matrix (measured at runtime).
    pub input_density: f64,
    /// Density of the kernel's output feature matrix.
    pub output_density: f64,
}

/// Execution summary of one mapping strategy over the whole model.
#[derive(Debug, Clone, Serialize)]
pub struct StrategyRun {
    /// The strategy evaluated.
    pub strategy: MappingStrategy,
    /// Per-kernel reports in execution order.
    pub kernels: Vec<KernelReport>,
    /// Total accelerator execution cycles (sum of kernel makespans).
    pub total_cycles: u64,
    /// Accelerator execution latency in milliseconds — the metric of
    /// Table VII and Table X.
    pub latency_ms: f64,
    /// Runtime-system overhead (Fig. 13).
    pub overhead: RuntimeOverhead,
    /// End-to-end latency in milliseconds: preprocessing + CPU→FPGA data
    /// movement + accelerator execution (Section VIII-D).
    pub end_to_end_ms: f64,
    /// Utilization averaged over the run, weighted by kernel duration.
    pub average_utilization: f64,
}

impl StrategyRun {
    /// Total number of kernel-to-primitive decisions across kernels.
    pub fn total_decisions(&self) -> usize {
        self.kernels.iter().map(|k| k.decisions).sum()
    }

    /// Aggregated primitive mix across kernels.
    pub fn total_mix(&self) -> PrimitiveMix {
        let mut mix = PrimitiveMix::default();
        for k in &self.kernels {
            mix.gemm += k.mix.gemm;
            mix.spdmm += k.mix.spdmm;
            mix.spmm += k.mix.spmm;
            mix.skipped += k.mix.skipped;
        }
        mix
    }
}

/// Result of one inference request served by a
/// [`Session`](crate::Session).
///
/// A report carries only per-request quantities; the amortized artifacts
/// (compile report, partition, static sparsity) live on the
/// [`CompiledPlan`](crate::CompiledPlan) the session serves from.
#[derive(Debug, Clone, Serialize)]
pub struct InferenceReport {
    /// Zero-based index of this request within its session.
    pub request_index: usize,
    /// Cold-start PCIe milliseconds for this request: the plan's static data
    /// (adjacency + weights + IR) plus the request's features.  This is what
    /// the request costs if nothing is resident on the accelerator yet.
    pub data_movement_ms: f64,
    /// PCIe milliseconds for the request's feature matrix alone — the only
    /// transfer paid once the plan's static data is resident (steady state).
    pub feature_movement_ms: f64,
    /// Densities of the request input and of every kernel output (Fig. 2).
    pub density_trace: DensityTrace,
    /// The host calibration's predicted wall-clock milliseconds summed over
    /// every kernel dispatched for this request (`0.0` when nothing is
    /// priced: the Table IV regions under `DYNASPARSE_CALIBRATION=off`) —
    /// the request's own sum, served alone or in a batch.
    pub predicted_kernel_ms: f64,
    /// One run per session strategy, in session order.
    pub runs: Vec<StrategyRun>,
    /// Output embeddings of the functional execution.
    #[serde(skip)]
    pub output_embeddings: FeatureMatrix,
}

impl InferenceReport {
    /// The run for `strategy`, if the session prices it.
    pub fn run(&self, strategy: MappingStrategy) -> Option<&StrategyRun> {
        self.runs.iter().find(|r| r.strategy == strategy)
    }

    /// Speedup of `fast` over `slow` in accelerator latency
    /// (the SO-S1 / SO-S2 columns of Table VII).
    pub fn speedup(&self, slow: MappingStrategy, fast: MappingStrategy) -> Option<f64> {
        let s = self.run(slow)?;
        let f = self.run(fast)?;
        if f.latency_ms <= 0.0 {
            return None;
        }
        Some(s.latency_ms / f.latency_ms)
    }

    /// Steady-state request latency for `strategy`: feature-matrix movement
    /// plus accelerator execution, with compilation *and* the one-time
    /// static transfer amortized away.  This is the number a serving
    /// deployment observes per request after warm-up, versus
    /// [`StrategyRun::end_to_end_ms`] which charges the one-time
    /// preprocessing and full transfer to every call.
    pub fn amortized_ms(&self, strategy: MappingStrategy) -> Option<f64> {
        self.run(strategy)
            .map(|r| self.feature_movement_ms + r.latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_matrix::DenseMatrix;

    fn dummy_run(strategy: MappingStrategy, latency_ms: f64) -> StrategyRun {
        StrategyRun {
            strategy,
            kernels: vec![KernelReport {
                kernel_id: 0,
                layer_id: 1,
                kind: KernelKind::Update,
                cycles: 100,
                utilization: 0.9,
                decisions: 4,
                mix: PrimitiveMix {
                    gemm: 1,
                    spdmm: 2,
                    spmm: 0,
                    skipped: 1,
                },
                input_density: 0.5,
                output_density: 0.4,
            }],
            total_cycles: 100,
            latency_ms,
            overhead: RuntimeOverhead {
                k2p_seconds: 1e-6,
                scheduling_seconds: 1e-7,
                accelerator_seconds: latency_ms * 1e-3,
            },
            end_to_end_ms: latency_ms + 1.0,
            average_utilization: 0.9,
        }
    }

    fn dummy_report() -> InferenceReport {
        InferenceReport {
            request_index: 0,
            data_movement_ms: 0.5,
            feature_movement_ms: 0.1,
            density_trace: DensityTrace {
                input_density: 0.1,
                stages: vec![],
            },
            predicted_kernel_ms: 0.0,
            runs: vec![
                dummy_run(MappingStrategy::Static1, 10.0),
                dummy_run(MappingStrategy::Dynamic, 2.0),
            ],
            output_embeddings: FeatureMatrix::Dense(DenseMatrix::zeros(1, 1)),
        }
    }

    #[test]
    fn run_lookup_and_speedup() {
        let e = dummy_report();
        assert!(e.run(MappingStrategy::Dynamic).is_some());
        assert!(e.run(MappingStrategy::Static2).is_none());
        let s = e
            .speedup(MappingStrategy::Static1, MappingStrategy::Dynamic)
            .unwrap();
        assert!((s - 5.0).abs() < 1e-12);
        assert!(e
            .speedup(MappingStrategy::Static2, MappingStrategy::Dynamic)
            .is_none());
    }

    #[test]
    fn mix_and_decision_aggregation() {
        let e = dummy_report();
        let run = e.run(MappingStrategy::Dynamic).unwrap();
        assert_eq!(run.total_decisions(), 4);
        let mix = run.total_mix();
        assert_eq!(mix.total(), 4);
        assert_eq!(mix.spdmm, 2);
    }
}
