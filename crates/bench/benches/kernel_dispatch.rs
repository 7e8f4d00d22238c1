//! Dynamic-sparsity kernel dispatch: microbenchmark sweep + end-to-end cost.
//!
//! Two measurements, each printing one JSON summary line per configuration:
//!
//! 1. **Kernel sweep** — a density × size sweep over the three host
//!    execution modes (blocked GEMM, sparse-dense CSR kernel, Gustavson
//!    sparse-sparse), reporting per-mode milliseconds and the mode the
//!    dispatch policy picks for those densities.  This is the host-side
//!    analogue of the paper's Table IV regions: as the operands sparsify,
//!    the winning kernel shifts GEMM → SpDMM → SPMM.
//!
//! 2. **End-to-end serving** — steady-state `Session::infer` ms/request on
//!    the Cora quarter-scale GCN.  (The perf ledger reports the fixed-kernel
//!    oracle beside it on its own workloads: `model.reference_forward_us`
//!    vs. `core.infer_embed_us`.)
//!
//! Run with `KERNEL_BENCH_REQUESTS=<n>` to change the end-to-end sample
//! count (CI smoke uses a small value).  Redirect stdout to record a
//! `BENCH_kernels.json` style log.

use criterion::{criterion_group, criterion_main, Criterion};
use dynasparse::{MappingStrategy, Planner};
use dynasparse_graph::Dataset;
use dynasparse_matrix::ops::{gemm_into, gemm_reference};
use dynasparse_matrix::random::random_dense;
use dynasparse_matrix::{
    CalibratedPolicy, CsrMatrix, DenseMatrix, DispatchPolicy, HostCalibration, ProductShape,
};
use dynasparse_model::{GnnModel, GnnModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn requests_per_config() -> usize {
    std::env::var("KERNEL_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
        .max(4)
}

/// Milliseconds of the fastest of `reps` runs of `f` (min filters scheduler
/// noise on shared CI hosts).
fn time_min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn kernel_sweep() {
    let policy = DispatchPolicy::from_regions(16);
    let calibrated = HostCalibration::shared().map(|c| CalibratedPolicy::new(c, policy));
    let (m, n, d) = (512usize, 512usize, 64usize);
    let mut rng = StdRng::seed_from_u64(42);
    for &(ax, ay) in &[
        (1.0f64, 1.0f64),
        (0.5, 1.0),
        (0.1, 1.0),
        (0.01, 1.0),
        (0.1, 0.1),
        (0.01, 0.01),
    ] {
        let x = random_dense(&mut rng, m, n, ax);
        let y = random_dense(&mut rng, n, d, ay);
        let xs = CsrMatrix::from_dense(&x);
        let ys = CsrMatrix::from_dense(&y);
        let mut out = DenseMatrix::zeros(m, d);

        let gemm_ms = time_min_ms(3, || gemm_into(&x, &y, &mut out).unwrap());
        let spdmm_ms = time_min_ms(3, || xs.spmm_dense_into(&y, &mut out).unwrap());
        let spmm_ms = time_min_ms(3, || {
            xs.spgemm(&ys).unwrap();
        });
        // The regions pick (accelerator oracle) and what a session actually
        // dispatches (measured host calibration, falling back to regions).
        let picked_regions = policy.decide(xs.density(), ys.density());
        let picked = calibrated
            .as_ref()
            .map(|p| p.decide(ProductShape::new(m, n, d), xs.density(), ys.density()))
            .unwrap_or(picked_regions);
        // Sanity: every mode computes the same product.
        let want = gemm_reference(&x, &y).unwrap();
        xs.spmm_dense_into(&y, &mut out).unwrap();
        assert!(out.approx_eq(&want, 1e-3));
        assert!(xs.spgemm(&ys).unwrap().to_dense().approx_eq(&want, 1e-3));

        println!(
            "{{\"bench\":\"kernel_dispatch\",\"m\":{m},\"n\":{n},\"d\":{d},\
             \"alpha_x\":{ax},\"alpha_y\":{ay},\"gemm_ms\":{gemm_ms:.3},\
             \"spdmm_ms\":{spdmm_ms:.3},\"spmm_ms\":{spmm_ms:.3},\
             \"picked\":\"{}\",\"picked_regions\":\"{}\"}}",
            picked.label(),
            picked_regions.label()
        );
    }
}

/// Steady-state ms/request of `Session::infer` on the Cora quarter-scale
/// GCN: the minimum over `ROUNDS` passes, the estimate least distorted by
/// scheduler noise on shared or single-core hosts.
fn quarter_cora_infer_ms() -> f64 {
    const ROUNDS: usize = 3;
    let dataset = Dataset::Cora.spec().generate_scaled(3, 0.25);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        1,
    );
    let requests = requests_per_config();
    let plan = Planner::default().plan(&model, &dataset).unwrap();
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    // Warm-up: size the arena / caches, then measure steady state.
    for _ in 0..2 {
        session.infer(&dataset.features).unwrap();
    }
    let ms = time_min_ms(ROUNDS, || {
        for _ in 0..requests {
            session.infer(&dataset.features).unwrap();
        }
    }) / requests as f64;
    println!(
        "{{\"bench\":\"kernel_dispatch_infer\",\"workload\":\"cora_quarter_gcn\",\
         \"requests\":{requests},\"ms_per_request\":{ms:.4}}}"
    );
    ms
}

fn bench_kernel_dispatch(c: &mut Criterion) {
    kernel_sweep();

    let mut group = c.benchmark_group("kernel_dispatch");
    group.sample_size(2);
    group.bench_function("infer_dispatch", |b| b.iter(quarter_cora_infer_ms));
    group.finish();
}

criterion_group!(benches, bench_kernel_dispatch);
criterion_main!(benches);
