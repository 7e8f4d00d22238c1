//! Calibration smoke: the calibrated dispatch policy against ground truth.
//!
//! Measures the four host kernels over the fixed-seed density × shape grid
//! of the kernel sweep, asks the process-shared [`HostCalibration`] for its
//! pick at every point — the policy's decision, or the right-sparse SpDMM
//! where the executor runs it (Table IV's SpDMM region with the right
//! operand the sparser one) — and **fails if the pick is ≥ 2x slower than
//! the measured best** anywhere on the grid.  At the recorded-mispick point
//! (α = 0.1 × 0.1, 512 × 512 × 64) the pick must be SpDMM outright — the
//! acceptance criterion of the cost-model fix.
//!
//! Every grid point prints one JSON line and the whole log is also written
//! to `BENCH_dispatch_calibrated.json` at the workspace root, so CI (and
//! the repo) record the measured picks.

use criterion::{criterion_group, criterion_main, Criterion};
use dynasparse_matrix::{
    CalibratedPolicy, CalibrationConfig, DispatchPolicy, HostCalibration, HostPrimitive,
    ProductShape,
};

fn calibration_smoke() {
    let calibration = match HostCalibration::shared() {
        Some(c) => c,
        None => {
            println!("DYNASPARSE_CALIBRATION=off: calibration smoke skipped");
            return;
        }
    };
    let regions = DispatchPolicy::from_regions(16);
    let policy = CalibratedPolicy::new(calibration.clone(), regions);
    // Ground truth measured by the calibration's own grid walk, at the
    // kernel-sweep shape and density pairs (same fixed seed as the sweep).
    let config = CalibrationConfig {
        shapes: vec![(512, 512, 64)],
        densities: vec![
            (1.0, 1.0),
            (0.5, 1.0),
            (0.1, 1.0),
            (0.01, 1.0),
            (0.1, 0.1),
            (0.01, 0.01),
            // Pruned-weight updates: the right operand is the sparser one.
            (1.0, 0.1),
            (0.5, 0.1),
        ],
        reps: 3,
        seed: 42,
    };
    let mut log = String::new();
    log.push_str(&format!(
        "{{\"bench\":\"dispatch_calibrated\",\"samples\":{},\"measure_ms\":{:.3}}}\n",
        calibration.samples, calibration.measure_ms
    ));
    for (sample, &(ax, ay)) in HostCalibration::measure_grid(&config)
        .iter()
        .zip(&config.densities)
    {
        let (m, n, d) = (sample.m, sample.n, sample.d);
        // The executor's Update arm over a dense-stored left operand: in
        // Table IV's SpDMM region, SpDMM runs by the right operand when that
        // is the sparser one.  Everything else is the policy's decision.
        let picked = if regions.decide(sample.alpha_x, sample.alpha_y) == HostPrimitive::SpDmm
            && sample.alpha_y < sample.alpha_x
        {
            HostPrimitive::SpDmmRight
        } else {
            policy.decide(ProductShape::new(m, n, d), sample.alpha_x, sample.alpha_y)
        };
        let measured = [
            sample.gemm_ms,
            sample.spdmm_ms,
            sample.spdmm_right_ms,
            sample.spmm_ms,
        ];
        let best = measured.iter().cloned().fold(f64::INFINITY, f64::min);
        let pick_ms = match picked {
            HostPrimitive::Gemm => sample.gemm_ms,
            HostPrimitive::SpDmm => sample.spdmm_ms,
            HostPrimitive::SpDmmRight => sample.spdmm_right_ms,
            HostPrimitive::Spmm => sample.spmm_ms,
            HostPrimitive::Skip => unreachable!("non-empty grid operands"),
        };
        let line = format!(
            "{{\"bench\":\"dispatch_calibrated\",\"m\":{m},\"n\":{n},\"d\":{d},\
             \"alpha_x\":{ax},\"alpha_y\":{ay},\"gemm_ms\":{:.3},\
             \"spdmm_ms\":{:.3},\"spdmm_right_ms\":{:.3},\"spmm_ms\":{:.3},\
             \"picked\":\"{}\",\"picked_ms\":{pick_ms:.3},\"best_ms\":{best:.3}}}",
            sample.gemm_ms,
            sample.spdmm_ms,
            sample.spdmm_right_ms,
            sample.spmm_ms,
            picked.label()
        );
        println!("{line}");
        log.push_str(&line);
        log.push('\n');
        assert!(
            pick_ms <= 2.0 * best,
            "calibrated policy picked {} ({pick_ms:.3} ms) at alpha {ax} x {ay} \
             but the measured best is {best:.3} ms \
             (gemm/spdmm/spdmm-right/spmm = {measured:?})",
            picked.label()
        );
        if (ax, ay) == (0.1, 0.1) {
            // The recorded mispick the calibrated model exists to fix.
            assert_eq!(
                picked,
                HostPrimitive::SpDmm,
                "alpha 0.1 x 0.1 at {m}x{n}x{d} must dispatch SpDMM \
                 (regions picked SPMM: the BENCH_kernels.json mispick)"
            );
        }
    }
    // Record at the workspace root, beside BENCH_kernels.json (cargo bench
    // runs with the package directory as cwd).
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_dispatch_calibrated.json"
    );
    if let Err(e) = std::fs::write(path, &log) {
        eprintln!("could not record {path}: {e}");
    }
}

fn bench_dispatch_calibration(c: &mut Criterion) {
    calibration_smoke();
    // A criterion-visible number for the one-time calibration pass itself.
    let mut group = c.benchmark_group("dispatch_calibration");
    group.sample_size(2);
    group.bench_function("measure_grid", |b| {
        b.iter(|| {
            HostCalibration::measure(&dynasparse_matrix::CalibrationConfig::default()).samples
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch_calibration);
criterion_main!(benches);
