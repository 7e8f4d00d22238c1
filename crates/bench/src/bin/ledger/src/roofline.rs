//! This machine's roof: single-thread FMA peak and STREAM-triad bandwidth.
//!
//! Both are measured once per traced run, in the same process as the kernel
//! probes, so a primitive's throughput is stated against what this box can
//! do right now rather than against the repository's previous code.  Both
//! are single-thread numbers, like the kernel probes they bound.

use std::hint::black_box;
use std::time::Instant;

/// The two measured ceilings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Peak single-precision fused-multiply-add rate, GFLOP/s.
    pub fma_gflops: f64,
    /// Sustained `a[i] = b[i] + s·c[i]` bandwidth, GB/s.
    pub triad_gbs: f64,
}

impl Machine {
    /// The attainable GFLOP/s of an operation doing `flops` floating-point
    /// operations over `bytes` bytes of traffic: the lower of the compute
    /// roof and bandwidth × arithmetic intensity.
    pub fn roof_gflops(&self, flops: f64, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return self.fma_gflops;
        }
        self.fma_gflops.min(self.triad_gbs * flops / bytes)
    }

    /// Achieved ÷ attainable for an operation that took `seconds`.
    pub fn roof_fraction(&self, flops: f64, bytes: f64, seconds: f64) -> f64 {
        let roof = self.roof_gflops(flops, bytes);
        if roof <= 0.0 || seconds <= 0.0 {
            return 0.0;
        }
        gflops(flops, seconds) / roof
    }
}

/// `flops` operations in `seconds`, as GFLOP/s.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        flops / seconds / 1e9
    }
}

/// Measures both ceilings; `budget_ms` bounds each measurement's length.
pub fn measure(budget_ms: u64) -> Machine {
    Machine {
        fma_gflops: measure_fma(budget_ms),
        triad_gbs: measure_triad(budget_ms),
    }
}

/// Independent multiply-add chains per round: enough to hide the FMA latency
/// on two issue ports, few enough to stay in registers.
const ACCUMULATORS: usize = 10;
/// Single-precision lanes of a 256-bit register.
const LANES: usize = 8;

/// `iters` rounds of `acc = acc * a + b` over every accumulator, as 256-bit
/// fused multiply-adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
        _mm256_set1_ps, _mm_add_ps, _mm_cvtss_f32, _mm_hadd_ps,
    };
    let a = _mm256_set1_ps(black_box(0.999_99f32));
    let b = _mm256_set1_ps(black_box(1e-5f32));
    let mut acc = [_mm256_set1_ps(1.0); ACCUMULATORS];
    for (k, v) in acc.iter_mut().enumerate() {
        *v = _mm256_set1_ps(1.0 + k as f32 * 1e-3);
    }
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut total = acc[0];
    for v in &acc[1..] {
        total = _mm256_add_ps(total, *v);
    }
    let halves = _mm_add_ps(
        _mm256_castps256_ps128(total),
        _mm256_extractf128_ps::<1>(total),
    );
    let pairs = _mm_hadd_ps(halves, halves);
    _mm_cvtss_f32(_mm_hadd_ps(pairs, pairs))
}

/// The same chains as separate multiplies and adds on plain arrays: what a
/// CPU without FMA (or a non-x86 host) can issue.
fn fma_chains_portable(iters: u64) -> f32 {
    let mut acc = [[0.0f32; LANES]; ACCUMULATORS];
    for (k, lanes) in acc.iter_mut().enumerate() {
        *lanes = [1.0 + k as f32 * 1e-3; LANES];
    }
    let a = black_box(0.999_99f32);
    let b = black_box(1e-5f32);
    for _ in 0..iters {
        for lanes in acc.iter_mut() {
            for v in lanes.iter_mut() {
                *v = *v * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

fn run_fma_chains(iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: `fma_chains_avx2` only requires the `avx2` and `fma` CPU
        // features, and both were detected on this CPU just above.
        return unsafe { fma_chains_avx2(iters) };
    }
    fma_chains_portable(iters)
}

fn measure_fma(budget_ms: u64) -> f64 {
    let flops_per_iter = (ACCUMULATORS * LANES * 2) as f64;
    let mut iters = 1u64 << 16;
    let mut best = 0.0f64;
    let started = Instant::now();
    // Grow the batch until one batch is long enough to time, then keep the
    // best of the batches that fit in the budget.
    loop {
        let t = Instant::now();
        black_box(run_fma_chains(black_box(iters)));
        let s = t.elapsed().as_secs_f64();
        if s < 2e-3 {
            iters *= 2;
            continue;
        }
        best = best.max(gflops(flops_per_iter * iters as f64, s));
        if started.elapsed().as_millis() as u64 >= budget_ms {
            return best;
        }
    }
}

fn measure_triad(budget_ms: u64) -> f64 {
    // 3 x 16 MiB: well past the last-level cache of the boxes this runs on.
    const N: usize = 4 << 20;
    let mut a = vec![0.0f32; N];
    let b = vec![1.5f32; N];
    let c = vec![2.5f32; N];
    let s = black_box(3.0f32);
    let bytes = (3 * N * std::mem::size_of::<f32>()) as f64;
    let mut best = 0.0f64;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        let secs = t.elapsed().as_secs_f64();
        if secs > 0.0 {
            best = best.max(bytes / secs / 1e9);
        }
        if started.elapsed().as_millis() as u64 >= budget_ms {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roof_is_the_lower_of_compute_and_bandwidth() {
        let m = Machine {
            fma_gflops: 50.0,
            triad_gbs: 10.0,
        };
        // 0.25 flop/byte: bandwidth-bound at 2.5 GFLOP/s.
        assert_eq!(m.roof_gflops(1e9, 4e9), 2.5);
        // 100 flop/byte: compute-bound.
        assert_eq!(m.roof_gflops(100e9, 1e9), 50.0);
        assert_eq!(m.roof_gflops(1e9, 0.0), 50.0);
        // 1 GFLOP in 0.8 s = 1.25 GFLOP/s against a 2.5 roof.
        assert!((m.roof_fraction(1e9, 4e9, 0.8) - 0.5).abs() < 1e-12);
        assert_eq!(m.roof_fraction(1e9, 4e9, 0.0), 0.0);
        assert_eq!(gflops(2e9, 0.5), 4.0);
    }

    #[test]
    fn measured_ceilings_are_positive_and_finite() {
        let m = measure(5);
        assert!(m.fma_gflops.is_finite() && m.fma_gflops > 0.0);
        assert!(m.triad_gbs.is_finite() && m.triad_gbs > 0.0);
    }

    #[test]
    fn fused_and_portable_chains_agree() {
        let fused = run_fma_chains(1000);
        let plain = fma_chains_portable(1000);
        assert!((fused - plain).abs() / plain.abs() < 1e-3);
    }
}
