//! Property-based tests of the matrix substrate: format conversions, layout
//! transformations, block partitioning and the three primitive kernels must
//! preserve the mathematical content for arbitrary inputs.

use dynasparse_matrix::format::{dense_to_coo, FormatTransformConfig};
use dynasparse_matrix::ops::{
    gemm_into, gemm_reference, gemm_rows_into, spdmm_reference, spmm_reference,
};
use dynasparse_matrix::{
    row_blocks, BlockGrid, CooMatrix, CsrMatrix, DenseMatrix, DensityProfile, Layout, ThreadPool,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A shared multi-threaded pool so the pooled kernel routes are exercised
/// even on single-core hosts.
fn test_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(3))
}

/// Strategy: a random dense matrix with the given maximum dimensions and a
/// random per-element zero probability (so we cover very sparse and very
/// dense cases).
fn dense_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols, 0.0f64..=1.0).prop_flat_map(|(rows, cols, density)| {
        proptest::collection::vec(
            prop_oneof![
                3 => Just(0.0f32),
                2 => (-5.0f32..5.0).prop_filter("non-zero", move |v| *v != 0.0),
            ]
            .prop_map(move |v| if density < 0.05 { 0.0 } else { v }),
            rows * cols,
        )
        .prop_map(move |data| DenseMatrix::from_row_major(rows, cols, data).unwrap())
    })
}

/// Strategy: the left operand of the GEMM row-kernel property — `rows × n`
/// at one of the kernel's regime densities, its stored values drawn from
/// ordinary numbers and the hostile ones a zero-skip can get wrong (`-0.0`
/// must be skipped, a denormal must not; `±Inf` and `NaN` must multiply
/// through, and `NaN` must not be counted as a non-zero).
fn hostile_operand() -> impl Strategy<Value = DenseMatrix> {
    let density = prop_oneof![Just(0.0f64), Just(1e-3), Just(0.5), Just(1.0)];
    let n = prop_oneof![Just(1usize), Just(15), Just(16), Just(17), Just(1433)];
    (1usize..=5, n, density).prop_flat_map(|(rows, n, density)| {
        let value = prop_oneof![
            12 => -5.0f32..5.0,
            1 => Just(-0.0f32),
            1 => Just(1.0e-40f32),
            1 => Just(f32::INFINITY),
            1 => Just(f32::NEG_INFINITY),
            1 => Just(f32::NAN),
        ];
        proptest::collection::vec((0.0f64..1.0, value), rows * n).prop_map(move |cells| {
            let data = cells
                .into_iter()
                .map(|(coin, v)| if coin < density { v } else { 0.0 })
                .collect();
            DenseMatrix::from_row_major(rows, n, data).unwrap()
        })
    })
}

/// Bit equality, with every `NaN` equal to every other (which operand's
/// payload a `NaN` sum keeps is the code generator's choice, not ours).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gemm_row_kernel_matches_the_oracle_and_profiles_as_it_goes(
        x in hostile_operand(),
        d in prop_oneof![Just(1usize), Just(7), Just(16), Just(33), Just(64)],
        block_rows in 1usize..=5,
        block_cols in prop_oneof![Just(1usize), Just(4), Just(16), Just(24), Just(2000)],
        y_seed in -2.0f32..2.0,
    ) {
        let (m, n) = x.shape();
        let y = DenseMatrix::from_fn(n, d, |r, c| y_seed + ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let want = gemm_reference(&x, &y).unwrap();

        // Any row partition, block widths that do and do not divide `n`:
        // the output is the oracle's, bit for bit, and the counter rows the
        // kernel filled on the way are the stand-alone refit's.
        let mut out = vec![f32::NAN; m * d];
        let mut profile = DensityProfile::default();
        let counts = profile.refit_tiled((m, n), (block_rows, block_cols));
        for ((r0, r1), row) in row_blocks(m, block_rows).zip(counts) {
            gemm_rows_into(&x, &y, r0, &mut out[r0 * d..r1 * d], block_cols, row).unwrap();
        }
        prop_assert!(same_bits(&out, want.as_slice()), "blocked rows differ from the oracle");
        let grid = BlockGrid::new(m, n, block_rows, block_cols);
        let mut refit = DensityProfile::default();
        refit.refit_dense(&x, &grid);
        prop_assert_eq!(&profile, &refit);
        prop_assert_eq!(profile.total_nnz(), x.nnz());

        // The whole-kernel entry point runs the same row kernel unprofiled.
        let mut whole = DenseMatrix::zeros(0, 0);
        gemm_into(&x, &y, &mut whole).unwrap();
        prop_assert!(same_bits(whole.as_slice(), want.as_slice()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_dense_round_trip(m in dense_matrix(20, 20)) {
        let coo = CooMatrix::from_dense(&m);
        prop_assert_eq!(coo.nnz(), m.nnz());
        prop_assert!(coo.to_dense().approx_eq(&m, 0.0));
        prop_assert!(coo.is_sorted());
    }

    #[test]
    fn csr_dense_round_trip(m in dense_matrix(20, 20)) {
        let csr = CsrMatrix::from_dense(&m);
        prop_assert_eq!(csr.nnz(), m.nnz());
        prop_assert!(csr.to_dense().approx_eq(&m, 0.0));
    }

    #[test]
    fn layout_transform_is_lossless(m in dense_matrix(16, 24)) {
        let col = m.to_layout(Layout::ColMajor);
        prop_assert_eq!(col.nnz(), m.nnz());
        prop_assert!(col.to_layout(Layout::RowMajor).approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_is_involutive(m in dense_matrix(16, 16)) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn d2s_hardware_compaction_matches_software_conversion(m in dense_matrix(12, 40)) {
        let hw = dense_to_coo(&m, FormatTransformConfig::default());
        let sw = CooMatrix::from_dense(&m);
        prop_assert_eq!(hw.entries(), sw.entries());
    }

    #[test]
    fn density_profile_blocks_sum_to_total_nnz(
        m in dense_matrix(24, 24),
        block in 1usize..=8,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block, block);
        let p = DensityProfile::of_dense(&m, &grid);
        prop_assert_eq!(p.total_nnz(), m.nnz());
        prop_assert!(p.overall_density() >= 0.0 && p.overall_density() <= 1.0);
        prop_assert!(p.max_block_density() <= 1.0 + 1e-12);
    }

    #[test]
    fn all_primitives_agree_with_gemm(
        x in dense_matrix(12, 10),
        y in dense_matrix(10, 8),
    ) {
        // Force compatible inner dimensions by truncating/padding y.
        let y = y.submatrix_padded(0, x.cols(), 0, y.cols());
        let want = gemm_reference(&x, &y).unwrap();
        let spdmm = spdmm_reference(&CooMatrix::from_dense(&x), &y).unwrap();
        let spmm = spmm_reference(&CooMatrix::from_dense(&x), &CooMatrix::from_dense(&y)).unwrap();
        prop_assert!(spdmm.approx_eq(&want, 1e-3));
        prop_assert!(spmm.approx_eq(&want, 1e-3));
    }

    #[test]
    fn csr_spmm_dense_matches_gemm(
        x in dense_matrix(12, 10),
        y in dense_matrix(10, 6),
    ) {
        let y = y.submatrix_padded(0, x.cols(), 0, y.cols());
        let want = gemm_reference(&x, &y).unwrap();
        let got = CsrMatrix::from_dense(&x).spmm_dense(&y).unwrap();
        prop_assert!(got.approx_eq(&want, 1e-3));
    }

    #[test]
    fn all_dispatch_routes_agree_with_gemm_reference(
        x in dense_matrix(14, 11),
        y in dense_matrix(11, 9),
    ) {
        // Random (m, n, d, alpha_x, alpha_y): the dense-matrix strategy
        // already randomises shapes and densities (including empty
        // operands). Force compatible inner dimensions, then check every
        // host dispatch route — dense, sparse-dense, sparse-sparse, whole and
        // as the executor's row-block kernels — against the reference GEMM.
        let y = y.submatrix_padded(0, x.cols(), 0, y.cols());
        let want = gemm_reference(&x, &y).unwrap();
        let xs = CsrMatrix::from_dense(&x);
        let ys = CsrMatrix::from_dense(&y);
        let pool = test_pool();

        // Dense route (zero-skipping GEMM).
        let mut out = DenseMatrix::zeros(0, 0);
        gemm_into(&x, &y, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-4));

        // Sparse-dense route (host SpDMM).
        xs.spmm_dense_into(&y, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-4));

        // Sparse-sparse route (Gustavson SPMM), serial + pooled.
        prop_assert!(xs.spgemm(&ys).unwrap().to_dense().approx_eq(&want, 1e-4));
        prop_assert!(xs.spgemm_pooled(pool, &ys).unwrap().to_dense().approx_eq(&want, 1e-4));

        // The CSR-left routes as the executor's row-block kernels, over a
        // row partition that does not divide `m`: bit for bit the
        // whole-kernel products (the GEMM row kernel has its own property
        // above).
        let (m, d) = (x.rows(), y.cols());
        let spgemm = xs.spgemm(&ys).unwrap().to_dense();
        let (mut spdmm_rows, mut spgemm_rows) = (vec![f32::NAN; m * d], vec![f32::NAN; m * d]);
        for (r0, r1) in row_blocks(m, 5) {
            xs.spmm_dense_rows_into(&y, r0, &mut spdmm_rows[r0 * d..r1 * d]).unwrap();
            xs.spgemm_rows_dense_into(&ys, r0, &mut spgemm_rows[r0 * d..r1 * d]).unwrap();
        }
        prop_assert!(same_bits(&spdmm_rows, out.as_slice()), "SpDMM row blocks");
        prop_assert!(same_bits(&spgemm_rows, spgemm.as_slice()), "Gustavson row blocks");
    }

    #[test]
    fn refit_profiles_match_allocating_profiles(
        m in dense_matrix(24, 24),
        block_rows in 1usize..=8,
        block_cols in 1usize..=8,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block_rows, block_cols);
        let mut scratch = DensityProfile::default();
        scratch.refit_dense(&m, &grid);
        prop_assert_eq!(&scratch, &DensityProfile::of_dense(&m, &grid));
        let csr = CsrMatrix::from_dense(&m);
        scratch.refit_csr(&csr, &grid);
        prop_assert_eq!(&scratch, &DensityProfile::of_csr(&csr, &grid));
    }

    #[test]
    fn block_extraction_tiles_reassemble_the_matrix(
        m in dense_matrix(20, 20),
        block in 1usize..=7,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block, block);
        let coo = CooMatrix::from_dense(&m);
        let mut total = 0usize;
        for b in grid.blocks() {
            let sub = coo.submatrix_padded(b.row_start, b.row_end, b.col_start, b.col_end);
            total += sub.nnz();
        }
        prop_assert_eq!(total, m.nnz());
    }
}

/// The calibrated argmin and the Table IV regions describe different cost
/// surfaces, but they must agree at the extremes: a dense-dense product is
/// GEMM under both, and an empty (or degenerate-NaN) operand is Skip under
/// both.  Uses the deterministic reference fit so the property holds on any
/// machine.
mod cost_model_extremes {
    use super::*;
    use dynasparse_matrix::{
        CalibratedPolicy, CostModel, DispatchPolicy, HostCalibration, HostPrimitive, ProductShape,
        RegionPolicy,
    };
    use std::sync::Arc;

    fn policies() -> (CalibratedPolicy, RegionPolicy) {
        let regions = DispatchPolicy::from_regions(16);
        (
            CalibratedPolicy::new(Arc::new(HostCalibration::reference()), regions),
            RegionPolicy::new(regions),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn gemm_extreme_agrees(
            m in 1usize..=2048,
            n in 1usize..=2048,
            d in 1usize..=512,
            ax in 0.5f64..=1.0,
            ay in 0.5f64..=1.0,
        ) {
            let (calibrated, regions) = policies();
            let shape = ProductShape::new(m, n, d);
            prop_assert_eq!(regions.decide(shape, ax, ay), HostPrimitive::Gemm);
            prop_assert_eq!(calibrated.decide(shape, ax, ay), HostPrimitive::Gemm);
        }

        #[test]
        fn skip_extreme_agrees(
            m in 0usize..=2048,
            n in 0usize..=2048,
            d in 0usize..=512,
            alive in 0.0f64..=1.0,
            zero_side in 0usize..=1,
            not_a_number in 0usize..=1,
        ) {
            let (calibrated, regions) = policies();
            let shape = ProductShape::new(m, n, d);
            let dead = if not_a_number == 1 { f64::NAN } else { 0.0 };
            let (ax, ay) = if zero_side == 1 { (dead, alive) } else { (alive, dead) };
            prop_assert_eq!(regions.decide(shape, ax, ay), HostPrimitive::Skip);
            prop_assert_eq!(calibrated.decide(shape, ax, ay), HostPrimitive::Skip);
        }
    }
}
