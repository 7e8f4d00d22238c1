//! Property-based tests of the matrix substrate: format conversions, layout
//! transformations, block partitioning and the three primitive kernels must
//! preserve the mathematical content for arbitrary inputs.

use dynasparse_matrix::format::{dense_to_coo, FormatTransformConfig};
use dynasparse_matrix::ops::{
    gemm_into, gemm_reference, gemm_rows_into, right_sparse_rows_into, spdmm_reference,
    spmm_reference,
};
use dynasparse_matrix::{
    is_nonzero, row_blocks, BlockGrid, CooMatrix, CsrMatrix, DenseMatrix, DensityProfile, Layout,
    MatrixError,
};
use proptest::prelude::*;

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

/// Row widths around the scan's 16-lane group, and past its 2048-column
/// live-group list: one lane into a second list, and two full lists, a group
/// and a lane.
fn scan_widths() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(15),
        Just(16),
        Just(17),
        Just(1433),
        Just(2049),
        Just(4113)
    ]
}

/// Block-column widths that do and do not divide the rows, narrower than a
/// lane group, one or several groups wide, and straddling group and list
/// boundaries (an odd width puts a boundary at every lane of some group).
fn block_widths() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(4),
        Just(16),
        Just(17),
        Just(24),
        Just(32),
        Just(48),
        Just(2000)
    ]
}

/// The profile of `x` on a `block_rows × block_cols` tiling, counted one
/// element at a time: the oracle of the scanned profiles, sharing no code
/// with the scan.
fn profile_oracle(x: &DenseMatrix, (block_rows, block_cols): (usize, usize)) -> DensityProfile {
    let (m, n) = x.shape();
    let grid = BlockGrid::new(m, n, block_rows, block_cols);
    let mut counts = vec![0usize; grid.grid_rows() * grid.grid_cols()];
    for r in 0..m {
        for c in 0..n {
            counts[r / block_rows * grid.grid_cols() + c / block_cols] +=
                usize::from(is_nonzero(x.get(r, c)));
        }
    }
    DensityProfile::from_block_nnz(m, n, &grid, counts)
}

/// Strategy: the left operand of the GEMM row-kernel property — `rows × n`
/// at one of the kernel's regime densities, its stored values drawn from
/// ordinary numbers and the hostile ones a zero-skip can get wrong (`-0.0`
/// must be skipped, a denormal must not; `±Inf` and `NaN` must multiply
/// through, and `NaN` must not be counted as a non-zero).
fn hostile_operand() -> impl Strategy<Value = DenseMatrix> {
    let density = prop_oneof![Just(0.0f64), Just(1e-3), Just(0.5), Just(1.0)];
    let n = scan_widths();
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
        block_cols in block_widths(),
        y_seed in -2.0f32..2.0,
    ) {
        let (m, n) = x.shape();
        let y = DenseMatrix::from_fn(n, d, |r, c| y_seed + ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let want = gemm_reference(&x, &y).unwrap();

        // Any row partition, block widths that do and do not divide `n`:
        // the output is the oracle's, bit for bit, and the counter rows the
        // kernel filled on the way hold the per-element count.
        let mut out = vec![f32::NAN; m * d];
        let mut profile = DensityProfile::default();
        let counts = profile.refit_tiled((m, n), (block_rows, block_cols));
        for ((r0, r1), row) in row_blocks(m, block_rows).zip(counts) {
            gemm_rows_into(&x, &y, r0, &mut out[r0 * d..r1 * d], block_cols, row).unwrap();
        }
        prop_assert!(same_bits(&out, want.as_slice()), "blocked rows differ from the oracle");
        let oracle = profile_oracle(&x, (block_rows, block_cols));
        prop_assert_eq!(&profile, &oracle);

        // The stand-alone refit runs the same scan, row-major or through the
        // column-major element walk.
        let grid = BlockGrid::new(m, n, block_rows, block_cols);
        let mut refit = DensityProfile::default();
        refit.refit_dense(&x, &grid);
        prop_assert_eq!(&refit, &oracle);
        refit.refit_dense(&x.to_layout(Layout::ColMajor), &grid);
        prop_assert_eq!(&refit, &oracle);

        // The whole-kernel entry point runs the same row kernel unprofiled.
        let mut whole = DenseMatrix::zeros(0, 0);
        gemm_into(&x, &y, &mut whole).unwrap();
        prop_assert!(same_bits(whole.as_slice(), want.as_slice()));
    }

    #[test]
    fn spdmm_gather_matches_the_oracle_over_every_tile_width(
        x in hostile_operand(),
        d in prop_oneof![Just(1usize), Just(7), Just(16), Just(33), Just(64), Just(100)],
        block_rows in 1usize..=5,
        y_seed in -2.0f32..2.0,
        poison in proptest::collection::vec((0usize..1 << 20, prop_oneof![
            Just(f32::INFINITY), Just(f32::NEG_INFINITY), Just(f32::NAN),
        ]), 0..4),
    ) {
        // The CSR × dense gather streams each CSR row through the GEMM row
        // kernel's tile ladder: over every tile width (`d` from 1 to three
        // 32-wide tiles and a 4), any row partition and non-finite values on
        // either side, it is the oracle bit for bit.
        let (m, n) = x.shape();
        let mut y = DenseMatrix::from_fn(n, d, |r, c| y_seed + ((r * 31 + c * 17) % 13) as f32 - 6.0);
        for &(at, v) in &poison {
            y.set(at % n, at / n % d, v);
        }
        let want = gemm_reference(&x, &y).unwrap();
        let xs = stored_csr(&x);
        let mut out = vec![f32::NAN; m * d];
        for (r0, r1) in row_blocks(m, block_rows) {
            xs.spmm_dense_rows_into(&y, r0, &mut out[r0 * d..r1 * d], 1, &mut []).unwrap();
        }
        prop_assert!(same_bits(&out, want.as_slice()), "blocked rows differ from the oracle");

        // The whole-kernel entry point overwrites a reused buffer with the
        // same rows.
        let mut whole = DenseMatrix::from_fn(m, d, |_, _| f32::NAN);
        xs.spmm_dense_into(&y, &mut whole).unwrap();
        prop_assert!(same_bits(whole.as_slice(), want.as_slice()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_from_dense_stores_exactly_the_counted_elements(x in hostile_operand()) {
        // The scan's compaction against an element walk: every `is_nonzero`
        // element, in row-major order — `±0.0` and `NaN` are not stored.
        let (m, n) = x.shape();
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..m {
            for c in 0..n {
                let v = x.get(r, c);
                if is_nonzero(v) {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let csr = CsrMatrix::from_dense(&x);
        prop_assert_eq!(csr, CsrMatrix::from_parts(m, n, row_ptr, col_idx, values));
    }

    #[test]
    fn csr_refit_counts_what_the_coo_profile_counts(
        x in hostile_operand(),
        block_rows in 1usize..=5,
        block_cols in block_widths(),
    ) {
        // `refit_csr` places each stored column without a divide; the COO
        // profile asks every block for its entries.
        let (m, n) = x.shape();
        let grid = BlockGrid::new(m, n, block_rows, block_cols);
        let mut refit = DensityProfile::default();
        refit.refit_csr(&CsrMatrix::from_dense(&x), &grid);
        prop_assert_eq!(&refit, &DensityProfile::of_coo(&CooMatrix::from_dense(&x), &grid));
        prop_assert_eq!(&refit, &profile_oracle(&x, (block_rows, block_cols)));
    }
}

/// The CSR of `x` as the oracle reads it: every element with `v != 0.0`,
/// `NaN` included (which [`CsrMatrix::from_dense`] does not store).
fn stored_csr(x: &DenseMatrix) -> CsrMatrix {
    let (m, n) = x.shape();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for r in 0..m {
        for (k, &v) in x.row_slice(r).unwrap().iter().enumerate() {
            if v != 0.0 {
                col_idx.push(k as u32);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(m, n, row_ptr, col_idx, values)
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
        prop_assert!(same_bits(got.as_slice(), want.as_slice()));
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

        // Dense route (zero-skipping GEMM).
        let mut out = DenseMatrix::zeros(0, 0);
        gemm_into(&x, &y, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-4));

        // Sparse-dense route (host SpDMM): the oracle bit for bit.
        xs.spmm_dense_into(&y, &mut out).unwrap();
        prop_assert!(same_bits(out.as_slice(), want.as_slice()));

        // Sparse-sparse route (Gustavson SPMM).
        prop_assert!(xs.spgemm(&ys).unwrap().to_dense().approx_eq(&want, 1e-4));

        // The CSR-left routes as the executor's row-block kernels, over a
        // row partition that does not divide `m`: bit for bit the
        // whole-kernel products (the GEMM row kernel has its own property
        // above).
        let (m, d) = (x.rows(), y.cols());
        let spgemm = xs.spgemm(&ys).unwrap().to_dense();
        let (mut spdmm_rows, mut spgemm_rows) = (vec![f32::NAN; m * d], vec![f32::NAN; m * d]);
        for (r0, r1) in row_blocks(m, 5) {
            xs.spmm_dense_rows_into(&y, r0, &mut spdmm_rows[r0 * d..r1 * d], 1, &mut [])
                .unwrap();
            xs.spgemm_rows_dense_into(&ys, r0, &mut spgemm_rows[r0 * d..r1 * d], 1, &mut [])
                .unwrap();
        }
        prop_assert!(same_bits(&spdmm_rows, out.as_slice()), "SpDMM row blocks");
        prop_assert!(same_bits(&spgemm_rows, spgemm.as_slice()), "Gustavson row blocks");

        // The dense-left route by the right operand's non-zeros, over the
        // same row partition: the oracle itself, bit for bit (it has its own
        // property below).
        let yt = ys.transpose();
        let mut right_rows = vec![f32::NAN; m * d];
        for (r0, r1) in row_blocks(m, 5) {
            right_sparse_rows_into(&x, &yt, r0, &mut right_rows[r0 * d..r1 * d], 0, &mut [])
                .unwrap();
        }
        prop_assert!(same_bits(&right_rows, want.as_slice()), "right-sparse row blocks");
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
/// the regions' GEMM, which a CSR left operand runs as SpDMM, the fit's pick
/// there; and an empty (or degenerate-NaN) operand is Skip under both.  Uses
/// the deterministic reference fit so the property holds on any machine.
mod cost_model_extremes {
    use super::*;
    use dynasparse_matrix::{DispatchPolicy, HostCalibration, HostPrimitive, ProductShape};

    fn policies() -> (HostCalibration, DispatchPolicy) {
        (
            HostCalibration::reference(),
            DispatchPolicy::from_regions(16),
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
            prop_assert_eq!(regions.decide(ax, ay), HostPrimitive::Gemm);
            prop_assert_eq!(calibrated.cheapest(shape, ax, ay), HostPrimitive::SpDmm);
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
            prop_assert_eq!(regions.decide(ax, ay), HostPrimitive::Skip);
            prop_assert_eq!(calibrated.cheapest(shape, ax, ay), HostPrimitive::Skip);
        }
    }
}

/// One stored feature of the right-sparse property: ordinary numbers and the
/// finite ones a zero-skip can get wrong (`-0.0` is a zero on either side, a
/// denormal is not).
fn finite_hostile_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        12 => -5.0f32..5.0,
        1 => Just(-0.0f32),
        1 => Just(1.0e-40f32),
        1 => Just(-1.0e-40f32),
    ]
}

/// One stored weight: the same, and now and then `±Inf`, which must not meet
/// a zero feature (the oracle skips those).
fn hostile_weight() -> impl Strategy<Value = f32> {
    prop_oneof![
        14 => finite_hostile_value(),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
    ]
}

/// Strategy: `(x, w, r0, block_rows)` for the right-sparse kernel property.
/// `x` has `r0` rows the kernel must not read followed by one full row block
/// and a ragged one, `block_rows` sits around the kernel's 16-row tile, the
/// widths around its 256-column chunk and its 4 × 4 transposition, the
/// densities are the kernel's regimes, and about a fifth of the weight's
/// rows and columns are all zero.
fn right_sparse_case() -> impl Strategy<Value = (DenseMatrix, DenseMatrix, usize, usize)> {
    let n = prop_oneof![scan_widths(), Just(513)];
    let d = prop_oneof![Just(1usize), Just(3), Just(4), Just(5), Just(64)];
    let block_rows = prop_oneof![Just(1usize), Just(15), Just(16), Just(17), Just(50)];
    let tail = prop_oneof![Just(0usize), Just(1), Just(9)];
    let alpha_x = prop_oneof![Just(0.0f64), Just(1e-3), Just(0.5), Just(1.0)];
    let alpha_w = prop_oneof![Just(0.0f64), Just(0.01), Just(0.1), Just(0.5)];
    (n, d, (block_rows, tail, 0usize..=3), alpha_x, alpha_w).prop_flat_map(
        |(n, d, (block_rows, tail, r0), alpha_x, alpha_w)| {
            let m = r0 + block_rows + tail;
            (
                proptest::collection::vec((0.0f64..1.0, finite_hostile_value()), m * n),
                proptest::collection::vec((0.0f64..1.0, hostile_weight()), n * d),
                proptest::collection::vec(0.0f64..1.0, n + d),
            )
                .prop_map(move |(xs, ws, dead)| {
                    let keep = |cells: Vec<(f64, f32)>, alpha: f64| -> Vec<f32> {
                        let stored = |(coin, v)| if coin < alpha { v } else { 0.0 };
                        cells.into_iter().map(stored).collect()
                    };
                    let x = DenseMatrix::from_row_major(m, n, keep(xs, alpha_x)).unwrap();
                    let mut w = keep(ws, alpha_w);
                    for (i, v) in w.iter_mut().enumerate() {
                        if dead[i / d] < 0.2 || dead[n + i % d] < 0.2 {
                            *v = 0.0;
                        }
                    }
                    let w = DenseMatrix::from_row_major(n, d, w).unwrap();
                    (x, w, r0, block_rows)
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn right_sparse_row_kernel_matches_the_oracle_and_profiles_as_it_goes(
        case in right_sparse_case(),
        block_cols in block_widths(),
        poison in proptest::collection::vec((0usize..1 << 20, prop_oneof![
            Just(f32::INFINITY), Just(f32::NEG_INFINITY), Just(f32::NAN),
        ]), 1..6),
    ) {
        let (x, w, r0, block_rows) = case;
        let ((m, n), d) = (x.shape(), w.cols());
        let wt = CsrMatrix::from_dense(&w.transpose());
        let want = gemm_reference(&x, &w).unwrap();

        // Rows `[r0, m)` in `block_rows`-row calls, block widths that do and
        // do not divide `n`: the oracle's output bit for bit, and the counter
        // rows filled on the way hold the per-element count of those rows.
        let run = |x: &DenseMatrix, profile: &mut DensityProfile| {
            let mut out = vec![f32::NAN; (m - r0) * d];
            let counts = profile.refit_tiled((m - r0, n), (block_rows, block_cols));
            for ((b0, b1), row) in row_blocks(m - r0, block_rows).zip(counts) {
                right_sparse_rows_into(x, &wt, r0 + b0, &mut out[b0 * d..b1 * d], block_cols, row)
                    .unwrap();
            }
            out
        };
        let refit = |x: &DenseMatrix| {
            profile_oracle(&x.submatrix_padded(r0, m, 0, n), (block_rows, block_cols))
        };
        let mut profile = DensityProfile::default();
        let out = run(&x, &mut profile);
        prop_assert!(same_bits(&out, &want.as_slice()[r0 * d..]), "rows differ from the oracle");
        prop_assert_eq!(&profile, &refit(&x));

        // The contract's refusals: a counter row of the wrong length, a
        // column-major `x`.
        let mut row = vec![0.0f32; d];
        let mut short = vec![0usize; n.div_ceil(block_cols) + 1];
        for refused in [
            right_sparse_rows_into(&x, &wt, 0, &mut row, block_cols, &mut short),
            right_sparse_rows_into(&x.to_layout(Layout::ColMajor), &wt, 0, &mut row, 0, &mut []),
        ] {
            prop_assert!(matches!(refused, Err(MatrixError::ShapeMismatch { .. })));
        }

        // Non-finite features.  The kernel multiplies every `x != 0.0` by the
        // stored weights only, so an `Inf` or `NaN` reaches the output
        // columns whose weight is stored — not the whole output row, as in
        // the GEMM oracle — which is what the Gustavson block kernel computes
        // from the same stored entries, except that its dense emission turns
        // a `NaN` sum into `+0.0`.  Routing therefore still changes numerics
        // on non-finite inputs: this pins what the kernel does today, the
        // contract ROADMAP's differential-harness item has to settle.
        let mut poisoned = x.clone();
        for &(at, v) in &poison {
            let at = r0 * n + at % ((m - r0) * n);
            poisoned.set(at / n, at % n, v);
        }
        let got = run(&poisoned, &mut profile);
        prop_assert_eq!(&profile, &refit(&poisoned));
        let mut gustavson = vec![f32::NAN; (m - r0) * d];
        stored_csr(&poisoned)
            .spgemm_rows_dense_into(&CsrMatrix::from_dense(&w), r0, &mut gustavson, 1, &mut [])
            .unwrap();
        for (g, s) in got.iter().zip(&gustavson) {
            prop_assert!(
                g.to_bits() == s.to_bits() || (g.is_nan() && s.to_bits() == 0),
                "right-sparse {g} against Gustavson {s}"
            );
        }
    }
}
