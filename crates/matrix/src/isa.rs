//! One source, two instruction sets.
//!
//! Every per-element loop of the request path is written once, as an
//! `#[inline(always)]` body, and compiled twice: the GEMM block kernel with
//! the two-pass `scan_row` it inlines, the right-sparse block kernel and the
//! dense profile refit with the one-pass `count_rows` they inline, the CSR
//! gather, plain and counting its stored columns, and the dense non-zero
//! count.  [`dispatched!`] compiles each into
//! a baseline copy for the target's default instruction set and, on
//! `x86_64`, a copy with `avx2` and `popcnt` enabled.  The wrapper
//! picks the copy [`Isa::detected`] names, detected once per process; there
//! is no option.
//!
//! The two copies are the same source, so they perform the same operations
//! on every element in the same order: wider registers carry more output
//! elements at once, never a different sum.  No body enables `fma` (a fused
//! multiply-add rounds once, `gemm_reference` twice) or calls `std::arch`.
//! The both-copies property in this module's tests re-proves that each copy
//! gives the oracle's bits.

use std::sync::OnceLock;

/// The instruction sets a [`dispatched!`] loop is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The target's default instruction set (SSE2 on `x86_64`).
    Baseline,
    /// `avx2` and `popcnt` (`x86_64` only).
    Avx2,
}

impl Isa {
    /// The widest copy this CPU runs, detected on first use and fixed for
    /// the life of the process.
    #[inline]
    pub(crate) fn detected() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("popcnt") {
                return Isa::Avx2;
            }
            Isa::Baseline
        })
    }
}

/// The instruction set the dispatched kernels run in this process:
/// `"avx2"` when the CPU has `avx2` and `popcnt`, `"baseline"` otherwise.
pub fn kernel_isa() -> &'static str {
    match Isa::detected() {
        Isa::Avx2 => "avx2",
        Isa::Baseline => "baseline",
    }
}

/// Turns one loop body into its instruction-set copies and the wrapper that
/// picks one.
///
/// `dispatched! { fn name(arg: Type, ..) -> Ret { body } }` defines the
/// wrapper `fn name`, which runs the copy of [`Isa::detected`], and a module
/// `name` holding the body (`#[inline(always)]`, so everything it inlines is
/// compiled once per copy) and `name::on(isa, ..)`, which runs the copy of
/// `isa` when this CPU has it and the baseline copy otherwise — the entry
/// point through which tests reach each copy.  Arguments are plain
/// identifiers.
macro_rules! dispatched {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            $name::on($crate::isa::Isa::detected(), $($arg),*)
        }

        pub(crate) mod $name {
            #[allow(unused_imports)]
            use super::*;
            use $crate::isa::Isa;

            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            fn baseline($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,popcnt")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            /// Runs the copy of `isa` if this CPU has it, the baseline copy
            /// otherwise.
            #[inline]
            pub(crate) fn on(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                if isa == Isa::Avx2 && Isa::detected() == Isa::Avx2 {
                    // SAFETY: both features detected above.
                    return unsafe { avx2($($arg),*) };
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = isa;
                baseline($($arg),*)
            }
        }
    };
}
pub(crate) use dispatched;

#[cfg(test)]
mod tests {
    //! The both-copies property: for every dispatched loop, the baseline copy
    //! and the AVX2 copy each give the oracle's bits — the products against
    //! [`gemm_reference`], the counts and the finiteness flag against a count
    //! made one element at a time.

    use super::Isa;
    use crate::ops::{gemm_reference, Scratch};
    use crate::profile::ColumnBlocks;
    use crate::{is_nonzero, CsrMatrix, DenseMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Output widths around every tile of the ladder: 1, an odd 7, one
    /// 16-wide tile, a 32-wide tile and a lane, two 32-wide tiles, and three
    /// with a 4.
    const WIDTHS: [usize; 6] = [1, 7, 16, 33, 64, 100];
    /// Row lengths around the 16-lane group (15, 17, 31, 32), the
    /// right-sparse kernel's 256-column chunk, and the scan's 2048-column
    /// list and the count's 2048-column chunk.
    const ROW_LENGTHS: [usize; 8] = [1, 15, 17, 31, 32, 48, 300, 2049];
    /// Block widths: one column, whole groups (16, 32, 48), a group and a
    /// half, and wider than most rows (one block column spans the row).
    /// 48 does not divide the count's 2048-column chunk, so past it a
    /// 2049-wide row's columns are summed block by block.
    const BLOCK_COLS: [usize; 6] = [1, 16, 24, 32, 48, 2000];
    const DENSITIES: [f64; 4] = [0.0, 0.01, 0.5, 1.0];
    /// Rows per call: none divides [`ROWS`] but 1, so the last call is
    /// ragged.
    const BLOCK_ROWS: [usize; 4] = [1, 4, 16, 17];
    const ROWS: usize = 21;

    /// The copies this CPU runs: the AVX2 half is skipped, with a message,
    /// on a CPU without it.
    fn copies() -> Vec<Isa> {
        if Isa::detected() == Isa::Avx2 {
            vec![Isa::Baseline, Isa::Avx2]
        } else {
            eprintln!("this CPU lacks avx2 or popcnt: only the baseline copies are checked");
            vec![Isa::Baseline]
        }
    }

    /// Bit equality, with every `NaN` equal to every other (which operand's
    /// payload a `NaN` sum keeps is the code generator's choice).
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// One stored value: mostly ordinary numbers, now and then one a
    /// zero-skip can get wrong (`-0.0` is a zero, a denormal is not) and,
    /// with `non_finite`, `±Inf` and `NaN`.
    fn hostile(rng: &mut StdRng, non_finite: bool) -> f32 {
        match rng.gen_range(0..20) {
            0 => -0.0,
            1 => 1.0e-40,
            2 => -1.0e-40,
            3 if non_finite => f32::INFINITY,
            4 if non_finite => f32::NEG_INFINITY,
            5 if non_finite => f32::NAN,
            _ => rng.gen_range(-5.0f32..5.0),
        }
    }

    fn matrix(
        rng: &mut StdRng,
        (m, n): (usize, usize),
        alpha: f64,
        non_finite: bool,
    ) -> DenseMatrix {
        DenseMatrix::from_fn(m, n, |_, _| {
            if rng.gen_range(0.0..1.0) < alpha {
                hostile(rng, non_finite)
            } else {
                0.0
            }
        })
    }

    /// `x` in CSR with every element that is not `±0.0` stored, `NaN`s
    /// included (the oracle multiplies them through).
    fn stored_csr(x: &DenseMatrix) -> CsrMatrix {
        csr_storing(x, |v| v != 0.0)
    }

    /// `x` in CSR with the elements `keep` accepts stored.
    fn csr_storing(x: &DenseMatrix, keep: impl Fn(f32) -> bool) -> CsrMatrix {
        let (m, n) = x.shape();
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..m {
            for (k, &v) in x.row_slice(r).unwrap().iter().enumerate() {
                if keep(v) {
                    col_idx.push(k as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(m, n, row_ptr, col_idx, values)
    }

    /// The counter row of the stored entries of rows `[r0, r1)` of `xs` in
    /// `block_cols`-wide block columns, one entry at a time (an entry counts
    /// because it is stored, whatever its value), and whether their values
    /// are finite.
    fn stored_count_oracle(
        xs: &CsrMatrix,
        (r0, r1): (usize, usize),
        block_cols: usize,
    ) -> (Vec<usize>, bool) {
        let mut counts = vec![0; xs.cols().div_ceil(block_cols)];
        let mut finite = true;
        for r in r0..r1 {
            let (cols, vals) = xs.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                counts[c as usize / block_cols] += 1;
                finite &= v.is_finite();
            }
        }
        (counts, finite)
    }

    /// The counter row of rows `[r0, r1)` of `x` in `block_cols`-wide block
    /// columns, one element at a time, and whether those rows are finite.
    fn count_oracle(
        x: &DenseMatrix,
        (r0, r1): (usize, usize),
        block_cols: usize,
    ) -> (Vec<usize>, bool) {
        let n = x.cols();
        let mut counts = vec![0; n.div_ceil(block_cols)];
        let mut finite = true;
        for r in r0..r1 {
            for c in 0..n {
                let v = x.get(r, c);
                counts[c / block_cols] += usize::from(is_nonzero(v));
                finite &= v.is_finite();
            }
        }
        (counts, finite)
    }

    /// Every case: `(x, block_rows, block_cols)` for every row length and
    /// block width, the densities and row partitions taking turns, `x`
    /// holding non-finite values when `non_finite`.
    fn cases(seed: u64, non_finite: bool) -> Vec<(DenseMatrix, usize, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for (i, &n) in ROW_LENGTHS.iter().enumerate() {
            for (j, &block_cols) in BLOCK_COLS.iter().enumerate() {
                let alpha = DENSITIES[(i + j) % DENSITIES.len()];
                let block_rows = BLOCK_ROWS[(i + 2 * j) % BLOCK_ROWS.len()];
                out.push((
                    matrix(&mut rng, (ROWS, n), alpha, non_finite),
                    block_rows,
                    block_cols,
                ));
            }
        }
        out
    }

    /// A dense right operand of `n` rows for width `d`, poisoned with `±Inf`
    /// and `NaN` when `non_finite`.
    fn right_operand(rng: &mut StdRng, n: usize, d: usize, non_finite: bool) -> DenseMatrix {
        let mut y = matrix(rng, (n, d), 0.9, false);
        if non_finite {
            for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                y.set(rng.gen_range(0..n), rng.gen_range(0..d), v);
            }
        }
        y
    }

    /// Kernel scratch as an earlier call might leave it: the transposed tile
    /// all `NaN`, every column counter at its maximum.
    fn stale_scratch() -> Box<Scratch> {
        let mut scratch = Box::new(Scratch::new());
        scratch.xt.iter_mut().for_each(|lanes| lanes.fill(f32::NAN));
        scratch.columns.fill(u32::MAX);
        scratch
    }

    fn row_calls(block_rows: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..ROWS)
            .step_by(block_rows)
            .map(move |r0| (r0, ROWS.min(r0 + block_rows)))
    }

    #[test]
    fn gemm_row_kernel_copies_give_the_oracle_bits_and_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        for (x, block_rows, block_cols) in cases(1, true) {
            let n = x.cols();
            for &d in &WIDTHS {
                let y = right_operand(&mut rng, n, d, true);
                let want = gemm_reference(&x, &y).unwrap();
                for isa in copies() {
                    let mut out = vec![f32::NAN; ROWS * d];
                    for (r0, r1) in row_calls(block_rows) {
                        let mut counts = vec![0; n.div_ceil(block_cols)];
                        let finite = crate::ops::gemm_rows_rm::on(
                            isa,
                            &x.as_slice()[r0 * n..],
                            y.as_slice(),
                            &mut out[r0 * d..r1 * d],
                            (n, d),
                            block_cols,
                            &mut counts,
                        );
                        let ctx = format!("{isa:?}: n {n}, d {d}, rows {r0}..{r1}");
                        assert_eq!(
                            (counts, finite),
                            count_oracle(&x, (r0, r1), block_cols),
                            "{ctx}"
                        );
                    }
                    assert!(same_bits(&out, want.as_slice()), "{isa:?}: n {n}, d {d}");
                }
            }
        }
    }

    #[test]
    fn right_sparse_kernel_copies_give_the_oracle_bits_and_counts() {
        let mut rng = StdRng::seed_from_u64(8);
        // Finite features: the kernel multiplies by the stored weights only,
        // so only the weight may be non-finite (`±Inf`; a `NaN` weight is
        // not stored).
        for (x, block_rows, block_cols) in cases(2, false) {
            let n = x.cols();
            for &d in &WIDTHS {
                let mut w = matrix(&mut rng, (n, d), 0.1, false);
                for v in [f32::INFINITY, f32::NEG_INFINITY] {
                    w.set(rng.gen_range(0..n), rng.gen_range(0..d), v);
                }
                let wt = CsrMatrix::from_dense(&w.transpose());
                let want = gemm_reference(&x, &w).unwrap();
                for isa in copies() {
                    let mut out = vec![f32::NAN; ROWS * d];
                    let mut scratch = stale_scratch();
                    for (r0, r1) in row_calls(block_rows) {
                        let mut counts = vec![0; n.div_ceil(block_cols)];
                        let finite = crate::ops::right_sparse_rows_rm::on(
                            isa,
                            &x.as_slice()[r0 * n..],
                            &wt,
                            &mut out[r0 * d..r1 * d],
                            block_cols,
                            &mut counts,
                            &mut scratch,
                        );
                        let ctx = format!("{isa:?}: n {n}, d {d}, rows {r0}..{r1}");
                        assert_eq!(
                            (counts, finite),
                            count_oracle(&x, (r0, r1), block_cols),
                            "{ctx}"
                        );
                    }
                    assert!(same_bits(&out, want.as_slice()), "{isa:?}: n {n}, d {d}");
                }
            }
        }
    }

    /// The counted gather of `isa` over the row calls of `block_rows`, each
    /// call's counter row and flag held to [`stored_count_oracle`]; returns
    /// the output.
    fn counted_gather(
        isa: Isa,
        xs: &CsrMatrix,
        y: &DenseMatrix,
        block_rows: usize,
        block_cols: usize,
    ) -> Vec<f32> {
        let (n, d) = y.shape();
        let mut out = vec![f32::NAN; ROWS * d];
        for (r0, r1) in row_calls(block_rows) {
            let mut counts = vec![0; n.div_ceil(block_cols)];
            let finite = crate::csr::spmm_dense_rows_counted_rm::on(
                isa,
                xs,
                y.as_slice(),
                d,
                r0,
                &mut out[r0 * d..r1 * d],
                (ColumnBlocks::new(block_cols), &mut counts),
            );
            assert_eq!(
                (counts, finite),
                stored_count_oracle(xs, (r0, r1), block_cols),
                "{isa:?}: n {n}, d {d}, block columns {block_cols}, rows {r0}..{r1}"
            );
        }
        out
    }

    #[test]
    fn csr_gather_copies_give_the_oracle_bits() {
        let mut rng = StdRng::seed_from_u64(9);
        for (x, block_rows, block_cols) in cases(3, true) {
            let n = x.cols();
            let xs = stored_csr(&x);
            for &d in &WIDTHS {
                let y = right_operand(&mut rng, n, d, true);
                let want = gemm_reference(&x, &y).unwrap();
                for isa in copies() {
                    let mut out = vec![f32::NAN; ROWS * d];
                    for (r0, r1) in row_calls(block_rows) {
                        let rows = &mut out[r0 * d..r1 * d];
                        crate::csr::spmm_dense_rows_rm::on(isa, &xs, y.as_slice(), d, r0, rows);
                    }
                    assert!(same_bits(&out, want.as_slice()), "{isa:?}: n {n}, d {d}");
                    let counted = counted_gather(isa, &xs, &y, block_rows, block_cols);
                    assert!(
                        same_bits(&counted, want.as_slice()),
                        "{isa:?} counted: n {n}, d {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_gather_copies_flag_a_poison_at_either_end_of_a_block() {
        // Finite operands with `-0.0` entries stored (they count), then each
        // non-finite value alone at the first and at the last stored entry of
        // each row call's block.
        let mut rng = StdRng::seed_from_u64(10);
        for (i, (x, block_rows, block_cols)) in cases(5, false).into_iter().enumerate() {
            let n = x.cols();
            let clean = csr_storing(&x, |v| v.to_bits() != 0);
            let d = WIDTHS[i % 3];
            let y = right_operand(&mut rng, n, d, false);
            for (r0, r1) in row_calls(block_rows) {
                let (lo, hi) = (clean.row_ptr()[r0], clean.row_ptr()[r1]);
                for at in [lo, hi.max(lo + 1) - 1].into_iter().filter(|&at| at < hi) {
                    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                        let mut values = clean.values().to_vec();
                        values[at] = v;
                        let (row_ptr, col_idx) =
                            (clean.row_ptr().to_vec(), clean.col_idx().to_vec());
                        let xs = CsrMatrix::from_parts(ROWS, n, row_ptr, col_idx, values);
                        let want = gemm_reference(&xs.to_dense(), &y).unwrap();
                        for isa in copies() {
                            let out = counted_gather(isa, &xs, &y, block_rows, block_cols);
                            assert!(
                                same_bits(&out, want.as_slice()),
                                "{isa:?}: n {n}, d {d}, {v} at entry {at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn profile_refit_and_nonzero_count_copies_count_every_element() {
        for (x, block_rows, block_cols) in cases(4, true) {
            let n = x.cols();
            let gc = n.div_ceil(block_cols);
            let mut want = vec![0; ROWS.div_ceil(block_rows) * gc];
            let mut want_finite = true;
            for (b, (r0, r1)) in row_calls(block_rows).enumerate() {
                let (counts, finite) = count_oracle(&x, (r0, r1), block_cols);
                want[b * gc..][..gc].copy_from_slice(&counts);
                want_finite &= finite;
            }
            let want_nnz: usize = want.iter().sum();
            for isa in copies() {
                let mut counts = vec![0; want.len()];
                let finite = crate::profile::refit_dense_rows::on(
                    isa,
                    x.as_slice(),
                    n,
                    block_rows,
                    block_cols,
                    &mut counts,
                    &mut stale_scratch().columns,
                );
                assert_eq!((&counts, finite), (&want, want_finite), "{isa:?}: n {n}");
                let nnz = crate::dense::count_nonzero::on(isa, x.as_slice());
                assert_eq!(nnz, want_nnz, "{isa:?}: n {n}");
            }
        }
        // Past one 4096-element chunk of the count.
        let long = vec![1.0e-40f32; 3 * 4096 + 5];
        for isa in copies() {
            assert_eq!(crate::dense::count_nonzero::on(isa, &long), long.len());
        }
    }

    #[test]
    fn kernel_isa_names_the_detected_copy() {
        let want = if Isa::detected() == Isa::Avx2 {
            "avx2"
        } else {
            "baseline"
        };
        assert_eq!(super::kernel_isa(), want);
    }
}
