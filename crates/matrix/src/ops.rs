//! Reference functional kernels for the three computation primitives.
//!
//! The Dynasparse Computation Core executes `Z = X × Y` in one of three
//! execution modes (Section V-B1 of the paper):
//!
//! * **GEMM** — both operands treated as dense; every element participates.
//! * **SpDMM** — one operand sparse (COO), zeros in that operand skipped;
//!   executed with the scatter-gather paradigm (Algorithm 5).
//! * **SPMM** — both operands sparse (COO, row-major), zeros in both
//!   skipped; executed with the row-wise product (Algorithm 6).
//!
//! All three produce the same mathematical result; they differ only in which
//! zero-operations they skip (and therefore in execution time on the
//! accelerator).  The functions here are the software oracles used by the
//! accelerator simulator's self-checks, by the functional executor (its dense
//! Update is [`gemm_reference`]) and by the host baselines.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::isa::dispatched;
use crate::layout::Layout;
use crate::profile::{
    compact_group, count_rows, scan_row, ColumnBlocks, ColumnCounts, FiniteProbe, COUNT_COLUMNS,
};
use std::cell::RefCell;

fn check_shapes(op: &'static str, x: (usize, usize), y: (usize, usize)) -> Result<()> {
    if x.1 != y.0 {
        Err(MatrixError::ShapeMismatch { op, lhs: x, rhs: y })
    } else {
        Ok(())
    }
}

/// Dense × dense reference product (single-threaded, i-k-j loop order).
pub fn gemm_reference(x: &DenseMatrix, y: &DenseMatrix) -> Result<DenseMatrix> {
    check_shapes("gemm", x.shape(), y.shape())?;
    let (m, n) = x.shape();
    let d = y.cols();
    let xr = x.to_layout(Layout::RowMajor);
    let yr = y.to_layout(Layout::RowMajor);
    let mut out = vec![0.0f32; m * d];
    for i in 0..m {
        let xrow = xr.row_slice(i).expect("row-major");
        let orow = &mut out[i * d..(i + 1) * d];
        for (k, &xv) in xrow.iter().enumerate().take(n) {
            if xv == 0.0 {
                continue;
            }
            let yrow = yr.row_slice(k).expect("row-major");
            for (o, &yv) in orow.iter_mut().zip(yrow.iter()) {
                *o += xv * yv;
            }
        }
    }
    DenseMatrix::from_row_major(m, d, out)
}

/// Widest register tile of [`accumulate_row`]'s ladder.
const GEMM_TILE: usize = 32;

/// Capacity of the row kernel's compacted survivor list.  A row with more
/// survivors flushes the list into the output row and refills it; the
/// partial sums round-trip through `f32` storage exactly, so the flush
/// points never show in the result.
const SURVIVOR_CAP: usize = 512;

/// Stack scratch of [`gemm_row`]: the `(k, xv)` pairs of one `X` row that
/// survive the zero-skip, compacted in increasing `k`.
struct Survivors {
    k: [u32; SURVIVOR_CAP],
    xv: [f32; SURVIVOR_CAP],
    len: usize,
}

impl Survivors {
    fn new() -> Self {
        Survivors {
            k: [0; SURVIVOR_CAP],
            xv: [0.0; SURVIVOR_CAP],
            len: 0,
        }
    }

    /// Adds the survivors' contributions to `orow` and empties the list.
    #[inline(always)]
    fn flush_into(&mut self, y: &[f32], orow: &mut [f32]) {
        accumulate_row(&self.k[..self.len], &self.xv[..self.len], y, orow);
        self.len = 0;
    }
}

/// Adds `Σ xv · Y[k, ..W]` over the `(k, xv)` pairs, in list order, to the
/// first `W` elements of `out`; with `count`, each `k` also adds one to its
/// block column's counter as it streams by.  (An `Option`, not a closure: a
/// closure is a function of its own, which a `dispatched!` copy may call
/// rather than inline, compiled for the baseline instruction set.)
#[inline(always)]
fn accumulate_tile<const W: usize>(
    ks: &[u32],
    vs: &[f32],
    y: &[f32],
    d: usize,
    out: &mut [f32],
    mut count: Option<(ColumnBlocks, &mut [usize])>,
) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&out[..W]);
    for (&k, &xv) in ks.iter().zip(vs) {
        if let Some((blocks, counts)) = count.as_mut() {
            counts[blocks.of(k as usize)] += 1;
        }
        let yrow: &[f32; W] = y[k as usize * d..][..W].try_into().expect("a W-wide slice");
        for (a, &yv) in acc.iter_mut().zip(yrow) {
            *a += xv * yv;
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// The register-tile ladder, `orow += Σ vs[i] · Y[ks[i]]` for a row-major
/// `Y` of width `orow.len()`: the inner loop of the GEMM row kernel (over its
/// survivors) and of the CSR × dense gather (over a CSR row).  Each
/// [`GEMM_TILE`]-, 16-, 8-, 4-, 2- or 1-wide tile of the row is accumulated
/// in an array while the whole list streams by in order.  Inlined, so every
/// instruction-set copy of a kernel carries its own ladder.
#[inline(always)]
pub(crate) fn accumulate_row(ks: &[u32], vs: &[f32], y: &[f32], orow: &mut [f32]) {
    accumulate_tiles(ks, vs, y, orow, 0);
}

/// [`accumulate_row`]'s ladder over the output columns from `j0` on.
#[inline(always)]
fn accumulate_tiles(ks: &[u32], vs: &[f32], y: &[f32], orow: &mut [f32], mut j0: usize) {
    let d = orow.len();
    macro_rules! tiles {
        ($($w:expr),*) => {$(
            while d - j0 >= $w {
                accumulate_tile::<{ $w }>(ks, vs, &y[j0..], d, &mut orow[j0..], None);
                j0 += $w;
            }
        )*};
    }
    tiles!(GEMM_TILE, 16, 8, 4, 2, 1);
}

/// [`accumulate_row`], adding each `k` of the list into its `blocks` column's
/// counter in `counts` in the first tile's pass: the widest tile that fits
/// runs first, as in the ladder, and the ladder goes on past it (a row of
/// width 0 has no tile and counts nothing).  Interleaved with the tile's
/// multiply-adds, the count cost about half what it did as a loop of its own
/// after each row (1.27 %-dense 1433-column Cora rows at width 16, 2-core
/// x86-64 VM).
#[inline(always)]
pub(crate) fn accumulate_row_counted(
    ks: &[u32],
    vs: &[f32],
    y: &[f32],
    orow: &mut [f32],
    blocks: ColumnBlocks,
    counts: &mut [usize],
) {
    let d = orow.len();
    let count = Some((blocks, counts));
    macro_rules! first_tile {
        ($w:expr) => {{
            accumulate_tile::<{ $w }>(ks, vs, y, d, orow, count);
            $w
        }};
    }
    let first = match d {
        0 => return,
        1 => first_tile!(1),
        2..4 => first_tile!(2),
        4..8 => first_tile!(4),
        8..16 => first_tile!(8),
        16..GEMM_TILE => first_tile!(16),
        _ => first_tile!(GEMM_TILE),
    };
    accumulate_tiles(ks, vs, y, orow, first);
}

/// The GEMM row kernel: `orow = xrow × Y` for one row-major `X` row, in
/// **one scan** of `xrow` that also profiles it.
///
/// [`scan_row`] lists the row's live 16-lane groups in one branch-free pass,
/// counts the non-zeros of those alone into `counts` (one counter per block
/// column of `blocks` — the caller's row of a [`crate::DensityProfile`]) and
/// hands them here, where the survivors of `xv != 0.0` are compacted
/// branch-free into `survivors`.  This is the workspace's one zero-skip
/// site; its predicate is the oracle's, so a `NaN` multiplies through (while
/// `is_nonzero`, the counting predicate, does not count it).  The compacted
/// list then feeds every output tile in increasing `k`, so each output
/// element sees exactly the additions [`gemm_reference`] performs, in the
/// same order, starting from the same `+0.0`: bit-identity is structural.
/// Returns whether every element of `xrow` is finite.
#[inline(always)]
fn gemm_row(
    xrow: &[f32],
    y: &[f32],
    orow: &mut [f32],
    blocks: ColumnBlocks,
    counts: &mut [usize],
    survivors: &mut Survivors,
) -> bool {
    orow.fill(0.0);
    let finite = scan_row(xrow, blocks, counts, |k0, group| {
        if survivors.len + group.len() > SURVIVOR_CAP {
            survivors.flush_into(y, orow);
        }
        let Survivors { k, xv, len } = &mut *survivors;
        *len = compact_group(k0, group, |xv| xv != 0.0, k, xv, *len);
    });
    survivors.flush_into(y, orow);
    finite
}

dispatched! {
    /// Runs [`gemm_row`] over the output rows in `out_rows`, one per row of
    /// `x` from its first: with `(n, d) = shape`, `x` rows are `n` floats, `Y`
    /// is `n × d`, output rows `d` floats.  Every row's block-column counts
    /// are added into the one counter row `counts` (the rows of a call belong
    /// to one profile grid row); an empty `counts` runs the kernel
    /// unprofiled.  Returns whether every element of the rows read is
    /// finite.
    fn gemm_rows_rm(
        x: &[f32],
        y: &[f32],
        out_rows: &mut [f32],
        shape: (usize, usize),
        block_cols: usize,
        counts: &mut [usize],
    ) -> bool {
        let (n, d) = shape;
        if n == 0 {
            out_rows.fill(0.0);
            return true;
        }
        let mut unprofiled = [0usize];
        let (block_cols, counts) = if counts.is_empty() {
            (n, &mut unprofiled[..])
        } else {
            (block_cols, counts)
        };
        let blocks = ColumnBlocks::new(block_cols);
        let mut survivors = Survivors::new();
        let mut finite = true;
        let xrows = x.chunks_exact(n);
        for (xrow, orow) in xrows.zip(out_rows.chunks_mut(d)) {
            finite &= gemm_row(xrow, y, orow, blocks, counts, &mut survivors);
        }
        finite
    }
}

/// Dense × dense product written into a caller-provided output matrix.
///
/// `out` is reshaped in place (reusing its allocation when the capacity
/// suffices) — the zero-allocation building block of the arena executor.
/// Both operands are consumed through a row-major fast path; a column-major
/// operand falls back to an internal layout copy (cold path, allocates).
/// The result is bit-identical to [`gemm_reference`].
pub fn gemm_into(x: &DenseMatrix, y: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
    check_shapes("gemm_into", x.shape(), y.shape())?;
    let (m, n) = x.shape();
    let d = y.cols();
    // Every output element is overwritten by the row kernel, so the reshape
    // skips the redundant zero-fill when the buffer is reused.
    out.reset_for_overwrite(m, d);
    if m > 0 && d > 0 {
        let (x, y) = (x.row_major(), y.row_major());
        let out = out.as_mut_slice();
        gemm_rows_rm(x.as_slice(), y.as_slice(), out, (n, d), 0, &mut []);
    }
    Ok(())
}

/// Computes output rows `[r0, r0 + out_rows.len() / y.cols())` of `Z = X × Y`
/// into a caller-owned row-major slice — the per-partition-block GEMM kernel
/// of the block-granular dispatcher.
///
/// The inner loop is the same row kernel [`gemm_into`] runs, so any row
/// partition of the output — including the per-partition-block dispatch
/// loop — is bit-identical to the whole-kernel call.  Both operands must be
/// row-major: the block loop is allocation-free, so a column-major operand
/// is a shape error here rather than the whole-kernel entry point's silent
/// layout copy.
///
/// The kernel's single pass over the `X` rows also profiles them: the
/// non-zeros of every `block_cols`-wide block column are **added** into
/// `counts` (`x.cols().div_ceil(block_cols)` counters — the row block's grid
/// row of a [`crate::DensityProfile::refit_tiled`] profile), so the
/// dispatcher gets the block's exact density, and the session the kernel
/// input's whole profile, without a second scan of a dense-stored operand.
/// An empty `counts` skips the profile, any other wrong length is a shape
/// error; nothing is scanned when `d == 0`.
///
/// Returns whether every element of the scanned `X` rows is finite (neither
/// `NaN` nor `±Inf`); `true` when nothing is scanned.
pub fn gemm_rows_into(
    x: &DenseMatrix,
    y: &DenseMatrix,
    r0: usize,
    out_rows: &mut [f32],
    block_cols: usize,
    counts: &mut [usize],
) -> Result<bool> {
    check_shapes("gemm_rows", x.shape(), y.shape())?;
    if x.layout() != Layout::RowMajor || y.layout() != Layout::RowMajor {
        return Err(MatrixError::ShapeMismatch {
            op: "gemm_rows (row-major operands required)",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    let n = x.cols();
    let d = y.cols();
    check_counter_row(
        "gemm_rows (one counter per block column required)",
        x.shape(),
        block_cols,
        counts,
    )?;
    if d == 0 {
        return Ok(true);
    }
    debug_assert_eq!(out_rows.len() % d, 0);
    debug_assert!(r0 + out_rows.len() / d <= x.rows());
    Ok(gemm_rows_rm(
        &x.as_slice()[r0 * n..],
        y.as_slice(),
        out_rows,
        (n, d),
        block_cols,
        counts,
    ))
}

/// Checks the profile counter row a block kernel was lent for its left
/// operand of shape `(rows, cols)`: empty (no profile) or one counter per
/// `block_cols`-wide block column.  A counter row of the wrong length would
/// silently drop columns of `X` from the product (the scan walks blocks and
/// counters in lockstep) or from the count.
pub(crate) fn check_counter_row(
    op: &'static str,
    (rows, cols): (usize, usize),
    block_cols: usize,
    counts: &[usize],
) -> Result<()> {
    if !counts.is_empty() && (block_cols == 0 || counts.len() != cols.div_ceil(block_cols)) {
        return Err(MatrixError::ShapeMismatch {
            op,
            lhs: (rows, cols),
            rhs: (counts.len(), block_cols),
        });
    }
    Ok(())
}

/// Rows per tile of the right-sparse kernel: one output column of a tile is
/// accumulated in this many lanes (four SSE registers).
const RIGHT_TILE_ROWS: usize = 16;

/// Columns of `X` a tile is transposed at a time.  Like [`SURVIVOR_CAP`] it
/// bounds the scratch (16 KB) whatever `n` is; a wider `X` is walked in
/// chunks and the partial sums round-trip through the output exactly.
const RIGHT_TILE_K: usize = 256;

/// One tile of `X`, transposed: `[k - k0][row]`.
type TransposedTile = [[f32; RIGHT_TILE_ROWS]; RIGHT_TILE_K];

/// The scratch of the right-sparse block kernel and the dense profile
/// refit: the transposed tile and [`count_rows`]'s column counters.  Each
/// call overwrites what it reads, so what an earlier call left does not
/// matter.
pub(crate) struct Scratch {
    pub(crate) xt: TransposedTile,
    pub(crate) columns: ColumnCounts,
}

impl Scratch {
    pub(crate) const fn new() -> Self {
        Scratch {
            xt: [[0.0; RIGHT_TILE_ROWS]; RIGHT_TILE_K],
            columns: [0; COUNT_COLUMNS],
        }
    }
}

thread_local! {
    /// Each thread's [`Scratch`], zeroed once per thread rather than once per
    /// block call.
    pub(crate) static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

dispatched! {
    /// The right-sparse row kernel: the output rows in `out_rows` of `X × W`,
    /// one per row-major row of `x` from its first, with the weight as `wt`,
    /// the CSR of `Wᵀ` (row `j` holds column `j` of `W`, its stored `k`
    /// increasing; `X` rows are `wt.cols()` wide).
    ///
    /// Per tile of [`RIGHT_TILE_ROWS`] rows: [`count_rows`] counts the rows'
    /// non-zeros into `counts` in `block_cols`-wide block columns, in one
    /// pass (the tile is one contiguous slice when a block column spans the
    /// row); the tile is transposed `k`-major into `scratch`; and every
    /// output column walks its stored weights in
    /// increasing `k` with one tile-high accumulator.  An output element
    /// therefore receives [`gemm_reference`]'s additions in its order from the
    /// same `+0.0`, minus the `x · 0` terms of the weights that are not stored
    /// — each a `±0.0` added to a sum that is never `-0.0` — so the result is
    /// the oracle's bit for bit on finite operands.  The product of a zero `x`
    /// is masked out, as the oracle skips it.  Returns whether every element
    /// of the rows read is finite.
    fn right_sparse_rows_rm(
        x: &[f32],
        wt: &CsrMatrix,
        out_rows: &mut [f32],
        block_cols: usize,
        counts: &mut [usize],
        scratch: &mut Scratch,
    ) -> bool {
        let (d, n) = wt.shape();
        if n == 0 {
            out_rows.fill(0.0);
            return true;
        }
        // Lanes past a short last tile keep an earlier tile's (or call's)
        // values: they are accumulated and never written.
        let mut probe = FiniteProbe::new();
        for (t, otile) in out_rows.chunks_mut(RIGHT_TILE_ROWS * d).enumerate() {
            let rows = otile.len() / d;
            let xtile = &x[t * RIGHT_TILE_ROWS * n..][..rows * n];
            count_rows(xtile, n, block_cols, counts, &mut probe, &mut scratch.columns);
            for k0 in (0..n).step_by(RIGHT_TILE_K) {
                let k1 = n.min(k0 + RIGHT_TILE_K);
                transpose_tile(xtile, n, k0, k1, &mut scratch.xt);
                for j in 0..d {
                    let (ks, ws) = wt.row(j);
                    // The column's stored weights inside this chunk: all of
                    // them when `X` fits one chunk (no search per tile).
                    let (lo, hi) = if n <= RIGHT_TILE_K {
                        (0, ks.len())
                    } else {
                        let before = |end: usize| ks.partition_point(|&k| (k as usize) < end);
                        (before(k0), before(k1))
                    };
                    let mut acc = [0.0f32; RIGHT_TILE_ROWS];
                    if k0 > 0 {
                        for (a, orow) in acc.iter_mut().zip(otile.chunks_exact(d)) {
                            *a = orow[j];
                        }
                    }
                    for (&k, &w) in ks[lo..hi].iter().zip(&ws[lo..hi]) {
                        // `k0 <= k < k1`, so the modulo changes nothing; it
                        // spares the bounds check, whose panic path would
                        // spill the accumulator every step.
                        let lanes = &scratch.xt[(k as usize - k0) % RIGHT_TILE_K];
                        for (a, &xv) in acc.iter_mut().zip(lanes) {
                            *a += if xv != 0.0 { xv * w } else { 0.0 };
                        }
                    }
                    for (&a, orow) in acc.iter().zip(otile.chunks_exact_mut(d)) {
                        orow[j] = a;
                    }
                }
            }
        }
        probe.finite()
    }
}

/// Transposes columns `[k0, k1)` of the row-major `xtile` (rows of width `n`)
/// into `xt[k - k0][row]`, four rows by four columns at a time so the moves
/// compile to register shuffles.
#[inline(always)]
fn transpose_tile(xtile: &[f32], n: usize, k0: usize, k1: usize, xt: &mut TransposedTile) {
    let kc = k1 - k0;
    let mut quads = xtile.chunks_exact(4 * n);
    let mut r = 0;
    for quad in &mut quads {
        let rows: [&[f32]; 4] = std::array::from_fn(|i| &quad[i * n + k0..][..kc]);
        for k in (0..kc - kc % 4).step_by(4) {
            let q: [&[f32; 4]; 4] = rows.map(|row| row[k..k + 4].try_into().expect("four lanes"));
            for i in 0..4 {
                xt[k + i][r..r + 4].copy_from_slice(&q.map(|lanes| lanes[i]));
            }
        }
        for k in kc - kc % 4..kc {
            xt[k][r..r + 4].copy_from_slice(&rows.map(|row| row[k]));
        }
        r += 4;
    }
    for xrow in quads.remainder().chunks_exact(n) {
        for (lanes, &xv) in xt.iter_mut().zip(&xrow[k0..k1]) {
            lanes[r] = xv;
        }
        r += 1;
    }
}

/// Computes output rows `[r0, r0 + out_rows.len() / d)` of `Z = X × W` into a
/// caller-owned row-major slice, with the weight given as `wt`, the CSR of
/// `Wᵀ` (`d × n`) — the host SpDMM in its second orientation, run by the
/// *right* operand's non-zeros.  It is the block kernel of an Update whose
/// pruned weight is sparser than its dense-stored features:
/// [`gemm_rows_into`] pays for every non-zero of `X` times all `d` columns,
/// this kernel for every row of `X` times the stored weights only.
///
/// The contract is [`gemm_rows_into`]'s: `x` row-major (a column-major one is
/// a shape error, the block loop being allocation-free), the rows'
/// non-zeros **added** into `counts` per `block_cols`-wide block column (an
/// empty `counts` skips the profile, any other wrong length is a shape
/// error), every output element written, and — on finite operands — the
/// result bit-identical to [`gemm_reference`] for any row partition.  A
/// non-finite feature reaches only the output columns whose weight is
/// stored, as in [`CsrMatrix::spgemm_rows_dense_into`]; the returned flag,
/// as [`gemm_rows_into`]'s, says whether every scanned element was finite.
pub fn right_sparse_rows_into(
    x: &DenseMatrix,
    wt: &CsrMatrix,
    r0: usize,
    out_rows: &mut [f32],
    block_cols: usize,
    counts: &mut [usize],
) -> Result<bool> {
    let n = x.cols();
    let d = wt.rows();
    if n != wt.cols() || x.layout() != Layout::RowMajor {
        return Err(MatrixError::ShapeMismatch {
            op: "right_sparse_rows (row-major x and the transposed weight required)",
            lhs: x.shape(),
            rhs: (wt.cols(), d),
        });
    }
    check_counter_row(
        "right_sparse_rows (one counter per block column required)",
        x.shape(),
        block_cols,
        counts,
    )?;
    if d == 0 {
        return Ok(true);
    }
    debug_assert_eq!(out_rows.len() % d, 0);
    debug_assert!(r0 + out_rows.len() / d <= x.rows());
    let mut unprofiled = [0usize];
    let (block_cols, counts) = if counts.is_empty() {
        (n.max(1), &mut unprofiled[..])
    } else {
        (block_cols, counts)
    };
    Ok(SCRATCH.with_borrow_mut(|scratch| {
        right_sparse_rows_rm(
            &x.as_slice()[r0 * n..],
            wt,
            out_rows,
            block_cols,
            counts,
            scratch,
        )
    }))
}

/// Sparse × dense product with the scatter-gather paradigm of Algorithm 5.
///
/// `x` is the sparse operand in COO; `y` is dense.  Every non-zero
/// `e(i, j, value)` of `x` fetches row `Y[j]` ("scatter"), multiplies it by
/// `e.value` in an Update Unit and accumulates into `Z[i]` in a Reduce Unit
/// ("gather").  The function is a faithful software rendering of that data
/// flow, so the accelerator simulator can reuse it for functional
/// verification of the SpDMM mode.
pub fn spdmm_reference(x: &CooMatrix, y: &DenseMatrix) -> Result<DenseMatrix> {
    check_shapes("spdmm", x.shape(), y.shape())?;
    let m = x.rows();
    let d = y.cols();
    let yr = y.to_layout(Layout::RowMajor);
    let mut z = DenseMatrix::zeros(m, d);
    for e in x.entries() {
        // Scatter: route e to the bank holding Y[e.col] and fetch that row.
        let yrow = yr.row_slice(e.col as usize).expect("row-major");
        // Gather: Update multiplies, Reduce accumulates into Z[e.row].
        for (c, &yv) in yrow.iter().enumerate() {
            z.add_assign_at(e.row as usize, c, e.value * yv);
        }
    }
    Ok(z)
}

/// Sparse × sparse product with the row-wise product paradigm of Algorithm 6.
///
/// Both operands are COO in row-major order.  Each output row `Z[j]` is the
/// linear combination `Σ_i X[j][i] · Y[i]` computed by one Sparse Computation
/// Pipeline; the dense result lands in the Result Buffer.
pub fn spmm_reference(x: &CooMatrix, y: &CooMatrix) -> Result<DenseMatrix> {
    check_shapes("spmm", x.shape(), y.shape())?;
    let m = x.rows();
    let d = y.cols();
    let x = x.to_order(Layout::RowMajor);
    let y = y.to_order(Layout::RowMajor);
    // Pre-index the rows of Y so that `Y[i]` lookups are O(row nnz).
    let mut y_rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); y.rows()];
    for e in y.entries() {
        y_rows[e.row as usize].push((e.col, e.value));
    }
    let mut z = DenseMatrix::zeros(m, d);
    for e in x.entries() {
        for &(c, v) in &y_rows[e.col as usize] {
            z.add_assign_at(e.row as usize, c as usize, e.value * v);
        }
    }
    Ok(z)
}

/// Number of multiply-accumulate operations each primitive performs for
/// `Z = X × Y`, given the operand shapes and densities.  These MAC counts are
/// the numerators of the Table IV performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacCounts {
    /// GEMM performs every MAC: `m · n · d`.
    pub gemm: f64,
    /// SpDMM skips zeros of the sparser operand: `α_min · m · n · d`.
    pub spdmm: f64,
    /// SPMM skips zeros of both operands: `α_X · α_Y · m · n · d`.
    pub spmm: f64,
}

/// Computes the MAC counts of the three primitives for `X (m×n) × Y (n×d)`
/// with densities `alpha_x` and `alpha_y`.
pub fn mac_counts(m: usize, n: usize, d: usize, alpha_x: f64, alpha_y: f64) -> MacCounts {
    let total = m as f64 * n as f64 * d as f64;
    let alpha_min = alpha_x.min(alpha_y);
    MacCounts {
        gemm: total,
        spdmm: alpha_min * total,
        spmm: alpha_x * alpha_y * total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_pair(seed: u64, dx: f64, dy: f64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_dense(&mut rng, 17, 23, dx);
        let y = random_dense(&mut rng, 23, 9, dy);
        (x, y)
    }

    #[test]
    fn gemm_identity_is_noop() {
        let (x, _) = dense_pair(1, 0.7, 1.0);
        let i = DenseMatrix::identity(23);
        let z = gemm_reference(&x, &i).unwrap();
        assert!(z.approx_eq(&x, 1e-5));
    }

    #[test]
    fn gemm_into_is_bit_identical_to_reference() {
        for (seed, dx, dy) in [(7, 1.0, 1.0), (8, 0.3, 0.9), (9, 0.05, 0.5)] {
            let (x, y) = dense_pair(seed, dx, dy);
            let want = gemm_reference(&x, &y).unwrap();
            let mut out = DenseMatrix::zeros(0, 0);
            gemm_into(&x, &y, &mut out).unwrap();
            assert_eq!(out.as_slice(), want.as_slice(), "seed {seed}");
            // Reuse the buffer: a second product must overwrite, not mix.
            gemm_into(&y.transpose(), &x.transpose(), &mut out).unwrap();
            let want_t = gemm_reference(&y.transpose(), &x.transpose()).unwrap();
            assert_eq!(out.as_slice(), want_t.as_slice());
        }
    }

    #[test]
    fn gemm_into_handles_column_major_operands() {
        let (x, y) = dense_pair(10, 0.6, 0.7);
        let xc = x.to_layout(Layout::ColMajor);
        let yc = y.to_layout(Layout::ColMajor);
        let want = gemm_reference(&x, &y).unwrap();
        let mut out = DenseMatrix::zeros(0, 0);
        gemm_into(&xc, &yc, &mut out).unwrap();
        assert!(out.approx_eq(&want, 1e-5));
    }

    #[test]
    fn gemm_into_wide_output_exercises_tiling() {
        let mut rng = StdRng::seed_from_u64(22);
        let x = random_dense(&mut rng, 9, 40, 0.5);
        let y = random_dense(&mut rng, 40, 3 * GEMM_TILE + 5, 0.9);
        let want = gemm_reference(&x, &y).unwrap();
        let mut out = DenseMatrix::zeros(0, 0);
        gemm_into(&x, &y, &mut out).unwrap();
        assert_eq!(out.as_slice(), want.as_slice());
    }

    #[test]
    fn gemm_rows_rejects_a_counter_row_of_the_wrong_length() {
        let (x, y) = dense_pair(45, 0.5, 1.0);
        let mut out = vec![0.0f32; 2 * 9];
        // 23 columns in blocks of 8 are three block columns.
        for (block_cols, len) in [(8, 2), (8, 4), (0, 3)] {
            let mut counts = vec![0usize; len];
            assert!(gemm_rows_into(&x, &y, 0, &mut out, block_cols, &mut counts).is_err());
        }
        // The scanned counter row holds each block column's non-zeros.
        let mut counts = vec![0usize; 3];
        gemm_rows_into(&x, &y, 0, &mut out, 8, &mut counts).unwrap();
        let mut want = [0usize; 3];
        for (r, c) in (0..2).flat_map(|r| (0..23).map(move |c| (r, c))) {
            want[c / 8] += crate::is_nonzero(x.get(r, c)) as usize;
        }
        assert_eq!(counts, want);
        gemm_rows_into(&x, &y, 0, &mut out, 0, &mut []).unwrap();
    }

    #[test]
    fn gemm_into_shape_mismatch_is_detected() {
        let x = DenseMatrix::zeros(3, 4);
        let y = DenseMatrix::zeros(5, 2);
        assert!(gemm_into(&x, &y, &mut DenseMatrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn spdmm_matches_gemm() {
        let (x, y) = dense_pair(3, 0.2, 0.9);
        let want = gemm_reference(&x, &y).unwrap();
        let got = spdmm_reference(&CooMatrix::from_dense(&x), &y).unwrap();
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn spmm_matches_gemm() {
        let (x, y) = dense_pair(4, 0.15, 0.25);
        let want = gemm_reference(&x, &y).unwrap();
        let got = spmm_reference(&CooMatrix::from_dense(&x), &CooMatrix::from_dense(&y)).unwrap();
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn spmm_accepts_column_major_input_by_resorting() {
        let (x, y) = dense_pair(5, 0.3, 0.3);
        let xc = CooMatrix::from_dense(&x).to_order(Layout::ColMajor);
        let yc = CooMatrix::from_dense(&y).to_order(Layout::ColMajor);
        let want = gemm_reference(&x, &y).unwrap();
        assert!(spmm_reference(&xc, &yc).unwrap().approx_eq(&want, 1e-4));
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let x = DenseMatrix::zeros(3, 4);
        let y = DenseMatrix::zeros(5, 2);
        assert!(gemm_reference(&x, &y).is_err());
        assert!(spdmm_reference(&CooMatrix::from_dense(&x), &y).is_err());
        assert!(spmm_reference(&CooMatrix::from_dense(&x), &CooMatrix::from_dense(&y)).is_err());
    }

    #[test]
    fn empty_sparse_operand_gives_zero_result() {
        let x = CooMatrix::empty(4, 6);
        let y = DenseMatrix::from_fn(6, 3, |r, c| (r + c) as f32);
        let z = spdmm_reference(&x, &y).unwrap();
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn mac_counts_follow_table_iv() {
        let c = mac_counts(10, 20, 30, 0.25, 0.5);
        let total = 10.0 * 20.0 * 30.0;
        assert_eq!(c.gemm, total);
        assert_eq!(c.spdmm, 0.25 * total);
        assert_eq!(c.spmm, 0.125 * total);
    }

    #[test]
    fn mac_counts_spdmm_uses_minimum_density() {
        let c = mac_counts(4, 4, 4, 0.9, 0.1);
        assert!((c.spdmm - 0.1 * 64.0).abs() < 1e-9);
    }
}
