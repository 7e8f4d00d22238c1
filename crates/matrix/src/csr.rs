//! Compressed Sparse Row (CSR) matrices.
//!
//! CSR is not an on-chip format of the Dynasparse accelerator (which uses COO
//! per Section V-A), but it is the format that the host-side functional
//! executor and the CPU/GPU baseline kernels use: the paper's CPU/GPU
//! baselines (PyG / DGL) perform aggregation as a CSR SpMM that exploits only
//! the sparsity of the graph structure.

use crate::coo::{CooEntry, CooMatrix};
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::is_nonzero;
use crate::isa::dispatched;
use crate::layout::Layout;
use crate::ops::{accumulate_row, accumulate_row_counted, check_counter_row};
use crate::profile::{
    compact_group, count_stored, probe_values, scan_row, ColumnBlocks, FiniteProbe, SCAN_LANES,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Reusable workspace of the Gustavson [`CsrMatrix::spgemm_with`] kernel.
///
/// Holds the dense accumulator + epoch-tagged scatter list (sized by the
/// right-hand operand's column count) and the output CSR buffers.  Reusing
/// one scratch across products makes the sparse-sparse route allocation-free
/// in steady state: the output buffers are moved into the produced
/// [`CsrMatrix`] and can be handed back with [`SpGemmScratch::reclaim`].
#[derive(Debug, Default)]
pub struct SpGemmScratch {
    /// Dense accumulator, one slot per output column.
    acc: Vec<f32>,
    /// Epoch tag per output column; `tag == epoch` means "touched this row".
    touched: Vec<u32>,
    epoch: u32,
    /// Columns touched while accumulating the current row (sorted before
    /// emission — the scatter list).
    cols: Vec<u32>,
    /// Reusable output buffers (moved into the result, returned by
    /// [`SpGemmScratch::reclaim`]).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SpGemmScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SpGemmScratch::default()
    }

    /// Returns the buffers of a previously produced product so the next
    /// [`CsrMatrix::spgemm_with`] call can reuse their capacity.
    pub fn reclaim(&mut self, parts: (Vec<usize>, Vec<u32>, Vec<f32>)) {
        self.row_ptr = parts.0;
        self.col_idx = parts.1;
        self.values = parts.2;
    }

    /// Sizes the accumulator for `cols` output columns and starts a new
    /// epoch (no clearing of the accumulator payload needed).
    fn prepare(&mut self, cols: usize) {
        if self.acc.len() < cols {
            self.acc.resize(cols, 0.0);
            self.touched.resize(cols, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale tags could collide with the fresh epoch.
            self.touched.fill(0);
            self.epoch = 1;
        }
        self.cols.clear();
    }
}

/// Sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the entries of row `r`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// An all-zero matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from unsorted COO-style triples.
    pub fn from_triples(
        rows: usize,
        cols: usize,
        triples: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Result<Self> {
        let entries: Vec<CooEntry> = triples
            .into_iter()
            .map(|(r, c, v)| CooEntry::new(r, c, v))
            .collect();
        let coo = CooMatrix::from_entries(rows, cols, entries)?;
        Ok(Self::from_coo(&coo))
    }

    /// Converts a COO matrix (any order) into CSR.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        let sorted = coo.to_order(crate::layout::Layout::RowMajor);
        let mut row_ptr = vec![0usize; rows + 1];
        for e in sorted.entries() {
            row_ptr[e.row as usize + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut col_idx = Vec::with_capacity(sorted.nnz());
        let mut values = Vec::with_capacity(sorted.nnz());
        for e in sorted.entries() {
            col_idx.push(e.col);
            values.push(e.value);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extracts the non-zero pattern of a dense matrix: one `scan_row`
    /// per row (which visits only the lane groups that are not all `±0.0`),
    /// compacting exactly the [`is_nonzero`] elements of those groups
    /// branch-free.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let row_major = dense.row_major();
        let (rows, cols) = dense.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let one_block = ColumnBlocks::new(cols);
        for row in row_major.as_slice().chunks(cols.max(1)) {
            scan_row(row, one_block, &mut [0], |k, group| {
                let (mut cs, mut vs) = ([0u32; SCAN_LANES], [0.0f32; SCAN_LANES]);
                let len = compact_group(k, group, is_nonzero, &mut cs, &mut vs, 0);
                col_idx.extend_from_slice(&cs[..len]);
                values.extend_from_slice(&vs[..len]);
            });
            row_ptr.push(col_idx.len());
        }
        row_ptr.resize(rows + 1, col_idx.len());
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materialises the matrix as dense storage.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        self.to_dense_into(&mut out);
        out
    }

    /// Materialises the matrix into a caller-provided dense buffer, reusing
    /// its allocation (the arena path of sparse kernel outputs).
    pub fn to_dense_into(&self, out: &mut DenseMatrix) {
        out.reset(self.rows, self.cols);
        let cols = self.cols;
        let data = out.as_mut_slice();
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                data[r * cols + self.col_idx[k] as usize] += self.values[k];
            }
        }
    }

    /// Builds a CSR matrix directly from its component arrays.
    ///
    /// The invariants (monotone `row_ptr` of length `rows + 1`, in-bounds
    /// sorted column indices per row, `col_idx.len() == values.len()`) are
    /// debug-asserted, not validated: this is the zero-copy constructor the
    /// kernel scratch buffers use.  Use [`CsrMatrix::from_triples`] for
    /// untrusted data.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < cols.max(1)));
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Decomposes the matrix into `(row_ptr, col_idx, values)` so their
    /// allocations can be recycled (see [`SpGemmScratch::reclaim`]).
    pub fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Applies `f` to every stored value in place, dropping entries whose
    /// mapped value is (numerically) zero — the sparse analogue of
    /// `DenseMatrix::map_inplace`, used to apply activations to sparse
    /// kernel outputs without rebuilding the matrix.
    pub fn map_retain(&mut self, f: impl Fn(f32) -> f32) {
        let mut write = 0usize;
        let mut read_base = self.row_ptr[0];
        for r in 0..self.rows {
            let (lo, hi) = (read_base, self.row_ptr[r + 1]);
            read_base = hi;
            for k in lo..hi {
                let v = f(self.values[k]);
                if is_nonzero(v) {
                    self.col_idx[write] = self.col_idx[k];
                    self.values[write] = v;
                    write += 1;
                }
            }
            self.row_ptr[r + 1] = write;
        }
        self.col_idx.truncate(write);
        self.values.truncate(write);
    }

    /// Converts to COO (row-major order).
    pub fn to_coo(&self) -> CooMatrix {
        let mut entries = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                entries.push(CooEntry::new(r as u32, self.col_idx[k], self.values[k]));
            }
        }
        CooMatrix::from_entries(self.rows, self.cols, entries)
            .expect("CSR indices are always in bounds")
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density = nnz / (rows*cols).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Row pointer array (length `rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Column indices and values of rows `[r0, r1)`, contiguous.
    #[inline]
    pub(crate) fn stored_rows(&self, r0: usize, r1: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_ptr[r0], self.row_ptr[r1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in row `r` (the out-degree when the matrix is a
    /// graph adjacency matrix).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Sparse × dense product `self * rhs` where `rhs` is dense.
    ///
    /// This is the aggregation kernel of the functional executor.  The rows
    /// are computed one after another on the calling thread; each output row
    /// is a linear combination of the dense rows selected by the sparse row's
    /// column indices.
    pub fn spmm_dense(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(0, 0);
        self.spmm_dense_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`CsrMatrix::spmm_dense`] writing into a caller-provided output
    /// matrix, reusing its allocation — the SpDMM host kernel of the
    /// dispatching executor.  A row-major `rhs` is consumed in place (no
    /// layout copy); column-major falls back to an internal copy.
    pub fn spmm_dense_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != rhs.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "spmm_dense",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let d = rhs.cols();
        // Rows are zeroed while L1-resident just before accumulation, so
        // the reshape skips the redundant whole-buffer memset on reuse.
        out.reset_for_overwrite(self.rows, d);
        if self.rows == 0 || d == 0 {
            return Ok(());
        }
        let rhs_rm;
        let ys = if rhs.layout() == Layout::RowMajor {
            rhs.as_slice()
        } else {
            rhs_rm = rhs.to_layout(Layout::RowMajor);
            rhs_rm.as_slice()
        };
        spmm_dense_rows_rm(self, ys, d, 0, out.as_mut_slice());
        Ok(())
    }

    /// Number of stored non-zeros in rows `[r0, r1)`: an O(1) row-pointer
    /// difference, the per-block density refit of the block-granular
    /// dispatcher for CSR left operands.
    #[inline]
    pub fn rows_nnz(&self, r0: usize, r1: usize) -> usize {
        debug_assert!(r0 <= r1 && r1 <= self.rows);
        self.row_ptr[r1] - self.row_ptr[r0]
    }

    /// Computes output rows `[r0, r0 + out_rows.len() / rhs.cols())` of the
    /// SpDMM product `self × rhs` into a caller-owned row-major slice — the
    /// per-partition-block SpDMM kernel of the block-granular dispatcher.
    ///
    /// The row loop is the same one [`CsrMatrix::spmm_dense_into`] runs
    /// (`spmm_dense_rows_rm`), so any row partition of the
    /// output is bit-identical to the whole-kernel call.  `rhs` must be
    /// row-major: the block loop is allocation-free, so a column-major
    /// operand is a shape error rather than a silent layout copy.
    ///
    /// The gather also profiles the rows it streams, as
    /// [`gemm_rows_into`](crate::ops::gemm_rows_into) does for a dense left
    /// operand: every stored column is **added** into the counter of its
    /// `block_cols`-wide block column in `counts`
    /// (`self.cols().div_ceil(block_cols)` counters — the row block's grid row
    /// of a [`crate::DensityProfile::refit_tiled`] profile, identical to
    /// [`crate::DensityProfile::refit_csr`]'s), and every stored value is
    /// folded into a finiteness probe.  An empty `counts` skips both, any
    /// other wrong length is a shape error; nothing is read when
    /// `rhs.cols() == 0`.
    ///
    /// Returns whether every stored value of the profiled rows is finite;
    /// `true` when nothing is profiled.
    pub fn spmm_dense_rows_into(
        &self,
        rhs: &DenseMatrix,
        r0: usize,
        out_rows: &mut [f32],
        block_cols: usize,
        counts: &mut [usize],
    ) -> Result<bool> {
        if self.cols != rhs.rows() || rhs.layout() != Layout::RowMajor {
            return Err(MatrixError::ShapeMismatch {
                op: "spmm_dense_rows (row-major rhs required)",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        check_counter_row(
            "spmm_dense_rows (one counter per block column required)",
            self.shape(),
            block_cols,
            counts,
        )?;
        let d = rhs.cols();
        if d == 0 {
            return Ok(true);
        }
        debug_assert_eq!(out_rows.len() % d, 0);
        debug_assert!(r0 + out_rows.len() / d <= self.rows);
        let ys = rhs.as_slice();
        if counts.is_empty() {
            spmm_dense_rows_rm(self, ys, d, r0, out_rows);
            return Ok(true);
        }
        let counter = (ColumnBlocks::new(block_cols), counts);
        Ok(spmm_dense_rows_counted_rm(
            self, ys, d, r0, out_rows, counter,
        ))
    }

    /// Computes output rows `[r0, r0 + out_rows.len() / rhs.cols())` of the
    /// Gustavson product `self × rhs` directly into a caller-owned dense
    /// row-major slice — the per-partition-block SPMM kernel of the
    /// block-granular dispatcher for blocks whose output lands in a dense
    /// buffer.
    ///
    /// The output row itself is the dense accumulator of
    /// [`CsrMatrix::spgemm_with`]'s row loop (no scatter list needed, since
    /// nothing is emitted to CSR): contributions to one output element are
    /// added in the same `k`-increasing order, so the values are
    /// bit-identical to `spgemm` followed by [`CsrMatrix::to_dense_into`].
    /// Accumulated exact zeros are normalised to `+0.0` afterwards, matching
    /// the entries the sparse emission filter drops.
    ///
    /// `block_cols` and `counts` profile the rows, as in
    /// [`CsrMatrix::spmm_dense_rows_into`], whose contract (and returned
    /// flag) this shares: once the block's rows are computed, its stored
    /// entries, contiguous and still in cache, are counted and probed.
    pub fn spgemm_rows_dense_into(
        &self,
        rhs: &CsrMatrix,
        r0: usize,
        out_rows: &mut [f32],
        block_cols: usize,
        counts: &mut [usize],
    ) -> Result<bool> {
        if self.cols != rhs.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "spgemm_rows_dense",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        check_counter_row(
            "spgemm_rows_dense (one counter per block column required)",
            self.shape(),
            block_cols,
            counts,
        )?;
        let d = rhs.cols();
        if d == 0 {
            return Ok(true);
        }
        debug_assert_eq!(out_rows.len() % d, 0);
        debug_assert!(r0 + out_rows.len() / d <= self.rows);
        let rows = out_rows.len() / d;
        for (i, out_row) in out_rows.chunks_exact_mut(d).enumerate() {
            out_row.fill(0.0);
            let (cols, vals) = self.row(r0 + i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let (rcols, rvals) = rhs.row(c as usize);
                for (&rc, &rv) in rcols.iter().zip(rvals.iter()) {
                    out_row[rc as usize] += v * rv;
                }
            }
            for o in out_row.iter_mut() {
                if !is_nonzero(*o) {
                    *o = 0.0;
                }
            }
        }
        if counts.is_empty() {
            return Ok(true);
        }
        let (cols, vals) = self.stored_rows(r0, r0 + rows);
        Ok(count_stored(
            cols,
            vals,
            ColumnBlocks::new(block_cols),
            counts,
        ))
    }

    /// Sparse × sparse product returning a CSR matrix.
    ///
    /// Row-wise product formulation (Gustavson): the same formulation the
    /// SPMM execution mode of the Computation Core implements in hardware.
    /// Internally allocates a fresh workspace; hot paths should hold a
    /// [`SpGemmScratch`] and call [`CsrMatrix::spgemm_with`] instead.
    pub fn spgemm(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        self.spgemm_with(rhs, &mut SpGemmScratch::new())
    }

    /// Gustavson sparse × sparse product using a caller-provided workspace.
    ///
    /// Each output row is accumulated into a dense accumulator indexed by
    /// output column, with an epoch-tagged scatter list recording which
    /// columns were touched; the list is sorted and the non-zero values
    /// emitted in column order.  This replaces the former per-row `BTreeMap`
    /// (no per-entry tree nodes, no per-row map allocation) while producing
    /// bit-identical results: contributions to one output element are added
    /// in the same `k`-increasing order, and emission is column-sorted
    /// either way.
    pub fn spgemm_with(&self, rhs: &CsrMatrix, scratch: &mut SpGemmScratch) -> Result<CsrMatrix> {
        if self.cols != rhs.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "spgemm",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut row_ptr = std::mem::take(&mut scratch.row_ptr);
        let mut col_idx = std::mem::take(&mut scratch.col_idx);
        let mut values = std::mem::take(&mut scratch.values);
        row_ptr.clear();
        row_ptr.reserve(self.rows + 1);
        row_ptr.push(0);
        col_idx.clear();
        values.clear();
        self.gustavson_rows(rhs, scratch, &mut row_ptr, &mut col_idx, &mut values);
        Ok(CsrMatrix {
            rows: self.rows,
            cols: rhs.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The Gustavson row loop of [`CsrMatrix::spgemm_with`]: appends each
    /// output row's column-sorted non-zero entries to `col_idx`/`values` and
    /// its end offset to `row_ptr`.  It stays a function of its own, out of
    /// line, with the output buffers as separate `&mut` parameters: inlined
    /// into `spgemm_with`, where they are locals of the returned matrix, the
    /// loop measured ≈ 12 % slower on the calibration grid (2-core x86-64
    /// VM), which every process start pays.
    #[inline(never)]
    fn gustavson_rows(
        &self,
        rhs: &CsrMatrix,
        scratch: &mut SpGemmScratch,
        row_ptr: &mut Vec<usize>,
        col_idx: &mut Vec<u32>,
        values: &mut Vec<f32>,
    ) {
        for r in 0..self.rows {
            scratch.prepare(rhs.cols);
            let epoch = scratch.epoch;
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let (rcols, rvals) = rhs.row(c as usize);
                for (&rc, &rv) in rcols.iter().zip(rvals.iter()) {
                    let rc_us = rc as usize;
                    if scratch.touched[rc_us] != epoch {
                        scratch.touched[rc_us] = epoch;
                        scratch.acc[rc_us] = 0.0;
                        scratch.cols.push(rc);
                    }
                    scratch.acc[rc_us] += v * rv;
                }
            }
            scratch.cols.sort_unstable();
            for &c in &scratch.cols {
                let v = scratch.acc[c as usize];
                if is_nonzero(v) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
    }

    /// Sparse matrix–vector product.
    pub fn spmv(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols {
            return Err(MatrixError::BufferLength {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .into_par_iter()
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter()
                    .zip(vals.iter())
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum()
            })
            .collect())
    }

    /// Scales each row `r` by `factors[r]`.
    pub fn scale_rows(&self, factors: &[f32]) -> Result<CsrMatrix> {
        if factors.len() != self.rows {
            return Err(MatrixError::BufferLength {
                expected: self.rows,
                actual: factors.len(),
            });
        }
        let mut out = self.clone();
        for (r, &factor) in factors.iter().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for v in &mut out.values[lo..hi] {
                *v *= factor;
            }
        }
        Ok(out)
    }

    /// Scales each column `c` by `factors[c]`.
    pub fn scale_cols(&self, factors: &[f32]) -> Result<CsrMatrix> {
        if factors.len() != self.cols {
            return Err(MatrixError::BufferLength {
                expected: self.cols,
                actual: factors.len(),
            });
        }
        let mut out = self.clone();
        for k in 0..out.values.len() {
            out.values[k] *= factors[out.col_idx[k] as usize];
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triples = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                triples.push((c, r as u32, v));
            }
        }
        CsrMatrix::from_triples(self.cols, self.rows, triples)
            .expect("transposed indices remain in bounds")
    }

    /// Adds the identity matrix (self-loops) to a square matrix.
    pub fn add_identity(&self) -> Result<CsrMatrix> {
        if self.rows != self.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "add_identity",
                lhs: self.shape(),
                rhs: (self.cols, self.rows),
            });
        }
        let mut triples: Vec<(u32, u32, f32)> = Vec::with_capacity(self.nnz() + self.rows);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let mut has_diag = false;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let v = if c as usize == r {
                    has_diag = true;
                    v + 1.0
                } else {
                    v
                };
                triples.push((r as u32, c, v));
            }
            if !has_diag {
                triples.push((r as u32, r as u32, 1.0));
            }
        }
        CsrMatrix::from_triples(self.rows, self.cols, triples)
    }

    /// Number of non-zeros falling inside the block `[r0, r1) x [c0, c1)`.
    pub fn block_nnz(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> usize {
        let r1 = r1.min(self.rows);
        (r0..r1)
            .map(|r| {
                let (cols, _) = self.row(r);
                // Column indices within a CSR row are sorted, so the block
                // membership can be found with two binary searches.
                let lo = cols.partition_point(|&c| (c as usize) < c0);
                let hi = cols.partition_point(|&c| (c as usize) < c1);
                hi - lo
            })
            .sum()
    }

    /// Extracts the block `[r0, r1) x [c0, c1)` as a COO matrix re-based to
    /// the block origin (zero padded at the fringe).
    pub fn block_coo(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> CooMatrix {
        let rows = r1 - r0;
        let cols = c1 - c0;
        let mut entries = Vec::new();
        let rmax = r1.min(self.rows);
        for r in r0..rmax {
            let (rcols, rvals) = self.row(r);
            let lo = rcols.partition_point(|&c| (c as usize) < c0);
            let hi = rcols.partition_point(|&c| (c as usize) < c1);
            for k in lo..hi {
                entries.push(CooEntry::new(
                    (r - r0) as u32,
                    rcols[k] - c0 as u32,
                    rvals[k],
                ));
            }
        }
        CooMatrix::from_entries(rows, cols, entries).expect("rebased indices are in bounds")
    }

    /// Size of the payload in bytes: 4-byte column indices + 4-byte values
    /// plus the row-pointer array (8 bytes per row on a 64-bit host; the
    /// accelerator's COO stream is accounted separately in `CooMatrix`).
    pub fn size_bytes(&self) -> usize {
        self.col_idx.len() * 4 + self.values.len() * 4 + self.row_ptr.len() * 8
    }
}

dispatched! {
    /// The SpDMM row loop shared by the whole-kernel `_into` kernels and the
    /// block-granular [`CsrMatrix::spmm_dense_rows_into`]: each output row of
    /// `x × Y` (`Y` row-major in `ys`, `d` wide) from row `row0` on is
    /// zeroed, then the GEMM row kernel's register-tile ladder streams the
    /// CSR row's `(col, val)` pairs through it — the paper's Reduce Unit,
    /// which keeps a partial output row on chip while the edges stream by.
    /// Stored columns increase, so every output element receives
    /// [`gemm_reference`](crate::ops::gemm_reference)'s additions in its
    /// order from the same `+0.0`, whatever the row partition.
    fn spmm_dense_rows_rm(x: &CsrMatrix, ys: &[f32], d: usize, row0: usize, out_rows: &mut [f32]) {
        for (i, out_row) in out_rows.chunks_exact_mut(d).enumerate() {
            let (cols, vals) = x.row(row0 + i);
            out_row.fill(0.0);
            accumulate_row(cols, vals, ys, out_row);
        }
    }
}

dispatched! {
    /// [`spmm_dense_rows_rm`] counting the rows' stored columns into the one
    /// counter row of `counter`, one counter per block column of its
    /// `ColumnBlocks` (the rows of a call belong to one profile grid row),
    /// as the first register tile
    /// streams them ([`accumulate_row_counted`]), then probing the rows'
    /// stored values, contiguous and still in cache, in one pass: the Update
    /// gather over a CSR-stored kernel input.  Returns whether every stored
    /// value of the rows is finite.
    fn spmm_dense_rows_counted_rm(
        x: &CsrMatrix,
        ys: &[f32],
        d: usize,
        row0: usize,
        out_rows: &mut [f32],
        counter: (ColumnBlocks, &mut [usize]),
    ) -> bool {
        let (blocks, counts) = counter;
        for (i, out_row) in out_rows.chunks_exact_mut(d).enumerate() {
            let (cols, vals) = x.row(row0 + i);
            out_row.fill(0.0);
            accumulate_row_counted(cols, vals, ys, out_row, blocks, counts);
        }
        let mut probe = FiniteProbe::new();
        probe_values(x.stored_rows(row0, row0 + out_rows.len() / d).1, &mut probe);
        probe.finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> DenseMatrix {
        DenseMatrix::from_row_major(
            3,
            4,
            vec![
                1.0, 0.0, 0.0, 2.0, //
                0.0, 0.0, 3.0, 0.0, //
                4.0, 0.0, 0.0, 5.0,
            ],
        )
        .unwrap()
    }

    #[test]
    fn dense_round_trip() {
        let d = sample_dense();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 5);
        assert!(csr.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn coo_round_trip() {
        let d = sample_dense();
        let coo = CooMatrix::from_dense(&d);
        let csr = CsrMatrix::from_coo(&coo);
        assert!(csr.to_coo().to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn from_triples_sorts_and_validates() {
        let csr = CsrMatrix::from_triples(2, 2, vec![(1, 1, 4.0), (0, 0, 1.0)]).unwrap();
        assert_eq!(csr.row(0), (&[0u32][..], &[1.0f32][..]));
        assert_eq!(csr.row(1), (&[1u32][..], &[4.0f32][..]));
        assert!(CsrMatrix::from_triples(2, 2, vec![(5, 0, 1.0)]).is_err());
    }

    #[test]
    fn spmm_dense_matches_dense_matmul() {
        let a = sample_dense();
        let b = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f32);
        let csr = CsrMatrix::from_dense(&a);
        let got = csr.spmm_dense(&b).unwrap();
        let want = crate::ops::gemm_reference(&a, &b).unwrap();
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn spmm_dense_shape_check() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let bad = DenseMatrix::zeros(3, 3);
        assert!(csr.spmm_dense(&bad).is_err());
    }

    #[test]
    fn spgemm_matches_dense_matmul() {
        let a = sample_dense();
        let b = DenseMatrix::from_fn(4, 5, |r, c| {
            if (r + c) % 3 == 0 {
                (r * c) as f32 + 1.0
            } else {
                0.0
            }
        });
        let got = CsrMatrix::from_dense(&a)
            .spgemm(&CsrMatrix::from_dense(&b))
            .unwrap()
            .to_dense();
        let want = crate::ops::gemm_reference(&a, &b).unwrap();
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn spmm_dense_into_reuses_the_buffer_and_matches() {
        let a = sample_dense();
        let b = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f32 - 1.5);
        let csr = CsrMatrix::from_dense(&a);
        let want = crate::ops::gemm_reference(&a, &b).unwrap();
        let mut out = DenseMatrix::zeros(0, 0);
        csr.spmm_dense_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), want.as_slice());
        // Second product into the same buffer overwrites cleanly.
        csr.spmm_dense_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), want.as_slice());
    }

    #[test]
    fn row_kernels_count_into_a_counter_row_of_the_right_length_only() {
        let x = CsrMatrix::from_dense(&sample_dense());
        let y = DenseMatrix::from_fn(4, 2, |r, c| (r + c) as f32 + 1.0);
        let ys = CsrMatrix::from_dense(&y);
        let mut out = vec![0.0; 3 * 2];
        // Four columns in 2-wide block columns: two counters.
        assert!(x
            .spmm_dense_rows_into(&y, 0, &mut out, 2, &mut [0; 3])
            .is_err());
        assert!(x
            .spgemm_rows_dense_into(&ys, 0, &mut out, 2, &mut [0; 1])
            .is_err());
        for gustavson in [false, true] {
            let mut counts = [0; 2];
            let finite = if gustavson {
                x.spgemm_rows_dense_into(&ys, 0, &mut out, 2, &mut counts)
            } else {
                x.spmm_dense_rows_into(&y, 0, &mut out, 2, &mut counts)
            };
            assert!(finite.unwrap());
            assert_eq!(counts, [2, 3], "Gustavson {gustavson}");
        }
    }

    #[test]
    fn spgemm_with_scratch_reuse_matches_fresh_product() {
        let a = CsrMatrix::from_dense(&sample_dense());
        let b = CsrMatrix::from_dense(&DenseMatrix::from_fn(4, 6, |r, c| {
            if (r + 2 * c) % 3 == 0 {
                1.0 + (r * c) as f32
            } else {
                0.0
            }
        }));
        let want = a.spgemm(&b).unwrap();
        let mut scratch = SpGemmScratch::new();
        let first = a.spgemm_with(&b, &mut scratch).unwrap();
        assert_eq!(first, want);
        // Recycle the output buffers and run again: same result.
        scratch.reclaim(first.into_parts());
        let second = a.spgemm_with(&b, &mut scratch).unwrap();
        assert_eq!(second, want);
    }

    #[test]
    fn map_retain_applies_and_compacts_in_place() {
        let mut csr = CsrMatrix::from_dense(
            &DenseMatrix::from_row_major(2, 3, vec![-1.0, 2.0, 0.0, 3.0, -4.0, 5.0]).unwrap(),
        );
        csr.map_retain(|v| v.max(0.0)); // ReLU
        let d = csr.to_dense();
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 0), 3.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(d.get(1, 2), 5.0);
        assert_eq!(csr.nnz(), 3);
        // Scaling keeps every entry.
        csr.map_retain(|v| v * 2.0);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.to_dense().get(1, 2), 10.0);
    }

    #[test]
    fn parts_round_trip() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let want = csr.clone();
        let (rp, ci, vs) = csr.into_parts();
        let back = CsrMatrix::from_parts(3, 4, rp, ci, vs);
        assert_eq!(back, want);
    }

    #[test]
    fn to_dense_into_reuses_buffer() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let mut out = DenseMatrix::zeros(7, 9);
        csr.to_dense_into(&mut out);
        assert!(out.approx_eq(&sample_dense(), 0.0));
    }

    #[test]
    fn spmv_matches_manual() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let y = csr.spmv(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(y, vec![1.0 + 8.0, 9.0, 4.0 + 20.0]);
        assert!(csr.spmv(&[1.0]).is_err());
    }

    #[test]
    fn scaling_rows_and_cols() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let rs = csr.scale_rows(&[2.0, 3.0, 0.5]).unwrap().to_dense();
        assert_eq!(rs.get(0, 3), 4.0);
        assert_eq!(rs.get(1, 2), 9.0);
        assert_eq!(rs.get(2, 0), 2.0);
        let cs = csr.scale_cols(&[1.0, 1.0, 2.0, 10.0]).unwrap().to_dense();
        assert_eq!(cs.get(0, 3), 20.0);
        assert_eq!(cs.get(1, 2), 6.0);
    }

    #[test]
    fn transpose_round_trip() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let t = csr.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert!(t.transpose().to_dense().approx_eq(&csr.to_dense(), 0.0));
    }

    #[test]
    fn add_identity_adds_self_loops() {
        let a = CsrMatrix::from_triples(3, 3, vec![(0, 1, 1.0), (1, 1, 2.0)]).unwrap();
        let with_loops = a.add_identity().unwrap();
        let d = with_loops.to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(2, 2), 1.0);
        assert_eq!(d.get(0, 1), 1.0);
        assert!(CsrMatrix::empty(2, 3).add_identity().is_err());
    }

    #[test]
    fn block_nnz_matches_block_coo() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        for (r0, r1, c0, c1) in [(0, 2, 0, 2), (1, 3, 2, 4), (0, 3, 0, 4), (2, 5, 3, 6)] {
            assert_eq!(
                csr.block_nnz(r0, r1, c0, c1),
                csr.block_coo(r0, r1, c0, c1).nnz(),
                "block ({r0},{r1},{c0},{c1})"
            );
        }
    }

    #[test]
    fn row_accessors() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 1);
        let (cols, vals) = csr.row(2);
        assert_eq!(cols, &[0, 3]);
        assert_eq!(vals, &[4.0, 5.0]);
    }

    #[test]
    fn density_and_size() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        assert!((csr.density() - 5.0 / 12.0).abs() < 1e-12);
        assert_eq!(csr.size_bytes(), 5 * 8 + 4 * 8);
    }
}
