//! Dense matrix container with explicit storage layout.

use crate::error::{MatrixError, Result};
use crate::is_nonzero;
use crate::isa::dispatched;
use crate::layout::Layout;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel for "nnz not computed yet / invalidated".
///
/// The cache stores `nnz + 1`, so the sentinel is 0 — deliberately the value
/// a `#[serde(skip)]`-ped field defaults to under a real (registry) serde
/// build: a deserialized matrix starts with an *unknown* count rather than
/// silently claiming zero non-zeros (which the dispatcher would turn into
/// skipped kernels and all-zero outputs).
const NNZ_UNKNOWN: usize = 0;

/// Encodes a known nnz value for the cache.
#[inline]
const fn encode_nnz(nnz: usize) -> usize {
    nnz + 1
}

/// A dense `f32` matrix.
///
/// The element order in the backing buffer is governed by [`Layout`]; the
/// accessors hide the layout so that algorithmic code can be written once.
/// The layout matters for the accelerator model, which charges Layout
/// Transformation Unit cycles when an execution mode needs the other order.
///
/// The non-zero count is cached after the first [`DenseMatrix::nnz`] /
/// [`DenseMatrix::density`] call and invalidated by every mutating accessor,
/// so repeated density queries (the Analyzer asks per kernel per strategy)
/// cost one atomic load instead of a full buffer scan.
#[derive(Debug, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    layout: Layout,
    data: Vec<f32>,
    /// Cached non-zero count; `NNZ_UNKNOWN` when stale.  Atomic (not `Cell`)
    /// so the matrix stays `Send + Sync` for plan sharing.
    #[serde(skip)]
    nnz_cache: AtomicUsize,
}

impl Clone for DenseMatrix {
    fn clone(&self) -> Self {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
            data: self.data.clone(),
            nnz_cache: AtomicUsize::new(self.nnz_cache.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.layout == other.layout
            && self.data == other.data
    }
}

impl DenseMatrix {
    /// Creates a zero-filled matrix in row-major order.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            layout: Layout::RowMajor,
            data: vec![0.0; rows * cols],
            nnz_cache: AtomicUsize::new(encode_nnz(0)),
        }
    }

    /// Creates a zero-filled matrix with an explicit layout.
    pub fn zeros_with_layout(rows: usize, cols: usize, layout: Layout) -> Self {
        DenseMatrix {
            rows,
            cols,
            layout,
            data: vec![0.0; rows * cols],
            nnz_cache: AtomicUsize::new(encode_nnz(0)),
        }
    }

    /// Builds a matrix from a row-major element buffer.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::BufferLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix {
            rows,
            cols,
            layout: Layout::RowMajor,
            data,
            nnz_cache: AtomicUsize::new(NNZ_UNKNOWN),
        })
    }

    /// Marks the cached non-zero count stale; every mutating accessor calls
    /// this.
    #[inline]
    fn invalidate_nnz(&self) {
        self.nnz_cache.store(NNZ_UNKNOWN, Ordering::Relaxed);
    }

    /// Reshapes this matrix in place to a zero-filled `rows × cols` row-major
    /// matrix, reusing the backing allocation when its capacity suffices.
    /// This is the arena-reuse primitive: steady-state kernel outputs are
    /// `reset` (no allocation) and then written by an `_into` kernel.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.layout = Layout::RowMajor;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.nnz_cache.store(encode_nnz(0), Ordering::Relaxed);
    }

    /// Reshapes this matrix to `rows × cols` row-major **without zeroing**
    /// when the backing buffer already holds exactly that many elements; the
    /// previous contents are unspecified afterwards, so this is only valid
    /// when the caller overwrites (or explicitly zeroes) every element —
    /// the block kernels of the dispatching executor do, which lets
    /// steady-state passes skip a full-buffer memset that the subsequent
    /// writes would make redundant.  Falls back to [`DenseMatrix::reset`] (zero-filled)
    /// when the element count differs.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        if self.data.len() == rows * cols {
            self.rows = rows;
            self.cols = cols;
            self.layout = Layout::RowMajor;
            self.invalidate_nnz();
        } else {
            self.reset(rows, cols);
        }
    }

    /// Overwrites this matrix with the contents of `other`, reusing the
    /// backing allocation when possible (a shape-preserving `clone_from`).
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.layout = other.layout;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        self.nnz_cache
            .store(other.nnz_cache.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        DenseMatrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// Total number of elements (zero or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage layout of the backing buffer.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Raw backing buffer (in `self.layout()` order).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw backing buffer (in `self.layout()` order).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.invalidate_nnz();
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[self.layout.offset(row, col, self.rows, self.cols)]
    }

    /// Checked element accessor.
    pub fn try_get(&self, row: usize, col: usize) -> Result<f32> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(self.get(row, col))
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        let off = self.layout.offset(row, col, self.rows, self.cols);
        self.data[off] = value;
        self.invalidate_nnz();
    }

    /// Adds `value` to element `(row, col)`.
    #[inline]
    pub fn add_assign_at(&mut self, row: usize, col: usize, value: f32) {
        let off = self.layout.offset(row, col, self.rows, self.cols);
        self.data[off] += value;
        self.invalidate_nnz();
    }

    /// Copies a row into a freshly allocated vector (works for any layout).
    pub fn row(&self, row: usize) -> Vec<f32> {
        (0..self.cols).map(|c| self.get(row, c)).collect()
    }

    /// Borrowed view of a row; only available in row-major layout.
    pub fn row_slice(&self, row: usize) -> Option<&[f32]> {
        match self.layout {
            Layout::RowMajor => Some(&self.data[row * self.cols..(row + 1) * self.cols]),
            Layout::ColMajor => None,
        }
    }

    /// Copies a column into a freshly allocated vector.
    pub fn col(&self, col: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Number of non-zero elements (cached after the first call).
    pub fn nnz(&self) -> usize {
        let cached = self.nnz_cache.load(Ordering::Relaxed);
        if cached != NNZ_UNKNOWN {
            return cached - 1;
        }
        let nnz = count_nonzero(&self.data);
        // A racing writer may store NNZ_UNKNOWN concurrently; both outcomes
        // are valid (either the fresh count or a re-scan on the next call).
        self.nnz_cache.store(encode_nnz(nnz), Ordering::Relaxed);
        nnz
    }

    /// Density = nnz / (rows * cols); an empty matrix has density 0.
    pub fn density(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.len() as f64
        }
    }

    /// Returns a copy of this matrix stored in the other layout.
    ///
    /// This is the software analogue of the Layout Transformation Unit: the
    /// logical matrix is unchanged, only the storage order differs.
    pub fn to_layout(&self, layout: Layout) -> DenseMatrix {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = DenseMatrix::zeros_with_layout(self.rows, self.cols, layout);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c));
            }
        }
        out
    }

    /// This matrix in row-major storage: borrowed when it already is (the
    /// fast path of every kernel), a one-off [`DenseMatrix::to_layout`] copy
    /// (cold path, allocates) for a column-major matrix.
    pub fn row_major(&self) -> Cow<'_, DenseMatrix> {
        if self.layout == Layout::RowMajor {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.to_layout(Layout::RowMajor))
        }
    }

    /// Logical transposition: returns a `cols x rows` matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Extracts the sub-matrix `[r0, r1) x [c0, c1)`, zero-padding any region
    /// that extends past the matrix boundary (partitions at the fringe of a
    /// graph are padded in the accelerator's on-chip buffers the same way).
    pub fn submatrix_padded(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> DenseMatrix {
        let rows = r1 - r0;
        let cols = c1 - c0;
        let mut out = DenseMatrix::zeros(rows, cols);
        let rmax = self.rows.min(r1);
        let cmax = self.cols.min(c1);
        for r in r0..rmax {
            for c in c0..cmax {
                out.set(r - r0, c - c0, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise application of `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
            data: self.data.iter().map(|&v| f(v)).collect(),
            nnz_cache: AtomicUsize::new(NNZ_UNKNOWN),
        }
    }

    /// In-place element-wise application of `f`.  The pass counts the
    /// non-zeros it writes and leaves the count cached, so the density of an
    /// activated kernel output costs no second scan.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        let mut nnz = 0usize;
        // Counted per chunk in 32-bit lanes, which the map's vector loop
        // carries along; a `usize` counter would halve its width.
        for chunk in self.data.chunks_mut(1 << 12) {
            let mut count = 0u32;
            for v in chunk {
                *v = f(*v);
                count += is_nonzero(*v) as u32;
            }
            nnz += count as usize;
        }
        self.nnz_cache.store(encode_nnz(nnz), Ordering::Relaxed);
    }

    /// Element-wise sum of two matrices.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c) + other.get(r, c));
            }
        }
        Ok(out)
    }

    /// Element-wise accumulation `self += other`.
    pub fn add_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.add_assign_at(r, c, other.get(r, c));
            }
        }
        self.invalidate_nnz();
        Ok(())
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> DenseMatrix {
        self.map(|v| v * s)
    }

    /// Maximum absolute difference between two matrices of the same shape.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut m = 0.0f32;
        for r in 0..self.rows {
            for c in 0..self.cols {
                m = m.max((self.get(r, c) - other.get(r, c)).abs());
            }
        }
        Ok(m)
    }

    /// Returns `true` if the two matrices agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Size of the matrix payload in bytes (4 bytes per element, dense).
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }
}

dispatched! {
    /// The number of [`is_nonzero`] elements of `values`, counted per chunk
    /// in 32-bit lanes as [`DenseMatrix::map_inplace`] counts.
    fn count_nonzero(values: &[f32]) -> usize {
        values
            .chunks(1 << 12)
            .map(|chunk| chunk.iter().fold(0u32, |n, &v| n + is_nonzero(v) as u32) as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_row_major(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.row(1), vec![0.0, 3.0, 0.0]);
        assert_eq!(m.col(2), vec![2.0, 0.0]);
    }

    #[test]
    fn buffer_length_is_validated() {
        let err = DenseMatrix::from_row_major(2, 3, vec![1.0; 5]).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::BufferLength {
                expected: 6,
                actual: 5
            }
        ));
    }

    #[test]
    fn try_get_bounds_check() {
        let m = sample();
        assert!(m.try_get(1, 2).is_ok());
        assert!(matches!(
            m.try_get(2, 0),
            Err(MatrixError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn nnz_and_density() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert!((m.density() - 0.5).abs() < 1e-12);
        assert_eq!(DenseMatrix::zeros(0, 5).density(), 0.0);
    }

    #[test]
    fn layout_round_trip_preserves_elements() {
        let m = sample();
        let c = m.to_layout(Layout::ColMajor);
        assert_eq!(c.layout(), Layout::ColMajor);
        for r in 0..2 {
            for col in 0..3 {
                assert_eq!(m.get(r, col), c.get(r, col));
            }
        }
        let back = c.to_layout(Layout::RowMajor);
        assert_eq!(back, m);
    }

    #[test]
    fn transpose_swaps_shape_and_elements() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn identity_behaves() {
        let i = DenseMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(2, 3), 0.0);
    }

    #[test]
    fn submatrix_padded_pads_with_zeros() {
        let m = sample();
        let s = m.submatrix_padded(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), m.get(1, 2));
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.get(1, 1), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let m = sample();
        let two = m.add(&m).unwrap();
        assert!(two.approx_eq(&m.scale(2.0), 1e-6));
        let mut acc = DenseMatrix::zeros(2, 3);
        acc.add_assign(&m).unwrap();
        acc.add_assign(&m).unwrap();
        assert!(acc.approx_eq(&two, 1e-6));
        assert!(m.add(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn row_slice_only_in_row_major() {
        let m = sample();
        assert_eq!(m.row_slice(0).unwrap(), &[1.0, 0.0, 2.0]);
        let c = m.to_layout(Layout::ColMajor);
        assert!(c.row_slice(0).is_none());
    }

    #[test]
    fn frobenius_norm_and_diff() {
        let m = DenseMatrix::from_row_major(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        let n = DenseMatrix::from_row_major(1, 2, vec![3.0, 6.0]).unwrap();
        assert!((m.max_abs_diff(&n).unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn size_bytes_counts_dense_payload() {
        assert_eq!(sample().size_bytes(), 6 * 4);
    }

    #[test]
    fn nnz_cache_tracks_mutation() {
        let mut m = sample();
        assert_eq!(m.nnz(), 3);
        // Cached value is used and stays correct after mutation.
        m.set(0, 1, 7.0);
        assert_eq!(m.nnz(), 4);
        m.add_assign_at(0, 1, -7.0);
        assert_eq!(m.nnz(), 3);
        m.map_inplace(|_| 0.0);
        assert_eq!(m.nnz(), 0);
        m.as_mut_slice()[0] = 5.0;
        assert_eq!(m.nnz(), 1);
        // `map_inplace` leaves the count it made while writing: the cached
        // value, not a rescan, answers — and it counts as `is_nonzero` does
        // (`-0.0` and `NaN` are not non-zeros, a denormal is).
        let hostile = vec![-0.0, 1.0e-40, f32::NAN, f32::INFINITY, 0.0, -2.5];
        let mut m = DenseMatrix::from_row_major(2, 3, hostile).unwrap();
        assert_eq!(m.nnz_cache.load(Ordering::Relaxed), NNZ_UNKNOWN);
        m.map_inplace(|v| v);
        assert_eq!(m.nnz_cache.load(Ordering::Relaxed), encode_nnz(3));
        assert_eq!(m.clone().nnz(), 3);
        m.invalidate_nnz();
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut m = DenseMatrix::from_row_major(4, 4, vec![1.0; 16]).unwrap();
        let ptr = m.as_slice().as_ptr();
        m.reset(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.layout(), Layout::RowMajor);
        assert_eq!(m.nnz(), 0);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        // Shrinking reuses the allocation.
        assert_eq!(m.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = sample().to_layout(Layout::ColMajor);
        let mut dst = DenseMatrix::zeros(9, 9);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.layout(), Layout::ColMajor);
        assert_eq!(dst.nnz(), src.nnz());
    }

    #[test]
    fn from_fn_builds_expected_pattern() {
        let m = DenseMatrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.get(2, 1), 7.0);
    }

    #[test]
    fn map_relu_zeroes_negatives() {
        let m = DenseMatrix::from_row_major(1, 4, vec![-1.0, 2.0, -3.0, 0.0]).unwrap();
        let relu = m.map(|v| v.max(0.0));
        assert_eq!(relu.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
        assert_eq!(relu.nnz(), 1);
    }
}
