//! Coordinate (COO) sparse matrix format.
//!
//! COO is the on-chip sparse format of Dynasparse (Section V-A of the paper):
//! a non-zero is a `(col, row, value)` triple, and the triples are stored in
//! either row-major order (sorted by row, then column) or column-major order
//! (sorted by column, then row).  The SpDMM mode accepts either order for its
//! sparse operand; the SPMM mode requires row-major order for both operands.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::is_nonzero;
use crate::layout::Layout;
use serde::{Deserialize, Serialize};

/// A single non-zero element of a [`CooMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CooEntry {
    /// Row index of the non-zero.
    pub row: u32,
    /// Column index of the non-zero.
    pub col: u32,
    /// Value of the non-zero.
    pub value: f32,
}

impl CooEntry {
    /// Convenience constructor.
    #[inline]
    pub fn new(row: u32, col: u32, value: f32) -> Self {
        CooEntry { row, col, value }
    }
}

/// Sparse matrix in coordinate format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    order: Layout,
    entries: Vec<CooEntry>,
}

impl CooMatrix {
    /// Creates an empty matrix (no non-zeros) in row-major order.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            order: Layout::RowMajor,
            entries: Vec::new(),
        }
    }

    /// Builds a COO matrix from entries, validating indices and dropping
    /// explicit zeros.  The entries are sorted into row-major order.
    pub fn from_entries(rows: usize, cols: usize, entries: Vec<CooEntry>) -> Result<Self> {
        for e in &entries {
            if e.row as usize >= rows || e.col as usize >= cols {
                return Err(MatrixError::InvalidEntry {
                    row: e.row as usize,
                    col: e.col as usize,
                    shape: (rows, cols),
                });
            }
        }
        let mut entries: Vec<CooEntry> = entries
            .into_iter()
            .filter(|e| is_nonzero(e.value))
            .collect();
        entries.sort_by_key(|e| (e.row, e.col));
        Ok(CooMatrix {
            rows,
            cols,
            order: Layout::RowMajor,
            entries,
        })
    }

    /// Extracts the non-zero pattern of a dense matrix.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut entries = Vec::new();
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if is_nonzero(v) {
                    entries.push(CooEntry::new(r as u32, c as u32, v));
                }
            }
        }
        CooMatrix {
            rows: dense.rows(),
            cols: dense.cols(),
            order: Layout::RowMajor,
            entries,
        }
    }

    /// Materialises the matrix as dense storage (row-major).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for e in &self.entries {
            out.add_assign_at(e.row as usize, e.col as usize, e.value);
        }
        out
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
        self.entries.len()
    }

    /// Density = nnz / (rows*cols); an empty-shape matrix has density 0.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Current element ordering (row-major or column-major).
    #[inline]
    pub fn order(&self) -> Layout {
        self.order
    }

    /// Borrow the entry list in its current order.
    #[inline]
    pub fn entries(&self) -> &[CooEntry] {
        &self.entries
    }

    /// Re-sorts the entries into the requested order.  This mirrors the
    /// Layout Transformation Unit operating on a sparse operand.
    pub fn to_order(&self, order: Layout) -> CooMatrix {
        let mut out = self.clone();
        out.sort_order(order);
        out
    }

    /// In-place re-sort into the requested order.
    pub fn sort_order(&mut self, order: Layout) {
        if self.order == order {
            return;
        }
        match order {
            Layout::RowMajor => self.entries.sort_by_key(|e| (e.row, e.col)),
            Layout::ColMajor => self.entries.sort_by_key(|e| (e.col, e.row)),
        }
        self.order = order;
    }

    /// Transposed copy (rows and columns swapped), in row-major order.
    pub fn transpose(&self) -> CooMatrix {
        let mut entries: Vec<CooEntry> = self
            .entries
            .iter()
            .map(|e| CooEntry::new(e.col, e.row, e.value))
            .collect();
        entries.sort_by_key(|e| (e.row, e.col));
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            order: Layout::RowMajor,
            entries,
        }
    }

    /// Iterator over the entries of row `r` (requires row-major order to be
    /// efficient; falls back to a scan otherwise).
    pub fn row_entries(&self, r: u32) -> Vec<CooEntry> {
        if self.order == Layout::RowMajor {
            let start = self.entries.partition_point(|e| e.row < r);
            let end = self.entries.partition_point(|e| e.row <= r);
            self.entries[start..end].to_vec()
        } else {
            self.entries
                .iter()
                .copied()
                .filter(|e| e.row == r)
                .collect()
        }
    }

    /// Extracts the block `[r0, r1) x [c0, c1)` as its own COO matrix with
    /// indices re-based to the block origin.  Regions past the matrix border
    /// contribute no entries (zero padding).
    pub fn submatrix_padded(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> CooMatrix {
        let rows = r1 - r0;
        let cols = c1 - c0;
        let entries: Vec<CooEntry> = self
            .entries
            .iter()
            .filter(|e| {
                (e.row as usize) >= r0
                    && (e.row as usize) < r1
                    && (e.col as usize) >= c0
                    && (e.col as usize) < c1
            })
            .map(|e| CooEntry::new(e.row - r0 as u32, e.col - c0 as u32, e.value))
            .collect();
        CooMatrix {
            rows,
            cols,
            order: self.order,
            entries,
        }
    }

    /// Number of non-zeros inside the block `[r0, r1) x [c0, c1)` without
    /// materialising the block.  Used by the compile-time sparsity profiler.
    pub fn block_nnz(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> usize {
        self.entries
            .iter()
            .filter(|e| {
                (e.row as usize) >= r0
                    && (e.row as usize) < r1
                    && (e.col as usize) >= c0
                    && (e.col as usize) < c1
            })
            .count()
    }

    /// Size of the payload in bytes: each COO triple is stored as two 32-bit
    /// indices and one 32-bit value (12 bytes), matching the paper's DDR data
    /// rate discussion.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * 12
    }

    /// Checks the internal ordering invariant; used by property tests.
    pub fn is_sorted(&self) -> bool {
        match self.order {
            Layout::RowMajor => self
                .entries
                .windows(2)
                .all(|w| (w[0].row, w[0].col) <= (w[1].row, w[1].col)),
            Layout::ColMajor => self
                .entries
                .windows(2)
                .all(|w| (w[0].col, w[0].row) <= (w[1].col, w[1].row)),
        }
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
        let coo = CooMatrix::from_dense(&d);
        assert_eq!(coo.nnz(), 5);
        assert!(coo.is_sorted());
        assert!(coo.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn from_entries_validates_and_drops_zeros() {
        let ok = CooMatrix::from_entries(
            2,
            2,
            vec![
                CooEntry::new(0, 0, 1.0),
                CooEntry::new(1, 1, 0.0),
                CooEntry::new(1, 0, 2.0),
            ],
        )
        .unwrap();
        assert_eq!(ok.nnz(), 2);
        let err = CooMatrix::from_entries(2, 2, vec![CooEntry::new(2, 0, 1.0)]);
        assert!(matches!(err, Err(MatrixError::InvalidEntry { .. })));
    }

    #[test]
    fn density_matches_dense() {
        let d = sample_dense();
        let coo = CooMatrix::from_dense(&d);
        assert!((coo.density() - d.density()).abs() < 1e-12);
        assert_eq!(CooMatrix::empty(0, 0).density(), 0.0);
    }

    #[test]
    fn order_switching_preserves_content() {
        let coo = CooMatrix::from_dense(&sample_dense());
        let col = coo.to_order(Layout::ColMajor);
        assert_eq!(col.order(), Layout::ColMajor);
        assert!(col.is_sorted());
        assert!(col.to_dense().approx_eq(&coo.to_dense(), 0.0));
        let back = col.to_order(Layout::RowMajor);
        assert_eq!(back.entries(), coo.entries());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = sample_dense();
        let coo = CooMatrix::from_dense(&d);
        assert!(coo.transpose().to_dense().approx_eq(&d.transpose(), 0.0));
    }

    #[test]
    fn row_entries_returns_only_that_row() {
        let coo = CooMatrix::from_dense(&sample_dense());
        let r2 = coo.row_entries(2);
        assert_eq!(r2.len(), 2);
        assert!(r2.iter().all(|e| e.row == 2));
        let col_order = coo.to_order(Layout::ColMajor);
        assert_eq!(col_order.row_entries(2).len(), 2);
    }

    #[test]
    fn submatrix_rebases_indices_and_pads() {
        let coo = CooMatrix::from_dense(&sample_dense());
        let block = coo.submatrix_padded(1, 3, 2, 6);
        assert_eq!(block.shape(), (2, 4));
        let dense_block = sample_dense().submatrix_padded(1, 3, 2, 6);
        assert!(block.to_dense().approx_eq(&dense_block, 0.0));
    }

    #[test]
    fn block_nnz_counts_without_materialising() {
        let coo = CooMatrix::from_dense(&sample_dense());
        assert_eq!(coo.block_nnz(0, 3, 0, 4), 5);
        assert_eq!(coo.block_nnz(0, 1, 0, 2), 1);
        assert_eq!(coo.block_nnz(1, 2, 0, 2), 0);
    }

    #[test]
    fn size_bytes_uses_coo_triples() {
        let coo = CooMatrix::from_dense(&sample_dense());
        assert_eq!(coo.size_bytes(), 5 * 12);
    }
}
