//! Vertex feature matrices that may be stored dense or sparse.
//!
//! The input feature matrices of the paper's datasets range from fully dense
//! (Reddit, density 100 %) to extremely sparse (NELL, 61 278 features at
//! 0.01 % density — materialising it densely would need ~16 GB).  The
//! functional executor therefore works on a [`FeatureMatrix`] that keeps the
//! data in whichever representation is tractable and exposes the operations
//! the GNN layers need.

use dynasparse_matrix::{BlockGrid, CsrMatrix, DenseMatrix, DensityProfile, DispatchPolicy};
use serde::{Deserialize, Serialize};

/// A `|V| × f` vertex feature matrix in dense or CSR representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureMatrix {
    /// Dense representation (row-major).
    Dense(DenseMatrix),
    /// Sparse representation.
    Sparse(CsrMatrix),
}

impl FeatureMatrix {
    /// Number of vertices (rows).
    pub fn num_vertices(&self) -> usize {
        match self {
            FeatureMatrix::Dense(d) => d.rows(),
            FeatureMatrix::Sparse(s) => s.rows(),
        }
    }

    /// Feature dimension (columns).
    pub fn dim(&self) -> usize {
        match self {
            FeatureMatrix::Dense(d) => d.cols(),
            FeatureMatrix::Sparse(s) => s.cols(),
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.num_vertices(), self.dim())
    }

    /// Number of non-zero feature values.
    pub fn nnz(&self) -> usize {
        match self {
            FeatureMatrix::Dense(d) => d.nnz(),
            FeatureMatrix::Sparse(s) => s.nnz(),
        }
    }

    /// Density of the feature matrix (the quantity plotted in Fig. 2).
    pub fn density(&self) -> f64 {
        match self {
            FeatureMatrix::Dense(d) => d.density(),
            FeatureMatrix::Sparse(s) => s.density(),
        }
    }

    /// True if the backing representation is sparse.
    pub fn is_sparse(&self) -> bool {
        matches!(self, FeatureMatrix::Sparse(_))
    }

    /// Left-multiplies by a sparse matrix: `A × H` (the Aggregate kernel).
    ///
    /// A dense `H` produces a dense result (aggregation densifies dense
    /// features further).  A sparse `H` runs the Gustavson sparse-sparse
    /// kernel and keeps the result in CSR form while its density stays below
    /// the dispatch threshold — very sparse features (NELL-like inputs) no
    /// longer densify unconditionally on the first Aggregate.
    pub fn aggregate(&self, adjacency: &CsrMatrix) -> dynasparse_matrix::Result<FeatureMatrix> {
        match self {
            FeatureMatrix::Dense(d) => Ok(FeatureMatrix::Dense(adjacency.spmm_dense(d)?)),
            FeatureMatrix::Sparse(s) => {
                let product = adjacency.spgemm(s)?;
                if DispatchPolicy::default().keep_sparse_output(product.density()) {
                    Ok(FeatureMatrix::Sparse(product))
                } else {
                    Ok(FeatureMatrix::Dense(product.to_dense()))
                }
            }
        }
    }

    /// Right-multiplies by a dense weight matrix: `H × W` (the Update
    /// kernel).  A sparse `H` uses the CSR sparse-dense kernel so that huge
    /// sparse inputs (NELL) never materialise densely.
    pub fn update(&self, weight: &DenseMatrix) -> dynasparse_matrix::Result<FeatureMatrix> {
        let dense = match self {
            FeatureMatrix::Dense(d) => dynasparse_matrix::ops::gemm_reference(d, weight)?,
            FeatureMatrix::Sparse(s) => s.spmm_dense(weight)?,
        };
        Ok(FeatureMatrix::Dense(dense))
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> FeatureMatrix {
        match self {
            FeatureMatrix::Dense(d) => FeatureMatrix::Dense(d.map(|v| v.max(0.0))),
            FeatureMatrix::Sparse(s) => {
                let mut out = s.clone();
                out.map_retain(|v| v.max(0.0));
                FeatureMatrix::Sparse(out)
            }
        }
    }

    /// Element-wise addition of two feature matrices of the same shape.
    pub fn add(&self, other: &FeatureMatrix) -> dynasparse_matrix::Result<FeatureMatrix> {
        let a = self.to_dense();
        let b = other.to_dense();
        Ok(FeatureMatrix::Dense(a.add(&b)?))
    }

    /// Scales every element.
    pub fn scale(&self, s: f32) -> FeatureMatrix {
        match self {
            FeatureMatrix::Dense(d) => FeatureMatrix::Dense(d.scale(s)),
            FeatureMatrix::Sparse(m) => {
                let triples: Vec<(u32, u32, f32)> = m
                    .to_coo()
                    .entries()
                    .iter()
                    .map(|e| (e.row, e.col, e.value * s))
                    .collect();
                FeatureMatrix::Sparse(
                    CsrMatrix::from_triples(m.rows(), m.cols(), triples).expect("same indices"),
                )
            }
        }
    }

    /// Dense copy of the features.  Only call this when the dense size is
    /// known to be tractable.
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            FeatureMatrix::Dense(d) => d.clone(),
            FeatureMatrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Borrow the sparse representation if that is what is stored.
    pub fn as_sparse(&self) -> Option<&CsrMatrix> {
        match self {
            FeatureMatrix::Sparse(s) => Some(s),
            FeatureMatrix::Dense(_) => None,
        }
    }

    /// Borrow the dense representation if that is what is stored.
    pub fn as_dense(&self) -> Option<&DenseMatrix> {
        match self {
            FeatureMatrix::Dense(d) => Some(d),
            FeatureMatrix::Sparse(_) => None,
        }
    }

    /// Per-block density profile over `grid` (used by the compiler for `H0`
    /// and by the simulated Sparsity Profiler for intermediate layers).
    pub fn density_profile(&self, grid: &BlockGrid) -> DensityProfile {
        match self {
            FeatureMatrix::Dense(d) => DensityProfile::of_dense(d, grid),
            FeatureMatrix::Sparse(s) => DensityProfile::of_csr(s, grid),
        }
    }

    /// [`FeatureMatrix::density_profile`] written into a caller-provided
    /// profile, reusing its counter allocation — the per-kernel runtime
    /// profiling path of a serving session, which must not allocate per
    /// kernel in steady state.
    pub fn density_profile_into(&self, grid: &BlockGrid, profile: &mut DensityProfile) {
        match self {
            FeatureMatrix::Dense(d) => {
                profile.refit_dense(d, grid);
            }
            FeatureMatrix::Sparse(s) => {
                profile.refit_csr(s, grid);
            }
        }
    }

    /// Bytes occupied by the current representation.
    pub fn size_bytes(&self) -> usize {
        match self {
            FeatureMatrix::Dense(d) => d.size_bytes(),
            FeatureMatrix::Sparse(s) => s.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_matrix::ops::gemm_reference;

    fn small_dense() -> DenseMatrix {
        DenseMatrix::from_row_major(3, 2, vec![1.0, 0.0, -2.0, 3.0, 0.0, 0.0]).unwrap()
    }

    #[test]
    fn shape_and_density_agree_across_representations() {
        let d = small_dense();
        let fd = FeatureMatrix::Dense(d.clone());
        let fs = FeatureMatrix::Sparse(CsrMatrix::from_dense(&d));
        assert_eq!(fd.shape(), (3, 2));
        assert_eq!(fs.shape(), (3, 2));
        assert_eq!(fd.nnz(), fs.nnz());
        assert!((fd.density() - fs.density()).abs() < 1e-12);
        assert!(fs.is_sparse());
        assert!(!fd.is_sparse());
    }

    #[test]
    fn aggregate_matches_dense_reference() {
        let adj =
            CsrMatrix::from_triples(3, 3, vec![(0, 1, 1.0), (1, 0, 0.5), (2, 2, 2.0)]).unwrap();
        let h = small_dense();
        let want = gemm_reference(&adj.to_dense(), &h).unwrap();
        let got_dense = FeatureMatrix::Dense(h.clone()).aggregate(&adj).unwrap();
        let got_sparse = FeatureMatrix::Sparse(CsrMatrix::from_dense(&h))
            .aggregate(&adj)
            .unwrap();
        assert!(got_dense.to_dense().approx_eq(&want, 1e-5));
        assert!(got_sparse.to_dense().approx_eq(&want, 1e-5));
    }

    #[test]
    fn update_matches_dense_reference() {
        let h = small_dense();
        let w = DenseMatrix::from_fn(2, 4, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5));
        let want = gemm_reference(&h, &w).unwrap();
        let got_dense = FeatureMatrix::Dense(h.clone()).update(&w).unwrap();
        let got_sparse = FeatureMatrix::Sparse(CsrMatrix::from_dense(&h))
            .update(&w)
            .unwrap();
        assert!(got_dense.to_dense().approx_eq(&want, 1e-5));
        assert!(got_sparse.to_dense().approx_eq(&want, 1e-5));
    }

    #[test]
    fn relu_zeroes_negatives_in_both_representations() {
        let d = small_dense();
        let rd = FeatureMatrix::Dense(d.clone()).relu();
        let rs = FeatureMatrix::Sparse(CsrMatrix::from_dense(&d)).relu();
        assert!(rd.to_dense().approx_eq(&rs.to_dense(), 0.0));
        assert_eq!(rd.to_dense().get(0, 1), 0.0);
        assert_eq!(rd.nnz(), 2);
    }

    #[test]
    fn add_and_scale() {
        let d = small_dense();
        let f = FeatureMatrix::Dense(d.clone());
        let doubled = f.add(&f).unwrap();
        assert!(doubled.to_dense().approx_eq(&d.scale(2.0), 1e-6));
        let s = FeatureMatrix::Sparse(CsrMatrix::from_dense(&d)).scale(3.0);
        assert!(s.to_dense().approx_eq(&d.scale(3.0), 1e-6));
    }

    #[test]
    fn density_profile_matches_dense_profile() {
        let d = small_dense();
        let grid = BlockGrid::new(3, 2, 2, 2);
        let pd = FeatureMatrix::Dense(d.clone()).density_profile(&grid);
        let ps = FeatureMatrix::Sparse(CsrMatrix::from_dense(&d)).density_profile(&grid);
        assert_eq!(pd, ps);
    }

    #[test]
    fn sparse_aggregate_stays_sparse_below_the_dispatch_threshold() {
        // A 1-in-16 dense feature matrix aggregated by a near-diagonal
        // adjacency keeps a very sparse product: the result must remain CSR.
        let n = 32;
        let adj = CsrMatrix::from_triples(n, n, (0..n as u32).map(|i| (i, i, 1.0))).unwrap();
        let h = DenseMatrix::from_fn(n, 16, |r, c| if (r + c) % 16 == 0 { 1.0 } else { 0.0 });
        let fs = FeatureMatrix::Sparse(CsrMatrix::from_dense(&h));
        let out = fs.aggregate(&adj).unwrap();
        assert!(
            out.is_sparse(),
            "density {} should stay sparse",
            out.density()
        );
        assert!(out.to_dense().approx_eq(&h, 1e-6));
        // A dense product over the threshold densifies.
        let dense_h = DenseMatrix::from_fn(n, 16, |_, _| 1.0);
        let fd = FeatureMatrix::Sparse(CsrMatrix::from_dense(&dense_h));
        assert!(!fd.aggregate(&adj).unwrap().is_sparse());
    }

    #[test]
    fn density_profile_into_matches_allocating_profile() {
        let d = small_dense();
        let grid = BlockGrid::new(3, 2, 2, 2);
        let mut scratch = DensityProfile::default();
        for f in [
            FeatureMatrix::Dense(d.clone()),
            FeatureMatrix::Sparse(CsrMatrix::from_dense(&d)),
        ] {
            f.density_profile_into(&grid, &mut scratch);
            assert_eq!(scratch, f.density_profile(&grid));
        }
    }

    #[test]
    fn accessors_expose_backing_representation() {
        let d = small_dense();
        let fd = FeatureMatrix::Dense(d.clone());
        assert!(fd.as_dense().is_some());
        assert!(fd.as_sparse().is_none());
        let fs = FeatureMatrix::Sparse(CsrMatrix::from_dense(&d));
        assert!(fs.as_sparse().is_some());
        assert!(fs.as_dense().is_none());
        assert!(fs.size_bytes() > 0);
    }
}
