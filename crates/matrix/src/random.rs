//! Seeded random matrix generators used by tests, examples and the synthetic
//! dataset builders.

use crate::coo::{CooEntry, CooMatrix};
use crate::dense::DenseMatrix;
use rand::Rng;

/// Generates a dense `rows × cols` matrix in which each element is non-zero
/// with probability `density`; non-zero values are uniform in `[-1, 1)`
/// excluding exact zero.
pub fn random_dense(rng: &mut impl Rng, rows: usize, cols: usize, density: f64) -> DenseMatrix {
    let density = density.clamp(0.0, 1.0);
    DenseMatrix::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(density) {
            nonzero_value(rng)
        } else {
            0.0
        }
    })
}

/// Generates a sparse `rows × cols` COO matrix with an *expected* number of
/// non-zeros of `density · rows · cols`, sampling each element independently.
pub fn random_coo(rng: &mut impl Rng, rows: usize, cols: usize, density: f64) -> CooMatrix {
    let density = density.clamp(0.0, 1.0);
    let mut entries = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(density) {
                entries.push(CooEntry::new(r as u32, c as u32, nonzero_value(rng)));
            }
        }
    }
    CooMatrix::from_entries(rows, cols, entries).expect("generated indices are in bounds")
}

/// Generates a sparse matrix with an exact non-zero count `nnz` placed at
/// distinct uniformly random positions.  Used when a dataset's edge count
/// must match the paper's Table VI exactly.
pub fn random_coo_exact_nnz(rng: &mut impl Rng, rows: usize, cols: usize, nnz: usize) -> CooMatrix {
    let total = rows * cols;
    let nnz = nnz.min(total);
    let mut positions = std::collections::HashSet::with_capacity(nnz);
    while positions.len() < nnz {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        positions.insert((r, c));
    }
    // Values are drawn in position order, not in the set's per-process hash
    // order, so a seed fixes them.
    let mut positions: Vec<(usize, usize)> = positions.into_iter().collect();
    positions.sort_unstable();
    let entries = positions
        .into_iter()
        .map(|(r, c)| CooEntry::new(r as u32, c as u32, nonzero_value(rng)))
        .collect();
    CooMatrix::from_entries(rows, cols, entries).expect("generated indices are in bounds")
}

/// Dense matrix with Xavier/Glorot-uniform entries (used for GNN weights).
pub fn xavier_uniform(rng: &mut impl Rng, rows: usize, cols: usize) -> DenseMatrix {
    let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
}

fn nonzero_value(rng: &mut impl Rng) -> f32 {
    loop {
        let v: f32 = rng.gen_range(-1.0..1.0);
        if v != 0.0 {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_dense_density_is_close_to_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = random_dense(&mut rng, 200, 200, 0.3);
        assert!(
            (m.density() - 0.3).abs() < 0.02,
            "density = {}",
            m.density()
        );
    }

    #[test]
    fn random_dense_extreme_densities() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(random_dense(&mut rng, 50, 50, 0.0).nnz(), 0);
        assert_eq!(random_dense(&mut rng, 50, 50, 1.0).nnz(), 2500);
    }

    #[test]
    fn random_coo_matches_dense_semantics() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = random_coo(&mut rng, 100, 100, 0.1);
        assert!((m.density() - 0.1).abs() < 0.03);
        assert!(m.is_sorted());
    }

    #[test]
    fn exact_nnz_is_exact() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = random_coo_exact_nnz(&mut rng, 64, 64, 500);
        assert_eq!(m.nnz(), 500);
        let full = random_coo_exact_nnz(&mut rng, 4, 4, 100);
        assert_eq!(full.nnz(), 16);
    }

    #[test]
    fn xavier_bound_is_respected() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = xavier_uniform(&mut rng, 64, 16);
        let bound = (6.0f64 / 80.0).sqrt() as f32 + 1e-6;
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(w.density() > 0.99);
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = random_dense(&mut StdRng::seed_from_u64(42), 10, 10, 0.5);
        let b = random_dense(&mut StdRng::seed_from_u64(42), 10, 10, 0.5);
        assert_eq!(a, b);
        let exact = || random_coo_exact_nnz(&mut StdRng::seed_from_u64(42), 30, 30, 200);
        assert_eq!(exact().to_dense(), exact().to_dense());
    }
}
