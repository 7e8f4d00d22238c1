//! Synthetic graph and feature generators.
//!
//! Real-world graphs (Fig. 1 of the paper) are extremely sparse and have
//! heavy-tailed degree distributions, which is what makes block-level density
//! variation — and therefore fine-grained kernel-to-primitive mapping —
//! worthwhile.  The generators here produce seeded synthetic graphs with a
//! prescribed vertex count, edge count and power-law degree skew
//! (Chung–Lu-style sampling), and feature matrices with a prescribed density.

use crate::features::FeatureMatrix;
use crate::graph::Graph;
use dynasparse_matrix::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Parameters of the power-law graph generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target number of (directed) edges; the generated count matches this
    /// exactly after duplicate removal and resampling.
    pub num_edges: usize,
    /// Power-law exponent of the expected-degree sequence (2.0–3.0 covers the
    /// paper's graphs; larger = more skewed toward a few hubs).
    pub exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            num_vertices: 1000,
            num_edges: 5000,
            exponent: 2.5,
            seed: 0,
        }
    }
}

/// Generates a directed graph whose in/out endpoints are drawn from a
/// power-law expected-degree sequence (Chung–Lu sampling).  Exactly
/// `config.num_edges` distinct edges are produced (self-edges allowed but
/// rare), provided the graph is large enough to host them.
pub fn power_law_graph(name: impl Into<String>, config: &PowerLawConfig) -> Graph {
    let n = config.num_vertices;
    let target = config
        .num_edges
        .min(n.saturating_mul(n).saturating_sub(1).max(1));
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Expected-degree weights w_i ∝ (i+1)^(-1/(exponent-1)) after a random
    // permutation so hubs are spread over the vertex-id space (otherwise all
    // dense blocks would cluster at the top-left corner of A).
    let alpha = 1.0 / (config.exponent - 1.0).max(0.5);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    // Fisher–Yates shuffle of the weight assignment.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    // Cumulative distribution for binary-search sampling.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &w in &weights {
        acc += w;
        cdf.push(acc);
    }
    let total = acc;

    let sample_vertex = |rng: &mut StdRng| -> u32 {
        let x = rng.gen_range(0.0..total);
        cdf.partition_point(|&c| c <= x) as u32
    };

    let mut edges = std::collections::HashSet::with_capacity(target);
    // The loop terminates because `target` never exceeds the number of
    // possible distinct pairs.
    let mut guard = 0usize;
    while edges.len() < target {
        let src = sample_vertex(&mut rng);
        let dst = sample_vertex(&mut rng);
        edges.insert((src, dst));
        guard += 1;
        if guard > target.saturating_mul(1000).max(1_000_000) {
            // Extremely dense request relative to the weight skew: fall back
            // to uniform sampling to finish.
            while edges.len() < target {
                let src = rng.gen_range(0..n) as u32;
                let dst = rng.gen_range(0..n) as u32;
                edges.insert((src, dst));
            }
        }
    }
    // The set iterates in a per-process hash order, which the graph does not
    // see: the edges are distinct and all weigh 1.0, and `from_triples`
    // orders them by position.
    let edge_vec: Vec<(u32, u32)> = edges.into_iter().collect();
    Graph::from_edges(name, n, &edge_vec)
}

/// Generates a dense feature matrix of shape `num_vertices × dim` whose
/// non-zeros appear with probability `density`; values are non-negative
/// (bag-of-words-like), drawn uniformly from `(0, 1]`.
pub fn dense_features(num_vertices: usize, dim: usize, density: f64, seed: u64) -> FeatureMatrix {
    let density = density.clamp(0.0, 1.0);
    let rows: Vec<Vec<f32>> = (0..num_vertices)
        .into_par_iter()
        .map(|r| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (0..dim)
                .map(|_| {
                    if rng.gen_bool(density) {
                        rng.gen_range(0.0f32..1.0) + f32::EPSILON
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let data: Vec<f32> = rows.into_iter().flatten().collect();
    FeatureMatrix::Dense(
        DenseMatrix::from_row_major(num_vertices, dim, data).expect("sized buffer"),
    )
}

/// Generates a sparse (CSR-backed) feature matrix; use for very
/// high-dimensional, very sparse inputs such as NELL where a dense buffer
/// would not fit in memory.
pub fn sparse_features(num_vertices: usize, dim: usize, density: f64, seed: u64) -> FeatureMatrix {
    let density = density.clamp(0.0, 1.0);
    let expected_per_row = (density * dim as f64).max(0.0);
    let rows: Vec<Vec<(u32, f32)>> = (0..num_vertices)
        .into_par_iter()
        .map(|r| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            // Poisson-ish approximation: sample a count around the expected
            // value, then distinct positions.
            let jitter: f64 = rng.gen_range(0.5..1.5);
            let count = ((expected_per_row * jitter).round() as usize).min(dim);
            let mut cols = std::collections::HashSet::with_capacity(count);
            while cols.len() < count {
                cols.insert(rng.gen_range(0..dim) as u32);
            }
            // Values are drawn in column order: the set iterates in an order
            // its per-process hash keys decide, which must not reach the
            // values a seed gives.
            let mut cols: Vec<u32> = cols.into_iter().collect();
            cols.sort_unstable();
            cols.into_iter()
                .map(|c| (c, rng.gen_range(0.0f32..1.0) + f32::EPSILON))
                .collect()
        })
        .collect();
    let mut triples = Vec::new();
    for (r, row) in rows.into_iter().enumerate() {
        for (c, v) in row {
            triples.push((r as u32, c, v));
        }
    }
    FeatureMatrix::Sparse(
        CsrMatrix::from_triples(num_vertices, dim, triples).expect("generated indices in bounds"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_graph_matches_requested_counts() {
        let cfg = PowerLawConfig {
            num_vertices: 500,
            num_edges: 2500,
            exponent: 2.5,
            seed: 13,
        };
        let g = power_law_graph("test", &cfg);
        assert_eq!(g.num_vertices(), 500);
        assert_eq!(g.num_edges(), 2500);
    }

    #[test]
    fn power_law_graph_is_deterministic_per_seed() {
        let cfg = PowerLawConfig {
            num_vertices: 200,
            num_edges: 800,
            exponent: 2.2,
            seed: 7,
        };
        let a = power_law_graph("a", &cfg);
        let b = power_law_graph("b", &cfg);
        assert_eq!(a.adjacency(), b.adjacency());
        let cfg2 = PowerLawConfig { seed: 8, ..cfg };
        let c = power_law_graph("c", &cfg2);
        assert_ne!(a.adjacency(), c.adjacency());
    }

    #[test]
    fn power_law_graph_has_skewed_degrees() {
        let cfg = PowerLawConfig {
            num_vertices: 2000,
            num_edges: 10_000,
            exponent: 2.1,
            seed: 3,
        };
        let g = power_law_graph("skew", &cfg);
        let max = g.max_degree() as f64;
        let avg = g.average_degree();
        assert!(
            max > 8.0 * avg,
            "expected a heavy tail: max degree {max}, average {avg}"
        );
    }

    #[test]
    fn edge_count_is_capped_by_possible_pairs() {
        let cfg = PowerLawConfig {
            num_vertices: 4,
            num_edges: 1000,
            exponent: 2.5,
            seed: 1,
        };
        let g = power_law_graph("tiny", &cfg);
        assert!(g.num_edges() <= 16);
    }

    #[test]
    fn dense_features_have_requested_density() {
        let f = dense_features(300, 64, 0.25, 11);
        assert_eq!(f.shape(), (300, 64));
        assert!((f.density() - 0.25).abs() < 0.03, "density {}", f.density());
        assert!(!f.is_sparse());
    }

    #[test]
    fn dense_features_full_density_is_fully_dense() {
        let f = dense_features(50, 32, 1.0, 5);
        assert_eq!(f.nnz(), 50 * 32);
    }

    #[test]
    fn sparse_features_have_requested_density() {
        let f = sparse_features(400, 1000, 0.01, 17);
        assert!(f.is_sparse());
        assert!(
            (f.density() - 0.01).abs() < 0.005,
            "density {}",
            f.density()
        );
    }

    #[test]
    fn feature_generation_is_deterministic() {
        let bits = |f: &FeatureMatrix| -> Vec<u32> {
            f.to_dense()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let a = dense_features(40, 16, 0.5, 99);
        let b = dense_features(40, 16, 0.5, 99);
        assert_eq!(bits(&a), bits(&b));
        let s1 = sparse_features(40, 64, 0.1, 99);
        let s2 = sparse_features(40, 64, 0.1, 99);
        assert_eq!(bits(&s1), bits(&s2));
    }

    /// `checksum` of `sparse_features(12, 40, 0.2, 7)` and of
    /// `dense_features(12, 40, 0.2, 7)`.
    const SPARSE_CHECKSUM: u64 = 0x97d6_c98d_3afc_f5d2;
    const DENSE_CHECKSUM: u64 = 0xdd48_7587_46d1_7aa1;

    /// FNV-1a over the bits of `f`'s dense form.
    fn checksum(f: &FeatureMatrix) -> u64 {
        f.to_dense()
            .as_slice()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn seeded_features_are_a_pure_function_of_the_seed() {
        // Pinned values: two calls in one process agree whatever the hash
        // order, so only a constant catches a value that depends on the
        // process (a `HashSet`'s iteration order is keyed per process).
        assert_eq!(checksum(&sparse_features(12, 40, 0.2, 7)), SPARSE_CHECKSUM);
        assert_eq!(checksum(&dense_features(12, 40, 0.2, 7)), DENSE_CHECKSUM);
    }

    #[test]
    fn feature_values_are_nonnegative() {
        let f = dense_features(30, 30, 0.4, 21);
        assert!(f.to_dense().as_slice().iter().all(|&v| v >= 0.0));
    }
}
