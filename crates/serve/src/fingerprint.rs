//! Structural fingerprints of (model, graph topology) pairs.
//!
//! The plan cache must answer "have we compiled this exact serving
//! situation before?" without holding on to the model and graph themselves.
//! A [`PlanFingerprint`] digests everything a [`CompiledPlan`] depends on —
//! the model architecture and weight values, the adjacency structure of the
//! graph and the request feature *shape* — into 128 bits.  Two datasets with
//! the same topology
//! but different feature values map to the same fingerprint on purpose: a
//! plan serves any feature matrix of the planned shape, and per-request
//! sparsity is measured at runtime, so feature *content* must not fragment
//! the cache.  The byte-level digest writer is shared with
//! [`ModelFingerprint`] through the private `digest` module.
//!
//! [`CompiledPlan`]: dynasparse::CompiledPlan

use crate::digest::{write_graph, write_model, Fnv128};
use dynasparse_graph::GraphDataset;
use dynasparse_model::GnnModel;
use serde::Serialize;

/// 128-bit structural digest of a (model, graph topology, feature shape)
/// tuple, used as the [`PlanCache`](crate::PlanCache) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PlanFingerprint {
    lo: u64,
    hi: u64,
}

impl PlanFingerprint {
    /// Digests `model` and `dataset` into a cache key.
    ///
    /// Covered: the model architecture (layer/kernel structure, dimensions,
    /// activations) and weight values, the graph adjacency structure
    /// (row pointers, column indices, edge values) and the feature-matrix
    /// shape.  Not covered: feature-matrix *values*, which are per-request
    /// inputs as far as a compiled plan is concerned.
    pub fn of(model: &GnnModel, dataset: &GraphDataset) -> Self {
        let mut h = Fnv128::new();
        write_model(&mut h, model);
        write_graph(&mut h, &dataset.graph);

        // Request shape (not content): a plan only serves matching shapes.
        h.write_str("features");
        h.write_usize(dataset.features.num_vertices());
        h.write_usize(dataset.features.dim());
        let (lo, hi) = h.finish();
        PlanFingerprint { lo, hi }
    }

    /// The digest as a fixed-width hex string (for logs and JSON reports).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// 128-bit structural digest of a model alone — architecture and weight
/// values, no topology — used as the [`TemplateCache`](crate::TemplateCache)
/// key.
///
/// This is the model prefix of [`PlanFingerprint`]: a resident
/// [`ModelTemplate`](dynasparse::ModelTemplate) serves *every* topology, so
/// its cache key must not fragment by graph or feature shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ModelFingerprint {
    lo: u64,
    hi: u64,
}

impl ModelFingerprint {
    /// Digests `model` (architecture + weight values) into a cache key.
    pub fn of(model: &GnnModel) -> Self {
        let mut h = Fnv128::new();
        write_model(&mut h, model);
        let (lo, hi) = h.finish();
        ModelFingerprint { lo, hi }
    }

    /// The digest as a fixed-width hex string (for logs and JSON reports).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_graph::Dataset;
    use dynasparse_model::{GnnModel, GnnModelKind};

    fn fixture(seed: u64, scale: f64) -> (GnnModel, GraphDataset) {
        let ds = Dataset::Cora.spec().generate_scaled(seed, scale);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            16,
            ds.spec.num_classes,
            3,
        );
        (model, ds)
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let (model, ds) = fixture(7, 0.1);
        assert_eq!(
            PlanFingerprint::of(&model, &ds),
            PlanFingerprint::of(&model, &ds)
        );
        assert_eq!(PlanFingerprint::of(&model, &ds).to_hex().len(), 32);
    }

    #[test]
    fn differing_topologies_do_not_collide() {
        let (model, a) = fixture(7, 0.1);
        // Same spec, different seed → different edges → different topology.
        let b = Dataset::Cora.spec().generate_scaled(8, 0.1);
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
        assert_ne!(
            PlanFingerprint::of(&model, &a),
            PlanFingerprint::of(&model, &b)
        );
    }

    #[test]
    fn differing_models_do_not_collide() {
        let (model, ds) = fixture(7, 0.1);
        let other = GnnModel::standard(
            GnnModelKind::Gin,
            ds.features.dim(),
            16,
            ds.spec.num_classes,
            3,
        );
        assert_ne!(
            PlanFingerprint::of(&model, &ds),
            PlanFingerprint::of(&other, &ds)
        );
        // Same architecture, different weights (seed) must also differ.
        let reseeded = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            16,
            ds.spec.num_classes,
            4,
        );
        assert_ne!(
            PlanFingerprint::of(&model, &ds),
            PlanFingerprint::of(&reseeded, &ds)
        );
    }

    #[test]
    fn feature_values_do_not_fragment_the_key() {
        // Two generations with the same seed differ only in nothing; instead
        // craft two datasets sharing graph+shape but different feature
        // content by regenerating features from another seed.
        let (model, mut a) = fixture(7, 0.1);
        let b = fixture(7, 0.1).1;
        let fp = PlanFingerprint::of(&model, &a);
        a.features = dynasparse_graph::generators::dense_features(
            a.features.num_vertices(),
            a.features.dim(),
            0.9,
            99,
        );
        assert_eq!(a.graph.adjacency(), b.graph.adjacency());
        assert_eq!(fp, PlanFingerprint::of(&model, &a));
    }

    #[test]
    fn edge_insertion_order_does_not_change_the_fingerprint() {
        // The fingerprint digests canonical CSR structure, so two graphs
        // built from the same edge set in different insertion orders must
        // map to one key — cache hits cannot depend on how a client
        // enumerated its edges.
        let (model, ds) = fixture(7, 0.1);
        let edges: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (1, 4), (4, 0), (3, 1), (0, 2)];
        let mut reversed = edges.clone();
        reversed.reverse();
        let forward = dynasparse_graph::Graph::from_edges("order-a", 5, &edges);
        let backward = dynasparse_graph::Graph::from_edges("order-b", 5, &reversed);
        assert_eq!(forward.adjacency(), backward.adjacency());

        let features = dynasparse_graph::generators::dense_features(5, model.input_dim, 0.5, 3);
        let make = |graph| GraphDataset {
            spec: ds.spec,
            scale: ds.scale,
            graph,
            features: features.clone(),
        };
        assert_eq!(
            PlanFingerprint::of(&model, &make(forward)),
            PlanFingerprint::of(&model, &make(backward))
        );
    }

    #[test]
    fn an_isolated_vertex_changes_the_fingerprint() {
        // An isolated vertex adds no edges, but it changes the topology (one
        // more row, one more feature row, one more self-loop after
        // normalization) — compiled plans for the two graphs are different,
        // so the keys must be too.
        let (model, ds) = fixture(7, 0.1);
        let edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0)];
        let make = |num_vertices: usize| GraphDataset {
            spec: ds.spec,
            scale: ds.scale,
            graph: dynasparse_graph::Graph::from_edges("iso", num_vertices, &edges),
            features: dynasparse_graph::generators::dense_features(
                num_vertices,
                model.input_dim,
                0.5,
                3,
            ),
        };
        assert_ne!(
            PlanFingerprint::of(&model, &make(3)),
            PlanFingerprint::of(&model, &make(4))
        );
    }

    #[test]
    fn model_fingerprint_ignores_topology_but_not_weights() {
        let (model, a) = fixture(7, 0.1);
        let b = fixture(8, 0.1).1;
        assert_ne!(a.graph.adjacency(), b.graph.adjacency());
        // One model, two topologies: one template key.
        assert_eq!(ModelFingerprint::of(&model), ModelFingerprint::of(&model));
        assert_eq!(ModelFingerprint::of(&model).to_hex().len(), 32);
        // Re-seeded weights: a different template.
        let reseeded = GnnModel::standard(
            GnnModelKind::Gcn,
            a.features.dim(),
            16,
            a.spec.num_classes,
            4,
        );
        assert_ne!(
            ModelFingerprint::of(&model),
            ModelFingerprint::of(&reseeded)
        );
    }
}
