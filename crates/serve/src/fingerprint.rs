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
//! the cache.
//!
//! [`CompiledPlan`]: dynasparse::CompiledPlan

use dynasparse_graph::{Graph, GraphDataset};
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

/// Two independent FNV-1a 64-bit lanes with distinct offset bases; the
/// second lane additionally mixes a running byte counter so lane collisions
/// are uncorrelated.  Not cryptographic — the cache key only needs to
/// separate non-adversarial workloads.
struct Fnv128 {
    lo: u64,
    hi: u64,
    count: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv128 {
    fn new() -> Self {
        Fnv128 {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
            count: 0,
        }
    }

    fn write_bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.count = self.count.wrapping_add(1);
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b) ^ (self.count << 8)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_bytes((v as u64).to_le_bytes());
    }

    fn write_f32s(&mut self, vs: &[f32]) {
        self.write_usize(vs.len());
        for v in vs {
            self.write_bytes(v.to_bits().to_le_bytes());
        }
    }

    fn finish(self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// Digests the model architecture and weight values.  The Debug rendering of
/// the layer specs is a faithful, allocation-light serialization of the
/// kernel DAG (operators, aggregators, weight indices, activations, wiring).
fn write_model(h: &mut Fnv128, model: &GnnModel) {
    h.write_str("model");
    h.write_usize(model.input_dim);
    h.write_usize(model.output_dim);
    h.write_str(&format!("{:?}", model.kind));
    h.write_usize(model.layers.len());
    for layer in &model.layers {
        h.write_str(&format!("{layer:?}"));
    }
    // Weight values: two models with identical shape but different
    // parameters compile to different plans (the static weight-sparsity
    // profile and the served outputs both depend on them).
    h.write_usize(model.weights.len());
    for w in &model.weights {
        h.write_usize(w.rows());
        h.write_usize(w.cols());
        h.write_f32s(w.as_slice());
    }
}

/// Digests the exact CSR structure of the graph's adjacency matrix.
fn write_graph(h: &mut Fnv128, graph: &Graph) {
    let adj = graph.adjacency();
    h.write_str("graph");
    h.write_usize(adj.rows());
    h.write_usize(adj.cols());
    for &p in adj.row_ptr() {
        h.write_usize(p);
    }
    h.write_bytes(adj.col_idx().iter().flat_map(|v| v.to_le_bytes()));
    h.write_f32s(adj.values());
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
}
