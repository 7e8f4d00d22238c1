//! The shared structural-digest writer behind every cache fingerprint.
//!
//! [`PlanFingerprint`](crate::PlanFingerprint) and
//! [`ModelFingerprint`](crate::ModelFingerprint) digest overlapping
//! structures (the model section of a plan key *is* the template key), so
//! the byte-level writer and the per-structure helpers live here once —
//! a fingerprint module composes sections, it never re-implements digesting.

use dynasparse_graph::Graph;
use dynasparse_model::GnnModel;

/// Two independent FNV-1a 64-bit lanes with distinct offset bases; the
/// second lane additionally mixes a running byte counter so lane collisions
/// are uncorrelated.  Not cryptographic — the cache key only needs to
/// separate non-adversarial workloads.
pub(crate) struct Fnv128 {
    lo: u64,
    hi: u64,
    count: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv128 {
    pub(crate) fn new() -> Self {
        Fnv128 {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
            count: 0,
        }
    }

    pub(crate) fn write_bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.count = self.count.wrapping_add(1);
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b) ^ (self.count << 8)).wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.bytes());
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_bytes((v as u64).to_le_bytes());
    }

    pub(crate) fn write_f32s(&mut self, vs: &[f32]) {
        self.write_usize(vs.len());
        for v in vs {
            self.write_bytes(v.to_bits().to_le_bytes());
        }
    }

    pub(crate) fn finish(self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// Digests the model architecture and weight values.  The Debug rendering of
/// the layer specs is a faithful, allocation-light serialization of the
/// kernel DAG (operators, aggregators, weight indices, activations, wiring).
pub(crate) fn write_model(h: &mut Fnv128, model: &GnnModel) {
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
pub(crate) fn write_graph(h: &mut Fnv128, graph: &Graph) {
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
