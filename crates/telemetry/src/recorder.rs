//! The kernel-span flight recorder and the predicted-vs-measured drift
//! tracker.

use crate::ids::GaugeId;
use crate::registry::Registry;

/// The host primitive a dispatch actually executed. Mirrors the matrix
/// crate's `HostPrimitive` without depending on it (this crate sits below
/// everything else in the workspace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPrimitive {
    /// Dense-dense GEMM.
    Gemm,
    /// Sparse-dense SpDMM.
    SpDmm,
    /// Gustavson sparse-sparse SpGEMM.
    Spmm,
    /// Empty product, skipped outright.
    Skip,
}

impl SpanPrimitive {
    /// A short stable label for exposition.
    pub const fn label(self) -> &'static str {
        match self {
            SpanPrimitive::Gemm => "gemm",
            SpanPrimitive::SpDmm => "spdmm",
            SpanPrimitive::Spmm => "spmm",
            SpanPrimitive::Skip => "skip",
        }
    }
}

/// One kernel dispatch, as observed by the dispatcher: what ran, on what
/// shape and densities, what the cost model predicted and what it actually
/// cost. `Copy` and fixed-size so ring writes never allocate.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpan {
    /// The session-local request ordinal the span belongs to.
    pub request: u64,
    /// Model layer index.
    pub layer: u16,
    /// Kernel index within the layer (aggregate/update position).
    pub kernel: u16,
    /// Row-block index within the kernel on the block-granular dispatch
    /// path, or [`KernelSpan::WHOLE_KERNEL`] for a whole-kernel span.
    pub block: u16,
    /// The primitive that actually executed.
    pub primitive: SpanPrimitive,
    /// Product rows (`m` of `m x n x d`).
    pub m: u32,
    /// Product inner dimension (`n`).
    pub n: u32,
    /// Product columns (`d`).
    pub d: u32,
    /// Density of the left operand as dispatched (stored representation:
    /// dense operands report their cached density, 1.0 when unknown).
    pub alpha_x: f32,
    /// Density of the right operand as dispatched.
    pub alpha_y: f32,
    /// Cost-model prediction in milliseconds (`NaN` when the dispatcher has
    /// no calibrated model, e.g. Table IV regions).
    pub predicted_ms: f32,
    /// Measured wall time of the dispatch in milliseconds.
    pub measured_ms: f32,
}

impl KernelSpan {
    /// The `block` value of a span covering the whole kernel (the one
    /// kernel span every dispatch records, which rolls up its block spans).
    pub const WHOLE_KERNEL: u16 = u16::MAX;

    /// Whether this span covers one row block rather than the whole kernel.
    pub fn is_block(&self) -> bool {
        self.block != Self::WHOLE_KERNEL
    }
}

/// A bounded ring of [`KernelSpan`]s owned by one session.
///
/// The ring is preallocated at construction and overwritten in place once
/// full, so steady-state pushes are allocation-free; `recorded()` keeps the
/// total ever pushed so overflow is visible.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<KernelSpan>,
    head: usize,
    recorded: u64,
}

impl FlightRecorder {
    /// Default ring capacity: enough for several requests of a deep model
    /// without growing a session footprint past a few tens of KiB.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder holding at most `capacity` spans (clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Vec::with_capacity(capacity.max(1)),
            head: 0,
            recorded: 0,
        }
    }

    /// A recorder that retains nothing (used below `trace` level).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder {
            ring: Vec::new(),
            head: 0,
            recorded: 0,
        }
    }

    /// Whether this recorder retains spans.
    pub fn is_enabled(&self) -> bool {
        self.ring.capacity() > 0
    }

    /// Pushes a span, overwriting the oldest once the ring is full.
    pub fn push(&mut self, span: KernelSpan) {
        let cap = self.ring.capacity();
        if cap == 0 {
            return;
        }
        if self.ring.len() < cap {
            self.ring.push(span);
        } else {
            self.ring[self.head] = span;
        }
        self.head = (self.head + 1) % cap;
        self.recorded += 1;
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total spans ever pushed (retained + overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &KernelSpan> {
        let split = if self.ring.len() < self.ring.capacity() {
            0
        } else {
            self.head
        };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// The `n` slowest retained spans, slowest first (allocates; reader
    /// side only).
    pub fn slowest(&self, n: usize) -> Vec<KernelSpan> {
        let mut spans: Vec<KernelSpan> = self.ring.clone();
        spans.sort_by(|a, b| {
            b.measured_ms
                .partial_cmp(&a.measured_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        spans.truncate(n);
        spans
    }

    /// Drops every retained span (capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
    }
}

/// Folds measured-vs-predicted kernel cost ratios into per-primitive EWMA
/// gauges, so an operator can see how far the host fit is from what runs.
/// The gauges only observe: no code path reads them to change the fit.
#[derive(Debug, Clone, Copy)]
pub struct DriftTracker {
    alpha: f64,
}

impl DriftTracker {
    /// Default smoothing factor: a ~20-sample memory, long enough to ride
    /// out scheduler noise, short enough to see a stale fit within a batch.
    pub const DEFAULT_ALPHA: f64 = 0.05;

    /// A tracker with smoothing factor `alpha`.
    pub fn new(alpha: f64) -> DriftTracker {
        DriftTracker { alpha }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Folds one observation into the per-primitive drift gauge. Skipped
    /// kernels, region-policy dispatches (`NaN` prediction) and degenerate
    /// predictions contribute nothing.
    pub fn observe(
        &self,
        registry: &Registry,
        primitive: SpanPrimitive,
        predicted_ms: f64,
        measured_ms: f64,
    ) {
        let gauge = match primitive {
            SpanPrimitive::Gemm => GaugeId::DriftGemm,
            SpanPrimitive::SpDmm => GaugeId::DriftSpdmm,
            SpanPrimitive::Spmm => GaugeId::DriftSpmm,
            SpanPrimitive::Skip => return,
        };
        if !predicted_ms.is_finite() || predicted_ms <= 0.0 || !measured_ms.is_finite() {
            return;
        }
        registry.gauge_ewma(gauge, measured_ms / predicted_ms, self.alpha);
    }
}

impl Default for DriftTracker {
    fn default() -> DriftTracker {
        DriftTracker::new(DriftTracker::DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryLevel;

    fn span(measured_ms: f32) -> KernelSpan {
        KernelSpan {
            request: 0,
            layer: 0,
            kernel: 0,
            block: KernelSpan::WHOLE_KERNEL,
            primitive: SpanPrimitive::Gemm,
            m: 8,
            n: 8,
            d: 8,
            alpha_x: 1.0,
            alpha_y: 1.0,
            predicted_ms: f32::NAN,
            measured_ms,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_total() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..6 {
            rec.push(span(i as f32));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 6);
        let order: Vec<f32> = rec.spans().map(|s| s.measured_ms).collect();
        assert_eq!(order, vec![2.0, 3.0, 4.0, 5.0]);
        let slowest: Vec<f32> = rec.slowest(2).iter().map(|s| s.measured_ms).collect();
        assert_eq!(slowest, vec![5.0, 4.0]);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut rec = FlightRecorder::disabled();
        rec.push(span(1.0));
        assert!(rec.is_empty());
        assert_eq!(rec.recorded(), 0);
        assert!(!rec.is_enabled());
    }

    #[test]
    fn drift_skips_unpredictable_observations() {
        let registry = Registry::new(TelemetryLevel::Counters);
        let drift = DriftTracker::default();
        drift.observe(&registry, SpanPrimitive::Skip, 1.0, 1.0);
        drift.observe(&registry, SpanPrimitive::Gemm, f64::NAN, 1.0);
        drift.observe(&registry, SpanPrimitive::Gemm, 0.0, 1.0);
        assert!(registry.gauge(GaugeId::DriftGemm).is_nan());
        drift.observe(&registry, SpanPrimitive::Gemm, 2.0, 3.0);
        assert!((registry.gauge(GaugeId::DriftGemm) - 1.5).abs() < 1e-12);
    }
}
