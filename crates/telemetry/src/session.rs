//! The per-session telemetry bundle the engine threads through its hot path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ids::{CounterId, HistogramId};
use crate::recorder::{DriftTracker, FlightRecorder, KernelSpan, SpanPrimitive};
use crate::registry::Registry;
use crate::TelemetryLevel;

/// Everything one session needs to publish telemetry without touching shared
/// mutable state: a registry handle, the cached level (so `off` costs one
/// predictable branch per call site), a writer shard, the span ring and the
/// drift tracker.
///
/// Sessions built from the same registry still write independently — only
/// the registry's atomic slots are shared.
#[derive(Debug)]
pub struct SessionTelemetry {
    registry: Arc<Registry>,
    level: TelemetryLevel,
    shard: usize,
    recorder: FlightRecorder,
    drift: DriftTracker,
    request: u64,
}

/// Round-robin shard assignment for sessions that were not pinned to a serve
/// worker, spreading unpinned writers across the registry's shards.
fn next_shard(registry: &Registry) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) % registry.shards().max(1)
}

impl SessionTelemetry {
    /// A bundle over `registry` with the default flight-recorder capacity
    /// (the ring is only allocated when the registry traces).
    pub fn new(registry: Arc<Registry>) -> SessionTelemetry {
        SessionTelemetry::with_capacity(registry, FlightRecorder::DEFAULT_CAPACITY)
    }

    /// A bundle over `registry` retaining at most `capacity` spans at
    /// `trace` level.
    pub fn with_capacity(registry: Arc<Registry>, capacity: usize) -> SessionTelemetry {
        let level = registry.level();
        let recorder = if level.tracing() {
            FlightRecorder::new(capacity)
        } else {
            FlightRecorder::disabled()
        };
        SessionTelemetry {
            shard: next_shard(&registry),
            level,
            registry,
            recorder,
            drift: DriftTracker::default(),
            request: 0,
        }
    }

    /// A bundle over the process-wide [`Registry::global`].
    pub fn from_global() -> SessionTelemetry {
        SessionTelemetry::new(Registry::global())
    }

    /// The registry this bundle publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The cached recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether any recording happens.
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// Whether kernel spans are retained.
    pub fn tracing(&self) -> bool {
        self.level.tracing()
    }

    /// The writer shard counters and histograms go through.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Pins the writer shard (serve workers pin to their worker index so the
    /// per-shard counter breakdown is a per-worker breakdown).
    pub fn set_shard(&mut self, shard: usize) {
        self.shard = shard;
    }

    /// The session's flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Drops retained spans (capacity kept).
    pub fn clear_recorder(&mut self) {
        self.recorder.clear();
    }

    /// The drift tracker folding measured-vs-predicted ratios.
    pub fn drift(&self) -> &DriftTracker {
        &self.drift
    }

    /// Marks the start of a request; spans recorded until the next call are
    /// stamped with this ordinal.
    pub fn begin_request(&mut self) {
        self.request += 1;
    }

    /// Records one executed kernel dispatch: bumps the per-primitive and
    /// span counters, observes the kernel-time histogram, folds the drift
    /// EWMA, and (at `trace`) retains the span in the ring. `predicted_ms`
    /// is `NaN` when no calibrated cost model priced the dispatch.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &mut self,
        layer: u16,
        kernel: u16,
        primitive: SpanPrimitive,
        shape: (usize, usize, usize),
        alpha_x: f64,
        alpha_y: f64,
        predicted_ms: f64,
        measured_ms: f64,
    ) {
        if !self.level.enabled() {
            return;
        }
        let counter = match primitive {
            SpanPrimitive::Gemm => CounterId::DispatchGemm,
            SpanPrimitive::SpDmm => CounterId::DispatchSpdmm,
            SpanPrimitive::Spmm => CounterId::DispatchSpmm,
            SpanPrimitive::Skip => CounterId::DispatchSkip,
        };
        self.registry.incr(self.shard, counter);
        self.registry.incr(self.shard, CounterId::KernelSpans);
        self.registry.observe(
            self.shard,
            HistogramId::KernelMicros,
            (measured_ms * 1_000.0) as u64,
        );
        self.drift
            .observe(&self.registry, primitive, predicted_ms, measured_ms);
        if self.level.tracing() {
            self.recorder.push(KernelSpan {
                request: self.request,
                layer,
                kernel,
                block: KernelSpan::WHOLE_KERNEL,
                primitive,
                m: shape.0 as u32,
                n: shape.1 as u32,
                d: shape.2 as u32,
                alpha_x: alpha_x as f32,
                alpha_y: alpha_y as f32,
                predicted_ms: predicted_ms as f32,
                measured_ms: measured_ms as f32,
            });
        }
    }

    /// Records one row block of a block-granular kernel dispatch into the
    /// flight-recorder ring (at `trace` level only).  Counters, the
    /// kernel-time histogram and drift tracking are fed once by the
    /// enclosing whole-kernel [`SessionTelemetry::record_span`] — block
    /// spans exist so a trace shows *which* blocks of a kernel ran which
    /// primitive at which density.
    #[allow(clippy::too_many_arguments)]
    pub fn record_block_span(
        &mut self,
        layer: u16,
        kernel: u16,
        block: u16,
        primitive: SpanPrimitive,
        shape: (usize, usize, usize),
        alpha_x: f64,
        alpha_y: f64,
        predicted_ms: f64,
        measured_ms: f64,
    ) {
        if !self.level.tracing() {
            return;
        }
        self.recorder.push(KernelSpan {
            request: self.request,
            layer,
            kernel,
            block,
            primitive,
            m: shape.0 as u32,
            n: shape.1 as u32,
            d: shape.2 as u32,
            alpha_x: alpha_x as f32,
            alpha_y: alpha_y as f32,
            predicted_ms: predicted_ms as f32,
            measured_ms: measured_ms as f32,
        });
    }

    /// Records the non-kernel phases of one completed request:
    /// density-profile refit and Analyzer/Scheduler pricing, in nanoseconds.
    /// `profile_ns` covers stand-alone refits only: a dense-input Update
    /// kernel on the block path profiles its input inside its own scan, so
    /// that kernel's profile time (kernel 0 of a dense-stored request) is
    /// part of its kernel span, not of this phase.
    pub fn record_request_phases(&self, profile_ns: u64, pricing_ns: u64) {
        if !self.level.enabled() {
            return;
        }
        self.registry.incr(self.shard, CounterId::SessionRequests);
        self.registry
            .observe(self.shard, HistogramId::ProfileMicros, profile_ns / 1_000);
        self.registry
            .observe(self.shard, HistogramId::PricingMicros, pricing_ns / 1_000);
    }

    /// Records one request's pricing-cache activity: lookup outcomes,
    /// evictions (session cache plus shared tier), and the pricing time
    /// split by outcome, in nanoseconds.
    pub fn record_pricing_cache(
        &self,
        hits: u64,
        misses: u64,
        evictions: u64,
        hit_ns: u64,
        miss_ns: u64,
    ) {
        if !self.level.enabled() {
            return;
        }
        if hits > 0 {
            self.registry.add(self.shard, CounterId::PricingHit, hits);
            self.registry
                .observe(self.shard, HistogramId::PricingHitMicros, hit_ns / 1_000);
        }
        if misses > 0 {
            self.registry
                .add(self.shard, CounterId::PricingMiss, misses);
            self.registry
                .observe(self.shard, HistogramId::PricingMissMicros, miss_ns / 1_000);
        }
        if evictions > 0 {
            self.registry
                .add(self.shard, CounterId::PricingEvict, evictions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GaugeId;

    #[test]
    fn counters_mode_counts_without_retaining_spans() {
        let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
        let mut t = SessionTelemetry::new(registry.clone());
        t.begin_request();
        t.record_span(0, 0, SpanPrimitive::SpDmm, (8, 8, 4), 0.1, 1.0, 2.0, 1.0);
        t.record_request_phases(3_000, 5_000);
        assert_eq!(registry.counter(CounterId::KernelSpans), 1);
        assert_eq!(registry.counter(CounterId::DispatchSpdmm), 1);
        assert_eq!(registry.counter(CounterId::SessionRequests), 1);
        assert!((registry.gauge(GaugeId::DriftSpdmm) - 0.5).abs() < 1e-9);
        assert!(t.recorder().is_empty());
        assert!(!t.recorder().is_enabled());
    }

    #[test]
    fn trace_mode_retains_spans_with_request_stamps() {
        let registry = Arc::new(Registry::new(TelemetryLevel::Trace));
        let mut t = SessionTelemetry::with_capacity(registry, 8);
        t.begin_request();
        t.record_span(
            0,
            0,
            SpanPrimitive::Gemm,
            (4, 4, 4),
            1.0,
            1.0,
            f64::NAN,
            0.5,
        );
        t.begin_request();
        t.record_span(
            1,
            0,
            SpanPrimitive::Skip,
            (4, 4, 4),
            0.0,
            0.0,
            f64::NAN,
            0.0,
        );
        let spans: Vec<_> = t.recorder().spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].request, 1);
        assert_eq!(spans[1].request, 2);
        assert_eq!(spans[1].layer, 1);
        assert_eq!(spans[1].primitive, SpanPrimitive::Skip);
    }

    #[test]
    fn off_mode_is_inert() {
        let registry = Arc::new(Registry::new(TelemetryLevel::Off));
        let mut t = SessionTelemetry::new(registry.clone());
        t.record_span(0, 0, SpanPrimitive::Gemm, (4, 4, 4), 1.0, 1.0, 1.0, 1.0);
        t.record_request_phases(1, 1);
        assert_eq!(registry.counter(CounterId::KernelSpans), 0);
        assert!(!t.enabled());
    }
}
