//! Fixed metric slots: every metric the workspace publishes is a compile-time
//! enum variant, so the registry backs the whole surface with preallocated
//! atomic arrays and the hot path never hashes a metric name.

/// Monotonic counters (sharded; merged by summation on snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Requests completed by `Session::infer` / `infer_batch`.
    SessionRequests,
    /// Kernel spans recorded by the dispatcher (one per executed kernel).
    KernelSpans,
    /// Kernel dispatches that executed dense GEMM.
    DispatchGemm,
    /// Kernel dispatches that executed sparse-dense SpDMM.
    DispatchSpdmm,
    /// Kernel dispatches that executed Gustavson SpGEMM.
    DispatchSpmm,
    /// Kernel dispatches skipped (empty product).
    DispatchSkip,
    /// `Session::rebind` calls that reused the bound session state.
    RebindReuse,
    /// `Session::rebind` calls that rebuilt the session from scratch.
    RebindRebuild,
    /// Requests completed by the serve runtime.
    ServeRequests,
    /// Micro-batches executed by the serve runtime.
    ServeBatches,
    /// Plan-cache lookups that hit.
    PlanCacheHits,
    /// Plan-cache lookups that compiled a new plan.
    PlanCacheMisses,
    /// Plans evicted from the plan cache.
    PlanCacheEvictions,
    /// Submissions rejected by the serve runtime's load-shedding watermark.
    ServeShed,
    /// Requests dropped by workers because their deadline had already
    /// expired when the batch was formed.
    ServeDeadlineExpired,
    /// Worker batch executions that panicked and were caught by the
    /// supervisor.
    ServeWorkerPanics,
    /// Worker sessions rebuilt after a caught panic.
    ServeWorkerRespawns,
    /// Host-fit recalibrations.  The fit is measured once per process and
    /// never rescaled, so this always reads 0; the slot stays for the
    /// exposition format.
    Recalibrations,
    /// Pricing-cache lookups that reused a cached `KernelAnalysis`.
    PricingHit,
    /// Pricing-cache lookups that ran a fresh Analyzer pass.
    PricingMiss,
    /// Pricing-cache entries evicted to make room.
    PricingEvict,
}

impl CounterId {
    /// Every counter, in exposition order.
    pub const ALL: [CounterId; 21] = [
        CounterId::SessionRequests,
        CounterId::KernelSpans,
        CounterId::DispatchGemm,
        CounterId::DispatchSpdmm,
        CounterId::DispatchSpmm,
        CounterId::DispatchSkip,
        CounterId::RebindReuse,
        CounterId::RebindRebuild,
        CounterId::ServeRequests,
        CounterId::ServeBatches,
        CounterId::PlanCacheHits,
        CounterId::PlanCacheMisses,
        CounterId::PlanCacheEvictions,
        CounterId::ServeShed,
        CounterId::ServeDeadlineExpired,
        CounterId::ServeWorkerPanics,
        CounterId::ServeWorkerRespawns,
        CounterId::Recalibrations,
        CounterId::PricingHit,
        CounterId::PricingMiss,
        CounterId::PricingEvict,
    ];

    /// The slot index backing this counter.
    pub const fn idx(self) -> usize {
        self as usize
    }

    /// The Prometheus metric name.
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::SessionRequests => "dynasparse_session_requests_total",
            CounterId::KernelSpans => "dynasparse_kernel_spans_total",
            CounterId::DispatchGemm => "dynasparse_dispatch_gemm_total",
            CounterId::DispatchSpdmm => "dynasparse_dispatch_spdmm_total",
            CounterId::DispatchSpmm => "dynasparse_dispatch_spmm_total",
            CounterId::DispatchSkip => "dynasparse_dispatch_skip_total",
            CounterId::RebindReuse => "dynasparse_rebind_reuse_total",
            CounterId::RebindRebuild => "dynasparse_rebind_rebuild_total",
            CounterId::ServeRequests => "dynasparse_serve_requests_total",
            CounterId::ServeBatches => "dynasparse_serve_batches_total",
            CounterId::PlanCacheHits => "dynasparse_plan_cache_hits_total",
            CounterId::PlanCacheMisses => "dynasparse_plan_cache_misses_total",
            CounterId::PlanCacheEvictions => "dynasparse_plan_cache_evictions_total",
            CounterId::ServeShed => "dynasparse_serve_shed_total",
            CounterId::ServeDeadlineExpired => "dynasparse_serve_deadline_expired_total",
            CounterId::ServeWorkerPanics => "dynasparse_serve_worker_panics_total",
            CounterId::ServeWorkerRespawns => "dynasparse_serve_worker_respawns_total",
            CounterId::Recalibrations => "dynasparse_recalibrations_total",
            CounterId::PricingHit => "dynasparse_pricing_hit_total",
            CounterId::PricingMiss => "dynasparse_pricing_miss_total",
            CounterId::PricingEvict => "dynasparse_pricing_evict_total",
        }
    }

    /// The Prometheus HELP line.
    pub const fn help(self) -> &'static str {
        match self {
            CounterId::SessionRequests => "Requests completed by Session::infer/infer_batch",
            CounterId::KernelSpans => "Kernel spans recorded by the dispatcher",
            CounterId::DispatchGemm => "Kernel dispatches executed as dense GEMM",
            CounterId::DispatchSpdmm => "Kernel dispatches executed as SpDMM",
            CounterId::DispatchSpmm => "Kernel dispatches executed as Gustavson SpGEMM",
            CounterId::DispatchSkip => "Kernel dispatches skipped (empty product)",
            CounterId::RebindReuse => "Session rebinds that reused bound state",
            CounterId::RebindRebuild => "Session rebinds that rebuilt from scratch",
            CounterId::ServeRequests => "Requests completed by the serve runtime",
            CounterId::ServeBatches => "Micro-batches executed by the serve runtime",
            CounterId::PlanCacheHits => "Plan cache hits",
            CounterId::PlanCacheMisses => "Plan cache misses (cold compiles)",
            CounterId::PlanCacheEvictions => "Plan cache LRU evictions",
            CounterId::ServeShed => "Submissions rejected by the load-shedding watermark",
            CounterId::ServeDeadlineExpired => "Requests shed because their deadline expired",
            CounterId::ServeWorkerPanics => "Worker executions that panicked (caught)",
            CounterId::ServeWorkerRespawns => "Worker sessions rebuilt after a caught panic",
            CounterId::Recalibrations => {
                "Host-fit recalibrations (always 0: the fit is measured once per process)"
            }
            CounterId::PricingHit => "Pricing-cache lookups that reused a cached analysis",
            CounterId::PricingMiss => "Pricing-cache lookups that ran a fresh Analyzer pass",
            CounterId::PricingEvict => "Pricing-cache entries evicted to make room",
        }
    }
}

/// Point-in-time gauges (unsharded; last write wins, EWMAs update via CAS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Serve queue depth sampled when a worker picks up a batch.
    QueueDepth,
    /// Bytes resident in the plan cache.
    PlanCacheResidentBytes,
    /// EWMA of measured/predicted ms for dispatched GEMM kernels.
    DriftGemm,
    /// EWMA of measured/predicted ms for dispatched SpDMM kernels.
    DriftSpdmm,
    /// EWMA of measured/predicted ms for dispatched SpGEMM kernels.
    DriftSpmm,
    /// Configured load-shedding high watermark of the serve queue (NaN when
    /// shedding is disabled); dashboards draw it against `QueueDepth`.
    ShedWatermark,
}

impl GaugeId {
    /// Every gauge, in exposition order.
    pub const ALL: [GaugeId; 6] = [
        GaugeId::QueueDepth,
        GaugeId::PlanCacheResidentBytes,
        GaugeId::DriftGemm,
        GaugeId::DriftSpdmm,
        GaugeId::DriftSpmm,
        GaugeId::ShedWatermark,
    ];

    /// The slot index backing this gauge.
    pub const fn idx(self) -> usize {
        self as usize
    }

    /// The Prometheus metric name.
    pub const fn name(self) -> &'static str {
        match self {
            GaugeId::QueueDepth => "dynasparse_serve_queue_depth",
            GaugeId::PlanCacheResidentBytes => "dynasparse_plan_cache_resident_bytes",
            GaugeId::DriftGemm => "dynasparse_drift_gemm_ratio",
            GaugeId::DriftSpdmm => "dynasparse_drift_spdmm_ratio",
            GaugeId::DriftSpmm => "dynasparse_drift_spmm_ratio",
            GaugeId::ShedWatermark => "dynasparse_serve_shed_watermark",
        }
    }

    /// The Prometheus HELP line.
    pub const fn help(self) -> &'static str {
        match self {
            GaugeId::QueueDepth => "Serve queue depth at batch pickup",
            GaugeId::PlanCacheResidentBytes => "Bytes resident in the plan cache",
            GaugeId::DriftGemm => "EWMA of measured/predicted ms for GEMM dispatches",
            GaugeId::DriftSpdmm => "EWMA of measured/predicted ms for SpDMM dispatches",
            GaugeId::DriftSpmm => "EWMA of measured/predicted ms for SpGEMM dispatches",
            GaugeId::ShedWatermark => "Configured serve load-shedding high watermark",
        }
    }
}

/// Log-linear histograms (sharded; merged by summation on snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Per-kernel dispatch wall time, microseconds.
    KernelMicros,
    /// Per-request density profile refit time, microseconds.
    ProfileMicros,
    /// Per-request Analyzer/Scheduler pricing time, microseconds.
    PricingMicros,
    /// Per-request serve service time, microseconds.
    ServiceMicros,
    /// Per-request serve queue wait, microseconds.
    QueueWaitMicros,
    /// Micro-batch sizes drained by serve workers.
    BatchSize,
    /// Per-request pricing time spent on cache hits, microseconds.
    PricingHitMicros,
    /// Per-request pricing time spent on cache misses (fresh Analyzer
    /// passes), microseconds.
    PricingMissMicros,
}

impl HistogramId {
    /// Every histogram, in exposition order.
    pub const ALL: [HistogramId; 8] = [
        HistogramId::KernelMicros,
        HistogramId::ProfileMicros,
        HistogramId::PricingMicros,
        HistogramId::ServiceMicros,
        HistogramId::QueueWaitMicros,
        HistogramId::BatchSize,
        HistogramId::PricingHitMicros,
        HistogramId::PricingMissMicros,
    ];

    /// The slot index backing this histogram.
    pub const fn idx(self) -> usize {
        self as usize
    }

    /// The Prometheus metric name.
    pub const fn name(self) -> &'static str {
        match self {
            HistogramId::KernelMicros => "dynasparse_kernel_micros",
            HistogramId::ProfileMicros => "dynasparse_profile_micros",
            HistogramId::PricingMicros => "dynasparse_pricing_micros",
            HistogramId::ServiceMicros => "dynasparse_serve_service_micros",
            HistogramId::QueueWaitMicros => "dynasparse_serve_queue_wait_micros",
            HistogramId::BatchSize => "dynasparse_serve_batch_size",
            HistogramId::PricingHitMicros => "dynasparse_pricing_hit_micros",
            HistogramId::PricingMissMicros => "dynasparse_pricing_miss_micros",
        }
    }

    /// The Prometheus HELP line.
    pub const fn help(self) -> &'static str {
        match self {
            HistogramId::KernelMicros => "Per-kernel dispatch wall time (us)",
            HistogramId::ProfileMicros => "Per-request density profile refit time (us)",
            HistogramId::PricingMicros => "Per-request Analyzer/Scheduler pricing time (us)",
            HistogramId::ServiceMicros => "Per-request serve service time (us)",
            HistogramId::QueueWaitMicros => "Per-request serve queue wait (us)",
            HistogramId::BatchSize => "Micro-batch sizes drained by serve workers",
            HistogramId::PricingHitMicros => "Per-request pricing time on cache hits (us)",
            HistogramId::PricingMissMicros => "Per-request pricing time on cache misses (us)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Asserts that `ALL` lists every slot in slot order and that no two
    /// slots share an exposition name.
    fn assert_slot_layout<T: Copy + std::fmt::Debug>(
        all: &[T],
        idx: impl Fn(T) -> usize,
        name: impl Fn(T) -> &'static str,
    ) {
        for (i, &id) in all.iter().enumerate() {
            assert_eq!(idx(id), i, "ALL[{i}] is {id:?}");
        }
        let names: HashSet<&str> = all.iter().map(|&id| name(id)).collect();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn every_id_sits_at_its_slot_under_a_unique_name() {
        assert_slot_layout(&CounterId::ALL, CounterId::idx, CounterId::name);
        assert_slot_layout(&GaugeId::ALL, GaugeId::idx, GaugeId::name);
        assert_slot_layout(&HistogramId::ALL, HistogramId::idx, HistogramId::name);
    }
}
