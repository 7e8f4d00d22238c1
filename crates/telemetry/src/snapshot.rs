//! Merge-on-read snapshots with Prometheus text exposition and a hand-rolled
//! JSON writer (the vendored serde stand-in has no runtime serializer this
//! dependency-free crate could use).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::ids::{CounterId, GaugeId, HistogramId};
use crate::registry::{bucket_upper_bound, Registry, HISTOGRAM_BUCKETS};

/// A merged counter: the all-shard total plus the per-shard breakdown
/// (per-worker, when serve workers pinned their shard).
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Which counter this samples.
    pub id: CounterId,
    /// Sum over all shards.
    pub value: u64,
    /// Per-shard values, in shard order.
    pub per_shard: Vec<u64>,
}

/// A point-in-time gauge value (`NaN` when never set).
#[derive(Debug, Clone, Copy)]
pub struct GaugeSample {
    /// Which gauge this samples.
    pub id: GaugeId,
    /// Current value.
    pub value: f64,
}

/// A merged log2 histogram.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Which histogram this samples.
    pub id: HistogramId,
    /// Per-bucket counts (not cumulative), bucket 0 first.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSample {
    /// The mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A consistent-enough point-in-time view of every metric in a [`Registry`],
/// merged across shards. Collection allocates; the hot path never does.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Every counter, in [`CounterId::ALL`] order.
    pub counters: Vec<CounterSample>,
    /// Every gauge, in [`GaugeId::ALL`] order.
    pub gauges: Vec<GaugeSample>,
    /// Every histogram, in [`HistogramId::ALL`] order.
    pub histograms: Vec<HistogramSample>,
}

impl TelemetrySnapshot {
    pub(crate) fn collect(registry: &Registry) -> TelemetrySnapshot {
        let counters = CounterId::ALL
            .iter()
            .map(|&id| CounterSample {
                id,
                value: registry.counter(id),
                per_shard: registry.counter_per_shard(id),
            })
            .collect();
        let gauges = GaugeId::ALL
            .iter()
            .map(|&id| GaugeSample {
                id,
                value: registry.gauge(id),
            })
            .collect();
        let histograms = HistogramId::ALL
            .iter()
            .map(|&id| {
                let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                let mut count = 0u64;
                let mut sum = 0u64;
                registry.for_each_shard(|shard| {
                    let slot = &shard.histograms[id.idx()];
                    for (acc, bucket) in buckets.iter_mut().zip(slot.buckets.iter()) {
                        *acc += bucket.load(Ordering::Relaxed);
                    }
                    count += slot.count.load(Ordering::Relaxed);
                    sum += slot.sum.load(Ordering::Relaxed);
                });
                HistogramSample {
                    id,
                    buckets,
                    count,
                    sum,
                }
            })
            .collect();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// The merged value of `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.idx()].value
    }

    /// The per-shard breakdown of `id`.
    pub fn per_shard(&self, id: CounterId) -> &[u64] {
        &self.counters[id.idx()].per_shard
    }

    /// The value of gauge `id` (`NaN` when never set).
    pub fn gauge(&self, id: GaugeId) -> f64 {
        self.gauges[id.idx()].value
    }

    /// The merged histogram `id`.
    pub fn histogram(&self, id: HistogramId) -> &HistogramSample {
        &self.histograms[id.idx()]
    }

    /// Prometheus text exposition (never-set gauges are omitted; empty
    /// trailing histogram buckets are folded into `+Inf`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "# HELP {} {}", c.id.name(), c.id.help());
            let _ = writeln!(out, "# TYPE {} counter", c.id.name());
            let _ = writeln!(out, "{} {}", c.id.name(), c.value);
        }
        for g in &self.gauges {
            if g.value.is_nan() {
                continue;
            }
            let _ = writeln!(out, "# HELP {} {}", g.id.name(), g.id.help());
            let _ = writeln!(out, "# TYPE {} gauge", g.id.name());
            let _ = writeln!(out, "{} {}", g.id.name(), g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# HELP {} {}", h.id.name(), h.id.help());
            let _ = writeln!(out, "# TYPE {} histogram", h.id.name());
            let last_used = h
                .buckets
                .iter()
                .rposition(|&b| b > 0)
                .map_or(0, |p| (p + 1).min(HISTOGRAM_BUCKETS - 1));
            let mut cumulative = 0u64;
            for (b, &bucket) in h.buckets.iter().enumerate().take(last_used) {
                cumulative += bucket;
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{}\"}} {}",
                    h.id.name(),
                    bucket_upper_bound(b),
                    cumulative
                );
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.id.name(), h.count);
            let _ = writeln!(out, "{}_sum {}", h.id.name(), h.sum);
            let _ = writeln!(out, "{}_count {}", h.id.name(), h.count);
        }
        out
    }

    /// Hand-rolled JSON object: `{"counters": {name: {"total": n,
    /// "per_shard": [...]}}, "gauges": {name: number|null}, "histograms":
    /// {name: {"count": n, "sum": n, "buckets": [[le, count], ...]}}}`.
    /// Metric names are static identifiers, so no string escaping is needed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{{\"total\":{}", c.id.name(), c.value);
            out.push_str(",\"per_shard\":[");
            for (j, v) in c.per_shard.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push_str("]}");
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", g.id.name(), json_number(g.value));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.id.name(),
                h.count,
                h.sum
            );
            let mut first = true;
            for (b, &bucket) in h.buckets.iter().enumerate() {
                if bucket == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{}]", bucket_upper_bound(b), bucket);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// A JSON-safe number rendering: finite values round-trip via `Display`,
/// non-finite values (never-set gauges) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryLevel;

    #[test]
    fn snapshot_merges_and_exposes() {
        let r = Registry::new(TelemetryLevel::Counters);
        r.incr(0, CounterId::ServeRequests);
        r.incr(3, CounterId::ServeRequests);
        r.gauge_set(GaugeId::QueueDepth, 2.0);
        r.observe(0, HistogramId::BatchSize, 1);
        r.observe(1, HistogramId::BatchSize, 4);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::ServeRequests), 2);
        assert_eq!(snap.per_shard(CounterId::ServeRequests)[0], 1);
        assert_eq!(snap.per_shard(CounterId::ServeRequests)[3], 1);
        assert_eq!(snap.gauge(GaugeId::QueueDepth), 2.0);
        let h = snap.histogram(HistogramId::BatchSize);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert!((h.mean() - 2.5).abs() < 1e-12);

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE dynasparse_serve_requests_total counter"));
        assert!(prom.contains("dynasparse_serve_requests_total 2"));
        assert!(prom.contains("dynasparse_serve_queue_depth 2"));
        // Never-set gauges stay out of the exposition.
        assert!(!prom.contains("dynasparse_drift_gemm_ratio"));
        assert!(prom.contains("dynasparse_serve_batch_size_bucket{le=\"1\"} 1"));
        assert!(prom.contains("dynasparse_serve_batch_size_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("dynasparse_serve_batch_size_sum 5"));

        let json = snap.to_json();
        assert!(json.contains("\"dynasparse_serve_requests_total\":{\"total\":2"));
        assert!(json.contains("\"dynasparse_serve_queue_depth\":2"));
        assert!(json.contains("\"dynasparse_drift_gemm_ratio\":null"));
        assert!(json.contains("\"buckets\":[[1,1],[4,1]]"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let r = Registry::new(TelemetryLevel::Counters);
        for v in [1u64, 2, 2, 4, 100] {
            r.observe(0, HistogramId::KernelMicros, v);
        }
        let prom = r.snapshot().to_prometheus();
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"1\"} 1"));
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"2\"} 3"));
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"4\"} 4"));
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"128\"} 5"));
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"+Inf\"} 5"));
    }
}
