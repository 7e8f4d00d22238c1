//! Merge-on-read snapshots with Prometheus text exposition and a hand-rolled
//! JSON writer (the vendored serde stand-in has no runtime serializer this
//! dependency-free crate could use).

use std::fmt::Write as _;

use crate::ids::{CounterId, GaugeId, HistogramId};
use crate::registry::{bucket_bounds, Registry, HISTOGRAM_BUCKETS};

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

/// A merged log-linear histogram (bucket layout: [`HISTOGRAM_BUCKETS`]).
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Which histogram this samples.
    pub id: HistogramId,
    /// Per-bucket counts (not cumulative), bucket 0 first.
    pub buckets: Vec<u64>,
    /// Total observations (the buckets' sum).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSample {
    /// The mean observed value (0 when empty); exact, from the running sum.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`; the sample of rank
    /// `round(q · (count − 1))`), to within its bucket: the middle of the
    /// bucket that holds that sample, so exact below 32 and off by at most
    /// half a bucket width (≤ 3.125 %) above.  0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let (lower, upper) = bucket_bounds(b);
                return (lower as f64 + upper as f64) / 2.0;
            }
        }
        0.0
    }

    /// The inclusive upper bound of the highest non-empty bucket: at least
    /// the largest observed value, and exact below 32.  0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |b| bucket_bounds(b).1)
    }

    /// `(upper bound, count)` of every non-empty bucket, ascending.
    pub fn nonempty(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_bounds(b).1, n))
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
            .map(|&id| registry.histogram(id))
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
            // Every bucket up to the last non-empty one; the last bucket's
            // bound is `u64::MAX`, which the `+Inf` line stands for.
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
                    bucket_bounds(b).1,
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
            for (i, (le, bucket)) in h.nonempty().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{bucket}]");
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
        // Small values are exact: each has a bucket of its own.
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[4], 1);
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
        // 100 lands in [100, 103], a sixteenth of the octave [64, 128).
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"99\"} 4"));
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"103\"} 5"));
        assert!(
            !prom.contains("le=\"107\""),
            "no bucket past the last non-empty one"
        );
        assert!(prom.contains("dynasparse_kernel_micros_bucket{le=\"+Inf\"} 5"));
    }

    #[test]
    fn quantiles_read_the_nearest_rank_sample_to_within_its_bucket() {
        let r = Registry::new(TelemetryLevel::Counters);
        assert_eq!(r.histogram(HistogramId::ServiceMicros).quantile(0.5), 0.0);
        for v in [5u64, 7, 1000, 1000, 100_000] {
            r.observe(0, HistogramId::ServiceMicros, v);
        }
        let h = r.histogram(HistogramId::ServiceMicros);
        // Ranks round(q · 4): 0 → 5 and 1 → 7 are exact (buckets of one),
        // 2 → 1000 is the middle of [992, 1023], 4 → 100000 of [98304,
        // 102399].
        assert_eq!(h.quantile(0.0), 5.0);
        assert_eq!(h.quantile(0.25), 7.0);
        assert_eq!(h.quantile(0.5), 1007.5);
        assert_eq!(h.quantile(1.0), 100_351.5);
        assert_eq!(h.max(), 102_399);
        assert_eq!(h.count, 5);
    }
}
