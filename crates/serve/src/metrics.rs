//! Serving metrics: the aggregate [`ServeReport`] a runtime hands back,
//! read off the telemetry registry the runtime records into.
//!
//! Each [`ServeRuntime`](crate::ServeRuntime) owns one counters-level
//! [`Registry`] (exposed by [`ServeRuntime::metrics`](crate::ServeRuntime::metrics)).
//! Admission and the workers record every serve event there once — served
//! requests, drains, sheds, expiries, panics, respawns, queue wait, service
//! time and drain sizes — and a report is a read of it: it counts only its
//! own runtime, whatever else publishes into the process-global registry,
//! and at any `DYNASPARSE_TELEMETRY` level.  Latencies come from log-linear
//! histograms, so their quantiles are exact to within one bucket (1/16 of
//! an octave); the recording path is a few atomic adds and never allocates.

use dynasparse_telemetry::{CounterId, HistogramId, HistogramSample, Registry, TelemetryLevel};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Summary statistics over one latency dimension, in milliseconds, read off
/// a microsecond histogram ([`LatencySummary::from_micros`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (exact: the histogram's sum over its count).
    pub mean_ms: f64,
    /// Median, to within one histogram bucket.
    pub p50_ms: f64,
    /// 99th percentile, to within one histogram bucket.
    pub p99_ms: f64,
    /// 99.9th percentile, to within one histogram bucket (the largest
    /// sample's bucket below 1000 samples).
    pub p999_ms: f64,
    /// Upper bound of the largest sample's bucket: at least the largest
    /// sample, and at most one bucket above it.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a histogram of microsecond samples; all-zero when empty.
    pub fn from_micros(h: &HistogramSample) -> Self {
        let ms = |us: f64| us / 1e3;
        LatencySummary {
            count: h.count as usize,
            mean_ms: ms(h.mean()),
            p50_ms: ms(h.quantile(0.50)),
            p99_ms: ms(h.quantile(0.99)),
            p999_ms: ms(h.quantile(0.999)),
            max_ms: ms(h.max() as f64),
        }
    }
}

/// One bar of the batch-size histogram: how many drains took `size` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BatchBar {
    /// Batch size (number of requests one queue drain took); exact below
    /// 32, the upper bound of its histogram bucket above.
    pub size: usize,
    /// Number of batches of that size.
    pub batches: u64,
}

/// Aggregate serving metrics produced by
/// [`ServeRuntime::snapshot`](crate::ServeRuntime::snapshot) and
/// [`ServeRuntime::shutdown`](crate::ServeRuntime::shutdown), read off the
/// runtime's own registry (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServeReport {
    /// Requests served to completion (successes and typed failures alike).
    pub requests: u64,
    /// Batches executed: a batch is what one queue drain took, served one
    /// request at a time.
    pub batches: u64,
    /// Wall-clock seconds from runtime start to shutdown.
    pub wall_seconds: f64,
    /// Served requests per wall-clock second.
    pub throughput_rps: f64,
    /// Time from enqueue to the request's own turn on its worker (behind
    /// the drain-mates served before it).
    pub queue_wait: LatencySummary,
    /// Each request's own host time, from its turn to its final result
    /// (its one `Session::infer`).
    pub service: LatencySummary,
    /// Distribution of drain sizes, ascending by size.
    pub batch_histogram: Vec<BatchBar>,
    /// Submissions rejected by the load-shedding watermark (they never
    /// entered the queue and are not in `requests`).
    pub shed: u64,
    /// Accepted requests dropped unexecuted because their deadline had
    /// expired by the time a worker drained them or their turn came.
    pub deadline_expired: u64,
    /// Requests whose execution panicked and was caught by the supervisor.
    pub worker_panics: u64,
    /// Worker sessions rebuilt after a caught panic.
    pub worker_respawns: u64,
    /// The last [`FAILURES_KEPT`] stringified panic payloads, oldest first:
    /// those the supervisor caught, plus any terminal worker-thread panic
    /// recovered at `join` time.  `worker_panics` keeps the full count.
    pub worker_failures: Vec<String>,
}

impl ServeReport {
    /// Mean batch size over all executed batches (0 if none).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Panic messages a runtime keeps (see [`ServeReport::worker_failures`]).
pub const FAILURES_KEPT: usize = 16;

/// What a runtime records into: its own registry, and the last
/// [`FAILURES_KEPT`] panic messages in a ring locked only on a panic.
pub(crate) struct ServeMetrics {
    pub(crate) registry: Arc<Registry>,
    failures: Mutex<VecDeque<String>>,
}

impl ServeMetrics {
    pub(crate) fn new() -> Self {
        ServeMetrics {
            registry: Arc::new(Registry::new(TelemetryLevel::Counters)),
            failures: Mutex::new(VecDeque::with_capacity(FAILURES_KEPT)),
        }
    }

    /// Keeps `message`, dropping the oldest one kept past [`FAILURES_KEPT`].
    pub(crate) fn record_failure(&self, message: String) {
        let mut failures = self.failures.lock().unwrap_or_else(|e| e.into_inner());
        if failures.len() == FAILURES_KEPT {
            failures.pop_front();
        }
        failures.push_back(message);
    }

    /// Reads the report; `wall` is the runtime's lifetime so far.
    pub(crate) fn report(&self, wall: Duration) -> ServeReport {
        let r = &self.registry;
        let requests = r.counter(CounterId::ServeRequests);
        let wall_seconds = wall.as_secs_f64();
        ServeReport {
            requests,
            batches: r.counter(CounterId::ServeBatches),
            wall_seconds,
            throughput_rps: if wall_seconds > 0.0 {
                requests as f64 / wall_seconds
            } else {
                0.0
            },
            queue_wait: LatencySummary::from_micros(&r.histogram(HistogramId::QueueWaitMicros)),
            service: LatencySummary::from_micros(&r.histogram(HistogramId::ServiceMicros)),
            batch_histogram: r
                .histogram(HistogramId::BatchSize)
                .nonempty()
                .map(|(size, batches)| BatchBar {
                    size: size as usize,
                    batches,
                })
                .collect(),
            shed: r.counter(CounterId::ServeShed),
            deadline_expired: r.counter(CounterId::ServeDeadlineExpired),
            worker_panics: r.counter(CounterId::ServeWorkerPanics),
            worker_respawns: r.counter(CounterId::ServeWorkerRespawns),
            worker_failures: self
                .failures
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summary of `samples_us` (microseconds, in the order given), as a
    /// runtime's registry records them.
    fn summary(samples_us: &[u64]) -> LatencySummary {
        let r = Registry::new(TelemetryLevel::Counters);
        for (i, &v) in samples_us.iter().enumerate() {
            r.observe(i, HistogramId::ServiceMicros, v);
        }
        LatencySummary::from_micros(&r.histogram(HistogramId::ServiceMicros))
    }

    /// The nearest-rank percentile the exact per-request vectors gave, ms.
    fn nearest_rank_ms(samples_us: &[u64], q: f64) -> f64 {
        let mut sorted = samples_us.to_vec();
        sorted.sort_unstable();
        sorted[(q * (sorted.len() - 1) as f64).round() as usize] as f64 / 1e3
    }

    /// Asserts `got_ms` is within one bucket of `want_ms`: a bucket is 1 µs
    /// wide below 32 µs and at most 1/16 of its lower bound above.
    fn assert_within_a_bucket(got_ms: f64, want_ms: f64, what: &str) {
        let width_ms = (want_ms / 16.0).max(1e-3);
        assert!(
            (got_ms - want_ms).abs() <= width_ms + 1e-12,
            "{what}: {got_ms} ms is more than a bucket ({width_ms} ms) from {want_ms} ms"
        );
    }

    /// Every statistic of `samples_us` against the exact values.
    fn assert_tracks(samples_us: &[u64]) -> LatencySummary {
        let s = summary(samples_us);
        assert_eq!(s.count, samples_us.len());
        let mean = samples_us.iter().sum::<u64>() as f64 / samples_us.len() as f64 / 1e3;
        assert!((s.mean_ms - mean).abs() < 1e-9, "the mean is exact");
        for (got, q) in [(s.p50_ms, 0.5), (s.p99_ms, 0.99), (s.p999_ms, 0.999)] {
            let want = nearest_rank_ms(samples_us, q);
            assert_within_a_bucket(got, want, &format!("q {q}"));
        }
        let max = nearest_rank_ms(samples_us, 1.0);
        assert!(s.max_ms >= max);
        assert_within_a_bucket(s.max_ms, max, "max");
        s
    }

    #[test]
    fn summary_percentiles() {
        let samples: Vec<u64> = (1..=100).map(|v| v * 1000).collect();
        let s = assert_tracks(&samples);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
        assert_within_a_bucket(s.p50_ms, 51.0, "median");
        assert!(s.p99_ms >= 98.0 && s.p99_ms <= 100.0 + 100.0 / 16.0);
        assert_eq!(summary(&[]), LatencySummary::default());
    }

    #[test]
    fn empty_and_single_sample_summaries_are_degenerate_but_defined() {
        // No samples: every field is zero, not NaN (the report is
        // serialized, and NaN would poison the JSON).
        let empty = summary(&[]);
        assert_eq!(empty, LatencySummary::default());
        assert_eq!((empty.count, empty.p50_ms, empty.p99_ms), (0, 0.0, 0.0));
        // One sample: every percentile and the max collapse onto its
        // bucket; the mean is the sample.
        let one = assert_tracks(&[7250]);
        assert_eq!(one.mean_ms, 7.25);
        assert_eq!((one.p50_ms, one.p99_ms), (one.p999_ms, one.p999_ms));
        // Below 32 µs a sample is a bucket of its own: everything is exact.
        let small = summary(&[7]);
        assert_eq!(
            (small.p50_ms, small.max_ms, small.mean_ms),
            (0.007, 0.007, 0.007)
        );
    }

    #[test]
    fn tie_heavy_samples_keep_percentiles_on_real_samples() {
        // A step function of two values: the median and p99 (rank 98 of
        // 100) stay on the low step's bucket, the max on the high one's.
        let mut samples = vec![1000; 99];
        samples.push(100_000);
        let s = assert_tracks(&samples);
        assert_within_a_bucket(s.p50_ms, 1.0, "median of 99x 1 ms + 1x 100 ms");
        assert_within_a_bucket(s.p99_ms, 1.0, "p99");
        assert_within_a_bucket(s.max_ms, 100.0, "max");
        // All-identical samples: every statistic sits on that value.
        let flat = assert_tracks(&[3000; 17]);
        assert_eq!(flat.p50_ms, flat.p99_ms);
        assert_eq!(flat.mean_ms, 3.0);
    }

    #[test]
    fn percentiles_are_order_invariant_under_adversarial_orderings() {
        // A histogram forgets the order: descending, interleaved and sorted
        // inputs summarize identically.
        let sorted: Vec<u64> = (1..=101).map(|v| v * 1000).collect();
        let descending: Vec<u64> = sorted.iter().rev().copied().collect();
        // 51, 1, 52, 2, ... (ms): alternating halves.
        let interleaved: Vec<u64> = (0..101u64)
            .map(|i| 1000 * if i % 2 == 0 { 51 + i / 2 } else { 1 + i / 2 })
            .collect();
        let a = assert_tracks(&sorted);
        assert_eq!(a, assert_tracks(&descending));
        assert_eq!(a, assert_tracks(&interleaved));
        // Odd count: the median is the middle sample's bucket; nearest-rank
        // p99 of 101 is rank round(0.99 · 100).
        assert_within_a_bucket(a.p50_ms, 51.0, "median");
        assert_within_a_bucket(a.p99_ms, 100.0, "p99");
    }

    #[test]
    fn p999_tracks_the_tail() {
        let samples: Vec<u64> = (1..=2000).map(|v| v * 1000).collect();
        let s = assert_tracks(&samples);
        assert!(s.p999_ms >= s.p99_ms);
        assert!(s.p999_ms <= s.max_ms);
        assert!(s.p999_ms >= 1997.0 - 1997.0 / 16.0);
        // Small sample counts collapse p999 onto the max's bucket.
        let few = assert_tracks(&[1000, 2000, 3000]);
        assert_within_a_bucket(few.p999_ms, 3.0, "p999 of three samples");
    }

    #[test]
    fn collector_aggregates_batches_and_workers() {
        // Two workers, recording through their own shards.
        let m = ServeMetrics::new();
        let r = &m.registry;
        for (worker, size) in [(0, 2), (1, 1)] {
            r.incr(worker, CounterId::ServeBatches);
            r.observe(worker, HistogramId::BatchSize, size);
        }
        for (worker, wait_us) in [(0, 1000), (0, 2000), (1, 0)] {
            r.incr(worker, CounterId::ServeRequests);
            r.observe(worker, HistogramId::QueueWaitMicros, wait_us);
            r.observe(worker, HistogramId::ServiceMicros, 10_000);
        }
        let report = m.report(Duration::from_secs(2));
        assert_eq!((report.requests, report.batches), (3, 2));
        assert!((report.throughput_rps - 1.5).abs() < 1e-12);
        assert!((report.mean_batch_size() - 1.5).abs() < 1e-12);
        let bar = |size, batches| BatchBar { size, batches };
        assert_eq!(report.batch_histogram, vec![bar(1, 1), bar(2, 1)]);
        assert_eq!(r.counter_per_shard(CounterId::ServeRequests)[..2], [2, 1]);
        assert!((report.service.mean_ms - 10.0).abs() < 1e-9);
        assert!((report.queue_wait.mean_ms - 1.0).abs() < 1e-9);
        assert_within_a_bucket(report.queue_wait.p50_ms, 1.0, "median wait");
        assert_within_a_bucket(report.service.p50_ms, 10.0, "median service");
    }

    #[test]
    fn collector_tracks_supervision_counts_and_failures() {
        let m = ServeMetrics::new();
        let r = &m.registry;
        r.incr(0, CounterId::ServeShed);
        r.incr(0, CounterId::ServeShed);
        r.incr(1, CounterId::ServeDeadlineExpired);
        for i in 0..40 {
            r.incr(1, CounterId::ServeWorkerPanics);
            m.record_failure(format!("poisoned request {i}"));
        }
        r.incr(1, CounterId::ServeWorkerRespawns);
        m.record_failure("worker 0 died".to_string());
        let report = m.report(Duration::from_secs(1));
        assert_eq!((report.shed, report.deadline_expired), (2, 1));
        assert_eq!((report.worker_panics, report.worker_respawns), (40, 1));
        // The ring keeps the last sixteen messages, oldest first.
        let want: Vec<String> = (25..40)
            .map(|i| format!("poisoned request {i}"))
            .chain(["worker 0 died".to_string()])
            .collect();
        assert_eq!(report.worker_failures, want);
    }
}
