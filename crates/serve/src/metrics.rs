//! Serving metrics: per-request samples, percentile summaries, and the
//! aggregate [`ServeReport`] a runtime hands back at shutdown.

use serde::Serialize;
use std::sync::Mutex;
use std::time::Duration;

/// Summary statistics over one latency dimension, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (50th percentile).
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile (equals `max_ms` below 1000 samples).
    pub p999_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes `samples` (order irrelevant); all-zero for no samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        LatencySummary {
            count: sorted.len(),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            p999_ms: percentile(&sorted, 0.999),
            max_ms: *sorted.last().unwrap(),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; `q` in `[0, 1]`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One bar of the batch-size histogram: how many drains took `size` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BatchBar {
    /// Batch size (number of requests one queue drain took).
    pub size: usize,
    /// Number of batches of that size.
    pub batches: u64,
}

/// Requests served by one worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WorkerLoad {
    /// Worker index within the pool.
    pub worker: usize,
    /// Requests that worker served.
    pub requests: u64,
}

/// Aggregate serving metrics produced by
/// [`ServeRuntime::shutdown`](crate::ServeRuntime::shutdown).
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
    /// End-to-end request latency (enqueue → reply ready): queue wait plus
    /// service.
    pub turnaround: LatencySummary,
    /// Distribution of drain sizes, ascending by size.
    pub batch_histogram: Vec<BatchBar>,
    /// Per-worker request counts, ascending by worker index.
    pub worker_loads: Vec<WorkerLoad>,
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
    /// Stringified panic payloads observed by the supervisor, plus any
    /// terminal worker-thread panic recovered at `join` time (previously
    /// discarded by `let _ = worker.join()`).
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

#[derive(Default)]
struct MetricsInner {
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    turnaround_ms: Vec<f64>,
    batch_sizes: Vec<u64>,
    worker_requests: Vec<u64>,
    shed: u64,
    deadline_expired: u64,
    worker_panics: u64,
    worker_respawns: u64,
    worker_failures: Vec<String>,
}

/// Thread-safe collector the worker pool records into.
#[derive(Default)]
pub struct MetricsCollector {
    inner: Mutex<MetricsInner>,
}

impl MetricsCollector {
    /// Creates a collector for `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        MetricsCollector {
            inner: Mutex::new(MetricsInner {
                worker_requests: vec![0; workers],
                ..MetricsInner::default()
            }),
        }
    }

    /// Records one served request.
    pub fn record_request(
        &self,
        worker: usize,
        queue_wait: Duration,
        service: Duration,
        turnaround: Duration,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.queue_wait_ms.push(queue_wait.as_secs_f64() * 1e3);
        inner.service_ms.push(service.as_secs_f64() * 1e3);
        inner.turnaround_ms.push(turnaround.as_secs_f64() * 1e3);
        if worker >= inner.worker_requests.len() {
            inner.worker_requests.resize(worker + 1, 0);
        }
        inner.worker_requests[worker] += 1;
    }

    /// Records one queue drain of `size` requests.
    pub fn record_batch(&self, size: usize) {
        let mut inner = self.inner.lock().unwrap();
        if size >= inner.batch_sizes.len() {
            inner.batch_sizes.resize(size + 1, 0);
        }
        inner.batch_sizes[size] += 1;
    }

    /// Records one submission rejected by the load-shedding watermark.
    pub fn record_shed(&self) {
        self.inner.lock().unwrap().shed += 1;
    }

    /// Records one accepted request dropped because its deadline expired
    /// before a worker reached it.
    pub fn record_deadline_expired(&self) {
        self.inner.lock().unwrap().deadline_expired += 1;
    }

    /// Records one caught worker panic, with its stringified payload.
    pub fn record_worker_panic(&self, message: String) {
        let mut inner = self.inner.lock().unwrap();
        inner.worker_panics += 1;
        inner.worker_failures.push(message);
    }

    /// Records one worker-session rebuild after a caught panic.
    pub fn record_worker_respawn(&self) {
        self.inner.lock().unwrap().worker_respawns += 1;
    }

    /// Records a worker thread's terminal panic payload recovered at
    /// `join` time (a panic that escaped the supervisor).
    pub fn record_worker_join_failure(&self, message: String) {
        self.inner.lock().unwrap().worker_failures.push(message);
    }

    /// Snapshots the aggregate report; `wall` is the runtime's lifetime.
    pub fn report(&self, wall: Duration) -> ServeReport {
        let inner = self.inner.lock().unwrap();
        let requests = inner.service_ms.len() as u64;
        let wall_seconds = wall.as_secs_f64();
        ServeReport {
            requests,
            batches: inner.batch_sizes.iter().sum(),
            wall_seconds,
            throughput_rps: if wall_seconds > 0.0 {
                requests as f64 / wall_seconds
            } else {
                0.0
            },
            queue_wait: LatencySummary::from_samples(&inner.queue_wait_ms),
            service: LatencySummary::from_samples(&inner.service_ms),
            turnaround: LatencySummary::from_samples(&inner.turnaround_ms),
            batch_histogram: inner
                .batch_sizes
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(size, &batches)| BatchBar { size, batches })
                .collect(),
            worker_loads: inner
                .worker_requests
                .iter()
                .enumerate()
                .map(|(worker, &requests)| WorkerLoad { worker, requests })
                .collect(),
            shed: inner.shed,
            deadline_expired: inner.deadline_expired,
            worker_panics: inner.worker_panics,
            worker_respawns: inner.worker_respawns,
            worker_failures: inner.worker_failures.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
        assert!((s.p50_ms - 51.0).abs() < 1.0);
        assert!(s.p99_ms >= 98.0 && s.p99_ms <= 100.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
    }

    #[test]
    fn empty_and_single_sample_summaries_are_degenerate_but_defined() {
        // No samples: every field is zero, not NaN (the report is
        // serialized, and NaN would poison the JSON).
        let empty = LatencySummary::from_samples(&[]);
        assert_eq!(empty, LatencySummary::default());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p50_ms, 0.0);
        assert_eq!(empty.p99_ms, 0.0);
        // One sample: every percentile, the mean and the max collapse onto
        // that sample.
        let one = LatencySummary::from_samples(&[7.25]);
        assert_eq!(one.count, 1);
        assert_eq!(one.mean_ms, 7.25);
        assert_eq!(one.p50_ms, 7.25);
        assert_eq!(one.p99_ms, 7.25);
        assert_eq!(one.max_ms, 7.25);
    }

    #[test]
    fn tie_heavy_samples_keep_percentiles_on_real_samples() {
        // Nearest-rank percentiles must return an actual sample value, even
        // when the distribution is a step function of two values.
        let mut samples = vec![1.0; 99];
        samples.push(100.0);
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 1.0, "median of 99x 1.0 + 1x 100.0 is 1.0");
        assert_eq!(s.max_ms, 100.0);
        assert!(
            s.p99_ms == 1.0 || s.p99_ms == 100.0,
            "p99 must be one of the sample values, got {}",
            s.p99_ms
        );
        // All-identical samples: every statistic equals that value.
        let flat = LatencySummary::from_samples(&[3.0; 17]);
        assert_eq!(flat.p50_ms, 3.0);
        assert_eq!(flat.p99_ms, 3.0);
        assert_eq!(flat.max_ms, 3.0);
        assert_eq!(flat.mean_ms, 3.0);
    }

    #[test]
    fn percentiles_are_order_invariant_under_adversarial_orderings() {
        // The summary sorts internally, so descending, interleaved and
        // sorted inputs must summarize identically.
        let sorted: Vec<f64> = (1..=101).map(|v| v as f64).collect();
        let descending: Vec<f64> = sorted.iter().rev().copied().collect();
        let interleaved: Vec<f64> = (0..101)
            .map(|i| {
                // 51, 1, 52, 2, ... — alternating halves.
                if i % 2 == 0 {
                    (51 + i / 2) as f64
                } else {
                    (1 + i / 2) as f64
                }
            })
            .collect();
        let a = LatencySummary::from_samples(&sorted);
        let b = LatencySummary::from_samples(&descending);
        let c = LatencySummary::from_samples(&interleaved);
        assert_eq!(a.p50_ms, b.p50_ms);
        assert_eq!(a.p50_ms, c.p50_ms);
        assert_eq!(a.p99_ms, b.p99_ms);
        assert_eq!(a.p99_ms, c.p99_ms);
        assert_eq!(a.max_ms, 101.0);
        assert_eq!(b.max_ms, 101.0);
        // Odd count: the median is the exact middle sample.
        assert_eq!(a.p50_ms, 51.0);
        // Nearest-rank p99 of 101 ascending integers: rank round(0.99*100).
        assert_eq!(a.p99_ms, 100.0);
    }

    #[test]
    fn collector_aggregates_batches_and_workers() {
        let m = MetricsCollector::new(2);
        let ms = Duration::from_millis;
        m.record_batch(2);
        m.record_request(0, ms(1), ms(10), ms(11));
        m.record_request(0, ms(2), ms(10), ms(12));
        m.record_batch(1);
        m.record_request(1, ms(0), ms(10), ms(10));
        let r = m.report(Duration::from_secs(2));
        assert_eq!(r.requests, 3);
        assert_eq!(r.batches, 2);
        assert!((r.throughput_rps - 1.5).abs() < 1e-12);
        assert!((r.mean_batch_size() - 1.5).abs() < 1e-12);
        assert_eq!(
            r.batch_histogram,
            vec![
                BatchBar {
                    size: 1,
                    batches: 1
                },
                BatchBar {
                    size: 2,
                    batches: 1
                }
            ]
        );
        assert_eq!(
            r.worker_loads,
            vec![
                WorkerLoad {
                    worker: 0,
                    requests: 2
                },
                WorkerLoad {
                    worker: 1,
                    requests: 1
                }
            ]
        );
        assert!((r.service.mean_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn p999_tracks_the_tail() {
        let samples: Vec<f64> = (1..=2000).map(|v| v as f64).collect();
        let s = LatencySummary::from_samples(&samples);
        assert!(s.p999_ms >= s.p99_ms);
        assert!(s.p999_ms <= s.max_ms);
        assert!(s.p999_ms >= 1997.0, "p999 of 1..=2000 must sit in the tail");
        // Small sample counts collapse p999 onto the max.
        let few = LatencySummary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(few.p999_ms, 3.0);
    }

    #[test]
    fn collector_tracks_supervision_counts_and_failures() {
        let m = MetricsCollector::new(1);
        m.record_shed();
        m.record_shed();
        m.record_deadline_expired();
        m.record_worker_panic("poisoned request 3".to_string());
        m.record_worker_respawn();
        m.record_worker_join_failure("worker 0 died".to_string());
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.shed, 2);
        assert_eq!(r.deadline_expired, 1);
        assert_eq!(r.worker_panics, 1);
        assert_eq!(r.worker_respawns, 1);
        assert_eq!(
            r.worker_failures,
            vec![
                "poisoned request 3".to_string(),
                "worker 0 died".to_string()
            ]
        );
    }
}
