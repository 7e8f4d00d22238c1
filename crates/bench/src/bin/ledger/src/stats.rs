//! Order statistics with their sample counts.
//!
//! Every percentile the ledger prints carries the number of samples behind
//! it, and a tail percentile is only meaningful when at least ten samples
//! lie beyond it ([`highest_supported_tail`]).

/// Nearest-rank percentile of an ascending-sorted, non-empty slice;
/// `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of `values` (mean of the middle pair for even counts); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether quantile `q` of `count` samples has at least ten samples beyond
/// it (the median always does from 20 samples on; p95 needs 200).
pub fn tail_supported(count: usize, q: f64) -> bool {
    // The epsilon keeps 200 x (1 - 0.95) from rounding just under ten.
    count as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// A sorted sample set: percentiles are read off it together with `count`.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of `values` (any order; NaNs sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, ascending.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Nearest-rank percentile; 0 for an empty set, so a workload that
    /// answered nothing still prints (and fails on its counts instead).
    pub fn q(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, q)
        }
    }
}

/// A measured loop cut into equal time windows, each summarised on its own.
///
/// The benchmark box is a shared two-core VM whose noise is one-sided: a busy
/// neighbour on the same physical core or memory bus only ever slows a window
/// down, for seconds at a time.  The *best* window is therefore the closest
/// estimate of what the code can do, and it is what repeats from run to run
/// (see the README for the measured spreads); the median window says how the
/// typical stretch went.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Windowed {
    /// Answered requests per second, per window: the window's answers over
    /// the time from the previous window's last answer to its own last
    /// answer, so the figure is not quantised by the window's edges.
    pub throughput_rps: Vec<f64>,
    /// Median latency, per window.
    pub p50_ms: Vec<f64>,
    /// Share of the window's requests answered within the limit (requests
    /// that were refused or failed miss it), per window.
    pub within_share: Vec<f64>,
    /// Answered requests, per window.
    pub answered: Vec<f64>,
}

impl Windowed {
    /// Windows that saw at least one request.
    pub fn windows(&self) -> usize {
        self.answered.len()
    }

    /// Whether window `w` is full enough to stand for the loop: at least
    /// half the median window's answers.  The closing window of a loop, or
    /// one that a stall emptied, holds a handful of requests whose median
    /// would win "best window" by luck.
    fn full(&self, w: usize) -> bool {
        self.answered[w] >= 0.5 * median(&self.answered)
    }

    /// Highest throughput of a full window; 0 for none.
    pub fn best_throughput_rps(&self) -> f64 {
        (0..self.windows())
            .filter(|&w| self.full(w))
            .map(|w| self.throughput_rps[w])
            .fold(0.0, f64::max)
    }

    /// Lowest median latency of a full window; 0 for none.
    pub fn best_p50_ms(&self) -> f64 {
        (0..self.windows())
            .filter(|&w| self.full(w))
            .map(|w| self.p50_ms[w])
            .reduce(f64::min)
            .unwrap_or(0.0)
    }
}

/// Cuts `events` — `(issued_s, latency_ms)` per attempted request, `None`
/// for one that was refused or failed — into windows of `width_s` over
/// `seconds` and summarises each.  A request belongs to the window in which
/// its answer arrived (one without an answer: in which it was issued); what
/// arrives after `seconds` joins the last window.  Windows without a request
/// are left out.
pub fn windowed(
    events: impl IntoIterator<Item = (f64, Option<f64>)>,
    seconds: f64,
    width_s: f64,
    limit_ms: f64,
) -> Windowed {
    let windows = (seconds / width_s).round().max(1.0) as usize;
    let mut attempted = vec![0usize; windows];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut last_answer_s = vec![0.0f64; windows];
    for (issued_s, latency_ms) in events {
        let at_s = issued_s + latency_ms.unwrap_or(0.0) / 1e3;
        let w = ((at_s / width_s) as usize).min(windows - 1);
        attempted[w] += 1;
        if let Some(ms) = latency_ms {
            latencies[w].push(ms);
            last_answer_s[w] = last_answer_s[w].max(at_s);
        }
    }
    let mut out = Windowed::default();
    let mut previous_answer_s = 0.0;
    for (w, answered) in latencies.into_iter().enumerate() {
        if attempted[w] == 0 {
            continue;
        }
        let within = answered.iter().filter(|&&ms| ms <= limit_ms).count();
        let answered = Samples::new(answered);
        let span_s = last_answer_s[w] - previous_answer_s;
        out.throughput_rps.push(if span_s > 0.0 {
            answered.count() as f64 / span_s
        } else {
            0.0
        });
        if answered.count() > 0 {
            previous_answer_s = last_answer_s[w];
        }
        out.p50_ms.push(answered.q(0.50));
        out.within_share.push(within as f64 / attempted[w] as f64);
        out.answered.push(answered.count() as f64);
    }
    out
}

/// By what share of `first` the metric got worse from `first` to `second`
/// (negative: it improved); `lower_is_better` gives the metric's direction.
pub fn relative_worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_reports_count() {
        let s = Samples::new((1..=101).rev().map(f64::from).collect());
        assert_eq!(s.count(), 101);
        assert_eq!(s.q(0.0), 1.0);
        assert_eq!(s.q(0.5), 51.0);
        assert_eq!(s.q(0.95), 96.0);
        assert_eq!(s.q(1.0), 101.0);
        assert_eq!(Samples::default().q(0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1_000, 0.99));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn a_stalled_window_spoils_only_itself() {
        // Five 1-second windows of a closed loop, a request every 100 ms
        // answered after 50 ms; in the third window four requests stall to
        // 400 ms (still answered inside it) and one is refused.
        let mut events = Vec::new();
        for w in 0..5 {
            for i in 0..10 {
                let stalled = w == 2 && (2..6).contains(&i);
                let latency = if stalled { 400.0 } else { 50.0 };
                events.push((w as f64 + i as f64 / 10.0, Some(latency)));
            }
        }
        events.push((2.5, None));
        let s = windowed(events, 5.0, 1.0, 100.0);
        assert_eq!(s.windows(), 5);
        assert_eq!(s.answered, [10.0; 5]);
        assert_eq!(s.p50_ms, [50.0; 5]);
        assert_eq!(s.within_share[2], 6.0 / 11.0);
        assert_eq!(median(&s.within_share), 1.0);
        // Ten answers from one window's last answer to the next: 10 req/s,
        // except the first window, which is counted from the loop's start.
        for (w, rps) in s.throughput_rps.iter().enumerate() {
            let expected = if w == 0 { 10.0 / 0.95 } else { 10.0 };
            assert!((rps - expected).abs() < 1e-9, "window {w}: {rps}");
        }
        assert!((s.best_throughput_rps() - 10.0 / 0.95).abs() < 1e-9);
        assert_eq!(s.best_p50_ms(), 50.0);
    }

    #[test]
    fn a_request_is_counted_where_its_answer_arrives() {
        // Issued in the first window, answered 1.5 s later in the second; a
        // late straggler joins the last window; no request, no window.
        let s = windowed([(0.2, Some(1500.0)), (2.9, Some(400.0))], 3.0, 1.0, 50.0);
        assert_eq!(s.answered, [1.0, 1.0]);
        assert_eq!(s.p50_ms, [1500.0, 400.0]);
        assert!((s.throughput_rps[0] - 1.0 / 1.7).abs() < 1e-9);
        assert!((s.throughput_rps[1] - 1.0 / 1.6).abs() < 1e-9);
        let empty = windowed([], 5.0, 1.0, 50.0);
        assert_eq!(empty, Windowed::default());
        assert_eq!(
            (empty.best_p50_ms(), empty.best_throughput_rps()),
            (0.0, 0.0)
        );
    }

    #[test]
    fn a_nearly_empty_window_cannot_be_the_best() {
        // Three windows of 20 requests at 5 ms and a closing one holding two
        // lucky 1 ms requests.
        let mut events: Vec<(f64, Option<f64>)> =
            (0..60).map(|i| (i as f64 * 0.05, Some(5.0))).collect();
        events.extend([(3.1, Some(1.0)), (3.2, Some(1.0))]);
        let s = windowed(events, 4.0, 1.0, 50.0);
        assert_eq!(s.answered, [20.0, 20.0, 20.0, 2.0]);
        assert_eq!(s.p50_ms[3], 1.0);
        assert_eq!(s.best_p50_ms(), 5.0);
        assert!(s.best_throughput_rps() < 21.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((relative_worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((relative_worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert_eq!(relative_worsening(0.0, 5.0, true), 0.0);
    }
}
