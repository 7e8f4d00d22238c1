//! The sharded, fixed-slot metrics core.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::ids::{CounterId, GaugeId, HistogramId};
use crate::snapshot::{HistogramSample, TelemetrySnapshot};
use crate::TelemetryLevel;

/// Writer shards for counters and histograms. Serve workers write to
/// `worker_index % NUM_SHARDS`; unsharded writers (tests, examples) default
/// to a round-robin shard picked at session construction. Readers merge all
/// shards on snapshot, so the shard count only affects write contention.
pub const NUM_SHARDS: usize = 8;

/// Sub-buckets per octave of a log-linear histogram (a power of two).
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Buckets per log-linear histogram.  Values below `2 · SUB_BUCKETS` (32)
/// get one bucket each, so they are exact; above that, every octave
/// `[2^e, 2^(e+1))` is cut into [`SUB_BUCKETS`] equal buckets, so no bucket
/// is wider than 1/16 (6.25 %) of its lower bound.  The buckets cover all of
/// `u64`: there is no overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS * (65 - SUB_BITS as usize);

pub(crate) const NUM_COUNTERS: usize = CounterId::ALL.len();
pub(crate) const NUM_GAUGES: usize = GaugeId::ALL.len();
pub(crate) const NUM_HISTOGRAMS: usize = HistogramId::ALL.len();

/// The bucket holding `v`: `v` itself below [`SUB_BUCKETS`]; above, the
/// octave's first bucket plus the [`SUB_BITS`] bits after `v`'s leading one.
/// (The octave `[16, 32)` lands on `v` too, so all of `[0, 32)` is exact.)
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB_BUCKETS + ((v >> shift) as usize & (SUB_BUCKETS - 1))
}

/// The inclusive bounds `(lower, upper)` of bucket `b`, the values
/// [`bucket_index`] maps to `b`.
pub(crate) fn bucket_bounds(b: usize) -> (u64, u64) {
    if b < SUB_BUCKETS {
        return (b as u64, b as u64);
    }
    let shift = b / SUB_BUCKETS - 1;
    let lower = ((SUB_BUCKETS + b % SUB_BUCKETS) as u64) << shift;
    (lower, lower + ((1u64 << shift) - 1))
}

/// One log-linear histogram slot: per-bucket counts plus a running sum.
/// The count is the buckets' total, summed on read.
pub(crate) struct HistogramSlot {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) sum: AtomicU64,
}

impl HistogramSlot {
    fn new() -> HistogramSlot {
        HistogramSlot {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// One writer shard: a fixed array of counters and histograms.
pub(crate) struct Shard {
    pub(crate) counters: [AtomicU64; NUM_COUNTERS],
    pub(crate) histograms: [HistogramSlot; NUM_HISTOGRAMS],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| HistogramSlot::new()),
        }
    }
}

/// The process-wide (or test-local) metrics registry.
///
/// Every slot is preallocated at construction; all writes are single atomic
/// RMW operations on those slots, so the hot path never allocates, locks, or
/// hashes. Counters and histograms are additive and sharded ([`NUM_SHARDS`]);
/// gauges are point-in-time values kept unsharded because merging them by
/// summation would be meaningless.
pub struct Registry {
    level: TelemetryLevel,
    shards: Box<[Shard]>,
    /// Gauge slots storing `f64` bits; `f64::NAN` marks a never-set gauge.
    gauges: [AtomicU64; NUM_GAUGES],
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("level", &self.level)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Registry {
    /// A registry recording at `level` with [`NUM_SHARDS`] writer shards.
    pub fn new(level: TelemetryLevel) -> Registry {
        Registry {
            level,
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            gauges: std::array::from_fn(|_| AtomicU64::new(f64::NAN.to_bits())),
        }
    }

    /// The process-wide registry, leveled by `DYNASPARSE_TELEMETRY`
    /// (read once, on first use).
    pub fn global() -> Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Arc::new(Registry::new(TelemetryLevel::from_env())))
            .clone()
    }

    /// The level this registry records at.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// The number of writer shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Adds `n` to a counter through `shard` (wrapped modulo the shard
    /// count).
    pub fn add(&self, shard: usize, id: CounterId, n: u64) {
        if !self.level.enabled() {
            return;
        }
        self.shards[shard % self.shards.len()].counters[id.idx()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter through `shard`.
    pub fn incr(&self, shard: usize, id: CounterId) {
        self.add(shard, id, 1);
    }

    /// Records `v` into a histogram through `shard`.
    pub fn observe(&self, shard: usize, id: HistogramId, v: u64) {
        if !self.level.enabled() {
            return;
        }
        self.shards[shard % self.shards.len()].histograms[id.idx()].observe(v);
    }

    /// Sets a gauge to `v` (last write wins).
    pub fn gauge_set(&self, id: GaugeId, v: f64) {
        if !self.level.enabled() {
            return;
        }
        self.gauges[id.idx()].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Folds `sample` into an EWMA gauge with smoothing factor `alpha` via a
    /// CAS loop; the first sample seeds the average.
    pub fn gauge_ewma(&self, id: GaugeId, sample: f64, alpha: f64) {
        if !self.level.enabled() || !sample.is_finite() {
            return;
        }
        let slot = &self.gauges[id.idx()];
        let mut old_bits = slot.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(old_bits);
            let new = if old.is_nan() {
                sample
            } else {
                old * (1.0 - alpha) + sample * alpha
            };
            match slot.compare_exchange_weak(
                old_bits,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => old_bits = observed,
            }
        }
    }

    /// The merged (all-shard) value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[id.idx()].load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard values of a counter, in shard order. Serve workers write to
    /// `worker_index % NUM_SHARDS`, so this is the per-worker breakdown the
    /// merge-completeness tests sum.
    pub fn counter_per_shard(&self, id: CounterId) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.counters[id.idx()].load(Ordering::Relaxed))
            .collect()
    }

    /// The current value of a gauge (`NaN` if never set).
    pub fn gauge(&self, id: GaugeId) -> f64 {
        f64::from_bits(self.gauges[id.idx()].load(Ordering::Relaxed))
    }

    /// A merged point-in-time view of every metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::collect(self)
    }

    /// The merged (all-shard) histogram `id`.  Allocates its bucket vector;
    /// the writers never do.
    pub fn histogram(&self, id: HistogramId) -> HistogramSample {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for shard in self.shards.iter() {
            let slot = &shard.histograms[id.idx()];
            for (acc, bucket) in buckets.iter_mut().zip(slot.buckets.iter()) {
                *acc += bucket.load(Ordering::Relaxed);
            }
            sum += slot.sum.load(Ordering::Relaxed);
        }
        HistogramSample {
            id,
            count: buckets.iter().sum(),
            buckets,
            sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_a_bucket_each() {
        for v in 0..2 * SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bucket_boundaries_below_exact_above_each_log2_edge() {
        // From 32 up, a power of two opens its octave's first bucket and
        // the value below it closes the previous octave's last one.
        for e in 5..64 {
            let edge = 1u64 << e;
            let b = bucket_index(edge);
            assert_eq!(bucket_bounds(b).0, edge, "2^{e} opens its bucket");
            assert_eq!(b % SUB_BUCKETS, 0, "2^{e} is an octave's first bucket");
            assert_eq!(bucket_index(edge - 1), b - 1, "2^{e} - 1");
            assert_eq!(
                bucket_bounds(b - 1).1,
                edge - 1,
                "2^{e} - 1 closes its bucket"
            );
        }
    }

    #[test]
    fn bucket_overflow_clamps_to_last() {
        // No overflow bucket: the top of `u64` is the last bucket's range.
        let last = HISTOGRAM_BUCKETS - 1;
        assert_eq!(bucket_index(u64::MAX), last);
        assert_eq!(bucket_index(31 << 59), last);
        assert_eq!(bucket_index((31 << 59) - 1), last - 1);
        assert_eq!(bucket_bounds(last), (31 << 59, u64::MAX));
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it_and_no_bucket_is_wide() {
        // Every octave edge and its neighbours, then a fixed-seed spread of
        // values over every magnitude (splitmix64, shifted right by a
        // varying amount so small values are drawn as often as large ones).
        let mut values: Vec<u64> = (0..64)
            .flat_map(|e| {
                let edge = 1u64 << e;
                [edge - 1, edge, edge + 1]
            })
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000u32 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            values.push((z ^ (z >> 31)) >> (i % 64));
        }
        for v in values {
            let b = bucket_index(v);
            assert!(b < HISTOGRAM_BUCKETS, "{v} -> bucket {b}");
            let (lower, upper) = bucket_bounds(b);
            assert!(
                lower <= v && v <= upper,
                "{v} outside bucket {b} [{lower}, {upper}]"
            );
            let width = upper - lower + 1;
            if v >= 2 * SUB_BUCKETS as u64 {
                assert!(
                    width * SUB_BUCKETS as u64 <= lower,
                    "bucket {b} [{lower}, {upper}] is wider than 1/16 of its lower bound"
                );
            } else {
                assert_eq!(width, 1, "{v} must be exact");
            }
        }
        // The buckets tile `u64`: each starts one past the last one's end.
        for b in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_bounds(b).0, bucket_bounds(b - 1).1 + 1, "bucket {b}");
        }
    }

    #[test]
    fn counters_merge_across_shards() {
        let r = Registry::new(TelemetryLevel::Counters);
        for shard in 0..NUM_SHARDS {
            r.add(shard, CounterId::KernelSpans, (shard + 1) as u64);
        }
        let expected: u64 = (1..=NUM_SHARDS as u64).sum();
        assert_eq!(r.counter(CounterId::KernelSpans), expected);
        let per_shard = r.counter_per_shard(CounterId::KernelSpans);
        assert_eq!(per_shard.len(), NUM_SHARDS);
        assert_eq!(per_shard.iter().sum::<u64>(), expected);
    }

    #[test]
    fn off_registry_records_nothing() {
        let r = Registry::new(TelemetryLevel::Off);
        r.incr(0, CounterId::ServeRequests);
        r.observe(0, HistogramId::BatchSize, 4);
        r.gauge_set(GaugeId::QueueDepth, 9.0);
        r.gauge_ewma(GaugeId::DriftGemm, 2.0, 0.5);
        assert_eq!(r.counter(CounterId::ServeRequests), 0);
        assert!(r.gauge(GaugeId::QueueDepth).is_nan());
        assert!(r.gauge(GaugeId::DriftGemm).is_nan());
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let r = Registry::new(TelemetryLevel::Counters);
        r.gauge_ewma(GaugeId::DriftSpmm, 2.0, 0.25);
        assert_eq!(r.gauge(GaugeId::DriftSpmm), 2.0);
        r.gauge_ewma(GaugeId::DriftSpmm, 4.0, 0.25);
        assert!((r.gauge(GaugeId::DriftSpmm) - 2.5).abs() < 1e-12);
        // Non-finite samples are ignored rather than poisoning the average.
        r.gauge_ewma(GaugeId::DriftSpmm, f64::NAN, 0.25);
        assert!((r.gauge(GaugeId::DriftSpmm) - 2.5).abs() < 1e-12);
    }
}
