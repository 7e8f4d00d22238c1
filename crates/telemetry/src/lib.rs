//! Lock-free, zero-alloc-on-hot-path telemetry for the Dynasparse
//! reproduction.
//!
//! The paper's central claim is that the profitable kernel is a *runtime*
//! property of sparsity (Table IV); this crate is the sensor layer that lets
//! the reproduction answer "which primitive ran, what did the cost model
//! predict, and what did it actually cost?" for every served request.
//!
//! # Architecture
//!
//! * [`Registry`] — a fixed-slot metrics core: every counter, gauge and
//!   histogram is a compile-time enum slot ([`CounterId`], [`GaugeId`],
//!   [`HistogramId`]) backed by preallocated atomics. Counters and histograms
//!   are sharded per worker (writers pick a shard, readers merge on
//!   snapshot), gauges are process-wide singletons (merging set-style values
//!   by summation would be wrong).
//! * [`FlightRecorder`] — a bounded per-session ring of [`KernelSpan`]s fed
//!   by the kernel dispatcher on every dispatch: `(layer, primitive picked,
//!   product shape, α_X, α_Y, predicted_ms, measured_ms)`.
//! * [`DriftTracker`] — folds measured-vs-predicted kernel ratios into
//!   per-primitive EWMA gauges.  They are observability only: they show how
//!   far the host fit, measured once per process, is from what runs; nothing
//!   acts on them.
//! * [`SessionTelemetry`] — the per-session bundle (registry handle + cached
//!   level + shard + recorder + drift tracker) the engine threads through the
//!   hot path.
//! * [`TelemetrySnapshot`] — the merge-on-read view with Prometheus text
//!   exposition and a hand-rolled JSON writer (the vendored serde has no
//!   runtime serializer we want on this crate).
//!
//! Histograms are log-linear ([`HISTOGRAM_BUCKETS`] buckets): values below
//! 32 are exact, and each octave above has [`SUB_BUCKETS`] buckets, so
//! [`HistogramSample::quantile`] is within 6.25 % of the exact nearest-rank
//! value.  A serve runtime reads its whole report off one such registry.
//!
//! # Levels
//!
//! The layer is gated by `DYNASPARSE_TELEMETRY=off|counters|trace`
//! (default `counters`):
//!
//! * `off` — every hot-path call is a branch on a cached enum and returns.
//! * `counters` — counters, gauges and histograms update; no spans are
//!   retained.
//! * `trace` — additionally every kernel dispatch pushes a [`KernelSpan`]
//!   into the session's flight-recorder ring.
//!
//! All hot-path writes are allocation-free: slots are fixed arrays, the span
//! ring is preallocated, and EWMA gauges update via a CAS loop on `f64` bits.

mod ids;
mod recorder;
mod registry;
mod session;
mod snapshot;

pub use ids::{CounterId, GaugeId, HistogramId};
pub use recorder::{DriftTracker, FlightRecorder, KernelSpan, SpanPrimitive};
pub use registry::{Registry, HISTOGRAM_BUCKETS, NUM_SHARDS, SUB_BUCKETS};
pub use session::SessionTelemetry;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, TelemetrySnapshot};

/// Environment variable selecting the telemetry level.
pub const TELEMETRY_ENV: &str = "DYNASPARSE_TELEMETRY";

/// How much the telemetry layer records; see the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Hot-path calls short-circuit to near-no-ops.
    Off,
    /// Counters, gauges and histograms update (the default).
    #[default]
    Counters,
    /// `Counters` plus per-dispatch kernel spans into the flight recorder.
    Trace,
}

impl TelemetryLevel {
    /// Parses [`TELEMETRY_ENV`]; unset or unrecognized values map to the
    /// default (`counters`).
    pub fn from_env() -> TelemetryLevel {
        match std::env::var(TELEMETRY_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("off") => TelemetryLevel::Off,
            Ok(v) if v.eq_ignore_ascii_case("trace") => TelemetryLevel::Trace,
            _ => TelemetryLevel::Counters,
        }
    }

    /// Whether any recording happens at this level.
    pub fn enabled(self) -> bool {
        self != TelemetryLevel::Off
    }

    /// Whether kernel spans are retained at this level.
    pub fn tracing(self) -> bool {
        self == TelemetryLevel::Trace
    }
}
