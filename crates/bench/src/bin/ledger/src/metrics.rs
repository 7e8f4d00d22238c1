//! The ledger's vocabulary: workload names, metric names, units, bounds.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! (`main.rs`) keeps the two in step.  A run fills a [`Report`] and the
//! catalogue decides what is printed, so a metric can neither be forgotten
//! nor emitted twice.

use crate::{json, stats};
use std::fmt::Write as _;
use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The latency limit behind `within_limit_share`, milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// What a user of the system sees, measured with tracing off.  The bounds
/// are wider than issue 12 proposed because the benchmark box could not
/// repeat the timings more closely from run to run; the README records the
/// measured spreads.  A tail latency is not among them: on this box no
/// statistic of it repeated within any bound, so the 95th percentile is
/// printed with every run and kept as the per-layer `bench.latency_p95_ms`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("within_limit_share", "share", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer metrics from the traced run; the prefix is the crate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("machine.fma_gflops", "GFLOP/s", Higher),
    layer("machine.triad_gbs", "GB/s", Higher),
    layer("graph.sample_us", "us", Lower),
    layer("graph.subgraph_vertices", "count", Lower),
    layer("compiler.topology_us", "us", Lower),
    layer("core.plan_ms", "ms", Lower),
    layer("core.template_compile_ms", "ms", Lower),
    layer("core.instantiate_us", "us", Lower),
    layer("core.rebind_us", "us", Lower),
    layer("core.session_open_ms", "ms", Lower),
    layer("core.infer_embed_us", "us", Lower),
    layer("core.infer_priced_us", "us", Lower),
    layer("core.infer_batch8_us_per_req", "us", Lower),
    layer("matrix.calibrate_ms", "ms", Lower),
    layer("matrix.profile_us", "us", Lower),
    layer("matrix.d2s_us", "us", Lower),
    layer("matrix.gemm_gflops", "GFLOP/s", Higher),
    layer("matrix.gemm_bytes", "B", Lower),
    layer("matrix.gemm_roof_frac", "share", Higher),
    layer("matrix.spdmm_gflops", "GFLOP/s", Higher),
    layer("matrix.spdmm_bytes", "B", Lower),
    layer("matrix.spdmm_roof_frac", "share", Higher),
    layer("matrix.spgemm_gflops", "GFLOP/s", Higher),
    layer("matrix.spgemm_bytes", "B", Lower),
    layer("matrix.spgemm_roof_frac", "share", Higher),
    layer("model.reference_forward_us", "us", Lower),
    layer("model.dispatch_gemm", "count", Lower),
    layer("model.dispatch_spdmm", "count", Lower),
    layer("model.dispatch_spgemm", "count", Lower),
    layer("model.dispatch_skip", "count", Higher),
    layer("model.recalibrations", "count", Lower),
    layer("model.drift_gemm", "ratio", Lower),
    layer("model.drift_spdmm", "ratio", Lower),
    layer("model.drift_spgemm", "ratio", Lower),
    layer("runtime.analyze_us", "us", Lower),
    layer("runtime.key_ns", "ns", Lower),
    layer("runtime.cache_get_ns", "ns", Lower),
    layer("runtime.pricing_hit_ratio", "share", Higher),
    layer("runtime.pricing_evictions", "count", Lower),
    layer("runtime.pricing_share", "share", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p99_ms", "ms", Lower),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.turnaround_p95_ms", "ms", Lower),
    layer("serve.turnaround_p99_ms", "ms", Lower),
    layer("serve.refused", "count", Lower),
    layer("serve.queue_op_ns", "ns", Lower),
    layer("serve.plan_cache_hit_us", "us", Lower),
    layer("serve.efficiency", "share", Higher),
    layer("telemetry.overhead_share", "share", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    layer("bench.latency_p95_ms", "ms", Lower),
    layer("bench.generator_lag_p99_ms", "ms", Lower),
    layer("bench.span_coverage", "share", Higher),
    layer("bench.trace_overhead_share", "share", Lower),
];

/// The quantile a metric name such as `latency_p95_ms` states, if any.
fn tail_quantile(name: &str) -> Option<f64> {
    let digits = name.split("_p").nth(1)?.split('_').next()?;
    let percent: f64 = digits.parse().ok()?;
    (50.0..100.0).contains(&percent).then_some(percent / 100.0)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    name: &'static str,
    value: f64,
    samples: Option<usize>,
}

/// What one run measured, plus its request accounting.
#[derive(Debug, Clone, Default)]
pub struct Report {
    entries: Vec<Entry>,
    /// Requests the run tried to serve.
    pub attempted: u64,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Output and accounting checks that did not hold.
    pub violations: Vec<String>,
    /// Context printed under the table (never parsed).
    pub notes: Vec<String>,
}

impl Report {
    /// Records `name = value`; `samples` is the count behind a percentile or
    /// median.  Setting a name twice is a bug in the ledger.
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "metric {name} set twice"
        );
        self.entries.push(Entry {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        });
    }

    /// Adds a line of context under the table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes a failed check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Whether every request was answered correctly and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// Human-readable lines, one per catalogue metric, in catalogue order.
    pub fn table(&self, catalogue: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in catalogue {
            let entry = self.entry(def);
            let _ = write!(out, "  {:<32} {:>16.6} {}", def.name, entry.value, def.unit);
            if let Some(n) = entry.samples {
                let _ = write!(out, "  (n={n})");
                // A tail percentile needs ten samples beyond it to mean much.
                if tail_quantile(def.name).is_some_and(|q| !stats::tail_supported(n, q)) {
                    out.push_str("  [fewer than 10 samples beyond this percentile]");
                }
            }
            out.push('\n');
        }
        out
    }

    /// The result line the driver reads: exactly the catalogue's metrics.
    pub fn result_line(&self, catalogue: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in catalogue.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json::quote(def.name),
                self.entry(def).value,
                json::quote(def.unit)
            );
        }
        out.push_str("}}");
        out
    }

    fn entry(&self, def: &MetricDef) -> Entry {
        *self
            .entries
            .iter()
            .find(|e| e.name == def.name)
            .unwrap_or_else(|| panic!("metric {} was never measured", def.name))
    }

    /// Names recorded that the catalogue does not know (a ledger bug).
    #[cfg(test)]
    pub fn unknown_names(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        self.entries
            .iter()
            .map(|e| e.name)
            .filter(|n| catalogue.iter().all(|d| d.name != *n))
            .collect()
    }
}

/// Whether `name` fits the benchmark contract's name rule.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn tail_percentiles_are_flagged_when_under_sampled() {
        assert_eq!(tail_quantile("bench.latency_p95_ms"), Some(0.95));
        assert_eq!(tail_quantile("serve.queue_wait_p99_ms"), Some(0.99));
        assert_eq!(tail_quantile("peak_rss_mb"), None);
        assert_eq!(tail_quantile("runtime.pricing_share"), None);
        let mut r = Report::default();
        r.set("bench.latency_p95_ms", 1.0, Some(150));
        r.set("latency_p50_ms", 1.0, Some(150));
        let defs: Vec<_> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| d.name.contains("latency_p"))
            .copied()
            .collect();
        let table = r.table(&defs);
        let flagged: Vec<_> = table.lines().filter(|l| l.contains("fewer than")).collect();
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].contains("bench.latency_p95_ms"));
    }

    #[test]
    fn result_line_carries_exactly_the_catalogue() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for (i, def) in END_TO_END.iter().enumerate() {
            r.set(def.name, i as f64 + 0.5, None);
        }
        let v = json::parse(&r.result_line(END_TO_END)).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let names: Vec<_> = v
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert!(r.unknown_names(END_TO_END).is_empty());
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_cannot_be_set_twice() {
        let mut r = Report::default();
        r.set("setup_s", 1.0, None);
        r.set("setup_s", 2.0, None);
    }
}
