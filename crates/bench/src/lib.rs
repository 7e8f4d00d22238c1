//! Shared infrastructure for the experiment harnesses.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`; they all go through the helpers here so that the
//! dataset scaling policy, model construction and report formatting are
//! consistent and recorded in one place.
//!
//! ## Dataset scaling
//!
//! The two largest graphs (and, on small hosts, Flickr/NELL as well) are too
//! expensive for the *functional* executor to run at published scale on a
//! laptop-class machine, so the harnesses generate structurally similar
//! instances at a reduced scale (preserving average degree, feature dimension
//! and feature density) and extrapolate the simulated latency linearly back
//! to the published vertex/edge counts.  Set `DYNASPARSE_FULL_SCALE=1` to
//! force published sizes.  EXPERIMENTS.md documents the scale used for every
//! reported number.

#![warn(missing_docs)]

use dynasparse::{EngineOptions, InferenceReport, MappingStrategy, Planner};
use dynasparse_graph::{Dataset, GraphDataset};
use dynasparse_model::{GnnModel, GnnModelKind};
use serde::Serialize;

/// Default generation scale per dataset (fraction of the published vertex
/// count) used by the harnesses.
pub fn default_scale(dataset: Dataset) -> f64 {
    if std::env::var("DYNASPARSE_FULL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return 1.0;
    }
    match dataset {
        Dataset::CiteSeer | Dataset::Cora => 1.0,
        Dataset::PubMed => 1.0,
        Dataset::Flickr => 0.08,
        Dataset::Nell => 0.20,
        Dataset::Reddit => 0.01,
    }
}

/// Generates the harness instance of a dataset (seeded, at the default
/// scale).
pub fn load_dataset(dataset: Dataset) -> GraphDataset {
    dataset.spec().generate_scaled(2023, default_scale(dataset))
}

/// Factor by which simulated latencies are extrapolated back to published
/// scale (latency is linear in `|V|` and `|E|` at fixed feature dimensions).
pub fn extrapolation_factor(ds: &GraphDataset) -> f64 {
    1.0 / ds.scale
}

/// Builds the paper's standard 2-layer model of `kind` for a dataset
/// (hidden dimension 16 for the citation graphs, 128 for the large graphs).
pub fn build_model(kind: GnnModelKind, ds: &GraphDataset) -> GnnModel {
    GnnModel::standard(
        kind,
        ds.features.dim(),
        ds.spec.hidden_dim,
        ds.spec.num_classes,
        7,
    )
}

/// The planner used by every harness (paper-default hardware
/// configuration).
pub fn planner() -> Planner {
    Planner::new(EngineOptions::default())
}

/// The three mapping strategies of Table VII, in paper order.
pub fn paper_strategies() -> [MappingStrategy; 3] {
    MappingStrategy::paper_strategies()
}

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Writes a JSON report next to the binary outputs (under `target/reports/`).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/reports");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, json);
        println!("  [report written to {}]", path.display());
    }
}

/// Formats a latency in engineering notation (ms).
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.2e}")
    }
}

/// Formats a speedup.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Geometric mean of a slice (ignores non-positive entries).
pub fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// One (model, dataset) evaluation together with the latency extrapolation
/// factor back to published scale.
pub struct EvalRecord {
    /// Which dataset was evaluated.
    pub dataset: Dataset,
    /// Which model was evaluated.
    pub model: GnnModelKind,
    /// The served request's report (all paper strategies priced).
    pub report: InferenceReport,
    /// One-time preprocessing milliseconds of the plan that served it.
    pub compile_ms: f64,
    /// Multiply simulated latencies by this to report published-scale
    /// numbers.
    pub factor: f64,
}

impl EvalRecord {
    /// Extrapolated accelerator latency (ms) of one strategy.
    pub fn latency_ms(&self, strategy: MappingStrategy) -> f64 {
        self.report
            .run(strategy)
            .map(|r| r.latency_ms * self.factor)
            .unwrap_or(f64::NAN)
    }

    /// Speedup of Dynamic over `other`.
    pub fn speedup_over(&self, other: MappingStrategy) -> f64 {
        self.report
            .speedup(other, MappingStrategy::Dynamic)
            .unwrap_or(f64::NAN)
    }
}

/// Runs one (model, dataset) evaluation under the three paper strategies,
/// optionally pruning all weights to `weight_sparsity`.
pub fn run_eval(kind: GnnModelKind, dataset: Dataset, weight_sparsity: f64) -> EvalRecord {
    let ds = load_dataset(dataset);
    let mut model = build_model(kind, &ds);
    if weight_sparsity > 0.0 {
        model = dynasparse_model::prune_model(&model, weight_sparsity);
    }
    // Compile once, serve the (single) harness request from a session.
    let plan = planner().plan(&model, &ds).expect("planning failed");
    let mut session = plan.session(&paper_strategies());
    let report = session.infer(&ds.features).expect("inference failed");
    EvalRecord {
        dataset,
        model: kind,
        factor: extrapolation_factor(&ds),
        report,
        compile_ms: plan.compile_ms(),
    }
}

/// Returns `true` when the harness should run in reduced (quick) mode
/// (`DYNASPARSE_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("DYNASPARSE_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// All model kinds in paper order.
pub fn all_models() -> [GnnModelKind; 4] {
    GnnModelKind::all()
}

/// All datasets in paper order.
pub fn all_datasets() -> [Dataset; 6] {
    Dataset::all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn default_scales_are_in_range() {
        for ds in all_datasets() {
            let s = default_scale(ds);
            assert!(s > 0.0 && s <= 1.0);
        }
        // Small citation graphs run at published scale.
        assert_eq!(default_scale(Dataset::Cora), 1.0);
    }

    #[test]
    fn model_builder_uses_the_dataset_dimensions() {
        let ds = Dataset::Cora.spec().generate_scaled(1, 0.1);
        let m = build_model(GnnModelKind::Gcn, &ds);
        assert_eq!(m.input_dim, ds.features.dim());
        assert_eq!(m.output_dim, ds.spec.num_classes);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(2.0), "2.00x");
        assert!(fmt_ms(0.0077).contains("e"));
        assert_eq!(fmt_ms(12.345), "12.35");
    }
}
