//! Telemetry tour: serve Cora ego-nets through one rebindable session with
//! trace-level telemetry, then read back everything the runtime observed —
//! the Prometheus exposition text of the merged registry and the top-5
//! slowest kernel dispatches from the session's flight recorder.
//!
//! The registry here is injected per-session (`Session::set_telemetry`) so
//! the example is self-contained; production code can instead set
//! `DYNASPARSE_TELEMETRY=trace` and let every session report into the
//! process-global registry.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use dynasparse::{EngineOptions, MappingStrategy, ModelTemplate, Registry, TelemetryLevel};
use dynasparse_graph::{Dataset, NeighborSampler};
use dynasparse_model::{GnnModel, GnnModelKind};
use std::sync::Arc;

fn main() {
    let full = Dataset::Cora.spec().generate_scaled(42, 0.25);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        full.features.dim(),
        32,
        full.spec.num_classes,
        3,
    );
    let template = ModelTemplate::compile(&model, EngineOptions::default()).unwrap();

    // Trace level keeps per-dispatch kernel spans on top of the counters
    // and histograms; the registry is what a scraper would export.
    let registry = Arc::new(Registry::new(TelemetryLevel::Trace));

    // The instruction set the host kernels were picked for, once per
    // process: a latency read on another machine may not be comparable.
    println!("kernel isa: {}", dynasparse_matrix::kernel_isa());

    // Serve a stream of ego-net requests through one rebindable session.
    let sampler = NeighborSampler::new([8, 4], 1);
    let mut session = None;
    for &root in &[5u32, 113, 280, 404, 77, 591] {
        let sub = sampler.sample(&full.graph, &[root]);
        let features = sub.extract_features(&full.features);
        let instance = template.instantiate(sub.graph(), &features).unwrap();
        let session = match session.as_mut() {
            Some(session) => session,
            None => {
                let built = instance.session(&[MappingStrategy::Dynamic]);
                let built = session.insert(built);
                built.set_telemetry(Arc::clone(&registry));
                built
            }
        };
        // Rebinding preserves the telemetry bundle: counters, the pinned
        // shard and the flight-recorder ring all survive the re-shape.
        session.rebind(instance.plan().clone());
        let report = session.infer(&features).unwrap();
        println!(
            "served root {root:4}: |V|={:3}, latency {:.3} ms",
            sub.num_vertices(),
            report.runs[0].latency_ms,
        );
    }
    let session = session.expect("at least one request was served");

    // What a /metrics scrape would return: counters, gauges and histograms
    // merged across every shard of the registry.
    println!("\n── Prometheus exposition ──────────────────────────────");
    print!("{}", registry.snapshot().to_prometheus());

    // The flight recorder: the last N dispatches with shape, densities and
    // predicted-vs-measured cost. Sorting by measured time surfaces where
    // the host actually spent its kernels.
    println!("\n── 5 slowest kernel dispatches ────────────────────────");
    println!("req  layer kernel prim    m x n x d          aX     aY     pred_ms  meas_ms");
    for span in session.telemetry().recorder().slowest(5) {
        println!(
            "{:>3}  {:>5} {:>6} {:<6} {:>5} x {:>5} x {:<5} {:>6.3} {:>6.3} {:>9.4} {:>8.4}",
            span.request,
            span.layer,
            span.kernel,
            span.primitive.label(),
            span.m,
            span.n,
            span.d,
            span.alpha_x,
            span.alpha_y,
            span.predicted_ms,
            span.measured_ms,
        );
    }
}
