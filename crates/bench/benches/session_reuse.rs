//! One-shot vs compile-once/serve-many throughput.
//!
//! Measures the same GCN/Cora workload two ways over N = 100 inference
//! requests: planning afresh and serving one `Session::infer` per request
//! (recompiling the plan every time), and serving all requests from one
//! `Session` over a single `CompiledPlan`.  The per-request numbers are
//! identical (see `tests/integration_session.rs`); the difference is pure
//! compile/allocation amortization, i.e. the requests/sec win of the
//! serving API.

use criterion::{criterion_group, criterion_main, Criterion};
use dynasparse::{EngineOptions, MappingStrategy, Planner};
use dynasparse_graph::{Dataset, GraphDataset};
use dynasparse_model::{GnnModel, GnnModelKind};
use std::time::Instant;

const REQUESTS: usize = 100;

/// One request served the one-shot way: plan, open a session, infer once.
fn one_shot(model: &GnnModel, dataset: &GraphDataset, strategies: &[MappingStrategy]) {
    let plan = Planner::new(EngineOptions::default())
        .plan(model, dataset)
        .expect("planning failed");
    plan.session(strategies)
        .infer(&dataset.features)
        .expect("inference failed");
}

fn bench_session_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_reuse");
    group.sample_size(10);

    let dataset = Dataset::Cora.spec().generate_scaled(3, 0.25);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        1,
    );
    let strategies = [MappingStrategy::Dynamic];

    group.bench_function(format!("one_shot_{REQUESTS}_requests"), |b| {
        b.iter(|| {
            for _ in 0..REQUESTS {
                one_shot(&model, &dataset, &strategies);
            }
        })
    });

    group.bench_function(format!("amortized_session_{REQUESTS}_requests"), |b| {
        let plan = Planner::new(EngineOptions::default())
            .plan(&model, &dataset)
            .expect("planning failed");
        b.iter(|| {
            let mut session = plan.session(&strategies);
            for _ in 0..REQUESTS {
                session.infer(&dataset.features).expect("inference failed");
            }
        })
    });
    group.finish();

    // Headline number: requests/sec both ways, printed once per run.
    let t = Instant::now();
    for _ in 0..REQUESTS {
        one_shot(&model, &dataset, &strategies);
    }
    let one_shot = REQUESTS as f64 / t.elapsed().as_secs_f64();

    let plan = Planner::new(EngineOptions::default())
        .plan(&model, &dataset)
        .unwrap();
    let mut session = plan.session(&strategies);
    let t = Instant::now();
    for _ in 0..REQUESTS {
        session.infer(&dataset.features).unwrap();
    }
    let amortized = REQUESTS as f64 / t.elapsed().as_secs_f64();
    println!(
        "\n  throughput over {REQUESTS} requests: one-shot {one_shot:.1} req/s, \
         amortized session {amortized:.1} req/s ({:.2}x)",
        amortized / one_shot
    );
}

criterion_group!(benches, bench_session_reuse);
criterion_main!(benches);
