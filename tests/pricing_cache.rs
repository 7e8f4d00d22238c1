//! Pricing-equivalence harness for the profile-keyed pricing cache.
//!
//! Every session prices through one bucketed cache: it memoizes
//! `KernelAnalysis` values keyed on density-bucket profiles, and a miss runs
//! the Analyzer on the bucket's representative profile.  Its correctness
//! contract has two parts, each proven here against the oracle of
//! `tests/common`, which runs the Analyzer directly:
//!
//! 1. **Cached pricing is the Analyzer on bucket representatives.**  Cached
//!    pricing is a pure function of the request — independent of cache
//!    state, request order and evictions (the property that keeps serial
//!    vs. multi-worker serving bit-identical).
//! 2. **The distortion is bounded.**  The bucket grid's quarter-octave
//!    density distortion translates into a bounded predicted-cost ratio
//!    against uncached pricing (the Analyzer on the exact profiles).
//!
//! Invalidation (rebind across topologies, content-addressed re-hits) and
//! batch amortization ride on the same counters.

mod common;

use common::{assert_matches_oracle, price_oracle, run_oracle, Profiles};
use dynasparse::{
    EngineOptions, InferenceReport, MappingStrategy, ModelTemplate, Planner, Registry,
    TelemetryLevel,
};
use dynasparse_graph::generators::dense_features;
use dynasparse_graph::{Dataset, FeatureMatrix, NeighborSampler};
use dynasparse_model::{GnnModel, GnnModelKind, ReferenceExecutor};
use dynasparse_telemetry::CounterId;
use std::sync::Arc;

/// Asserts two reports priced the request identically: same strategies, same
/// accelerator cycles, same decisions and primitive mixes, same densities.
/// (Wall-clock overhead fields are measured host time and excluded.)
fn assert_same_pricing(a: &InferenceReport, b: &InferenceReport, context: &str) {
    assert_eq!(a.runs.len(), b.runs.len(), "{context}: run count");
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.strategy, rb.strategy, "{context}");
        assert_eq!(
            ra.total_cycles, rb.total_cycles,
            "{context}: {:?} total cycles",
            ra.strategy
        );
        assert_eq!(
            ra.latency_ms.to_bits(),
            rb.latency_ms.to_bits(),
            "{context}: {:?} latency",
            ra.strategy
        );
        assert_eq!(
            ra.average_utilization.to_bits(),
            rb.average_utilization.to_bits(),
            "{context}: {:?} utilization",
            ra.strategy
        );
        assert_eq!(ra.kernels.len(), rb.kernels.len(), "{context}");
        for (ka, kb) in ra.kernels.iter().zip(&rb.kernels) {
            assert_eq!(ka.kernel_id, kb.kernel_id, "{context}");
            assert_eq!(ka.cycles, kb.cycles, "{context}: kernel {}", ka.kernel_id);
            assert_eq!(
                ka.decisions, kb.decisions,
                "{context}: kernel {}",
                ka.kernel_id
            );
            assert_eq!(ka.mix, kb.mix, "{context}: kernel {}", ka.kernel_id);
            assert_eq!(
                ka.input_density.to_bits(),
                kb.input_density.to_bits(),
                "{context}: kernel {}",
                ka.kernel_id
            );
            assert_eq!(
                ka.output_density.to_bits(),
                kb.output_density.to_bits(),
                "{context}: kernel {}",
                ka.kernel_id
            );
        }
    }
}

/// (hit, miss, evict) counter snapshot.
fn cache_counters(registry: &Registry) -> (u64, u64, u64) {
    (
        registry.counter(CounterId::PricingHit),
        registry.counter(CounterId::PricingMiss),
        registry.counter(CounterId::PricingEvict),
    )
}

#[test]
fn bucketed_pricing_is_independent_of_cache_state() {
    // The determinism invariant behind multi-worker bit-identity: what a
    // bucketed session reports for a request must not depend on what it
    // served before (which keys happen to be resident, in which order).
    let ds = Dataset::Cora.spec().generate_scaled(9, 0.2);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let (v, f) = (ds.features.num_vertices(), ds.features.dim());
    let probe = dense_features(v, f, 0.3, 42);
    let strategies = [MappingStrategy::Dynamic, MappingStrategy::Static1];
    let plan = Planner::default().plan(&model, &ds).unwrap();

    // Session A serves the probe cold; session B first wanders through a
    // density sweep (warming unrelated and *nearby* buckets), then serves
    // the same probe from a populated cache.
    let mut cold = plan.session(&strategies);
    let cold_report = cold.infer(&probe).unwrap();

    let mut warmed = plan.session(&strategies);
    for (i, d) in [0.02, 0.28, 0.31, 0.6, 0.97].iter().enumerate() {
        warmed.infer(&dense_features(v, f, *d, i as u64)).unwrap();
    }
    let warm_report = warmed.infer(&probe).unwrap();

    assert_same_pricing(&cold_report, &warm_report, "cold vs warmed cache");
    assert_eq!(cold_report.output_embeddings, warm_report.output_embeddings);

    // And repeats inside one session replay identically too.
    let again = warmed.infer(&probe).unwrap();
    assert_same_pricing(&warm_report, &again, "warm vs repeat");
}

#[test]
fn bucketed_cost_distortion_is_bounded_at_bucket_edges() {
    // A session prices the bucket's representative profile, whose
    // per-block density is within 2^(1/4) ≈ 1.19x of the true one.  The
    // priced accelerator cycles must stay within a generous multiple of
    // uncached pricing — the Analyzer on the exact profiles — across the
    // density range, including awkward densities that land right at bucket
    // edges.
    const BOUND: f64 = 1.6;
    let ds = Dataset::Cora.spec().generate_scaled(11, 0.2);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let (v, f) = (ds.features.num_vertices(), ds.features.dim());
    let strategies = [MappingStrategy::Dynamic, MappingStrategy::Static2];

    let plan = Planner::default().plan(&model, &ds).unwrap();
    let oracle = ReferenceExecutor::new(&model, &ds.graph);
    let mut bucketed = plan.session(&strategies);

    for (i, d) in [0.01, 0.07, 0.21, 0.35, 0.5, 0.71, 0.84, 1.0]
        .iter()
        .enumerate()
    {
        let request = dense_features(v, f, *d, 100 + i as u64);
        let want = run_oracle(&oracle, &request, &plan);
        let cached = bucketed.infer(&request).unwrap();
        assert_eq!(
            cached.output_embeddings.to_dense().as_slice(),
            want.embeddings.to_dense().as_slice()
        );
        for rc in &cached.runs {
            let (fresh_cycles, _) = price_oracle(&plan, &want, rc.strategy, Profiles::Exact);
            let ratio = rc.total_cycles as f64 / fresh_cycles.max(1) as f64;
            assert!(
                (1.0 / BOUND..=BOUND).contains(&ratio),
                "density {d} {:?}: bucketed {} vs fresh {} cycles (ratio {ratio:.3})",
                rc.strategy,
                rc.total_cycles,
                fresh_cycles
            );
        }
    }
}

#[test]
fn rebind_across_topologies_separates_and_content_rehits() {
    // One rebinding session over a template: pricing keys are
    // content-addressed on the instantiated plan's static operands, so a
    // different subgraph can never hit stale entries, while re-instantiating
    // an identical subgraph hits the warm ones again — across the rebind.
    let full = Dataset::Cora.spec().generate_scaled(13, 0.15);
    let model = GnnModel::gcn(full.features.dim(), 8, full.spec.num_classes, 2);
    let template = ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap();

    let sample = |roots: &[u32]| {
        let sub = NeighborSampler::new([8, 4], 5).sample(&full.graph, roots);
        let features = sub.extract_features(&full.features);
        (sub.into_graph(), features)
    };
    let (graph_a, features_a) = sample(&[1]);
    let (graph_b, features_b) = sample(&[2, 3]);

    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let plan_a = template
        .instantiate(&graph_a, &features_a)
        .unwrap()
        .into_plan();
    let mut session = plan_a.session_shared(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));

    session.infer(&features_a).unwrap();
    session.infer(&features_a).unwrap();
    let (h1, m1, _) = cache_counters(&registry);
    assert!(h1 > 0 && m1 > 0, "repeat over one instance must hit");

    // Different topology: every lookup must miss (no false sharing).
    let plan_b = template
        .instantiate(&graph_b, &features_b)
        .unwrap()
        .into_plan();
    session.rebind(plan_b);
    session.infer(&features_b).unwrap();
    let (h2, m2, _) = cache_counters(&registry);
    assert_eq!(
        h2, h1,
        "a different subgraph must not hit the previous topology's pricing"
    );
    assert!(m2 > m1);

    // Same topology re-instantiated (new Arc, equal content): hits again.
    let plan_a2 = template
        .instantiate(&graph_a, &features_a)
        .unwrap()
        .into_plan();
    session.rebind(plan_a2);
    session.infer(&features_a).unwrap();
    let (h3, m3, _) = cache_counters(&registry);
    assert!(
        h3 > h2,
        "an identical re-instantiated subgraph must re-hit the warm entries"
    );
    assert_eq!(
        m3, m2,
        "content-addressed keys must add no misses on an identical topology"
    );
}

#[test]
fn tiny_capacity_evicts_and_still_prices_correctly() {
    let ds = Dataset::Cora.spec().generate_scaled(17, 0.2);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let (v, f) = (ds.features.num_vertices(), ds.features.dim());
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let plan = Planner::default().plan(&model, &ds).unwrap();
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));
    // 8 slots against ~6 kernels x 5 request classes: steady thrash.
    session.set_pricing_capacity(8);
    let oracle = ReferenceExecutor::new(&model, &ds.graph);

    let classes: Vec<FeatureMatrix> = [0.02f64, 0.1, 0.3, 0.6, 0.9]
        .iter()
        .enumerate()
        .map(|(i, d)| dense_features(v, f, *d, 200 + i as u64))
        .collect();
    let wants: Vec<_> = classes
        .iter()
        .map(|request| run_oracle(&oracle, request, &plan))
        .collect();
    // Every thrashed report must price exactly the bucket representatives
    // of its own request: an eviction may cost a miss, never a wrong entry.
    // Each class is served twice in a row, so the repeat hits the entries
    // its first serve wrote over evicted slots.
    for round in 0..3 {
        for (i, (request, want)) in classes.iter().zip(&wants).enumerate() {
            for serve in 0..2 {
                let cached = session.infer(request).unwrap();
                let ctx = format!("round {round}, class {i}, serve {serve}");
                assert_matches_oracle(&cached, &plan, want, &ctx);
            }
        }
    }
    let (hits, _, evictions) = cache_counters(&registry);
    assert!(
        evictions > 0,
        "cycling distinct request classes through 8 slots must evict"
    );
    assert!(hits > 0, "a repeated class must hit its fresh entries");
}

#[test]
fn batches_amortize_pricing_across_same_key_requests() {
    let ds = Dataset::Cora.spec().generate_scaled(19, 0.2);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let plan = Planner::default().plan(&model, &ds).unwrap();
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));

    let batch: Vec<FeatureMatrix> = (0..4).map(|_| ds.features.clone()).collect();
    let reports = session.infer_batch(&batch).unwrap();
    assert_eq!(reports.len(), 4);
    let (hits, misses, _) = cache_counters(&registry);
    assert!(
        misses > 0,
        "the batch's first record prices each kernel once"
    );
    assert_eq!(
        hits,
        3 * misses,
        "the 3 equal sibling requests must reuse the first record's pass"
    );
    // Amortized pricing must not leak into the reports: every sibling's runs
    // are identical, and identical to a per-request serve.
    for r in &reports[1..] {
        assert_same_pricing(&reports[0], r, "batch siblings");
    }
    let solo = plan
        .session(&[MappingStrategy::Dynamic])
        .infer(&ds.features)
        .unwrap();
    assert_same_pricing(&solo, &reports[0], "solo vs fused batch");
    assert_eq!(solo.output_embeddings, reports[0].output_embeddings);
    // Steady state: the same batch again is all hits, which lifts the hit
    // ratio of identical requests past 80 % with the cold batch included.
    session.infer_batch(&batch).unwrap();
    let (warm_hits, warm_misses, _) = cache_counters(&registry);
    assert_eq!(warm_misses, misses, "a repeated batch must add no misses");
    assert!(warm_hits as f64 > 0.8 * (warm_hits + warm_misses) as f64);
}
