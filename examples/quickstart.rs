//! Quickstart: compile a (down-scaled) Cora GCN once, then serve inference
//! requests from a session, comparing the dynamic kernel-to-primitive
//! mapping against the two static strategies used by prior accelerators.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dynasparse::{EngineOptions, MappingStrategy, Planner};
use dynasparse_graph::Dataset;
use dynasparse_model::{GnnModel, GnnModelKind};

fn main() {
    // 1. Generate a Cora-like graph (published statistics, seeded).
    let dataset = Dataset::Cora.spec().generate_scaled(42, 0.5);
    println!(
        "Graph: {} vertices, {} edges, adjacency density {:.3}%, input feature density {:.2}%",
        dataset.num_vertices(),
        dataset.num_edges(),
        dataset.adjacency_density() * 100.0,
        dataset.feature_density() * 100.0
    );

    // 2. Build the paper's 2-layer GCN for this dataset.
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        7,
    );
    println!(
        "Model: {} with {} kernels, weight density {:.0}%",
        model.kind.name(),
        model.num_kernels(),
        model.weight_density() * 100.0
    );

    // 3. Compile once: computation graph, partition sizes (Algorithm 9),
    //    execution schemes, static sparsity profiles.
    let planner = Planner::new(EngineOptions::default());
    let plan = planner.plan(&model, &dataset).expect("planning failed");
    println!(
        "\nCompiler chose partition sizes N1 = {}, N2 = {} ({:.2} ms preprocessing, paid once)",
        plan.partition().n1,
        plan.partition().n2,
        plan.compile_ms()
    );

    // 4. Serve: one functional pass per request prices all three mapping
    //    strategies from the runtime-measured feature densities.
    let mut session = plan.session(&MappingStrategy::paper_strategies());
    let report = session.infer(&dataset.features).expect("inference failed");

    println!("Feature densities per kernel (known only at runtime):");
    for stage in &report.density_trace.stages {
        println!(
            "  layer {} {:9} -> density {:.3}",
            stage.layer + 1,
            stage.op,
            stage.density
        );
    }

    println!("\nAccelerator execution latency:");
    for run in &report.runs {
        let mix = run.total_mix();
        println!(
            "  {:8}: {:.4} ms  (GEMM {}, SpDMM {}, SPMM {}, skipped {})",
            run.strategy.label(),
            run.latency_ms,
            mix.gemm,
            mix.spdmm,
            mix.spmm,
            mix.skipped
        );
    }
    let so_s1 = report
        .speedup(MappingStrategy::Static1, MappingStrategy::Dynamic)
        .unwrap();
    let so_s2 = report
        .speedup(MappingStrategy::Static2, MappingStrategy::Dynamic)
        .unwrap();
    println!("\nDynamic mapping speedup: {so_s1:.2}x over S1, {so_s2:.2}x over S2");
    println!(
        "Output embeddings: {} vertices x {} classes",
        report.output_embeddings.num_vertices(),
        report.output_embeddings.dim()
    );

    // 5. Repeated requests over the same topology reuse the whole plan: the
    //    amortized per-request cost drops to data movement + execution.
    let second = session.infer(&dataset.features).expect("inference failed");
    println!(
        "\nSecond request (no recompilation): amortized {:.4} ms vs cold-start {:.4} ms",
        second.amortized_ms(MappingStrategy::Dynamic).unwrap(),
        second.run(MappingStrategy::Dynamic).unwrap().end_to_end_ms
    );
}
