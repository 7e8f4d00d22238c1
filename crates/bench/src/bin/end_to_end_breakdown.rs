//! Section VIII-D — end-to-end latency: preprocessing + CPU→FPGA data
//! movement + accelerator execution, the contribution of each component, and
//! the end-to-end speedup over the CPU/GPU baselines.

use dynasparse_baselines::{
    EndToEndBreakdown, EndToEndModel, FrameworkBaseline, FrameworkKind, WorkloadSummary,
};
use dynasparse_bench::{all_datasets, fmt_speedup, geomean, print_table, run_eval, write_json};
use dynasparse_compiler::ComputationGraph;
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_runtime::MappingStrategy;
use serde::Serialize;

#[derive(Serialize)]
struct EndToEndRow {
    dataset: String,
    preprocessing_ms: f64,
    data_movement_ms: f64,
    execution_ms: f64,
    fractions: (f64, f64, f64),
    e2e_speedups: Vec<(String, f64)>,
}

fn main() {
    let mut rows = Vec::new();
    let mut report = Vec::new();
    let mut frac_acc = (0.0, 0.0, 0.0);
    let mut e2e_speedups: std::collections::HashMap<&'static str, Vec<f64>> = Default::default();
    for dataset in all_datasets() {
        let rec = run_eval(GnnModelKind::Gcn, dataset, 0.0);
        let run = rec
            .report
            .run(MappingStrategy::Dynamic)
            .expect("dynamic run");
        let dynasparse = EndToEndBreakdown {
            preprocessing_ms: rec.compile_ms * rec.factor,
            data_movement_ms: rec.report.data_movement_ms * rec.factor,
            execution_ms: run.latency_ms * rec.factor,
        };
        let (fp, fm, fe) = dynasparse.fractions();
        frac_acc.0 += fp;
        frac_acc.1 += fm;
        frac_acc.2 += fe;

        // Baseline end-to-end numbers on the published-scale workload.
        let spec = dataset.spec();
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            spec.feature_dim,
            spec.hidden_dim,
            spec.num_classes,
            7,
        );
        let graph = ComputationGraph::from_model(&model, spec.num_vertices, spec.num_edges);
        let workload = WorkloadSummary::from_graph(
            &graph,
            spec.num_edges + spec.num_vertices,
            spec.feature_dim,
            spec.feature_density,
        );
        let mut cells = vec![
            dataset.abbrev().to_string(),
            format!("{:.2}", dynasparse.preprocessing_ms),
            format!("{:.2}", dynasparse.data_movement_ms),
            format!("{:.2}", dynasparse.execution_ms),
            format!("{fp:.2}/{fm:.2}/{fe:.2}"),
        ];
        let mut speedups = Vec::new();
        for kind in FrameworkKind::software() {
            let b = FrameworkBaseline::new(kind, workload.clone());
            let baseline = EndToEndBreakdown {
                preprocessing_ms: 0.0,
                data_movement_ms: b.input_transfer_ms(),
                execution_ms: b.execution_ms(),
            };
            let model = EndToEndModel {
                dynasparse,
                baseline,
            };
            let s = model.end_to_end_speedup();
            e2e_speedups.entry(kind.name()).or_default().push(s);
            cells.push(fmt_speedup(s));
            speedups.push((kind.name().to_string(), s));
        }
        rows.push(cells);
        report.push(EndToEndRow {
            dataset: dataset.name().to_string(),
            preprocessing_ms: dynasparse.preprocessing_ms,
            data_movement_ms: dynasparse.data_movement_ms,
            execution_ms: dynasparse.execution_ms,
            fractions: (fp, fm, fe),
            e2e_speedups: speedups,
        });
    }
    print_table(
        "End-to-end latency breakdown (GCN) and end-to-end speedup over CPU/GPU",
        &[
            "DS",
            "preproc",
            "movement",
            "exec",
            "fractions",
            "vs PyG-CPU",
            "vs PyG-GPU",
            "vs DGL-CPU",
            "vs DGL-GPU",
        ],
        &rows,
    );
    let n = all_datasets().len() as f64;
    println!(
        "\nAverage contribution: preprocessing {:.1}%, data movement {:.1}%, execution {:.1}%",
        100.0 * frac_acc.0 / n,
        100.0 * frac_acc.1 / n,
        100.0 * frac_acc.2 / n
    );
    println!("Geometric-mean end-to-end speedups:");
    for kind in FrameworkKind::software() {
        println!(
            "  vs {:8}: {:.2}x",
            kind.name(),
            geomean(&e2e_speedups[kind.name()])
        );
    }
    write_json("end_to_end_breakdown", &report);
}
