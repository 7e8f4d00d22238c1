//! Fig. 13 — overhead of the runtime system (dynamic K2P mapping + task
//! scheduling on the soft processor) as a fraction of the total accelerator
//! execution time, for the unpruned models.

use dynasparse_bench::{all_datasets, all_models, print_table, run_eval, write_json};
use dynasparse_runtime::MappingStrategy;
use serde::Serialize;

#[derive(Serialize)]
struct OverheadRow {
    model: String,
    dataset: String,
    overhead_fraction: f64,
    k2p_us: f64,
    scheduling_us: f64,
    decisions: usize,
}

fn main() {
    let mut report = Vec::new();
    let mut fractions = Vec::new();
    for model in all_models() {
        let mut rows = Vec::new();
        for dataset in all_datasets() {
            let rec = run_eval(model, dataset, 0.0);
            let run = rec
                .report
                .run(MappingStrategy::Dynamic)
                .expect("dynamic run");
            let frac = run.overhead.fraction_of_execution();
            fractions.push(frac);
            rows.push(vec![
                dataset.abbrev().to_string(),
                format!("{frac:.3}"),
                format!("{:.1}", run.overhead.k2p_seconds * 1e6),
                format!("{:.1}", run.overhead.scheduling_seconds * 1e6),
                run.total_decisions().to_string(),
            ]);
            report.push(OverheadRow {
                model: model.name().to_string(),
                dataset: dataset.name().to_string(),
                overhead_fraction: frac,
                k2p_us: run.overhead.k2p_seconds * 1e6,
                scheduling_us: run.overhead.scheduling_seconds * 1e6,
                decisions: run.total_decisions(),
            });
        }
        print_table(
            &format!(
                "Fig. 13 ({}): runtime-system overhead / execution time",
                model.name()
            ),
            &["DS", "fraction", "K2P (us)", "sched (us)", "decisions"],
            &rows,
        );
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    println!("\nAverage overhead fraction: {avg:.3} (paper reports 0.068 on average at full scale; the overhead is hidden by pipelining in both cases)");
    write_json("fig13_runtime_overhead", &report);
}
