//! Production traffic control on the serve runtime: deadlines, priority
//! classes and load-shedding watermarks.
//!
//! One worker is offered a burst faster than it can serve.  Every
//! submission resolves to a typed outcome — served, rejected at admission,
//! or shed past its deadline — and the shutdown report tallies them.
//!
//! ```text
//! cargo run --release --example traffic_control
//! ```

use dynasparse::{EngineOptions, Planner};
use dynasparse_graph::Dataset;
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_serve::{Priority, ServeConfig, ServeError, ServeRuntime, SubmitOptions};
use std::time::Duration;

fn main() {
    let dataset = Dataset::Cora.spec().generate_scaled(42, 0.1);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        7,
    );
    let plan = Planner::new(EngineOptions::default())
        .plan_shared(&model, &dataset)
        .unwrap();

    // One worker, a short queue, and admission control: shed at depth 6,
    // re-admit below 3 (hysteresis).
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(2)
            .queue_capacity(8)
            .shed_watermarks(6, 3),
    );

    // Offer a burst the worker cannot absorb: the payloads are built up
    // front, so the submissions arrive far faster than one worker serves
    // them.  Odd requests get a tight deadline; request 4 jumps the line
    // with high priority.
    let burst = vec![dataset.features.clone(); 24];
    let mut tickets = Vec::new();
    for (i, features) in burst.into_iter().enumerate() {
        let mut options = SubmitOptions::default();
        if i % 2 == 1 {
            options = options.deadline(Duration::from_millis(2));
        }
        if i == 4 {
            options = options.priority(Priority::High);
        }
        match runtime.try_submit_with(features, options) {
            Ok(t) => tickets.push((i, Some(t))),
            Err(e) => {
                println!("request {i:>2}: rejected at admission — {e}");
                tickets.push((i, None));
            }
        }
    }

    for (i, ticket) in tickets {
        let Some(ticket) = ticket else { continue };
        match ticket.wait() {
            Ok(report) => println!(
                "request {i:>2}: served ({} strategy runs)",
                report.runs.len()
            ),
            Err(ServeError::DeadlineExceeded { late }) => println!(
                "request {i:>2}: shed {:.1} ms past its deadline",
                late.as_secs_f64() * 1e3
            ),
            Err(e) => println!("request {i:>2}: {e}"),
        }
    }

    let report = runtime.shutdown_with_deadline(Duration::from_secs(5));
    println!(
        "\nreport: {} served, {} shed at admission, {} expired",
        report.requests, report.shed, report.deadline_expired,
    );
}
