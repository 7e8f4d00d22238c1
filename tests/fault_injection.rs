//! Fault-injection proof of the serve runtime's traffic-control contract:
//! **every submitted ticket resolves** — to a result or a typed error,
//! never lost, never hung — across worker panic + respawn, deadline shed,
//! queue-full rejection, load shedding, circuit-breaker drain, and
//! deadline-bounded shutdown.
//!
//! The panics are injected through `SubmitOptions::panic_at_kernel`, which
//! arms the session's kernel-path fault hook for exactly one request: the
//! unwind happens *inside* the forward pass, with arena and scratch state
//! partially written, which is precisely the state the supervisor's
//! `rebuild_after_panic` respawn must recover from.

use dynasparse::{CompiledPlan, MappingStrategy, Planner};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_serve::{
    DeviceDwell, Payload, Priority, ServeConfig, ServeError, ServeRuntime, SubmitOptions, Ticket,
};
use std::sync::Arc;
use std::time::Duration;

fn plan_fixture() -> (Arc<CompiledPlan>, FeatureMatrix) {
    let ds = Dataset::Cora.spec().generate_scaled(23, 0.08);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        8,
        ds.spec.num_classes,
        5,
    );
    let plan = Planner::default().plan_shared(&model, &ds).unwrap();
    (plan, ds.features)
}

/// Worker panic + respawn: among requests queued together with one poisoned
/// member, only the poisoned ticket fails, with the panic message, and is
/// charged once; the worker respawns and keeps serving bit-identically.
#[test]
fn poisoned_request_fails_alone_and_worker_respawns() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        Arc::clone(&plan),
        ServeConfig::default().workers(1).max_batch(8),
    );

    // Serial reference for bit-identity of the survivors.
    let mut serial = plan.session(&[MappingStrategy::Dynamic]);
    let reference = serial.infer(&features).unwrap();

    let mut tickets = Vec::new();
    for i in 0..6 {
        let options = if i == 3 {
            SubmitOptions::default().panic_at_kernel(1)
        } else {
            SubmitOptions::default()
        };
        tickets.push(runtime.submit_with(features.clone(), options).unwrap());
    }
    let mut panicked = 0;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(report) => {
                assert_eq!(report.request_index, i);
                // Survivors are bit-identical to the serial session.
                let got = report.run(MappingStrategy::Dynamic).unwrap();
                let want = reference.run(MappingStrategy::Dynamic).unwrap();
                assert_eq!(got.latency_ms.to_bits(), want.latency_ms.to_bits());
            }
            Err(ServeError::WorkerPanicked { message }) => {
                assert_eq!(i, 3, "only the poisoned request may fail");
                assert!(message.contains("injected fault"));
                panicked += 1;
            }
            Err(e) => panic!("request {i}: unexpected error {e}"),
        }
    }
    assert_eq!(panicked, 1);

    let report = runtime.shutdown();
    assert_eq!(report.requests, 5, "five healthy requests served");
    assert_eq!((report.worker_panics, report.worker_respawns), (1, 1));
    assert!(report
        .worker_failures
        .iter()
        .any(|m| m.contains("injected fault")));
}

/// Repeated poisonings: the worker survives as many injected panics as its
/// respawn budget allows, and healthy traffic interleaved between them is
/// never affected.
#[test]
fn worker_survives_repeated_panics_within_budget() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .max_worker_respawns(16),
    );
    let mut outcomes = Vec::new();
    for round in 0..4 {
        let poisoned = runtime
            .submit_with(
                features.clone(),
                SubmitOptions::default().panic_at_kernel(0),
            )
            .unwrap();
        let healthy = runtime.submit(features.clone()).unwrap();
        outcomes.push((round, poisoned.wait(), healthy.wait()));
    }
    for (round, poisoned, healthy) in outcomes {
        assert!(
            matches!(poisoned, Err(ServeError::WorkerPanicked { .. })),
            "round {round}: poisoned ticket must fail typed"
        );
        assert!(healthy.is_ok(), "round {round}: healthy ticket must serve");
    }
    let report = runtime.shutdown();
    assert_eq!(report.worker_panics, 4);
    assert_eq!(report.worker_respawns, 4);
    assert_eq!(report.worker_failures.len(), 4);
}

/// Deadline shed: a request whose deadline lapses in the queue resolves
/// with `DeadlineExceeded` and is never executed.
#[test]
fn expired_requests_resolve_with_deadline_exceeded() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .device_dwell(DeviceDwell::Modeled {
                strategy: MappingStrategy::Dynamic,
                scale: 50.0,
            }),
    );
    // Park the worker, then queue one request that expires immediately and
    // one with no deadline.
    let parked = runtime.submit(features.clone()).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let doomed = runtime
        .submit_with(
            features.clone(),
            SubmitOptions::default()
                .deadline(Duration::from_nanos(1))
                .priority(Priority::High),
        )
        .unwrap();
    let patient = runtime.submit(features).unwrap();

    assert!(parked.wait().is_ok());
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    assert!(patient.wait().is_ok());
    let report = runtime.shutdown();
    assert_eq!(report.deadline_expired, 1);
    assert_eq!(report.requests, 2, "the expired request never executed");
}

/// Queue-full rejection and load shedding both resolve at submission with
/// typed errors; accepted tickets all still resolve.
#[test]
fn overload_resolves_every_submission_with_typed_outcomes() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .queue_capacity(4)
            .shed_watermarks(3, 1)
            .device_dwell(DeviceDwell::Modeled {
                strategy: MappingStrategy::Dynamic,
                scale: 20.0,
            }),
    );
    let mut accepted: Vec<Ticket> = Vec::new();
    let (mut shed, mut full) = (0u64, 0u64);
    for _ in 0..32 {
        match runtime.try_submit(features.clone()) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(ServeError::QueueFull { .. }) => full += 1,
            Err(e) => panic!("unexpected submission outcome: {e}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(shed > 0, "watermark 3 must trip before capacity 4");
    let accepted_count = accepted.len() as u64;
    for t in accepted {
        t.wait().expect("accepted tickets must serve");
    }
    let report = runtime.shutdown();
    assert_eq!(report.shed, shed);
    assert_eq!(report.requests, accepted_count);
    // Hysteresis note: with low watermark 1 the gate may reopen and close
    // repeatedly; all that matters is that every outcome was typed.
    assert_eq!(accepted_count + shed + full, 32);
}

/// Circuit breaker: with the respawn budget exhausted, the last live
/// worker drains every residual ticket as `Abandoned` instead of hanging.
#[test]
fn exhausted_respawn_budget_drains_residual_tickets() {
    let (plan, features) = plan_fixture();
    // A dwell of about 300 ms per request, sized from the plan's own modeled
    // milliseconds so it lasts that long whatever this host's calibration
    // predicts.  A worker replies only after its dwell and serves its queue
    // in order, so a warm request submitted first parks the lone worker
    // while the whole backlog is enqueued behind it.
    let strategy = MappingStrategy::Dynamic;
    let probe = plan.session(&[strategy]).infer(&features).unwrap();
    let modeled_ms = if probe.predicted_kernel_ms > 0.0 {
        probe.feature_movement_ms + probe.predicted_kernel_ms
    } else {
        probe.amortized_ms(strategy).unwrap()
    };
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .max_worker_respawns(1)
            .device_dwell(DeviceDwell::Modeled {
                strategy,
                scale: 300.0 / modeled_ms,
            }),
    );
    // First poison: caught, respawned (budget now 0).  Second poison: caught,
    // breaker opens — which closes the queue, so every residual must already
    // be enqueued: the payloads are cloned up front and submitted back to
    // back while the warm request's dwell holds the worker.  Residuals:
    // drained as Abandoned.
    let mut payloads = vec![features; 7].into_iter();
    let mut next = || payloads.next().unwrap();
    let warm = runtime.submit(next()).unwrap();
    let poison = SubmitOptions::default().panic_at_kernel(0);
    let p1 = runtime.submit_with(next(), poison).unwrap();
    let p2 = runtime.submit_with(next(), poison).unwrap();
    let residuals: Vec<Ticket> = (0..4).map(|_| runtime.submit(next()).unwrap()).collect();

    assert!(warm.wait().is_ok());
    assert!(matches!(p1.wait(), Err(ServeError::WorkerPanicked { .. })));
    assert!(matches!(p2.wait(), Err(ServeError::WorkerPanicked { .. })));
    for t in residuals {
        assert!(
            matches!(t.wait(), Err(ServeError::Abandoned { .. })),
            "residual tickets must drain as typed errors"
        );
    }
    let report = runtime.shutdown();
    assert_eq!(report.worker_panics, 2);
    assert_eq!(report.worker_respawns, 1);
}

/// Template (per-request subgraph) runtimes isolate a poisoned request the
/// same way: its ticket fails typed, batch-mates and later requests serve.
#[test]
fn template_runtime_supervises_poisoned_subgraph_requests() {
    use dynasparse::{EngineOptions, ModelTemplate};
    use dynasparse_graph::NeighborSampler;

    let full = Dataset::Cora.spec().generate_scaled(23, 0.08);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        full.features.dim(),
        8,
        full.spec.num_classes,
        5,
    );
    let template = ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap();
    let runtime = ServeRuntime::start_template(template, ServeConfig::default().workers(1));

    let mut tickets = Vec::new();
    for i in 0..4 {
        let sub = NeighborSampler::new([5, 3], 7 + i as u64).sample(&full.graph, &[i as u32 * 3]);
        let features = sub.extract_features(&full.features);
        let options = if i == 1 {
            SubmitOptions::default().panic_at_kernel(0)
        } else {
            SubmitOptions::default()
        };
        tickets.push(
            runtime
                .submit_with((sub.into_graph(), features), options)
                .unwrap(),
        );
    }
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(report) => assert_eq!(report.request_index, i),
            Err(ServeError::WorkerPanicked { message }) => {
                assert_eq!(i, 1);
                assert!(message.contains("injected fault"));
            }
            Err(e) => panic!("request {i}: unexpected error {e}"),
        }
    }
    let report = runtime.shutdown();
    assert_eq!(report.requests, 3);
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.worker_respawns, 1);
}

/// Deadline-bounded shutdown: a too-small drain budget fails residual
/// queued tickets with `Abandoned`; nothing hangs, nothing is lost.
#[test]
fn shutdown_with_deadline_resolves_every_outstanding_ticket() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .device_dwell(DeviceDwell::Modeled {
                strategy: MappingStrategy::Dynamic,
                scale: 100.0,
            }),
    );
    let tickets: Vec<Ticket> = (0..6)
        .map(|_| runtime.submit(features.clone()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let report = runtime.shutdown_with_deadline(Duration::from_millis(1));

    let (mut served, mut abandoned) = (0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(_) => served += 1,
            Err(ServeError::Abandoned { .. }) => abandoned += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert_eq!(served + abandoned, 6, "every ticket resolved");
    assert!(abandoned >= 1, "the tiny budget must abandon residuals");
    assert_eq!(report.requests, served);
}

/// The whole gauntlet at once: a mixed stream of healthy, poisoned, and
/// tightly-deadlined requests against a small sheddable queue, ending in a
/// deadline-bounded shutdown.  Accounting closes exactly: submissions =
/// typed rejections + resolved tickets, outcome by outcome, and the
/// runtime's own counters agree — for a fixed-plan and a template runtime
/// alike (they share one worker loop).
#[test]
fn mixed_fault_storm_loses_no_ticket() {
    use dynasparse::{EngineOptions, ModelTemplate};
    use dynasparse_graph::NeighborSampler;

    let config = || {
        ServeConfig::default()
            .workers(2)
            .max_batch(4)
            .queue_capacity(8)
            .shed_watermarks(6, 2)
            .max_worker_respawns(8)
    };

    let (plan, plan_features) = plan_fixture();
    let (rows, dim) = plan_features.shape();
    storm(ServeRuntime::start(plan, config()), |i| {
        dense_features(rows, dim, 0.05 + 0.015 * (i % 50) as f64, 300 + i as u64).into()
    });

    let full = Dataset::Cora.spec().generate_scaled(23, 0.08);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        full.features.dim(),
        8,
        full.spec.num_classes,
        5,
    );
    let template = ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap();
    storm(ServeRuntime::start_template(template, config()), |i| {
        let sub = NeighborSampler::new([5, 3], 300 + i as u64).sample(&full.graph, &[i as u32 * 3]);
        let features = sub.extract_features(&full.features);
        (sub.into_graph(), features).into()
    });
}

/// Drives one fault storm through `runtime` and closes its accounting.
fn storm(runtime: ServeRuntime, request: impl Fn(usize) -> Payload) {
    const TOTAL: usize = 48;
    let mut tickets = Vec::new();
    let (mut overloaded, mut queue_full) = (0u64, 0u64);
    for i in 0..TOTAL {
        let mut options = SubmitOptions::default();
        if i % 11 == 3 {
            options = options.panic_at_kernel(i % 3);
        }
        if i % 7 == 5 {
            options = options.deadline(Duration::from_micros(50));
        }
        if i % 5 == 0 {
            options = options.priority(Priority::High);
        }
        match runtime.try_submit_with(request(i), options) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { .. }) => overloaded += 1,
            Err(ServeError::QueueFull { .. }) => queue_full += 1,
            Err(e) => panic!("submission {i}: unexpected error {e}"),
        }
    }
    let rejected = overloaded + queue_full;
    let accepted = tickets.len() as u64;
    let (mut ok, mut panicked, mut expired, mut abandoned) = (0u64, 0u64, 0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::WorkerPanicked { .. }) => panicked += 1,
            Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
            Err(ServeError::Abandoned { .. }) => abandoned += 1,
            Err(e) => panic!("ticket resolved with unexpected error: {e}"),
        }
    }
    let resolved = ok + panicked + expired + abandoned;
    assert_eq!(resolved, accepted, "every accepted ticket resolved");
    assert_eq!(accepted + rejected, TOTAL as u64);
    let report = runtime.shutdown_with_deadline(Duration::from_secs(10));
    // Every load-shed submission surfaced to its caller as a rejection.
    assert!(report.shed <= rejected);
    // Caught panics and their respawns stay balanced: a worker either
    // rebuilt after a catch or opened its breaker, never silently died.
    assert!(report.worker_respawns <= report.worker_panics);
    // Ticket conservation, outcome by outcome: what the callers saw is what
    // the runtime counted.  (A poisoned request in a batch of several
    // panics twice — in the batch call and in its isolating retry — so
    // panics bound the panicked tickets from above.)
    assert_eq!(report.requests, ok, "served");
    assert_eq!(report.shed, overloaded, "shed");
    assert_eq!(report.deadline_expired, expired, "expired");
    assert!(report.worker_panics >= panicked, "panicked");
}
