//! Fault-injection proof of the serve runtime's traffic-control contract:
//! **every submitted ticket resolves** — to a result or a typed error,
//! never lost, never hung — across worker panic + respawn, deadline shed,
//! queue-full rejection, load shedding, circuit-breaker drain, and
//! deadline-bounded shutdown.
//!
//! Faults are hooks installed on one request through
//! `ServeRuntime::try_submit_with_fault`.  A poisoning hook panics *inside*
//! the forward pass, with arena and scratch state partially written, which
//! is precisely the state the supervisor's `rebuild_after_panic` respawn
//! must recover from.  A parking hook holds a worker in its first kernel
//! until the test releases it, so a backlog queues behind it whatever the
//! timing.

mod hooks;

use dynasparse::{CompiledPlan, MappingStrategy, Planner};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_serve::{Priority, ServeConfig, ServeError, ServeRuntime, SubmitOptions, Ticket};
use dynasparse_telemetry::{CounterId, Registry, TelemetryLevel};
use hooks::{poison, Park};
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
        let ticket = if i == 3 {
            runtime.try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(1))
        } else {
            runtime.submit(features.clone())
        };
        tickets.push(ticket.unwrap());
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
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(0))
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
    let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(1).max_batch(1));
    // Park the worker, then queue one request that expires immediately and
    // one with no deadline.
    let park = Park::new();
    let parked = park.submit(&runtime, &features);
    park.entered();
    let doomed = runtime
        .submit_with(
            features.clone(),
            SubmitOptions::default()
                .deadline(Duration::from_nanos(1))
                .priority(Priority::High),
        )
        .unwrap();
    let patient = runtime.submit(features).unwrap();
    park.release();

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
/// typed errors; accepted tickets all still resolve, and none of them waited
/// in the queue past the deadline every submission carries.
#[test]
fn overload_resolves_every_submission_with_typed_outcomes() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .queue_capacity(4)
            .shed_watermarks(3, 1),
    );
    // Every submission carries the same deadline `d`.  A request is served
    // only if its turn comes by `submitted + d`, which is no later than
    // `enqueued + d`, so no served request can have queued longer than `d`.
    let deadline = Duration::from_secs(2);
    let options = SubmitOptions::default().deadline(deadline);
    // The parked worker holds the first submission while the rest arrive.
    let park = Park::new();
    let mut accepted: Vec<Ticket> = vec![runtime
        .try_submit_with_fault(features.clone(), options, park.hook())
        .unwrap()];
    park.entered();
    let (mut shed, mut full) = (0u64, 0u64);
    for _ in 1..32 {
        match runtime.try_submit_with(features.clone(), options) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(ServeError::QueueFull { .. }) => full += 1,
            Err(e) => panic!("unexpected submission outcome: {e}"),
        }
    }
    assert!(shed > 0, "watermark 3 must trip before capacity 4");
    park.release();
    let accepted_count = accepted.len() as u64;
    for t in accepted {
        t.wait().expect("accepted tickets must serve");
    }
    let report = runtime.shutdown();
    assert_eq!(report.shed, shed);
    assert_eq!(report.requests, accepted_count);
    // Every submission resolved to exactly one typed outcome.
    assert_eq!(accepted_count + shed + full, 32);
    assert!(
        report.queue_wait.max_ms <= deadline.as_secs_f64() * 1e3,
        "served queue wait {:?} exceeds the {deadline:?} deadline",
        report.queue_wait
    );
}

/// Circuit breaker: with the respawn budget exhausted, the last live
/// worker drains every residual ticket as `Abandoned` instead of hanging.
#[test]
fn exhausted_respawn_budget_drains_residual_tickets() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(
        plan,
        ServeConfig::default()
            .workers(1)
            .max_batch(1)
            .max_worker_respawns(1),
    );
    // First poison: caught, respawned (budget now 0).  Second poison: caught,
    // breaker opens — which closes the queue, so every residual must already
    // be enqueued: a parked warm request holds the lone worker while the
    // whole backlog is submitted.  Residuals: drained as Abandoned.
    let park = Park::new();
    let warm = park.submit(&runtime, &features);
    let poisoned = || {
        runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(0))
            .unwrap()
    };
    let (p1, p2) = (poisoned(), poisoned());
    let residuals: Vec<Ticket> = (0..4)
        .map(|_| runtime.submit(features.clone()).unwrap())
        .collect();
    park.release();

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

/// Deadline-bounded shutdown: a too-small drain budget fails residual
/// queued tickets with `Abandoned`; nothing hangs, nothing is lost.
#[test]
fn shutdown_with_deadline_resolves_every_outstanding_ticket() {
    let (plan, features) = plan_fixture();
    let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(1).max_batch(1));
    // The first request parks the worker; the rest stay queued past the tiny
    // drain budget.  The park is released once the last residual resolves,
    // i.e. once shutdown has abandoned the queue.
    let park = Park::new();
    let parked = park.submit(&runtime, &features);
    park.entered();
    let mut residuals: Vec<Ticket> = (0..5)
        .map(|_| runtime.submit(features.clone()).unwrap())
        .collect();
    let releaser = {
        let (last, park) = (residuals.pop().unwrap(), Arc::clone(&park));
        std::thread::spawn(move || {
            let outcome = last.wait();
            park.release();
            outcome
        })
    };
    let report = runtime.shutdown_with_deadline(Duration::from_millis(1));

    let outcomes = std::iter::once(parked)
        .chain(residuals)
        .map(Ticket::wait)
        .chain(std::iter::once(releaser.join().unwrap()));
    let (mut served, mut abandoned) = (0u64, 0u64);
    for outcome in outcomes {
        match outcome {
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
/// runtime's own counters agree.
#[test]
fn mixed_fault_storm_loses_no_ticket() {
    let config = ServeConfig::default()
        .workers(2)
        .max_batch(4)
        .queue_capacity(8)
        .shed_watermarks(6, 2)
        .max_worker_respawns(8)
        .telemetry(Arc::new(Registry::new(TelemetryLevel::Counters)));
    let (plan, features) = plan_fixture();
    let (rows, dim) = features.shape();
    let request =
        |i: usize| dense_features(rows, dim, 0.05 + 0.015 * (i % 50) as f64, 300 + i as u64);
    let runtime = ServeRuntime::start(plan, config);

    const TOTAL: usize = 48;
    let telemetry = Arc::clone(runtime.telemetry());
    let metrics = Arc::clone(runtime.metrics());
    let mut tickets = Vec::new();
    let (mut overloaded, mut queue_full) = (0u64, 0u64);
    for i in 0..TOTAL {
        let mut options = SubmitOptions::default();
        if i % 7 == 5 {
            options = options.deadline(Duration::from_micros(50));
        }
        if i % 5 == 0 {
            options = options.priority(Priority::High);
        }
        let submitted = if i % 11 == 3 {
            runtime.try_submit_with_fault(request(i), options, poison(i % 3))
        } else {
            runtime.try_submit_with(request(i), options)
        };
        match submitted {
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
    // the runtime counted.  The report is read off the runtime's own
    // registry, so report and counters are one source; the sessions'
    // registry holds kernel telemetry and no serve event.
    // (Every panicked ticket was charged a caught panic, so panics bound
    // the panicked tickets from above.)
    assert_eq!(report.requests, ok, "served");
    assert_eq!(report.shed, overloaded, "shed");
    assert_eq!(report.deadline_expired, expired, "expired");
    assert!(report.worker_panics >= panicked, "panicked");
    let served = metrics.snapshot();
    assert_eq!(
        served.counter(CounterId::ServeRequests),
        ok,
        "exported served"
    );
    for id in [
        CounterId::ServeRequests,
        CounterId::ServeShed,
        CounterId::ServeDeadlineExpired,
        CounterId::ServeWorkerPanics,
    ] {
        assert_eq!(telemetry.counter(id), 0, "{id:?} is recorded once");
    }
}
