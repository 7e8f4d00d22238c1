//! Open-loop overload soak: Poisson arrivals at 1x/2x/4x of measured
//! capacity against the traffic-controlled serve runtime.
//!
//! A closed-loop load generator waits for replies, so it can never push the
//! runtime past saturation and never exercises the admission-control path.
//! This bench is open-loop — a Poisson arrival process submits at a rate
//! fixed in advance, independent of how fast the runtime drains — which is
//! the regime where deadlines, load shedding, and worker supervision earn
//! their keep.
//!
//! ## What is being measured
//!
//! 1. **Capacity calibration**: a closed-loop burst measures the runtime's
//!    sustainable requests/sec for the chosen worker/batch configuration.
//! 2. **Soak regimes**: arrivals at 1x (critically loaded), 2x, and 4x of
//!    that capacity, with exponential inter-arrival gaps (Poisson process),
//!    per-request deadlines, shedding watermarks on the queue, and a poisoned
//!    request injected every `POISON_EVERY` submissions to keep the
//!    supervision path hot under load.
//! 3. **Conservation**: every submission resolves — served, typed rejection
//!    at admission, deadline shed, or panic — and the counts must add up.
//!    A lost or hung ticket fails the bench.
//!
//! Per regime the bench prints one JSON line and the full run is written to
//! `BENCH_soak.json` at the workspace root: offered vs achieved rate, queue
//! p50/p99/p99.9 (bounded by the deadline at any overload, because expired
//! requests are shed at pop time), shed rate, and panic-recovery counts.
//!
//! `SOAK_BENCH_REQUESTS` caps submissions per regime (CI smoke uses 8).

use criterion::{criterion_group, criterion_main, Criterion};
use dynasparse::{CompiledPlan, EngineOptions, MappingStrategy, Planner};
use dynasparse_graph::{Dataset, FeatureMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_serve::{
    DeviceDwell, Priority, ServeConfig, ServeError, ServeRuntime, SubmitOptions, Ticket,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Device occupancy / host compute ratio the dwell is calibrated to.
const DWELL_FACTOR: f64 = 6.0;
/// Worker pool under soak.
const WORKERS: usize = 2;
/// Micro-batch cap under soak.
const MAX_BATCH: usize = 4;
/// Bounded queue depth; shedding watermarks sit inside it.
const QUEUE_CAPACITY: usize = 32;
/// Every Nth submission carries an injected kernel panic.
const POISON_EVERY: usize = 16;

fn requests_per_regime() -> usize {
    std::env::var("SOAK_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
        .max(4)
}

fn quarter_cora() -> (Arc<CompiledPlan>, FeatureMatrix) {
    let dataset = Dataset::Cora.spec().generate_scaled(3, 0.25);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        dataset.features.dim(),
        16,
        dataset.spec.num_classes,
        1,
    );
    let plan = Planner::new(EngineOptions::default())
        .plan_shared(&model, &dataset)
        .unwrap();
    (plan, dataset.features)
}

/// Calibrates the modeled device dwell so lane occupancy dominates host
/// work.
fn calibrate_dwell(plan: &Arc<CompiledPlan>, features: &FeatureMatrix) -> f64 {
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.infer(features).unwrap(); // warm-up
    let samples = 5;
    let start = Instant::now();
    let mut report = None;
    for _ in 0..samples {
        report = Some(session.infer(features).unwrap());
    }
    let host_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
    let amortized_ms = report
        .unwrap()
        .amortized_ms(MappingStrategy::Dynamic)
        .unwrap();
    (DWELL_FACTOR * host_ms / amortized_ms).max(0.0)
}

fn soak_config(dwell_scale: f64, respawn_budget: usize) -> ServeConfig {
    ServeConfig::default()
        .workers(WORKERS)
        .max_batch(MAX_BATCH)
        .queue_capacity(QUEUE_CAPACITY)
        .shed_watermarks(QUEUE_CAPACITY * 3 / 4, QUEUE_CAPACITY / 2)
        .max_worker_respawns(respawn_budget)
        .device_dwell(DeviceDwell::Modeled {
            strategy: MappingStrategy::Dynamic,
            scale: dwell_scale,
        })
}

/// Closed-loop burst measuring sustainable requests/sec for the soak
/// configuration — the denominator for the overload regimes.
fn measure_capacity(plan: &Arc<CompiledPlan>, features: &FeatureMatrix, dwell_scale: f64) -> f64 {
    let requests = 16;
    let runtime = ServeRuntime::start(Arc::clone(plan), soak_config(dwell_scale, 0));
    let start = Instant::now();
    let results = runtime.serve_all((0..requests).map(|_| features.clone()));
    let wall = start.elapsed().as_secs_f64();
    runtime.shutdown();
    assert!(
        results.iter().all(|r| r.is_ok()),
        "calibration burst failed"
    );
    requests as f64 / wall.max(1e-9)
}

/// Terminal outcome tallies for one soak regime; every submission lands in
/// exactly one bucket.
#[derive(Default)]
struct Outcomes {
    served: u64,
    rejected_at_admission: u64,
    deadline_exceeded: u64,
    panicked: u64,
    abandoned: u64,
    other_errors: u64,
}

struct RegimePoint {
    load: f64,
    offered_rps: f64,
    submissions: usize,
    outcomes: Outcomes,
    wall_seconds: f64,
    report: dynasparse_serve::ServeReport,
}

/// One open-loop soak: Poisson arrivals at `load` × `capacity_rps`, every
/// submission classified, conservation asserted.
fn run_regime(
    plan: &Arc<CompiledPlan>,
    features: &FeatureMatrix,
    dwell_scale: f64,
    capacity_rps: f64,
    load: f64,
    submissions: usize,
    deadline: Duration,
) -> RegimePoint {
    let offered_rps = capacity_rps * load;
    let runtime = ServeRuntime::start(Arc::clone(plan), soak_config(dwell_scale, submissions));

    // The collector drains tickets on a separate thread so a slow reply
    // never stalls the arrival process (that would close the loop).
    let (tx, rx) = mpsc::channel::<Ticket>();
    let collector = thread::spawn(move || {
        let mut o = Outcomes::default();
        for ticket in rx {
            match ticket.wait() {
                Ok(_) => o.served += 1,
                Err(ServeError::DeadlineExceeded { .. }) => o.deadline_exceeded += 1,
                Err(ServeError::WorkerPanicked { .. }) => o.panicked += 1,
                Err(ServeError::Abandoned { .. }) => o.abandoned += 1,
                Err(_) => o.other_errors += 1,
            }
        }
        o
    });

    let mut rng = StdRng::seed_from_u64(0x50a7 ^ (load * 1e3) as u64);
    let mut rejected_at_admission = 0u64;
    let start = Instant::now();
    for i in 0..submissions {
        // Exponential inter-arrival gap: -ln(1-u)/λ is a Poisson process.
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = Duration::from_secs_f64((-(1.0 - u).ln()) / offered_rps);
        thread::sleep(gap);

        let mut options = SubmitOptions::default()
            .deadline(deadline)
            .priority(if i % 7 == 0 {
                Priority::High
            } else {
                Priority::Normal
            });
        if i % POISON_EVERY == POISON_EVERY - 1 {
            options = options.panic_at_kernel(0);
        }
        // Open loop: never block on a full queue — a typed rejection is the
        // admission-control outcome being measured.
        match runtime.try_submit_with(features.clone(), options) {
            Ok(ticket) => tx.send(ticket).unwrap(),
            Err(ServeError::QueueFull { .. }) | Err(ServeError::Overloaded { .. }) => {
                rejected_at_admission += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    drop(tx);
    let mut outcomes = collector.join().expect("collector panicked");
    let wall_seconds = start.elapsed().as_secs_f64();
    outcomes.rejected_at_admission = rejected_at_admission;
    let report = runtime.shutdown();

    // Conservation: every submission resolved exactly once.
    let resolved = outcomes.served
        + outcomes.rejected_at_admission
        + outcomes.deadline_exceeded
        + outcomes.panicked
        + outcomes.abandoned
        + outcomes.other_errors;
    assert_eq!(
        resolved, submissions as u64,
        "every submission must resolve to exactly one outcome"
    );
    assert_eq!(report.requests, outcomes.served, "served count mismatch");

    RegimePoint {
        load,
        offered_rps,
        submissions,
        outcomes,
        wall_seconds,
        report,
    }
}

fn regime_json(p: &RegimePoint, deadline: Duration) -> String {
    let o = &p.outcomes;
    let shed_total = o.rejected_at_admission + o.deadline_exceeded;
    format!(
        "{{\"bench\":\"soak_overload\",\"load\":{:.1},\"offered_rps\":{:.1},\
         \"submissions\":{},\"served\":{},\"rejected_at_admission\":{},\
         \"deadline_exceeded\":{},\"panicked\":{},\"abandoned\":{},\
         \"shed_rate\":{:.4},\"deadline_ms\":{:.1},\
         \"queue_p50_ms\":{:.3},\"queue_p99_ms\":{:.3},\"queue_p999_ms\":{:.3},\
         \"turnaround_p99_ms\":{:.3},\"achieved_rps\":{:.1},\
         \"worker_panics\":{},\"worker_respawns\":{},\"wall_seconds\":{:.3}}}",
        p.load,
        p.offered_rps,
        p.submissions,
        o.served,
        o.rejected_at_admission,
        o.deadline_exceeded,
        o.panicked,
        o.abandoned,
        shed_total as f64 / p.submissions as f64,
        deadline.as_secs_f64() * 1e3,
        p.report.queue_wait.p50_ms,
        p.report.queue_wait.p99_ms,
        p.report.queue_wait.p999_ms,
        p.report.turnaround.p99_ms,
        o.served as f64 / p.wall_seconds.max(1e-9),
        p.report.worker_panics,
        p.report.worker_respawns,
        p.wall_seconds,
    )
}

fn bench_soak_overload(c: &mut Criterion) {
    let submissions = requests_per_regime();
    let (plan, features) = quarter_cora();
    let dwell_scale = calibrate_dwell(&plan, &features);
    let capacity_rps = measure_capacity(&plan, &features, dwell_scale);
    // Deadline ≈ a quarter-queue's worth of service time: comfortably above
    // the queue waits a critically-loaded (1x) run produces, but binding as
    // soon as sustained overload builds a backlog — the soak window is only
    // `submissions` arrivals long, so a full-queue deadline would need a
    // longer storm than the bench runs to ever expire.
    let deadline =
        Duration::from_secs_f64((QUEUE_CAPACITY as f64 / 4.0 / capacity_rps).clamp(0.01, 2.0));
    println!(
        "\n  calibration: capacity {capacity_rps:.1} req/s \
         ({WORKERS} workers, batch {MAX_BATCH}), deadline {:.1} ms, \
         {submissions} submissions/regime",
        deadline.as_secs_f64() * 1e3
    );

    // Criterion-visible number: one short 1x burst.
    let mut group = c.benchmark_group("soak_overload");
    group.sample_size(2);
    group.bench_function("open_loop_1x_burst_16", |b| {
        b.iter(|| {
            run_regime(
                &plan,
                &features,
                dwell_scale,
                capacity_rps,
                1.0,
                16,
                deadline,
            )
        })
    });
    group.finish();

    let mut lines = Vec::new();
    for &load in &[1.0f64, 2.0, 4.0] {
        let p = run_regime(
            &plan,
            &features,
            dwell_scale,
            capacity_rps,
            load,
            submissions,
            deadline,
        );
        let line = regime_json(&p, deadline);
        println!("{line}");

        // Deadline shedding at pop time bounds the queue wait of anything
        // actually served: no served request waited past its deadline.
        let deadline_ms = deadline.as_secs_f64() * 1e3;
        assert!(
            p.report.queue_wait.p99_ms <= deadline_ms * 2.0,
            "queue p99 {:.1} ms must stay bounded by the {deadline_ms:.1} ms deadline",
            p.report.queue_wait.p99_ms
        );
        // Overload must surface as typed shedding, not unbounded queueing —
        // only asserted at real request counts (CI smoke runs 8/regime).
        if load >= 2.0 && submissions >= 32 {
            let shed =
                p.outcomes.rejected_at_admission + p.outcomes.deadline_exceeded + p.report.shed;
            assert!(
                shed > 0,
                "{load}x overload over {submissions} submissions must shed something"
            );
        }
        lines.push(line);
    }

    // Full run as a JSON array at the workspace root for CI artifacts and
    // the README bench table.
    let json = format!("[\n  {}\n]\n", lines.join(",\n  "));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soak.json");
    std::fs::write(path, &json).expect("write BENCH_soak.json");
    println!("\n  wrote {path}");
}

criterion_group!(benches, bench_soak_overload);
criterion_main!(benches);
