//! The serving runtime: a worker pool draining a bounded request queue.
//!
//! [`ServeRuntime::start`] spawns `workers` OS threads, each holding its own
//! [`Session`] over one shared `Arc<CompiledPlan>` — compiled state is
//! reference-counted, per-request state is thread-local, so no lock is held
//! during inference.  That sharing includes the plan's measured host kernel
//! calibration ([`CompiledPlan::calibration`]): the micro-calibration runs
//! at most once per process (inside planning, never on the serving path)
//! and every worker session dispatches through the same `Arc`'d fit.  Producers [`submit`](ServeRuntime::submit) feature
//! matrices and get a [`Ticket`] to wait on.  A worker serves one request at
//! a time: it takes up to `max_batch` of the requests already queued under
//! one lock acquisition (it never waits for more), then gives each, in
//! order, its own turn — deadline check, one supervised [`Session::infer`]
//! on the session it opened at thread start, id stamp, metrics — and
//! replies as soon as that request is done.
//!
//! The runtime records its serve events — requests, drains, sheds,
//! expiries, panics, respawns, queue wait, service time, queue depth — once,
//! into a counters-level [`Registry`] of its own ([`ServeRuntime::metrics`]),
//! which [`ServeReport`] is read off.  Worker sessions publish their kernel
//! telemetry into [`ServeConfig::telemetry`] (or the global registry).
//!
//! Because every request is profiled and priced from a freshly reset
//! analyzer/scheduler, a report does not depend on which worker served the
//! request or on what was served before it: the runtime's outputs are
//! bit-identical to a single serial session over the same request stream
//! (proved by `tests/integration_serve.rs`).

use crate::error::ServeError;
use crate::metrics::{ServeMetrics, ServeReport};
use crate::queue::{BoundedQueue, PushError};
use dynasparse::{CompiledPlan, FaultHook, InferenceReport, MappingStrategy, Session};
use dynasparse_graph::FeatureMatrix;
use dynasparse_telemetry::{CounterId, GaugeId, HistogramId, Registry};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each with its own session).
    pub workers: usize,
    /// Requests one drain may take from the queue; never waited for.
    pub max_batch: usize,
    /// Bounded request-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Mapping strategies every request is priced under.
    pub strategies: Vec<MappingStrategy>,
    /// Telemetry registry every worker session publishes its kernel
    /// telemetry into; `None` resolves to the process-global
    /// [`Registry::global`] (leveled by `DYNASPARSE_TELEMETRY`).  Serve
    /// events go to the runtime's own registry ([`ServeRuntime::metrics`]).
    pub telemetry: Option<Arc<Registry>>,
    /// Load-shedding watermarks `(high, low)` on queue depth, with
    /// hysteresis: once depth reaches `high`, submissions are rejected with
    /// [`ServeError::Overloaded`] until depth recedes to `low`; `None`
    /// disables shedding (pure backpressure, the previous behavior).
    /// [`ServeRuntime::start`] clamps the pair as the builder does.
    pub shed_watermarks: Option<(usize, usize)>,
    /// Per-worker budget of session rebuilds after caught panics.  A worker
    /// that exhausts it opens its circuit breaker and retires; the last
    /// retiring worker closes the queue and fails residual tickets with
    /// [`ServeError::Abandoned`] instead of hanging them.
    pub max_worker_respawns: usize,
}

impl PartialEq for ServeConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_registry = match (&self.telemetry, &other.telemetry) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        same_registry
            && self.workers == other.workers
            && self.max_batch == other.max_batch
            && self.queue_capacity == other.queue_capacity
            && self.strategies == other.strategies
            && self.shed_watermarks == other.shed_watermarks
            && self.max_worker_respawns == other.max_worker_respawns
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_capacity: 64,
            strategies: vec![MappingStrategy::Dynamic],
            telemetry: None,
            shed_watermarks: None,
            max_worker_respawns: 32,
        }
    }
}

impl ServeConfig {
    /// Sets the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets how many queued requests one drain may take.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the bounded queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the strategies priced on every request.
    pub fn strategies(mut self, strategies: &[MappingStrategy]) -> Self {
        self.strategies = strategies.to_vec();
        self
    }

    /// Routes worker-session telemetry into `registry` instead of the
    /// process-global one (tests inject leveled registries this way).
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Enables load shedding with hysteresis: reject submissions once queue
    /// depth reaches `high` (clamped to at least 1, so an empty queue always
    /// admits), resume once it recedes to `low` (clamped to `high`).
    pub fn shed_watermarks(mut self, high: usize, low: usize) -> Self {
        let high = high.max(1);
        self.shed_watermarks = Some((high, low.min(high)));
        self
    }

    /// Sets the per-worker circuit-breaker budget of post-panic session
    /// rebuilds.
    pub fn max_worker_respawns(mut self, respawns: usize) -> Self {
        self.max_worker_respawns = respawns;
        self
    }
}

/// Priority class of a submission: higher classes drain first; order within
/// a class stays FIFO.  Capacity and load shedding apply to all classes
/// alike (priority reorders service, it does not bypass admission).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// Served before everything else (interactive traffic).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class is queued (batch/backfill traffic).
    Low,
}

impl Priority {
    /// Number of priority lanes in a runtime's queue.
    pub const LANES: usize = 3;

    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-submission admission options (see
/// [`ServeRuntime::submit_with`]).
///
/// ```
/// use dynasparse_serve::{Priority, SubmitOptions};
/// use std::time::Duration;
///
/// let opts = SubmitOptions::default()
///     .deadline(Duration::from_millis(50))
///     .priority(Priority::High);
/// assert_eq!(opts.deadline, Some(Duration::from_millis(50)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Time budget from submission; a request still queued when it expires
    /// is shed unexecuted with [`ServeError::DeadlineExceeded`].  `None`
    /// (default) waits indefinitely.
    pub deadline: Option<Duration>,
    /// Priority class (default [`Priority::Normal`]).
    pub priority: Priority,
}

impl SubmitOptions {
    /// Sets the deadline budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// How one request ends: its report, or the typed error it resolved to.
type Outcome = Result<InferenceReport, ServeError>;

/// The reply side of one accepted request: everything but its features.
struct Envelope {
    id: u64,
    /// When the queue accepted the request (queue wait counts from here).
    enqueued: Instant,
    /// Absolute expiry, counted from the call to `submit*` — so time spent
    /// blocked on a full queue counts against it; a request still queued
    /// past it is shed by the draining worker without executing.
    deadline: Option<Instant>,
    /// The hook the worker installs around this request's one
    /// [`Session::infer`] (see [`ServeRuntime::try_submit_with_fault`]).
    fault: Option<FaultHook>,
    reply: mpsc::Sender<Outcome>,
}

struct QueuedRequest {
    envelope: Envelope,
    features: FeatureMatrix,
}

impl QueuedRequest {
    fn expired_at(&self, now: Instant) -> bool {
        self.envelope.deadline.is_some_and(|d| now > d)
    }
}

/// Handle to one submitted request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Outcome>,
}

impl Ticket {
    /// Global request id (submission order; also the report's
    /// `request_index`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's worker replies.
    pub fn wait(self) -> Result<InferenceReport, ServeError> {
        // Sender dropped without replying: the worker died mid-request.
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }
}

/// Multi-threaded serving runtime over one shared [`CompiledPlan`].
///
/// ```
/// use dynasparse::Planner;
/// use dynasparse_graph::Dataset;
/// use dynasparse_model::GnnModel;
/// use dynasparse_serve::{ServeConfig, ServeRuntime};
///
/// let dataset = Dataset::Cora.spec().generate_scaled(42, 0.08);
/// let model = GnnModel::gcn(dataset.features.dim(), 8, dataset.spec.num_classes, 7);
/// let plan = Planner::default().plan_shared(&model, &dataset).unwrap();
///
/// // Two workers, each taking up to 4 queued requests per drain and
/// // serving them one `Session::infer` at a time.
/// let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(2).max_batch(4));
/// let ticket = runtime.submit(dataset.features.clone()).unwrap();
/// let report = ticket.wait().unwrap();
/// assert_eq!(report.request_index, 0);
///
/// let metrics = runtime.shutdown();
/// assert_eq!(metrics.requests, 1);
/// ```
pub struct ServeRuntime {
    plan: Arc<CompiledPlan>,
    config: ServeConfig,
    queue: Arc<BoundedQueue<QueuedRequest>>,
    metrics: Arc<ServeMetrics>,
    telemetry: Arc<Registry>,
    workers: Vec<thread::JoinHandle<()>>,
    started: Instant,
    /// Hysteresis latch of the load-shedding policy: set when depth crossed
    /// the high watermark, cleared once it recedes to the low one.
    shedding: AtomicBool,
}

impl ServeRuntime {
    /// Spawns the worker pool and starts accepting requests.
    pub fn start(plan: Arc<CompiledPlan>, mut config: ServeConfig) -> Self {
        // The watermarks are a public field, so clamp them as the builder
        // does: a zero high watermark would trip on an empty queue.
        if let Some((high, low)) = config.shed_watermarks {
            config = config.shed_watermarks(high, low);
        }
        let queue = Arc::new(BoundedQueue::with_lanes(
            config.queue_capacity,
            Priority::LANES,
        ));
        let metrics = Arc::new(ServeMetrics::new());
        let telemetry = config.telemetry.clone().unwrap_or_else(Registry::global);
        if let Some((high, _)) = config.shed_watermarks {
            metrics
                .registry
                .gauge_set(GaugeId::ShedWatermark, high as f64);
        }
        let live_workers = Arc::new(AtomicUsize::new(config.workers.max(1)));
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let plan = Arc::clone(&plan);
                let config = config.clone();
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let telemetry = Arc::clone(&telemetry);
                let live_workers = Arc::clone(&live_workers);
                thread::Builder::new()
                    .name(format!("dynasparse-serve-{index}"))
                    .spawn(move || {
                        // The session is opened here, before the first
                        // request arrives.  It publishes into the configured
                        // registry through the worker's own shard, so
                        // per-shard counter breakdowns read as per-worker
                        // ones; post-panic rebuilds keep that telemetry.
                        let mut session = plan.session_shared(&config.strategies);
                        session.set_telemetry(telemetry);
                        session.set_telemetry_shard(index);
                        Worker {
                            index,
                            max_batch: config.max_batch,
                            queue,
                            metrics,
                            live_workers,
                            session,
                            respawns_left: config.max_worker_respawns,
                            breaker_open: false,
                        }
                        .run()
                    })
                    .expect("failed to spawn serve worker")
            })
            .collect();
        ServeRuntime {
            plan,
            config,
            queue,
            metrics,
            telemetry,
            workers,
            started: Instant::now(),
            shedding: AtomicBool::new(false),
        }
    }

    /// The plan every worker serves from.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests currently queued (excluding those being served).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The telemetry registry the worker sessions publish kernel telemetry
    /// into — the injected [`ServeConfig::telemetry`] registry, or
    /// [`Registry::global`] when none was configured.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The runtime's own counters-level registry, which holds every serve
    /// event of this runtime and no other (`dynasparse_serve_*`: requests,
    /// drains, sheds, expiries, panics, respawns, the queue-wait, service
    /// and drain-size histograms, the queue-depth and shed-watermark
    /// gauges).  [`ServeRuntime::snapshot`] is read off it; snapshot it for
    /// Prometheus/JSON exposition.  It records at any
    /// `DYNASPARSE_TELEMETRY` level.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Submits a request, blocking while the queue is at capacity
    /// (backpressure).  The request's shape is checked up front, with the
    /// typed error [`Session::infer`] would produce; its values are not
    /// read here.  A request holding a `NaN` or `±Inf` feature, dense- or
    /// CSR-stored, is accepted and its ticket resolves to the worker's
    /// [`MatrixError::NonFinite`](dynasparse_matrix::MatrixError::NonFinite)
    /// refusal (`op: "session infer"`), which costs the worker no respawn.
    pub fn submit(&self, features: FeatureMatrix) -> Result<Ticket, ServeError> {
        self.enqueue(features, SubmitOptions::default(), false, None)
    }

    /// Submits a request without blocking; a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.  The request is checked
    /// as [`ServeRuntime::submit`] checks it.
    pub fn try_submit(&self, features: FeatureMatrix) -> Result<Ticket, ServeError> {
        self.enqueue(features, SubmitOptions::default(), true, None)
    }

    /// [`ServeRuntime::submit`] with per-request admission options
    /// (deadline, priority class).
    pub fn submit_with(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(features, options, false, None)
    }

    /// [`ServeRuntime::try_submit`] with per-request admission options.
    pub fn try_submit_with(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(features, options, true, None)
    }

    /// [`ServeRuntime::try_submit_with`], with `fault` installed as the
    /// session's [`FaultHook`] for this request's one [`Session::infer`]: a
    /// hook that panics poisons the request, one that blocks parks its
    /// worker (holding no queue lock).  The seam supervision and queue-race
    /// tests drive; it has no production use.
    #[doc(hidden)]
    pub fn try_submit_with_fault(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
        fault: FaultHook,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(features, options, true, Some(fault))
    }

    /// The admission gate of the load-shedding policy: reject when depth
    /// has crossed the high watermark and has not yet receded to the low
    /// one (hysteresis, so a queue hovering at the boundary doesn't flap
    /// between accept and reject on every submission).
    fn admit(&self) -> Result<(), ServeError> {
        let Some((high, low)) = self.config.shed_watermarks else {
            return Ok(());
        };
        let depth = self.queue.len();
        let shedding = if self.shedding.load(Ordering::Relaxed) {
            if depth <= low {
                self.shedding.store(false, Ordering::Relaxed);
                false
            } else {
                true
            }
        } else if depth >= high {
            self.shedding.store(true, Ordering::Relaxed);
            true
        } else {
            false
        };
        if shedding {
            self.metrics.registry.incr(0, CounterId::ServeShed);
            Err(ServeError::Overloaded {
                depth,
                watermark: high,
            })
        } else {
            Ok(())
        }
    }

    fn enqueue(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
        bounce: bool,
        fault: Option<FaultHook>,
    ) -> Result<Ticket, ServeError> {
        // The deadline budget runs from here, not from queue acceptance: a
        // blocking submission's backpressure wait is time the caller spent.
        let submitted = Instant::now();
        self.plan.validate_request(&features, "serve submit")?;
        self.admit()?;
        let (tx, rx) = mpsc::channel();
        // The queue assigns the request id under its own lock, so accepted
        // requests are numbered gaplessly in FIFO order: a bounced or
        // rejected submission consumes no id, and `request_index` matches
        // what a serial session over the accepted stream would assign.
        let make = |id: u64| QueuedRequest {
            envelope: Envelope {
                id,
                enqueued: Instant::now(),
                deadline: options.deadline.map(|d| submitted + d),
                fault,
                reply: tx,
            },
            features,
        };
        let lane = options.priority.lane();
        let pushed = if bounce {
            self.queue.try_push_with_at(lane, make)
        } else {
            self.queue.push_with_at(lane, make)
        };
        match pushed {
            Ok(id) => Ok(Ticket { id, rx }),
            Err(PushError::Full) => Err(ServeError::QueueFull {
                capacity: self.queue.capacity(),
            }),
            Err(PushError::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    /// Convenience driver: submits every request (blocking on backpressure)
    /// and waits for all replies, returned in submission order.
    pub fn serve_all(&self, requests: impl IntoIterator<Item = FeatureMatrix>) -> Vec<Outcome> {
        // Tickets buffer replies through their per-request channels, so
        // collecting them first cannot deadlock against the bounded queue:
        // workers never block on a reply send.
        let tickets: Vec<Result<Ticket, ServeError>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(Ticket::wait))
            .collect()
    }

    /// Metrics accumulated so far, without stopping the runtime (a read of
    /// [`ServeRuntime::metrics`]).
    pub fn snapshot(&self) -> ServeReport {
        self.metrics.report(self.started.elapsed())
    }

    /// Stops accepting requests, drains the queue, joins every worker and
    /// returns the final aggregate metrics.  Every queued ticket is served;
    /// a worker thread that died of an uncaught panic has its payload
    /// recovered into [`ServeReport::worker_failures`].
    pub fn shutdown(self) -> ServeReport {
        self.queue.close();
        join_workers(self.workers, &self.metrics);
        self.metrics.report(self.started.elapsed())
    }

    /// Graceful shutdown under a drain budget: stops accepting requests,
    /// lets workers drain for up to `budget`, then fails every residual
    /// queued ticket with [`ServeError::Abandoned`] rather than serving it.
    /// No ticket hangs: each one resolves to a result, a typed error, or
    /// `Abandoned`.
    ///
    /// Workers still finish the requests they have already drained when the
    /// budget runs out (at most `max_batch` each); only *queued* requests
    /// are abandoned.
    pub fn shutdown_with_deadline(self, budget: Duration) -> ServeReport {
        self.queue.close();
        let deadline = Instant::now() + budget;
        loop {
            if self.workers.iter().all(|w| w.is_finished()) {
                break;
            }
            if Instant::now() >= deadline {
                // close() already stopped new arrivals, and workers exit
                // once the queue is empty, so this terminates.
                abandon_queued(&self.queue, "shutdown drain deadline expired");
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        join_workers(self.workers, &self.metrics);
        self.metrics.report(self.started.elapsed())
    }
}

/// Joins the pool, recovering (instead of discarding) the panic payload of
/// any worker whose thread died outside the supervisor's catch.
fn join_workers(workers: Vec<thread::JoinHandle<()>>, metrics: &ServeMetrics) {
    for (index, worker) in workers.into_iter().enumerate() {
        if let Err(payload) = worker.join() {
            metrics.record_failure(format!(
                "worker {index} thread panicked: {}",
                panic_message(&payload)
            ));
        }
    }
}

/// Stringifies a caught panic payload (panics carry `&str` or `String` in
/// practice; anything else is opaque).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Abandonment reason used when a worker pool's circuit breaker opens.
const RESPAWN_EXHAUSTED: &str = "worker respawn budget exhausted";

/// Fails every request still queued with [`ServeError::Abandoned`]; with
/// nobody left to drain them, leaving them queued would hang their callers
/// forever.
fn abandon_queued(queue: &BoundedQueue<QueuedRequest>, reason: &'static str) {
    while let Some(drained) = queue.pop_batch_where(64, |_| false) {
        for request in drained.batch.into_iter().chain(drained.expired) {
            let _ = request
                .envelope
                .reply
                .send(Err(ServeError::Abandoned { reason }));
        }
    }
}

/// One worker thread's state.  Each drained request crosses, in order and
/// on its own: deadline shed (at pop, and again when its turn comes) →
/// fault-hook install → one supervised [`Session::infer`] on the session
/// the worker opened on the plan at thread start → id stamp → metrics →
/// reply.
struct Worker {
    index: usize,
    max_batch: usize,
    queue: Arc<BoundedQueue<QueuedRequest>>,
    metrics: Arc<ServeMetrics>,
    /// Workers still serving; the last one to retire on an open circuit
    /// breaker closes the queue and fails residual tickets.
    live_workers: Arc<AtomicUsize>,
    /// The worker's one session over the runtime's plan, opened at thread
    /// start and rebuilt in place after a caught panic.
    session: Session<'static>,
    /// Post-panic session rebuilds left before the circuit breaker opens.
    respawns_left: usize,
    breaker_open: bool,
}

impl Worker {
    fn run(mut self) {
        while let Some(drained) = self
            .queue
            .pop_batch_where(self.max_batch, |request| request.expired_at(Instant::now()))
        {
            for request in drained.expired {
                self.shed_expired(request);
            }
            if !drained.batch.is_empty() {
                let metrics = &self.metrics.registry;
                metrics.gauge_set(GaugeId::QueueDepth, self.queue.len() as f64);
                metrics.incr(self.index, CounterId::ServeBatches);
                let size = drained.batch.len() as u64;
                metrics.observe(self.index, HistogramId::BatchSize, size);
                for request in drained.batch {
                    self.serve(request);
                }
            }
            if self.breaker_open {
                if self.live_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.queue.close();
                    abandon_queued(&self.queue, RESPAWN_EXHAUSTED);
                }
                return;
            }
        }
    }

    /// Fails a request whose deadline has passed — found at pop time or
    /// when its turn came; it never executes and does not count as a served
    /// request.
    fn shed_expired(&self, request: QueuedRequest) {
        let late = request
            .envelope
            .deadline
            .map(|d| Instant::now().saturating_duration_since(d))
            .unwrap_or_default();
        self.metrics
            .registry
            .incr(self.index, CounterId::ServeDeadlineExpired);
        let _ = request
            .envelope
            .reply
            .send(Err(ServeError::DeadlineExceeded { late }));
    }

    /// Runs one request's [`Session::infer`], with `fault` installed, under
    /// the supervisor's catch.  A panic is recorded and costs one respawn
    /// from the worker's budget: budget permitting, the session is rebuilt
    /// (the unwound pass left its arena and scratch partially written) and
    /// the request fails with [`ServeError::WorkerPanicked`]; an exhausted
    /// budget opens the circuit breaker instead, after which every request
    /// fails with [`ServeError::Abandoned`] without running.
    fn infer_supervised(&mut self, features: &FeatureMatrix, fault: Option<FaultHook>) -> Outcome {
        if self.breaker_open {
            return Err(ServeError::Abandoned {
                reason: RESPAWN_EXHAUSTED,
            });
        }
        let session = &mut self.session;
        let served = catch_unwind(AssertUnwindSafe(|| {
            session.set_fault_hook(fault);
            let served = session.infer(features);
            session.set_fault_hook(None);
            served
        }));
        let payload = match served {
            Ok(served) => return Ok(served?),
            Err(payload) => payload,
        };
        let message = panic_message(payload.as_ref());
        self.metrics.record_failure(message.clone());
        let metrics = &self.metrics.registry;
        metrics.incr(self.index, CounterId::ServeWorkerPanics);
        if self.respawns_left == 0 {
            self.breaker_open = true;
        } else {
            self.respawns_left -= 1;
            metrics.incr(self.index, CounterId::ServeWorkerRespawns);
            self.session.rebuild_after_panic();
        }
        Err(ServeError::WorkerPanicked { message })
    }

    /// Serves one drained request on its own turn and replies to its ticket.
    fn serve(&mut self, request: QueuedRequest) {
        let turn = Instant::now();
        // Drain-mates ahead of it may have taken longer than its budget.
        if request.expired_at(turn) {
            return self.shed_expired(request);
        }
        let QueuedRequest { envelope, features } = request;
        let mut result = self.infer_supervised(&features, envelope.fault);
        let service = turn.elapsed();
        // Session-local indices are meaningless across a pool; stamp the
        // global submission id instead, which is what a serial session would
        // have assigned.
        if let Ok(report) = &mut result {
            report.request_index = envelope.id as usize;
        }

        // Panicked and abandoned tickets never executed to completion, so
        // they stay out of the served-request counts and latency summaries —
        // they are tallied by the supervision counters.
        if !matches!(
            result,
            Err(ServeError::WorkerPanicked { .. }) | Err(ServeError::Abandoned { .. })
        ) {
            let queue_wait = turn.duration_since(envelope.enqueued);
            let metrics = &self.metrics.registry;
            metrics.incr(self.index, CounterId::ServeRequests);
            let micros = |d: Duration| d.as_micros() as u64;
            metrics.observe(self.index, HistogramId::QueueWaitMicros, micros(queue_wait));
            metrics.observe(self.index, HistogramId::ServiceMicros, micros(service));
        }
        // A dropped ticket (caller gave up) is fine; ignore send errors.
        let _ = envelope.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse::{EngineOptions, Planner};
    use dynasparse_graph::Dataset;
    use dynasparse_matrix::DenseMatrix;
    use dynasparse_model::{GnnModel, GnnModelKind};
    use std::sync::{Condvar, Mutex};

    fn plan_fixture() -> (Arc<CompiledPlan>, FeatureMatrix) {
        let ds = Dataset::Cora.spec().generate_scaled(5, 0.08);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            8,
            ds.spec.num_classes,
            2,
        );
        let plan = Planner::new(EngineOptions::default())
            .plan_shared(&model, &ds)
            .unwrap();
        (plan, ds.features)
    }

    /// A hook that poisons its request: it panics mid-forward when kernel
    /// execution index `kernel` runs.
    fn poison(kernel: usize) -> FaultHook {
        Arc::new(move |k| {
            if k == kernel {
                panic!("injected fault at kernel {kernel}");
            }
        })
    }

    #[derive(Default)]
    struct ParkState {
        entered: bool,
        released: bool,
    }

    /// Parks a worker in its request's first kernel until the test releases
    /// it.  The parked worker holds no queue lock, so whatever is submitted
    /// meanwhile stays queued behind it, however the threads are timed.
    #[derive(Default)]
    struct Park {
        state: Mutex<ParkState>,
        changed: Condvar,
    }

    impl Park {
        fn new() -> Arc<Self> {
            Arc::default()
        }

        fn hook(self: &Arc<Self>) -> FaultHook {
            let park = Arc::clone(self);
            Arc::new(move |k| {
                if k == 0 {
                    let mut state = park.state.lock().unwrap();
                    state.entered = true;
                    park.changed.notify_all();
                    drop(park.changed.wait_while(state, |s| !s.released).unwrap());
                }
            })
        }

        /// Submits `features` to `runtime` to park its next free worker here.
        fn submit(self: &Arc<Self>, runtime: &ServeRuntime, features: &FeatureMatrix) -> Ticket {
            runtime
                .try_submit_with_fault(features.clone(), SubmitOptions::default(), self.hook())
                .unwrap()
        }

        /// Blocks until a worker is parked in the hook.
        fn entered(&self) {
            let state = self.state.lock().unwrap();
            drop(self.changed.wait_while(state, |s| !s.entered).unwrap());
        }

        fn release(&self) {
            self.state.lock().unwrap().released = true;
            self.changed.notify_all();
        }
    }

    #[test]
    fn serves_requests_and_reports_metrics() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default().workers(2).max_batch(4),
        );
        let results = runtime.serve_all((0..6).map(|_| features.clone()));
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.is_ok());
        }
        let metrics = Arc::clone(runtime.metrics());
        let report = runtime.shutdown();
        assert_eq!(report.requests, 6);
        assert!(report.batches >= 2, "6 requests, max_batch 4 → ≥ 2 batches");
        assert!(report.throughput_rps > 0.0);
        assert!(report.mean_batch_size() >= 1.0);
        // Each worker counts into its own shard: the per-worker loads.
        let per_worker = metrics.counter_per_shard(CounterId::ServeRequests);
        assert_eq!(per_worker.iter().sum::<u64>(), 6);
        assert_eq!(per_worker[2..], [0; 6], "two workers write two shards");
    }

    #[test]
    fn request_ids_are_submission_order_and_stamped_into_reports() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(plan, ServeConfig::default());
        let t0 = runtime.submit(features.clone()).unwrap();
        let t1 = runtime.submit(features).unwrap();
        assert_eq!((t0.id(), t1.id()), (0, 1));
        assert_eq!(t0.wait().unwrap().request_index, 0);
        assert_eq!(t1.wait().unwrap().request_index, 1);
        runtime.shutdown();
    }

    #[test]
    fn shape_mismatch_is_rejected_at_submission() {
        let (plan, _) = plan_fixture();
        let runtime = ServeRuntime::start(plan, ServeConfig::default());
        let wrong = FeatureMatrix::Dense(DenseMatrix::zeros(3, 5));
        let err = runtime.submit(wrong).unwrap_err();
        assert!(matches!(err, ServeError::Inference(_)));
        let report = runtime.shutdown();
        assert_eq!(report.requests, 0);
    }

    #[test]
    fn try_submit_bounces_when_the_queue_is_full() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .queue_capacity(1),
        );
        // The parked worker holds one request and the queue one more, so
        // the next submission bounces.
        let park = Park::new();
        let parked = park.submit(&runtime, &features);
        park.entered();
        let queued = runtime.try_submit(features.clone()).unwrap();
        match runtime.try_submit(features) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("a full capacity-1 queue must bounce, got {other:?}"),
        }
        park.release();
        assert!(parked.wait().is_ok());
        assert!(queued.wait().is_ok());
        runtime.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(Arc::clone(&plan), ServeConfig::default());
        runtime.queue.close();
        assert!(matches!(
            runtime.submit(features).unwrap_err(),
            ServeError::ShuttingDown
        ));
        runtime.shutdown();
    }

    #[test]
    fn expired_deadline_requests_are_shed_with_typed_error() {
        let (plan, features) = plan_fixture();
        // The first request parks the single worker, so the deadline of the
        // queued second request expires before pickup.
        let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(1).max_batch(1));
        let park = Park::new();
        let healthy = park.submit(&runtime, &features);
        park.entered();
        let doomed = runtime
            .submit_with(
                features,
                SubmitOptions::default().deadline(Duration::from_nanos(1)),
            )
            .unwrap();
        park.release();
        assert!(healthy.wait().is_ok());
        match doomed.wait() {
            Err(ServeError::DeadlineExceeded { late }) => assert!(late > Duration::ZERO),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let report = runtime.shutdown();
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.requests, 1, "the shed request never served");
    }

    #[test]
    fn blocking_submit_deadline_counts_time_blocked_on_a_full_queue() {
        let (plan, features) = plan_fixture();
        let deadline = Duration::from_millis(100);
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .queue_capacity(1),
        );
        // The worker holds the first request in its first kernel for 3x the
        // deadline under test (the test thread itself blocks below, so the
        // hold is timed rather than released); a second request fills the
        // one queue slot, so a third, blocking submission waits out the hold
        // — longer than its deadline.  The queued request is poisoned: it
        // fails fast, so the worker drains the third right after admitting
        // it.
        let hold: FaultHook = Arc::new(move |k| {
            if k == 0 {
                thread::sleep(3 * deadline);
            }
        });
        let parked = runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), hold)
            .unwrap();
        while runtime.queue_depth() > 0 {
            thread::sleep(Duration::from_micros(200));
        }
        let filler = runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(0))
            .unwrap();
        let started = Instant::now();
        let late = runtime
            .submit_with(features, SubmitOptions::default().deadline(deadline))
            .unwrap();
        let blocked = started.elapsed();
        assert!(
            blocked > deadline,
            "fixture must hold the queue full past the deadline, blocked {blocked:?}"
        );
        match late.wait() {
            Err(ServeError::DeadlineExceeded { late }) => assert!(late > Duration::ZERO),
            other => panic!(
                "a deadline spent blocked on backpressure must expire, got {:?}",
                other.map(|report| report.request_index)
            ),
        }
        assert!(parked.wait().is_ok());
        assert!(matches!(
            filler.wait(),
            Err(ServeError::WorkerPanicked { .. })
        ));
        let report = runtime.shutdown();
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn load_shedding_trips_at_high_watermark_with_hysteresis() {
        let (plan, features) = plan_fixture();
        // The parked worker lets depth only grow while we submit; watermark
        // (2, 0) means depth 2 trips shedding and only a fully drained queue
        // resumes.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .queue_capacity(16)
                .shed_watermarks(2, 0),
        );
        let park = Park::new();
        let mut tickets = vec![park.submit(&runtime, &features)];
        park.entered();
        let mut shed = 0;
        for _ in 0..8 {
            match runtime.try_submit(features.clone()) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { depth, watermark }) => {
                    assert_eq!(watermark, 2);
                    assert!(depth >= 1);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(shed, 6, "depth must reach the high watermark and shed");
        park.release();
        for t in tickets {
            t.wait().unwrap();
        }
        // Drained to the low watermark, the gate re-admits.
        assert!(runtime.try_submit(features).unwrap().wait().is_ok());
        let report = runtime.shutdown();
        assert_eq!(report.shed, shed);
    }

    #[test]
    fn a_zero_high_watermark_never_sheds_an_idle_runtime() {
        let (plan, features) = plan_fixture();
        // Through the builder and through the public field alike: a high
        // watermark of 0 clamps to 1, so an empty queue always admits.
        let built = ServeConfig::default().shed_watermarks(0, 0);
        let raw = ServeConfig {
            shed_watermarks: Some((0, 0)),
            ..ServeConfig::default()
        };
        for config in [built, raw] {
            let runtime = ServeRuntime::start(Arc::clone(&plan), config);
            for i in 0..4 {
                match runtime.submit(features.clone()) {
                    Ok(ticket) => assert!(ticket.wait().is_ok()),
                    Err(e) => panic!("submission {i} to an idle runtime: {e}"),
                }
            }
            let report = runtime.shutdown();
            assert_eq!((report.requests, report.shed), (4, 0));
        }
    }

    #[test]
    fn injected_panic_fails_only_its_ticket_and_batch_mates_survive() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default().workers(1).max_batch(4),
        );
        // One poisoned request sandwiched between healthy ones.
        let healthy_before = runtime.submit(features.clone()).unwrap();
        let poisoned = runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(0))
            .unwrap();
        let healthy_after = runtime.submit(features.clone()).unwrap();

        assert!(healthy_before.wait().is_ok());
        match poisoned.wait() {
            Err(ServeError::WorkerPanicked { message }) => {
                assert!(message.contains("injected fault"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(healthy_after.wait().is_ok());

        // The respawned session keeps serving bit-identically.
        let after_respawn = runtime.submit(features).unwrap().wait().unwrap();
        assert!(after_respawn.runs[0].latency_ms > 0.0);

        let report = runtime.shutdown();
        assert!(report.worker_panics >= 1);
        assert!(report.worker_respawns >= 1);
        assert!(
            report
                .worker_failures
                .iter()
                .any(|m| m.contains("injected fault")),
            "panic payload must surface in worker_failures: {:?}",
            report.worker_failures
        );
    }

    #[test]
    fn forty_panics_are_all_counted_and_the_last_sixteen_messages_kept() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .max_worker_respawns(40),
        );
        let tickets: Vec<Ticket> = (0..40)
            .map(|i| {
                let fault: FaultHook = Arc::new(move |_| panic!("poisoned request {i}"));
                // 40 fit the default queue of 64: none bounces.
                runtime
                    .try_submit_with_fault(features.clone(), SubmitOptions::default(), fault)
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            assert!(matches!(
                ticket.wait(),
                Err(ServeError::WorkerPanicked { .. })
            ));
        }
        let report = runtime.shutdown();
        assert_eq!((report.worker_panics, report.worker_respawns), (40, 40));
        let want: Vec<String> = (24..40).map(|i| format!("poisoned request {i}")).collect();
        assert_eq!(report.worker_failures, want);
    }

    #[test]
    fn circuit_breaker_drains_residual_tickets_instead_of_hanging() {
        let (plan, features) = plan_fixture();
        // Budget 0: the first panic opens the breaker; the lone worker must
        // retire AND fail everything still queued.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .max_worker_respawns(0),
        );
        // The open breaker closes the queue, so every residual is enqueued
        // behind a parked warm request before the poisoned one runs.
        let park = Park::new();
        let warm = park.submit(&runtime, &features);
        let poisoned = runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(0))
            .unwrap();
        let queued: Vec<Ticket> = (0..3)
            .map(|_| runtime.submit(features.clone()).unwrap())
            .collect();
        park.release();
        assert!(warm.wait().is_ok());
        // The poisoned ticket names its own panic; only the never-executed
        // residuals are abandoned.
        assert!(matches!(
            poisoned.wait(),
            Err(ServeError::WorkerPanicked { .. })
        ));
        for t in queued {
            assert!(
                matches!(t.wait(), Err(ServeError::Abandoned { .. })),
                "residual tickets must be drained as errors, not hung"
            );
        }
        let report = runtime.shutdown();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.worker_respawns, 0);
    }

    /// A one-worker runtime taking up to four requests per drain, its worker
    /// parked on a warm request: whatever a test submits next is drained
    /// together once the test releases the returned park.
    fn parked_runtime(respawns: usize) -> (ServeRuntime, FeatureMatrix, Ticket, Arc<Park>) {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(4)
                .max_worker_respawns(respawns),
        );
        let park = Park::new();
        let warm = park.submit(&runtime, &features);
        park.entered();
        (runtime, features, warm, park)
    }

    #[test]
    fn a_deadline_that_passes_behind_drain_mates_is_shed_at_its_turn() {
        let (runtime, features, warm, park) = parked_runtime(32);
        // `late` is drained with `ahead` well inside its budget; `ahead` then
        // holds the worker until that budget has run out.
        let budget = Duration::from_millis(200);
        let ahead_park = Park::new();
        let ahead = ahead_park.submit(&runtime, &features);
        let late = runtime
            .submit_with(features, SubmitOptions::default().deadline(budget))
            .unwrap();
        park.release();
        ahead_park.entered();
        thread::sleep(budget);
        ahead_park.release();
        assert!(warm.wait().is_ok());
        assert!(ahead.wait().is_ok());
        match late.wait() {
            Err(ServeError::DeadlineExceeded { late }) => assert!(late > Duration::ZERO),
            other => panic!(
                "a deadline that passed behind a drain-mate must shed, got {:?}",
                other.map(|report| report.request_index)
            ),
        }
        let report = runtime.shutdown();
        assert_eq!(
            report.batch_histogram.last().map(|bar| bar.size),
            Some(2),
            "fixture: `late` must be drained with `ahead`, not shed at pop"
        );
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.requests, 2, "the shed request never executed");
    }

    #[test]
    fn a_poisoned_drain_mate_costs_one_panic_and_one_respawn() {
        // A budget of one respawn: a second charge for the same poisoned
        // request would open the breaker and abandon everything behind it.
        let (runtime, features, warm, park) = parked_runtime(1);
        let before = runtime.submit(features.clone()).unwrap();
        let poisoned = runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), poison(0))
            .unwrap();
        let after = runtime.submit(features.clone()).unwrap();
        park.release();
        assert!(warm.wait().is_ok());
        assert!(before.wait().is_ok());
        assert!(matches!(
            poisoned.wait(),
            Err(ServeError::WorkerPanicked { .. })
        ));
        assert!(after.wait().is_ok(), "a healthy drain-mate must serve");
        assert!(runtime.submit(features).unwrap().wait().is_ok());
        let report = runtime.shutdown();
        assert_eq!(report.batch_histogram.last().map(|bar| bar.size), Some(3));
        assert_eq!((report.worker_panics, report.worker_respawns), (1, 1));
        assert_eq!(report.requests, 4);
    }

    #[test]
    fn each_request_is_answered_when_it_finishes_not_when_its_drain_does() {
        let (runtime, features, warm, park) = parked_runtime(32);
        // The middle of three drain-mates holds the worker in its turn.
        let middle_park = Park::new();
        let first = runtime.submit(features.clone()).unwrap();
        let middle = middle_park.submit(&runtime, &features);
        let last = runtime.submit(features).unwrap();
        park.release();
        assert!(warm.wait().is_ok());
        middle_park.entered();
        // A reply held until the whole drain finishes would never come while
        // `middle` is parked, so the wait for `first` is bounded.
        let hold = Duration::from_millis(100);
        let first_ok = thread::scope(|scope| {
            let (answered, first_reply) = mpsc::channel();
            scope.spawn(move || answered.send(first.wait().is_ok()));
            let first_ok = first_reply.recv_timeout(Duration::from_secs(5));
            thread::sleep(hold);
            middle_park.release();
            first_ok
        });
        assert_eq!(
            first_ok,
            Ok(true),
            "a drain-mate must be answered while a later one is still served"
        );
        assert!(middle.wait().is_ok());
        assert!(last.wait().is_ok());
        let report = runtime.shutdown();
        assert_eq!(report.batch_histogram.last().map(|bar| bar.size), Some(3));
        // Queue wait runs to a request's own turn: the last one waited out
        // the middle one's hold, not just the warm request.
        assert!(
            report.queue_wait.max_ms >= hold.as_secs_f64() * 1e3,
            "{:?}",
            report.queue_wait
        );
    }

    #[test]
    fn priorities_reorder_service_of_a_parked_backlog() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(1).max_batch(1));
        // Park the worker, queue low-priority before high-priority, and
        // record which of the two enters its first kernel first.
        let park = Park::new();
        let warm = park.submit(&runtime, &features);
        park.entered();
        let entered = Arc::new(Mutex::new(Vec::new()));
        let submit = |priority: Priority| {
            let entered = Arc::clone(&entered);
            let record: FaultHook = Arc::new(move |k| {
                if k == 0 {
                    entered.lock().unwrap().push(priority);
                }
            });
            let options = SubmitOptions::default().priority(priority);
            runtime
                .try_submit_with_fault(features.clone(), options, record)
                .unwrap()
        };
        let low = submit(Priority::Low);
        let high = submit(Priority::High);
        park.release();
        assert!(warm.wait().is_ok());
        let high_report = high.wait().unwrap();
        let low_report = low.wait().unwrap();
        assert_eq!(*entered.lock().unwrap(), [Priority::High, Priority::Low]);
        // Submission ids stay submission-ordered even though service
        // reordered.
        assert!(high_report.request_index > low_report.request_index);
        runtime.shutdown();
    }

    #[test]
    fn shutdown_with_deadline_fails_residual_tickets() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(1).max_batch(1));
        // The first request parks the worker; the rest stay queued past the
        // tiny drain budget.  The park is released once the last residual
        // resolves, i.e. once shutdown has abandoned the queue.
        let park = Park::new();
        let parked = park.submit(&runtime, &features);
        park.entered();
        let mut residuals: Vec<Ticket> = (0..3)
            .map(|_| runtime.submit(features.clone()).unwrap())
            .collect();
        let releaser = {
            let (last, park) = (residuals.pop().unwrap(), Arc::clone(&park));
            thread::spawn(move || {
                let outcome = last.wait();
                park.release();
                outcome
            })
        };
        let report = runtime.shutdown_with_deadline(Duration::from_millis(1));
        let mut outcomes: Vec<Outcome> = std::iter::once(parked)
            .chain(residuals)
            .map(Ticket::wait)
            .collect();
        outcomes.push(releaser.join().unwrap());
        // The in-flight request completes; residual queued ones are
        // abandoned — and none hang (wait() returned for all).
        let abandoned = outcomes
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Abandoned { .. })))
            .count();
        assert!(abandoned >= 1, "budget too small to drain 4 requests");
        let served = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(served as u64, report.requests);
        // No ticket may resolve to a hang-proxy (WorkerLost).
        assert!(!outcomes
            .iter_mut()
            .any(|r| matches!(r, Err(ServeError::WorkerLost))));
    }
}
