//! The session manager: admission, ingress queues, dispatch, lifecycle.

use crate::metrics::{ServiceMetrics, SessionMetrics, SessionPhase};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};
use tpdf_core::graph::TpdfGraph;
use tpdf_runtime::executor::ClockMode;
use tpdf_runtime::pool::JobTicket;
use tpdf_runtime::{
    CompiledExecutor, Executor, ExecutorPool, KernelRegistry, Metrics, ProgressSnapshot,
    RunRequest, RuntimeConfig, RuntimeError,
};
use tpdf_trace::{EventKind, Tracer};

/// Identifies one admitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// Identifies one submitted request within its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// What happens when an admission bound is hit: the session limit at
/// [`TpdfService::open_session`], or a full ingress queue at
/// [`TpdfService::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse immediately with an error (and count the rejection in
    /// [`ServiceMetrics`]). The default: a serving layer should shed
    /// load it cannot carry rather than stall its callers.
    #[default]
    Reject,
    /// Block the caller until capacity frees up (a session retires, a
    /// queued request dispatches). Deadline-aware oversubscription
    /// still rejects — waiting cannot make a graph cheaper.
    Block,
}

/// Configuration of a [`TpdfService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the shared pool (all detached OS threads).
    pub threads: usize,
    /// Maximum concurrently admitted (non-retired) sessions.
    pub max_sessions: usize,
    /// Bound of each session's ingress queue (requests waiting beyond
    /// the one in flight).
    pub queue_capacity: usize,
    /// Reject-or-block behaviour at the session limit and on full
    /// ingress queues.
    pub admission: AdmissionPolicy,
    /// Fraction of the pool's processor capacity deadline-aware
    /// admission may hand out (capacity = `threads ×
    /// max_utilization`). 1.0 admits up to nominal full load.
    pub max_utilization: f64,
    /// Structured tracer shared by every session (see [`tpdf_trace`]).
    /// Injected into each admitted session's [`RuntimeConfig`] unless
    /// the session brings its own; the service layer additionally
    /// records session lifecycle events (open, reject, dispatch,
    /// close) and ingress/latency histograms on it. `None` (the
    /// default) leaves tracing fully disabled.
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            max_sessions: 64,
            queue_capacity: 16,
            admission: AdmissionPolicy::default(),
            max_utilization: 1.0,
            tracer: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the pool's worker thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the concurrent-session limit (clamped to ≥ 1).
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions.max(1);
        self
    }

    /// Sets the per-session ingress queue bound (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity.max(1);
        self
    }

    /// Sets the reject-or-block admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the admissible fraction of the pool's processor capacity.
    pub fn with_max_utilization(mut self, max_utilization: f64) -> Self {
        self.max_utilization = max_utilization.max(0.0);
        self
    }

    /// Installs a shared [`Tracer`]: every admitted session records
    /// its executor-level events into it (unless the session's own
    /// [`RuntimeConfig`] already carries a tracer), and the service
    /// adds session lifecycle events and ingress/latency histograms.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// Errors reported by the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The concurrent-session limit was hit under
    /// [`AdmissionPolicy::Reject`].
    SessionLimit {
        /// The configured limit.
        limit: usize,
    },
    /// Deadline-aware admission refused the session: its estimated
    /// processor demand does not fit the remaining capacity.
    Oversubscribed {
        /// The session's estimated demand (cost units per deadline
        /// period).
        demand: f64,
        /// Demand already admitted.
        load: f64,
        /// Total admissible capacity (threads × max utilization).
        capacity: f64,
    },
    /// The session's ingress queue is full under
    /// [`AdmissionPolicy::Reject`].
    Backpressure {
        /// The configured queue bound.
        capacity: usize,
    },
    /// No such session.
    UnknownSession(SessionId),
    /// No such request on that session (or its result was already
    /// taken).
    UnknownRequest(SessionId, RequestId),
    /// The session no longer accepts requests (closed or cancelled).
    SessionClosed(SessionId),
    /// The service is draining and accepts no new work.
    Draining,
    /// The underlying runtime failed (executor construction, or a
    /// failed run surfaced through [`TpdfService::wait`]).
    Runtime(RuntimeError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::SessionLimit { limit } => {
                write!(f, "session limit of {limit} reached")
            }
            ServiceError::Oversubscribed {
                demand,
                load,
                capacity,
            } => write!(
                f,
                "admission refused: demand {demand:.3} does not fit load {load:.3} \
                 of capacity {capacity:.3}"
            ),
            ServiceError::Backpressure { capacity } => {
                write!(f, "ingress queue full (capacity {capacity})")
            }
            ServiceError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServiceError::UnknownRequest(id, req) => {
                write!(f, "unknown request {} on {id}", req.0)
            }
            ServiceError::SessionClosed(id) => write!(f, "{id} is closed"),
            ServiceError::Draining => write!(f, "service is draining"),
            ServiceError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RuntimeError> for ServiceError {
    fn from(value: RuntimeError) -> Self {
        ServiceError::Runtime(value)
    }
}

/// Progress of one session, as reported by [`TpdfService::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Admitted, no queued or running work.
    Idle,
    /// Work outstanding.
    Active {
        /// Requests waiting in the ingress queue.
        queued: usize,
        /// Whether a run is in flight on the pool.
        running: bool,
    },
    /// Closed or cancelled and fully drained; results remain
    /// retrievable.
    Retired,
}

/// A declarative service-level objective attached to a session at
/// admission ([`TpdfService::open_session_with_slo`]). The service
/// stores it verbatim; *evaluation* lives in the operations plane
/// (`tpdf-ops`), which folds each bound against the session's windowed
/// rates into a tri-state health verdict. Every bound is optional —
/// `SloSpec::default()` expresses no objective at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloSpec {
    /// Maximum acceptable deadline misses per completed run over the
    /// evaluation window (e.g. `0.01` = one miss per hundred runs).
    pub max_deadline_miss_rate: Option<f64>,
    /// Upper bound on the p99 run latency (queue exit to completion)
    /// in nanoseconds, checked against the window's
    /// [`tpdf_trace::Log2Histogram`] percentiles.
    pub max_run_latency_p99_ns: Option<u64>,
    /// Minimum sustained token throughput over the window, tokens per
    /// second. Compare against the analysis-side expectation derived
    /// from [`CompiledExecutor::estimated_cost_units`].
    pub min_tokens_per_sec: Option<f64>,
    /// How long the session may go without *any* executor progress
    /// (run start, iteration barrier, run finish) while work is in
    /// flight before the watchdog declares a stall.
    pub stall_budget: Option<Duration>,
    /// Ingress queue depth above which the session counts as
    /// overloaded.
    pub max_queue_depth: Option<usize>,
}

impl SloSpec {
    /// Bounds the windowed deadline-miss rate (misses per run).
    pub fn with_max_deadline_miss_rate(mut self, rate: f64) -> Self {
        self.max_deadline_miss_rate = Some(rate);
        self
    }

    /// Bounds the windowed p99 run latency in nanoseconds.
    pub fn with_max_run_latency_p99_ns(mut self, ns: u64) -> Self {
        self.max_run_latency_p99_ns = Some(ns);
        self
    }

    /// Requires a minimum windowed token throughput.
    pub fn with_min_tokens_per_sec(mut self, rate: f64) -> Self {
        self.min_tokens_per_sec = Some(rate);
        self
    }

    /// Sets the watchdog's no-progress budget.
    pub fn with_stall_budget(mut self, budget: Duration) -> Self {
        self.stall_budget = Some(budget);
        self
    }

    /// Bounds the ingress queue depth.
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = Some(depth);
        self
    }

    /// Whether any bound is set.
    pub fn is_empty(&self) -> bool {
        *self == SloSpec::default()
    }
}

/// Everything an external health evaluator needs to know about one
/// session, in one lock acquisition: the same per-session metrics
/// [`TpdfService::metrics`] reports, plus the analysis-side cost facts,
/// the executor's live progress beacon and the session's [`SloSpec`].
/// Produced by [`TpdfService::inspect_sessions`].
#[derive(Debug, Clone)]
pub struct SessionInspection {
    /// The session's aggregate metrics (identical to the corresponding
    /// [`ServiceMetrics::per_session`] entry).
    pub metrics: SessionMetrics,
    /// Reference cost of one iteration in virtual work units
    /// ([`CompiledExecutor::estimated_cost_units`]).
    pub cost_units: u64,
    /// The session's shortest Clock period, if any
    /// ([`CompiledExecutor::min_clock_period`]).
    pub min_clock_period: Option<u64>,
    /// The session's trace tag (its Chrome "process" id; 0 when
    /// untraced) — lets an incident report filter the flight recorder
    /// down to this session's events.
    pub trace_tag: u32,
    /// The executor's progress beacon: runs started/finished,
    /// iteration barriers crossed, time since the last progress signal.
    pub progress: ProgressSnapshot,
    /// The SLO attached at admission, if any.
    pub slo: Option<SloSpec>,
}

/// One admitted session.
struct SessionEntry {
    compiled: CompiledExecutor,
    registry: KernelRegistry,
    /// The processor share admission charged for this session.
    demand: f64,
    /// Requests accepted but not yet dispatched, in order, each with
    /// its submission instant (for the ingress-queue wait histogram).
    queue: VecDeque<(u64, Instant)>,
    /// The request currently running on the pool. The ticket is `None`
    /// while a dispatcher is submitting the job *outside* the service
    /// lock (pool submission allocates the run's whole ring state —
    /// holding the lock across it would serialise every session's
    /// dispatch and completion on one mutex); see
    /// [`Shared::run_dispatch`] for the installation protocol.
    inflight: Option<(u64, Option<JobTicket>)>,
    /// When the in-flight request left the ingress queue — the start
    /// of the run-latency measurement.
    inflight_since: Option<Instant>,
    /// Finished results awaiting retrieval.
    results: BTreeMap<u64, Result<Metrics, ServiceError>>,
    next_request: u64,
    phase: SessionPhase,
    retired: bool,
    requests_rejected: u64,
    runs_completed: u64,
    runs_failed: u64,
    runs_cancelled: u64,
    firings: u64,
    tokens: u64,
    deadline_misses: u64,
    arena_hits: u64,
    arena_misses: u64,
    /// The SLO attached at admission, reported verbatim through
    /// [`TpdfService::inspect_sessions`] (the service itself never
    /// evaluates it).
    slo: Option<SloSpec>,
}

impl SessionEntry {
    fn idle(&self) -> bool {
        self.inflight.is_none() && self.queue.is_empty()
    }

    /// Files a finished run's result into the session's aggregates and
    /// result map. Returns the `(completed, failed)` deltas for the
    /// service-wide totals (applied by the caller once the entry borrow
    /// ends).
    fn record_result(&mut self, request: u64, result: Result<Metrics, RuntimeError>) -> (u64, u64) {
        match result {
            Ok(metrics) => {
                self.runs_completed += 1;
                self.firings += metrics.firings.iter().sum::<u64>();
                self.tokens += metrics.total_tokens;
                self.deadline_misses += metrics.deadline_misses;
                self.arena_hits += metrics.arena_hits;
                self.arena_misses += metrics.arena_misses;
                self.results.insert(request, Ok(metrics));
                (1, 0)
            }
            Err(error) => {
                self.runs_failed += 1;
                self.results.insert(request, Err(error.into()));
                (0, 1)
            }
        }
    }
}

/// One dispatch popped from a session's ingress queue under the service
/// lock, to be submitted to the pool *outside* it.
struct PendingDispatch {
    session: u64,
    request: u64,
    /// When the request joined the ingress queue.
    submitted: Instant,
    compiled: CompiledExecutor,
    registry: KernelRegistry,
}

#[derive(Default)]
struct Inner {
    sessions: BTreeMap<u64, SessionEntry>,
    next_session: u64,
    /// Σ demand of the non-retired sessions.
    demand: f64,
    draining: bool,
    sessions_admitted: u64,
    sessions_rejected: u64,
    requests_submitted: u64,
    requests_rejected: u64,
    runs_completed: u64,
    runs_failed: u64,
    checkpoints_taken: u64,
    restores: u64,
    migrations: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Notified on every state change: completions, retirements,
    /// dispatches — what blocked admissions and `drain`/`wait` sleep
    /// on. Always through [`Shared::notify`], which also calls the
    /// wakers.
    cond: Condvar,
    /// Wakers registered with [`TpdfService::add_waker`]; dead ones are
    /// dropped whenever the list is walked.
    wakers: Mutex<Vec<Waker>>,
    /// Whether `wakers` is non-empty, so a service nobody watches pays
    /// one load per notification and never takes the wakers lock.
    /// Relaxed: it publishes nothing (the list is read under its lock),
    /// and a registration that happens before a notification is seen
    /// by it through coherence alone.
    has_wakers: AtomicBool,
    config: ServiceConfig,
    /// Source of per-session trace tags (the Chrome "process" ids):
    /// small positive integers, disjoint from the pool's self-assigned
    /// tags (which carry the top bit).
    trace_tags: AtomicU32,
}

/// A state-change callback held weakly: the registrant owns it.
type Waker = Weak<dyn Fn() + Send + Sync>;

impl Shared {
    /// Wakes everything that sleeps on a state change: the condvar's
    /// waiters, then every live registered waker.
    fn notify(&self) {
        self.cond.notify_all();
        if !self.has_wakers.load(Relaxed) {
            return;
        }
        let mut wakers = self.wakers.lock().expect("wakers lock");
        wakers.retain(|waker| waker.upgrade().map(|wake| wake()).is_some());
        self.has_wakers.store(!wakers.is_empty(), Relaxed);
    }

    /// The service tracer, when installed *and* enabled.
    fn trace(&self) -> Option<&Tracer> {
        self.config
            .tracer
            .as_deref()
            .filter(|tracer| tracer.is_enabled())
    }
}

/// A captured, quiescent session: everything needed to re-admit it on
/// this or another [`TpdfService`] in the same process.
///
/// Produced by [`TpdfService::checkpoint_session`] at the session's
/// *request barrier* — the point where no run is in flight and the
/// ingress queue is empty. A run never stops between iteration
/// barriers, so draining the in-flight run *is* draining to the next
/// barrier: the captured state is barrier-consistent by construction.
/// The compiled executor and kernel registry are carried by handle
/// (cheap `Arc` clones) — checkpoints move sessions between services
/// within one process. For byte-exact crash/restart persistence of
/// *runtime* state, compose with the [`tpdf_runtime::Checkpoint`]
/// codec.
pub struct SessionCheckpoint {
    compiled: CompiledExecutor,
    registry: KernelRegistry,
    next_request: u64,
    requests_rejected: u64,
    runs_completed: u64,
    runs_failed: u64,
    runs_cancelled: u64,
    firings: u64,
    tokens: u64,
    deadline_misses: u64,
    arena_hits: u64,
    arena_misses: u64,
    slo: Option<SloSpec>,
}

impl SessionCheckpoint {
    /// The processor share the session will demand at re-admission.
    pub fn demand(&self) -> f64 {
        session_demand(&self.compiled)
    }

    /// Runs the session completed before the checkpoint.
    pub fn runs_completed(&self) -> u64 {
        self.runs_completed
    }

    /// Total firings across the session's completed runs.
    pub fn firings(&self) -> u64 {
        self.firings
    }
}

impl fmt::Debug for SessionCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCheckpoint")
            .field("runs_completed", &self.runs_completed)
            .field("firings", &self.firings)
            .field("demand", &self.demand())
            .finish_non_exhaustive()
    }
}

/// The multi-session streaming service (see the crate docs).
pub struct TpdfService {
    pool: Arc<ExecutorPool>,
    shared: Arc<Shared>,
}

impl fmt::Debug for TpdfService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TpdfService")
            .field("threads", &self.shared.config.threads)
            .field("max_sessions", &self.shared.config.max_sessions)
            .finish()
    }
}

/// The processor share a session demands of the pool: its reference
/// per-iteration cost divided by its shortest Clock deadline period.
/// Sessions without a real-time deadline demand nothing — they have no
/// timeliness contract for admission to protect.
fn session_demand(compiled: &CompiledExecutor) -> f64 {
    match (&compiled.config().clock_mode, compiled.min_clock_period()) {
        (ClockMode::RealTime { .. }, Some(period)) if period > 0 => {
            compiled.estimated_cost_units() as f64 / period as f64
        }
        _ => 0.0,
    }
}

impl TpdfService {
    /// Starts a service: spawns a detached [`ExecutorPool`] of
    /// `config.threads` workers that every session shares.
    pub fn new(config: ServiceConfig) -> Self {
        let pool = Arc::new(ExecutorPool::detached(config.threads.max(1)));
        TpdfService {
            pool,
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner::default()),
                cond: Condvar::new(),
                wakers: Mutex::new(Vec::new()),
                has_wakers: AtomicBool::new(false),
                config,
                trace_tags: AtomicU32::new(0),
            }),
        }
    }

    /// The shared pool (for telemetry inspection — e.g.
    /// [`ExecutorPool::sampled_firing_cost_ns`],
    /// [`ExecutorPool::pinned_cores`]).
    pub fn pool(&self) -> &ExecutorPool {
        &self.pool
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Registers `waker` to be called after every state change that a
    /// blocked [`TpdfService::wait`] or [`TpdfService::drain`] would
    /// observe: a run completing, a request dispatched, a session
    /// closed or cancelled, a drain or migration. This is how a thread
    /// that polls the service with [`TpdfService::try_take`] sleeps
    /// until there is something to take.
    ///
    /// The service keeps only a weak reference: dropping the last
    /// `Arc` unregisters the waker, and dead entries are pruned here
    /// and whenever the wakers are called, so binding and dropping
    /// watchers does not grow the list. The waker runs on whichever
    /// thread made the change (often a pool worker) and must neither
    /// block nor call back into the service.
    pub fn add_waker(&self, waker: &Arc<dyn Fn() + Send + Sync>) {
        let mut wakers = self.shared.wakers.lock().expect("wakers lock");
        wakers.retain(|waker| waker.strong_count() > 0);
        wakers.push(Arc::downgrade(waker));
        self.shared.has_wakers.store(true, Relaxed);
    }

    /// Admits a new session: analyses `graph` under the session's own
    /// `config` (the reference sizing simulation doubles as the cost
    /// estimate), checks the session limit and the deadline-aware
    /// capacity, and registers the session with its kernel `registry`.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::Runtime`] when the executor cannot be built
    ///   (inconsistent graph, incomplete binding, sizing failure);
    /// * [`ServiceError::SessionLimit`] at the session cap under
    ///   [`AdmissionPolicy::Reject`] (blocks under
    ///   [`AdmissionPolicy::Block`]);
    /// * [`ServiceError::Oversubscribed`] when the session's deadline
    ///   demand does not fit the remaining capacity (always a
    ///   rejection);
    /// * [`ServiceError::Draining`] once [`TpdfService::drain`] ran.
    pub fn open_session(
        &self,
        graph: &TpdfGraph,
        config: RuntimeConfig,
        registry: KernelRegistry,
    ) -> Result<SessionId, ServiceError> {
        self.open_session_with_slo(graph, config, registry, None)
    }

    /// [`TpdfService::open_session`] with a service-level objective
    /// attached: the [`SloSpec`] travels with the session (through
    /// checkpoints and migrations included) and is reported by
    /// [`TpdfService::inspect_sessions`] for the operations plane to
    /// evaluate. `None` (or an empty spec) admits without objectives.
    ///
    /// # Errors
    ///
    /// Identical to [`TpdfService::open_session`].
    pub fn open_session_with_slo(
        &self,
        graph: &TpdfGraph,
        mut config: RuntimeConfig,
        registry: KernelRegistry,
        slo: Option<SloSpec>,
    ) -> Result<SessionId, ServiceError> {
        // Thread the service tracer through the session's runtime
        // config (unless the session brings its own), and tag the
        // session so its runs appear as one Chrome trace process.
        if config.tracer.is_none() {
            config.tracer = self.shared.config.tracer.clone();
        }
        if config.trace_tag == 0 && config.tracer.is_some() {
            config.trace_tag = self.shared.trace_tags.fetch_add(1, Relaxed) + 1;
        }
        // Compile outside the service lock: the reference sizing run
        // can be expensive, and it needs no service state. The session
        // gets its *own* firing-cost telemetry (`Executor::new`, not
        // `pool.executor`): one executor serves all the session's runs,
        // so granularity classification still carries across them —
        // without a cheap session's estimate freezing a heavy
        // neighbour's runs at one worker (the pool-wide EWMA is shared
        // across heterogeneous graphs in a multi-tenant service).
        let compiled = Executor::new(graph, config)?.compile();
        self.admit(compiled, registry, None, slo.filter(|s| !s.is_empty()))
    }

    /// The shared admission path of [`TpdfService::open_session`] and
    /// [`TpdfService::restore_session`]: session limit (reject or
    /// block), deadline-aware capacity, entry registration. A restored
    /// session carries its request numbering and aggregates forward.
    fn admit(
        &self,
        compiled: CompiledExecutor,
        registry: KernelRegistry,
        restored: Option<&SessionCheckpoint>,
        slo: Option<SloSpec>,
    ) -> Result<SessionId, ServiceError> {
        let tag = compiled.config().trace_tag;
        let demand = session_demand(&compiled);
        let capacity = self.shared.config.threads as f64 * self.shared.config.max_utilization;

        let mut inner = self.shared.inner.lock().expect("service lock");
        loop {
            if inner.draining {
                return Err(ServiceError::Draining);
            }
            let open = inner.sessions.values().filter(|s| !s.retired).count();
            if open < self.shared.config.max_sessions {
                break;
            }
            match self.shared.config.admission {
                AdmissionPolicy::Reject => {
                    inner.sessions_rejected += 1;
                    if let Some(tracer) = self.shared.trace() {
                        let limit = self.shared.config.max_sessions as u64;
                        tracer.control_event(EventKind::SessionReject, tag, 0, 0, limit);
                    }
                    return Err(ServiceError::SessionLimit {
                        limit: self.shared.config.max_sessions,
                    });
                }
                AdmissionPolicy::Block => {
                    inner = self.shared.cond.wait(inner).expect("service lock");
                }
            }
        }
        if inner.demand + demand > capacity + 1e-9 {
            inner.sessions_rejected += 1;
            if let Some(tracer) = self.shared.trace() {
                tracer.control_event(EventKind::SessionReject, tag, 1, 0, demand as u64);
            }
            return Err(ServiceError::Oversubscribed {
                demand,
                load: inner.demand,
                capacity,
            });
        }
        inner.demand += demand;
        inner.sessions_admitted += 1;
        if restored.is_some() {
            inner.restores += 1;
        }
        let id = inner.next_session;
        inner.next_session += 1;
        inner.sessions.insert(
            id,
            SessionEntry {
                compiled,
                registry,
                demand,
                queue: VecDeque::new(),
                inflight: None,
                inflight_since: None,
                results: BTreeMap::new(),
                next_request: restored.map_or(0, |c| c.next_request),
                phase: SessionPhase::Open,
                retired: false,
                requests_rejected: restored.map_or(0, |c| c.requests_rejected),
                runs_completed: restored.map_or(0, |c| c.runs_completed),
                runs_failed: restored.map_or(0, |c| c.runs_failed),
                runs_cancelled: restored.map_or(0, |c| c.runs_cancelled),
                firings: restored.map_or(0, |c| c.firings),
                tokens: restored.map_or(0, |c| c.tokens),
                deadline_misses: restored.map_or(0, |c| c.deadline_misses),
                arena_hits: restored.map_or(0, |c| c.arena_hits),
                arena_misses: restored.map_or(0, |c| c.arena_misses),
                slo,
            },
        );
        if let Some(tracer) = self.shared.trace() {
            let is_restore = restored.is_some() as u64;
            tracer.control_event(EventKind::SessionOpen, tag, id, is_restore, 0);
        }
        Ok(SessionId(id))
    }

    /// Captures the session at its *request barrier*: waits on the
    /// service condvar until the in-flight run and every queued request
    /// have drained (a run never stops between iteration barriers, so
    /// its completion is the next barrier), then snapshots the
    /// session's executor handle, kernel registry and aggregates into a
    /// [`SessionCheckpoint`]. The session stays admitted and keeps
    /// serving afterwards — use [`TpdfService::migrate_session`] to
    /// move instead of copy.
    ///
    /// Callers should pause submissions while checkpointing: every new
    /// request pushes the barrier further out and prolongs the wait.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id was never admitted;
    /// [`ServiceError::SessionClosed`] when the session has already
    /// retired.
    pub fn checkpoint_session(
        &self,
        session: SessionId,
    ) -> Result<SessionCheckpoint, ServiceError> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        let mut announced = false;
        loop {
            let Some(entry) = inner.sessions.get(&session.0) else {
                return Err(if inner.was_admitted(session.0) {
                    ServiceError::SessionClosed(session)
                } else {
                    ServiceError::UnknownSession(session)
                });
            };
            if entry.retired {
                return Err(ServiceError::SessionClosed(session));
            }
            if !announced {
                announced = true;
                if let Some(tracer) = self.shared.trace() {
                    let tag = entry.compiled.config().trace_tag;
                    let runs = entry.runs_completed;
                    tracer.control_event(EventKind::CheckpointBegin, tag, session.0, 0, runs);
                }
            }
            if entry.idle() {
                break;
            }
            inner = self.shared.cond.wait(inner).expect("service lock");
        }
        let entry = inner
            .sessions
            .get(&session.0)
            .expect("session existence just checked");
        let tag = entry.compiled.config().trace_tag;
        let checkpoint = SessionCheckpoint {
            compiled: entry.compiled.clone(),
            registry: entry.registry.clone(),
            next_request: entry.next_request,
            requests_rejected: entry.requests_rejected,
            runs_completed: entry.runs_completed,
            runs_failed: entry.runs_failed,
            runs_cancelled: entry.runs_cancelled,
            firings: entry.firings,
            tokens: entry.tokens,
            deadline_misses: entry.deadline_misses,
            arena_hits: entry.arena_hits,
            arena_misses: entry.arena_misses,
            slo: entry.slo.clone(),
        };
        inner.checkpoints_taken += 1;
        if let Some(tracer) = self.shared.trace() {
            let runs = checkpoint.runs_completed;
            tracer.control_event(EventKind::CheckpointEnd, tag, session.0, 0, runs);
        }
        Ok(checkpoint)
    }

    /// Re-admits a checkpointed session under this service's full
    /// admission control (session limit, deadline-aware capacity),
    /// carrying its request numbering and aggregates forward. The
    /// restored session gets a fresh [`SessionId`] here; its graph is
    /// *not* re-analysed — the compiled executor travels by handle.
    ///
    /// # Errors
    ///
    /// The admission errors of [`TpdfService::open_session`]:
    /// [`ServiceError::SessionLimit`], [`ServiceError::Oversubscribed`]
    /// and [`ServiceError::Draining`].
    pub fn restore_session(
        &self,
        checkpoint: &SessionCheckpoint,
    ) -> Result<SessionId, ServiceError> {
        self.admit(
            checkpoint.compiled.clone(),
            checkpoint.registry.clone(),
            Some(checkpoint),
            checkpoint.slo.clone(),
        )
    }

    /// Moves a live session onto another service: drains it to its
    /// request barrier ([`TpdfService::checkpoint_session`]), re-admits
    /// the checkpoint on `to` under *its* admission control, and only
    /// then closes and retires the local original — an admission
    /// rejection by the target (session limit, oversubscription,
    /// draining) leaves the source session untouched and serving.
    ///
    /// Unread results of pre-migration requests stay retrievable on the
    /// source under the old id until taken. Kernel state shared through
    /// the registry (e.g. a sink's `OutputCapture`) travels by handle,
    /// so output streams continue seamlessly across the move.
    ///
    /// # Errors
    ///
    /// The checkpoint errors ([`ServiceError::UnknownSession`],
    /// [`ServiceError::SessionClosed`]) and the target's admission
    /// errors ([`ServiceError::SessionLimit`],
    /// [`ServiceError::Oversubscribed`], [`ServiceError::Draining`]).
    pub fn migrate_session(
        &self,
        session: SessionId,
        to: &TpdfService,
    ) -> Result<SessionId, ServiceError> {
        let checkpoint = self.checkpoint_session(session)?;
        let target = to.restore_session(&checkpoint)?;
        let mut inner = self.shared.inner.lock().expect("service lock");
        inner.migrations += 1;
        if let Some(entry) = inner.sessions.get_mut(&session.0) {
            if entry.phase == SessionPhase::Open {
                entry.phase = SessionPhase::Closed;
            }
            let tag = entry.compiled.config().trace_tag;
            if let Some(tracer) = self.shared.trace() {
                tracer.control_event(
                    EventKind::SessionMigrate,
                    tag,
                    session.0,
                    target.0,
                    checkpoint.runs_completed,
                );
            }
        }
        Inner::maybe_retire(&mut inner, session.0);
        drop(inner);
        self.shared.notify();
        Ok(target)
    }

    /// Submits one run of the session's graph (its configured
    /// iterations, binding sequence and clock mode). The request joins
    /// the session's bounded ingress queue and is dispatched to the
    /// pool as soon as the session's previous request finishes;
    /// requests of different sessions run concurrently.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::Backpressure`] on a full ingress queue under
    ///   [`AdmissionPolicy::Reject`] (blocks until space frees under
    ///   [`AdmissionPolicy::Block`]);
    /// * [`ServiceError::UnknownSession`] /
    ///   [`ServiceError::SessionClosed`] / [`ServiceError::Draining`]
    ///   for lifecycle violations.
    pub fn submit(&self, session: SessionId) -> Result<RequestId, ServiceError> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        loop {
            if inner.draining {
                return Err(ServiceError::Draining);
            }
            let Some(entry) = inner.sessions.get(&session.0) else {
                // An evicted (fully retired) session no longer accepts
                // work; an id never handed out is the caller's bug.
                return Err(if inner.was_admitted(session.0) {
                    ServiceError::SessionClosed(session)
                } else {
                    ServiceError::UnknownSession(session)
                });
            };
            if entry.phase != SessionPhase::Open {
                return Err(ServiceError::SessionClosed(session));
            }
            if entry.queue.len() < self.shared.config.queue_capacity {
                break;
            }
            match self.shared.config.admission {
                AdmissionPolicy::Reject => {
                    let entry = inner
                        .sessions
                        .get_mut(&session.0)
                        .expect("session existence just checked");
                    entry.requests_rejected += 1;
                    inner.requests_rejected += 1;
                    return Err(ServiceError::Backpressure {
                        capacity: self.shared.config.queue_capacity,
                    });
                }
                AdmissionPolicy::Block => {
                    inner = self.shared.cond.wait(inner).expect("service lock");
                }
            }
        }
        let entry = inner
            .sessions
            .get_mut(&session.0)
            .expect("session existence just checked");
        let request = entry.next_request;
        entry.next_request += 1;
        entry.queue.push_back((request, Instant::now()));
        let tag = entry.compiled.config().trace_tag;
        inner.requests_submitted += 1;
        if let Some(tracer) = self.shared.trace() {
            tracer.control_event(EventKind::RequestSubmit, tag, session.0, request, 0);
        }
        let pending = inner.begin_dispatch(session.0);
        drop(inner);
        self.shared.notify();
        if let Some(pending) = pending {
            Shared::run_dispatch(&self.shared, &self.pool, pending);
        }
        Ok(RequestId(request))
    }

    /// The session's current status.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id was never admitted.
    pub fn poll(&self, session: SessionId) -> Result<SessionStatus, ServiceError> {
        let inner = self.shared.inner.lock().expect("service lock");
        let Some(entry) = inner.sessions.get(&session.0) else {
            return if inner.was_admitted(session.0) {
                Ok(SessionStatus::Retired)
            } else {
                Err(ServiceError::UnknownSession(session))
            };
        };
        Ok(if entry.retired {
            SessionStatus::Retired
        } else if entry.idle() {
            SessionStatus::Idle
        } else {
            SessionStatus::Active {
                queued: entry.queue.len(),
                running: entry.inflight.is_some(),
            }
        })
    }

    /// Takes the result of a finished request without blocking: `None`
    /// while the request is still queued or running.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id was never admitted.
    pub fn try_take(
        &self,
        session: SessionId,
        request: RequestId,
    ) -> Result<Option<Result<Metrics, ServiceError>>, ServiceError> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        let Some(entry) = inner.sessions.get_mut(&session.0) else {
            // Evicted session: every result was already taken.
            return if inner.was_admitted(session.0) {
                Ok(None)
            } else {
                Err(ServiceError::UnknownSession(session))
            };
        };
        let result = entry.results.remove(&request.0);
        Inner::evict_if_spent(&mut inner, session.0);
        Ok(result)
    }

    /// Blocks until `request` finishes and returns its [`Metrics`]
    /// (each result can be taken once).
    ///
    /// # Errors
    ///
    /// * [`ServiceError::Runtime`] when the run failed (stall, kernel
    ///   error, panic, cancellation);
    /// * [`ServiceError::UnknownRequest`] when the request is not
    ///   outstanding on the session (never submitted, or its result
    ///   was already taken).
    pub fn wait(&self, session: SessionId, request: RequestId) -> Result<Metrics, ServiceError> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        loop {
            let Some(entry) = inner.sessions.get_mut(&session.0) else {
                // Evicted session: nothing is outstanding any more.
                return Err(if inner.was_admitted(session.0) {
                    ServiceError::UnknownRequest(session, request)
                } else {
                    ServiceError::UnknownSession(session)
                });
            };
            if let Some(result) = entry.results.remove(&request.0) {
                Inner::evict_if_spent(&mut inner, session.0);
                return result;
            }
            let outstanding = entry.queue.iter().any(|(r, _)| *r == request.0)
                || entry
                    .inflight
                    .as_ref()
                    .is_some_and(|(r, _)| *r == request.0);
            if !outstanding {
                return Err(ServiceError::UnknownRequest(session, request));
            }
            inner = self.shared.cond.wait(inner).expect("service lock");
        }
    }

    /// Closes the session: no new requests are accepted, the queued
    /// ones still run, and the session retires (releasing its admitted
    /// demand) once drained. Idempotent; cancelled sessions stay
    /// cancelled.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id was never admitted.
    pub fn close(&self, session: SessionId) -> Result<(), ServiceError> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        let Some(entry) = inner.sessions.get_mut(&session.0) else {
            // Evicted sessions are closed by definition; close is
            // idempotent.
            return if inner.was_admitted(session.0) {
                Ok(())
            } else {
                Err(ServiceError::UnknownSession(session))
            };
        };
        if entry.phase == SessionPhase::Open {
            entry.phase = SessionPhase::Closed;
            let tag = entry.compiled.config().trace_tag;
            if let Some(tracer) = self.shared.trace() {
                tracer.control_event(EventKind::SessionClose, tag, session.0, 0, 0);
            }
        }
        Inner::maybe_retire(&mut inner, session.0);
        drop(inner);
        self.shared.notify();
        Ok(())
    }

    /// Cancels the session: queued requests are dropped (their results
    /// resolve to [`RuntimeError::Cancelled`]), the in-flight run — if
    /// any — is halted at its next scheduling point, and the session
    /// retires. Idempotent.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id was never admitted.
    pub fn cancel(&self, session: SessionId) -> Result<(), ServiceError> {
        let ticket = {
            let mut inner = self.shared.inner.lock().expect("service lock");
            let Some(entry) = inner.sessions.get_mut(&session.0) else {
                // Evicted sessions have nothing left to cancel; cancel
                // is idempotent.
                return if inner.was_admitted(session.0) {
                    Ok(())
                } else {
                    Err(ServiceError::UnknownSession(session))
                };
            };
            let was_cancelled = entry.phase == SessionPhase::Cancelled;
            entry.phase = SessionPhase::Cancelled;
            let tag = entry.compiled.config().trace_tag;
            let dropped: Vec<u64> = entry.queue.drain(..).map(|(r, _)| r).collect();
            entry.runs_cancelled += dropped.len() as u64;
            for request in dropped {
                entry
                    .results
                    .insert(request, Err(RuntimeError::Cancelled.into()));
            }
            // The in-flight run (if any) is *not* recorded here: its
            // job is halted below and the completion callback — the
            // single recorder — files the actual outcome, which is
            // `Err(Cancelled)` for a halted run but `Ok(Metrics)` for a
            // run that won the race and completed (the engine's cancel
            // never overwrites a finished run's result, and reporting
            // it cancelled would drop produced data). A ticketless
            // placeholder stays put: the dispatcher observes the
            // cancelled phase when installing and halts its fresh job
            // itself.
            let ticket = entry
                .inflight
                .as_ref()
                .and_then(|(_, ticket)| ticket.clone());
            if !was_cancelled {
                if let Some(tracer) = self.shared.trace() {
                    tracer.control_event(EventKind::SessionClose, tag, session.0, 1, 0);
                }
            }
            Inner::maybe_retire(&mut inner, session.0);
            ticket
        };
        // Outside the service lock: cancel may finalise the job inline
        // and fire its completion callback, which re-locks the service.
        if let Some(ticket) = ticket {
            ticket.cancel();
        }
        self.shared.notify();
        Ok(())
    }

    /// Gracefully drains the service: stops accepting sessions and
    /// requests, waits for every queued and in-flight run to finish,
    /// and reports the final aggregated [`ServiceMetrics`]. Results of
    /// finished requests remain retrievable afterwards.
    pub fn drain(&self) -> ServiceMetrics {
        let mut inner = self.shared.inner.lock().expect("service lock");
        inner.draining = true;
        // Admissions parked under `AdmissionPolicy::Block` must wake to
        // observe the drain and error out — nothing else will ever
        // notify them on an idle service.
        self.shared.notify();
        while inner.sessions.values().any(|s| !s.idle()) {
            inner = self.shared.cond.wait(inner).expect("service lock");
        }
        Self::snapshot(&inner, &self.shared.config)
    }

    /// A point-in-time [`ServiceMetrics`] snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let inner = self.shared.inner.lock().expect("service lock");
        Self::snapshot(&inner, &self.shared.config)
    }

    /// Everything an external health evaluator needs, per session, in
    /// one lock acquisition: metrics, analysis-side cost facts, the
    /// executor's progress beacon and the attached [`SloSpec`].
    /// Includes retired-but-unread sessions (they still appear in
    /// [`ServiceMetrics::per_session`] and their terminal health is
    /// still reportable); evicted sessions are gone.
    pub fn inspect_sessions(&self) -> Vec<SessionInspection> {
        let inner = self.shared.inner.lock().expect("service lock");
        inner
            .sessions
            .iter()
            .map(|(&id, s)| SessionInspection {
                metrics: Self::session_metrics(id, s),
                cost_units: s.compiled.estimated_cost_units(),
                min_clock_period: s.compiled.min_clock_period(),
                trace_tag: s.compiled.config().trace_tag,
                progress: s.compiled.progress(),
                slo: s.slo.clone(),
            })
            .collect()
    }

    fn session_metrics(id: u64, s: &SessionEntry) -> SessionMetrics {
        SessionMetrics {
            id: SessionId(id),
            phase: s.phase,
            retired: s.retired,
            queue_depth: s.queue.len(),
            running: s.inflight.is_some(),
            demand: s.demand,
            runs_completed: s.runs_completed,
            runs_failed: s.runs_failed,
            runs_cancelled: s.runs_cancelled,
            requests_rejected: s.requests_rejected,
            firings: s.firings,
            tokens: s.tokens,
            deadline_misses: s.deadline_misses,
            arena_hits: s.arena_hits,
            arena_misses: s.arena_misses,
        }
    }

    fn snapshot(inner: &Inner, config: &ServiceConfig) -> ServiceMetrics {
        ServiceMetrics {
            sessions_admitted: inner.sessions_admitted,
            sessions_rejected: inner.sessions_rejected,
            requests_submitted: inner.requests_submitted,
            requests_rejected: inner.requests_rejected,
            runs_completed: inner.runs_completed,
            runs_failed: inner.runs_failed,
            checkpoints_taken: inner.checkpoints_taken,
            restores: inner.restores,
            migrations: inner.migrations,
            active_sessions: inner.sessions.values().filter(|s| !s.retired).count(),
            queued_requests: inner.sessions.values().map(|s| s.queue.len()).sum(),
            demand: inner.demand,
            capacity: config.threads as f64 * config.max_utilization,
            per_session: inner
                .sessions
                .iter()
                .map(|(&id, s)| Self::session_metrics(id, s))
                .collect(),
        }
    }
}

impl Inner {
    /// Whether `session` was admitted at some point: ids are handed out
    /// monotonically, so an id below the counter that is no longer in
    /// the table belongs to a retired-and-evicted session, not to a
    /// typo.
    fn was_admitted(&self, session: u64) -> bool {
        session < self.next_session
    }

    /// Retires a drained closed/cancelled session: releases its
    /// admitted demand exactly once, then evicts the entry as soon as
    /// every result has been taken — a service living through millions
    /// of sessions must not grow its table with the dead ones.
    fn maybe_retire(inner: &mut Inner, session: u64) {
        let Some(entry) = inner.sessions.get_mut(&session) else {
            return;
        };
        if !entry.retired {
            if entry.phase == SessionPhase::Open || !entry.idle() {
                return;
            }
            entry.retired = true;
            inner.demand -= entry.demand;
            if inner.demand < 0.0 {
                inner.demand = 0.0;
            }
        }
        Inner::evict_if_spent(inner, session);
    }

    /// Drops a retired session whose results were all taken. Called
    /// after retirement and after every result retrieval.
    fn evict_if_spent(inner: &mut Inner, session: u64) {
        if inner
            .sessions
            .get(&session)
            .is_some_and(|entry| entry.retired && entry.results.is_empty())
        {
            inner.sessions.remove(&session);
        }
    }
}

impl Inner {
    /// Pops the session's next dispatchable request and marks it in
    /// flight with a *placeholder* ticket (`None`). The returned work
    /// is submitted to the pool outside the service lock by
    /// [`Shared::run_dispatch`]. Must hold the service lock.
    fn begin_dispatch(&mut self, session: u64) -> Option<PendingDispatch> {
        let entry = self.sessions.get_mut(&session)?;
        if entry.inflight.is_some() || entry.phase == SessionPhase::Cancelled {
            return None;
        }
        let (request, submitted) = entry.queue.pop_front()?;
        entry.inflight = Some((request, None));
        entry.inflight_since = Some(Instant::now());
        Some(PendingDispatch {
            session,
            request,
            submitted,
            compiled: entry.compiled.clone(),
            registry: entry.registry.clone(),
        })
    }
}

impl Shared {
    /// Submits pending dispatches to the pool, *outside* the service
    /// lock (pool submission sizes and allocates the run's entire ring
    /// state). Installation protocol: the placeholder `(request, None)`
    /// set by [`Inner::begin_dispatch`] reserves the in-flight slot; we
    /// submit, re-lock and install the ticket.
    ///
    /// Two races are handled here:
    ///
    /// * the session was cancelled (or evicted) while we submitted —
    ///   the placeholder is gone, so the fresh job is cancelled and its
    ///   result dropped (the cancellation already recorded it);
    /// * the job *outran* the installation — its completion callback
    ///   found a ticketless placeholder and left recording to us
    ///   ([`Shared::on_job_complete`]), so after installing a finished
    ///   ticket we record the completion ourselves, which may begin the
    ///   session's next dispatch: hence the loop.
    fn run_dispatch(shared: &Arc<Shared>, pool: &Arc<ExecutorPool>, mut pending: PendingDispatch) {
        loop {
            let (session, request) = (pending.session, pending.request);
            if let Some(tracer) = shared.trace() {
                let waited = pending.submitted.elapsed().as_nanos() as u64;
                tracer.histograms().queue_wait_ns.record(waited);
                tracer.control_event(
                    EventKind::SessionDispatch,
                    pending.compiled.config().trace_tag,
                    session,
                    request,
                    waited,
                );
            }
            let callback_shared = Arc::clone(shared);
            let callback_pool = Arc::clone(pool);
            let on_complete = Box::new(move || {
                Shared::on_job_complete(&callback_shared, &callback_pool, session, request);
            });
            let ticket = pool.submit(
                &pending.compiled,
                &pending.registry,
                RunRequest::default(),
                Some(on_complete),
            );
            let mut inner = shared.inner.lock().expect("service lock");
            let placeholder_ok = inner.sessions.get(&session).is_some_and(|entry| {
                entry
                    .inflight
                    .as_ref()
                    .is_some_and(|(r, t)| *r == request && t.is_none())
            });
            if !placeholder_ok {
                // The session was evicted while we were submitting: the
                // orphan job is halted and its result dropped.
                drop(inner);
                ticket.cancel();
                shared.notify();
                return;
            }
            let entry = inner
                .sessions
                .get_mut(&session)
                .expect("placeholder existence just checked");
            // A cancellation that raced this dispatch left the
            // placeholder for us: install, then halt the job so its
            // completion callback records the cancellation (or the
            // real result, if the run wins the race).
            let halt_handle = (entry.phase == SessionPhase::Cancelled).then(|| ticket.clone());
            let finished = ticket.is_finished();
            entry.inflight = Some((request, Some(ticket)));
            let next = if finished {
                // The job completed before the ticket was installed;
                // its callback deferred to us (see on_job_complete).
                Shared::record_completion(shared, &mut inner, session, request)
            } else {
                None
            };
            drop(inner);
            shared.notify();
            if let Some(handle) = halt_handle {
                handle.cancel();
            }
            match next {
                Some(next) => pending = next,
                None => return,
            }
        }
    }

    /// Records the finished in-flight `request`, begins the session's
    /// next dispatch and retires the session if drained. Returns the
    /// pending dispatch to run outside the lock. No-ops (returning
    /// `None`) when the in-flight slot does not hold this request with
    /// an installed ticket — a cancellation got there first, or the
    /// ticket is still being installed. Must hold the service lock.
    fn record_completion(
        shared: &Shared,
        inner: &mut Inner,
        session: u64,
        request: u64,
    ) -> Option<PendingDispatch> {
        let entry = inner.sessions.get_mut(&session)?;
        let (inflight_request, maybe_ticket) = entry.inflight.take()?;
        if inflight_request != request {
            entry.inflight = Some((inflight_request, maybe_ticket));
            return None;
        }
        let Some(ticket) = maybe_ticket else {
            // Our ticket is still being installed by run_dispatch; put
            // the placeholder back — the installer observes the
            // finished ticket and records through this same path.
            entry.inflight = Some((inflight_request, None));
            return None;
        };
        let result = ticket
            .try_take()
            .unwrap_or(Err(RuntimeError::Cancelled))
            .map(|outcome| outcome.metrics);
        if let Some(tracer) = shared.trace() {
            let latency = entry
                .inflight_since
                .map(|since| since.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            tracer.histograms().run_latency_ns.record(latency);
            tracer.control_event(
                EventKind::RunComplete,
                entry.compiled.config().trace_tag,
                session,
                request,
                latency,
            );
        }
        entry.inflight_since = None;
        // A cancelled session's halted runs are accounted as
        // cancellations, not failures; every other outcome — including
        // an `Ok` that won the race against the cancel — is recorded
        // as the run's real result.
        let (completed, failed) = if entry.phase == SessionPhase::Cancelled
            && matches!(result, Err(RuntimeError::Cancelled))
        {
            entry.runs_cancelled += 1;
            entry
                .results
                .insert(request, Err(RuntimeError::Cancelled.into()));
            (0, 0)
        } else {
            entry.record_result(request, result)
        };
        inner.runs_completed += completed;
        inner.runs_failed += failed;
        let pending = inner.begin_dispatch(session);
        Inner::maybe_retire(inner, session);
        pending
    }

    /// Pool-side completion hook: records the finished run, dispatches
    /// the session's next request, retires drained sessions and wakes
    /// every waiter. Runs on a pool worker thread with no pool lock
    /// held.
    fn on_job_complete(shared: &Arc<Shared>, pool: &Arc<ExecutorPool>, session: u64, request: u64) {
        let pending = {
            let mut inner = shared.inner.lock().expect("service lock");
            Shared::record_completion(shared, &mut inner, session, request)
        };
        shared.notify();
        if let Some(pending) = pending {
            Shared::run_dispatch(shared, pool, pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tpdf_core::actors::KernelKind;
    use tpdf_core::examples::figure2_graph;
    use tpdf_core::rate::RateSeq;
    use tpdf_runtime::Token;
    use tpdf_symexpr::Binding;

    fn binding(p: i64) -> Binding {
        Binding::from_pairs([("p", p)])
    }

    /// A graph whose Transaction is driven by a Clock (deadline) and
    /// whose kernels carry `work` units of execution time per firing.
    fn deadline_graph(work: u64, period: u64) -> TpdfGraph {
        TpdfGraph::builder()
            .kernel_with("src", KernelKind::Regular, work)
            .kernel_with("proc", KernelKind::Regular, work)
            .kernel_with("clock", KernelKind::Clock { period }, 0)
            .kernel_with("tran", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel("snk")
            .channel("src", "proc", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel(
                "proc",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
            )
            .control_channel("clock", "tran", RateSeq::constant(1), RateSeq::constant(1))
            .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0)
            .build()
            .unwrap()
    }

    #[test]
    fn sessions_run_and_aggregate_metrics() {
        let service = TpdfService::new(ServiceConfig::default().with_threads(2));
        let graph = figure2_graph();
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(2))
                    .with_threads(2)
                    .with_iterations(3),
                KernelRegistry::new(),
            )
            .unwrap();
        let r1 = service.submit(session).unwrap();
        let r2 = service.submit(session).unwrap();
        let m1 = service.wait(session, r1).unwrap();
        let m2 = service.wait(session, r2).unwrap();
        assert_eq!(m1.iterations, 3);
        assert_eq!(m1.firings, m2.firings);
        assert_eq!(service.poll(session).unwrap(), SessionStatus::Idle);
        let report = service.metrics();
        assert_eq!(report.runs_completed, 2);
        let per = report.session(session).unwrap();
        assert_eq!(per.runs_completed, 2);
        assert_eq!(
            per.firings,
            2 * m1.firings.iter().sum::<u64>(),
            "per-session firings aggregate over the session's runs"
        );
        assert!(per.tokens > 0);
    }

    #[test]
    fn session_limit_rejects_and_counts() {
        let service = TpdfService::new(
            ServiceConfig::default()
                .with_threads(1)
                .with_max_sessions(2),
        );
        let graph = figure2_graph();
        let config = || RuntimeConfig::new(binding(1)).with_threads(1);
        let a = service
            .open_session(&graph, config(), KernelRegistry::new())
            .unwrap();
        service
            .open_session(&graph, config(), KernelRegistry::new())
            .unwrap();
        let refused = service.open_session(&graph, config(), KernelRegistry::new());
        assert_eq!(refused, Err(ServiceError::SessionLimit { limit: 2 }));
        assert_eq!(service.metrics().sessions_rejected, 1);

        // Retiring a session frees a slot.
        service.close(a).unwrap();
        assert_eq!(service.poll(a).unwrap(), SessionStatus::Retired);
        service
            .open_session(&graph, config(), KernelRegistry::new())
            .unwrap();
    }

    #[test]
    fn deadline_demand_admission_refuses_oversubscription() {
        // Each session demands cost/period = (2·10 + 3·1)/30 ≈ 0.77 of
        // a 1-thread pool (the clock, transaction and sink each carry
        // the floor execution time of 1): the first fits, the second
        // would oversubscribe.
        let service = TpdfService::new(ServiceConfig::default().with_threads(1));
        let graph = deadline_graph(10, 30);
        let config = || {
            RuntimeConfig::new(Binding::new())
                .with_threads(1)
                .with_real_time(Duration::from_micros(50))
        };
        service
            .open_session(&graph, config(), KernelRegistry::new())
            .unwrap();
        let refused = service.open_session(&graph, config(), KernelRegistry::new());
        assert!(
            matches!(refused, Err(ServiceError::Oversubscribed { .. })),
            "second 0.7-demand session must not fit one worker: {refused:?}"
        );
        let report = service.metrics();
        assert_eq!(report.sessions_rejected, 1);
        assert!(
            (report.demand - 23.0 / 30.0).abs() < 1e-9,
            "{}",
            report.demand
        );

        // A virtual-clock session of the same graph demands nothing.
        service
            .open_session(
                &graph,
                RuntimeConfig::new(Binding::new()).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
    }

    #[test]
    fn ingress_backpressure_rejects_on_full_queue() {
        let service = TpdfService::new(
            ServiceConfig::default()
                .with_threads(1)
                .with_queue_capacity(1),
        );
        let graph = figure2_graph();
        // A slow kernel keeps the first request in flight while the
        // queue fills behind it.
        let mut registry = KernelRegistry::new();
        registry.register_fn("B", |ctx| {
            std::thread::sleep(Duration::from_millis(20));
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(1)).with_threads(1),
                registry,
            )
            .unwrap();
        let first = service.submit(session).unwrap();
        // One request rides in flight, one sits in the queue; the next
        // submit must hit backpressure.
        let mut rejected = false;
        let mut accepted = vec![first];
        for _ in 0..3 {
            match service.submit(session) {
                Ok(request) => accepted.push(request),
                Err(ServiceError::Backpressure { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected, "the bounded queue must push back");
        assert!(service.metrics().requests_rejected >= 1);
        for request in accepted {
            service.wait(session, request).unwrap();
        }
    }

    #[test]
    fn blocking_admission_waits_for_capacity() {
        let service = Arc::new(TpdfService::new(
            ServiceConfig::default()
                .with_threads(1)
                .with_max_sessions(1)
                .with_admission(AdmissionPolicy::Block),
        ));
        let graph = figure2_graph();
        let first = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(1)).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
        let opener = {
            let service = Arc::clone(&service);
            let graph = graph.clone();
            std::thread::spawn(move || {
                service.open_session(
                    &graph,
                    RuntimeConfig::new(binding(1)).with_threads(1),
                    KernelRegistry::new(),
                )
            })
        };
        // Give the opener time to block, then free the slot.
        std::thread::sleep(Duration::from_millis(20));
        service.close(first).unwrap();
        let second = opener.join().unwrap().unwrap();
        assert_ne!(second, first);
    }

    #[test]
    fn drain_wakes_admissions_blocked_at_the_session_limit() {
        let service = Arc::new(TpdfService::new(
            ServiceConfig::default()
                .with_threads(1)
                .with_max_sessions(1)
                .with_admission(AdmissionPolicy::Block),
        ));
        let graph = figure2_graph();
        service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(1)).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
        let blocked = {
            let service = Arc::clone(&service);
            let graph = graph.clone();
            std::thread::spawn(move || {
                service.open_session(
                    &graph,
                    RuntimeConfig::new(binding(1)).with_threads(1),
                    KernelRegistry::new(),
                )
            })
        };
        // Let the opener park on the full session table, then drain:
        // nothing else will ever notify it on an idle service.
        std::thread::sleep(Duration::from_millis(20));
        service.drain();
        assert_eq!(blocked.join().unwrap(), Err(ServiceError::Draining));
    }

    #[test]
    fn cancel_drops_queue_and_halts_inflight() {
        let service = TpdfService::new(ServiceConfig::default().with_threads(1));
        let graph = figure2_graph();
        let mut registry = KernelRegistry::new();
        registry.register_fn("B", |ctx| {
            std::thread::sleep(Duration::from_millis(5));
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(2))
                    .with_threads(1)
                    .with_iterations(50),
                registry,
            )
            .unwrap();
        let running = service.submit(session).unwrap();
        let queued = service.submit(session).unwrap();
        service.cancel(session).unwrap();
        // The queued request is recorded synchronously; the in-flight
        // one by its completion callback once the halt lands. Both
        // count as cancellations while their results are still unread
        // (the session cannot be evicted before they are taken).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let cancelled = service
                .metrics()
                .session(session)
                .expect("unread results pin the session")
                .runs_cancelled;
            if cancelled == 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "both runs must record as cancelled, got {cancelled}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for request in [running, queued] {
            assert_eq!(
                service.wait(session, request),
                Err(ServiceError::Runtime(RuntimeError::Cancelled)),
                "request {request:?}"
            );
        }
        // The session retires (immediately or as soon as the halted
        // in-flight run drains off the pool), then — all results taken
        // — is evicted, still reported `Retired` by id.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.poll(session).unwrap() != SessionStatus::Retired {
            assert!(std::time::Instant::now() < deadline, "session must retire");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.submit(session).is_err(), "no submits after cancel");
        let report = service.drain();
        assert_eq!(report.runs_completed, 0);
    }

    #[test]
    fn spent_retired_sessions_are_evicted_but_stay_addressable() {
        let service = TpdfService::new(ServiceConfig::default().with_threads(1));
        let graph = figure2_graph();
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(1)).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
        let request = service.submit(session).unwrap();
        service.wait(session, request).unwrap();
        service.close(session).unwrap();
        // Retired with no unread results → evicted from the table…
        assert!(service.metrics().per_session.is_empty());
        // …but its id keeps answering sensibly (not UnknownSession).
        assert_eq!(service.poll(session).unwrap(), SessionStatus::Retired);
        assert_eq!(service.try_take(session, request).unwrap(), None);
        assert_eq!(
            service.submit(session),
            Err(ServiceError::SessionClosed(session))
        );
        assert_eq!(service.close(session), Ok(()));
        assert_eq!(service.cancel(session), Ok(()));
        // Totals keep counting the evicted session's work.
        let report = service.metrics();
        assert_eq!(report.runs_completed, 1);
        assert_eq!(report.sessions_admitted, 1);
        assert_eq!(report.active_sessions, 0);
    }

    #[test]
    fn drain_finishes_outstanding_work_and_blocks_new() {
        let service = TpdfService::new(ServiceConfig::default().with_threads(2));
        let graph = figure2_graph();
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(2)).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
        for _ in 0..4 {
            service.submit(session).unwrap();
        }
        let report = service.drain();
        assert_eq!(report.runs_completed, 4);
        assert_eq!(report.queued_requests, 0);
        assert_eq!(service.submit(session), Err(ServiceError::Draining));
        assert!(matches!(
            service.open_session(
                &graph,
                RuntimeConfig::new(binding(1)),
                KernelRegistry::new()
            ),
            Err(ServiceError::Draining)
        ));
    }

    #[test]
    fn checkpoint_restore_and_migrate_carry_session_state() {
        let source = TpdfService::new(ServiceConfig::default().with_threads(1));
        let target = TpdfService::new(ServiceConfig::default().with_threads(1));
        let graph = figure2_graph();
        let session = source
            .open_session(
                &graph,
                RuntimeConfig::new(binding(2))
                    .with_threads(1)
                    .with_iterations(2),
                KernelRegistry::new(),
            )
            .unwrap();
        let first = source.submit(session).unwrap();
        source.wait(session, first).unwrap();

        let checkpoint = source.checkpoint_session(session).unwrap();
        assert_eq!(checkpoint.runs_completed(), 1);
        assert!(checkpoint.firings() > 0);

        // A restore on the same service is a copy under admission.
        let copy = source.restore_session(&checkpoint).unwrap();
        assert_ne!(copy, session);

        // Migration moves the original: retired here, serving there.
        let moved = source.migrate_session(session, &target).unwrap();
        assert_eq!(source.poll(session).unwrap(), SessionStatus::Retired);
        assert_eq!(
            source.submit(session),
            Err(ServiceError::SessionClosed(session))
        );
        let next = target.submit(moved).unwrap();
        let metrics = target.wait(moved, next).unwrap();
        assert_eq!(metrics.iterations, 2);
        // Request numbering continues across the move (one request ran
        // before the checkpoint).
        assert_eq!(next, RequestId(1));

        let s = source.metrics();
        assert_eq!(s.checkpoints_taken, 2, "explicit + the migration's");
        assert_eq!(s.restores, 1);
        assert_eq!(s.migrations, 1);
        let t = target.metrics();
        assert_eq!(t.restores, 1);
        assert_eq!(t.migrations, 0);
        assert_eq!(
            t.session(moved).unwrap().runs_completed,
            2,
            "aggregates carry: one run before the move, one after"
        );
    }

    #[test]
    fn migration_rejected_by_target_leaves_source_serving() {
        let source = TpdfService::new(ServiceConfig::default().with_threads(1));
        let target = TpdfService::new(
            ServiceConfig::default()
                .with_threads(1)
                .with_max_sessions(1),
        );
        let graph = figure2_graph();
        let config = || RuntimeConfig::new(binding(1)).with_threads(1);
        target
            .open_session(&graph, config(), KernelRegistry::new())
            .unwrap();
        let session = source
            .open_session(&graph, config(), KernelRegistry::new())
            .unwrap();
        let refused = source.migrate_session(session, &target);
        assert_eq!(refused, Err(ServiceError::SessionLimit { limit: 1 }));
        // The source session is untouched and keeps serving.
        let request = source.submit(session).unwrap();
        source.wait(session, request).unwrap();
        assert_eq!(source.metrics().migrations, 0);
        assert_eq!(target.metrics().restores, 0);
    }

    #[test]
    fn wakers_fire_on_completion_and_are_held_weakly() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        let service = TpdfService::new(ServiceConfig::default().with_threads(1));
        // Watchers bound and dropped leave nothing behind.
        let dropped_calls = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let calls = Arc::clone(&dropped_calls);
            let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                calls.fetch_add(1, Relaxed);
            });
            service.add_waker(&waker);
        }
        let (tx, rx) = mpsc::channel();
        let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            let _ = tx.send(());
        });
        service.add_waker(&waker);
        assert_eq!(service.shared.wakers.lock().unwrap().len(), 1);

        // A poller that sleeps only on the waker still sees the result.
        let graph = figure2_graph();
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(2)).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
        let request = service.submit(session).unwrap();
        let metrics = loop {
            if let Some(result) = service.try_take(session, request).unwrap() {
                break result.unwrap();
            }
            rx.recv_timeout(Duration::from_secs(10))
                .expect("the completion must call the waker");
        };
        assert_eq!(metrics.firings, vec![2, 4, 2, 2, 4, 4]);
        assert_eq!(dropped_calls.load(Relaxed), 0, "a dropped waker ran");

        drop(waker);
        service.close(session).unwrap();
        assert!(service.shared.wakers.lock().unwrap().is_empty());
        assert!(!service.shared.has_wakers.load(Relaxed));
    }

    #[test]
    fn unknown_ids_are_reported() {
        let service = TpdfService::new(ServiceConfig::default().with_threads(1));
        let ghost = SessionId(42);
        assert_eq!(
            service.poll(ghost),
            Err(ServiceError::UnknownSession(ghost))
        );
        let graph = figure2_graph();
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(1)).with_threads(1),
                KernelRegistry::new(),
            )
            .unwrap();
        let request = service.submit(session).unwrap();
        service.wait(session, request).unwrap();
        // Taken once; a second wait reports the request unknown.
        assert_eq!(
            service.wait(session, request),
            Err(ServiceError::UnknownRequest(session, request))
        );
    }
}
