//! A persistent worker pool — the one way to run a graph.
//!
//! Every run is one [`RunRequest`] handed to [`ExecutorPool::submit`]:
//! start from the initial state or resume a
//! [`Checkpoint`](crate::checkpoint::Checkpoint), fire to the final
//! iteration barrier, optionally cut a checkpoint there. `submit`
//! queues the job and returns a [`JobTicket`], which is polled
//! ([`JobTicket::try_take`]), awaited ([`JobTicket::wait`]) or
//! cancelled ([`JobTicket::cancel`]). A blocking run is
//! `submit(..).wait()`: the waiting thread lends itself as a
//! participant while a slot is free, so a pool built with
//! [`ExecutorPool::new`] runs an N-worker job on `N - 1` spawned
//! threads plus the caller, and a 1-worker job on the caller alone.
//! [`crate::executor::Executor::run`] and its two checkpoint wrappers
//! are exactly that, on a pool sized for the one call. A pool built
//! with [`ExecutorPool::detached`] owns all its workers and needs no
//! caller — the substrate of `tpdf-service`'s multi-session layer: many
//! graph instances share one pool, each with its own isolated
//! `RunState`, metrics and panic containment.
//!
//! The pool also owns the firing-cost telemetry
//! ([`crate::executor::Executor::sampled_firing_cost_ns`]'s EWMA):
//! executors built through [`ExecutorPool::executor`] share it, so the
//! granularity classification learned in one run — "this graph is too
//! fine-grained to distribute" — survives into the next run *and* into
//! the next executor. (A multi-tenant service instead gives each
//! session its own telemetry via [`Executor::new`], so heterogeneous
//! graphs cannot pollute each other's estimates.)
//!
//! ## Job slot table
//!
//! One mutex-guarded queue holds every job still accepting
//! participants. A job has `workers` participation slots (its
//! `RunState` is sized accordingly) and a *participant count* of at
//! most that many: [`ExecutorPool::submit`] sets it, and from then on
//! only the job's iteration barrier changes it. Idle pool workers
//! *hunt* the queue in FIFO order and claim the next participation
//! index of the first job whose `joined` count is below its
//! participant count. A job runs correctly with **any** non-empty
//! subset of its participants — readiness hunting, stealing and stall
//! detection are all worker-count-agnostic — so a job never waits for
//! its full complement; late workers simply join a run in progress,
//! and a busy pool degrades throughput, never liveness. The last
//! participant to leave a halted job finalises it: collects the
//! per-job [`Metrics`](crate::metrics::Metrics), captures the
//! checkpoint the request asked for, publishes the [`RunOutcome`] and
//! fires the completion callback.
//!
//! Worker indices inside a job are *participation* indices (0 ..
//! `workers`), handed out in join order — decoupled from pool worker
//! ids, so `Metrics::worker_firings` / `worker_steals` are tallied per
//! job, never smeared across the concurrent jobs a pool worker serves
//! over its lifetime.
//!
//! ## Participants change only at iteration barriers
//!
//! When a barrier lowers the count (the graph measured fine-grained), a
//! participant whose index is at or above it *stands down* at its next
//! loop pass — waking a parked peer first — and hands its slot back, so
//! the thread serves other queued jobs; the hunt passes the job over
//! while `joined` has reached the count. When a barrier raises it, the
//! job's `on_widen` notifier wakes one hunting worker per added
//! participant. No timer is involved.
//!
//! ## Panic isolation
//!
//! A panicking kernel fails only its own job — on whichever thread it
//! fired, a pool worker or a waiting caller: the panic is converted
//! into [`RuntimeError::KernelFailed`] and the job halts. The thread
//! survives and every other job's state is untouched — which the
//! service stress suite asserts across concurrent sessions.

use crate::executor::{
    CompiledExecutor, CostTelemetry, Engine, Executor, RunOutcome, RunRequest, RunState,
};
use crate::kernel::KernelRegistry;
use crate::RuntimeError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use tpdf_core::graph::TpdfGraph;
use tpdf_trace::EventKind;

/// One submitted run: everything a pool worker needs, owned, plus the
/// participation and completion accounting of the slot table.
struct PoolJob {
    engine: Arc<Engine>,
    /// Cloned from the caller's registry (cheap: behaviours are
    /// `Arc`-shared) so the `'static` workers borrow nothing.
    registry: KernelRegistry,
    state: RunState,
    /// Set by the first participant: a job queued behind a busy pool
    /// must not count its queue latency against real-time deadlines.
    start: OnceLock<Instant>,
    /// Participation slots (1 ..= pool size): the most participants
    /// the job's iteration barriers can ask for.
    workers: usize,
    /// Slots handed out so far. Only mutated under the slot lock.
    joined: AtomicUsize,
    /// Participants currently inside the worker loop. Only mutated
    /// under the slot lock.
    active: AtomicUsize,
    /// Exactly-once guard for finalisation. Set under the slot lock.
    finishing: AtomicBool,
    /// Set (after the result is stored) by the finaliser.
    finished: AtomicBool,
    /// The finaliser captures a [`crate::checkpoint::Checkpoint`] of
    /// the quiesced state into the outcome
    /// ([`RunRequest::checkpoint_at_end`]).
    checkpoint_at_end: bool,
    result: Mutex<Option<Result<RunOutcome, RuntimeError>>>,
    /// Invoked once, after the result is published — the service
    /// layer's dispatch hook. Never called while a pool lock is held.
    on_complete: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl PoolJob {
    /// The job's start instant, initialised by the first participant.
    fn started(&self) -> Instant {
        *self.start.get_or_init(Instant::now)
    }
}

/// The job slot table workers hunt over.
#[derive(Default)]
struct PoolSlot {
    /// Jobs still accepting participants, in submission order. A job
    /// leaves the queue when its last slot is claimed or when it is
    /// finalised, whichever comes first; a stand-down re-queues it.
    queue: Vec<Arc<PoolJob>>,
    shutdown: bool,
}

struct PoolShared {
    slot: Mutex<PoolSlot>,
    /// Workers wait here for new jobs (or shutdown).
    work: Condvar,
    /// Completion events: job finalised.
    done: Condvar,
}

/// Whether `job` takes another participant now: `joined` is below the
/// participant count its last barrier (or `submit`) decided.
fn joinable(job: &PoolJob) -> bool {
    job.joined.load(Ordering::SeqCst) < job.state.participants.load(Ordering::SeqCst)
}

/// Claims the next participation slot of `job`, if it is
/// [`joinable`] and not already finalising. The single source of the
/// join-side lock protocol: bump `joined`/`active` together and bar
/// further joins (queue removal) the moment the last slot is handed
/// out. Must hold the slot lock.
fn claim_participation(slot: &mut PoolSlot, job: &Arc<PoolJob>) -> Option<usize> {
    if job.finishing.load(Ordering::SeqCst) || !joinable(job) {
        return None;
    }
    let joined = job.joined.fetch_add(1, Ordering::SeqCst);
    job.active.fetch_add(1, Ordering::SeqCst);
    if joined + 1 == job.workers {
        slot.queue.retain(|j| !Arc::ptr_eq(j, job));
    }
    Some(joined)
}

/// Claims the next participation slot of the first [`joinable`] job.
/// Must hold the slot lock.
fn claim_slot(slot: &mut PoolSlot) -> Option<(Arc<PoolJob>, usize)> {
    let job = slot.queue.iter().find(|j| joinable(j)).cloned()?;
    claim_participation(slot, &job).map(|idx| (job, idx))
}

/// Elects the caller as the job's finaliser if the job has no live
/// participant and nobody else won the election. The single source of
/// the finalisation-side lock protocol: the `finishing` swap happens
/// under the same lock as every join, and the queue removal bars late
/// joins. Returns whether the caller must run [`finalize_job`]. Must
/// hold the slot lock.
fn try_elect_finalizer(slot: &mut PoolSlot, job: &Arc<PoolJob>) -> bool {
    if job.active.load(Ordering::SeqCst) != 0 || job.finishing.swap(true, Ordering::SeqCst) {
        return false;
    }
    slot.queue.retain(|j| !Arc::ptr_eq(j, job));
    true
}

/// Runs one participation of `job` as participant `idx`, then leaves:
/// a participant that stood down hands its slot back ([`stand_down`]),
/// and the last one out of a halted job finalises it. A panic is
/// contained: it fails this job (and only this job) and the calling
/// worker survives.
fn participate(shared: &PoolShared, job: &Arc<PoolJob>, idx: usize) {
    let start = job.started();
    if let Some(tracer) = job.engine.trace() {
        tracer.event(
            idx,
            EventKind::JobClaim,
            job.state.trace_job,
            idx as u64,
            0,
            0,
        );
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        job.engine
            .participate(&job.state, idx, &job.registry, start)
    }));
    let stood_down = outcome.unwrap_or_else(|_| {
        job.engine.fail(
            &job.state,
            RuntimeError::KernelFailed {
                node: format!("pool worker {idx}"),
                message: "worker thread panicked".to_string(),
            },
        );
        false
    });
    let finalize = {
        let mut slot = shared.slot.lock().expect("pool lock");
        job.active.fetch_sub(1, Ordering::SeqCst);
        if stood_down {
            stand_down(&mut slot, job);
        }
        // Only the stood-down leave a running job, and the first
        // participant never stands down: a drained `active` means the
        // run is over.
        try_elect_finalizer(&mut slot, job)
    };
    if finalize {
        finalize_job(shared, job);
    }
}

/// Hands a *stood-down* participant's slot back: the job keeps running
/// on its remaining participants. `joined` decrements and the job is
/// re-queued, so the slot can be re-claimed once a barrier raises the
/// count again — until then the job is not [`joinable`]. Must hold the
/// slot lock.
fn stand_down(slot: &mut PoolSlot, job: &Arc<PoolJob>) {
    job.joined.fetch_sub(1, Ordering::SeqCst);
    if !job.finishing.load(Ordering::SeqCst) && !slot.queue.iter().any(|j| Arc::ptr_eq(j, job)) {
        slot.queue.push(Arc::clone(job));
    }
}

/// Collects the job's metrics, captures the requested checkpoint —
/// every participant has left (the finaliser is elected only at
/// `active == 0`), so the rings are quiescent — publishes the outcome,
/// wakes waiters and fires the completion callback. Requires the
/// `finishing` election.
fn finalize_job(shared: &PoolShared, job: &Arc<PoolJob>) {
    let elapsed = job.start.get().map(|s| s.elapsed()).unwrap_or_default();
    let result = job
        .engine
        .collect_metrics(&job.state, elapsed, job.workers)
        .map(|metrics| {
            let checkpoint = job
                .checkpoint_at_end
                .then(|| job.engine.capture_checkpoint(&job.state, &metrics));
            RunOutcome {
                metrics,
                checkpoint,
            }
        });
    if let Some(tracer) = job.engine.trace() {
        tracer.control_event(
            EventKind::JobFinalize,
            job.state.trace_job,
            0,
            result.is_err() as u64,
            0,
        );
    }
    *job.result.lock().expect("result lock") = Some(result);
    job.finished.store(true, Ordering::Release);
    // Pass through the mutex so a waiter that checked `finished` but
    // has not yet blocked on the condvar is not lost.
    drop(shared.slot.lock().expect("pool lock"));
    shared.done.notify_all();
    let callback = job.on_complete.lock().expect("callback lock").take();
    if let Some(callback) = callback {
        callback();
    }
}

/// Blocks until the job is finalised and takes its result. The result
/// is delivered once: if it was already taken (an earlier
/// [`JobTicket::try_take`]), this reports an error rather than
/// panicking.
fn wait_finished(shared: &PoolShared, job: &Arc<PoolJob>) -> Result<RunOutcome, RuntimeError> {
    let mut slot = shared.slot.lock().expect("pool lock");
    while !job.finished.load(Ordering::Acquire) {
        slot = shared.done.wait(slot).expect("pool lock");
    }
    drop(slot);
    job.result
        .lock()
        .expect("result lock")
        .take()
        .unwrap_or(Err(RuntimeError::InvalidConfig(
            "the job's result was already taken".to_string(),
        )))
}

/// A persistent executor worker pool multiplexed over a slot table of
/// concurrently active jobs (see the module docs). Workers are spawned
/// at construction, parked between jobs, shut down on drop; repeated
/// runs pay **no spawn cost** and telemetry (EWMA firing costs,
/// granularity classification) carries across runs and across
/// executors built through [`ExecutorPool::executor`].
///
/// # Examples
///
/// ```
/// use tpdf_core::examples::figure2_graph;
/// use tpdf_runtime::{ExecutorPool, KernelRegistry, RunRequest, RuntimeConfig};
/// use tpdf_symexpr::Binding;
///
/// # fn main() -> Result<(), tpdf_runtime::RuntimeError> {
/// let graph = figure2_graph();
/// let pool = ExecutorPool::new(2);
/// let compiled = pool
///     .executor(
///         &graph,
///         RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_threads(2),
///     )?
///     .compile();
/// let registry = KernelRegistry::new();
/// for _ in 0..3 {
///     // No worker spawns after the first line of main: the waiting
///     // thread and the pool's one spawned worker share each run.
///     let outcome = pool
///         .submit(&compiled, &registry, RunRequest::default(), None)
///         .wait()?;
///     assert_eq!(outcome.metrics.iterations, 1);
/// }
/// // Cut a checkpoint at the final barrier and resume it in a longer
/// // run — same entry point, different request.
/// let cut = RunRequest { resume: None, checkpoint_at_end: true };
/// let checkpoint = pool
///     .submit(&compiled, &registry, cut, None)
///     .wait()?
///     .checkpoint
///     .expect("requested");
/// let longer = pool
///     .executor(
///         &graph,
///         RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_iterations(3),
///     )?
///     .compile();
/// let resume = RunRequest { resume: Some(&checkpoint), checkpoint_at_end: false };
/// let outcome = pool.submit(&longer, &registry, resume, None).wait()?;
/// assert_eq!(outcome.metrics.iterations, 3);
/// # Ok(())
/// # }
/// ```
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    telemetry: Arc<CostTelemetry>,
    threads: usize,
    /// Monotone trace tags handed to jobs whose config left
    /// [`crate::executor::RuntimeConfig::trace_tag`] at 0 (see
    /// [`tag_job`](Self::tag_job)).
    job_tags: AtomicU32,
}

impl std::fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorPool")
            .field("threads", &self.threads)
            .field("spawned_workers", &self.handles.len())
            .finish()
    }
}

impl ExecutorPool {
    /// Spawns a pool of `threads` workers (clamped to ≥ 1) for
    /// *caller-participating* use: `threads - 1` OS threads are created
    /// here, and the thread blocking in [`JobTicket::wait`] serves as
    /// the remaining worker. For a pool that executes jobs without any
    /// caller thread — what a service hosts — use
    /// [`ExecutorPool::detached`].
    pub fn new(threads: usize) -> Self {
        Self::build(threads, false)
    }

    /// Spawns a *detached* pool: all `threads` workers (clamped to ≥ 1)
    /// are OS threads owned by the pool, so [`ExecutorPool::submit`]ted
    /// jobs run to completion with no caller participation — the shape
    /// a multi-session service needs.
    pub fn detached(threads: usize) -> Self {
        Self::build(threads, true)
    }

    fn build(threads: usize, detached: bool) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(PoolSlot::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let first = if detached { 0 } else { 1 };
        let handles: Vec<JoinHandle<()>> = (first..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tpdf-pool-{me}"))
                    .spawn(move || pool_worker(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ExecutorPool {
            shared,
            handles,
            telemetry: Arc::new(CostTelemetry::default()),
            threads,
            job_tags: AtomicU32::new(0),
        }
    }

    /// Stamps an untagged job's run state with a fresh pool-assigned
    /// trace tag and records the submission. Pool-assigned tags live in
    /// the upper half of the tag space (`0x8000_0000 |`) so they never
    /// collide with the small tags a service assigns per session.
    fn tag_job(&self, engine: &Engine, state: &mut RunState, workers: usize) {
        if state.trace_job == 0 {
            state.trace_job = 0x8000_0000 | (self.job_tags.fetch_add(1, Ordering::Relaxed) + 1);
        }
        if let Some(tracer) = engine.trace() {
            tracer.control_event(EventKind::JobSubmit, state.trace_job, workers as u64, 0, 0);
        }
    }

    /// The pool's worker count (including, for a non-detached pool, the
    /// caller participating through [`JobTicket::wait`]). Constant for
    /// the pool's lifetime — the reuse suite asserts no run grows it.
    pub fn worker_count(&self) -> usize {
        self.threads
    }

    /// OS threads this pool spawned: `worker_count() - 1` for a pool
    /// built with [`ExecutorPool::new`], `worker_count()` for a
    /// [`ExecutorPool::detached`] one.
    pub fn spawned_workers(&self) -> usize {
        self.handles.len()
    }

    /// The pool-wide firing-cost estimate in nanoseconds (an EWMA over
    /// the sampled firings of every run executed on this pool through
    /// executors built by [`ExecutorPool::executor`]), or `None` before
    /// the first sample.
    pub fn sampled_firing_cost_ns(&self) -> Option<u64> {
        self.telemetry.sampled_firing_cost_ns()
    }

    /// Builds an executor whose firing-cost telemetry is shared with
    /// this pool, so granularity classification survives across
    /// executors (e.g. across the phases of a reconfigured pipeline
    /// running the same graph). Heterogeneous tenants should build
    /// their executors with [`Executor::new`] instead — a shared
    /// estimate lets one tenant's cheap kernels collapse another's
    /// runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::new`].
    pub fn executor<'g>(
        &self,
        graph: &'g TpdfGraph,
        config: crate::executor::RuntimeConfig,
    ) -> Result<Executor<'g>, RuntimeError> {
        Executor::with_telemetry(graph, config, Arc::clone(&self.telemetry))
    }

    /// Queues one run of `compiled` and returns immediately — the
    /// single entry point every run goes through. The run starts from
    /// the initial state or from `request.resume`, fires to the final
    /// iteration barrier of `compiled`'s configuration, and — with
    /// `request.checkpoint_at_end` — leaves a barrier-consistent
    /// checkpoint in its [`RunOutcome`]. It has
    /// `min(executor threads, pool size)` participation slots and
    /// starts on all of them, or on one when the firing-cost telemetry
    /// already classified the graph fine-grained; each iteration
    /// barrier re-decides the count (see the module docs). It runs
    /// concurrently with every other job active on the pool. A
    /// checkpoint may be resumed on a different pool and worker count
    /// than the one that cut it: sink streams, mode sequences and
    /// firing counts are byte-identical to a run that never stopped.
    ///
    /// `on_complete` is invoked exactly once after the job's result is
    /// published (from the finalising thread, with no pool lock held) —
    /// the hook a service layer uses to dispatch a session's next
    /// queued request.
    ///
    /// On a pool with no spawned workers (`ExecutorPool::new(1)`) the
    /// job only progresses when some thread lends itself through
    /// [`JobTicket::wait`] — a service should host a
    /// [`ExecutorPool::detached`] pool.
    ///
    /// # Errors
    ///
    /// The ticket resolves to:
    ///
    /// * [`RuntimeError::Checkpoint`] when `request.resume` belongs to
    ///   a different graph, disagrees in shape, or leaves nothing to
    ///   resume (the job is finalised before any worker sees it);
    /// * [`RuntimeError::Stalled`] when no node can make progress —
    ///   an internal-invariant violation, or a `request.resume`
    ///   checkpoint whose channel contents contradict the graph;
    /// * [`RuntimeError::RateMismatch`] when a behaviour produced the
    ///   wrong number of tokens;
    /// * [`RuntimeError::KernelFailed`] raised by a behaviour, or
    ///   standing in for a behaviour that panicked;
    /// * [`RuntimeError::Cancelled`] when the job was cancelled.
    pub fn submit(
        &self,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
        request: RunRequest<'_>,
        on_complete: Option<Box<dyn FnOnce() + Send>>,
    ) -> JobTicket {
        let engine = Arc::clone(compiled.engine());
        let workers = engine.effective_workers().min(self.threads);
        let restored = request
            .resume
            .map(|checkpoint| engine.restore_state(checkpoint, workers));
        let (mut state, rejected) = match restored {
            None => (engine.initial_state(workers), None),
            Some(Ok(state)) => (state, None),
            // A checkpoint this engine cannot resume still becomes a
            // job — one that has already failed — so the error reaches
            // the caller the way every other one does: through the
            // ticket, after the completion callback's usual protocol.
            Some(Err(error)) => (engine.initial_state(workers), Some(error)),
        };
        self.tag_job(&engine, &mut state, workers);
        if workers > 1 {
            let shared = Arc::downgrade(&self.shared);
            state.on_widen = Some(Box::new(move |added| {
                if let Some(shared) = shared.upgrade() {
                    // A hunter that just passed the job over holds the
                    // lock until it waits, so it is waiting when the
                    // notify lands.
                    drop(shared.slot.lock().expect("pool lock"));
                    for _ in 0..added {
                        shared.work.notify_one();
                    }
                }
            }));
        }
        let ticket = JobTicket {
            shared: Arc::clone(&self.shared),
            job: Arc::new(PoolJob {
                engine,
                registry: registry.clone(),
                state,
                start: OnceLock::new(),
                workers,
                joined: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
                finishing: AtomicBool::new(false),
                finished: AtomicBool::new(false),
                checkpoint_at_end: request.checkpoint_at_end,
                result: Mutex::new(None),
                on_complete: Mutex::new(on_complete),
            }),
        };
        match rejected {
            Some(error) => {
                ticket.job.engine.fail(&ticket.job.state, error.into());
                ticket.finalize_if_idle();
            }
            None => {
                let mut slot = self.shared.slot.lock().expect("pool lock");
                slot.queue.push(Arc::clone(&ticket.job));
                drop(slot);
                // One hunter per slot: a 1-worker job wakes one thread,
                // not the whole pool.
                for _ in 0..workers {
                    self.shared.work.notify_one();
                }
            }
        }
        ticket
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            slot.shutdown = true;
        }
        self.shared.work.notify_all();
        // The pool can be dropped *from one of its own workers*: a
        // completion callback owns an `Arc` of the pool (that is how a
        // service dispatches follow-up work), and the worker dropping
        // the consumed callback may hold the last reference. That
        // worker cannot join itself — detach it instead; it exits on
        // its own the moment it observes the shutdown flag.
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
        // Jobs still queued with no participant will never gain one
        // (the workers are gone): finalise them as cancelled so any
        // outstanding ticket resolves instead of hanging. Jobs with a
        // live participant (a `JobTicket::wait` helper on another
        // thread) are left to that helper's finalisation.
        let leftovers: Vec<Arc<PoolJob>> = {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            slot.queue
                .clone()
                .into_iter()
                .filter(|job| try_elect_finalizer(&mut slot, job))
                .collect()
        };
        for job in leftovers {
            job.engine.cancel_run(&job.state);
            finalize_job(&self.shared, &job);
        }
    }
}

/// A handle on one [`ExecutorPool::submit`]ted job. Clones share the
/// job: the result is delivered once across all clones (first
/// [`JobTicket::try_take`] / [`JobTicket::wait`] wins).
#[derive(Clone)]
pub struct JobTicket {
    shared: Arc<PoolShared>,
    job: Arc<PoolJob>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("workers", &self.job.workers)
            .field("joined", &self.job.joined.load(Ordering::Relaxed))
            .field("finished", &self.job.finished.load(Ordering::Relaxed))
            .finish()
    }
}

impl JobTicket {
    /// Whether the job has been finalised (its result is available).
    pub fn is_finished(&self) -> bool {
        self.job.finished.load(Ordering::Acquire)
    }

    /// Takes the job's result if it is finished, `None` otherwise (or
    /// if the result was already taken).
    pub fn try_take(&self) -> Option<Result<RunOutcome, RuntimeError>> {
        if !self.is_finished() {
            return None;
        }
        self.job.result.lock().expect("result lock").take()
    }

    /// Blocks until the job completes and returns its [`RunOutcome`].
    ///
    /// If the job still has a free participation slot, the waiting
    /// thread lends itself as a participant first — so waiting makes
    /// progress even on a pool with no (or saturated) workers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutorPool::submit`], plus
    /// [`RuntimeError::InvalidConfig`] when the result was already
    /// taken through [`JobTicket::try_take`].
    pub fn wait(self) -> Result<RunOutcome, RuntimeError> {
        let idx = {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            claim_participation(&mut slot, &self.job)
        };
        if let Some(idx) = idx {
            participate(&self.shared, &self.job, idx);
        }
        wait_finished(&self.shared, &self.job)
    }

    /// Cancels the job: the run halts at the next scheduling point and
    /// finalises with [`RuntimeError::Cancelled`] (an error already
    /// recorded by the run itself takes precedence, and a run that
    /// already *completed* keeps its successful result). A job no
    /// worker has picked up yet is finalised immediately; a running
    /// job's participants observe the halt and drain. Idempotent.
    pub fn cancel(&self) {
        self.job.engine.cancel_run(&self.job.state);
        self.finalize_if_idle();
    }

    /// Finalises a halted job that has no participant to do it: one no
    /// worker has picked up yet, or one that never reached the queue.
    fn finalize_if_idle(&self) {
        let finalize = {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            try_elect_finalizer(&mut slot, &self.job)
        };
        if finalize {
            finalize_job(&self.shared, &self.job);
        }
    }
}

/// The persistent worker loop: hunt the job queue — claim a
/// participation slot, run the shared engine worker loop, report
/// completion, repeat until shutdown.
fn pool_worker(shared: Arc<PoolShared>) {
    loop {
        let (job, idx) = {
            let mut slot = shared.slot.lock().expect("pool lock");
            loop {
                if slot.shutdown {
                    return;
                }
                if let Some(claimed) = claim_slot(&mut slot) {
                    break claimed;
                }
                // Woken by a submit, a barrier that raised a job's
                // participant count, or shutdown.
                slot = shared.work.wait(slot).expect("pool lock");
            }
        };
        participate(&shared, &job, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RuntimeConfig;
    use crate::metrics::Metrics;
    use crate::token::Token;
    use tpdf_core::examples::figure2_graph;
    use tpdf_symexpr::Binding;

    fn binding(p: i64) -> Binding {
        Binding::from_pairs([("p", p)])
    }

    /// A plain blocking run: the default request, submitted and waited.
    fn run(
        pool: &ExecutorPool,
        executor: &Executor<'_>,
        registry: &KernelRegistry,
    ) -> Result<Metrics, RuntimeError> {
        submit(pool, &executor.compile(), registry)
            .wait()
            .map(|outcome| outcome.metrics)
    }

    fn submit(
        pool: &ExecutorPool,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
    ) -> JobTicket {
        pool.submit(compiled, registry, RunRequest::default(), None)
    }

    #[test]
    fn pool_clamps_oversized_executor_thread_counts() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(2);
        let executor = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(8))
            .unwrap();
        let metrics = run(&pool, &executor, &KernelRegistry::new()).unwrap();
        assert!(metrics.effective_workers <= 2);
        assert_eq!(metrics.worker_firings.len(), metrics.effective_workers);
    }

    /// Regression (from the single-slot pool): a pool wider than a
    /// run's worker count leaves idle workers racing the finaliser's
    /// queue cleanup — a worker waking late used to panic on the
    /// cleared job slot and poison the pool mutex. Real-time mode keeps
    /// the multi-worker publish path (no granularity collapse), and
    /// many tiny back-to-back runs make the window hit.
    #[test]
    fn sit_out_workers_survive_rapid_generations() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(8);
        let registry = KernelRegistry::new();
        let config = RuntimeConfig::new(binding(1))
            .with_threads(2)
            .with_real_time(std::time::Duration::from_micros(1));
        let executor = pool.executor(&graph, config).unwrap();
        for _ in 0..500 {
            let metrics = run(&pool, &executor, &registry).unwrap();
            assert_eq!(metrics.iterations, 1);
        }
    }

    #[test]
    fn pool_survives_a_panicking_kernel() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(2);
        let mut bad = KernelRegistry::new();
        bad.register_fn("B", |_| panic!("kernel bug"));
        // Whichever participant fires B — the spawned worker or the
        // waiting caller — the panic is contained as the job's error,
        // and the pool must stay serviceable afterwards.
        let config = RuntimeConfig::new(binding(2)).with_threads(2);
        let executor = pool.executor(&graph, config).unwrap();
        assert!(matches!(
            run(&pool, &executor, &bad),
            Err(RuntimeError::KernelFailed { .. })
        ));
        let mut good = KernelRegistry::new();
        good.register_fn("B", |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
        let metrics = run(&pool, &executor, &good).unwrap();
        assert_eq!(metrics.iterations, 1);
    }

    #[test]
    fn submitted_jobs_run_without_caller_participation() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let config = RuntimeConfig::new(binding(3))
            .with_threads(2)
            .with_iterations(4);
        let reference = Executor::new(&graph, config.clone())
            .unwrap()
            .run(&registry)
            .unwrap();
        let compiled = pool.executor(&graph, config).unwrap().compile();
        let ticket = submit(&pool, &compiled, &registry);
        let metrics = ticket.wait().unwrap().metrics;
        assert_eq!(metrics.firings, reference.firings);
        assert_eq!(metrics.iterations, 4);
    }

    #[test]
    fn many_concurrent_jobs_share_one_pool() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(4);
        let registry = KernelRegistry::new();
        let mut tickets = Vec::new();
        let mut references = Vec::new();
        for p in [1i64, 2, 3, 4, 2, 3] {
            let config = RuntimeConfig::new(binding(p))
                .with_threads(2)
                .with_iterations(3);
            references.push(
                Executor::new(&graph, config.clone())
                    .unwrap()
                    .run(&registry)
                    .unwrap(),
            );
            let compiled = pool.executor(&graph, config).unwrap().compile();
            tickets.push(submit(&pool, &compiled, &registry));
        }
        for (ticket, reference) in tickets.into_iter().zip(&references) {
            let metrics = ticket.wait().unwrap().metrics;
            assert_eq!(metrics.firings, reference.firings);
            // Per-job tally: every firing of this job is accounted to
            // one of this job's participation slots.
            assert_eq!(
                metrics.worker_firings.iter().sum::<u64>(),
                metrics.firings.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn wait_drives_jobs_on_a_pool_with_no_spawned_workers() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(1);
        assert_eq!(pool.spawned_workers(), 0);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = submit(&pool, &compiled, &registry);
        assert!(!ticket.is_finished());
        let metrics = ticket.wait().unwrap().metrics;
        assert_eq!(metrics.iterations, 1);
    }

    #[test]
    fn wait_after_try_take_reports_instead_of_panicking() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = submit(&pool, &compiled, &registry);
        // Spin until the workers finish the job, then drain the result.
        while !ticket.is_finished() {
            std::thread::yield_now();
        }
        assert!(matches!(ticket.try_take(), Some(Ok(_))));
        assert_eq!(ticket.try_take(), None, "the result is delivered once");
        assert!(matches!(ticket.wait(), Err(RuntimeError::InvalidConfig(_))));
    }

    #[test]
    fn cancelled_queued_job_resolves_immediately() {
        let graph = figure2_graph();
        // No spawned workers: the job can never start, so cancel must
        // finalise it right away.
        let pool = ExecutorPool::new(1);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = submit(&pool, &compiled, &registry);
        ticket.cancel();
        assert!(ticket.is_finished());
        assert!(matches!(
            ticket.try_take(),
            Some(Err(RuntimeError::Cancelled))
        ));
    }

    #[test]
    fn cancel_after_completion_keeps_the_real_result() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = submit(&pool, &compiled, &registry);
        while !ticket.is_finished() {
            std::thread::yield_now();
        }
        // A completed run's outcome must survive a late cancellation.
        ticket.cancel();
        assert!(matches!(ticket.try_take(), Some(Ok(_))));
    }

    /// Regression: secondaries of a granularity-collapsed job must
    /// *return to the hunt* rather than nap until the job ends —
    /// otherwise one long fine-grained job hoards the whole pool and
    /// concurrently queued jobs starve.
    #[test]
    fn collapsed_job_secondaries_serve_other_queued_jobs() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        // A long, cheap job asking for the whole pool: both workers
        // join while the telemetry is cold; within a few iterations the
        // barrier classifies figure2's rate-only kernels fine-grained
        // and the secondary stands down.
        let long = pool
            .executor(
                &graph,
                RuntimeConfig::new(binding(8))
                    .with_threads(2)
                    .with_iterations(20_000),
            )
            .unwrap()
            .compile();
        let long_ticket = submit(&pool, &long, &registry);
        let short = pool
            .executor(&graph, RuntimeConfig::new(binding(1)).with_threads(1))
            .unwrap()
            .compile();
        let short_ticket = submit(&pool, &short, &registry);
        // The freed secondary must pick the short job up and finish it
        // long before the 20k-iteration job ends (generous deadline —
        // the barrier that lowers the count wakes the parked secondary).
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while !short_ticket.is_finished() {
            assert!(
                Instant::now() < deadline,
                "short job starved behind a collapsed long job"
            );
            std::thread::yield_now();
        }
        assert!(matches!(short_ticket.try_take(), Some(Ok(_))));
        long_ticket.wait().unwrap();
    }

    /// The other half of stand-down: a collapsed job *regains* a worker
    /// once its cost estimate recovers. Phase one (p = 1) is rate-only
    /// and collapses the job onto its first participant — the second
    /// pool worker stands down, or finds the job already collapsed and
    /// passes it over. Phase two (p = 2, entered through the binding
    /// sequence) sleeps in every kernel: the first heavy iteration's
    /// barrier raises the participant count and wakes a hunter, which
    /// takes the freed slot. Without that wake, slot 1 ends the run
    /// with at most its cold-start firings (a few dozen) and the heavy
    /// phase runs on one worker.
    #[test]
    fn collapsed_job_regains_a_worker_when_it_turns_heavy() {
        use std::time::Duration;
        const CHEAP_ITERATIONS: usize = 1500;
        const HEAVY_ITERATIONS: u64 = 60;
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let heavy = Arc::new(AtomicBool::new(false));
        let mut registry = KernelRegistry::new();
        for node in ["A", "B", "C", "D", "E", "F"] {
            let heavy = Arc::clone(&heavy);
            registry.register_fn(node, move |ctx| {
                // A produces p tokens per firing and opens every
                // iteration, so its rate announces the phase.
                if &*ctx.node == "A" {
                    heavy.store(ctx.outputs[0].rate > 1, Ordering::Relaxed);
                }
                if heavy.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(500));
                }
                ctx.fill_outputs_from_inputs();
                Ok(())
            });
        }
        let mut sequence = vec![binding(1); CHEAP_ITERATIONS];
        sequence.push(binding(2));
        let config = RuntimeConfig::new(binding(1))
            .with_threads(2)
            .with_iterations(CHEAP_ITERATIONS as u64 + HEAVY_ITERATIONS)
            .with_binding_sequence(sequence);
        // Own telemetry: the verdict must be learned inside this job.
        let compiled = Executor::new(&graph, config).unwrap().compile();
        let ticket = submit(&pool, &compiled, &registry);
        // Polled, not waited on: `wait` would lend this thread as the
        // job's second participant.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !ticket.is_finished() {
            assert!(Instant::now() < deadline, "two-phase job never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        let metrics = ticket.try_take().expect("finished").unwrap().metrics;
        // q = [2, 2p, p, p, 2p, 2p]: 18 firings per heavy iteration.
        let heavy_firings = HEAVY_ITERATIONS * 18;
        assert!(
            metrics.worker_firings[1] >= heavy_firings / 5,
            "slot 1 must share the heavy phase ({heavy_firings} firings): {:?}",
            metrics.worker_firings
        );
    }

    #[test]
    fn panicking_job_does_not_poison_concurrent_jobs() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let mut bad = KernelRegistry::new();
        bad.register_fn("B", |_| panic!("kernel bug"));
        let good_registry = KernelRegistry::new();
        let config = RuntimeConfig::new(binding(2))
            .with_threads(1)
            .with_iterations(50);
        let compiled = pool.executor(&graph, config).unwrap().compile();
        let bad_ticket = submit(&pool, &compiled, &bad);
        let good_ticket = submit(&pool, &compiled, &good_registry);
        assert!(bad_ticket.wait().is_err(), "panicking job must fail");
        let metrics = good_ticket.wait().unwrap().metrics;
        assert_eq!(metrics.iterations, 50, "neighbour job must be untouched");
    }

    #[test]
    fn completion_callback_fires_once_after_result() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        let on_complete = Box::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        let ticket = pool.submit(
            &compiled,
            &registry,
            RunRequest::default(),
            Some(on_complete),
        );
        let metrics = ticket.wait().unwrap().metrics;
        assert_eq!(metrics.iterations, 1);
        // The callback runs on the finalising worker *after* the result
        // is published — waiters are not ordered against it, so give
        // the worker a moment to get there.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while fired.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
