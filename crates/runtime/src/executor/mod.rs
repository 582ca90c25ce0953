//! The multi-threaded, token-level executor — sharded scheduler.
//!
//! ## Execution model
//!
//! The executor runs `iterations` complete graph iterations (repetition
//! counts come from `tpdf_core::consistency`), firing any node whose
//! *mode-selected* inputs are ready — the untimed `tpdf-sim` engine's
//! semantics, but on real worker threads moving real
//! [`Token`](crate::token::Token) values.
//!
//! ## Sharded scheduling
//!
//! There is no global scheduler lock on the claim/complete path. The
//! state is sharded three ways:
//!
//! * **Per-channel lock-free SPSC rings.** Every channel (data *and*
//!   control) is a [`RingBuffer`](crate::ring::RingBuffer) with atomic
//!   cursors. A TPDF channel has one producer node and one consumer
//!   node, and a node runs at most one firing at a time, so
//!   single-producer single-consumer is exactly the required
//!   discipline.
//! * **Per-node atomic claim state.** A worker acquires a node with one
//!   compare-and-swap on its `claimed` flag. While the claim is held
//!   the worker is the unique consumer of the node's input rings and
//!   the unique producer of its output rings, so availability and free
//!   space can be checked and committed without locks or rollback:
//!   input tokens only accumulate and output space only grows until
//!   the claim holder itself moves them.
//! * **Per-worker ready queues with stealing.** Completing a firing
//!   enqueues the affected neighbours (the node itself, the consumers
//!   of its outputs, the producers of its inputs) onto the worker's own
//!   queue; idle workers steal from the back of other queues and fall
//!   back to a full scan before parking.
//!
//! The only lock left is the park/teardown mutex, which is touched when
//! a worker runs out of work, when a real-time deadline decision is
//! recorded, and at the **iteration barrier**: when the last firing of
//! an iteration completes, the completing worker — alone, every firing
//! budget being exhausted — flushes the channels whose consuming
//! (controlled) port was rejected for the whole iteration (the paper's
//! "unused edges are removed"), advances the iteration and republishes
//! the per-node budgets. Control tokens therefore still switch modes at
//! exact iteration boundaries.
//!
//! ## Determinism
//!
//! Each node is sequential with itself (the claim flag), every channel
//! has a single producer and a single consumer, and a node's firing
//! ordinal determines which tokens it consumes and produces — a
//! Kahn-style determinacy argument, unchanged by work stealing: the
//! *schedule* varies with the thread count, the *token streams* do not
//! (for deterministic [`ControlPolicy`]s). Cross-validation against the
//! single-threaded engine stays exact.
//!
//! ## Clocks
//!
//! [`KernelKind::Clock`](tpdf_core::actors::KernelKind::Clock)
//! watchdogs either fire as ordinary control actors
//! ([`ClockMode::Virtual`], used for cross-validation) or at
//! real wall-clock deadlines ([`ClockMode::RealTime`], in which a
//! clock-driven Transaction in [`Mode::HighestPriority`] takes the
//! best result available *now* — and fires empty, counting a deadline
//! miss, when nothing is ready).
//!
//! ## Module map
//!
//! There is one way to run a graph — a [`RunRequest`] submitted to
//! [`crate::pool::ExecutorPool::submit`] — and one state machine behind
//! it, laid out in the order a run passes through it:
//!
//! | File | Stage |
//! |------|-------|
//! | `plan` | compile: graph + configuration → the `Engine`'s node and channel tables and one `Plan` per phase of the binding sequence |
//! | `state` | the `RunState` of one run: built fresh or restored from a [`Checkpoint`], captured into one, read out as [`Metrics`] |
//! | `fire` | a participant's loop (`Engine::participate` is the one place that picks the single-worker loop or the shared worker loop) and the claim → execute → publish pipeline both loops share |
//! | `barrier` | the iteration barrier: flush, rebind, measure the iteration and decide the next one's participant count, republish the budgets — or finish |
//! | `clock` | real-time clock ticks |
//! | `stall` | the coordination protocol: the one attempt path (`Engine::attempt`, sole writer of the progress word), park/wake, the one halt path (completion, failure, cancellation, stall), the stall post-mortem, the progress beacon |
//!
//! This file holds what callers see — [`RuntimeConfig`], the
//! [`Executor`] / [`CompiledExecutor`] shells, [`RunRequest`] /
//! [`RunOutcome`] — and the granularity telemetry that sizes a run.

use crate::checkpoint::Checkpoint;
use crate::kernel::KernelRegistry;
use crate::metrics::Metrics;
use crate::pool::ExecutorPool;
use crate::RuntimeError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tpdf_core::control::{ModeSelector, ValueTrace};
use tpdf_core::graph::TpdfGraph;
use tpdf_core::mode::Mode;
use tpdf_sim::engine::{ControlPolicy, SimulationConfig};
use tpdf_symexpr::Binding;
use tpdf_trace::Tracer;

mod barrier;
mod clock;
mod fire;
mod plan;
mod stall;
mod state;

use plan::{ChanInfo, NodeInfo, Plan};
use stall::ProgressBeacon;
pub use stall::{ProgressSnapshot, STALL_DUMP_EVENTS};
pub(crate) use state::RunState;

/// How [`KernelKind::Clock`](tpdf_core::actors::KernelKind::Clock) watchdogs are driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockMode {
    /// Clocks fire as ordinary control actors, as fast as the dataflow
    /// allows. This matches the untimed `tpdf-sim` engine and is the
    /// mode cross-validation uses.
    Virtual,
    /// Clocks fire at real wall-clock deadlines: tick `k` of a clock
    /// with period `P` fires at `start + k · P · time_unit`.
    RealTime {
        /// Wall-clock duration of one virtual time unit (graph
        /// execution times and clock periods are expressed in it).
        time_unit: Duration,
    },
}

/// Configuration of a runtime execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Concrete values of the graph's integer parameters (the base
    /// binding of every iteration).
    pub binding: Binding,
    /// Mode sequence applied by control actors when no
    /// [`RuntimeConfig::mode_selector`] is set (same semantics as the
    /// `tpdf-sim` engine).
    pub control_policy: ControlPolicy,
    /// Data-dependent control: when set, every control actor computes
    /// the [`Mode`] it emits by calling this selector with its firing
    /// ordinal and the scalar views of the tokens it actually consumed
    /// ([`crate::token::Token::as_scalar`]); the
    /// [`RuntimeConfig::control_policy`] is ignored. A registered
    /// behaviour can override the selector per firing through
    /// [`crate::kernel::FiringContext::set_mode`].
    pub mode_selector: Option<Arc<dyn ModeSelector>>,
    /// Scalar values for the *reference sizing simulation* (the
    /// count-level run that derives ring capacities): with a
    /// data-dependent selector, the sizing run needs the same values
    /// the runtime kernels will produce. Ignored during token-level
    /// execution, which reads the real tokens.
    pub value_trace: Option<Arc<dyn ValueTrace>>,
    /// Per-iteration parameter rebinding: iteration `k` runs under the
    /// base binding overlaid with element `min(k, len - 1)` (the last
    /// element persists). At each affected iteration barrier the
    /// executor re-derives repetition counts and rates and grows ring
    /// capacities in place. Empty means every iteration uses the base
    /// binding.
    pub binding_sequence: Vec<Binding>,
    /// Number of worker threads.
    pub threads: usize,
    /// Complete graph iterations to execute.
    pub iterations: u64,
    /// Clock driving mode.
    pub clock_mode: ClockMode,
    /// Data-ring capacity = reference high-water × this slack factor
    /// (≥ 1). Slack 1 is the tightest sizing the reference execution
    /// proves deadlock-free; larger values give producers headroom to
    /// run ahead. Control rings are sized by their per-iteration
    /// production, which bounds their occupancy exactly.
    pub capacity_slack: u64,
    /// Structured tracing sink (see [`tpdf_trace::Tracer`]). `None`
    /// costs a pointer null-check per instrumentation site; an
    /// installed-but-disabled tracer costs one `Relaxed` load plus a
    /// branch. Installed tracers also enrich stall errors with the
    /// flight-recorder tail.
    pub tracer: Option<Arc<Tracer>>,
    /// Job tag stamped on every trace event this execution emits
    /// (Chrome export groups tags into processes). 0 means *untagged*:
    /// a pool assigns a fresh tag per job, a service assigns one per
    /// session.
    pub trace_tag: u32,
}

impl RuntimeConfig {
    /// Creates a configuration: 4 threads, 1 iteration, virtual clocks,
    /// capacity slack 2.
    pub fn new(binding: Binding) -> Self {
        RuntimeConfig {
            binding,
            control_policy: ControlPolicy::default(),
            mode_selector: None,
            value_trace: None,
            binding_sequence: Vec::new(),
            threads: 4,
            iterations: 1,
            clock_mode: ClockMode::Virtual,
            capacity_slack: 2,
            tracer: None,
            trace_tag: 0,
        }
    }

    /// Sets the control policy.
    pub fn with_policy(mut self, policy: ControlPolicy) -> Self {
        self.control_policy = policy;
        self
    }

    /// Makes every control actor compute its emitted mode from the data
    /// it consumes through `selector` (see
    /// [`tpdf_core::control::ModeSelector`]).
    pub fn with_mode_selector(mut self, selector: Arc<dyn ModeSelector>) -> Self {
        self.mode_selector = Some(selector);
        self
    }

    /// Supplies the scalar values the reference sizing simulation feeds
    /// a data-dependent selector (see [`RuntimeConfig::value_trace`]).
    pub fn with_value_trace(mut self, trace: Arc<dyn ValueTrace>) -> Self {
        self.value_trace = Some(trace);
        self
    }

    /// Rebinds parameters at iteration boundaries: iteration `k` runs
    /// under the base binding overlaid with `sequence[min(k, len - 1)]`.
    /// Repetition counts, rates and ring capacities are re-derived at
    /// each affected iteration barrier (rings grow in place, they never
    /// shrink).
    pub fn with_binding_sequence(mut self, sequence: Vec<Binding>) -> Self {
        self.binding_sequence = sequence;
        self
    }

    /// The effective binding of iteration `k`.
    pub fn binding_for(&self, iteration: u64) -> Binding {
        if self.binding_sequence.is_empty() {
            return self.binding.clone();
        }
        let idx = (iteration as usize).min(self.binding_sequence.len() - 1);
        let mut binding = self.binding.clone();
        binding.merge(&self.binding_sequence[idx]);
        binding
    }

    /// The [`SimulationConfig`] mirroring this configuration — what the
    /// executor's reference sizing run (and any differential test) must
    /// hand the count-level engine so it follows the exact same modes
    /// and bindings as the runtime. The single place the two configs
    /// are kept in sync.
    pub fn reference_sim_config(&self) -> SimulationConfig {
        let mut sim = SimulationConfig::new(self.binding.clone())
            .with_policy(self.control_policy.clone())
            .with_binding_sequence(self.binding_sequence.clone());
        if let Some(selector) = &self.mode_selector {
            sim = sim.with_mode_selector(Arc::clone(selector));
        }
        if let Some(trace) = &self.value_trace {
            sim = sim.with_value_trace(Arc::clone(trace));
        }
        sim
    }

    /// Whether every control actor provably emits the same mode at
    /// every firing. Only then is one reference iteration enough for
    /// ring sizing: firing ordinals never reset across iterations, so
    /// an `Alternate` policy — or any custom selector, whose behaviour
    /// cannot be introspected — can select differently in later
    /// iterations and needs the whole run simulated.
    fn constant_mode_sequence(&self) -> bool {
        self.mode_selector.is_none() && !matches!(self.control_policy, ControlPolicy::Alternate(_))
    }

    /// Sets the worker thread count (at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the number of iterations.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Drives clocks from the wall clock, one virtual time unit lasting
    /// `time_unit`.
    pub fn with_real_time(mut self, time_unit: Duration) -> Self {
        self.clock_mode = ClockMode::RealTime { time_unit };
        self
    }

    /// Sets the ring-capacity slack factor (clamped to ≥ 1).
    pub fn with_capacity_slack(mut self, slack: u64) -> Self {
        self.capacity_slack = slack.max(1);
        self
    }

    /// Installs a structured tracing sink (see [`tpdf_trace::Tracer`]).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Tags every trace event of this execution with `tag` (Chrome
    /// export groups tags into processes; 0 = untagged).
    pub fn with_trace_tag(mut self, tag: u32) -> Self {
        self.trace_tag = tag;
        self
    }
}

/// Encodes a [`Mode`] into the 32-bit operand a
/// [`tpdf_trace::EventKind::ModeEmit`] event carries: `WaitAll` = 0,
/// `HighestPriority` = 1, `SelectOne(p)` = `0x100 | p`, and
/// `SelectMany(ps)` = `0x200 | ps.len()` (the port set itself stays in
/// the mode log).
pub fn mode_code(mode: &Mode) -> u32 {
    match mode {
        Mode::WaitAll => 0,
        Mode::HighestPriority => 1,
        Mode::SelectOne(port) => 0x100 | (*port as u32 & 0xFF),
        Mode::SelectMany(ports) => 0x200 | (ports.len() as u32 & 0xFF),
    }
}

/// Below this measured cost per firing, a run keeps one participant:
/// the scheduling cost of distributing a firing (claim CAS, queue
/// traffic, a wake-up) exceeds what parallelism can recover. Heavy
/// kernels — real compute, simulated execution times, I/O waits — stay
/// far above it and parallelise fully. The figure comes from the
/// measured claim/complete overhead (≈ 0.5–1 µs per firing).
const FINE_GRAIN_NS: u64 = 10_000;

/// Firings the telemetry must have covered before it may call a graph
/// fine-grained: a verdict from one short iteration is noise.
const WARM_UP_FIRINGS: u64 = 64;

/// Firing-cost telemetry, fed once per iteration by the barrier: the
/// iteration's wall time × its participant count ÷ its firings, folded
/// into an exponentially weighted moving average (α = 1/8) in
/// nanoseconds. Every firing of an iteration is covered, so a short
/// run weighs its cheap and its heavy nodes alike. An EWMA — not a
/// cumulative mean — so a registry whose kernel weight changes between
/// runs re-classifies within a few iterations instead of being anchored
/// by the whole history.
///
/// The telemetry is shared (`Arc`): it lives on the [`Executor`] so the
/// verdict learned in one run carries into the next, and a
/// [`crate::pool::ExecutorPool`] hands the *same* telemetry to every
/// executor it builds, so the classification survives across executors
/// too — a fine-grained graph learned in run 1 starts run 2 already
/// collapsed to the single-worker fast path, with no re-sampling from
/// scratch.
#[derive(Debug, Default)]
pub(crate) struct CostTelemetry {
    ewma_ns: AtomicU64,
    firings: AtomicU64,
}

impl CostTelemetry {
    /// Folds one iteration's cost per firing into the EWMA (α = 1/8;
    /// the first sample seeds the average). Concurrent runs sharing the
    /// telemetry race only against each other and the estimate is
    /// advisory, so `Relaxed` suffices — a lost update costs one
    /// sample's weight, not correctness.
    fn record(&self, cost_ns: u64, firings: u64) {
        if self.firings.fetch_add(firings, Ordering::Relaxed) == 0 {
            self.ewma_ns.store(cost_ns, Ordering::Relaxed);
        } else {
            let old = self.ewma_ns.load(Ordering::Relaxed);
            self.ewma_ns
                .store(old - old / 8 + cost_ns / 8, Ordering::Relaxed);
        }
    }

    /// Whether the measured firing cost says firings are too cheap to
    /// be worth distributing across workers. Read only where a
    /// participant count is decided: at submit (through
    /// [`Engine::effective_workers`]) and at the iteration barrier.
    fn fine_grained(&self) -> bool {
        self.firings.load(Ordering::Relaxed) >= WARM_UP_FIRINGS
            && self.ewma_ns.load(Ordering::Relaxed) < FINE_GRAIN_NS
    }

    /// The current estimate in nanoseconds, `None` before any sample.
    pub(crate) fn sampled_firing_cost_ns(&self) -> Option<u64> {
        (self.firings.load(Ordering::Relaxed) > 0).then(|| self.ewma_ns.load(Ordering::Relaxed))
    }
}

/// The multi-threaded executor of one TPDF graph.
///
/// # Examples
///
/// ```
/// use tpdf_core::examples::figure2_graph;
/// use tpdf_runtime::executor::{Executor, RuntimeConfig};
/// use tpdf_runtime::kernel::KernelRegistry;
/// use tpdf_symexpr::Binding;
///
/// # fn main() -> Result<(), tpdf_runtime::RuntimeError> {
/// let graph = figure2_graph();
/// let config = RuntimeConfig::new(Binding::from_pairs([("p", 2)]))
///     .with_threads(4)
///     .with_iterations(3);
/// let metrics = Executor::new(&graph, config)?.run(&KernelRegistry::new())?;
/// // q = [2, 2p, p, p, 2p, 2p] with p = 2, three iterations.
/// assert_eq!(metrics.firings, vec![6, 12, 6, 6, 12, 12]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Executor<'g> {
    /// Kept for diagnostics and lifetime-tying to the analysed graph.
    graph: &'g TpdfGraph,
    /// Everything a run needs, owned — the same `Arc` a persistent
    /// [`crate::pool::ExecutorPool`] clones into its long-lived
    /// workers, which is why the engine borrows nothing.
    engine: Arc<Engine>,
}

/// The owned heart of an [`Executor`]: precomputed plans, per-node and
/// per-channel facts, and the worker-loop implementation. Split from
/// the graph-borrowing shell so a [`crate::pool::ExecutorPool`]'s
/// `'static` worker threads can share it through an `Arc`.
#[derive(Debug)]
pub(crate) struct Engine {
    config: RuntimeConfig,
    /// One precomputed execution plan per phase of the binding
    /// sequence; iteration `k` runs plan `min(k, plans.len() - 1)`.
    plans: Vec<Plan>,
    nodes: Vec<NodeInfo>,
    chans: Vec<ChanInfo>,
    /// The mode selector in effect (the control policy wrapped as one,
    /// unless a data-dependent selector is configured).
    selector: Arc<dyn ModeSelector>,
    /// Fallback scan order: control actors first (Section III-D
    /// priority rule), then kernels.
    scan_order: Vec<usize>,
    clock_nodes: Vec<usize>,
    /// Shared firing-cost telemetry (see [`CostTelemetry`]).
    telemetry: Arc<CostTelemetry>,
    /// Reference cost of one iteration in virtual work units: the
    /// maximum over the binding sequence's phases of Σ repetition
    /// count × execution time — what admission control compares
    /// against a deadline period.
    cost_units: u64,
    /// The shortest Clock period in the graph, if any — under
    /// [`ClockMode::RealTime`] one iteration must complete within it.
    min_clock_period: Option<u64>,
    /// Liveness counters for external watchdogs (see
    /// [`ProgressBeacon`]); shared by every run of this compilation
    /// through the engine `Arc`, so it survives checkpoint/migrate.
    beacon: ProgressBeacon,
}

impl<'g> Executor<'g> {
    /// Builds an executor: checks consistency, concretises rates and
    /// sizes every ring — data rings from a reference `tpdf-sim`
    /// execution, control rings from their per-iteration production.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Analysis`] when the graph is inconsistent
    /// or the binding incomplete, and propagates any error of the
    /// reference sizing run.
    pub fn new(graph: &'g TpdfGraph, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Self::with_telemetry(graph, config, Arc::new(CostTelemetry::default()))
    }

    /// Builds an executor whose firing-cost telemetry is shared with
    /// the caller — how [`crate::pool::ExecutorPool::executor`] makes
    /// granularity classification survive across executors.
    pub(crate) fn with_telemetry(
        graph: &'g TpdfGraph,
        config: RuntimeConfig,
        telemetry: Arc<CostTelemetry>,
    ) -> Result<Self, RuntimeError> {
        Ok(Executor {
            graph,
            engine: Arc::new(Engine::new(graph, config, telemetry)?),
        })
    }

    /// The graph this executor runs.
    pub fn graph(&self) -> &'g TpdfGraph {
        self.graph
    }

    /// The initial ring capacity of every channel. Data rings are
    /// sized from the reference high-water marks times the slack;
    /// control rings from their per-iteration production (an exact
    /// occupancy bound). Under a binding sequence this is the first
    /// iteration's sizing — see
    /// [`Executor::capacities_for_iteration`].
    pub fn capacities(&self) -> &[u64] {
        &self.engine.plans[0].capacities
    }

    /// The ring capacities iteration `k` requires (rings grow to the
    /// running maximum of these at the iteration barriers).
    pub fn capacities_for_iteration(&self, iteration: u64) -> &[u64] {
        &self.engine.plans[self.engine.phase_of(iteration)].capacities
    }

    /// The per-iteration repetition count of every node (first
    /// iteration's counts under a binding sequence).
    pub fn repetition_counts(&self) -> &[u64] {
        &self.engine.plans[0].counts
    }

    /// The repetition counts of iteration `k`.
    pub fn repetition_counts_for_iteration(&self, iteration: u64) -> &[u64] {
        &self.engine.plans[self.engine.phase_of(iteration)].counts
    }

    /// The current firing-cost estimate in nanoseconds: an EWMA
    /// (α = 1/8) over the iterations of every `run` on this executor,
    /// each measured at its barrier as wall time × participants ÷
    /// firings, or `None` before the first iteration completed. Feeds
    /// the granularity heuristic that decides whether a graph is worth
    /// distributing across workers.
    pub fn sampled_firing_cost_ns(&self) -> Option<u64> {
        self.engine.telemetry.sampled_firing_cost_ns()
    }

    /// Detaches this executor's owned engine as a [`CompiledExecutor`]:
    /// a `'static`, graph-independent handle that can outlive the
    /// borrowed graph — what [`crate::pool::ExecutorPool::submit`] takes
    /// and what a long-lived service session stores.
    pub fn compile(&self) -> CompiledExecutor {
        CompiledExecutor {
            engine: Arc::clone(&self.engine),
        }
    }

    /// Executes the configured number of iterations and reports
    /// [`Metrics`]: one default [`RunRequest`] submitted to a pool sized
    /// for this call. To run repeatedly without paying the thread
    /// spawns each time, keep a [`crate::pool::ExecutorPool`] and submit
    /// to it directly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::pool::ExecutorPool::submit`].
    pub fn run(&self, registry: &KernelRegistry) -> Result<Metrics, RuntimeError> {
        Ok(self.run_request(registry, None, false)?.metrics)
    }

    /// Like [`Executor::run`], additionally capturing a
    /// barrier-consistent [`Checkpoint`] of the run's final state (the
    /// quiescent cut its last iteration barrier left). Run a *k*-
    /// iteration executor, checkpoint, and hand the checkpoint to an
    /// *N*-iteration executor's [`Executor::run_restored`] to split one
    /// logical run across executors — or processes, through
    /// [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run`].
    pub fn run_checkpointed(
        &self,
        registry: &KernelRegistry,
    ) -> Result<(Metrics, Checkpoint), RuntimeError> {
        let outcome = self.run_request(registry, None, true)?;
        Ok((outcome.metrics, outcome.checkpoint.expect("requested")))
    }

    /// Resumes a checkpointed run mid-graph: rebuilds rings, budgets
    /// and metric prefixes from `checkpoint` and executes the remaining
    /// iterations. The resulting sink streams, mode sequences and
    /// firing counts are byte-identical to a run that never stopped —
    /// across thread counts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run`]; a checkpoint that belongs
    /// to a different graph, disagrees in shape, or leaves nothing to
    /// resume is a [`RuntimeError::Checkpoint`].
    pub fn run_restored(
        &self,
        registry: &KernelRegistry,
        checkpoint: &Checkpoint,
    ) -> Result<Metrics, RuntimeError> {
        Ok(self.run_request(registry, Some(checkpoint), false)?.metrics)
    }

    /// Submits one [`RunRequest`] to a pool built for this one call and
    /// waits: the calling thread is one participant, so the pool spawns
    /// no OS thread for a 1-thread configuration and `threads - 1`
    /// otherwise. How many of them the run engages is `submit`'s
    /// decision.
    fn run_request(
        &self,
        registry: &KernelRegistry,
        resume: Option<&Checkpoint>,
        checkpoint_at_end: bool,
    ) -> Result<RunOutcome, RuntimeError> {
        let request = RunRequest {
            resume,
            checkpoint_at_end,
        };
        ExecutorPool::new(self.engine.config.threads)
            .submit(&self.compile(), registry, request, None)
            .wait()
    }
}

/// What one run does beyond firing to the final iteration barrier of
/// its executor's configuration — the single request value every run
/// goes through ([`crate::pool::ExecutorPool::submit`]). The default
/// starts from the initial state and cuts no checkpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunRequest<'a> {
    /// Resume from this barrier-consistent cut instead of the initial
    /// state.
    pub resume: Option<&'a Checkpoint>,
    /// Capture a [`Checkpoint`] of the quiescent state the final
    /// iteration barrier leaves.
    pub checkpoint_at_end: bool,
}

/// What a successful run leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run's metrics (a resumed run's continue the checkpointed
    /// prefix).
    pub metrics: Metrics,
    /// The cut at the final barrier, when the request asked for one.
    pub checkpoint: Option<Checkpoint>,
}

/// An owned, `'static` executable form of an [`Executor`]: the analysed
/// plans, per-node facts and shared telemetry behind one `Arc`, with no
/// borrow of the source graph. This is what a multi-session service
/// keeps per session — the graph can be dropped after compilation — and
/// what [`crate::pool::ExecutorPool::submit`] runs.
///
/// Cloning is cheap (an `Arc` bump) and clones share telemetry.
#[derive(Debug, Clone)]
pub struct CompiledExecutor {
    engine: Arc<Engine>,
}

impl CompiledExecutor {
    /// The configuration the compiled runs execute under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.engine.config
    }

    /// The per-iteration repetition count of every node (first phase's
    /// counts under a binding sequence).
    pub fn repetition_counts(&self) -> &[u64] {
        &self.engine.plans[0].counts
    }

    /// Reference cost of one iteration in virtual work units (Σ
    /// repetition count × node execution time, maximised over the
    /// phases of the binding sequence). Admission control divides this
    /// by [`CompiledExecutor::min_clock_period`] to estimate the
    /// processor share a deadline-driven session demands.
    pub fn estimated_cost_units(&self) -> u64 {
        self.engine.cost_units
    }

    /// The shortest Clock period in the graph (virtual time units), if
    /// the graph has any Clock watchdog. Under
    /// [`ClockMode::RealTime`] one iteration must complete within it.
    pub fn min_clock_period(&self) -> Option<u64> {
        self.engine.min_clock_period
    }

    /// A point-in-time view of the progress beacon: runs started and
    /// finished, iteration barriers crossed, and time since the last
    /// progress signal. Lock-free; safe to poll from a sampler thread
    /// while runs execute.
    pub fn progress(&self) -> ProgressSnapshot {
        self.engine.beacon.snapshot()
    }

    /// The engine, for the pool's submission path.
    pub(crate) fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

impl Engine {
    /// The plan index of iteration `k`.
    fn phase_of(&self, iteration: u64) -> usize {
        (iteration as usize).min(self.plans.len() - 1)
    }

    /// The participant count a run starts with: one when the telemetry
    /// says the graph is fine-grained (Virtual clocks only — real-time
    /// kernels block on wall-clock work regardless of what the cost
    /// measurements say), the configured count otherwise. Evaluated
    /// once per run, by [`crate::pool::ExecutorPool::submit`]; the
    /// iteration barrier re-decides each later iteration's count.
    pub(crate) fn effective_workers(&self) -> usize {
        if matches!(self.config.clock_mode, ClockMode::Virtual) && self.telemetry.fine_grained() {
            1
        } else {
            self.config.threads
        }
    }

    /// The active tracer, or `None` when tracing costs nothing: the
    /// instrumentation sites branch on this, so with no tracer
    /// installed the cost is a pointer null-check, and with a disabled
    /// tracer one `Relaxed` load plus a branch.
    #[inline]
    pub(crate) fn trace(&self) -> Option<&Tracer> {
        match &self.config.tracer {
            Some(tracer) if tracer.is_enabled() => Some(tracer),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests;
