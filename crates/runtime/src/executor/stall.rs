//! Progress and its absence: the park/wake protocol, run teardown
//! (failure, cancellation), stall detection with its post-mortem,
//! and the liveness beacon external watchdogs poll.

use super::state::RunState;
use super::{ClockMode, Engine};
use crate::RuntimeError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tpdf_trace::EventKind;

/// Flight-recorder events a stall error dumps into its diagnostics —
/// enough to see the last few firings and the park/wake churn leading
/// into the stall, small enough to keep the error message bounded.
pub const STALL_DUMP_EVENTS: usize = 32;

/// Liveness counters an external watchdog can poll without touching
/// the hot path: runs started/finished and iteration barriers crossed,
/// plus a coarse "last progress" timestamp. Barriers are the natural
/// progress grain — every firing budget of an iteration was exhausted
/// to reach one — so "no barrier within a budget while a run is in
/// flight" is exactly the stall signal the PR 6 stall dump keys on,
/// made observable instead of fatal.
///
/// All stores are `Relaxed`: the beacon is advisory telemetry, ordered
/// only with itself, and adds one `Instant::now` per *iteration* (not
/// per firing) to the barrier.
#[derive(Debug)]
pub(crate) struct ProgressBeacon {
    /// Construction time; progress timestamps are nanoseconds since
    /// this epoch (0 = never), so one `AtomicU64` carries them.
    epoch: Instant,
    barriers: AtomicU64,
    runs_started: AtomicU64,
    runs_finished: AtomicU64,
    last_progress_ns: AtomicU64,
}

impl ProgressBeacon {
    pub(super) fn new() -> Self {
        ProgressBeacon {
            epoch: Instant::now(),
            barriers: AtomicU64::new(0),
            runs_started: AtomicU64::new(0),
            runs_finished: AtomicU64::new(0),
            last_progress_ns: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        // `max(1)` keeps 0 reserved for "no progress ever".
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    fn touch(&self) {
        self.last_progress_ns
            .store(self.now_ns(), Ordering::Relaxed);
    }

    pub(super) fn barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    pub(super) fn run_started(&self) {
        self.runs_started.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    pub(super) fn run_finished(&self) {
        self.runs_finished.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    pub(super) fn snapshot(&self) -> ProgressSnapshot {
        let last = self.last_progress_ns.load(Ordering::Relaxed);
        ProgressSnapshot {
            barriers: self.barriers.load(Ordering::Relaxed),
            runs_started: self.runs_started.load(Ordering::Relaxed),
            runs_finished: self.runs_finished.load(Ordering::Relaxed),
            since_progress: if last == 0 {
                None
            } else {
                Some(Duration::from_nanos(self.now_ns().saturating_sub(last)))
            },
        }
    }
}

/// A point-in-time view of a [`super::CompiledExecutor`]'s progress beacon —
/// what `tpdf-ops`' stall watchdog polls. `since_progress` is `None`
/// until the executor has run at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSnapshot {
    /// Iteration barriers crossed over the executor's lifetime (all
    /// runs, all sessions sharing the compilation).
    pub barriers: u64,
    /// Runs entered (fresh or restored from a checkpoint).
    pub runs_started: u64,
    /// Runs whose metrics were collected (successful or failed).
    pub runs_finished: u64,
    /// Wall-clock time since the last progress signal (run start,
    /// barrier, or run finish); `None` before the first run.
    pub since_progress: Option<Duration>,
}

impl Engine {
    /// Publishes progress: bumps the epoch unconditionally (the stall
    /// protocol depends on it) and wakes one parked worker when there
    /// is surplus work. Completion chains with no surplus continue on
    /// the completing worker alone — waking peers for work this worker
    /// is about to take itself only burns context switches (ruinous on
    /// few-core hosts); parked workers additionally rescan on their
    /// stall timeout, so a skipped wake-up can delay stealing but never
    /// block progress.
    pub(super) fn signal_progress(&self, state: &RunState, surplus: bool) {
        state.epoch.fetch_add(1, Ordering::SeqCst);
        if surplus && !self.fine_grained() && state.parked.load(Ordering::SeqCst) > 0 {
            // Passing through the mutex pairs with a parker that checked
            // the epoch but has not yet blocked on the condvar.
            drop(state.park.lock().expect("park lock"));
            if self.config.placement.is_affinity() {
                // A hint may have been routed to a specific parked home
                // worker; notify_one could wake a different one, which
                // would yield through its starvation window before
                // crossing the boundary. Waking everyone lets the home
                // worker claim its hint immediately.
                state.cond.notify_all();
            } else {
                state.cond.notify_one();
            }
        }
    }

    /// Parks an idle worker — or reports a stall.
    ///
    /// Stall soundness: `epoch` was captured before the failed hunt for
    /// work. If it is still unchanged here, no firing has completed
    /// since, so the hunt's "nothing claimable" verdict still describes
    /// the current state; if additionally `in_flight == 0`, no worker
    /// is attempting or holding a claim (attempts bracket `in_flight`),
    /// and if no real-time clock tick is pending either, the graph can
    /// never make progress again.
    pub(super) fn park(&self, state: &RunState, me: usize, epoch: u64, start: Instant) {
        state.parked.fetch_add(1, Ordering::SeqCst);
        let guard = state.park.lock().expect("park lock");
        let stale = state.epoch.load(Ordering::SeqCst) != epoch;
        if !stale && !state.halt.load(Ordering::SeqCst) {
            let next_tick = match &self.config.clock_mode {
                ClockMode::RealTime { time_unit } => self.next_tick_in(state, start, *time_unit),
                ClockMode::Virtual => None,
            };
            if state.in_flight.load(Ordering::SeqCst) == 0 && next_tick.is_none() {
                let mut guard = guard;
                if guard.error.is_none() {
                    guard.error = Some(self.stall_error(state));
                }
                state.halt.store(true, Ordering::SeqCst);
                drop(guard);
                state.cond.notify_all();
            } else {
                let timeout = next_tick.unwrap_or(self.config.stall_timeout);
                let tracer = self.trace();
                if let Some(t) = tracer {
                    t.event(me, EventKind::Park, state.trace_job, 0, 0, 0);
                }
                drop(
                    state
                        .cond
                        .wait_timeout(guard, timeout)
                        .expect("park lock")
                        .0,
                );
                if let Some(t) = tracer {
                    t.event(me, EventKind::Wake, state.trace_job, 0, 0, 0);
                }
            }
        }
        state.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Records a fatal error and halts the pool.
    pub(crate) fn fail(&self, state: &RunState, error: RuntimeError) {
        let mut park = state.park.lock().expect("park lock");
        if park.error.is_none() {
            park.error = Some(error);
        }
        state.halt.store(true, Ordering::SeqCst);
        drop(park);
        state.cond.notify_all();
    }

    /// Cancels the run: like [`Engine::fail`] with
    /// [`RuntimeError::Cancelled`], except that a run which already
    /// *completed* keeps its outcome — `done` is set (under the same
    /// park lock) by the final iteration barrier, so a cancellation
    /// racing normal completion can never turn a finished run's
    /// `Ok(Metrics)` into `Err(Cancelled)`, however late the metrics
    /// collection itself happens.
    pub(crate) fn cancel_run(&self, state: &RunState) {
        let mut park = state.park.lock().expect("park lock");
        if park.done {
            return;
        }
        if park.error.is_none() {
            park.error = Some(RuntimeError::Cancelled);
        }
        state.halt.store(true, Ordering::SeqCst);
        drop(park);
        state.cond.notify_all();
    }

    /// Names of nodes with remaining firings, for stall diagnostics.
    fn blocked_names(&self, state: &RunState) -> Vec<String> {
        self.scan_order
            .iter()
            .filter(|&&n| state.nodes[n].budget.load(Ordering::Relaxed) > 0)
            .map(|&n| self.nodes[n].name.to_string())
            .collect()
    }

    /// Builds the [`RuntimeError::Stalled`] for a proven stall,
    /// recording a [`EventKind::Stall`] marker and attaching the
    /// per-node budget breakdown plus the flight-recorder tail.
    pub(super) fn stall_error(&self, state: &RunState) -> RuntimeError {
        let iteration = state.iteration.load(Ordering::Relaxed);
        if let Some(tracer) = self.trace() {
            tracer.control_event(EventKind::Stall, state.trace_job, 0, 0, iteration);
        }
        RuntimeError::Stalled {
            blocked: self.blocked_names(state),
            iteration,
            diagnostics: self.stall_diagnostics(state),
        }
    }

    /// Renders the stall post-mortem: one line per node with firings
    /// remaining, then the last [`STALL_DUMP_EVENTS`] flight-recorder
    /// events. The tail is read from the tracer even when recording is
    /// currently disabled — its rings still hold the recent past.
    fn stall_diagnostics(&self, state: &RunState) -> String {
        use std::fmt::Write;
        let plan = &self.plans[state.plan.load(Ordering::Relaxed)];
        let mut out = String::new();
        for &n in &self.scan_order {
            let remaining = state.nodes[n].budget.load(Ordering::Relaxed);
            if remaining > 0 {
                let _ = writeln!(
                    out,
                    "  node {n} ({}): {remaining} of {} firings remaining",
                    self.nodes[n].name, plan.counts[n]
                );
            }
        }
        if let Some(tracer) = &self.config.tracer {
            let tail = tracer.recent(STALL_DUMP_EVENTS);
            if !tail.is_empty() {
                let _ = writeln!(out, "  flight recorder tail ({} events):", tail.len());
                for event in &tail {
                    let _ = writeln!(out, "    {}", event.summary());
                }
            }
        }
        out
    }
}
