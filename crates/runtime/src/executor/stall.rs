//! Progress and its absence: the whole coordination protocol — the
//! attempt path that alone writes the progress word, park/wake, run
//! teardown (completion, failure, cancellation), stall detection with
//! its post-mortem — and the liveness beacon external watchdogs poll.

use super::fire::FireScratch;
use super::state::{ParkInner, RunState};
use super::{ClockMode, Engine};
use crate::RuntimeError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;
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
/// per firing) to the barrier — the one clock read the barrier also
/// measures the iteration's firing cost with.
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

    /// `at` in the beacon's nanoseconds, without reading the clock.
    pub(super) fn ns_at(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.epoch).as_nanos() as u64).max(1)
    }

    fn touch(&self) -> u64 {
        let now = self.now_ns();
        self.last_progress_ns.store(now, Ordering::Relaxed);
        now
    }

    /// Counts one barrier and returns its timestamp (see
    /// [`ProgressBeacon::ns_at`]).
    pub(super) fn barrier(&self) -> u64 {
        self.barriers.fetch_add(1, Ordering::Relaxed);
        self.touch()
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

/// One attempt's shares of [`RunState::progress`]: the low half counts
/// open attempts, the high half committed firings (wrapping is
/// harmless — the stall verdict only tests equality over one park).
const OPEN: u64 = 1;
const COMMIT: u64 = 1 << 32;
const OPEN_MASK: u64 = COMMIT - 1;

#[cfg(test)]
type VerdictHook = fn(&Engine, &RunState);

#[cfg(test)]
thread_local! {
    /// Runs inside [`Engine::park`] on the parking thread, under the
    /// park lock, just before the verdict's load of the progress word:
    /// the window in which a racing commit must still be noticed.
    pub(super) static BEFORE_VERDICT: std::cell::Cell<Option<VerdictHook>> =
        const { std::cell::Cell::new(None) };
}

/// Stops the run: records `error` (the first one wins) or, for `None`,
/// completion, and raises `halt` — both under the held park lock —
/// then wakes every parked worker. The one place `halt` is stored and
/// the one teardown notify.
fn halt(state: &RunState, mut park: MutexGuard<'_, ParkInner>, error: Option<RuntimeError>) {
    match error {
        Some(error) => {
            park.error.get_or_insert(error);
        }
        None => park.done = true,
    }
    state.halt.store(true, Ordering::SeqCst);
    drop(park);
    state.cond.notify_all();
}

impl Engine {
    /// The one attempt path, and the only writer of
    /// [`RunState::progress`]: every claim of a firing — a worker's
    /// hunt or a due real-time clock — runs through here.
    ///
    /// Enters (one more open attempt), CASes the node's claim and runs
    /// `body` under it. `body` returns `None` when the firing is not
    /// ready, having changed nothing, and the claim is released;
    /// otherwise the firing is committed, or its error fails the run.
    /// Leaving is one RMW: a commit closes the attempt and counts a
    /// firing together, anything else only closes it. Returns whether
    /// a firing was committed (successfully or not).
    ///
    /// The wake comes after the leave: a parker that saw this attempt
    /// still open holds the park lock until it waits, so passing
    /// through the lock guarantees it is waiting when the notify lands.
    /// Completion chains with no surplus continue on this worker alone
    /// — waking peers for work it is about to take itself only burns
    /// context switches (ruinous on few-core hosts); parked workers
    /// also rescan on their stall timeout.
    pub(super) fn attempt(
        &self,
        state: &RunState,
        me: usize,
        node: usize,
        scratch: &mut FireScratch,
        body: impl FnOnce(&mut FireScratch) -> Option<Result<(), RuntimeError>>,
    ) -> bool {
        state.progress.fetch_add(OPEN, Ordering::SeqCst);
        let ns = &state.nodes[node];
        let claimed = ns
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        let surplus = match claimed.then(|| body(scratch)).flatten() {
            None => {
                if claimed {
                    ns.claimed.store(false, Ordering::Release);
                }
                state.progress.fetch_sub(OPEN, Ordering::SeqCst);
                return false;
            }
            Some(Ok(())) => self.finish_firing(state, me, node, scratch),
            Some(Err(error)) => {
                self.fail(state, error);
                false
            }
        };
        state.progress.fetch_add(COMMIT - OPEN, Ordering::SeqCst);
        if surplus && state.parked.load(Ordering::SeqCst) > 0 {
            drop(state.park.lock().expect("park lock"));
            state.cond.notify_one();
        }
        true
    }

    /// Parks an idle worker — or reports a stall.
    ///
    /// Stall soundness is one invariant of the progress word: state a
    /// claim can observe changes only inside an open attempt, and an
    /// attempt that changed it leaves by counting a commit. `seen` was
    /// loaded before the failed hunt for work. If the word still equals
    /// it with no attempt open, then no attempt was open when `seen`
    /// was loaded and none has committed since — so every "not
    /// claimable" the hunt saw still holds, including a claim CAS lost
    /// to an attempt that has since closed without firing. With no
    /// real-time clock tick pending either, the graph can never make
    /// progress again.
    pub(super) fn park(&self, state: &RunState, me: usize, seen: u64, start: Instant) {
        state.parked.fetch_add(1, Ordering::SeqCst);
        let guard = state.park.lock().expect("park lock");
        #[cfg(test)]
        if let Some(hook) = BEFORE_VERDICT.take() {
            hook(self, state);
        }
        if state.progress.load(Ordering::SeqCst) == seen && !state.halt.load(Ordering::SeqCst) {
            let next_tick = match &self.config.clock_mode {
                ClockMode::RealTime { time_unit } => self.next_tick_in(state, start, *time_unit),
                ClockMode::Virtual => None,
            };
            if seen & OPEN_MASK == 0 && next_tick.is_none() {
                halt(state, guard, Some(self.stall_error(state)));
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

    /// Records a fatal error and halts the run.
    pub(crate) fn fail(&self, state: &RunState, error: RuntimeError) {
        halt(state, state.park.lock().expect("park lock"), Some(error));
    }

    /// Cancels the run: like [`Engine::fail`] with
    /// [`RuntimeError::Cancelled`], except that a run which already
    /// *completed* keeps its outcome — `done` is set (under the same
    /// park lock) by the final iteration barrier, so a cancellation
    /// racing normal completion can never turn a finished run's
    /// `Ok(Metrics)` into `Err(Cancelled)`, however late the metrics
    /// collection itself happens.
    pub(crate) fn cancel_run(&self, state: &RunState) {
        let park = state.park.lock().expect("park lock");
        if !park.done {
            halt(state, park, Some(RuntimeError::Cancelled));
        }
    }

    /// Marks the run complete (the final iteration barrier) and halts it.
    pub(super) fn complete_run(&self, state: &RunState) {
        halt(state, state.park.lock().expect("park lock"), None);
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
