//! Real-time [`KernelKind::Clock`](tpdf_core::actors::KernelKind)
//! watchdogs: wall-clock tick instants and the tick firing path.

use super::fire::FireScratch;
use super::state::RunState;
use super::{mode_code, Engine};
use crate::token::Token;
use crate::RuntimeError;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tpdf_trace::EventKind;

impl Engine {
    /// The wall-clock instant of real-time clock tick `k` (0-based) of
    /// `node`. Computed in 128-bit nanoseconds: a `Duration * u32`
    /// shortcut would wrap after ~4 G virtual units (minutes to hours
    /// into a fine-grained streaming run).
    fn tick_instant(&self, start: Instant, node: usize, k: u64, unit: Duration) -> Instant {
        let ticks = (k + 1).saturating_mul(self.nodes[node].clock_period);
        let nanos = unit.as_nanos().saturating_mul(ticks as u128);
        let secs = (nanos / 1_000_000_000) as u64;
        let subsec = (nanos % 1_000_000_000) as u32;
        start + Duration::new(secs, subsec)
    }

    /// Time until the earliest pending clock tick, if any clock still
    /// has firings left this iteration.
    pub(super) fn next_tick_in(
        &self,
        state: &RunState,
        start: Instant,
        unit: Duration,
    ) -> Option<Duration> {
        let now = Instant::now();
        self.clock_nodes
            .iter()
            .filter(|&&n| state.nodes[n].budget.load(Ordering::Relaxed) > 0)
            .map(|&n| {
                let tick = self.tick_instant(
                    start,
                    n,
                    state.nodes[n].fired_total.load(Ordering::Relaxed),
                    unit,
                );
                tick.saturating_duration_since(now)
            })
            .min()
    }

    /// Fires one due real-time clock, if any. Returns `true` when a
    /// clock fired (successfully or not).
    pub(super) fn fire_due_clock(
        &self,
        state: &RunState,
        me: usize,
        start: Instant,
        unit: Duration,
        scratch: &mut FireScratch,
    ) -> bool {
        let now = Instant::now();
        for &node in &self.clock_nodes {
            let ns = &state.nodes[node];
            if ns.budget.load(Ordering::Acquire) == 0
                || now
                    < self.tick_instant(start, node, ns.fired_total.load(Ordering::Relaxed), unit)
            {
                continue;
            }
            let fired = self.attempt(state, me, node, scratch, |_| {
                // Re-check under the claim: another worker may have
                // fired this very tick between the check above and the
                // CAS.
                let remaining = ns.budget.load(Ordering::Acquire);
                let tick =
                    self.tick_instant(start, node, ns.fired_total.load(Ordering::Relaxed), unit);
                if remaining == 0 || Instant::now() < tick {
                    return None;
                }
                if let Some(tracer) = self.trace() {
                    // Tick lateness: how long past its wall-clock
                    // deadline this tick actually fired.
                    tracer
                        .histograms()
                        .deadline_slack_ns
                        .record(Instant::now().saturating_duration_since(tick).as_nanos() as u64);
                }
                let plan_idx = state.plan.load(Ordering::Relaxed);
                let ordinal = self.plans[plan_idx].counts[node] - remaining;
                Some(self.fire_clock_claimed(state, node, ordinal, plan_idx, me))
            });
            if fired {
                return true;
            }
        }
        false
    }

    /// Emits a real-time clock tick: control tokens carrying the
    /// selector's mode (and unit markers on any data outputs),
    /// consuming nothing — exactly like the virtual-time engine's tick
    /// handling. Requires the node claim.
    fn fire_clock_claimed(
        &self,
        state: &RunState,
        node: usize,
        ordinal: u64,
        plan_idx: usize,
        me: usize,
    ) -> Result<(), RuntimeError> {
        let info = &self.nodes[node];
        let ns = &state.nodes[node];
        let plan = &self.plans[plan_idx];
        // A real-time tick consumes nothing, so a data-dependent
        // selector sees an empty input slice.
        let mode = self
            .selector
            .select(ns.control_firings.load(Ordering::Relaxed), &[]);
        for &chan in &info.control_outputs {
            let rate = plan.prod_rate(chan, ordinal);
            state.control_ring(chan).push_clones(&mode, rate as usize)?;
            state.tokens_pushed[chan].fetch_add(rate, Ordering::Relaxed);
        }
        for &chan in &info.data_outputs {
            let rate = plan.prod_rate(chan, ordinal);
            state
                .data_ring(chan)
                .push_clones(&Token::Unit, rate as usize)?;
            state.tokens_pushed[chan].fetch_add(rate, Ordering::Relaxed);
        }
        if !info.control_outputs.is_empty() {
            if let Some(tracer) = self.trace() {
                tracer.event(
                    me,
                    EventKind::ModeEmit,
                    state.trace_job,
                    node as u64,
                    mode_code(&mode) as u64,
                    ns.control_firings.load(Ordering::Relaxed),
                );
            }
            state.mode_log[node]
                .lock()
                .expect("mode log lock")
                .push(mode);
        }
        ns.control_firings.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
