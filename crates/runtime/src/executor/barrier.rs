//! The iteration barrier: flush, measure, rebind, re-decide the
//! participant count, republish — or finish.

use super::state::{ChannelRing, RunState};
use super::{ClockMode, Engine};
use crate::arena::SlabArena;
use crate::metrics::RebindEvent;
use crate::token::Token;
use std::sync::atomic::Ordering;
use tpdf_trace::EventKind;

impl Engine {
    /// When every node has completed its repetition count: flush
    /// rejected channels, measure the iteration's firing cost, apply a
    /// pending parameter rebinding, decide the next iteration's
    /// participant count, advance (or finish) the iteration. Runs on
    /// the worker that completed the iteration's last firing — every
    /// budget is exhausted (zero), so no claim can race with the flush,
    /// the plan switch or the ring growth; the `Release` budget
    /// republication is what publishes all of them to the next
    /// claimants.
    ///
    /// TPDF changes parameters only at iteration boundaries, and the
    /// degree of parallelism follows the same rule: this is the one
    /// place a running job's participant count changes. Returns whether
    /// it lowered the count: the attempt that ran the barrier then
    /// wakes every parked participant, so the ones above the new count
    /// stand down.
    pub(super) fn iteration_barrier(
        &self,
        state: &RunState,
        me: usize,
        arena: &mut SlabArena<Token>,
    ) -> bool {
        let tracer = self.trace();
        // The iteration index being finished (0-based), for the trace
        // events bracketing the barrier.
        let finishing = state.iteration.load(Ordering::Relaxed);
        if let Some(t) = tracer {
            t.event(
                me,
                EventKind::BarrierEnter,
                state.trace_job,
                0,
                0,
                finishing,
            );
        }
        // Flush data channels whose consuming (controlled) port was
        // rejected for the whole iteration back to their initial state.
        for (i, info) in self.chans.iter().enumerate() {
            if info.is_control {
                continue;
            }
            let consumed = state.selected[i].swap(false, Ordering::Relaxed);
            if !info.target_controlled || consumed {
                continue;
            }
            let ring = state.data_ring(i);
            ring.clear();
            for _ in 0..info.initial_tokens {
                ring.push(Token::Unit)
                    .expect("capacity covers initial tokens");
            }
        }
        // One clock read per iteration: the iteration's wall time ×
        // participants ÷ firings is its cost per firing.
        let now_ns = self.beacon.barrier();
        let since = now_ns.saturating_sub(state.barrier_ns.swap(now_ns, Ordering::Relaxed));
        let participants = state.participants.load(Ordering::Relaxed) as u64;
        let firings = self.plans[state.plan.load(Ordering::Relaxed)]
            .total_per_iter
            .max(1);
        self.telemetry
            .record(since * participants / firings, firings);
        let finished = state.iteration.fetch_add(1, Ordering::Relaxed) + 1;
        let mut lowered = false;
        if finished >= self.config.iterations {
            self.complete_run(state);
        } else {
            // Rebind: switch the plan and grow any ring the new phase
            // needs larger. Rate consistency returns every channel to
            // its initial occupancy at the boundary, so growth moves at
            // most `initial_tokens` live elements per ring.
            let next = self.phase_of(finished);
            if next != state.plan.load(Ordering::Relaxed) {
                let plan = &self.plans[next];
                for (i, &cap) in plan.capacities.iter().enumerate() {
                    let old = match &state.rings[i] {
                        // A grown data ring's retired slot array goes
                        // into this worker's arena as an ordinary slab
                        // instead of back to the allocator.
                        ChannelRing::Data(ring) => {
                            let (old, retired) = ring.grow_reclaim(cap as usize);
                            if let Some(storage) = retired {
                                arena.recycle(storage);
                            }
                            old
                        }
                        ChannelRing::Control(ring) => ring.grow(cap as usize),
                    };
                    if old < cap as usize {
                        if let Some(t) = tracer {
                            t.event(
                                me,
                                EventKind::RingGrow,
                                state.trace_job,
                                i as u64,
                                old as u64,
                                cap,
                            );
                        }
                    }
                }
                state.plan.store(next, Ordering::Relaxed);
                if let Some(t) = tracer {
                    t.event(
                        me,
                        EventKind::PlanSwitch,
                        state.trace_job,
                        next as u64,
                        0,
                        finished,
                    );
                }
                let capacities = state.rings.iter().map(ChannelRing::capacity).collect();
                state
                    .rebinds
                    .lock()
                    .expect("rebind lock")
                    .push(RebindEvent {
                        iteration: finished,
                        binding: plan.binding.clone(),
                        counts: plan.counts.clone(),
                        capacities,
                    });
            }
            let plan = &self.plans[self.phase_of(finished)];
            state
                .remaining_iter
                .store(plan.total_per_iter, Ordering::Relaxed);
            for (n, ns) in state.nodes.iter().enumerate() {
                ns.budget.store(plan.counts[n], Ordering::Release);
            }
            // Re-decide the participant count (Virtual clocks only, as
            // at submit). Surplus participants leave at their next loop
            // pass — parked ones once woken; a raise asks the pool for
            // more.
            let slots = state.queues.len();
            if slots > 1 && matches!(self.config.clock_mode, ClockMode::Virtual) {
                let next = if self.telemetry.fine_grained() {
                    1
                } else {
                    slots
                };
                let before = state.participants.swap(next, Ordering::Relaxed);
                lowered = next < before;
                if next > before {
                    if let Some(widen) = &state.on_widen {
                        widen(next - before);
                    }
                }
            }
        }
        if let Some(t) = tracer {
            t.event(
                me,
                EventKind::BarrierExit,
                state.trace_job,
                0,
                (finished >= self.config.iterations) as u64,
                finishing,
            );
        }
        lowered
    }
}
