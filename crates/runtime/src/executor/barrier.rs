//! The iteration barrier: flush, rebind, republish — or finish.

use super::state::{ChannelRing, RunState};
use super::Engine;
use crate::arena::SlabArena;
use crate::metrics::RebindEvent;
use crate::token::Token;
use std::sync::atomic::Ordering;
use tpdf_trace::EventKind;

impl Engine {
    /// When every node has completed its repetition count: flush
    /// rejected channels, apply a pending parameter rebinding, advance
    /// (or finish) the iteration. Runs on the worker that completed the
    /// iteration's last firing — every budget is exhausted (zero), so
    /// no claim can race with the flush, the plan switch or the ring
    /// growth; the `Release` budget republication is what publishes all
    /// of them to the next claimants.
    pub(super) fn iteration_barrier(
        &self,
        state: &RunState,
        me: usize,
        arena: &mut SlabArena<Token>,
    ) {
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
        self.beacon.barrier();
        let finished = state.iteration.fetch_add(1, Ordering::Relaxed) + 1;
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
                let capacities = state
                    .rings
                    .iter()
                    .map(|c| match c {
                        ChannelRing::Data(ring) => ring.capacity() as u64,
                        ChannelRing::Control(ring) => ring.capacity() as u64,
                    })
                    .collect();
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
    }
}
