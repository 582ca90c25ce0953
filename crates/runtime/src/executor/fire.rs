//! The firing path: the two participant loops and the claim →
//! execute → publish pipeline they share.

use super::state::RunState;
use super::{mode_code, ClockMode, Engine};
use crate::arena::{ArenaStats, SlabArena};
use crate::kernel::{
    fire_default, fire_select_duplicate, fire_transaction, FiringContext, KernelRegistry,
    PortInput, PortOutput,
};
use crate::metrics::DeadlineSelection;
use crate::token::Token;
use crate::RuntimeError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tpdf_core::graph::{ChannelId, NodeId};
use tpdf_core::mode::Mode;
use tpdf_trace::{EventKind, TraceEvent};

/// A claimed firing: inputs consumed, ready to compute. Output space
/// was verified before the inputs were popped; the claim holder is the
/// sole producer of its output rings, so the space cannot disappear.
struct Claim {
    node: usize,
    /// Firing ordinal within the iteration (selects cyclo-static rates).
    ordinal_iter: u64,
    /// Firing ordinal across the run (exposed to behaviours).
    ordinal_total: u64,
    /// The plan this firing was claimed under (stable while the claim
    /// is held: a rebind requires this node's budget to reach zero
    /// first).
    plan: usize,
    mode: Mode,
    inputs: Vec<PortInput>,
    deadline_missed: bool,
    /// Record a [`DeadlineSelection`] for this firing.
    record_deadline: bool,
}

/// Per-worker scratch threaded through the firing path: the local
/// firing counter that drives the tracer's 1-in-8 sampling cadence,
/// the cached trace timestamp that unsampled firings stamp their
/// events with — tracing then costs one clock read per *sampled*
/// firing instead of per firing, which is what keeps the flight
/// recorder within its overhead budget on fine-grained graphs — and
/// the worker's memory recycling state: the slab arena its firing
/// slabs cycle through, the spare port-entry containers, and the
/// scalar buffer the mode selector reads from. Together these make a
/// steady-state firing allocation-free.
pub(super) struct FireScratch {
    fired: u64,
    ts_ns: u64,
    /// Sampling cadence of the trace timer as a power-of-two mask
    /// (`fired & mask == 1` samples). Workers use 1-in-8; the
    /// single-worker fast path stretches to 1-in-64 — on
    /// sub-microsecond firings the two clock reads per sample are
    /// themselves a measurable tax.
    sample_mask: u64,
    /// Recycled `Vec<Token>` firing slabs, bucketed by capacity class.
    arena: SlabArena<Token>,
    /// The previous firing's (drained) port containers, reused so the
    /// `Vec<PortInput>`/`Vec<PortOutput>` of a context cost nothing
    /// either.
    spare_inputs: Vec<PortInput>,
    spare_outputs: Vec<PortOutput>,
    /// Idle port entries parked per node, with their shared channel
    /// labels still attached: reusing an entry skips the two `Arc`
    /// refcount round-trips per port per firing that rebuilding one
    /// costs (lazily sized to the node count on first use).
    ports: Vec<NodePorts>,
    /// Reused scalar-view buffer for data-dependent mode selection.
    scalars: Vec<i64>,
    /// Arena counters already emitted as trace events (the
    /// `SlabRecycle`/`SlabMiss` pair rides the sampling cadence and
    /// reports deltas since the previous sampled firing).
    traced: ArenaStats,
}

/// One node's parked port entries (see [`FireScratch::ports`]).
#[derive(Default)]
struct NodePorts {
    inputs: Vec<PortInput>,
    outputs: Vec<PortOutput>,
    /// The node-name handle of the last [`FiringContext`] this worker
    /// built for the node, parked here when the context is dismantled
    /// so the next firing's context skips the clone/drop pair on the
    /// shared `Arc<str>`.
    name: Option<Arc<str>>,
}

impl Default for FireScratch {
    fn default() -> Self {
        FireScratch {
            fired: 0,
            ts_ns: 0,
            sample_mask: 7,
            arena: SlabArena::default(),
            spare_inputs: Vec::new(),
            spare_outputs: Vec::new(),
            ports: Vec::new(),
            scalars: Vec::new(),
            traced: ArenaStats::default(),
        }
    }
}

impl FireScratch {
    /// The parked entries of `node`, growing the table on first touch.
    fn node_ports(&mut self, node: usize) -> &mut NodePorts {
        if self.ports.len() <= node {
            self.ports.resize_with(node + 1, NodePorts::default);
        }
        &mut self.ports[node]
    }
}

impl Engine {
    /// Runs participant `me` of a job until the run halts or the
    /// participant stands down (returning `true`, see
    /// [`Engine::worker_loop`]) — the one place that chooses between
    /// the two loops. A 1-worker Virtual-clock run skips the
    /// coordination layer entirely: no [`Engine::attempt`] (so no claim
    /// CAS, no progress word, no wake traffic), no ready-queue locks —
    /// just claim, execute, publish. This is the path a graph already
    /// known to be fine-grained starts on, whatever the pool size.
    pub(crate) fn participate(
        &self,
        state: &RunState,
        me: usize,
        registry: &KernelRegistry,
        start: Instant,
    ) -> bool {
        // The first participant starts the first iteration's clock.
        let _ = state.barrier_ns.compare_exchange(
            0,
            self.beacon.ns_at(start),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        if state.queues.len() == 1 && matches!(self.config.clock_mode, ClockMode::Virtual) {
            self.run_single(state, registry, start);
            false
        } else {
            self.worker_loop(state, me, registry, start)
        }
    }

    /// The shared worker loop. Returns `true` when the worker *stood
    /// down* because the iteration barrier lowered the participant
    /// count below its index (rather than the run halting): the pool
    /// gives such a worker's participation slot back so it can serve
    /// other jobs — and be re-claimed when a barrier raises the count.
    fn worker_loop(
        &self,
        state: &RunState,
        me: usize,
        registry: &KernelRegistry,
        start: Instant,
    ) -> bool {
        let real_time = matches!(self.config.clock_mode, ClockMode::RealTime { .. });
        let mut scratch = FireScratch::default();
        let stood_down = loop {
            if state.halt.load(Ordering::SeqCst) {
                break false;
            }
            // 1. Real-time clock ticks that are due fire immediately.
            if let ClockMode::RealTime { time_unit } = &self.config.clock_mode {
                if self.fire_due_clock(state, me, start, *time_unit, &mut scratch) {
                    continue;
                }
            }
            // 2. Stand down when the barrier lowered the participant
            //    count below this index. Standing down means
            //    *returning*: on a multi-job pool the thread goes back
            //    to the hunt and serves other queued jobs instead of
            //    napping until this one ends (any participant subset
            //    makes progress). A parked peer may be waiting on work
            //    this participant would have taken: wake it first.
            if me >= state.participants.load(Ordering::Relaxed) {
                if state.parked.load(Ordering::SeqCst) > 0 {
                    drop(state.park.lock().expect("park lock"));
                    state.cond.notify_all();
                }
                break true;
            }
            // The progress word is loaded before looking for work so
            // that an attempt racing with the hunt below is detectable
            // when parking.
            let seen = state.progress.load(Ordering::SeqCst);
            // 3. Ready-queue hint: own queue first, then steal.
            if let Some((node, stolen)) = self.next_hint(state, me) {
                self.try_fire(
                    state,
                    me,
                    node,
                    stolen,
                    registry,
                    start,
                    real_time,
                    &mut scratch,
                );
                continue;
            }
            // 4. Fallback scan over every node.
            let fired = self.scan_order.iter().any(|&node| {
                self.try_fire(
                    state,
                    me,
                    node,
                    false,
                    registry,
                    start,
                    real_time,
                    &mut scratch,
                )
            });
            if fired {
                continue;
            }
            // 5. Nothing claimable anywhere: park (or report a stall).
            self.park(state, me, seen, start);
        };
        state.flush_arena(scratch.arena.stats());
        stood_down
    }

    /// The de-synchronised single-worker loop (Virtual clocks only):
    /// the same claim → execute → publish pipeline as
    /// [`Engine::worker_loop`], with none of the cross-worker
    /// machinery — no [`Engine::attempt`], no ready queues. Token
    /// streams are identical by the determinacy argument; only the
    /// schedule differs.
    fn run_single(&self, state: &RunState, registry: &KernelRegistry, start: Instant) {
        let mut scratch = FireScratch {
            sample_mask: 63,
            ..FireScratch::default()
        };
        'run: loop {
            if state.halt.load(Ordering::Relaxed) {
                break 'run;
            }
            let mut progressed = false;
            for &node in &self.scan_order {
                // Keep firing the same node while it stays claimable:
                // its rings and rate tables are hot.
                while let Some(claim) = self.try_claim_node(state, node, false, &mut scratch) {
                    progressed = true;
                    if let Err(error) =
                        self.execute_traced(state, claim, registry, start, 0, &mut scratch)
                    {
                        self.fail(state, error);
                        break 'run;
                    }
                    // Plain load + store instead of `fetch_*`: this
                    // thread is the only writer of every one of these
                    // counters in the single-worker regime, and the
                    // metrics readers only look after the run joins.
                    // Dropping the four lock-prefixed RMWs saves a
                    // measurable slice of the per-firing overhead.
                    let ns = &state.nodes[node];
                    let budget = ns.budget.load(Ordering::Relaxed);
                    ns.budget.store(budget - 1, Ordering::Relaxed);
                    let fired = ns.fired_total.load(Ordering::Relaxed);
                    ns.fired_total.store(fired + 1, Ordering::Relaxed);
                    let mine = state.worker_firings[0].load(Ordering::Relaxed);
                    state.worker_firings[0].store(mine + 1, Ordering::Relaxed);
                    let left = state.remaining_iter.load(Ordering::Relaxed);
                    state.remaining_iter.store(left - 1, Ordering::Relaxed);
                    if left == 1 {
                        self.iteration_barrier(state, 0, &mut scratch.arena);
                        if state.halt.load(Ordering::Relaxed) {
                            break 'run;
                        }
                    }
                }
            }
            if !progressed {
                // A full scan fired nothing and nothing can be in
                // flight: the graph is stalled.
                let error = self.stall_error(state);
                self.fail(state, error);
                break 'run;
            }
        }
        state.flush_arena(scratch.arena.stats());
    }

    /// Pops a ready hint: own queue front first, then steal from the
    /// other workers' queues. The second tuple field reports whether
    /// the hint was stolen.
    ///
    /// Steals take *half* the victim's queue, not one entry: per-hint
    /// ping-pong between two workers would serialise them on the queue
    /// locks, while batch stealing lets both drain local work and only
    /// meet again every ~k firings.
    fn next_hint(&self, state: &RunState, me: usize) -> Option<(usize, bool)> {
        if let Some(node) = state.queues[me].lock().expect("queue lock").pop_front() {
            state.nodes[node].queued.store(false, Ordering::Release);
            return Some((node, false));
        }
        let workers = state.queues.len();
        for offset in 1..workers {
            let victim = (me + offset) % workers;
            let mut stolen = {
                let mut victim_queue = state.queues[victim].lock().expect("queue lock");
                let keep = victim_queue.len() / 2;
                victim_queue.split_off(keep)
            };
            if let Some(node) = stolen.pop_front() {
                state.nodes[node].queued.store(false, Ordering::Release);
                if !stolen.is_empty() {
                    // The rest stays marked `queued`: it moved into this
                    // worker's queue, it did not leave the queue system.
                    state.queues[me]
                        .lock()
                        .expect("queue lock")
                        .append(&mut stolen);
                }
                return Some((node, true));
            }
        }
        None
    }

    /// Attempts to claim and run one firing of `node` through
    /// [`Engine::attempt`]. Returns `true` when a firing was executed
    /// (successfully or not — errors halt the run). `stolen` marks a
    /// hint popped from a foreign queue, for the per-worker steal
    /// metric.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_fire(
        &self,
        state: &RunState,
        me: usize,
        node: usize,
        stolen: bool,
        registry: &KernelRegistry,
        start: Instant,
        real_time: bool,
        scratch: &mut FireScratch,
    ) -> bool {
        let info = &self.nodes[node];
        if real_time && info.is_clock {
            return false;
        }
        if state.nodes[node].budget.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.attempt(state, me, node, scratch, |scratch| {
            let claim = self.try_claim_node(state, node, real_time, scratch)?;
            if stolen {
                state.worker_steals[me].fetch_add(1, Ordering::Relaxed);
                if let Some(tracer) = self.trace() {
                    tracer.event(me, EventKind::Steal, state.trace_job, node as u64, 0, 0);
                }
            }
            Some(self.execute_traced(state, claim, registry, start, me, scratch))
        })
    }

    /// Executes a claimed firing and publishes its outputs. Shared by
    /// the multi-worker and single-worker paths. Untraced, no firing
    /// reads the clock (the firing-cost telemetry is measured once per
    /// iteration, at the barrier).
    ///
    /// Traced, one firing in eight (one in 64 on the single-worker
    /// path) pays two clock reads (a fresh timestamp plus the duration)
    /// and feeds the shared `firing_ns` histogram that every worker
    /// contends on; the firings in between still emit their event — the
    /// flight-recorder counts stay exact — but as a zero-width slice
    /// stamped with the worker's cached timestamp. The merged log is
    /// timestamp-sorted, so coarse stamps remain monotone per lane.
    fn execute_traced(
        &self,
        state: &RunState,
        claim: Claim,
        registry: &KernelRegistry,
        start: Instant,
        me: usize,
        scratch: &mut FireScratch,
    ) -> Result<(), RuntimeError> {
        scratch.fired += 1;
        let node = claim.node;
        let plan_idx = claim.plan;
        let sampled = scratch.fired & scratch.sample_mask == 1;
        let tracer = self.trace();
        if sampled {
            if let Some(tracer) = tracer {
                scratch.ts_ns = tracer.now_ns();
            }
        }
        let mut tokens: u64 = 0;
        let outcome = self
            .execute(claim, registry, scratch)
            .and_then(|(claim, mut ctx)| {
                if tracer.is_some() {
                    // Data tokens this firing is about to publish (the
                    // slabs are drained into the rings by the publish).
                    tokens = ctx.outputs.iter().map(|o| o.tokens.len() as u64).sum();
                }
                let published =
                    self.publish_outputs(state, &claim, &mut ctx, start, me, &mut scratch.scalars);
                if published.is_ok() {
                    // Return the firing's slabs (consumed input tokens
                    // are dropped here; output slabs were drained into
                    // the rings), park the port entries with their
                    // channel labels still attached, and keep the
                    // emptied containers — the next firing rebuilds
                    // the whole context without touching the allocator
                    // or an `Arc` refcount.
                    scratch.node_ports(node);
                    let FireScratch { arena, ports, .. } = &mut *scratch;
                    let parked = &mut ports[node];
                    for mut input in ctx.inputs.drain(..) {
                        arena.recycle(std::mem::take(&mut input.tokens));
                        parked.inputs.push(input);
                    }
                    for mut output in ctx.outputs.drain(..) {
                        arena.recycle(std::mem::take(&mut output.tokens));
                        parked.outputs.push(output);
                    }
                    parked.name = Some(ctx.node);
                    scratch.spare_inputs = ctx.inputs;
                    scratch.spare_outputs = ctx.outputs;
                }
                published
            });
        if let Some(tracer) = tracer {
            let (ts_ns, dur) = if sampled {
                let started = scratch.ts_ns;
                let ended = tracer.now_ns();
                let dur = ended.saturating_sub(started);
                tracer.histograms().firing_ns.record(dur);
                // Later unsampled firings stamp "after this one".
                scratch.ts_ns = ended;
                (started, dur)
            } else {
                (scratch.ts_ns, 0)
            };
            tracer.event_at(
                ts_ns,
                me,
                EventKind::Firing,
                state.trace_job,
                node as u64,
                plan_idx as u64,
                TraceEvent::pack_firing(dur, tokens),
            );
            if sampled {
                // Arena traffic rides the same 1-in-8 cadence: one
                // event per counter that moved since the last sampled
                // firing, stamped with the cached timestamp.
                let stats = scratch.arena.stats();
                if stats.recycled > scratch.traced.recycled {
                    tracer.event_at(
                        scratch.ts_ns,
                        me,
                        EventKind::SlabRecycle,
                        state.trace_job,
                        node as u64,
                        0,
                        stats.recycled - scratch.traced.recycled,
                    );
                }
                if stats.misses > scratch.traced.misses {
                    tracer.event_at(
                        scratch.ts_ns,
                        me,
                        EventKind::SlabMiss,
                        state.trace_job,
                        node as u64,
                        0,
                        stats.misses - scratch.traced.misses,
                    );
                }
                scratch.traced = stats;
            }
        }
        outcome
    }

    /// Attempts to claim one firing of `node`, consuming its inputs.
    /// Requires the node's `claimed` flag to be held by the caller.
    ///
    /// No rollback is ever needed: while the claim is held this worker
    /// is the unique consumer of the input rings (tokens only
    /// accumulate) and the unique producer of the output rings (free
    /// space only grows), so the checks below cannot be invalidated
    /// between check and commit.
    fn try_claim_node(
        &self,
        state: &RunState,
        node: usize,
        real_time: bool,
        scratch: &mut FireScratch,
    ) -> Option<Claim> {
        let info = &self.nodes[node];
        let ns = &state.nodes[node];
        // The budget gate. Acquire pairs with the barrier's Release
        // republication: a nonzero budget proves the barrier's ring
        // flushes, ring growth and plan switch are visible (a stale
        // zero just retires the attempt). The claim we already hold
        // pairs with the previous holder's release, so the budget can
        // never be a stale value of an *earlier* iteration.
        let remaining = ns.budget.load(Ordering::Acquire);
        if remaining == 0 {
            return None;
        }
        let plan = &self.plans[state.plan.load(Ordering::Relaxed)];
        let ordinal_iter = plan.counts[node] - remaining;

        // 1. Resolve the mode of this firing from the control port.
        let control_need = info
            .control_port
            .map(|cp| plan.cons_rate(cp, ordinal_iter))
            .unwrap_or(0);
        let mode = if control_need > 0 {
            let ring = state.control_ring(info.control_port.expect("need implies port"));
            // All `control_need` tokens must be present (they are
            // popped below); the firing's mode comes from the first.
            if (ring.len() as u64) < control_need {
                return None;
            }
            ring.peek_clone().expect("length checked")
        } else {
            Mode::WaitAll
        };

        // 2. Check the availability of the mode-selected data inputs.
        let port_count = info.data_inputs.len();
        let mut deadline_missed = false;
        let mut hp_choice = None;
        match &mode {
            Mode::HighestPriority => {
                let mut best: Option<(u32, usize)> = None;
                for (port, &chan) in info.data_inputs.iter().enumerate() {
                    let rate = plan.cons_rate(chan, ordinal_iter);
                    if (state.data_ring(chan).len() as u64) < rate {
                        continue;
                    }
                    let priority = self.chans[chan].priority;
                    if best.is_none_or(|(b, _)| priority > b) {
                        best = Some((priority, port));
                    }
                }
                match best {
                    Some((_, port)) => hp_choice = Some(port),
                    None if port_count == 0 => {}
                    None if real_time && info.is_transaction && info.control_from_clock => {
                        // Deadline semantics: the clock token forces the
                        // firing even though no result is ready yet.
                        deadline_missed = true;
                    }
                    None => return None,
                }
            }
            m => {
                for (port, &chan) in info.data_inputs.iter().enumerate() {
                    if !m.selects(port, port_count) {
                        continue;
                    }
                    let rate = plan.cons_rate(chan, ordinal_iter);
                    if (state.data_ring(chan).len() as u64) < rate {
                        return None;
                    }
                }
            }
        }

        // 3. Output space must be free on every output ring.
        for &chan in &info.data_outputs {
            let rate = plan.prod_rate(chan, ordinal_iter);
            if (state.data_ring(chan).free() as u64) < rate {
                return None;
            }
        }
        for &chan in &info.control_outputs {
            let rate = plan.prod_rate(chan, ordinal_iter);
            if (state.control_ring(chan).free() as u64) < rate {
                return None;
            }
        }

        // 4. Commit: pop the control tokens and the selected inputs.
        if control_need > 0 {
            let ring = state.control_ring(info.control_port.expect("need implies port"));
            for _ in 0..control_need {
                ring.pop();
            }
        }
        let controlled = info.control_port.is_some();
        // The port-entry container, the entries themselves (with their
        // channel-label `Arc`s) and the token slabs all come out of the
        // worker's recycling state: nothing here touches the global
        // allocator — or an `Arc` refcount — once the caches are warm.
        let mut inputs = std::mem::take(&mut scratch.spare_inputs);
        debug_assert!(inputs.is_empty());
        scratch.node_ports(node);
        let FireScratch { arena, ports, .. } = scratch;
        let parked = &mut ports[node];
        let mut take = |port: usize, chan: usize| {
            let rate = plan.cons_rate(chan, ordinal_iter) as usize;
            if controlled {
                state.selected[chan].store(true, Ordering::Relaxed);
            }
            let mut slab = arena.take(rate);
            state.data_ring(chan).pop_into(rate, &mut slab);
            let entry = match parked.inputs.iter().position(|p| p.port == port) {
                Some(at) => {
                    let mut entry = parked.inputs.swap_remove(at);
                    entry.tokens = slab;
                    entry
                }
                None => PortInput {
                    port,
                    priority: self.chans[chan].priority,
                    channel: self.chans[chan].label.clone(),
                    tokens: slab,
                },
            };
            inputs.push(entry);
        };
        match &mode {
            Mode::HighestPriority => {
                if let Some(port) = hp_choice {
                    take(port, info.data_inputs[port]);
                }
            }
            m => {
                for (port, &chan) in info.data_inputs.iter().enumerate() {
                    if m.selects(port, port_count) {
                        take(port, chan);
                    }
                }
            }
        }

        Some(Claim {
            node,
            ordinal_iter,
            ordinal_total: ns.fired_total.load(Ordering::Relaxed),
            plan: state.plan.load(Ordering::Relaxed),
            mode,
            inputs,
            deadline_missed,
            record_deadline: info.is_transaction && info.control_from_clock && control_need > 0,
        })
    }

    /// Runs the kernel computation for a claim. Lock-free: only the
    /// claim holder touches the firing's data.
    fn execute(
        &self,
        mut claim: Claim,
        registry: &KernelRegistry,
        scratch: &mut FireScratch,
    ) -> Result<(Claim, FiringContext), RuntimeError> {
        let info = &self.nodes[claim.node];
        let plan = &self.plans[claim.plan];
        let mut outputs = std::mem::take(&mut scratch.spare_outputs);
        debug_assert!(outputs.is_empty());
        scratch.node_ports(claim.node);
        let FireScratch { arena, ports, .. } = scratch;
        let parked = &mut ports[claim.node];
        outputs.extend(info.data_outputs.iter().enumerate().map(|(port, &chan)| {
            let rate = plan.prod_rate(chan, claim.ordinal_iter);
            let tokens = arena.take(rate as usize);
            match parked.outputs.iter().position(|p| p.port == port) {
                Some(at) => {
                    let mut entry = parked.outputs.swap_remove(at);
                    entry.rate = rate;
                    entry.tokens = tokens;
                    entry
                }
                None => PortOutput {
                    port,
                    channel: self.chans[chan].label.clone(),
                    rate,
                    tokens,
                },
            }
        }));
        let mut ctx = FiringContext {
            node: parked.name.take().unwrap_or_else(|| info.name.clone()),
            ordinal: claim.ordinal_total,
            mode: claim.mode.clone(),
            inputs: std::mem::take(&mut claim.inputs),
            outputs,
            deadline_missed: claim.deadline_missed,
            vote_failed: false,
            emitted_mode: None,
        };
        match registry.get(&info.name) {
            Some(behavior) => behavior.fire(&mut ctx)?,
            None if info.is_select_duplicate => fire_select_duplicate(&mut ctx),
            None if info.is_transaction => fire_transaction(&mut ctx, info.votes_required),
            None => fire_default(&mut ctx),
        }
        Ok((claim, ctx))
    }

    /// Publishes the outputs of a finished firing onto its rings and
    /// records its metrics. Still requires the node claim.
    fn publish_outputs(
        &self,
        state: &RunState,
        claim: &Claim,
        ctx: &mut FiringContext,
        start: Instant,
        me: usize,
        scalars: &mut Vec<i64>,
    ) -> Result<(), RuntimeError> {
        let node = claim.node;
        let info = &self.nodes[node];
        let plan = &self.plans[claim.plan];
        let ns = &state.nodes[node];

        for (idx, &chan) in info.data_outputs.iter().enumerate() {
            let rate = plan.prod_rate(chan, claim.ordinal_iter);
            let produced = &mut ctx.outputs[idx].tokens;
            if produced.len() as u64 != rate {
                return Err(RuntimeError::RateMismatch {
                    node: info.name.to_string(),
                    channel: self.chans[chan].label.to_string(),
                    expected: rate,
                    got: produced.len() as u64,
                });
            }
            // The whole slab moves into the ring as one batch.
            state.data_ring(chan).push_from(produced)?;
            // Load + store, not `fetch_add`: a channel's counter is only
            // ever advanced by its unique producing node, and firings of
            // one node are serialised by the claim's release/acquire
            // chain, so the RMW's atomicity buys nothing here.
            let pushed = state.tokens_pushed[chan].load(Ordering::Relaxed);
            state.tokens_pushed[chan].store(pushed + rate, Ordering::Relaxed);
        }

        if !info.control_outputs.is_empty() {
            // Data-dependent control: the mode comes from the firing's
            // consumed values (through the selector), or from the
            // behaviour itself when it called `set_mode`.
            let mode = match ctx.emitted_mode.take() {
                Some(mode) => mode,
                None => {
                    scalars.clear();
                    ctx.input_scalars_into(scalars);
                    self.selector
                        .select(ns.control_firings.load(Ordering::Relaxed), scalars)
                }
            };
            for &chan in &info.control_outputs {
                let rate = plan.prod_rate(chan, claim.ordinal_iter);
                state.control_ring(chan).push_clones(&mode, rate as usize)?;
                let pushed = state.tokens_pushed[chan].load(Ordering::Relaxed);
                state.tokens_pushed[chan].store(pushed + rate, Ordering::Relaxed);
            }
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
        if info.is_control_actor {
            ns.control_firings.fetch_add(1, Ordering::Relaxed);
        }

        if claim.record_deadline {
            let selected = ctx.inputs.first();
            let selection = DeadlineSelection {
                transaction: NodeId(node),
                selected_channel: selected.map(|p| ChannelId(info.data_inputs[p.port])),
                selected_priority: selected.map(|p| p.priority),
                at: start.elapsed(),
            };
            state
                .deadline_selections
                .lock()
                .expect("deadline log lock")
                .push(selection);
        }
        if ctx.deadline_missed {
            state.deadline_misses.fetch_add(1, Ordering::Relaxed);
            if let Some(tracer) = self.trace() {
                tracer.event(
                    me,
                    EventKind::DeadlineMiss,
                    state.trace_job,
                    node as u64,
                    0,
                    0,
                );
            }
        }
        if ctx.vote_failed {
            state.vote_failures.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Commits a published firing: advances the node's counters,
    /// releases the claim, enqueues the affected neighbours and handles
    /// the iteration barrier. Returns whether the hints are worth
    /// waking a parked peer for (see [`Engine::enqueue_candidates`]).
    pub(super) fn finish_firing(
        &self,
        state: &RunState,
        me: usize,
        node: usize,
        scratch: &mut FireScratch,
    ) -> bool {
        let ns = &state.nodes[node];
        // The budget decrement precedes the claim release: the next
        // claimant's successful CAS pairs with the Release below, so it
        // observes this decrement (never a stale larger budget).
        ns.budget.fetch_sub(1, Ordering::Release);
        ns.fired_total.fetch_add(1, Ordering::Relaxed);
        state.worker_firings[me].fetch_add(1, Ordering::Relaxed);
        ns.claimed.store(false, Ordering::Release);
        let surplus = self.enqueue_candidates(state, me, node);
        if state.remaining_iter.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.iteration_barrier(state, me, &mut scratch.arena);
        }
        surplus
    }

    /// Enqueues the nodes whose readiness may have changed onto this
    /// worker's own queue (deduplicated through the per-node `queued`
    /// flag); idle peers steal from it.
    ///
    /// Returns `true` when the queue holds more than this worker will
    /// immediately consume itself — more than one hint — the signal
    /// that waking a parked peer is worthwhile.
    fn enqueue_candidates(&self, state: &RunState, me: usize, node: usize) -> bool {
        let real_time = matches!(self.config.clock_mode, ClockMode::RealTime { .. });
        let mut queued = 0usize;
        // Holding the guard across the loop would serialise against
        // thieves, so each push takes the lock for exactly one entry.
        for &cand in &self.nodes[node].neighbors {
            if real_time && self.nodes[cand].is_clock {
                continue;
            }
            if state.nodes[cand].budget.load(Ordering::Relaxed) == 0 {
                continue;
            }
            if state.nodes[cand]
                .queued
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let mut queue = state.queues[me].lock().expect("queue lock");
            queue.push_back(cand);
            queued = queue.len();
        }
        queued > 1
    }
}
