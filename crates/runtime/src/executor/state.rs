//! The mutable state of one run and its three transitions to and
//! from the outside: built fresh, rebuilt from a [`Checkpoint`],
//! captured into one — plus the [`Metrics`] read-out.

use super::Engine;
use crate::arena::ArenaStats;
use crate::checkpoint::{ChannelCheckpoint, ChannelContents, Checkpoint, CheckpointError};
use crate::metrics::{DeadlineSelection, Metrics, RebindEvent};
use crate::ring::RingBuffer;
use crate::token::Token;
use crate::RuntimeError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;
use tpdf_core::mode::Mode;
use tpdf_trace::EventKind;

/// One channel of a running graph: a data ring of tokens or a control
/// ring of modes. Both are lock-free SPSC rings.
#[derive(Debug)]
pub(super) enum ChannelRing {
    Data(RingBuffer<Token>),
    Control(RingBuffer<Mode>),
}

impl ChannelRing {
    pub(super) fn capacity(&self) -> u64 {
        match self {
            ChannelRing::Data(ring) => ring.capacity() as u64,
            ChannelRing::Control(ring) => ring.capacity() as u64,
        }
    }

    fn high_water(&self) -> u64 {
        match self {
            ChannelRing::Data(ring) => ring.high_water() as u64,
            ChannelRing::Control(ring) => ring.high_water() as u64,
        }
    }
}

/// Per-node mutable scheduling state, all atomic.
#[derive(Debug, Default)]
pub(super) struct NodeRunState {
    /// Exclusivity: set while a worker owns this node's next firing.
    pub(super) claimed: AtomicBool,
    /// Set while a hint for this node sits in some ready queue.
    pub(super) queued: AtomicBool,
    /// Firings *remaining* in the current iteration — the claim gate.
    /// Zero while the iteration barrier runs; the barrier's `Release`
    /// republication is what hands the barrier's ring flushes, ring
    /// growth and plan switch to the `Acquire`ing claimant (a claimant
    /// that reads a stale zero simply retires without touching any
    /// ring).
    pub(super) budget: AtomicU64,
    /// Firings completed across the whole run.
    pub(super) fired_total: AtomicU64,
    /// Firing ordinal the mode selector sees (one per control-actor
    /// firing, never reset).
    pub(super) control_firings: AtomicU64,
}

/// Fields behind the park mutex: how the run ended. Written only by
/// the halt path in `stall`.
#[derive(Debug, Default)]
pub(super) struct ParkInner {
    pub(super) error: Option<RuntimeError>,
    pub(super) done: bool,
}

/// All mutable state of one `run`, shared across the worker pool.
pub(crate) struct RunState {
    pub(super) rings: Vec<ChannelRing>,
    pub(super) nodes: Vec<NodeRunState>,
    pub(super) tokens_pushed: Vec<AtomicU64>,
    /// Data channels consumed at least once this iteration (flush rule).
    pub(super) selected: Vec<AtomicBool>,
    /// Index of the active [`Plan`]. Written only by the iteration
    /// barrier, read by claim holders *after* their `Acquire` budget
    /// load — the barrier stores it before republishing budgets, so a
    /// nonzero budget implies a fresh plan index.
    pub(super) plan: AtomicUsize,
    /// Completions remaining in the current iteration; the worker that
    /// decrements it to zero runs the iteration barrier.
    pub(super) remaining_iter: AtomicU64,
    pub(super) iteration: AtomicU64,
    /// The progress word: open claim attempts in the low 32 bits,
    /// committed firings in the high 32. Written only by
    /// `Engine::attempt`; `Engine::park` decides a stall from it.
    pub(super) progress: AtomicU64,
    pub(super) halt: AtomicBool,
    pub(super) parked: AtomicUsize,
    pub(super) deadline_misses: AtomicU64,
    pub(super) vote_failures: AtomicU64,
    /// Participants the current iteration runs with (1 ..= the number
    /// of `queues`). Set at submit and re-decided by each iteration
    /// barrier; a participant whose index is at or above it leaves at
    /// its next loop pass. It publishes no other data; a raise reaches
    /// a hunting pool worker through `on_widen`, which passes through
    /// the pool's slot lock after the store.
    pub(crate) participants: AtomicUsize,
    /// Beacon timestamp of the previous barrier, or of the run's start
    /// (0 until the first participant arrives): the barrier measures
    /// each iteration's firing cost from it.
    pub(super) barrier_ns: AtomicU64,
    /// Called with the number of participants a barrier added, so the
    /// pool can wake that many hunting workers.
    pub(crate) on_widen: Option<Box<dyn Fn(usize) + Send + Sync>>,
    /// Per-worker ready queues (hints, not obligations: a stale entry
    /// is simply dropped when its claim fails). Under affinity
    /// placement, completions route each hint to the *home worker's*
    /// queue instead of the completing worker's.
    pub(super) queues: Vec<Mutex<VecDeque<usize>>>,
    /// Firings completed per worker (indexed like `queues`).
    pub(super) worker_firings: Vec<AtomicU64>,
    /// Firings a worker acquired across the placement boundary: hints
    /// popped from a foreign queue (work stealing) or foreign-home
    /// nodes fired while starved (affinity).
    pub(super) worker_steals: Vec<AtomicU64>,
    /// Modes emitted per node, one entry per firing. Only the claim
    /// holder of a node appends (firings of one node are serialised),
    /// so the lock is uncontended; it exists to make the Vec shareable.
    pub(super) mode_log: Vec<Mutex<Vec<Mode>>>,
    /// Parameter rebindings applied at iteration barriers.
    pub(super) rebinds: Mutex<Vec<RebindEvent>>,
    /// The rare deadline decisions of clock-driven Transactions.
    pub(super) deadline_selections: Mutex<Vec<DeadlineSelection>>,
    /// Slab-arena traffic summed over the workers' private arenas, each
    /// flushed once when its worker leaves the loop (never per firing).
    pub(super) arena_hits: AtomicU64,
    pub(super) arena_misses: AtomicU64,
    pub(super) arena_recycled: AtomicU64,
    pub(super) arena_retired: AtomicU64,
    /// Job tag stamped on this run's trace events (see
    /// [`RuntimeConfig::trace_tag`]; a pool overwrites 0 with a fresh
    /// tag before starting workers).
    pub(crate) trace_job: u32,
    pub(super) park: Mutex<ParkInner>,
    pub(super) cond: Condvar,
}

impl RunState {
    pub(super) fn data_ring(&self, chan: usize) -> &RingBuffer<Token> {
        match &self.rings[chan] {
            ChannelRing::Data(ring) => ring,
            ChannelRing::Control(_) => unreachable!("data port backed by control ring"),
        }
    }

    pub(super) fn control_ring(&self, chan: usize) -> &RingBuffer<Mode> {
        match &self.rings[chan] {
            ChannelRing::Control(ring) => ring,
            ChannelRing::Data(_) => unreachable!("control port backed by data ring"),
        }
    }

    /// Adds one worker arena's lifetime counters into the run totals.
    pub(super) fn flush_arena(&self, stats: ArenaStats) {
        self.arena_hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.arena_misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.arena_recycled
            .fetch_add(stats.recycled, Ordering::Relaxed);
        self.arena_retired
            .fetch_add(stats.retired, Ordering::Relaxed);
    }
}

impl Engine {
    pub(crate) fn initial_state(&self, workers: usize) -> RunState {
        self.beacon.run_started();
        let plan = &self.plans[0];
        let rings = self
            .chans
            .iter()
            .enumerate()
            .map(|(i, info)| {
                if info.is_control {
                    ChannelRing::Control(RingBuffer::new(
                        info.label.clone(),
                        plan.capacities[i] as usize,
                    ))
                } else {
                    let ring = RingBuffer::new(info.label.clone(), plan.capacities[i] as usize);
                    for _ in 0..info.initial_tokens {
                        ring.push(Token::Unit)
                            .expect("capacity covers initial tokens");
                    }
                    ChannelRing::Data(ring)
                }
            })
            .collect();
        let nodes: Vec<NodeRunState> = (0..self.nodes.len())
            .map(|n| {
                let ns = NodeRunState::default();
                ns.budget.store(plan.counts[n], Ordering::Relaxed);
                ns
            })
            .collect();
        RunState {
            rings,
            nodes,
            tokens_pushed: (0..self.chans.len()).map(|_| AtomicU64::new(0)).collect(),
            selected: (0..self.chans.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            plan: AtomicUsize::new(0),
            remaining_iter: AtomicU64::new(plan.total_per_iter),
            iteration: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            halt: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            deadline_misses: AtomicU64::new(0),
            vote_failures: AtomicU64::new(0),
            participants: AtomicUsize::new(workers.max(1)),
            barrier_ns: AtomicU64::new(0),
            on_widen: None,
            // Hints are deduplicated by the per-node `queued` flag, so
            // all queues together never hold more than one entry per
            // node — reserving that bound up front keeps `VecDeque`
            // growth off the steady-state firing path.
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::with_capacity(self.nodes.len() + 1)))
                .collect(),
            worker_firings: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            worker_steals: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            // Mode logs grow by one entry per control-actor firing;
            // reserving the whole run's worth (bounded, for very long
            // runs) keeps their doubling reallocations out of the
            // steady state too.
            mode_log: (0..self.nodes.len())
                .map(|n| {
                    let per_iter = if self.nodes[n].control_outputs.is_empty() {
                        0
                    } else {
                        self.plans.iter().map(|p| p.counts[n]).max().unwrap_or(0)
                    };
                    let reserve = (per_iter * self.config.iterations).min(1 << 16) as usize;
                    Mutex::new(Vec::with_capacity(reserve))
                })
                .collect(),
            rebinds: Mutex::new(Vec::new()),
            deadline_selections: Mutex::new(Vec::new()),
            arena_hits: AtomicU64::new(0),
            arena_misses: AtomicU64::new(0),
            arena_recycled: AtomicU64::new(0),
            arena_retired: AtomicU64::new(0),
            trace_job: self.config.trace_tag,
            park: Mutex::new(ParkInner::default()),
            cond: Condvar::new(),
        }
    }

    /// Rebuilds a [`RunState`] from a checkpoint, resuming at iteration
    /// `checkpoint.iteration`. Replays the plan switch the
    /// checkpointing run's final barrier skipped (its done-check fires
    /// before the switch): the phase, ring growth, budgets and — when
    /// the phase changed — the [`RebindEvent`] all match what an
    /// uninterrupted run performs at that same barrier.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::GraphMismatch`] / `ShapeMismatch` /
    /// `ChannelKindMismatch` when the checkpoint belongs to a different
    /// graph or compilation; [`CheckpointError::NothingToResume`] when
    /// the configured iteration count is not beyond the checkpoint.
    pub(crate) fn restore_state(
        &self,
        checkpoint: &Checkpoint,
        workers: usize,
    ) -> Result<RunState, CheckpointError> {
        let expected = self.fingerprint();
        if checkpoint.fingerprint != expected {
            return Err(CheckpointError::GraphMismatch {
                expected,
                found: checkpoint.fingerprint,
            });
        }
        if checkpoint.channels.len() != self.chans.len() {
            return Err(CheckpointError::ShapeMismatch {
                what: "channels",
                expected: self.chans.len() as u64,
                found: checkpoint.channels.len() as u64,
            });
        }
        if checkpoint.control_firings.len() != self.nodes.len() {
            return Err(CheckpointError::ShapeMismatch {
                what: "nodes",
                expected: self.nodes.len() as u64,
                found: checkpoint.control_firings.len() as u64,
            });
        }
        let metrics = &checkpoint.metrics;
        for (what, expected, found) in [
            (
                "metrics.firings entries",
                self.nodes.len(),
                metrics.firings.len(),
            ),
            (
                "metrics.mode_sequences entries",
                self.nodes.len(),
                metrics.mode_sequences.len(),
            ),
            (
                "metrics.tokens_pushed entries",
                self.chans.len(),
                metrics.tokens_pushed.len(),
            ),
        ] {
            if found != expected {
                return Err(CheckpointError::ShapeMismatch {
                    what,
                    expected: expected as u64,
                    found: found as u64,
                });
            }
        }
        if checkpoint.iteration >= self.config.iterations {
            return Err(CheckpointError::NothingToResume {
                iteration: checkpoint.iteration,
                configured: self.config.iterations,
            });
        }

        // The phase the *next* iteration runs under. The checkpointing
        // run never switched to it (its final barrier's done-check
        // pre-empts the switch), so the restore performs the switch:
        // rings are sized to at least this phase's plan.
        let phase = self.phase_of(checkpoint.iteration);
        let plan = &self.plans[phase];
        let mut rings = Vec::with_capacity(self.chans.len());
        for (i, info) in self.chans.iter().enumerate() {
            let snap = &checkpoint.channels[i];
            let capacity = (plan.capacities[i] as usize)
                .max(snap.capacity as usize)
                .max(snap.contents.len())
                .max(1);
            let ring = match (&snap.contents, info.is_control) {
                (ChannelContents::Data(tokens), false) => {
                    let ring = RingBuffer::new(info.label.clone(), capacity);
                    for token in tokens {
                        ring.push(token.clone())
                            .expect("capacity covers checkpointed contents");
                    }
                    ChannelRing::Data(ring)
                }
                (ChannelContents::Control(modes), true) => {
                    let ring = RingBuffer::new(info.label.clone(), capacity);
                    for mode in modes {
                        ring.push(mode.clone())
                            .expect("capacity covers checkpointed contents");
                    }
                    ChannelRing::Control(ring)
                }
                _ => {
                    return Err(CheckpointError::ChannelKindMismatch {
                        channel: i,
                        label: info.label.to_string(),
                    })
                }
            };
            rings.push(ring);
        }

        let nodes: Vec<NodeRunState> = (0..self.nodes.len())
            .map(|n| {
                let ns = NodeRunState::default();
                ns.budget.store(plan.counts[n], Ordering::Relaxed);
                ns.fired_total
                    .store(checkpoint.metrics.firings[n], Ordering::Relaxed);
                ns.control_firings
                    .store(checkpoint.control_firings[n], Ordering::Relaxed);
                ns
            })
            .collect();

        // Replay the rebind event the skipped plan switch would have
        // recorded, so the restored run's rebind log is byte-identical
        // to an uninterrupted run's.
        let mut rebinds = checkpoint.metrics.rebinds.clone();
        if checkpoint.iteration > 0 && phase != self.phase_of(checkpoint.iteration - 1) {
            let capacities = rings.iter().map(ChannelRing::capacity).collect();
            rebinds.push(RebindEvent {
                iteration: checkpoint.iteration,
                binding: plan.binding.clone(),
                counts: plan.counts.clone(),
                capacities,
            });
        }

        self.beacon.run_started();
        Ok(RunState {
            rings,
            nodes,
            tokens_pushed: checkpoint
                .metrics
                .tokens_pushed
                .iter()
                .map(|&t| AtomicU64::new(t))
                .collect(),
            selected: (0..self.chans.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            plan: AtomicUsize::new(phase),
            remaining_iter: AtomicU64::new(plan.total_per_iter),
            iteration: AtomicU64::new(checkpoint.iteration),
            progress: AtomicU64::new(0),
            halt: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            deadline_misses: AtomicU64::new(checkpoint.metrics.deadline_misses),
            vote_failures: AtomicU64::new(checkpoint.metrics.vote_failures),
            participants: AtomicUsize::new(workers.max(1)),
            barrier_ns: AtomicU64::new(0),
            on_widen: None,
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::with_capacity(self.nodes.len() + 1)))
                .collect(),
            // Per-worker tallies restart at zero: the restoring pool
            // may have a different worker count, so the partial run's
            // per-worker split is not meaningful here (the per-node
            // `fired_total` carries the cross-restart truth).
            worker_firings: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            worker_steals: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            mode_log: checkpoint
                .metrics
                .mode_sequences
                .iter()
                .map(|modes| Mutex::new(modes.clone()))
                .collect(),
            rebinds: Mutex::new(rebinds),
            deadline_selections: Mutex::new(checkpoint.metrics.deadline_selections.clone()),
            arena_hits: AtomicU64::new(checkpoint.metrics.arena_hits),
            arena_misses: AtomicU64::new(checkpoint.metrics.arena_misses),
            arena_recycled: AtomicU64::new(checkpoint.metrics.arena_recycled),
            arena_retired: AtomicU64::new(checkpoint.metrics.arena_retired),
            trace_job: self.config.trace_tag,
            park: Mutex::new(ParkInner::default()),
            cond: Condvar::new(),
        })
    }

    /// A structural fingerprint of the graph this engine executes: node
    /// names plus channel topology (label, endpoints, control flag,
    /// initial tokens), hashed with the codec's FNV-1a.
    /// Deliberately *excludes* iteration count, thread count, placement
    /// and ring capacities — a checkpoint may be restored under any of
    /// those varying (Kahn determinacy keeps the streams identical);
    /// what it must never be restored into is a different graph.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for node in &self.nodes {
            bytes.extend_from_slice(node.name.as_bytes());
            bytes.push(0xFF);
        }
        for chan in &self.chans {
            bytes.extend_from_slice(chan.label.as_bytes());
            bytes.push(0xFE);
            bytes.extend_from_slice(&(chan.source as u64).to_le_bytes());
            bytes.extend_from_slice(&(chan.target as u64).to_le_bytes());
            bytes.push(chan.is_control as u8);
            bytes.extend_from_slice(&chan.initial_tokens.to_le_bytes());
        }
        crate::codec::checksum(&bytes)
    }

    /// Captures a barrier-consistent [`Checkpoint`] from a *finished*
    /// run's state: every worker has halted, so the rings are quiescent
    /// (the [`RingBuffer::snapshot_contents`] contract) and hold
    /// exactly the inter-iteration tokens the final barrier left.
    /// `metrics` is the run's collected [`Metrics`], embedded so a
    /// restore can rebuild the firing/token/mode/rebind prefixes.
    pub(crate) fn capture_checkpoint(&self, state: &RunState, metrics: &Metrics) -> Checkpoint {
        let iteration = state.iteration.load(Ordering::Relaxed);
        if let Some(t) = self.trace() {
            t.event(
                0,
                EventKind::CheckpointBegin,
                state.trace_job,
                0,
                0,
                iteration,
            );
        }
        let channels: Vec<ChannelCheckpoint> = state
            .rings
            .iter()
            .map(|ring| match ring {
                ChannelRing::Data(ring) => ChannelCheckpoint {
                    capacity: ring.capacity() as u64,
                    contents: ChannelContents::Data(ring.snapshot_contents()),
                },
                ChannelRing::Control(ring) => ChannelCheckpoint {
                    capacity: ring.capacity() as u64,
                    contents: ChannelContents::Control(ring.snapshot_contents()),
                },
            })
            .collect();
        let checkpoint = Checkpoint {
            iteration,
            fingerprint: self.fingerprint(),
            control_firings: state
                .nodes
                .iter()
                .map(|n| n.control_firings.load(Ordering::Relaxed))
                .collect(),
            channels,
            captured: Vec::new(),
            metrics: metrics.clone(),
        };
        if let Some(t) = self.trace() {
            t.event(
                0,
                EventKind::CheckpointEnd,
                state.trace_job,
                checkpoint.channels.len() as u64,
                0,
                iteration,
            );
        }
        checkpoint
    }

    /// Assembles the [`Metrics`] of a finished run. Borrows the state
    /// (locks are cloned out, not consumed) so the persistent pool can
    /// collect from a job its workers still hold an `Arc` to.
    pub(crate) fn collect_metrics(
        &self,
        state: &RunState,
        elapsed: Duration,
        effective_workers: usize,
    ) -> Result<Metrics, RuntimeError> {
        // A failed run still *finished* for liveness purposes — the
        // watchdog distinguishes failure from stall by the error, not
        // by a hung counter.
        self.beacon.run_finished();
        if let Some(error) = &state.park.lock().expect("no worker may panic").error {
            return Err(error.clone());
        }
        let firings: Vec<u64> = state
            .nodes
            .iter()
            .map(|n| n.fired_total.load(Ordering::Relaxed))
            .collect();
        let tokens_pushed: Vec<u64> = state
            .tokens_pushed
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect();
        let channel_high_water: Vec<u64> =
            state.rings.iter().map(ChannelRing::high_water).collect();
        // Final capacities: rings may have grown at rebind barriers.
        let channel_capacity: Vec<u64> = state.rings.iter().map(ChannelRing::capacity).collect();
        let mode_sequences: Vec<Vec<Mode>> = state
            .mode_log
            .iter()
            .map(|log| log.lock().expect("no worker may panic").clone())
            .collect();
        let total_tokens: u64 = tokens_pushed.iter().sum();
        Ok(Metrics {
            iterations: state.iteration.load(Ordering::Relaxed),
            threads: self.config.threads,
            effective_workers,
            placement: self.config.placement,
            firings,
            tokens_pushed,
            channel_high_water,
            channel_capacity,
            total_tokens,
            elapsed,
            tokens_per_sec: if elapsed.is_zero() {
                0.0
            } else {
                total_tokens as f64 / elapsed.as_secs_f64()
            },
            deadline_misses: state.deadline_misses.load(Ordering::Relaxed),
            vote_failures: state.vote_failures.load(Ordering::Relaxed),
            deadline_selections: state
                .deadline_selections
                .lock()
                .expect("no worker may panic")
                .clone(),
            mode_sequences,
            worker_firings: state
                .worker_firings
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            worker_steals: state
                .worker_steals
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            rebinds: state.rebinds.lock().expect("no worker may panic").clone(),
            // The pool's finaliser fills in its pinning record.
            pinned_cores: Vec::new(),
            arena_hits: state.arena_hits.load(Ordering::Relaxed),
            arena_misses: state.arena_misses.load(Ordering::Relaxed),
            arena_recycled: state.arena_recycled.load(Ordering::Relaxed),
            arena_retired: state.arena_retired.load(Ordering::Relaxed),
        })
    }
}
