//! Execution statistics reported by the runtime.

use crate::executor::PlacementPolicy;
use std::time::Duration;
use tpdf_core::graph::{ChannelId, NodeId, TpdfGraph};
use tpdf_core::mode::Mode;
use tpdf_symexpr::Binding;

/// One deadline decision taken by a clock-driven Transaction kernel
/// (the runtime analogue of `tpdf_sim::DeadlineOutcome`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineSelection {
    /// The Transaction kernel.
    pub transaction: NodeId,
    /// The data input whose result was selected, or `None` when the
    /// deadline arrived before any result (a deadline miss).
    pub selected_channel: Option<ChannelId>,
    /// Priority of the selected input (higher is better).
    pub selected_priority: Option<u32>,
    /// Wall-clock offset of the firing from the start of the run.
    pub at: Duration,
}

/// One parameter rebinding applied at an iteration barrier: the paper
/// allows `p` to change between (never within) iterations, and the
/// executor re-derives repetition counts and ring capacities when it
/// does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebindEvent {
    /// The iteration that started under the new binding (0-based).
    pub iteration: u64,
    /// The effective binding from that iteration on.
    pub binding: Binding,
    /// The repetition counts the new binding implies (indexed by
    /// [`NodeId`]).
    pub counts: Vec<u64>,
    /// The ring capacities in effect after the rebind (indexed by
    /// [`ChannelId`]); rings only ever grow.
    pub capacities: Vec<u64>,
}

/// Aggregate statistics of one runtime execution.
///
/// A checkpoint embeds it as text through [`Metrics::to_snapshot`] /
/// [`Metrics::from_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Complete graph iterations executed.
    pub iterations: u64,
    /// Worker threads configured.
    pub threads: usize,
    /// Participation slots the run started with, decided once at
    /// submit: 1 when the firing-cost telemetry had already classified
    /// the graph fine-grained (the single-worker fast path), the
    /// configured (pool-clamped) count otherwise. A reused
    /// [`crate::pool::ExecutorPool`] whose telemetry classified the
    /// graph in an earlier run starts follow-up runs collapsed —
    /// visible here as `effective_workers == 1` with `threads > 1`.
    /// Within those slots, each iteration barrier re-decides how many
    /// participants the next iteration runs with.
    pub effective_workers: usize,
    /// The placement policy the run executed under.
    pub placement: PlacementPolicy,
    /// Total firings of each node (indexed by [`NodeId`]).
    pub firings: Vec<u64>,
    /// Tokens pushed onto each channel (indexed by [`ChannelId`]);
    /// control channels count control tokens.
    pub tokens_pushed: Vec<u64>,
    /// Highest observed occupancy of each channel.
    pub channel_high_water: Vec<u64>,
    /// Configured ring capacity of each channel: data rings are sized
    /// from the reference high-water marks times the slack factor,
    /// control rings from their per-iteration production (an exact
    /// occupancy bound).
    pub channel_capacity: Vec<u64>,
    /// Sum of [`Metrics::tokens_pushed`].
    pub total_tokens: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// [`Metrics::total_tokens`] per second of [`Metrics::elapsed`].
    pub tokens_per_sec: f64,
    /// Clock-driven Transaction firings that found no input available at
    /// their real-time deadline.
    pub deadline_misses: u64,
    /// Transaction votes that failed to reach the required agreement.
    pub vote_failures: u64,
    /// Every deadline decision taken by clock-driven Transactions, in
    /// firing order.
    pub deadline_selections: Vec<DeadlineSelection>,
    /// The modes each node emitted on its control outputs, one entry
    /// per firing, in firing order (indexed by [`NodeId`]; empty for
    /// nodes without control outputs). Cross-validation compares these
    /// against `tpdf-sim`'s `SimulationReport::mode_sequences`.
    pub mode_sequences: Vec<Vec<Mode>>,
    /// Firings completed by each worker (indexed by worker; length =
    /// [`Metrics::effective_workers`]).
    pub worker_firings: Vec<u64>,
    /// Firings each worker acquired across the placement boundary:
    /// hints popped from a foreign queue under
    /// [`PlacementPolicy::WorkStealing`], plus foreign-home nodes fired
    /// by a starved worker under [`PlacementPolicy::Affinity`].
    pub worker_steals: Vec<u64>,
    /// Every parameter rebinding applied at an iteration barrier, in
    /// iteration order (empty without a binding sequence).
    pub rebinds: Vec<RebindEvent>,
    /// Core-pinning outcome of the pool the run executed on, indexed by
    /// *pool* worker (not per-job participant): `Some(core)` for a
    /// worker the `core-pinning` feature pinned to a CPU core, `None`
    /// for an unpinned worker (the calling thread of a non-detached
    /// pool is never pinned).
    pub pinned_cores: Vec<Option<usize>>,
    /// Slab-arena requests served from a worker freelist without
    /// touching the allocator, summed over all workers.
    pub arena_hits: u64,
    /// Slab-arena requests that fell back to the global allocator
    /// (cold start, or first firings after a plan switch).
    pub arena_misses: u64,
    /// Firing slabs returned to a worker freelist for reuse.
    pub arena_recycled: u64,
    /// Firing slabs dropped because their capacity class was already
    /// full (retention bound).
    pub arena_retired: u64,
}

impl Metrics {
    /// Firing count of the named node.
    pub fn firings_of(&self, graph: &TpdfGraph, name: &str) -> Option<u64> {
        graph.node_by_name(name).map(|id| self.firings[id.0])
    }

    /// Per-actor firing rate in firings per second.
    pub fn firings_per_sec(&self) -> f64 {
        let total: u64 = self.firings.iter().sum();
        if self.elapsed.is_zero() {
            return 0.0;
        }
        total as f64 / self.elapsed.as_secs_f64()
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} iterations on {} threads in {:?}: {} tokens ({:.0} tokens/s, {:.0} firings/s), {} deadline misses",
            self.iterations,
            self.threads,
            self.elapsed,
            self.total_tokens,
            self.tokens_per_sec,
            self.firings_per_sec(),
            self.deadline_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdf_core::examples::figure2_graph;

    fn sample() -> Metrics {
        Metrics {
            iterations: 2,
            threads: 4,
            effective_workers: 4,
            placement: PlacementPolicy::WorkStealing,
            firings: vec![4, 8, 4, 4, 8, 8],
            tokens_pushed: vec![10; 7],
            channel_high_water: vec![4; 7],
            channel_capacity: vec![8; 7],
            total_tokens: 70,
            elapsed: Duration::from_millis(500),
            tokens_per_sec: 140.0,
            deadline_misses: 1,
            vote_failures: 0,
            deadline_selections: Vec::new(),
            mode_sequences: vec![Vec::new(); 6],
            worker_firings: vec![9, 9, 9, 9],
            worker_steals: vec![0; 4],
            rebinds: Vec::new(),
            pinned_cores: Vec::new(),
            arena_hits: 30,
            arena_misses: 6,
            arena_recycled: 30,
            arena_retired: 0,
        }
    }

    #[test]
    fn firings_lookup_by_name() {
        let g = figure2_graph();
        let m = sample();
        assert_eq!(m.firings_of(&g, "B"), Some(8));
        assert_eq!(m.firings_of(&g, "nope"), None);
    }

    #[test]
    fn rates_and_summary() {
        let m = sample();
        assert!((m.firings_per_sec() - 72.0).abs() < 1e-9);
        let s = m.summary();
        assert!(s.contains("2 iterations"));
        assert!(s.contains("4 threads"));
        assert!(s.contains("1 deadline misses"));
    }
}
