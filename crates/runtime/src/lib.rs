//! # tpdf-runtime
//!
//! A multi-threaded, token-level execution engine that runs
//! [`tpdf_core::TpdfGraph`]s on **real data** — the step from the
//! analyses and count-level simulators of this workspace to an actual
//! streaming system:
//!
//! | Module | Provides |
//! |--------|----------|
//! | [`token`] | [`token::Token`]: the values flowing through channels (units, scalars, bits, complex samples, shared images, refcounted [`token::TokenBytes`] blocks) |
//! | [`ring`] | [`ring::RingBuffer`]: lock-free SPSC channel rings with batch slab transfer, sized from `tpdf-sim` buffer analysis |
//! | [`arena`] | [`arena::SlabArena`]: per-worker recycled firing slabs, bucketed by capacity class — what makes a steady-state firing allocation-free |
//! | [`kernel`] | [`kernel::KernelBehavior`] / [`kernel::KernelRegistry`]: what each node computes, plus built-in Select-Duplicate, Transaction-with-vote and default semantics |
//! | [`executor`] | [`executor::Executor`] / [`executor::CompiledExecutor`]: the sharded scheduler (per-node atomic claims, per-worker ready queues with work stealing) with control-token mode switching and real-deadline [`tpdf_core::KernelKind::Clock`] watchdogs; [`executor::RunRequest`] / [`executor::RunOutcome`], the one request and outcome of a run |
//! | [`pool`] | [`pool::ExecutorPool`]: the one way to run a graph — [`pool::ExecutorPool::submit`] takes a `RunRequest` (fresh or resumed from a [`checkpoint::Checkpoint`], optionally cut at the final barrier) onto a persistent worker pool: threads spawned once, parked between runs, telemetry carried across runs |
//! | [`checkpoint`] | [`checkpoint::Checkpoint`]: the barrier-consistent cut of a run and its `TPDC` byte format |
//! | [`codec`] | the one envelope (magic, version, tagged fields, FNV-1a checksum), token list writer/reader and bounds-checked [`codec::Reader`] under both `TPDC` checkpoints and `tpdf-net`'s `TPDN` frames |
//! | [`metrics`] | [`metrics::Metrics`]: per-actor firings, tokens/sec, deadline misses, per-worker firing/steal counts |
//! | [`cases`] | the edge-detection, OFDM and FM-radio case studies ported to run end-to-end |
//!
//! Structured tracing: install a [`tpdf_trace::Tracer`] with
//! [`executor::RuntimeConfig::with_tracer`] and every layer — executor
//! firings/steals/barriers, pool job lifecycle, service sessions —
//! records fixed-size events into its per-worker flight-recorder rings
//! (re-exported here as [`Tracer`]).
//!
//! ## Semantics
//!
//! There is one run path. [`Executor::run`] and its two checkpoint
//! wrappers build a pool for the one call and do what every other
//! caller does: `pool.submit(&compiled, &registry, request, None)`,
//! then [`JobTicket::wait`] — which lends the waiting thread as a
//! participant, so a 1-thread run spawns nothing. A service keeps a
//! [`ExecutorPool::detached`] pool and never waits.
//!
//! The executor implements the untimed `tpdf-sim` engine's semantics on
//! a pool of worker threads: kernels fire when their *mode-selected*
//! inputs are ready, control tokens switch modes at run time exactly as
//! in [`tpdf_core::mode`], and channels rejected for a whole iteration
//! are flushed (the paper's dynamic-topology rule). Control is
//! **data-dependent**: a control actor computes the mode it emits from
//! the scalar views of the tokens it consumed, through the shared
//! [`tpdf_core::control::ModeSelector`] contract (a `ControlPolicy` is
//! its data-independent instance), and parameters may be **rebound at
//! iteration boundaries** ([`executor::RuntimeConfig::with_binding_sequence`]),
//! with repetition counts re-derived and channel rings grown in place
//! at the barrier. Because every node is sequential with itself and
//! every channel has a single producer and a single consumer, token
//! streams are deterministic whatever the thread count — which the
//! cross-validation suite and the randomized differential harness
//! exploit to compare the runtime token-for-token (and
//! mode-for-mode) against the reference engine.
//!
//! With [`executor::ClockMode::RealTime`], Clock watchdogs fire at wall-clock
//! deadlines ([`std::time::Instant`]) and a clock-driven Transaction
//! returns the *best result available at the deadline* — the paper's
//! "an average quality result at the right time is far better than an
//! excellent result, later".
//!
//! ## Example
//!
//! ```
//! use tpdf_core::examples::figure2_graph;
//! use tpdf_runtime::{Executor, KernelRegistry, RuntimeConfig};
//! use tpdf_symexpr::Binding;
//!
//! # fn main() -> Result<(), tpdf_runtime::RuntimeError> {
//! let graph = figure2_graph();
//! let config = RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_threads(2);
//! let metrics = Executor::new(&graph, config)?.run(&KernelRegistry::new())?;
//! assert_eq!(metrics.firings, vec![2, 4, 2, 2, 4, 4]);
//! # Ok(())
//! # }
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one place:
// the SPSC slot accesses of `ring`, whose cursor protocol is documented
// there and exercised by a cross-thread property test.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cases;
pub mod checkpoint;
pub mod codec;
pub mod executor;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod ring;
mod snapshot;
pub mod token;

pub use arena::{ArenaStats, SlabArena};
pub use cases::{
    EdgeDetectionRuntime, FmRadioRuntime, OfdmRuntime, OutputCapture, PayloadEncoding,
    PayloadRuntime,
};
pub use checkpoint::{ChannelCheckpoint, ChannelContents, Checkpoint, CheckpointError};
pub use executor::{
    ClockMode, CompiledExecutor, Executor, ProgressSnapshot, RunOutcome, RunRequest, RuntimeConfig,
};
pub use kernel::{FiringContext, KernelBehavior, KernelRegistry};
pub use metrics::{DeadlineSelection, Metrics, RebindEvent};
pub use pool::{ExecutorPool, JobTicket};
pub use ring::RingBuffer;
pub use token::{Token, TokenBytes};
pub use tpdf_trace::Tracer;

use std::fmt;

/// Errors produced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The underlying static analysis (or the reference sizing run)
    /// failed.
    Analysis(String),
    /// An invalid configuration was supplied.
    InvalidConfig(String),
    /// No node can make progress although the iteration is incomplete.
    ///
    /// Never expected: analysis proves every graph `Executor::new`
    /// accepts live for every binding. A `Stalled` therefore reports
    /// either a violated internal invariant of the executor (a bug) or
    /// a restored [`Checkpoint`] whose channel contents contradict the
    /// graph.
    Stalled {
        /// Names of nodes with remaining firings.
        blocked: Vec<String>,
        /// Iteration index at the stall.
        iteration: u64,
        /// Post-mortem detail rendered at the stall site: per-node
        /// remaining firing budgets, and — when a
        /// [`tpdf_trace::Tracer`] is installed — the flight-recorder
        /// tail (the last [`executor::STALL_DUMP_EVENTS`] events).
        /// Empty when no detail is available.
        diagnostics: String,
    },
    /// A ring buffer overflowed (indicates an executor bug — output
    /// space is reserved before firing).
    CapacityExceeded {
        /// Channel label.
        channel: String,
        /// Configured capacity.
        capacity: u64,
    },
    /// A kernel behaviour produced the wrong number of tokens.
    RateMismatch {
        /// Node name.
        node: String,
        /// Channel label.
        channel: String,
        /// Tokens the rate sequence requires.
        expected: u64,
        /// Tokens the behaviour produced.
        got: u64,
    },
    /// A kernel behaviour reported an application error.
    KernelFailed {
        /// Node name.
        node: String,
        /// Error description.
        message: String,
    },
    /// The run was cancelled before completion
    /// ([`pool::JobTicket::cancel`], or the pool was dropped with the
    /// job still queued).
    Cancelled,
    /// A checkpoint could not be decoded or restored (see
    /// [`checkpoint::CheckpointError`]).
    Checkpoint(checkpoint::CheckpointError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid runtime configuration: {msg}"),
            RuntimeError::Stalled {
                blocked,
                iteration,
                diagnostics,
            } => {
                write!(
                    f,
                    "runtime stalled in iteration {iteration}; blocked nodes: {}",
                    blocked.join(", ")
                )?;
                if !diagnostics.is_empty() {
                    write!(f, "\n{}", diagnostics.trim_end())?;
                }
                Ok(())
            }
            RuntimeError::CapacityExceeded { channel, capacity } => {
                write!(f, "ring {channel} overflowed its capacity of {capacity}")
            }
            RuntimeError::RateMismatch {
                node,
                channel,
                expected,
                got,
            } => write!(
                f,
                "kernel {node} produced {got} tokens on {channel}, rate requires {expected}"
            ),
            RuntimeError::KernelFailed { node, message } => {
                write!(f, "kernel {node} failed: {message}")
            }
            RuntimeError::Cancelled => write!(f, "run cancelled before completion"),
            RuntimeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<checkpoint::CheckpointError> for RuntimeError {
    fn from(value: checkpoint::CheckpointError) -> Self {
        RuntimeError::Checkpoint(value)
    }
}

impl From<tpdf_sim::SimError> for RuntimeError {
    fn from(value: tpdf_sim::SimError) -> Self {
        RuntimeError::Analysis(value.to_string())
    }
}

impl From<tpdf_core::TpdfError> for RuntimeError {
    fn from(value: tpdf_core::TpdfError) -> Self {
        RuntimeError::Analysis(value.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_variants() {
        assert!(RuntimeError::Analysis("boom".into())
            .to_string()
            .contains("boom"));
        assert!(RuntimeError::InvalidConfig("zero".into())
            .to_string()
            .contains("zero"));
        let stalled = RuntimeError::Stalled {
            blocked: vec!["A".into(), "B".into()],
            iteration: 3,
            diagnostics: String::new(),
        };
        assert!(stalled.to_string().contains("A, B"));
        let detailed = RuntimeError::Stalled {
            blocked: vec!["A".into()],
            iteration: 0,
            diagnostics: "  node 0 (A): 1 of 2 firings remaining\n".into(),
        };
        assert!(detailed.to_string().contains("firings remaining"));
        assert!(RuntimeError::CapacityExceeded {
            channel: "e1".into(),
            capacity: 8
        }
        .to_string()
        .contains("e1"));
        assert!(RuntimeError::RateMismatch {
            node: "K".into(),
            channel: "e2".into(),
            expected: 4,
            got: 2
        }
        .to_string()
        .contains("rate requires 4"));
        assert!(RuntimeError::KernelFailed {
            node: "K".into(),
            message: "bad token".into()
        }
        .to_string()
        .contains("bad token"));
    }

    #[test]
    fn sim_errors_convert() {
        let e: RuntimeError = tpdf_sim::SimError::InvalidConfig("x".into()).into();
        assert!(matches!(e, RuntimeError::Analysis(_)));
    }
}
