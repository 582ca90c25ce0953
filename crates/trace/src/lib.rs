//! # tpdf-trace
//!
//! Low-overhead structured tracing for the TPDF runtime, pool and
//! service layers: every worker writes fixed-size binary events
//! (firings with node/phase/token counts, steals, park/wake, barrier
//! enter/exit, plan switches, ring growth, mode emissions, deadline
//! misses, job and session lifecycle) into a per-lane bounded ring
//! that doubles as a **flight recorder** — overwrite-oldest, so it can
//! stay enabled in production and still answer "what happened just
//! before the stall?".
//!
//! | Module | Provides |
//! |--------|----------|
//! | [`event`] | [`event::TraceEvent`] / [`event::EventKind`]: the fixed 48-byte binary event model |
//! | [`ring`] | [`ring::EventRing`]: the lock-free overwrite-oldest event ring (all-atomic seqlock slots) |
//! | [`tracer`] | [`tracer::Tracer`]: the per-worker-lane recorder handed to executors, pools and services |
//! | [`hist`] | [`hist::Log2Histogram`] / [`hist::HistogramSnapshot`]: lock-free log2-bucket latency histograms |
//! | [`log`] | [`log::TraceLog`]: the merged monotone timeline, Chrome trace-event JSON export, per-phase summaries |
//! | [`expo`] | [`expo::Exposition`]: Prometheus-style text exposition builder rendering const [`expo::Family`] tables, plus [`expo::lint`], a promtool-style conformance check |
//! | [`series`] | [`series::SeriesRing`]: bounded overwrite-oldest time series for sampled aggregates (rate-over-window views) |
//! | [`snap`] | [`snap::SnapshotWriter`] / [`snap::SnapshotReader`]: the line-oriented text snapshot codec (what a `TPDC` checkpoint embeds as its metrics field) |
//! | [`json`] | [`json::validate`] / [`json::validate_interop`]: a dependency-free JSON well-formedness checker (the interop variant also rejects integer literals a double cannot hold exactly) |
//!
//! ## Cost model
//!
//! The subsystem is always compiled and cheaply disabled: an
//! instrumentation site costs one `Relaxed` load plus a branch while
//! the tracer is disabled (and only a pointer null-check when no
//! tracer is installed at all). An enabled site appends one fixed-size
//! event — a handful of `Relaxed` stores and one `Release` store into
//! a preallocated slot, no locks, no allocation.
//!
//! ## Example
//!
//! ```
//! use tpdf_trace::{EventKind, Tracer};
//!
//! let tracer = Tracer::flight_recorder(2, 64);
//! tracer.event(0, EventKind::Steal, 1, 7, 0, 0);
//! let log = tracer.collect();
//! assert_eq!(log.count(EventKind::Steal), 1);
//! assert!(tpdf_trace::json::validate(&log.to_chrome_json(&Default::default())).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod expo;
pub mod hist;
pub mod json;
pub mod log;
pub mod ring;
pub mod series;
pub mod snap;
pub mod tracer;

pub use event::{EventKind, TraceEvent};
pub use expo::{lint as lint_prometheus, Exposition, Family};
pub use hist::{HistogramSnapshot, Log2Histogram};
pub use log::{ChromeLabels, PhaseSummary, TraceLog};
pub use ring::EventRing;
pub use series::{SeriesRing, SeriesSample};
pub use snap::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use tracer::{TraceHistograms, Tracer};
