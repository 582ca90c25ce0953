//! # tpdf-service
//!
//! A multi-session streaming service layer over one shared
//! [`tpdf_runtime::ExecutorPool`]: the step from "execute one TPDF
//! graph" to "serve many concurrent context-dependent streaming
//! applications on the same hardware".
//!
//! A [`TpdfService`] hosts a *detached* worker pool (all workers are
//! OS threads owned by the pool) and multiplexes **sessions** over it:
//!
//! * [`TpdfService::open_session`] **admits** a graph instance with its
//!   own per-session [`tpdf_runtime::RuntimeConfig`] — deadline mode,
//!   placement policy, binding sequences all work unchanged per
//!   session. Admission is controlled twice: a concurrent-session
//!   limit with a reject-or-block [`AdmissionPolicy`], and
//!   **deadline-aware admission control** — a session whose
//!   reference-sim cost estimate (Σ repetition count × execution time
//!   per iteration, divided by its Clock deadline period) would
//!   oversubscribe the pool's processor capacity is refused outright.
//! * [`TpdfService::submit`] enqueues one run of the session's graph on
//!   its **bounded ingress queue**; a full queue exercises
//!   **backpressure** (reject the request, or block until space frees,
//!   per the [`AdmissionPolicy`]). Each session executes its requests
//!   in order, one in flight at a time; requests of *different*
//!   sessions run concurrently on the shared pool, each in its own
//!   isolated run state — a panicking session fails only itself.
//! * [`TpdfService::poll`] / [`TpdfService::wait`] observe progress and
//!   collect per-run [`tpdf_runtime::Metrics`] (a thread that polls
//!   with [`TpdfService::try_take`] instead sleeps on a waker
//!   registered with [`TpdfService::add_waker`]);
//!   [`TpdfService::cancel`] cancels a session (in-flight run halted,
//!   queued requests dropped); [`TpdfService::close`] retires it after
//!   its queue drains; [`TpdfService::drain`] gracefully finishes all
//!   outstanding work and reports the aggregated [`ServiceMetrics`]
//!   (per-session firings, deadline misses, queue depths, rejected
//!   admissions).
//!
//! Each session owns its firing-cost telemetry (one compiled executor
//! serves all the session's runs), so the granularity classification
//! ("too fine-grained to distribute") learned by a session's early
//! runs benefits its later ones — while a cheap tenant's estimate can
//! never freeze a heavy neighbour's runs at one worker.
//!
//! ## Example
//!
//! ```
//! use tpdf_core::examples::figure2_graph;
//! use tpdf_runtime::{KernelRegistry, RuntimeConfig};
//! use tpdf_service::{ServiceConfig, TpdfService};
//! use tpdf_symexpr::Binding;
//!
//! # fn main() -> Result<(), tpdf_service::ServiceError> {
//! let service = TpdfService::new(ServiceConfig::default().with_threads(2));
//! let graph = figure2_graph();
//! let session = service.open_session(
//!     &graph,
//!     RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_threads(2),
//!     KernelRegistry::new(),
//! )?;
//! let request = service.submit(session)?;
//! let metrics = service.wait(session, request)?;
//! assert_eq!(metrics.iterations, 1);
//! let report = service.drain();
//! assert_eq!(report.runs_completed, 1);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod service;

pub use metrics::{ServiceMetrics, SessionMetrics, SessionPhase};
pub use service::{
    AdmissionPolicy, RequestId, ServiceConfig, ServiceError, SessionCheckpoint, SessionId,
    SessionInspection, SessionStatus, SloSpec, TpdfService,
};
