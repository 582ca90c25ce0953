//! `tpdf-net` — wire-fed sessions: non-blocking TCP ingestion for
//! [`tpdf_service`] with end-to-end backpressure, on `std::net` alone.
//!
//! The service layer (PR 3) made TPDF graphs servable in-process;
//! this crate puts a socket in front of it. Clients speak a
//! length-prefixed binary frame protocol: a `Hello` opens a session
//! through the service's admission control, `Records` frames stream
//! input tokens into a bounded per-session feed, each `Barrier`
//! claims one run's worth of tokens and submits a run, and completed
//! outputs stream back as `Result` frames. Every full buffer answers
//! with a `Backoff` frame and paused reads — TCP flow control then
//! stalls the producer — so load sheds by slowing senders, never by
//! dropping records.
//!
//! | Module | Contents |
//! |---|---|
//! | [`frame`] | The wire codec: [`Frame`], [`FrameReader`], [`FrameError`] — checksummed, never panics on garbage |
//! | [`server`] | [`NetServer`]: the readiness loop feeding the service, woken by sockets and run completions |
//! | [`client`] | [`NetClient`]: a small blocking client for tests and examples |
//! | [`metrics`] | [`NetMetrics`]: the counted ledger, exportable via snapshot codec and Prometheus |
//! | [`ofdm`] | [`ofdm::wire_fed_ofdm`]: the Figure 7 demodulator served over the wire |
//!
//! ```no_run
//! use std::sync::Arc;
//! use tpdf_net::{NetApps, NetConfig, NetServer};
//! use tpdf_service::{ServiceConfig, TpdfService};
//!
//! let service = Arc::new(TpdfService::new(ServiceConfig::default()));
//! let apps = NetApps::new(); // register NetApp entries here
//! let server =
//!     NetServer::bind("127.0.0.1:0", service, apps, NetConfig::default()).expect("bind");
//! println!("serving on {}", server.local_addr());
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one place:
// the `ppoll(2)` declaration and call in `sys`, the loop's readiness
// wait, which `std` does not wrap. Everything else is safe `std::net`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod metrics;
pub mod ofdm;
pub mod server;
mod sys;

pub use client::{HelloAck, NetClient, NetClientError};
pub use frame::{BackoffReason, Frame, FrameError, FrameReader};
pub use metrics::{NetMetrics, NetMetricsSnapshot};
pub use server::{NetApp, NetApps, NetConfig, NetFeed, NetServer};
