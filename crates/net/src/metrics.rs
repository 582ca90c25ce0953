//! The counted ledger of the network layer.
//!
//! [`NetMetrics`] is a set of lock-free counters the server thread
//! bumps as it accepts, reads, backpressures and evicts; any thread
//! can take a coherent-enough [`NetMetricsSnapshot`] at any time and
//! render it as Prometheus text exposition.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tpdf_trace::Exposition;

/// Lock-free counters of the network ingestion layer. All monotone.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted from the listener.
    pub conns_accepted: AtomicU64,
    /// Connections refused at the connection cap.
    pub conns_refused: AtomicU64,
    /// Connections evicted as idle or too slow to drain results.
    pub conns_evicted: AtomicU64,
    /// Connections that ended (cleanly or not), evictions included.
    pub conns_closed: AtomicU64,
    /// Sessions opened on behalf of `Hello` frames.
    pub sessions_opened: AtomicU64,
    /// `Hello` frames refused by service admission control.
    pub admission_refusals: AtomicU64,
    /// Complete frames decoded from clients.
    pub frames_in: AtomicU64,
    /// Frames sent to clients.
    pub frames_out: AtomicU64,
    /// Raw bytes read from client sockets.
    pub bytes_in: AtomicU64,
    /// Raw bytes written to client sockets.
    pub bytes_out: AtomicU64,
    /// Input tokens received in `Records` frames.
    pub records_in: AtomicU64,
    /// `Result` frames delivered.
    pub results_out: AtomicU64,
    /// `Backoff` frames sent (queue-full, feed-full or admission).
    pub backoffs: AtomicU64,
    /// Connections dropped for protocol violations or wire garbage.
    pub protocol_errors: AtomicU64,
}

impl NetMetrics {
    /// Creates a zeroed ledger.
    pub fn new() -> NetMetrics {
        NetMetrics::default()
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            conns_accepted: self.conns_accepted.load(Relaxed),
            conns_refused: self.conns_refused.load(Relaxed),
            conns_evicted: self.conns_evicted.load(Relaxed),
            conns_closed: self.conns_closed.load(Relaxed),
            sessions_opened: self.sessions_opened.load(Relaxed),
            admission_refusals: self.admission_refusals.load(Relaxed),
            frames_in: self.frames_in.load(Relaxed),
            frames_out: self.frames_out.load(Relaxed),
            bytes_in: self.bytes_in.load(Relaxed),
            bytes_out: self.bytes_out.load(Relaxed),
            records_in: self.records_in.load(Relaxed),
            results_out: self.results_out.load(Relaxed),
            backoffs: self.backoffs.load(Relaxed),
            protocol_errors: self.protocol_errors.load(Relaxed),
        }
    }
}

/// A plain copy of the [`NetMetrics`] counters, exportable through the
/// snapshot codec and as a Prometheus exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// Connections accepted from the listener.
    pub conns_accepted: u64,
    /// Connections refused at the connection cap.
    pub conns_refused: u64,
    /// Connections evicted as idle or too slow to drain results.
    pub conns_evicted: u64,
    /// Connections that ended (cleanly or not), evictions included.
    pub conns_closed: u64,
    /// Sessions opened on behalf of `Hello` frames.
    pub sessions_opened: u64,
    /// `Hello` frames refused by service admission control.
    pub admission_refusals: u64,
    /// Complete frames decoded from clients.
    pub frames_in: u64,
    /// Frames sent to clients.
    pub frames_out: u64,
    /// Raw bytes read from client sockets.
    pub bytes_in: u64,
    /// Raw bytes written to client sockets.
    pub bytes_out: u64,
    /// Input tokens received in `Records` frames.
    pub records_in: u64,
    /// `Result` frames delivered.
    pub results_out: u64,
    /// `Backoff` frames sent.
    pub backoffs: u64,
    /// Connections dropped for protocol violations or wire garbage.
    pub protocol_errors: u64,
}

impl NetMetricsSnapshot {
    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "conns {} (refused {}, evicted {}), sessions {}, frames {}/{} in/out, \
             records {}, results {}, backoffs {}, protocol errors {}",
            self.conns_accepted,
            self.conns_refused,
            self.conns_evicted,
            self.sessions_opened,
            self.frames_in,
            self.frames_out,
            self.records_in,
            self.results_out,
            self.backoffs,
            self.protocol_errors,
        )
    }

    /// Renders the ledger in Prometheus text exposition format
    /// (metrics prefixed `tpdf_net_`).
    pub fn to_prometheus(&self) -> String {
        let mut expo = Exposition::new();
        expo.counter(
            "tpdf_net_conns_accepted_total",
            "Connections accepted from the listener",
            self.conns_accepted,
        );
        expo.counter(
            "tpdf_net_conns_refused_total",
            "Connections refused at the connection cap",
            self.conns_refused,
        );
        expo.counter(
            "tpdf_net_conns_evicted_total",
            "Connections evicted as idle or slow",
            self.conns_evicted,
        );
        expo.counter(
            "tpdf_net_conns_closed_total",
            "Connections ended, evictions included",
            self.conns_closed,
        );
        expo.counter(
            "tpdf_net_sessions_opened_total",
            "Sessions opened on behalf of Hello frames",
            self.sessions_opened,
        );
        expo.counter(
            "tpdf_net_admission_refusals_total",
            "Hello frames refused by admission control",
            self.admission_refusals,
        );
        expo.counter(
            "tpdf_net_frames_in_total",
            "Complete frames decoded from clients",
            self.frames_in,
        );
        expo.counter(
            "tpdf_net_frames_out_total",
            "Frames sent to clients",
            self.frames_out,
        );
        expo.counter(
            "tpdf_net_bytes_in_total",
            "Raw bytes read from client sockets",
            self.bytes_in,
        );
        expo.counter(
            "tpdf_net_bytes_out_total",
            "Raw bytes written to client sockets",
            self.bytes_out,
        );
        expo.counter(
            "tpdf_net_records_in_total",
            "Input tokens received in Records frames",
            self.records_in,
        );
        expo.counter(
            "tpdf_net_results_out_total",
            "Result frames delivered",
            self.results_out,
        );
        expo.counter(
            "tpdf_net_backoffs_total",
            "Backoff frames sent",
            self.backoffs,
        );
        expo.counter(
            "tpdf_net_protocol_errors_total",
            "Connections dropped for protocol violations",
            self.protocol_errors,
        );
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            conns_accepted: 5,
            conns_refused: 1,
            conns_evicted: 2,
            conns_closed: 4,
            sessions_opened: 5,
            admission_refusals: 3,
            frames_in: 100,
            frames_out: 90,
            bytes_in: 4096,
            bytes_out: 2048,
            records_in: 720,
            results_out: 10,
            backoffs: 6,
            protocol_errors: 1,
        }
    }

    #[test]
    fn ledger_counts_into_snapshots() {
        let metrics = NetMetrics::new();
        metrics.conns_accepted.fetch_add(2, Relaxed);
        metrics.backoffs.fetch_add(7, Relaxed);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.conns_accepted, 2);
        assert_eq!(snapshot.backoffs, 7);
        assert_eq!(snapshot.frames_in, 0);
    }

    #[test]
    fn prometheus_exposition_is_complete() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE tpdf_net_conns_accepted_total counter"));
        assert!(text.contains("tpdf_net_backoffs_total 6"));
        assert!(text.contains("tpdf_net_records_in_total 720"));
        assert!(text.contains("tpdf_net_protocol_errors_total 1"));
    }
}
