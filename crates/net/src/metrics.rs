//! The counted ledger of the network layer.
//!
//! [`NetMetrics`] is a set of lock-free counters the server thread
//! bumps as it accepts, reads, backpressures and evicts; any thread
//! can take a coherent-enough [`NetMetricsSnapshot`] at any time and
//! render it as Prometheus text exposition.
//!
//! Each counter is declared once, as one `field: "help"` row of
//! `net_counters!`. The row yields the atomic field, the snapshot
//! field, its copy in [`NetMetrics::snapshot`] and the
//! `tpdf_net_<field>_total` family of
//! [`NetMetricsSnapshot::to_prometheus`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tpdf_trace::Exposition;

macro_rules! net_counters {
    ($($field:ident: $help:literal,)*) => {
        /// Lock-free counters of the network ingestion layer. All monotone.
        #[derive(Debug, Default)]
        pub struct NetMetrics {
            $(#[doc = $help] pub $field: AtomicU64,)*
        }

        /// A plain copy of the [`NetMetrics`] counters, exportable as a
        /// Prometheus exposition.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct NetMetricsSnapshot {
            $(#[doc = $help] pub $field: u64,)*
        }

        impl NetMetrics {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> NetMetricsSnapshot {
                NetMetricsSnapshot {
                    $($field: self.$field.load(Relaxed),)*
                }
            }
        }

        impl NetMetricsSnapshot {
            /// Renders the ledger in Prometheus text exposition format,
            /// one `tpdf_net_<field>_total` counter per field.
            pub fn to_prometheus(&self) -> String {
                let mut expo = Exposition::new();
                $(
                    let name = concat!("tpdf_net_", stringify!($field), "_total");
                    expo.counter(name, $help, self.$field);
                )*
                expo.finish()
            }
        }
    };
}

net_counters! {
    conns_accepted: "Connections accepted from the listener",
    conns_refused: "Connections refused at the connection cap",
    conns_evicted: "Connections evicted as idle or slow",
    conns_closed: "Connections ended, evictions included",
    sessions_opened: "Sessions opened on behalf of Hello frames",
    admission_refusals: "Hello frames refused by admission control",
    frames_in: "Complete frames decoded from clients",
    frames_out: "Frames sent to clients",
    bytes_in: "Raw bytes read from client sockets",
    bytes_out: "Raw bytes written to client sockets",
    records_in: "Input tokens received in Records frames",
    results_out: "Result frames delivered",
    backoffs: "Backoff frames sent",
    protocol_errors: "Connections dropped for protocol violations",
}

impl NetMetrics {
    /// Creates a zeroed ledger.
    pub fn new() -> NetMetrics {
        NetMetrics::default()
    }
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
