//! Aggregated statistics of a running (or drained) service.
//!
//! A session's counters live in one [`SessionCounters`] value: the live
//! session, its checkpoint and its [`SessionMetrics`] each carry that
//! value, never loose copies of its fields. The service-wide counters
//! live in a [`ServiceMetrics`] from the start.
//! [`ServiceMetrics::to_prometheus`] renders both from two const tables
//! of [`Family`] rows (one for service-wide families, one for
//! per-session families labelled by session id): each family is
//! declared once, in one row.

use crate::service::SessionId;
use tpdf_runtime::Metrics;
use tpdf_trace::{Exposition, Family};

/// Lifecycle phase of a session, as reported by [`SessionMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Accepting new requests.
    Open,
    /// Closed by [`crate::TpdfService::close`]: no new requests, the
    /// remaining queue drains.
    Closed,
    /// Cancelled by [`crate::TpdfService::cancel`]: the in-flight run
    /// was halted and the queue dropped.
    Cancelled,
}

/// A session's counters, aggregated over its runs. They survive a
/// checkpoint and a migration: a restored session resumes counting
/// from the values it was captured with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Runs that completed successfully.
    pub runs_completed: u64,
    /// Runs that failed (kernel error, stall, panic).
    pub runs_failed: u64,
    /// Runs (queued or in flight) dropped by a cancellation.
    pub runs_cancelled: u64,
    /// Requests refused by ingress backpressure
    /// ([`crate::AdmissionPolicy::Reject`] on a full queue).
    pub requests_rejected: u64,
    /// Total firings across the session's completed runs.
    pub firings: u64,
    /// Total tokens pushed across the session's completed runs.
    pub tokens: u64,
    /// Total real-time deadline misses across the session's completed
    /// runs.
    pub deadline_misses: u64,
    /// Firing slabs served from worker freelists across the session's
    /// completed runs (see `tpdf_runtime::Metrics::arena_hits`).
    pub arena_hits: u64,
    /// Firing-slab requests that fell back to the global allocator.
    pub arena_misses: u64,
}

impl SessionCounters {
    /// Adds one completed run.
    pub(crate) fn record(&mut self, run: &Metrics) {
        self.runs_completed += 1;
        self.firings += run.firings.iter().sum::<u64>();
        self.tokens += run.total_tokens;
        self.deadline_misses += run.deadline_misses;
        self.arena_hits += run.arena_hits;
        self.arena_misses += run.arena_misses;
    }

    /// Fraction of firing-slab requests served without allocating
    /// (`1.0` when the session saw no slab traffic at all — nothing
    /// allocated is as good as everything recycled).
    pub fn arena_hit_rate(&self) -> f64 {
        let total = self.arena_hits + self.arena_misses;
        if total == 0 {
            1.0
        } else {
            self.arena_hits as f64 / total as f64
        }
    }
}

/// Per-session statistics, aggregated over the session's completed
/// runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMetrics {
    /// The session.
    pub id: SessionId,
    /// Lifecycle phase.
    pub phase: SessionPhase,
    /// Whether the session has fully retired (no queued or running
    /// work remains and its admission demand has been released).
    pub retired: bool,
    /// Requests currently waiting in the ingress queue.
    pub queue_depth: usize,
    /// Whether a run of this session is in flight on the pool.
    pub running: bool,
    /// The processor share this session's deadline demands of the pool
    /// (0 for sessions without a real-time deadline) — what admission
    /// control charged against the capacity.
    pub demand: f64,
    /// The session's run and request counters.
    pub counters: SessionCounters,
}

/// Aggregate statistics of the whole service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Sessions admitted since the service started.
    pub sessions_admitted: u64,
    /// Sessions refused by admission control (session limit under
    /// [`crate::AdmissionPolicy::Reject`], or deadline-aware
    /// oversubscription).
    pub sessions_rejected: u64,
    /// Requests accepted onto some session's ingress queue.
    pub requests_submitted: u64,
    /// Requests refused by ingress backpressure.
    pub requests_rejected: u64,
    /// Runs completed successfully, over all sessions.
    pub runs_completed: u64,
    /// Runs that failed, over all sessions.
    pub runs_failed: u64,
    /// Session checkpoints taken ([`crate::TpdfService::checkpoint_session`],
    /// including those taken on behalf of a migration).
    pub checkpoints_taken: u64,
    /// Sessions re-admitted from a checkpoint
    /// ([`crate::TpdfService::restore_session`], including migration
    /// arrivals).
    pub restores: u64,
    /// Sessions moved *away* to another service
    /// ([`crate::TpdfService::migrate_session`] on the source side).
    pub migrations: u64,
    /// Sessions currently not retired.
    pub active_sessions: usize,
    /// Requests currently waiting across all ingress queues.
    pub queued_requests: usize,
    /// Σ demand of the admitted, non-retired deadline sessions.
    pub demand: f64,
    /// The pool's processor capacity admission compares against
    /// (worker threads × configured max utilization).
    pub capacity: f64,
    /// Per-session breakdowns, in session-id order. Sessions that
    /// retired **and** had every result taken are evicted from the
    /// table (a long-lived service must not accumulate dead sessions)
    /// and no longer appear here; the service-wide totals above keep
    /// counting them.
    pub per_session: Vec<SessionMetrics>,
}

/// The service-wide families, prefixed `tpdf_service_`.
const SERVICE_FAMILIES: &[Family<ServiceMetrics>] = &[
    Family::counter(
        "tpdf_service_sessions_admitted_total",
        "Sessions admitted since the service started",
        |m| m.sessions_admitted,
    ),
    Family::counter(
        "tpdf_service_sessions_rejected_total",
        "Sessions refused by admission control",
        |m| m.sessions_rejected,
    ),
    Family::counter(
        "tpdf_service_requests_submitted_total",
        "Requests accepted onto ingress queues",
        |m| m.requests_submitted,
    ),
    Family::counter(
        "tpdf_service_requests_rejected_total",
        "Requests refused by ingress backpressure",
        |m| m.requests_rejected,
    ),
    Family::counter(
        "tpdf_service_runs_completed_total",
        "Runs completed successfully over all sessions",
        |m| m.runs_completed,
    ),
    Family::counter(
        "tpdf_service_runs_failed_total",
        "Runs that failed over all sessions",
        |m| m.runs_failed,
    ),
    Family::counter(
        "tpdf_service_checkpoints_taken_total",
        "Session checkpoints taken at request barriers",
        |m| m.checkpoints_taken,
    ),
    Family::counter(
        "tpdf_service_session_restores_total",
        "Sessions re-admitted from checkpoints",
        |m| m.restores,
    ),
    Family::counter(
        "tpdf_service_session_migrations_total",
        "Sessions migrated away to another service",
        |m| m.migrations,
    ),
    Family::gauge(
        "tpdf_service_active_sessions",
        "Sessions currently not retired",
        |m| m.active_sessions as f64,
    ),
    Family::gauge(
        "tpdf_service_queued_requests",
        "Requests waiting across all ingress queues",
        |m| m.queued_requests as f64,
    ),
    Family::gauge(
        "tpdf_service_demand",
        "Admitted deadline demand in processor shares",
        |m| m.demand,
    ),
    Family::gauge(
        "tpdf_service_capacity",
        "Admissible processor capacity",
        |m| m.capacity,
    ),
];

/// The per-session families, labelled `session="<id>"`.
const SESSION_FAMILIES: &[Family<SessionMetrics>] = &[
    Family::counter(
        "tpdf_service_session_runs_completed_total",
        "Runs completed per session",
        |s| s.counters.runs_completed,
    ),
    Family::counter(
        "tpdf_service_session_firings_total",
        "Firings per session over its completed runs",
        |s| s.counters.firings,
    ),
    Family::counter(
        "tpdf_service_session_deadline_misses_total",
        "Deadline misses per session",
        |s| s.counters.deadline_misses,
    ),
    Family::gauge(
        "tpdf_service_session_arena_hit_rate",
        "Fraction of firing-slab requests served without allocating",
        |s| s.counters.arena_hit_rate(),
    ),
];

impl ServiceMetrics {
    /// The metrics of one session, if it exists.
    pub fn session(&self, id: SessionId) -> Option<&SessionMetrics> {
        self.per_session.iter().find(|s| s.id == id)
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} active sessions ({} admitted, {} rejected), {} runs ok / {} failed, \
             {} queued requests, load {:.2}/{:.2}",
            self.active_sessions,
            self.sessions_admitted,
            self.sessions_rejected,
            self.runs_completed,
            self.runs_failed,
            self.queued_requests,
            self.demand,
            self.capacity,
        )
    }

    /// Renders the service aggregates in Prometheus text exposition
    /// format (metrics prefixed `tpdf_service_`, per-session counters
    /// labelled by session id).
    pub fn to_prometheus(&self) -> String {
        let mut expo = Exposition::new();
        expo.families(SERVICE_FAMILIES, self);
        expo.labelled(SESSION_FAMILIES, "session", &self.per_session, |s| {
            s.id.0.to_string()
        });
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceMetrics {
        ServiceMetrics {
            sessions_admitted: 3,
            sessions_rejected: 1,
            requests_submitted: 9,
            requests_rejected: 2,
            runs_completed: 7,
            runs_failed: 1,
            checkpoints_taken: 2,
            restores: 1,
            migrations: 1,
            active_sessions: 2,
            queued_requests: 1,
            demand: 0.75,
            capacity: 4.0,
            per_session: vec![
                SessionMetrics {
                    id: SessionId(0),
                    phase: SessionPhase::Open,
                    retired: false,
                    queue_depth: 1,
                    running: true,
                    demand: 0.75,
                    counters: SessionCounters {
                        runs_completed: 4,
                        runs_failed: 0,
                        runs_cancelled: 0,
                        requests_rejected: 2,
                        firings: 320,
                        tokens: 1280,
                        deadline_misses: 1,
                        arena_hits: 96,
                        arena_misses: 4,
                    },
                },
                SessionMetrics {
                    id: SessionId(2),
                    phase: SessionPhase::Cancelled,
                    retired: true,
                    queue_depth: 0,
                    running: false,
                    demand: 0.0,
                    counters: SessionCounters {
                        runs_completed: 3,
                        runs_failed: 1,
                        runs_cancelled: 2,
                        requests_rejected: 0,
                        firings: 96,
                        tokens: 384,
                        deadline_misses: 0,
                        arena_hits: 0,
                        arena_misses: 0,
                    },
                },
            ],
        }
    }

    #[test]
    fn prometheus_rendering_labels_sessions() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE tpdf_service_sessions_admitted_total counter"));
        assert!(text.contains("tpdf_service_sessions_admitted_total 3"));
        assert!(text.contains("tpdf_service_checkpoints_taken_total 2"));
        assert!(text.contains("tpdf_service_session_migrations_total 1"));
        assert!(text.contains("tpdf_service_session_firings_total{session=\"2\"} 96"));
        assert!(text.contains("tpdf_service_session_arena_hit_rate{session=\"0\"} 0.96"));
    }

    #[test]
    fn prometheus_rendering_groups_families_and_lints() {
        let text = sample().to_prometheus();
        // With ≥ 2 sessions, each per-session family must still appear
        // exactly once — this is the conformance regression a
        // per-session emitting loop reintroduces.
        assert_eq!(
            text.matches("# TYPE tpdf_service_session_runs_completed_total")
                .count(),
            1
        );
        tpdf_trace::lint_prometheus(&text).unwrap_or_else(|e| panic!("lint: {e}"));
    }
}
