//! The operations plane: background sampler, SLO evaluator, watchdog.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpdf_net::NetMetrics;
use tpdf_service::{SessionInspection, SessionPhase, SloSpec, TpdfService};
use tpdf_trace::{
    Exposition, Family, HistogramSnapshot, SeriesRing, TraceEvent, TraceHistograms, Tracer,
};

use crate::health::{Health, HealthReport, SessionHealth, SloVerdict};
use crate::incident::{Incident, IncidentCause, WindowStats};

/// Configuration of an [`OpsPlane`].
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Sampler period. 250ms by default: frequent enough for a
    /// one-minute window of 240 samples, rare enough that the sampler
    /// (a handful of lock acquisitions and atomic loads per tick)
    /// stays invisible next to the workload.
    pub period: Duration,
    /// Samples retained per time series (the evaluation window spans
    /// `ring_capacity × period`). Default 240 (= 1 minute at 250ms).
    pub ring_capacity: usize,
    /// Fallback [`SloSpec`] applied to sessions admitted without their
    /// own. Empty by default (no objectives — sessions are only
    /// watched for hard signals).
    pub default_slo: SloSpec,
    /// Consecutive failing ticks after which a soft SLO violation
    /// escalates from [`Health::Degraded`] to [`Health::Failing`].
    pub failing_after: u32,
    /// Consecutive ticks with backpressure rejections before a
    /// [`IncidentCause::Backpressure`] incident is filed.
    pub backpressure_ticks: u32,
    /// Consecutive ticks with the ingress queue at capacity and no
    /// completions before [`IncidentCause::QueueHighWater`] files.
    pub queue_high_water_ticks: u32,
    /// Bound of the incident log (overwrite-oldest).
    pub max_incidents: usize,
    /// Flight-recorder events attached to each incident.
    pub recorder_tail: usize,
    /// When set, an HTTP admin listener binds this address (e.g.
    /// `"127.0.0.1:0"`) serving `/metrics`, `/healthz`, `/sessions`,
    /// `/incidents` and `/trace.json`.
    pub http_addr: Option<String>,
}

impl Default for OpsConfig {
    fn default() -> OpsConfig {
        OpsConfig {
            period: Duration::from_millis(250),
            ring_capacity: 240,
            default_slo: SloSpec::default(),
            failing_after: 4,
            backpressure_ticks: 3,
            queue_high_water_ticks: 4,
            max_incidents: 64,
            recorder_tail: 32,
            http_addr: None,
        }
    }
}

impl OpsConfig {
    /// Sets the sampler period.
    pub fn with_period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }

    /// Sets the fallback SLO for sessions without their own.
    pub fn with_default_slo(mut self, slo: SloSpec) -> Self {
        self.default_slo = slo;
        self
    }

    /// Enables the HTTP admin listener on `addr`.
    pub fn with_http_addr(mut self, addr: &str) -> Self {
        self.http_addr = Some(addr.to_string());
        self
    }
}

/// Per-session sampler state: the time-series rings and the watchdog's
/// debounce flags.
struct Track {
    tokens: SeriesRing,
    runs: SeriesRing,
    misses: SeriesRing,
    rejected: SeriesRing,
    queue: SeriesRing,
    /// Last tick's lifetime counters, for tick-grain deltas
    /// (`None` on the session's first tick — history before the plane
    /// attached never triggers the watchdog).
    prev: Option<(u64, u64, u64)>, // (runs_completed, runs_failed, requests_rejected)
    /// Consecutive ticks with a failing soft check.
    degraded_streak: u32,
    /// A stall incident is open; no further stall files until the
    /// beacon moves again (debounce: one incident per stall episode).
    stall_open: bool,
    backpressure_streak: u32,
    queue_streak: u32,
    /// Last tick already had failing runs (edge detection).
    failing_runs: bool,
    cancel_reported: bool,
}

impl Track {
    fn new(capacity: usize) -> Track {
        Track {
            tokens: SeriesRing::new(capacity),
            runs: SeriesRing::new(capacity),
            misses: SeriesRing::new(capacity),
            rejected: SeriesRing::new(capacity),
            queue: SeriesRing::new(capacity),
            prev: None,
            degraded_streak: 0,
            stall_open: false,
            backpressure_streak: 0,
            queue_streak: 0,
            failing_runs: false,
            cancel_reported: false,
        }
    }
}

struct State {
    sessions: BTreeMap<u64, Track>,
    /// Periodic snapshots of the tracer's run-latency histogram; the
    /// windowed p99 is `newest.delta(oldest).percentile(0.99)`.
    run_latency: VecDeque<(u64, HistogramSnapshot)>,
    incidents: VecDeque<Incident>,
    incidents_total: u64,
    report: HealthReport,
}

pub(crate) struct Shared {
    pub(crate) service: Arc<TpdfService>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    pub(crate) net: Mutex<Option<Arc<NetMetrics>>>,
    pub(crate) config: OpsConfig,
    pub(crate) stop: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
    samples: AtomicU64,
}

/// The live operations plane: one background sampler thread feeding
/// time-series rings, the SLO evaluator, the stall watchdog with
/// flight-recorder incident dumps, and (optionally) the HTTP admin
/// surface. See the crate docs for the model.
pub struct OpsPlane {
    shared: Arc<Shared>,
    sampler: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
    http_addr: Option<SocketAddr>,
}

impl OpsPlane {
    /// Starts the plane over `service`: spawns the sampler thread and,
    /// when [`OpsConfig::http_addr`] is set, the admin listener. The
    /// tracer is taken from the service's own configuration — sessions
    /// the service traces are the sessions the plane can dump.
    ///
    /// # Errors
    ///
    /// The bind error of the admin listener, when one was requested.
    pub fn start(service: Arc<TpdfService>, config: OpsConfig) -> std::io::Result<OpsPlane> {
        let tracer = service.config().tracer.clone();
        let shared = Arc::new(Shared {
            service,
            tracer,
            net: Mutex::new(None),
            config,
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new(State {
                sessions: BTreeMap::new(),
                run_latency: VecDeque::new(),
                incidents: VecDeque::new(),
                incidents_total: 0,
                report: HealthReport::default(),
            }),
            samples: AtomicU64::new(0),
        });
        let (http, http_addr) = match &shared.config.http_addr {
            Some(addr) => {
                let (handle, bound) = crate::http::serve(Arc::clone(&shared), addr)?;
                (Some(handle), Some(bound))
            }
            None => (None, None),
        };
        let sampler_shared = Arc::clone(&shared);
        let sampler = std::thread::Builder::new()
            .name("tpdf-ops-sampler".to_string())
            .spawn(move || {
                while !sampler_shared.stop.load(Relaxed) {
                    sampler_shared.tick();
                    std::thread::park_timeout(sampler_shared.config.period);
                }
            })?;
        Ok(OpsPlane {
            shared,
            sampler: Some(sampler),
            http,
            http_addr,
        })
    }

    /// Attaches the net-layer ledger (see
    /// [`tpdf_net::NetServer::metrics_handle`]): its counters join the
    /// `/metrics` exposition. Callable any time after start — the net
    /// server needs the service first, so it usually binds after the
    /// plane.
    pub fn attach_net(&self, metrics: Arc<NetMetrics>) {
        *self.shared.net.lock().expect("ops net lock") = Some(metrics);
    }

    /// The admin listener's bound address, when one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Forces one sampler tick *now* (the background thread keeps its
    /// own cadence). Deterministic tests drive the plane with this
    /// instead of sleeping.
    pub fn sample_now(&self) {
        self.shared.tick();
    }

    /// The latest published health report.
    pub fn health(&self) -> HealthReport {
        self.shared.state.lock().expect("ops lock").report.clone()
    }

    /// The retained incident log, oldest first.
    pub fn incidents(&self) -> Vec<Incident> {
        self.shared
            .state
            .lock()
            .expect("ops lock")
            .incidents
            .iter()
            .cloned()
            .collect()
    }

    /// Incidents filed over the plane's lifetime (≥ the retained log's
    /// length).
    pub fn incidents_total(&self) -> u64 {
        self.shared.state.lock().expect("ops lock").incidents_total
    }

    /// The `/metrics` document: service + net + trace histograms + ops
    /// gauges, one valid Prometheus exposition.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Stops the sampler and the admin listener and joins both.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Relaxed);
        if let Some(handle) = self.sampler.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        if let Some(handle) = self.http.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsPlane {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn report(&self) -> HealthReport {
        self.state.lock().expect("ops lock").report.clone()
    }

    pub(crate) fn incident_log(&self) -> Vec<Incident> {
        let state = self.state.lock().expect("ops lock");
        state.incidents.iter().cloned().collect()
    }

    /// One sampler tick: snapshot, push series, evaluate health, run
    /// the watchdog, publish the report.
    pub(crate) fn tick(&self) {
        let now_ns = self.now_ns();
        let inspections = self.service.inspect_sessions();
        let latency_snapshot = self
            .tracer
            .as_ref()
            .map(|t| t.histograms().run_latency_ns.snapshot());

        let mut state = self.state.lock().expect("ops lock");
        let state = &mut *state;

        // Maintain the run-latency snapshot window.
        if let Some(snapshot) = latency_snapshot {
            if state.run_latency.len() == self.config.ring_capacity.max(2) {
                state.run_latency.pop_front();
            }
            state.run_latency.push_back((now_ns, snapshot));
        }
        let latency_window = match (state.run_latency.front(), state.run_latency.back()) {
            (Some((_, first)), Some((_, last))) if state.run_latency.len() >= 2 => {
                Some(last.delta(first))
            }
            _ => None,
        };

        // Drop trackers of evicted sessions, create trackers for new
        // ones, then evaluate each live session.
        let live: BTreeSet<u64> = inspections.iter().map(|i| i.metrics.id.0).collect();
        state.sessions.retain(|id, _| live.contains(id));
        let mut sessions = Vec::with_capacity(inspections.len());
        let mut filed: Vec<(SessionInspection, IncidentCause, String, WindowStats)> = Vec::new();
        for insp in inspections {
            let track = state
                .sessions
                .entry(insp.metrics.id.0)
                .or_insert_with(|| Track::new(self.config.ring_capacity));
            let m = &insp.metrics;
            let c = &m.counters;
            track.tokens.push(now_ns, c.tokens as f64);
            track.runs.push(now_ns, c.runs_completed as f64);
            track.misses.push(now_ns, c.deadline_misses as f64);
            track.rejected.push(now_ns, c.requests_rejected as f64);
            track.queue.push(now_ns, m.queue_depth as f64);

            let slo = insp.slo.clone().or_else(|| {
                (!self.config.default_slo.is_empty()).then(|| self.config.default_slo.clone())
            });
            let window = WindowStats {
                tokens_per_sec: track.tokens.window_rate().unwrap_or(0.0),
                runs_completed: track.runs.window_delta().unwrap_or(0.0),
                deadline_misses: track.misses.window_delta().unwrap_or(0.0),
                requests_rejected: track.rejected.window_delta().unwrap_or(0.0),
                queue_depth: m.queue_depth,
                since_progress: insp.progress.since_progress,
            };

            // --- Watchdog: tick-grain deltas and the stall budget. ---
            let (prev_completed, prev_failed, prev_rejected) =
                track
                    .prev
                    .unwrap_or((c.runs_completed, c.runs_failed, c.requests_rejected));
            track.prev = Some((c.runs_completed, c.runs_failed, c.requests_rejected));
            let tick_completed = c.runs_completed.saturating_sub(prev_completed);
            let tick_failed = c.runs_failed.saturating_sub(prev_failed);
            let tick_rejected = c.requests_rejected.saturating_sub(prev_rejected);

            let stall_budget = slo.as_ref().and_then(|s| s.stall_budget);
            let stalled = m.running
                && stall_budget.is_some_and(|budget| {
                    insp.progress
                        .since_progress
                        .is_some_and(|idle| idle > budget)
                });
            if stalled && !track.stall_open {
                track.stall_open = true;
                filed.push((
                    insp.clone(),
                    IncidentCause::Stall,
                    format!(
                        "no executor progress for {:?} (budget {:?}) with a run in flight",
                        insp.progress.since_progress.unwrap_or_default(),
                        stall_budget.unwrap_or_default(),
                    ),
                    window.clone(),
                ));
            } else if !stalled {
                track.stall_open = false;
            }

            if tick_rejected > 0 {
                track.backpressure_streak += 1;
                if track.backpressure_streak == self.config.backpressure_ticks {
                    filed.push((
                        insp.clone(),
                        IncidentCause::Backpressure,
                        format!(
                            "backpressure rejections on {} consecutive samples ({} in the window)",
                            track.backpressure_streak, window.requests_rejected,
                        ),
                        window.clone(),
                    ));
                }
            } else {
                track.backpressure_streak = 0;
            }

            let queue_capacity = self.service.config().queue_capacity;
            if queue_capacity > 0 && m.queue_depth >= queue_capacity && tick_completed == 0 {
                track.queue_streak += 1;
                if track.queue_streak == self.config.queue_high_water_ticks {
                    filed.push((
                        insp.clone(),
                        IncidentCause::QueueHighWater,
                        format!(
                            "ingress queue at capacity {queue_capacity} with no completions \
                             across {} samples",
                            track.queue_streak,
                        ),
                        window.clone(),
                    ));
                }
            } else {
                track.queue_streak = 0;
            }

            // A cancelled session's halted in-flight run reports
            // `Err(Cancelled)` and counts as failed — expected fallout
            // of the cancellation, not a second incident.
            if tick_failed > 0 && !track.failing_runs && m.phase != SessionPhase::Cancelled {
                filed.push((
                    insp.clone(),
                    IncidentCause::RunFailed,
                    format!("{tick_failed} run(s) failed ({} total)", c.runs_failed),
                    window.clone(),
                ));
            }
            track.failing_runs = tick_failed > 0;

            if m.phase == SessionPhase::Cancelled && !track.cancel_reported {
                track.cancel_reported = true;
                filed.push((
                    insp.clone(),
                    IncidentCause::SessionCancelled,
                    format!("session cancelled with {} run(s) dropped", c.runs_cancelled),
                    window.clone(),
                ));
            }

            // --- SLO evaluation over the retained window. -----------
            let mut verdicts = Vec::new();
            if let Some(slo) = &slo {
                if let Some(bound) = slo.max_deadline_miss_rate {
                    if window.runs_completed > 0.0 {
                        let observed = window.deadline_misses / window.runs_completed;
                        verdicts.push(SloVerdict {
                            check: "deadline_miss_rate",
                            ok: observed <= bound,
                            observed,
                            bound,
                        });
                    }
                }
                if let Some(bound) = slo.max_run_latency_p99_ns {
                    // The run-latency histogram is tracer-wide; the
                    // bound therefore gates on the service's shared
                    // tail, which is what a latency SLO protects.
                    if let Some(window_hist) = latency_window.as_ref().filter(|h| h.count > 0) {
                        let observed = window_hist.percentile(0.99);
                        verdicts.push(SloVerdict {
                            check: "run_latency_p99_ns",
                            ok: observed <= bound,
                            observed: observed as f64,
                            bound: bound as f64,
                        });
                    }
                }
                if let Some(bound) = slo.min_tokens_per_sec {
                    // Only judged when a run completed in the window:
                    // throughput of an idle session is not zero, it is
                    // unmeasured (the stall watchdog owns "no
                    // progress").
                    if window.runs_completed > 0.0 {
                        verdicts.push(SloVerdict {
                            check: "tokens_per_sec",
                            ok: window.tokens_per_sec >= bound,
                            observed: window.tokens_per_sec,
                            bound,
                        });
                    }
                }
                if let Some(bound) = slo.max_queue_depth {
                    verdicts.push(SloVerdict {
                        check: "queue_depth",
                        ok: m.queue_depth <= bound,
                        observed: m.queue_depth as f64,
                        bound: bound as f64,
                    });
                }
            }

            // --- Fold into the tri-state. ---------------------------
            let hard_failing =
                track.stall_open || m.phase == SessionPhase::Cancelled || tick_failed > 0;
            let soft_failing = verdicts.iter().any(|v| !v.ok);
            let health = if hard_failing {
                track.degraded_streak = track.degraded_streak.max(self.config.failing_after);
                Health::Failing
            } else if soft_failing {
                track.degraded_streak += 1;
                if track.degraded_streak >= self.config.failing_after {
                    Health::Failing
                } else {
                    Health::Degraded
                }
            } else {
                track.degraded_streak = 0;
                Health::Ok
            };

            sessions.push(SessionHealth {
                id: m.id,
                health,
                phase: m.phase,
                retired: m.retired,
                running: m.running,
                queue_depth: m.queue_depth,
                tokens_per_sec: window.tokens_per_sec,
                runs_per_sec: track.runs.window_rate().unwrap_or(0.0),
                deadline_miss_rate: if window.runs_completed > 0.0 {
                    window.deadline_misses / window.runs_completed
                } else {
                    0.0
                },
                arena_hit_rate: c.arena_hit_rate(),
                verdicts,
            });
        }

        // File the incidents gathered above (outside the per-session
        // borrow), attaching the recorder tail.
        for (insp, cause, message, window) in filed {
            let id = state.incidents_total;
            state.incidents_total += 1;
            if state.incidents.len() == self.config.max_incidents.max(1) {
                state.incidents.pop_front();
            }
            state.incidents.push_back(Incident {
                id,
                session: insp.metrics.id,
                cause,
                at_ns: now_ns,
                message,
                window,
                events: self.recorder_tail(insp.trace_tag),
            });
        }

        let service_health = sessions
            .iter()
            .filter(|s| !s.retired)
            .map(|s| s.health)
            .max()
            .unwrap_or(Health::Ok);
        let samples = self.samples.fetch_add(1, Relaxed) + 1;
        state.report = HealthReport {
            health: service_health,
            sessions,
            at_ns: now_ns,
            samples,
        };
    }

    /// The flight recorder's tail, preferring the session's own events
    /// (by trace tag) and falling back to the whole tail when the tag
    /// no longer appears in the retained window.
    fn recorder_tail(&self, trace_tag: u32) -> Vec<TraceEvent> {
        let Some(tracer) = &self.tracer else {
            return Vec::new();
        };
        let tail = self.config.recorder_tail.max(1);
        let recent = tracer.recent(tail * 4);
        let mut own: Vec<TraceEvent> = recent
            .iter()
            .filter(|e| trace_tag != 0 && e.job == trace_tag)
            .cloned()
            .collect();
        let mut events = if own.is_empty() {
            tracer.recent(tail)
        } else {
            if own.len() > tail {
                own.drain(..own.len() - tail);
            }
            own
        };
        events.shrink_to_fit();
        events
    }

    /// The `/metrics` document. Families across the four sections are
    /// prefix-disjoint (`tpdf_service_*`, `tpdf_net_*`, `tpdf_trace_*`,
    /// `tpdf_ops_*`), so their concatenation is one valid exposition —
    /// asserted by `tpdf_trace::lint_prometheus` in the tests.
    pub(crate) fn metrics_text(&self) -> String {
        let mut doc = self.service.metrics().to_prometheus();
        if let Some(net) = self.net.lock().expect("ops net lock").as_ref() {
            doc.push_str(&net.snapshot().to_prometheus());
        }
        let mut expo = Exposition::new();
        if let Some(tracer) = &self.tracer {
            expo.families(TRACE_FAMILIES, tracer.histograms());
        }
        let state = self.state.lock().expect("ops lock");
        expo.families(OPS_FAMILIES, &*state);
        expo.labelled(SESSION_FAMILIES, "session", &state.report.sessions, |s| {
            s.id.0.to_string()
        });
        doc.push_str(&expo.finish());
        doc
    }
}

/// The tracer's latency histograms, prefixed `tpdf_trace_`.
const TRACE_FAMILIES: &[Family<TraceHistograms>] = &[
    Family::histogram("tpdf_trace_firing_ns", "Firing durations", |h| {
        h.firing_ns.snapshot()
    }),
    Family::histogram(
        "tpdf_trace_run_latency_ns",
        "Run latency from queue exit to completion",
        |h| h.run_latency_ns.snapshot(),
    ),
    Family::histogram("tpdf_trace_queue_wait_ns", "Ingress queue wait", |h| {
        h.queue_wait_ns.snapshot()
    }),
];

/// The plane-wide families, prefixed `tpdf_ops_`.
const OPS_FAMILIES: &[Family<State>] = &[
    Family::gauge(
        "tpdf_ops_health",
        "Service health: 0 ok, 1 degraded, 2 failing",
        |s| s.report.health as u8 as f64,
    ),
    Family::counter(
        "tpdf_ops_samples_total",
        "Sampler ticks since the plane started",
        |s| s.report.samples,
    ),
    Family::counter(
        "tpdf_ops_incidents_total",
        "Incidents filed since the plane started",
        |s| s.incidents_total,
    ),
];

/// The per-session families, labelled `session="<id>"`.
const SESSION_FAMILIES: &[Family<SessionHealth>] = &[
    Family::gauge(
        "tpdf_ops_session_health",
        "Session health: 0 ok, 1 degraded, 2 failing",
        |s| s.health as u8 as f64,
    ),
    Family::gauge(
        "tpdf_ops_session_tokens_per_sec",
        "Windowed token throughput per session",
        |s| s.tokens_per_sec,
    ),
    Family::gauge(
        "tpdf_ops_session_deadline_miss_rate",
        "Windowed deadline misses per completed run",
        |s| s.deadline_miss_rate,
    ),
];
