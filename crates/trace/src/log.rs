//! The collected trace: a merged monotone timeline plus exporters.
//!
//! [`crate::Tracer::collect`] drains every lane ring and merges the
//! events into one [`TraceLog`] ordered by timestamp. From there the
//! log exports a Chrome trace-event JSON document (jobs/sessions as
//! processes, worker lanes as threads — loadable in `chrome://tracing`
//! and Perfetto) and a per-phase throughput summary comparable against
//! the simulator's per-iteration records.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{EventKind, TraceEvent};

/// Optional human-readable names for the Chrome export.
#[derive(Debug, Clone, Default)]
pub struct ChromeLabels {
    /// Node names indexed by node id; firings of node `i` are named
    /// `nodes[i]` when present, `node <i>` otherwise.
    pub nodes: Vec<String>,
    /// Process names per job tag (overrides the `session <id>` names
    /// derived from [`EventKind::SessionOpen`] events).
    pub jobs: Vec<(u32, String)>,
}

/// Throughput of one plan (phase) of the run, aggregated from its
/// firing events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Plan index the firings executed under.
    pub plan: u64,
    /// Number of firings observed in this phase.
    pub firings: u64,
    /// Data tokens produced by those firings.
    pub tokens: u64,
    /// Summed firing duration (busy time across all lanes).
    pub busy_ns: u64,
    /// Timestamp of the phase's first observed firing.
    pub first_ts_ns: u64,
    /// Timestamp of the phase's last observed firing.
    pub last_ts_ns: u64,
}

impl PhaseSummary {
    /// Firings per wall-clock second over the phase's observed span
    /// (0.0 for a single-event phase).
    pub fn firings_per_sec(&self) -> f64 {
        let span = self.last_ts_ns.saturating_sub(self.first_ts_ns);
        if span == 0 {
            0.0
        } else {
            self.firings as f64 * 1e9 / span as f64
        }
    }
}

/// A merged, timestamp-ordered snapshot of every lane's events.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceLog {
    /// Builds a log from raw events (sorted here) and a count of
    /// events lost to flight-recorder overwrites or torn reads.
    pub fn new(mut events: Vec<TraceEvent>, dropped: u64) -> TraceLog {
        events.sort_by_key(|e| e.ts_ns);
        TraceLog { events, dropped }
    }

    /// The merged events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events lost to overwrites or torn reads across all lanes.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events of one kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Firing counts grouped by lane (worker participation index).
    pub fn firings_by_lane(&self) -> BTreeMap<u16, u64> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            if e.kind == EventKind::Firing {
                *out.entry(e.lane).or_insert(0) += 1;
            }
        }
        out
    }

    /// Aggregates firing events into per-plan (per-phase) throughput
    /// summaries, sorted by plan index.
    pub fn phase_summary(&self) -> Vec<PhaseSummary> {
        let mut phases: BTreeMap<u64, PhaseSummary> = BTreeMap::new();
        for e in &self.events {
            if e.kind != EventKind::Firing {
                continue;
            }
            let p = phases.entry(e.b).or_insert(PhaseSummary {
                plan: e.b,
                firings: 0,
                tokens: 0,
                busy_ns: 0,
                first_ts_ns: e.ts_ns,
                last_ts_ns: e.ts_ns,
            });
            p.firings += 1;
            p.tokens += e.firing_tokens();
            p.busy_ns += e.firing_duration_ns();
            p.first_ts_ns = p.first_ts_ns.min(e.ts_ns);
            p.last_ts_ns = p.last_ts_ns.max(e.ts_ns);
        }
        phases.into_values().collect()
    }

    /// Exports the log as Chrome trace-event JSON: each job tag
    /// becomes a process (so sessions show up as processes), each lane
    /// a thread. Firings and park intervals become complete (`X`)
    /// spans, barriers become matched `B`/`E` pairs, everything else an
    /// instant. One event per line; loadable in Perfetto.
    ///
    /// The generic `a`/`b`/`c` operands are emitted as JSON *strings*:
    /// they carry 64-bit ids, and a spec-compliant parser reads bare
    /// numbers as IEEE doubles, silently corrupting anything above
    /// 2^53. Timestamps stay numeric (the trace format requires it)
    /// and are microsecond decimals well inside the exact range.
    pub fn to_chrome_json(&self, labels: &ChromeLabels) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: &str| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(line);
        };

        // Process / thread naming metadata.
        let mut job_names: BTreeMap<u32, String> = labels.jobs.iter().cloned().collect();
        for e in &self.events {
            if e.kind == EventKind::SessionOpen {
                job_names
                    .entry(e.job)
                    .or_insert_with(|| format!("session {}", e.a));
            }
        }
        let mut lanes: BTreeSet<(u32, u16)> = BTreeSet::new();
        for e in &self.events {
            lanes.insert((e.job, e.lane));
        }
        for (job, lane) in &lanes {
            let pname = job_names
                .get(job)
                .cloned()
                .unwrap_or_else(|| format!("job {job}"));
            push(
                &mut out,
                &mut first,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{job},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape(&pname)
                ),
            );
            push(
                &mut out,
                &mut first,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{job},\"tid\":{lane},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"worker {lane}\"}}}}"
                ),
            );
        }

        // Park spans pair a Park with the next Wake on the same lane;
        // barrier pairs are only emitted once both ends are seen, which
        // keeps B/E nesting balanced by construction.
        let mut parked: BTreeMap<(u32, u16), u64> = BTreeMap::new();
        let mut barrier: BTreeMap<(u32, u16), TraceEvent> = BTreeMap::new();
        for e in &self.events {
            let lane_key = (e.job, e.lane);
            match e.kind {
                EventKind::Firing => {
                    let name = labels
                        .nodes
                        .get(e.a as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("node {}", e.a));
                    push(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                             \"name\":\"{}\",\"args\":{{\"plan\":{},\"tokens\":{}}}}}",
                            e.job,
                            e.lane,
                            us(e.ts_ns),
                            us(e.firing_duration_ns()),
                            escape(&name),
                            e.b,
                            e.firing_tokens()
                        ),
                    );
                }
                EventKind::Park => {
                    parked.insert(lane_key, e.ts_ns);
                }
                EventKind::Wake => {
                    if let Some(start) = parked.remove(&lane_key) {
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                                 \"name\":\"park\"}}",
                                e.job,
                                e.lane,
                                us(start),
                                us(e.ts_ns.saturating_sub(start))
                            ),
                        );
                    }
                }
                EventKind::BarrierEnter => {
                    barrier.insert(lane_key, *e);
                }
                EventKind::BarrierExit => {
                    if let Some(enter) = barrier.remove(&lane_key) {
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"ph\":\"B\",\"pid\":{},\"tid\":{},\"ts\":{},\
                                 \"name\":\"barrier\",\"args\":{{\"iteration\":{}}}}}",
                                e.job,
                                e.lane,
                                us(enter.ts_ns),
                                enter.c
                            ),
                        );
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"ph\":\"E\",\"pid\":{},\"tid\":{},\"ts\":{}}}",
                                e.job,
                                e.lane,
                                us(e.ts_ns.max(enter.ts_ns))
                            ),
                        );
                    }
                }
                _ => {
                    push(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\
                             \"name\":\"{}\",\"args\":{{\"a\":\"{}\",\"b\":\"{}\",\"c\":\"{}\"}}}}",
                            e.job,
                            e.lane,
                            us(e.ts_ns),
                            e.kind.label(),
                            e.a,
                            e.b,
                            e.c
                        ),
                    );
                }
            }
        }
        out.push_str("\n]}");
        out
    }
}

/// Nanoseconds rendered as the microsecond decimal Chrome expects.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Minimal JSON string escaping for names (labels are ASCII-ish in
/// practice; anything below 0x20 is dropped to an underscore).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push('_'),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(ts: u64, kind: EventKind, lane: u16, job: u32, a: u64, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            lane,
            job,
            a,
            b,
            c,
        }
    }

    #[test]
    fn merge_sorts_and_counts() {
        let log = TraceLog::new(
            vec![
                ev(
                    30,
                    EventKind::Firing,
                    1,
                    0,
                    2,
                    0,
                    TraceEvent::pack_firing(5, 3),
                ),
                ev(
                    10,
                    EventKind::Firing,
                    0,
                    0,
                    1,
                    0,
                    TraceEvent::pack_firing(4, 2),
                ),
                ev(20, EventKind::Steal, 1, 0, 2, 0, 0),
            ],
            7,
        );
        assert_eq!(
            log.events().iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(log.count(EventKind::Firing), 2);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.firings_by_lane().get(&1), Some(&1));
    }

    #[test]
    fn phase_summary_groups_by_plan() {
        let log = TraceLog::new(
            vec![
                ev(
                    0,
                    EventKind::Firing,
                    0,
                    0,
                    0,
                    0,
                    TraceEvent::pack_firing(10, 1),
                ),
                ev(
                    100,
                    EventKind::Firing,
                    1,
                    0,
                    0,
                    0,
                    TraceEvent::pack_firing(20, 2),
                ),
                ev(
                    200,
                    EventKind::Firing,
                    0,
                    0,
                    0,
                    1,
                    TraceEvent::pack_firing(30, 4),
                ),
            ],
            0,
        );
        let phases = log.phase_summary();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].plan, 0);
        assert_eq!(phases[0].firings, 2);
        assert_eq!(phases[0].tokens, 3);
        assert_eq!(phases[0].busy_ns, 30);
        assert_eq!(phases[0].first_ts_ns, 0);
        assert_eq!(phases[0].last_ts_ns, 100);
        assert!((phases[0].firings_per_sec() - 2e7).abs() < 1.0);
        assert_eq!(phases[1].plan, 1);
        assert_eq!(phases[1].firings, 1);
    }

    #[test]
    fn chrome_export_is_valid_balanced_json() {
        let log = TraceLog::new(
            vec![
                ev(5, EventKind::SessionOpen, 4, 7, 42, 0, 0),
                ev(
                    10,
                    EventKind::Firing,
                    0,
                    7,
                    0,
                    0,
                    TraceEvent::pack_firing(50, 1),
                ),
                ev(20, EventKind::Park, 1, 7, 0, 0, 0),
                ev(90, EventKind::Wake, 1, 7, 0, 0, 0),
                ev(100, EventKind::BarrierEnter, 0, 7, 0, 0, 3),
                ev(150, EventKind::BarrierExit, 0, 7, 0, 1, 3),
                // Unmatched enter must not unbalance the export.
                ev(160, EventKind::BarrierEnter, 1, 7, 0, 0, 4),
            ],
            0,
        );
        let labels = ChromeLabels {
            nodes: vec!["src \"quoted\"".into()],
            jobs: vec![],
        };
        let json_text = log.to_chrome_json(&labels);
        json::validate_interop(&json_text).expect("chrome export must be valid interop JSON");
        assert_eq!(
            json_text.matches("\"ph\":\"B\"").count(),
            json_text.matches("\"ph\":\"E\"").count()
        );
        assert!(json_text.contains("session 42"));
        assert!(json_text.contains("src \\\"quoted\\\""));
        assert!(json_text.contains("\"name\":\"park\""));
        assert!(json_text.contains("\"ts\":0.010"));
    }

    #[test]
    fn ids_beyond_2_53_survive_the_chrome_export() {
        // A long-lived service's monotone ids overflow the exact range
        // of a double; the export must carry them as strings, and the
        // strict checker must prove no bare literal leaks through.
        let big = (1u64 << 60) + 3;
        let log = TraceLog::new(
            vec![
                ev(5, EventKind::SessionOpen, 4, 7, big, 0, 0),
                ev(10, EventKind::SessionDispatch, 4, 7, big, big + 1, 17),
            ],
            0,
        );
        let json_text = log.to_chrome_json(&ChromeLabels::default());
        json::validate_interop(&json_text).expect("large ids must not be bare JSON numbers");
        // Round-trip: the decimal digits of the id appear verbatim,
        // quoted, so a parser recovers the exact value as a string.
        assert!(json_text.contains(&format!("\"a\":\"{big}\"")));
        assert!(json_text.contains(&format!("\"b\":\"{}\"", big + 1)));
        assert!(json_text.contains(&format!("session {big}")));
    }

    #[test]
    fn empty_log_still_exports_valid_json() {
        let log = TraceLog::default();
        json::validate(&log.to_chrome_json(&ChromeLabels::default())).unwrap();
        assert!(log.phase_summary().is_empty());
    }
}
