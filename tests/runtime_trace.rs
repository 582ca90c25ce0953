//! Cross-checks of the `tpdf-trace` flight recorder against the
//! runtime's own [`Metrics`]: every firing the executor counts must
//! appear exactly once in the merged trace (when no ring overwrote),
//! per-lane counts must match `worker_firings`, the Chrome trace-event
//! export of a multi-session service run must be well-formed JSON with
//! monotone per-lane timestamps and balanced span nesting, and a stall
//! error must carry the flight-recorder tail, bounded.
//!
//! Each invariant runs at two per-lane ring capacities: 16384, where
//! nothing is overwritten and counts must match exactly, and 16, which
//! exercises the overwrite-oldest flight-recorder path — the
//! invariants then relax to consistency (bounded event count, drops
//! counted) instead of exact equality.

use std::sync::Arc;
use tpdf_suite::core::examples::{figure2_graph, figure4_deadlocked_graph};
use tpdf_suite::runtime::executor::STALL_DUMP_EVENTS;
use tpdf_suite::runtime::{Executor, KernelRegistry, Metrics, RuntimeConfig, RuntimeError, Tracer};
use tpdf_suite::service::{ServiceConfig, TpdfService};
use tpdf_suite::symexpr::Binding;
use tpdf_suite::trace::{json, ChromeLabels, EventKind, TraceLog};

const ITERATIONS: u64 = 10;

/// Per-lane ring capacities every invariant is checked at: one that
/// holds a whole scenario, one that overwrites constantly.
const CAPACITIES: [usize; 2] = [1 << 14, 16];

fn binding(p: i64) -> Binding {
    Binding::from_pairs([("p", p)])
}

/// Runs figure 2 on `threads` workers with a fresh tracer of
/// `capacity` events per lane and returns the merged log plus the
/// run's metrics.
fn traced_run(threads: usize, capacity: usize) -> (TraceLog, Metrics) {
    let tracer = Tracer::flight_recorder(threads, capacity);
    let config = RuntimeConfig::new(binding(2))
        .with_threads(threads)
        .with_iterations(ITERATIONS)
        .with_tracer(Arc::clone(&tracer));
    let graph = figure2_graph();
    let metrics = Executor::new(&graph, config)
        .expect("figure 2 compiles")
        .run(&KernelRegistry::new())
        .expect("figure 2 runs");
    (tracer.collect(), metrics)
}

/// The merged trace agrees with the executor's own counters — exactly
/// when nothing was overwritten, and boundedly at a tiny
/// flight-recorder capacity.
fn check_firing_invariants(threads: usize) {
    for capacity in CAPACITIES {
        check_firing_invariants_at(threads, capacity);
    }
}

fn check_firing_invariants_at(threads: usize, capacity: usize) {
    let (log, metrics) = traced_run(threads, capacity);
    let expected: u64 = metrics.firings.iter().sum();
    let traced = log.count(EventKind::Firing);
    let lanes = threads + 1;
    if log.dropped() == 0 {
        assert_eq!(
            traced, expected,
            "merged Firing events must equal Metrics::firings total \
             ({threads} threads)"
        );
        let by_lane = log.firings_by_lane();
        for (worker, &firings) in metrics.worker_firings.iter().enumerate() {
            let lane = by_lane.get(&(worker as u16)).copied().unwrap_or(0);
            assert_eq!(
                lane, firings,
                "lane {worker} firings must match worker_firings \
                 ({threads} threads)"
            );
        }
        let extra: u64 = by_lane
            .iter()
            .filter(|(&lane, _)| lane as usize >= metrics.worker_firings.len())
            .map(|(_, &count)| count)
            .sum();
        assert_eq!(extra, 0, "no firings outside the run's workers");
    } else {
        // Overwrite-oldest mode: the recorder keeps at most `capacity`
        // events per lane and counts every casualty.
        assert!(
            log.events().len() <= capacity * lanes,
            "flight recorder must stay within {capacity} events per lane"
        );
        assert!(
            traced <= expected,
            "an overwriting recorder can only lose firings, not invent them"
        );
    }
}

#[test]
fn trace_matches_metrics_single_thread_work_stealing() {
    check_firing_invariants(1);
}

#[test]
fn trace_matches_metrics_four_threads_work_stealing() {
    check_firing_invariants(4);
}

/// A disabled tracer records nothing at all.
#[test]
fn disabled_tracer_records_nothing() {
    let tracer = Tracer::flight_recorder(2, 256);
    tracer.set_enabled(false);
    let config = RuntimeConfig::new(binding(2))
        .with_threads(2)
        .with_iterations(3)
        .with_tracer(Arc::clone(&tracer));
    let graph = figure2_graph();
    Executor::new(&graph, config)
        .expect("figure 2 compiles")
        .run(&KernelRegistry::new())
        .expect("figure 2 runs");
    let log = tracer.collect();
    assert_eq!(log.events().len(), 0, "disabled tracing must be silent");
    assert_eq!(log.dropped(), 0);
}

/// The acceptance scenario: a 4-thread multi-session service run whose
/// Chrome trace-event export validates — well-formed JSON, timestamps
/// monotone per (process, thread) lane, `B`/`E` span nesting balanced,
/// and firing counts matching the runs' `Metrics`.
#[test]
fn service_chrome_trace_validates() {
    for capacity in CAPACITIES {
        check_service_chrome_trace(capacity);
    }
}

fn check_service_chrome_trace(capacity: usize) {
    let threads = 4;
    let tracer = Tracer::flight_recorder(threads, capacity);
    let service = TpdfService::new(
        ServiceConfig::default()
            .with_threads(threads)
            .with_tracer(Arc::clone(&tracer)),
    );
    let graph = figure2_graph();
    let mut expected_firings = 0u64;
    let mut tags = Vec::new();
    for p in [1i64, 2, 3] {
        let session = service
            .open_session(
                &graph,
                RuntimeConfig::new(binding(p))
                    .with_threads(threads)
                    .with_iterations(4),
                KernelRegistry::new(),
            )
            .expect("session admitted");
        let requests: Vec<_> = (0..2).map(|_| service.submit(session).unwrap()).collect();
        for request in requests {
            let metrics = service.wait(session, request).expect("run succeeds");
            expected_firings += metrics.firings.iter().sum::<u64>();
        }
        tags.push((p, session));
    }
    service.drain();
    let log = tracer.collect();
    // At the large capacity the whole scenario fits and counts are
    // exact; the small one exercises overwrite instead, where the
    // structural checks below still must hold.
    if log.dropped() == 0 {
        assert_eq!(log.count(EventKind::Firing), expected_firings);
        assert_eq!(log.count(EventKind::SessionOpen), 3);
        assert_eq!(log.count(EventKind::RequestSubmit), 6);
        assert_eq!(log.count(EventKind::SessionDispatch), 6);
        assert_eq!(log.count(EventKind::RunComplete), 6);
    } else {
        assert!(
            log.count(EventKind::Firing) <= expected_firings,
            "an overwriting recorder can only lose firings"
        );
    }

    // Per-(job, lane) timestamps are monotone in the merged log.
    let mut last_seen = std::collections::BTreeMap::new();
    for event in log.events() {
        let key = (event.job, event.lane);
        let last = last_seen.entry(key).or_insert(0u64);
        assert!(
            event.ts_ns >= *last,
            "timestamps must be monotone within lane {key:?}"
        );
        *last = event.ts_ns;
    }

    let chrome = log.to_chrome_json(&ChromeLabels::default());
    json::validate(&chrome).unwrap_or_else(|(pos, what)| {
        panic!("Chrome trace JSON invalid at byte {pos}: {what}");
    });
    let begins = chrome.matches("\"ph\":\"B\"").count();
    let ends = chrome.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "span nesting must be balanced");
    if log.dropped() == 0 {
        assert!(
            chrome.matches("\"ph\":\"X\"").count() as u64 >= expected_firings,
            "every firing must appear as a complete event"
        );
    }
}

/// Satellite 6 regression, the public half: a deadlocked graph is
/// caught by the analysis before the runtime ever parks on it (the
/// runtime stall path itself — budgets plus bounded flight-recorder
/// tail — is unit-tested next to `stall_error` in the executor), and a
/// `Stalled` error's `Display` surfaces its diagnostics verbatim and
/// bounded.
#[test]
fn stall_display_surfaces_bounded_diagnostics() {
    // Deadlock detection still fires before the runtime stall path.
    let deadlocked = figure4_deadlocked_graph();
    let result = Executor::new(&deadlocked, RuntimeConfig::new(binding(2)).with_threads(1));
    assert!(
        matches!(result, Err(RuntimeError::Analysis(_))),
        "analysis must catch the tokenless cycle"
    );

    // A Stalled error renders its diagnostics — budgets and recorder
    // tail — after the blocked-nodes headline, without unbounded
    // growth: exactly the attached lines, trimmed.
    let mut diagnostics = String::from("  node 1 (B): 4 of 4 firings remaining\n");
    diagnostics.push_str(&format!(
        "  flight recorder tail ({STALL_DUMP_EVENTS} events):\n"
    ));
    for i in 0..STALL_DUMP_EVENTS {
        diagnostics.push_str(&format!("    [{i:>12}ns] job 0 lane 0 steal\n"));
    }
    let error = RuntimeError::Stalled {
        blocked: vec!["B".into()],
        iteration: 7,
        diagnostics: diagnostics.clone(),
    };
    let rendered = error.to_string();
    assert!(rendered.contains("blocked nodes: B"));
    assert!(rendered.contains("firings remaining"));
    assert!(rendered.contains("flight recorder tail"));
    let tail_lines = rendered
        .lines()
        .filter(|line| line.starts_with("    "))
        .count();
    assert_eq!(tail_lines, STALL_DUMP_EVENTS, "the dump must stay bounded");
}
