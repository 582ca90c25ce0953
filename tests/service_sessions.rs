//! Stress suite for the `tpdf-service` multi-session layer: many
//! concurrent sessions — mixed case studies (edge detection, OFDM,
//! FM radio) under mixed per-session `RuntimeConfig`s (thread counts,
//! control policies, binding sequences) — share one
//! pool, and every session's sink token stream must be **byte-identical
//! to its solo run**; one panicking session must not poison its
//! neighbours; admission rejections must be observable in
//! `ServiceMetrics`. (That the pool spawns no thread per session is
//! asserted in `tests/thread_leaks.rs`, which owns its process.)
//!
//! CI matrix knob: `TPDF_SERVICE_THREADS` — pool worker count
//! (default 4).

use tpdf_suite::apps::edge_detection::{EdgeDetectionApp, EdgeDetector};
use tpdf_suite::apps::fm_radio::FmRadioConfig;
use tpdf_suite::apps::image::GrayImage;
use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::core::actors::KernelKind;
use tpdf_suite::core::examples::figure2_graph;
use tpdf_suite::core::graph::TpdfGraph;
use tpdf_suite::core::rate::RateSeq;
use tpdf_suite::runtime::{
    EdgeDetectionRuntime, Executor, FmRadioRuntime, KernelRegistry, OfdmRuntime, OutputCapture,
    RuntimeConfig, Token,
};
use tpdf_suite::service::{ServiceConfig, ServiceError, SessionStatus, TpdfService};
use tpdf_suite::sim::engine::{ControlPolicy, SimulationConfig, Simulator};
use tpdf_suite::symexpr::Binding;

/// Runs of each session (the ingress queue sees more than one request
/// per session, and captures accumulate across them).
const RUNS_PER_SESSION: u64 = 2;

fn service_threads() -> usize {
    std::env::var("TPDF_SERVICE_THREADS")
        .ok()
        .and_then(|spec| spec.trim().parse().ok())
        .filter(|&threads| threads > 0)
        .unwrap_or(4)
}

/// One prepared session: the graph, its per-session configuration, the
/// registry wired for the service run, the service-side capture, and
/// the solo-run reference tokens.
struct SessionSpec {
    name: &'static str,
    graph: TpdfGraph,
    config: RuntimeConfig,
    registry: KernelRegistry,
    capture: Option<OutputCapture>,
    /// Sink tokens of `RUNS_PER_SESSION` solo `Executor::run`s on a fresh
    /// registry — the byte-identical reference.
    solo_tokens: Option<Vec<Token>>,
}

impl SessionSpec {
    fn new(
        name: &'static str,
        graph: TpdfGraph,
        config: RuntimeConfig,
        service_pair: (KernelRegistry, OutputCapture),
        solo_pair: (KernelRegistry, OutputCapture),
    ) -> Self {
        let (registry, capture) = service_pair;
        let (solo_registry, solo_capture) = solo_pair;
        let executor = Executor::new(&graph, config.clone()).expect("solo executor");
        for _ in 0..RUNS_PER_SESSION {
            executor.run(&solo_registry).expect("solo run");
        }
        SessionSpec {
            name,
            graph,
            config,
            registry,
            capture: Some(capture),
            solo_tokens: Some(solo_capture.take_tokens()),
        }
    }
}

fn edge_specs() -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    // WaitAll: the Transaction forwards the best (Canny) result.
    let port =
        EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(32, 32, 5));
    specs.push(SessionSpec::new(
        "edge_waitall",
        port.graph(),
        RuntimeConfig::new(Binding::new()).with_threads(4),
        port.registry(None),
        port.registry(None),
    ));
    // SelectInput: a scripted policy picks one detector.
    let port =
        EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(24, 24, 9));
    specs.push(SessionSpec::new(
        "edge_select_sobel",
        port.graph(),
        RuntimeConfig::new(Binding::new())
            .with_threads(2)
            .with_policy(ControlPolicy::SelectInput(
                EdgeDetector::ALL
                    .iter()
                    .position(|d| *d == EdgeDetector::Sobel)
                    .unwrap(),
            )),
        port.registry(None),
        port.registry(None),
    ));
    // A second WaitAll image on four workers.
    let port =
        EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(28, 28, 3));
    specs.push(SessionSpec::new(
        "edge_28px",
        port.graph(),
        RuntimeConfig::new(Binding::new()).with_threads(4),
        port.registry(None),
        port.registry(None),
    ));
    specs
}

fn ofdm_specs() -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    // QPSK, data-dependent control (CON reads M from SRC's stream).
    let port = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        31,
    );
    specs.push(SessionSpec::new(
        "ofdm_qpsk",
        port.graph(),
        RuntimeConfig::new(port.config().binding())
            .with_threads(4)
            .with_mode_selector(port.mode_selector())
            .with_value_trace(port.value_trace()),
        port.registry(),
        port.registry(),
    ));
    // QAM on a different symbol stream.
    let port = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 1,
            bits_per_symbol: 4,
            vectorization: 2,
        },
        5,
    );
    specs.push(SessionSpec::new(
        "ofdm_qam",
        port.graph(),
        RuntimeConfig::new(port.config().binding())
            .with_threads(2)
            .with_mode_selector(port.mode_selector())
            .with_value_trace(port.value_trace()),
        port.registry(),
        port.registry(),
    ));
    // QPSK again, on longer symbols.
    let port = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 32,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 3,
        },
        77,
    );
    specs.push(SessionSpec::new(
        "ofdm_qpsk_32",
        port.graph(),
        RuntimeConfig::new(port.config().binding())
            .with_threads(4)
            .with_mode_selector(port.mode_selector())
            .with_value_trace(port.value_trace()),
        port.registry(),
        port.registry(),
    ));
    specs
}

fn fm_specs() -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for (name, bands, block, seed, band, threads) in [
        ("fm_band0", 3usize, 8usize, 7u64, 0usize, 1usize),
        ("fm_band2", 4, 16, 11, 2, 2),
        ("fm_band1", 3, 8, 3, 1, 4),
    ] {
        let port = FmRadioRuntime::new(FmRadioConfig { bands, block }, seed);
        specs.push(SessionSpec::new(
            name,
            port.graph(),
            RuntimeConfig::new(port.binding())
                .with_threads(threads)
                .with_policy(ControlPolicy::SelectInput(band)),
            port.registry(),
            port.registry(),
        ));
    }
    specs
}

/// Figure 2 with a per-iteration binding sequence: rebinds work
/// unchanged per session. Compared by firing counts against the
/// count-level reference (the default kernels move unit tokens, so
/// there is no payload capture to diff).
fn figure2_spec() -> SessionSpec {
    let binding = Binding::from_pairs([("p", 1)]);
    let sequence = vec![
        Binding::from_pairs([("p", 1)]),
        Binding::from_pairs([("p", 3)]),
        Binding::from_pairs([("p", 2)]),
    ];
    SessionSpec {
        name: "figure2_rebinding",
        graph: figure2_graph(),
        config: RuntimeConfig::new(binding)
            .with_threads(2)
            .with_iterations(3)
            .with_binding_sequence(sequence),
        registry: KernelRegistry::new(),
        capture: None,
        solo_tokens: None,
    }
}

#[test]
fn concurrent_sessions_match_solo_runs_without_poisoning() {
    let mut specs = Vec::new();
    specs.extend(edge_specs());
    specs.extend(ofdm_specs());
    specs.extend(fm_specs());
    specs.push(figure2_spec());
    assert!(
        specs.len() >= 8,
        "the issue demands ≥ 8 concurrent sessions"
    );

    let threads = service_threads();
    let session_budget = specs.len() + 1; // + the panicking session
    let service = TpdfService::new(
        ServiceConfig::default()
            .with_threads(threads)
            .with_max_sessions(session_budget)
            .with_queue_capacity(RUNS_PER_SESSION as usize),
    );

    // A deliberately panicking session rides along with the healthy
    // ones: its runs must fail, its neighbours must not notice.
    let panic_graph = figure2_graph();
    let mut panic_registry = KernelRegistry::new();
    panic_registry.register_fn("B", |_| panic!("session gone rogue"));
    let panic_session = service
        .open_session(
            &panic_graph,
            RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_threads(2),
            panic_registry,
        )
        .expect("admit the panicking session");

    // Admission control is observable: the session budget is now
    // exhausted mid-way, so an extra open must be rejected and counted.
    let mut sessions = Vec::new();
    for spec in &specs {
        let id = service
            .open_session(&spec.graph, spec.config.clone(), spec.registry.clone())
            .unwrap_or_else(|e| panic!("admit {}: {e}", spec.name));
        sessions.push(id);
    }
    let refused = service.open_session(
        &figure2_graph(),
        RuntimeConfig::new(Binding::from_pairs([("p", 1)])).with_threads(1),
        KernelRegistry::new(),
    );
    assert!(
        matches!(refused, Err(ServiceError::SessionLimit { .. })),
        "the {session_budget}-session budget must reject the extra: {refused:?}"
    );

    // Submit every session's requests up front: the ingress queues hold
    // them while the pool multiplexes the sessions concurrently.
    let mut requests = vec![Vec::new(); specs.len()];
    let mut panic_requests = Vec::new();
    for run in 0..RUNS_PER_SESSION {
        for (session, requests) in sessions.iter().zip(&mut requests) {
            requests.push(service.submit(*session).unwrap());
        }
        if run == 0 {
            panic_requests.push(service.submit(panic_session).unwrap());
        }
    }

    // The panicking session fails — and only it.
    for request in panic_requests {
        let outcome = service.wait(panic_session, request);
        assert!(
            matches!(outcome, Err(ServiceError::Runtime(_))),
            "the rogue session must fail its own runs: {outcome:?}"
        );
    }

    for ((spec, session), session_requests) in specs.iter().zip(&sessions).zip(&requests) {
        for request in session_requests {
            let metrics = service
                .wait(*session, *request)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(metrics.iterations > 0, "{}", spec.name);
        }
        assert_eq!(
            service.poll(*session).unwrap(),
            SessionStatus::Idle,
            "{}",
            spec.name
        );
    }

    // Byte-identical sink streams: the multiplexed runs produced
    // exactly the solo runs' tokens, session by session.
    for spec in &specs {
        if let (Some(capture), Some(solo)) = (&spec.capture, &spec.solo_tokens) {
            assert_eq!(
                &capture.take_tokens(),
                solo,
                "{}: service sink stream differs from its solo run",
                spec.name
            );
            assert!(!solo.is_empty(), "{}: vacuous comparison", spec.name);
        }
    }

    // The rebinding session is checked against the count-level engine.
    {
        let spec = specs.last().expect("figure2 spec is last");
        let reference = Simulator::new(
            &spec.graph,
            SimulationConfig::new(spec.config.binding.clone())
                .with_binding_sequence(spec.config.binding_sequence.clone()),
        )
        .unwrap()
        .run_iterations(spec.config.iterations)
        .unwrap();
        let report = service.metrics();
        let per = report.session(*sessions.last().unwrap()).unwrap();
        assert_eq!(
            per.counters.firings,
            RUNS_PER_SESSION * reference.firings.iter().sum::<u64>(),
            "rebinding session firings must match the reference per run"
        );
    }

    let report = service.drain();
    assert!(report.sessions_rejected >= 1, "rejections must be counted");
    assert_eq!(
        report.runs_completed,
        specs.len() as u64 * RUNS_PER_SESSION,
        "every healthy run completes"
    );
    assert_eq!(report.runs_failed, 1, "exactly the rogue session failed");
    assert_eq!(report.queued_requests, 0, "drain leaves no queued work");
    for spec_metrics in &report.per_session {
        assert_eq!(spec_metrics.queue_depth, 0);
        assert!(!spec_metrics.running);
    }
}

/// A Clock-driven deadline graph whose sessions carry real admission
/// demand (cost units per period) — what makes a migration target
/// genuinely *full*.
fn deadline_graph(work: u64, period: u64) -> TpdfGraph {
    TpdfGraph::builder()
        .kernel_with("src", KernelKind::Regular, work)
        .kernel_with("proc", KernelKind::Regular, work)
        .kernel_with("clock", KernelKind::Clock { period }, 0)
        .kernel_with("tran", KernelKind::Transaction { votes_required: 0 }, 1)
        .kernel("snk")
        .channel("src", "proc", RateSeq::constant(1), RateSeq::constant(1), 0)
        .channel(
            "proc",
            "tran",
            RateSeq::constant(1),
            RateSeq::constant(1),
            0,
        )
        .control_channel("clock", "tran", RateSeq::constant(1), RateSeq::constant(1))
        .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0)
        .build()
        .unwrap()
}

/// The live-migration stress case: ≥ 8 mixed sessions stream on a
/// source service while a panicking rider runs alongside; three of
/// them — one per case-study family — are migrated to a second service
/// **mid-stream** (each with a run still in flight or queued when the
/// migration starts; `migrate_session` drains to the request barrier
/// itself). Every session's accumulated sink capture must stay
/// byte-identical to its solo run, and a migration towards a service whose deadline capacity is exhausted
/// must be refused — leaving the victim serving on the source.
#[test]
fn live_migration_between_services_preserves_streams() {
    let mut specs = Vec::new();
    specs.extend(edge_specs());
    specs.extend(ofdm_specs());
    specs.extend(fm_specs());
    specs.push(figure2_spec());
    assert!(specs.len() >= 8, "the issue demands ≥ 8 live sessions");
    // One spec per case-study family moves mid-stream.
    let migrate_indices = [0usize, 4, specs.len() - 1];

    let threads = service_threads();
    let source = TpdfService::new(
        ServiceConfig::default()
            .with_threads(threads)
            .with_max_sessions(specs.len() + 2)
            .with_queue_capacity(RUNS_PER_SESSION as usize),
    );
    let target = TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(specs.len()),
    );
    // The capacity-exhausted target for the refusal leg below.
    let full_target = TpdfService::new(ServiceConfig::default().with_threads(1));
    let deadline = deadline_graph(10, 30);
    let deadline_config = || {
        RuntimeConfig::new(Binding::new())
            .with_threads(1)
            .with_real_time(std::time::Duration::from_micros(50))
    };
    full_target
        .open_session(&deadline, deadline_config(), KernelRegistry::new())
        .expect("the first deadline session fits the target");

    // The panicking rider stays busy on the source while the
    // migrations drain their victims.
    let panic_graph = figure2_graph();
    let mut panic_registry = KernelRegistry::new();
    panic_registry.register_fn("B", |_| panic!("session gone rogue"));
    let panic_session = source
        .open_session(
            &panic_graph,
            RuntimeConfig::new(Binding::from_pairs([("p", 2)]))
                .with_threads(2)
                .with_iterations(20),
            panic_registry,
        )
        .expect("admit the panicking rider");

    let mut sessions = Vec::new();
    for spec in &specs {
        let id = source
            .open_session(&spec.graph, spec.config.clone(), spec.registry.clone())
            .unwrap_or_else(|e| panic!("admit {}: {e}", spec.name));
        sessions.push(id);
    }

    // First half of the load: every session gets a run in flight (or
    // queued), the rider starts panicking.
    let mut first_requests = Vec::new();
    for session in &sessions {
        first_requests.push(source.submit(*session).unwrap());
    }
    let rider_request = source.submit(panic_session).unwrap();

    // Migrate mid-stream: the first run of each victim is still
    // working its way through the shared pool. checkpoint_session
    // (inside migrate) drains it to the request barrier, then the
    // session moves; everyone else keeps streaming on the source.
    let mut moved = Vec::new();
    for &index in &migrate_indices {
        let new_id = source
            .migrate_session(sessions[index], &target)
            .unwrap_or_else(|e| panic!("migrate {}: {e}", specs[index].name));
        moved.push((index, new_id));
        assert_eq!(
            source.poll(sessions[index]).unwrap(),
            SessionStatus::Retired,
            "{}: the source original must retire after the move",
            specs[index].name
        );
    }

    // Second half of the load: migrated sessions run on the target,
    // the rest stay on the source. The shared captures accumulate
    // across both services.
    let mut second_requests = Vec::new();
    for (index, session) in sessions.iter().enumerate() {
        match moved.iter().find(|(i, _)| *i == index) {
            Some((_, new_id)) => {
                second_requests.push((true, *new_id, target.submit(*new_id).unwrap()))
            }
            None => second_requests.push((false, *session, source.submit(*session).unwrap())),
        }
    }

    // Collect everything. First-run results of migrated sessions stay
    // retrievable on the *source* under the old id.
    let rider = source.wait(panic_session, rider_request);
    assert!(
        matches!(rider, Err(ServiceError::Runtime(_))),
        "the rider must fail only itself: {rider:?}"
    );
    for (index, (session, request)) in sessions.iter().zip(&first_requests).enumerate() {
        source
            .wait(*session, *request)
            .unwrap_or_else(|e| panic!("{} first run: {e}", specs[index].name));
    }
    for (index, (on_target, session, request)) in second_requests.iter().enumerate() {
        let service = if *on_target { &target } else { &source };
        let metrics = service
            .wait(*session, *request)
            .unwrap_or_else(|e| panic!("{} second run: {e}", specs[index].name));
        assert!(metrics.iterations > 0, "{}", specs[index].name);
    }

    // Byte-identical accumulated streams: one run on the source plus
    // one on the target equals the solo double run, token for token.
    for spec in &specs {
        if let (Some(capture), Some(solo)) = (&spec.capture, &spec.solo_tokens) {
            assert_eq!(
                &capture.take_tokens(),
                solo,
                "{}: stream across the migration differs from its solo runs",
                spec.name
            );
            assert!(!solo.is_empty(), "{}: vacuous comparison", spec.name);
        }
    }

    // Request numbering continued across the move: the second request
    // of every migrated session is numbered after its first.
    for (on_target, _, request) in &second_requests {
        if *on_target {
            assert!(request.0 >= 1, "migrated request ids must continue");
        }
    }

    // A target with exhausted deadline capacity refuses the migration
    // and the victim keeps serving on the source. The 0.77-demand
    // deadline sessions fit a 1-thread pool once, not twice.
    let victim = source
        .open_session(&deadline, deadline_config(), KernelRegistry::new())
        .expect("the source has headroom");
    let refused = source.migrate_session(victim, &full_target);
    assert!(
        matches!(refused, Err(ServiceError::Oversubscribed { .. })),
        "a full target must refuse the move: {refused:?}"
    );
    let still_served = source.submit(victim).unwrap();
    source
        .wait(victim, still_served)
        .expect("the refused victim keeps serving on the source");

    // Ledger: three moves out of the source, three arrivals on the
    // target, one refusal on the full target.
    let source_report = source.drain();
    assert_eq!(source_report.migrations, 3);
    assert_eq!(
        source_report.checkpoints_taken, 4,
        "3 moves + the refused one"
    );
    assert_eq!(source_report.runs_failed, 1, "exactly the rider failed");
    let target_report = target.drain();
    assert_eq!(target_report.restores, 3);
    assert_eq!(target_report.runs_completed, 3);
    assert!(full_target.drain().sessions_rejected >= 1);
}

/// The drain-vs-migrate race: `drain()` and `migrate_session` both
/// park on the service condvar waiting for sessions to go idle. This
/// races them on live sessions with runs still in flight — neither
/// waiter may be stranded (a missed wakeup deadlocks one of them),
/// every submitted run must complete, the sink streams must stay
/// byte-identical to their solo runs, and the
/// migration/checkpoint/restore ledgers must agree across both
/// services afterwards.
#[test]
fn drain_racing_migration_strands_no_waiter_and_keeps_ledgers_consistent() {
    let specs = ofdm_specs();
    let threads = service_threads();
    let source = TpdfService::new(
        ServiceConfig::default()
            .with_threads(threads)
            .with_max_sessions(specs.len())
            .with_queue_capacity(RUNS_PER_SESSION as usize),
    );
    let target = TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(specs.len()),
    );

    // Admit and load every session so the race starts with the pool
    // busy: drain has something to wait for, and each migration's
    // checkpoint must first drain its victim to the request barrier.
    let mut sessions = Vec::new();
    let mut requests = vec![Vec::new(); specs.len()];
    for (spec, session_requests) in specs.iter().zip(&mut requests) {
        let id = source
            .open_session(&spec.graph, spec.config.clone(), spec.registry.clone())
            .unwrap_or_else(|e| panic!("admit {}: {e}", spec.name));
        for _ in 0..RUNS_PER_SESSION {
            session_requests.push(source.submit(id).unwrap());
        }
        sessions.push(id);
    }

    // The race: one thread drains the source while another migrates
    // every session to the target. The submitted runs are still
    // working through the pool when both waiters park.
    let (drain_report, migrations) = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| source.drain());
        let migrator = scope.spawn(|| {
            sessions
                .iter()
                .map(|&id| source.migrate_session(id, &target))
                .collect::<Vec<_>>()
        });
        (
            drainer.join().expect("drain thread"),
            migrator.join().expect("migrate thread"),
        )
    });

    // `drain` stops admissions and requests, but a checkpoint of a
    // live session is still legal — so on this quiet source every
    // migration must have succeeded (the assertions below catch a
    // migration erroring out as much as a stranded waiter would have
    // hung the scope above).
    let mut moved = Vec::new();
    for (spec, outcome) in specs.iter().zip(migrations) {
        match outcome {
            Ok(new_id) => moved.push(new_id),
            Err(e) => panic!("{}: migration lost the race it must win: {e}", spec.name),
        }
    }

    // Every pre-race run completed on the source; results of migrated
    // sessions stay retrievable under the old id.
    for ((spec, session), session_requests) in specs.iter().zip(&sessions).zip(&requests) {
        for request in session_requests {
            source
                .wait(*session, *request)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    // Byte identity across the race: the captures hold exactly the
    // solo runs' tokens — nothing was lost, duplicated or reordered.
    for spec in &specs {
        let (capture, solo) = (
            spec.capture.as_ref().expect("ofdm specs capture"),
            spec.solo_tokens.as_ref().expect("ofdm specs reference"),
        );
        assert_eq!(
            &capture.take_tokens(),
            solo,
            "{}: stream through the drain/migrate race differs from its solo runs",
            spec.name
        );
        assert!(!solo.is_empty(), "{}: vacuous comparison", spec.name);
    }

    // The migrated sessions keep serving on the (non-draining) target:
    // one more run each, producing the per-run token slice again.
    for (spec, new_id) in specs.iter().zip(&moved) {
        let request = target
            .submit(*new_id)
            .unwrap_or_else(|e| panic!("{} on the target: {e}", spec.name));
        target
            .wait(*new_id, request)
            .unwrap_or_else(|e| panic!("{} on the target: {e}", spec.name));
        let capture = spec.capture.as_ref().expect("ofdm specs capture");
        let solo = spec.solo_tokens.as_ref().expect("ofdm specs reference");
        let per_run = solo.len() / RUNS_PER_SESSION as usize;
        assert_eq!(
            capture.take_tokens(),
            solo[..per_run],
            "{}: the post-migration run diverges from a solo run",
            spec.name
        );
    }

    // Ledgers agree: the drain report predates (some of) the moves, so
    // compare final counters; each successful migration is exactly one
    // checkpoint on the source and one restore on the target.
    let final_source = source.metrics();
    assert_eq!(final_source.migrations, moved.len() as u64);
    assert_eq!(final_source.checkpoints_taken, moved.len() as u64);
    assert!(final_source.migrations >= drain_report.migrations);
    let target_report = target.drain();
    assert_eq!(target_report.restores, moved.len() as u64);
    assert_eq!(target_report.runs_completed, moved.len() as u64);
    assert_eq!(
        final_source.runs_completed,
        specs.len() as u64 * RUNS_PER_SESSION
    );

    // A drained source refuses new work even after the migrations.
    let refused = source.open_session(
        &figure2_graph(),
        RuntimeConfig::new(Binding::from_pairs([("p", 1)])).with_threads(1),
        KernelRegistry::new(),
    );
    assert!(
        matches!(refused, Err(ServiceError::Draining)),
        "a drained source must stay drained: {refused:?}"
    );
}
