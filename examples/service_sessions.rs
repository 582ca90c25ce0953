//! Many concurrent streaming sessions on one shared worker pool — the
//! `tpdf-service` layer in action.
//!
//! Six sessions (edge detection, OFDM demodulation, FM-radio
//! equalization — two of each, with different per-session
//! configurations) are admitted to a 4-worker service, each submits a
//! few runs onto its bounded ingress queue, and the pool multiplexes
//! them concurrently. The example then demonstrates the two admission
//! guards: the concurrent-session limit and the deadline-aware
//! capacity check, both observable in the final `ServiceMetrics`.
//!
//! Run with: `cargo run --release --example service_sessions`

use tpdf_suite::apps::edge_detection::EdgeDetectionApp;
use tpdf_suite::apps::fm_radio::FmRadioConfig;
use tpdf_suite::apps::image::GrayImage;
use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::core::examples::figure2_graph;
use tpdf_suite::runtime::{
    EdgeDetectionRuntime, FmRadioRuntime, KernelRegistry, OfdmRuntime, RuntimeConfig,
};
use tpdf_suite::service::{ServiceConfig, ServiceError, SessionId, TpdfService};
use tpdf_suite::sim::engine::ControlPolicy;
use tpdf_suite::symexpr::Binding;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = TpdfService::new(
        ServiceConfig::default()
            .with_threads(4)
            .with_max_sessions(6)
            .with_queue_capacity(4),
    );
    println!(
        "service up: {} pool workers, {} session slots",
        service.config().threads,
        service.config().max_sessions
    );

    // --- Admit six sessions, each with its own graph and config. ----
    let mut sessions: Vec<(&str, SessionId)> = Vec::new();

    let edge_a =
        EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(48, 48, 7));
    let edge_b =
        EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(32, 32, 3));
    for (name, port, threads) in [("edge/canny", &edge_a, 4), ("edge/sobel", &edge_b, 2)] {
        let (registry, _capture) = port.registry(None);
        let mut config = RuntimeConfig::new(Binding::new()).with_threads(threads);
        if name.ends_with("sobel") {
            config = config.with_policy(ControlPolicy::SelectInput(0));
        }
        sessions.push((name, service.open_session(&port.graph(), config, registry)?));
    }

    let ofdm_qpsk = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 32,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 3,
        },
        77,
    );
    let ofdm_qam = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 1,
            bits_per_symbol: 4,
            vectorization: 2,
        },
        5,
    );
    for (name, port) in [("ofdm/qpsk", &ofdm_qpsk), ("ofdm/qam", &ofdm_qam)] {
        let (registry, _capture) = port.registry();
        let config = RuntimeConfig::new(port.config().binding())
            .with_threads(2)
            .with_mode_selector(port.mode_selector())
            .with_value_trace(port.value_trace());
        sessions.push((name, service.open_session(&port.graph(), config, registry)?));
    }

    let fm_a = FmRadioRuntime::new(
        FmRadioConfig {
            bands: 4,
            block: 16,
        },
        11,
    );
    let fm_b = FmRadioRuntime::new(FmRadioConfig { bands: 3, block: 8 }, 7);
    for (name, port, band) in [("fm/band2", &fm_a, 2usize), ("fm/band0", &fm_b, 0)] {
        let (registry, _capture) = port.registry();
        let config = RuntimeConfig::new(port.binding())
            .with_threads(1)
            .with_policy(ControlPolicy::SelectInput(band));
        sessions.push((name, service.open_session(&port.graph(), config, registry)?));
    }

    // --- Admission guards. ------------------------------------------
    match service.open_session(
        &figure2_graph(),
        RuntimeConfig::new(Binding::from_pairs([("p", 2)])),
        KernelRegistry::new(),
    ) {
        Err(ServiceError::SessionLimit { limit }) => {
            println!("7th session refused: all {limit} slots taken");
        }
        other => println!("unexpected admission outcome: {other:?}"),
    }

    // --- Stream: three runs per session, interleaved. ---------------
    let mut requests = Vec::new();
    for round in 0..3 {
        for (name, session) in &sessions {
            let request = service.submit(*session)?;
            if round == 0 {
                println!("submitted first run of {name}");
            }
            requests.push((*name, *session, request));
        }
    }
    for (name, session, request) in requests {
        let metrics = service.wait(session, request)?;
        let _ = (name, metrics);
    }

    let report = service.drain();
    println!("\n{}", report.summary());
    for (name, session) in &sessions {
        let per = report.session(*session).expect("session metrics").counters;
        println!(
            "  {name:<12} {} runs, {} firings, {} tokens, {} deadline misses",
            per.runs_completed, per.firings, per.tokens, per.deadline_misses
        );
    }
    Ok(())
}
