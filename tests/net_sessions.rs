//! End-to-end suite for the `tpdf-net` ingestion layer: loopback
//! clients stream OFDM symbol runs into wire-fed service sessions and
//! every client's demodulated output must be **byte-identical to a
//! solo in-memory run** of the same graph; backpressure must be
//! observable (a pipelining client provably stalls on `Backoff`
//! instead of losing records); wire garbage must close the connection
//! with a counted protocol error, never a panic; a mid-run disconnect
//! must cancel the session; a panicking app must cost only its own
//! connection; idle clients must be evicted; the loop
//! must be woken by sockets and run completions, not by its timer; and
//! the committed v1 frames must decode and re-encode unchanged. (That
//! the server leaks no OS thread is asserted in
//! `tests/thread_leaks.rs`, which owns its process.)

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::net::frame::write_frame;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{Frame, FrameReader, NetApps, NetClient, NetConfig, NetFeed, NetServer};
use tpdf_suite::ops::{OpsConfig, OpsPlane};
use tpdf_suite::runtime::{Executor, Token};
use tpdf_suite::service::{ServiceConfig, TpdfService};

/// Runs each wire-fed client streams (and the solo reference executes).
const RUNS: u64 = 3;

fn ofdm_variants() -> Vec<(&'static str, OfdmConfig, u64)> {
    vec![
        (
            "ofdm_qpsk_a",
            OfdmConfig {
                symbol_len: 16,
                cyclic_prefix: 2,
                bits_per_symbol: 2,
                vectorization: 2,
            },
            31,
        ),
        (
            "ofdm_qam",
            OfdmConfig {
                symbol_len: 16,
                cyclic_prefix: 1,
                bits_per_symbol: 4,
                vectorization: 2,
            },
            5,
        ),
        (
            "ofdm_qpsk_b",
            OfdmConfig {
                symbol_len: 32,
                cyclic_prefix: 2,
                bits_per_symbol: 2,
                vectorization: 3,
            },
            77,
        ),
        (
            "ofdm_qam_b",
            OfdmConfig {
                symbol_len: 8,
                cyclic_prefix: 2,
                bits_per_symbol: 4,
                vectorization: 4,
            },
            13,
        ),
    ]
}

/// Byte-identity across N concurrent wire-fed clients, with an
/// observable backpressure leg.
#[test]
fn wire_fed_clients_match_solo_runs_with_observable_backpressure() {
    let variants = ofdm_variants();
    assert!(variants.len() >= 4, "the issue demands N >= 4 clients");

    // Solo references first.
    let mut apps = NetApps::new();
    let mut client_plans = Vec::new();
    for (name, config, seed) in &variants {
        let (app, port) = wire_fed_ofdm(*config, *seed, 2);
        let (solo_registry, solo_capture) = port.registry();
        let solo = Executor::new(&app.graph, app.config.clone()).expect("solo executor");
        for _ in 0..RUNS {
            solo.run(&solo_registry).expect("solo run");
        }
        let solo_tokens = solo_capture.take_tokens();
        assert!(!solo_tokens.is_empty(), "{name}: empty solo reference");
        client_plans.push((*name, run_records(&port), solo_tokens));
        apps.register(name, app);
    }

    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(4)
            .with_max_sessions(variants.len() + 1)
            .with_queue_capacity(2),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            feed_runs: 1,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // One thread per client; the LAST client pipelines every barrier
    // before reading a single result and streams records one run
    // ahead, so it must overrun the one-run feed high-water mark
    // (`Backoff(FeedFull)`) — the observable backpressure leg.
    let pipeline_runs = 6u64;
    let mut handles = Vec::new();
    for (idx, (name, records, solo_tokens)) in client_plans.into_iter().enumerate() {
        let pipelining = idx == variants.len() - 1;
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connect");
            let ack = client.hello(name).expect("hello");
            assert_eq!(
                ack.tokens_per_run,
                records.len() as u64,
                "{name}: advertised run size disagrees with the stream"
            );
            let runs = if pipelining { pipeline_runs } else { RUNS };
            let mut received: Vec<Token> = Vec::new();
            if pipelining {
                // One run of records ahead of the barriers: the
                // second records frame overruns the one-run feed
                // high-water mark before any run exists to drain it,
                // so the Backoff below is deterministic.
                client.records(&records).expect("records");
                for seq in 0..runs {
                    if seq + 1 < runs {
                        client.records(&records).expect("records");
                    }
                    client.barrier(seq).expect("barrier");
                }
                for _ in 0..runs {
                    let (_seq, tokens) = client.result().expect("result");
                    received.extend(tokens);
                }
            } else {
                for seq in 0..runs {
                    client.records(&records).expect("records");
                    client.barrier(seq).expect("barrier");
                    let (got_seq, tokens) = client.result().expect("result");
                    assert_eq!(got_seq, seq, "{name}: results out of order");
                    received.extend(tokens);
                }
            }
            let backoffs = client.bye().expect("bye");
            // Byte identity: the wire-fed session's sink stream equals
            // the solo run's. Each run of this graph replays identical
            // input, so the pipelining client (more runs than the solo
            // reference executed) compares against the per-run slice
            // repeated.
            let mut reference = Vec::new();
            let per_run = solo_tokens.len() / RUNS as usize;
            for _ in 0..runs {
                reference.extend_from_slice(&solo_tokens[..per_run]);
            }
            assert_eq!(
                received, reference,
                "{name}: wire-fed output diverges from the solo run"
            );
            (name, backoffs, pipelining)
        }));
    }

    let mut backpressure_seen = false;
    for handle in handles {
        let (name, backoffs, pipelining) = handle.join().expect("client thread");
        if pipelining {
            assert!(
                backoffs > 0,
                "{name}: the pipelining client never saw a Backoff"
            );
            backpressure_seen = true;
        }
    }
    assert!(backpressure_seen);

    let metrics = server.metrics();
    assert_eq!(metrics.sessions_opened, variants.len() as u64);
    assert!(metrics.backoffs >= 1, "no Backoff frame was ever sent");
    assert_eq!(metrics.protocol_errors, 0);
    assert!(metrics.records_in > 0 && metrics.results_out > 0);

    server.shutdown();
}

/// Wire garbage must produce a counted protocol error and a closed
/// connection — never a panic — and must not poison other clients.
#[test]
fn wire_garbage_is_a_structured_close_not_a_panic() {
    let (app, port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        7,
        2,
    );
    let records = run_records(&port);
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(4),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // A hostile length prefix (4 GiB frame) and plain garbage bytes.
    for garbage in [vec![0xffu8; 64], {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"TPDN");
        bytes
    }] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(&garbage).expect("write garbage");
        // The server must close on us (EOF), not hang or crash.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }

    // Poll until both protocol errors are counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().protocol_errors < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.metrics().protocol_errors >= 2);

    // A well-behaved client still gets served afterwards.
    let mut client = NetClient::connect(addr).expect("connect");
    client.hello("ofdm").expect("hello");
    client.records(&records).expect("records");
    client.barrier(0).expect("barrier");
    let (_seq, tokens) = client.result().expect("result");
    assert!(!tokens.is_empty());
    client.bye().expect("bye");
    server.shutdown();
}

/// Status code of one admin-surface `GET`, read with a timeout.
fn http_status(addr: SocketAddr, path: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect admin surface");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_whitespace()
        .nth(1)
        .and_then(|status| status.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"))
}

/// A panic in one app's `build` (application code, run on the loop
/// thread at `Hello`) costs that connection only: three clients
/// streaming through it get the solo run's output, the panic counts as
/// one protocol error, a client that connects afterwards is served and
/// `/healthz` still answers 200. Every client reads with a timeout, so
/// a dead loop fails the test instead of hanging it.
#[test]
fn a_panicking_app_build_costs_only_its_own_connection() {
    let variants = ofdm_variants();
    let mut apps = NetApps::new();
    let mut plans = Vec::new();
    for (name, config, seed) in variants.iter().take(3) {
        let (app, port) = wire_fed_ofdm(*config, *seed, 2);
        let (solo_registry, solo_capture) = port.registry();
        let solo = Executor::new(&app.graph, app.config.clone()).expect("solo executor");
        for _ in 0..RUNS {
            solo.run(&solo_registry).expect("solo run");
        }
        plans.push((*name, run_records(&port), solo_capture.take_tokens()));
        apps.register(name, app);
    }
    let (mut broken, _) = wire_fed_ofdm(variants[0].1, variants[0].2, 2);
    broken.build = Arc::new(|_: &NetFeed| panic!("this app's build panics"));
    apps.register("broken", broken);
    let (late_name, late_records, late_solo) = plans[0].clone();

    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(8),
    ));
    let plane = OpsPlane::start(
        Arc::clone(&service),
        OpsConfig::default().with_http_addr("127.0.0.1:0"),
    )
    .expect("start ops plane");
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");
    plane.attach_net(server.metrics_handle());
    let addr = server.local_addr();

    // Each bystander finishes one run, meets the main thread at
    // `midway`, and streams the rest while the panic happens.
    let midway = Arc::new(Barrier::new(plans.len() + 1));
    let handles: Vec<_> = plans
        .into_iter()
        .map(|(name, records, solo)| {
            let midway = Arc::clone(&midway);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                client.hello(name).expect("hello");
                let mut received = Vec::new();
                for seq in 0..RUNS {
                    if seq == 1 {
                        midway.wait();
                    }
                    client.records(&records).expect("records");
                    client.barrier(seq).expect("barrier");
                    let (_seq, tokens) = client
                        .result()
                        .unwrap_or_else(|e| panic!("{name}: run {seq}: {e}"));
                    received.extend(tokens);
                }
                client.bye().expect("bye");
                assert_eq!(received, solo, "{name}: output diverges from the solo run");
            })
        })
        .collect();
    midway.wait();
    let mut victim = NetClient::connect(addr).expect("connect victim");
    assert!(
        victim.hello("broken").is_err(),
        "a Hello whose build panics must close the connection"
    );
    for handle in handles {
        handle.join().expect("bystander client");
    }
    assert_eq!(server.metrics().protocol_errors, 1);

    let mut late = NetClient::connect(addr).expect("connect after the panic");
    late.hello(late_name).expect("hello after the panic");
    late.records(&late_records).expect("records");
    late.barrier(0).expect("barrier");
    let (_seq, tokens) = late.result().expect("result after the panic");
    assert_eq!(tokens, late_solo[..late_solo.len() / RUNS as usize]);
    late.bye().expect("bye");

    plane.sample_now();
    let admin = plane.http_addr().expect("admin surface bound");
    assert_eq!(http_status(admin, "/healthz"), 200);
    server.shutdown();
    plane.shutdown();
    service.drain();
}

/// A client that vanishes mid-run is cancelled through the service's
/// cancellation path; `drain` afterwards completes with no stranded
/// work.
#[test]
fn disconnect_mid_run_cancels_the_session() {
    let (app, port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        11,
        2,
    );
    let records = run_records(&port);
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(2)
            .with_queue_capacity(4),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");

    {
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.hello("ofdm").expect("hello");
        for seq in 0..3 {
            client.records(&records).expect("records");
            client.barrier(seq).expect("barrier");
        }
        // Drop without reading a single result: a mid-run disconnect.
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().conns_closed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.metrics().conns_closed, 1);

    server.shutdown();
    // The real assertion is that drain() returns at all: cancellation
    // must have freed the pool of the disconnected session's work.
    let report = service.drain();
    assert!(
        report.requests_submitted >= 1,
        "the disconnected session's barriers never reached the service"
    );
}

/// An idle connection is evicted on the timeout; its next read sees
/// EOF.
#[test]
fn idle_connections_are_evicted() {
    let (app, _port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        3,
        1,
    );
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(1)
            .with_max_sessions(2),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            idle_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");

    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = Vec::new();
    let start = Instant::now();
    let _ = stream.read_to_end(&mut sink); // blocks until the eviction EOF
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "evicted before the idle timeout"
    );
    assert!(server.metrics().conns_evicted >= 1);
    server.shutdown();
}

/// A shut gate a kernel waits at until the test opens it.
type Gate = Arc<(Mutex<bool>, Condvar)>;

/// A server whose loop would sleep 5 s after every idle sweep if it
/// slept on a timer, serving one OFDM app whose source first waits at
/// `src_gate` (when given); returns the service, the server, one run's
/// records and one run's solo output.
fn five_second_interval_server(
    queue_capacity: usize,
    src_gate: Option<Gate>,
) -> (Arc<TpdfService>, NetServer, Vec<Token>, Vec<Token>) {
    let config = OfdmConfig {
        symbol_len: 16,
        cyclic_prefix: 2,
        bits_per_symbol: 2,
        vectorization: 2,
    };
    let (mut app, port) = wire_fed_ofdm(config, 23, 2);
    let (solo_registry, solo_capture) = port.registry();
    Executor::new(&app.graph, app.config.clone())
        .expect("solo executor")
        .run(&solo_registry)
        .expect("solo run");
    let solo = solo_capture.take_tokens();
    assert!(!solo.is_empty(), "empty solo reference");
    let records = run_records(&port);
    if let Some(gate) = src_gate {
        let build = Arc::clone(&app.build);
        app.build = Arc::new(move |feed| {
            let (mut registry, capture) = build(feed);
            let wire_fed = registry.clone();
            let gate = Arc::clone(&gate);
            registry.register_fn("SRC", move |ctx| {
                let (open, cond) = &*gate;
                let mut open = open.lock().expect("gate lock");
                while !*open {
                    open = cond.wait(open).expect("gate lock");
                }
                drop(open);
                wire_fed.get("SRC").expect("wire-fed SRC").fire(ctx)
            });
            (registry, capture)
        });
    }
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(2)
            .with_queue_capacity(queue_capacity),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            poll_interval: Duration::from_secs(5),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    (service, server, records, solo)
}

/// Every round trip needs the loop to notice a `Barrier` arriving and
/// then a run finishing; a loop that waited out its 5 s interval for
/// either would spend 5 s on the first round trip alone.
#[test]
fn sequential_round_trips_are_woken_not_timed() {
    let (_service, server, records, solo) = five_second_interval_server(2, None);
    let start = Instant::now();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.hello("ofdm").expect("hello");
    for seq in 0..20 {
        client.records(&records).expect("records");
        client.barrier(seq).expect("barrier");
        let (got_seq, tokens) = client.result().expect("result");
        assert_eq!(got_seq, seq, "results out of order");
        assert_eq!(tokens, solo, "round trip {seq} diverges from the solo run");
        assert!(
            start.elapsed() < Duration::from_millis(2500),
            "{} round trips took {:?}: the loop waits on its timer",
            seq + 1,
            start.elapsed()
        );
    }
    client.bye().expect("bye");
    server.shutdown();
}

/// Two connections each keep two runs in flight, so the loop always
/// has results outstanding: every `Result` must still leave when its
/// run ends, woken by the completion, and not when the 5 s interval
/// runs out.
#[test]
fn pipelined_round_trips_are_woken_not_timed() {
    const ROUNDS: u64 = 200;
    let (_service, server, records, solo) = five_second_interval_server(2, None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = NetClient::connect(server.local_addr()).expect("connect");
                client.hello("ofdm").expect("hello");
                for seq in 0..2 {
                    client.records(&records).expect("records");
                    client.barrier(seq).expect("barrier");
                }
                for seq in 0..ROUNDS {
                    let (got_seq, tokens) = client.result().expect("result");
                    assert_eq!(got_seq, seq, "results out of order");
                    assert_eq!(
                        tokens, solo,
                        "pipelined run {seq} diverges from the solo run"
                    );
                    assert!(
                        start.elapsed() < Duration::from_millis(2500),
                        "{} pipelined rounds took {:?}: the loop waits on its timer",
                        seq + 1,
                        start.elapsed()
                    );
                    if seq + 2 < ROUNDS {
                        client.records(&records).expect("records");
                        client.barrier(seq + 2).expect("barrier");
                    }
                }
                client.bye().expect("bye");
            });
        }
    });
    server.shutdown();
}

/// Barriers refused by a full ingress queue are parked and must be
/// retried when a run completes, not when the interval runs out.
#[test]
fn parked_barriers_are_retried_on_completion_wakes() {
    let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (service, server, records, solo) = five_second_interval_server(1, Some(Arc::clone(&gate)));
    let runs = 12u64;
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.hello("ofdm").expect("hello");
    // Every run's records and barrier in one burst. The first run holds
    // its source at the gate and the one queue slot takes the second
    // barrier, so the third is refused and parked; only then does the
    // gate open.
    for seq in 0..runs {
        client.records(&records).expect("records");
        client.barrier(seq).expect("barrier");
    }
    let opener = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(20);
            while service.metrics().requests_rejected == 0 {
                assert!(
                    Instant::now() < deadline,
                    "no barrier hit Backoff(QueueFull)"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let opened = Instant::now();
            *gate.0.lock().expect("gate lock") = true;
            gate.1.notify_all();
            opened
        })
    };
    for seq in 0..runs {
        let (got_seq, tokens) = client.result().expect("result");
        assert_eq!(got_seq, seq, "results out of order");
        assert_eq!(
            tokens, solo,
            "pipelined run {seq} diverges from the solo run"
        );
    }
    let elapsed = opener.join().expect("gate opener").elapsed();
    assert!(client.backoffs() > 0, "the burst never saw a Backoff");
    assert!(
        elapsed < Duration::from_millis(2500),
        "the parked barriers took {elapsed:?} to finish: they wait on the timer"
    );
    client.bye().expect("bye");
    server.shutdown();
}

/// `shutdown` wakes the loop instead of waiting out its interval.
#[test]
fn shutdown_wakes_the_loop() {
    let (_service, server, records, _solo) = five_second_interval_server(2, None);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.hello("ofdm").expect("hello");
    client.records(&records).expect("records");
    client.barrier(0).expect("barrier");
    client.result().expect("result");
    // Leave the client connected and let the loop settle into its wait.
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?}: the loop waits on its timer"
    );
    drop(client);
}

/// The committed wire-format anchor: one v1 encoding of every frame
/// type (with every token kind, images and blocks included), written
/// by the codec before any change to it. Decoding and re-encoding must
/// reproduce it byte for byte; if this fails, the wire format broke.
#[test]
fn golden_v1_frames_decode_and_reencode_byte_for_byte() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/frames_v1.bin");
    let golden = std::fs::read(&path).expect("read tests/fixtures/frames_v1.bin");
    let mut reader = FrameReader::new(1 << 20);
    reader.extend(&golden);
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().expect("the golden frames decode") {
        frames.push(frame);
    }
    assert_eq!(reader.buffered(), 0, "trailing bytes after the last frame");
    let mut types: Vec<u8> = frames.iter().map(Frame::type_byte).collect();
    types.dedup();
    assert_eq!(
        types,
        [1, 2, 3, 4, 5, 6],
        "one run of each frame type, in order"
    );
    let mut reencoded = Vec::new();
    for frame in &frames {
        write_frame(&mut reencoded, frame);
    }
    assert!(reencoded == golden, "re-encoding changed the bytes");
}
