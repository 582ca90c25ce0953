//! Wire-fed sessions: OFDM symbol streams arriving over TCP, served
//! by the `tpdf-net` ingestion layer with end-to-end backpressure.
//!
//! A loopback server fronts a 4-worker `TpdfService`. Four clients
//! connect concurrently, each opening its own session of the Figure 7
//! cognitive-radio demodulator (mixed QPSK/QAM configurations) and
//! streaming its time-domain samples as `Records` frames; every
//! client's demodulated bit stream is verified byte-identical to a
//! solo in-memory run of the same graph. A fifth client then
//! pipelines six runs into a queue of depth 2 without reading results
//! — the observable backpressure leg: it is parked with `Backoff`
//! frames (never dropped records) and still receives every result.
//!
//! Run with: `cargo run --release --example net_sessions`

use std::sync::Arc;

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{NetApps, NetClient, NetConfig, NetServer};
use tpdf_suite::runtime::{Executor, Token};
use tpdf_suite::service::{ServiceConfig, TpdfService};

const RUNS: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The served apps: four OFDM variants. ----------------------
    let variants = [
        ("ofdm/qpsk-16", 16, 2, 2, 2, 31u64),
        ("ofdm/qam-16", 16, 1, 4, 2, 5),
        ("ofdm/qpsk-32", 32, 2, 2, 3, 77),
        ("ofdm/qam-8", 8, 2, 4, 4, 13),
    ];
    let mut apps = NetApps::new();
    let mut plans = Vec::new();
    for &(name, symbol_len, cyclic_prefix, bits_per_symbol, vectorization, seed) in &variants {
        let config = OfdmConfig {
            symbol_len,
            cyclic_prefix,
            bits_per_symbol,
            vectorization,
        };
        let (app, port) = wire_fed_ofdm(config, seed, 2);
        // The solo in-memory reference the wire output must match.
        let (solo_registry, solo_capture) = port.registry();
        let solo = Executor::new(&app.graph, app.config.clone())?;
        for _ in 0..RUNS {
            solo.run(&solo_registry)?;
        }
        plans.push((name, run_records(&port), solo_capture.take_tokens()));
        apps.register(name, app);
    }

    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(4)
            .with_max_sessions(8)
            .with_queue_capacity(2),
    ));
    // feed_runs: 1 keeps the feed high-water mark at one run, so the
    // pipelining client below provably overruns it even when runs
    // drain in microseconds.
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            feed_runs: 1,
            ..NetConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("serving {} apps on {addr}", variants.len());

    // --- Four concurrent streaming clients. ------------------------
    let mut handles = Vec::new();
    for (name, records, solo_tokens) in plans.clone() {
        handles.push(std::thread::spawn(
            move || -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
                let mut client = NetClient::connect(addr)?;
                let ack = client.hello(name)?;
                let mut received: Vec<Token> = Vec::new();
                for seq in 0..RUNS {
                    client.records(&records)?;
                    client.barrier(seq)?;
                    let (_seq, tokens) = client.result()?;
                    received.extend(tokens);
                }
                client.bye()?;
                assert_eq!(
                    received, solo_tokens,
                    "{name}: wire-fed output diverges from the solo run"
                );
                println!(
                    "  {name}: session {} streamed {} runs x {} samples -> {} bits, \
                     byte-identical to the solo run",
                    ack.session,
                    RUNS,
                    records.len(),
                    received.len()
                );
                Ok(())
            },
        ));
    }
    for handle in handles {
        handle
            .join()
            .expect("client thread")
            .map_err(|e| -> Box<dyn std::error::Error> { e })?;
    }

    // --- The backpressure leg: pipeline past the queue bound. ------
    let (name, records, solo_tokens) = &plans[0];
    let mut client = NetClient::connect(addr)?;
    client.hello(name)?;
    let pipelined = 6u64;
    // One run of records streamed AHEAD of the barriers: with the
    // feed high-water mark at one run, the second records frame
    // provably overruns it before any run exists to drain the feed,
    // so the Backoff is deterministic — not a race against how fast
    // the pool drains the queue.
    client.records(records)?;
    for seq in 0..pipelined {
        if seq + 1 < pipelined {
            client.records(records)?;
        }
        client.barrier(seq)?;
    }
    let per_run = solo_tokens.len() / RUNS as usize;
    for _ in 0..pipelined {
        let (_seq, tokens) = client.result()?;
        assert_eq!(tokens, solo_tokens[..per_run], "pipelined run diverged");
    }
    let backoffs = client.bye()?;
    println!(
        "  {name}: pipelined {pipelined} runs into a depth-2 queue -> {backoffs} Backoff \
         frame(s), zero records lost"
    );

    // --- Ledger + teardown. ----------------------------------------
    let metrics = server.metrics();
    println!("\nnet ledger: {}", metrics.summary());
    assert!(backoffs > 0, "the pipelining client never saw a Backoff");
    server.shutdown();
    let report = service.drain();
    println!(
        "service drained: {} runs completed, {} requests refused by backpressure",
        report.runs_completed, report.requests_rejected
    );
    Ok(())
}
