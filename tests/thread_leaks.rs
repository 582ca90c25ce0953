//! OS-thread accounting for everything that owns threads: the executor
//! pool, the service (sessions and migration) and the net server.
//!
//! The count comes from `/proc/self/status`, which is *process-wide* —
//! so this file holds exactly **one** `#[test]`: libtest gives each
//! integration-test file its own process, and with a single test there
//! is no sibling test thread creating or dropping pools while a count
//! is read. The scenarios run one after the other. While an owner
//! lives, the count must stay where its construction left it (no thread
//! per run, per session or per connection outlives its work); once the
//! owner is dropped the count must return to the baseline, polled with
//! a bounded deadline because a joined thread can stay visible in
//! `/proc` for a moment.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::core::examples::figure2_graph;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{NetApps, NetClient, NetConfig, NetServer};
use tpdf_suite::runtime::{Executor, ExecutorPool, KernelRegistry, RunRequest, RuntimeConfig};
use tpdf_suite::service::{ServiceConfig, TpdfService};
use tpdf_suite::symexpr::Binding;

/// The process's current OS thread count (Linux-only; `None` elsewhere).
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn threads_now() -> usize {
    os_thread_count().expect("/proc/self/status was readable a moment ago")
}

/// Polls until the thread count is back at `baseline`.
fn assert_returns_to(baseline: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = threads_now();
        if now == baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {now} OS threads, {baseline} before"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn figure2_config(p: i64, threads: usize) -> RuntimeConfig {
    RuntimeConfig::new(Binding::from_pairs([("p", p)]))
        .with_threads(threads)
        .with_iterations(4)
}

/// Repeated runs on caller-participating pools, a concurrent burst on a
/// detached pool, and a one-call `Executor::run`.
fn pool_reuse(baseline: usize) {
    let graph = figure2_graph();
    let registry = KernelRegistry::new();
    for threads in [1usize, 2, 4] {
        let pool = ExecutorPool::new(threads);
        let held = threads_now();
        assert_eq!(held, baseline + threads - 1, "ExecutorPool::new({threads})");
        let compiled = pool
            .executor(&graph, figure2_config(2, threads))
            .expect("executor")
            .compile();
        for _ in 0..8 {
            pool.submit(&compiled, &registry, RunRequest::default(), None)
                .wait()
                .expect("run completes");
        }
        assert_eq!(threads_now(), held, "a run on a {threads}-pool spawned");
        drop(pool);
        assert_returns_to(baseline, "after dropping a caller-participating pool");
    }

    let pool = ExecutorPool::detached(4);
    let held = threads_now();
    assert_eq!(held, baseline + 4, "ExecutorPool::detached(4)");
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let compiled = pool
                .executor(&graph, figure2_config(1 + i % 4, 1 + i as usize % 3))
                .expect("executor")
                .compile();
            pool.submit(&compiled, &registry, RunRequest::default(), None)
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("run completes");
    }
    assert_eq!(threads_now(), held, "a job on the detached pool spawned");
    drop(pool);
    assert_returns_to(baseline, "after dropping a detached pool");

    // A pool sized for the one call: spawned inside, gone on return.
    Executor::new(&graph, figure2_config(3, 4))
        .expect("executor")
        .run(&registry)
        .expect("run completes");
    assert_returns_to(baseline, "after a one-call Executor::run");
}

/// Concurrent sessions (one of them panicking) on one service, then a
/// migration to a second service.
fn service_sessions_and_migration(baseline: usize) {
    let source = TpdfService::new(
        ServiceConfig::default()
            .with_threads(4)
            .with_max_sessions(8),
    );
    let target = TpdfService::new(ServiceConfig::default().with_threads(2));
    let held = threads_now();
    assert_eq!(held, baseline + 6, "two services, 4 + 2 workers");

    let graph = figure2_graph();
    let mut sessions = Vec::new();
    for i in 0..6usize {
        let session = source
            .open_session(
                &graph,
                figure2_config(1 + i as i64 % 4, 1 + i % 3),
                KernelRegistry::new(),
            )
            .expect("admit");
        sessions.push(session);
    }
    let mut rogue_registry = KernelRegistry::new();
    rogue_registry.register_fn("B", |_| panic!("session gone rogue"));
    let rogue = source
        .open_session(&graph, figure2_config(2, 2), rogue_registry)
        .expect("admit the rogue");

    for _ in 0..2 {
        let requests: Vec<_> = sessions
            .iter()
            .map(|&s| (s, source.submit(s).expect("submit")))
            .collect();
        let rogue_request = source.submit(rogue).expect("submit");
        for (session, request) in requests {
            source.wait(session, request).expect("run completes");
        }
        assert!(source.wait(rogue, rogue_request).is_err());
    }

    let moved = source
        .migrate_session(sessions[0], &target)
        .expect("migrate");
    let request = target.submit(moved).expect("submit on the target");
    target.wait(moved, request).expect("migrated run completes");
    assert_eq!(threads_now(), held, "a session, run or migration spawned");

    drop(source);
    drop(target);
    assert_returns_to(baseline, "after dropping both services");
}

/// A wire-fed session over loopback: the server's poll thread comes
/// with `bind` and goes with `shutdown`; a connection adds none.
fn net_server(baseline: usize) {
    let (app, port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        31,
        2,
    );
    let records = run_records(&port);
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(ServiceConfig::default().with_threads(2)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");
    let held = threads_now();
    assert_eq!(held, baseline + 3, "2 service workers + the poll thread");

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.hello("ofdm").expect("hello");
    for seq in 0..3 {
        client.records(&records).expect("records");
        client.barrier(seq).expect("barrier");
        let (got, tokens) = client.result().expect("result");
        assert_eq!(got, seq);
        assert!(!tokens.is_empty());
    }
    client.bye().expect("bye");
    assert_eq!(threads_now(), held, "a connection or wire-fed run spawned");

    server.shutdown();
    drop(service);
    assert_returns_to(baseline, "after server shutdown");
}

#[test]
fn owners_of_threads_give_every_one_back() {
    let Some(baseline) = os_thread_count() else {
        eprintln!("no /proc/self/status on this platform: nothing to count");
        return;
    };
    pool_reuse(baseline);
    service_sessions_and_migration(baseline);
    net_server(baseline);
}
