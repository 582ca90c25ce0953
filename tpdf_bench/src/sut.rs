//! The system-under-test adapter: every call into a `tpdf-*` crate
//! lives in this file, so a later change to the stack meets the
//! benchmark in exactly one place.
//!
//! Public symbols used —
//! net: `NetServer`, `NetApps`, `NetApp`, `NetFeed`, `NetConfig`,
//! `NetMetricsSnapshot` (fields only), `frame::{write_frame, FrameReader,
//! Frame}`, `ofdm::wire_fed_ofdm`;
//! service: `TpdfService::{new, open_session, submit, wait, metrics}`,
//! `ServiceConfig` (`try_take` is exercised through the server);
//! runtime: `Executor::{new, run, run_checkpointed, run_restored}`,
//! `Checkpoint::{encode, decode}`, `RuntimeConfig`, `KernelRegistry`,
//! `Metrics` (fields only), `Token`, `cases::{OfdmRuntime,
//! EdgeDetectionRuntime, OutputCapture}`;
//! references: `OfdmRuntime::reference_bits`,
//! `EdgeDetectionRuntime::reference_edges`, `tpdf_sim::engine::Simulator`.
//!
//! Deliberately unused: every `ExecutorPool` entry point and every
//! `to_snapshot`/`to_prometheus` — ROADMAP items 2–3 intend to collapse
//! or delete those, and a later change may not edit the benchmark to
//! follow them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use tpdf_apps::edge_detection::{EdgeDetectionApp, EdgeDetector};
use tpdf_apps::image::GrayImage;
use tpdf_apps::ofdm::OfdmConfig;
use tpdf_core::examples::figure2_graph;
use tpdf_core::graph::TpdfGraph;
use tpdf_net::frame::{write_frame, Frame, FrameReader};
use tpdf_net::ofdm::wire_fed_ofdm;
use tpdf_net::{NetApp, NetApps, NetConfig, NetFeed, NetServer};
use tpdf_runtime::cases::{EdgeDetectionRuntime, OfdmRuntime, OutputCapture};
use tpdf_runtime::{Checkpoint, Executor, KernelRegistry, Metrics, RuntimeConfig, Token};
use tpdf_service::{RequestId, ServiceConfig, SessionId, TpdfService};
use tpdf_sim::engine::Simulator;
use tpdf_symexpr::Binding;

/// Pool workers of the service under test (this host has 2 CPUs).
const POOL_WORKERS: usize = 2;
/// Distinct inputs a wire workload cycles through.
const INPUT_POOL: usize = 16;
/// The name the wire app is registered and greeted under.
pub const APP_NAME: &str = "bench";

/// Sink or source tokens of one op; opaque outside this file.
pub type Tokens = Vec<Token>;

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// SplitMix64: derives the per-input seeds (and, in `load`, the
/// arrival schedule) from the run's `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------- wire

/// One generated input of a wire workload with its reference output.
pub struct WireInput {
    /// The `Records` frame carrying `tokens`, encoded once: the load
    /// generator's own codec cost must not compete with the server.
    pub records_frame: Vec<u8>,
    pub tokens: Tokens,
    /// What the graph-free reference computation yields.
    pub expected: Tokens,
    reference: Box<dyn Fn() -> Tokens + Send>,
}

impl WireInput {
    fn new(tokens: Tokens, reference: Box<dyn Fn() -> Tokens + Send>) -> WireInput {
        let mut records_frame = Vec::new();
        write_frame(
            &mut records_frame,
            &Frame::Records {
                tokens: tokens.clone(),
            },
        );
        WireInput {
            records_frame,
            expected: reference(),
            tokens,
            reference,
        }
    }

    /// Depth 3: the graph-free reference computation, recomputed.
    pub fn run_reference(&self) -> Tokens {
        (self.reference)()
    }
}

/// A servable application plus the seeded inputs that drive it.
pub struct WireWorkload {
    app: NetApp,
    pub inputs: Vec<WireInput>,
}

/// Figure 7: the OFDM demodulator, N=16 L=2 β=2 QPSK (36 samples in,
/// 64 bits out), served through `tpdf_net::ofdm::wire_fed_ofdm`.
pub fn ofdm_workload(seed: u64) -> WireWorkload {
    let config = OfdmConfig {
        symbol_len: 16,
        cyclic_prefix: 2,
        bits_per_symbol: 2,
        vectorization: 2,
    };
    let mut state = seed;
    let (app, _) = wire_fed_ofdm(config, splitmix(&mut state), 1);
    let inputs = (0..INPUT_POOL)
        .map(|_| {
            let port = OfdmRuntime::new(config, splitmix(&mut state));
            WireInput::new(
                port.samples(),
                Box::new(move || port.reference_bits().into_iter().map(Token::Byte).collect()),
            )
        })
        .collect();
    WireWorkload { app, inputs }
}

/// Figure 6: edge detection fed over the wire — the bench-owned
/// counterpart of `wire_fed_ofdm`, built from public API only. `IRead`
/// pops one `Token::Image` from the connection's feed; under the
/// default `WaitAll` policy all four detectors fire and the
/// Transaction forwards the highest-priority result (Canny).
pub fn edge_workload(seed: u64, side: usize) -> WireWorkload {
    let mut state = seed;
    let port = EdgeDetectionRuntime::new(
        EdgeDetectionApp::default(),
        GrayImage::synthetic(side, side, splitmix(&mut state)),
    );
    let build_port = port.clone();
    let app = NetApp {
        graph: port.graph(),
        config: RuntimeConfig::new(Binding::new()).with_threads(POOL_WORKERS),
        tokens_per_run: 1,
        tokens_out_per_run: 1,
        build: Arc::new(move |feed: &NetFeed| {
            let (mut registry, capture) = build_port.registry(None);
            let feed = feed.clone();
            registry.register_fn("IRead", move |ctx| {
                let image = feed.pop(1);
                ctx.fill_outputs_cycling(&image);
                Ok(())
            });
            (registry, capture)
        }),
    };
    let inputs = (0..INPUT_POOL)
        .map(|_| {
            let image = GrayImage::synthetic(side, side, splitmix(&mut state));
            let port = EdgeDetectionRuntime::new(EdgeDetectionApp::default(), image.clone());
            WireInput::new(
                vec![Token::image(image)],
                Box::new(move || {
                    // All four detectors run, as in the graph; Canny's
                    // map is the one the Transaction forwards.
                    for detector in &EdgeDetector::ALL[..3] {
                        std::hint::black_box(port.reference_edges(*detector));
                    }
                    vec![Token::image(port.reference_edges(EdgeDetector::Canny))]
                }),
            )
        })
        .collect();
    WireWorkload { app, inputs }
}

/// Counter deltas the traced run divides by its op count.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackCounts {
    pub frames: u64,
    pub bytes: u64,
    pub backoffs: u64,
    pub protocol_errors: u64,
    pub requests_rejected: u64,
}

impl StackCounts {
    pub fn since(self, earlier: StackCounts) -> StackCounts {
        StackCounts {
            frames: self.frames - earlier.frames,
            bytes: self.bytes - earlier.bytes,
            backoffs: self.backoffs - earlier.backoffs,
            protocol_errors: self.protocol_errors - earlier.protocol_errors,
            requests_rejected: self.requests_rejected - earlier.requests_rejected,
        }
    }
}

fn new_service() -> Arc<TpdfService> {
    Arc::new(TpdfService::new(
        ServiceConfig::default().with_threads(POOL_WORKERS),
    ))
}

/// The stack as shipped: `NetServer::bind` with `NetConfig::default()`
/// in front of a `TpdfService`, tracer and ops plane off, on a loopback
/// port the kernel picks.
pub struct WireSut {
    service: Arc<TpdfService>,
    server: NetServer,
}

impl WireSut {
    pub fn start(workload: &WireWorkload) -> std::io::Result<WireSut> {
        let service = new_service();
        let mut apps = NetApps::new();
        apps.register(APP_NAME, workload.app.clone());
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            apps,
            NetConfig::default(),
        )?;
        Ok(WireSut { service, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn counts(&self) -> StackCounts {
        let net = self.server.metrics();
        StackCounts {
            frames: net.frames_in + net.frames_out,
            bytes: net.bytes_in + net.bytes_out,
            backoffs: net.backoffs,
            protocol_errors: net.protocol_errors,
            requests_rejected: self.service.metrics().requests_rejected,
        }
    }

    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// What a client can receive.
pub enum Reply {
    Hello,
    Result {
        seq: u64,
        outcome: Result<Tokens, String>,
    },
    Backoff,
    Bye,
    /// A client-only frame echoed back: a protocol violation.
    Unexpected,
}

/// The client half of the codec: `FrameReader` behind the bench's own
/// reply type.
pub struct ReplyReader(FrameReader);

impl ReplyReader {
    pub fn new() -> ReplyReader {
        ReplyReader(FrameReader::new(16 << 20))
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        self.0.extend(bytes);
    }

    pub fn next_reply(&mut self) -> Result<Option<Reply>, String> {
        Ok(match self.0.next_frame().map_err(|e| e.to_string())? {
            None => None,
            Some(Frame::Hello { .. }) => Some(Reply::Hello),
            Some(Frame::Result { seq, outcome }) => Some(Reply::Result { seq, outcome }),
            Some(Frame::Backoff { .. }) => Some(Reply::Backoff),
            Some(Frame::Bye) => Some(Reply::Bye),
            Some(Frame::Records { .. } | Frame::Barrier { .. }) => Some(Reply::Unexpected),
        })
    }
}

pub fn put_hello(out: &mut Vec<u8>) {
    let hello = Frame::Hello {
        app: APP_NAME.to_string(),
        session: 0,
        tokens_per_run: 0,
    };
    write_frame(out, &hello);
}

pub fn put_barrier(out: &mut Vec<u8>, seq: u64) {
    write_frame(out, &Frame::Barrier { seq });
}

pub fn put_bye(out: &mut Vec<u8>) {
    write_frame(out, &Frame::Bye);
}

/// Codec cost of one op's three frames, timed directly on
/// `write_frame` / `FrameReader::next_frame`.
pub struct CodecTimes {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub frames: u64,
    pub bytes: u64,
}

pub fn time_codec(input: &WireInput, seq: u64) -> CodecTimes {
    let frames = [
        Frame::Records {
            tokens: input.tokens.clone(),
        },
        Frame::Barrier { seq },
        Frame::Result {
            seq,
            outcome: Ok(input.expected.clone()),
        },
    ];
    let mut wire = Vec::new();
    let start = Instant::now();
    for frame in &frames {
        write_frame(&mut wire, frame);
    }
    let encode_ns = nanos(start);
    let mut reader = FrameReader::new(16 << 20);
    reader.extend(&wire);
    let start = Instant::now();
    for _ in &frames {
        std::hint::black_box(reader.next_frame().expect("own frames decode"));
    }
    CodecTimes {
        encode_ns,
        decode_ns: nanos(start),
        frames: frames.len() as u64,
        bytes: wire.len() as u64,
    }
}

/// `NetFeed::push` and `NetFeed::pop` of one op's tokens, in ns.
pub fn time_feed(input: &WireInput) -> (u64, u64) {
    let feed = NetFeed::new();
    let tokens = input.tokens.clone();
    let start = Instant::now();
    feed.push(tokens);
    let push_ns = nanos(start);
    let start = Instant::now();
    std::hint::black_box(feed.pop(input.tokens.len()));
    (push_ns, nanos(start))
}

// ---------------------------------------------------------- in process

/// What one run did, from the `Metrics` it returned.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunCounts {
    pub firings: Vec<u64>,
    pub tokens_pushed: Vec<u64>,
    pub arena_hits: u64,
    pub arena_misses: u64,
}

impl RunCounts {
    fn of(metrics: &Metrics) -> RunCounts {
        RunCounts {
            firings: metrics.firings.clone(),
            tokens_pushed: metrics.tokens_pushed.clone(),
            arena_hits: metrics.arena_hits,
            arena_misses: metrics.arena_misses,
        }
    }

    pub fn total_firings(&self) -> u64 {
        self.firings.iter().sum()
    }

    pub fn total_tokens(&self) -> u64 {
        self.tokens_pushed.iter().sum()
    }

    /// Equal firing and token counts (arena counters depend on warmth).
    pub fn same_work(&self, other: &RunCounts) -> bool {
        self.firings == other.firings && self.tokens_pushed == other.tokens_pushed
    }
}

/// Depth 1 of a wire workload: the same session driven without
/// sockets — `NetFeed::push` → `submit` → `wait` → `take_tokens`.
pub struct DirectSession {
    service: Arc<TpdfService>,
    session: SessionId,
    feed: NetFeed,
    capture: OutputCapture,
    /// Graph build + analysis + sizing + compile, in ns.
    pub compile_ns: u64,
}

impl DirectSession {
    pub fn open(workload: &WireWorkload) -> Result<DirectSession, String> {
        let service = new_service();
        let feed = NetFeed::new();
        let (registry, capture) = (workload.app.build)(&feed);
        let start = Instant::now();
        let session = service
            .open_session(&workload.app.graph, workload.app.config.clone(), registry)
            .map_err(|e| e.to_string())?;
        Ok(DirectSession {
            service,
            session,
            feed,
            capture,
            compile_ns: nanos(start),
        })
    }

    pub fn run(&self, input: &WireInput) -> Result<Tokens, String> {
        self.feed.push(input.tokens.iter().cloned());
        let request = self
            .service
            .submit(self.session)
            .map_err(|e| e.to_string())?;
        self.service
            .wait(self.session, request)
            .map_err(|e| e.to_string())?;
        Ok(self.capture.take_tokens())
    }
}

/// Depth 2 of a wire workload: bare `Executor::run` with the same
/// registry, no service in front.
pub struct BareExecutor {
    executor: Executor<'static>,
    registry: KernelRegistry,
    feed: NetFeed,
    capture: OutputCapture,
}

/// `Executor` borrows its graph; the benchmark process is short-lived,
/// so the graph is leaked instead of threading a lifetime through.
fn leak(graph: TpdfGraph) -> &'static TpdfGraph {
    Box::leak(Box::new(graph))
}

impl BareExecutor {
    pub fn new(workload: &WireWorkload) -> Result<BareExecutor, String> {
        let feed = NetFeed::new();
        let (registry, capture) = (workload.app.build)(&feed);
        let executor = Executor::new(
            leak(workload.app.graph.clone()),
            workload.app.config.clone(),
        )
        .map_err(|e| e.to_string())?;
        Ok(BareExecutor {
            executor,
            registry,
            feed,
            capture,
        })
    }

    /// Returns the sink tokens, the run's counts and the ns spent in
    /// `Executor::run` alone.
    pub fn run(&self, input: &WireInput) -> Result<(Tokens, RunCounts, u64), String> {
        self.feed.push(input.tokens.iter().cloned());
        let start = Instant::now();
        let metrics = self
            .executor
            .run(&self.registry)
            .map_err(|e| e.to_string())?;
        let run_ns = nanos(start);
        Ok((self.capture.take_tokens(), RunCounts::of(&metrics), run_ns))
    }
}

fn fig2_config(p: i64, iterations: u64) -> RuntimeConfig {
    RuntimeConfig::new(Binding::from_pairs([("p", p)]))
        .with_threads(1)
        .with_iterations(iterations)
}

/// Figure 2 firing and per-channel token counts from the count-level
/// simulator — the reference every rate-only run is compared with.
pub fn fig2_reference(p: i64, iterations: u64) -> Result<RunCounts, String> {
    let graph = figure2_graph();
    let report = Simulator::new(&graph, fig2_config(p, iterations).reference_sim_config())
        .map_err(|e| e.to_string())?
        .run_iterations(iterations)
        .map_err(|e| e.to_string())?;
    let mut tokens_pushed = vec![0; graph.channels().count()];
    for (id, channel) in graph.channels() {
        for record in &report.per_iteration {
            for firing in 0..record.counts[channel.source.0] {
                tokens_pushed[id.0] += channel
                    .production
                    .concrete(firing, &record.binding)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(RunCounts {
        firings: report.firings,
        tokens_pushed,
        ..RunCounts::default()
    })
}

/// `figure2-sessions`: rate-only Figure 2 sessions on one service.
pub struct Fig2Sessions {
    service: Arc<TpdfService>,
    sessions: Vec<SessionId>,
    /// `open_session` of the first session (analysis + sizing + compile).
    pub compile_ns: u64,
}

impl Fig2Sessions {
    pub fn open(count: usize, p: i64, iterations: u64) -> Result<Fig2Sessions, String> {
        let service = new_service();
        let mut compile_ns = 0;
        let mut sessions = Vec::with_capacity(count);
        for _ in 0..count {
            let start = Instant::now();
            let graph = figure2_graph();
            let session = service
                .open_session(&graph, fig2_config(p, iterations), KernelRegistry::new())
                .map_err(|e| e.to_string())?;
            if sessions.is_empty() {
                compile_ns = nanos(start);
            }
            sessions.push(session);
        }
        Ok(Fig2Sessions {
            service,
            sessions,
            compile_ns,
        })
    }

    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn submit(&self, index: usize) -> Result<u64, String> {
        self.service
            .submit(self.sessions[index])
            .map(|request| request.0)
            .map_err(|e| e.to_string())
    }

    pub fn wait(&self, index: usize, request: u64) -> Result<RunCounts, String> {
        self.service
            .wait(self.sessions[index], RequestId(request))
            .map(|metrics| RunCounts::of(&metrics))
            .map_err(|e| e.to_string())
    }

    pub fn requests_rejected(&self) -> u64 {
        self.service.metrics().requests_rejected
    }
}

/// Depth 2 of the Figure 2 workloads: one bare `Executor::run`.
pub struct Fig2Executor {
    executor: Executor<'static>,
    registry: KernelRegistry,
    pub compile_ns: u64,
}

impl Fig2Executor {
    pub fn new(p: i64, iterations: u64) -> Result<Fig2Executor, String> {
        let start = Instant::now();
        let graph = leak(figure2_graph());
        let executor =
            Executor::new(graph, fig2_config(p, iterations)).map_err(|e| e.to_string())?;
        Ok(Fig2Executor {
            executor,
            registry: KernelRegistry::new(),
            compile_ns: nanos(start),
        })
    }

    pub fn run(&self) -> Result<RunCounts, String> {
        self.executor
            .run(&self.registry)
            .map(|metrics| RunCounts::of(&metrics))
            .map_err(|e| e.to_string())
    }
}

/// Where one cut-and-restored op spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct CutTimes {
    pub run_checkpointed_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub run_restored_ns: u64,
    pub checkpoint_bytes: u64,
}

/// `figure2-checkpoint`: Figure 2 cut once at iteration `cut_at` of
/// `total`, through the byte codec, on one thread.
pub struct CheckpointSut {
    head: Fig2Executor,
    whole: Fig2Executor,
}

impl CheckpointSut {
    pub fn new(p: i64, cut_at: u64, total: u64) -> Result<CheckpointSut, String> {
        Ok(CheckpointSut {
            head: Fig2Executor::new(p, cut_at)?,
            whole: Fig2Executor::new(p, total)?,
        })
    }

    pub fn compile_ns(&self) -> u64 {
        self.head.compile_ns + self.whole.compile_ns
    }

    /// One op: run to the cut, capture, encode, decode, restore, run on.
    pub fn cut_and_restore(&self) -> Result<(RunCounts, CutTimes), String> {
        let t0 = Instant::now();
        let (_, checkpoint) = self
            .head
            .executor
            .run_checkpointed(&self.head.registry)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let bytes = checkpoint.encode();
        let t2 = Instant::now();
        let restored = Checkpoint::decode(&bytes).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let metrics = self
            .whole
            .executor
            .run_restored(&self.whole.registry, &restored)
            .map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        Ok((
            RunCounts::of(&metrics),
            CutTimes {
                run_checkpointed_ns: ns(t0, t1),
                encode_ns: ns(t1, t2),
                decode_ns: ns(t2, t3),
                run_restored_ns: ns(t3, t4),
                checkpoint_bytes: bytes.len() as u64,
            },
        ))
    }

    /// The uncut run the op must equal (and depth 2 of this workload).
    pub fn uncut(&self) -> Result<RunCounts, String> {
        self.whole.run()
    }
}

/// Test doubles that speak the wire protocol.
#[cfg(test)]
pub mod fake {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// An input whose reference is its own tokens: what [`EchoServer`]
    /// answers.
    pub fn echo_input(value: i64) -> WireInput {
        let tokens = vec![Token::Int(value), Token::Int(-value)];
        let echoed = tokens.clone();
        WireInput::new(tokens, Box::new(move || echoed.clone()))
    }

    /// Serves one connection: answers every `Barrier` with the records
    /// received since the last one, and stalls once, before answering
    /// barrier number `stall_at`.
    pub struct EchoServer {
        pub addr: SocketAddr,
        handle: JoinHandle<()>,
    }

    impl EchoServer {
        pub fn start(stall_at: u64, stall: Duration) -> EchoServer {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
            let addr = listener.local_addr().expect("local addr");
            let handle = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut reader = FrameReader::new(1 << 20);
                let mut records = Vec::new();
                let mut barriers = 0;
                let mut buf = [0u8; 4096];
                loop {
                    let n = stream.read(&mut buf).expect("read");
                    if n == 0 {
                        return;
                    }
                    reader.extend(&buf[..n]);
                    let mut out = Vec::new();
                    while let Some(frame) = reader.next_frame().expect("client frames decode") {
                        match frame {
                            Frame::Hello { app, .. } => write_frame(
                                &mut out,
                                &Frame::Hello {
                                    app,
                                    session: 1,
                                    tokens_per_run: 2,
                                },
                            ),
                            Frame::Records { tokens } => records.extend(tokens),
                            Frame::Barrier { seq } => {
                                if barriers == stall_at {
                                    std::thread::sleep(stall);
                                }
                                barriers += 1;
                                let outcome = Ok(std::mem::take(&mut records));
                                write_frame(&mut out, &Frame::Result { seq, outcome });
                            }
                            Frame::Bye => {
                                write_frame(&mut out, &Frame::Bye);
                                stream.write_all(&out).expect("write");
                                return;
                            }
                            Frame::Result { .. } | Frame::Backoff { .. } => {
                                panic!("client sent a server-only frame")
                            }
                        }
                    }
                    stream.write_all(&out).expect("write");
                }
            });
            EchoServer { addr, handle }
        }

        pub fn join(self) {
            self.handle.join().expect("echo server panicked");
        }
    }
}
