//! The non-blocking ingestion server: a readiness loop on
//! `std::net` feeding [`tpdf_service::TpdfService`] sessions from TCP
//! connections.
//!
//! # Design
//!
//! One server thread owns a non-blocking listener and every client
//! connection; each loop sweep accepts new clients, reads whatever
//! bytes are ready, decodes complete frames, submits barriers to the
//! service, flushes completed run results back, and retires dead
//! connections. There are no external event libraries and no thread
//! per connection: the pool behind the service does the compute, the
//! sweep only moves bytes and frames.
//!
//! A sweep that moves nothing ends in one blocking wait (`ppoll(2)` on
//! Linux) over the listener, every connection that is being read or has
//! bytes to write, and a wake socket. The service calls the server's
//! waker (registered with [`tpdf_service::TpdfService::add_waker`]) on
//! every run completion, dispatch, close and cancel, which writes one
//! byte to that socket — so a `Barrier` is read as soon as it arrives
//! and a finished run's `Result` is sent as soon as the run ends, not
//! on a timer. That holds under any load: wakes that come in while a
//! byte is still unread merge into it, and the sweep that follows
//! drains every finished result of every connection. The waker does
//! nothing when the loop thread itself made the change (its own
//! `submit`, `close` or `cancel`, and a run those complete inline): the
//! sweep that made it already counts as progress, so another sweep
//! follows without waiting. While anything is in flight (a pending or
//! parked barrier, unsent output, a paused or closing connection) the
//! wait is capped at [`NetConfig::poll_interval`], so a missed wake
//! costs at most one interval; with nothing in flight the loop sleeps
//! until the nearest idle-eviction deadline. Platforms without `ppoll`
//! sleep `poll_interval` after every sweep that moves nothing, loaded
//! or not.
//!
//! # Backpressure, end to end
//!
//! Nothing is ever dropped and nothing buffers without bound:
//!
//! * a `Barrier` refused by the session's bounded ingress queue
//!   ([`tpdf_service::ServiceError::Backpressure`]) is **parked** and
//!   retried each sweep (a run completion wakes the loop for it); the
//!   client is told with a
//!   [`Frame::Backoff`]`(QueueFull)`;
//! * a session's token feed beyond its configured high-water mark
//!   pauses **socket reads** for that connection
//!   ([`Frame::Backoff`]`(FeedFull)`) — the client's writes then fill
//!   the TCP window and block, which is exactly the flow control TCP
//!   already implements. Frames already received keep decoding while
//!   paused (only the read is gated), and reads resume on their own
//!   when nothing in flight is left to drain the feed — otherwise a
//!   legal client whose next `Barrier` is still in the socket would
//!   wedge. A feed more than [`FEED_HARD_CAP_RUNS`] runs deep is a
//!   protocol error (a records flood that ignores `Backoff` cannot
//!   grow memory without bound);
//! * an admission refusal at `Hello` answers
//!   [`Frame::Backoff`]`(AdmissionRefused)` and keeps the connection,
//!   so the client can retry the handshake.
//!
//! A client that disconnects mid-run is cancelled through
//! [`tpdf_service::TpdfService::cancel`] — the engine halts the
//! in-flight run at its next scheduling point. Idle and
//! write-stalled connections are evicted on a timeout. A panic while
//! one connection's frame is handled (say, in a [`NetApp::build`]) is
//! caught: that connection closes with a protocol error, its session
//! (if one was opened) is cancelled, and the loop serves the others on.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpdf_core::graph::TpdfGraph;
use tpdf_runtime::cases::OutputCapture;
use tpdf_runtime::{KernelRegistry, RuntimeConfig, Token};
use tpdf_service::{ServiceError, SessionId, TpdfService};
use tpdf_trace::{EventKind, Tracer};

use crate::frame::{write_frame, BackoffReason, Frame, FrameReader};
use crate::metrics::NetMetrics;
use crate::sys::Waiter;

/// Hard bound on buffered feed depth, in multiples of the configured
/// high-water mark: a connection whose unconsumed records exceed
/// `FEED_HARD_CAP_RUNS ×` [`NetConfig::feed_runs`] runs is closed
/// with a protocol error — it is flooding records while ignoring
/// `Backoff`, and nothing else bounds that memory.
pub const FEED_HARD_CAP_RUNS: u64 = 64;

thread_local! {
    /// On a loop thread, the address of that loop's wake channel (see
    /// the module docs): a service notification for a change the loop
    /// made itself needs no wake. Other servers' loops still get theirs.
    static LOOP_WAKE: Cell<usize> = const { Cell::new(0) };
}

/// Tuning knobs of the ingestion loop.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum concurrently served connections; further accepts are
    /// refused (counted in [`NetMetrics::conns_refused`]).
    pub max_conns: usize,
    /// Largest accepted frame body in bytes (a hostile length prefix
    /// beyond this is a protocol error, not an allocation).
    pub max_frame_bytes: usize,
    /// A connection with no read progress and no outstanding work for
    /// this long is evicted.
    pub idle_timeout: Duration,
    /// A connection whose outgoing buffer makes no progress for this
    /// long (a slow client not draining its results) is evicted.
    pub write_stall_timeout: Duration,
    /// The longest the loop waits after a sweep that moved nothing
    /// while work is in flight (a pending or parked barrier, unsent
    /// output, a paused or closing connection), however many runs are
    /// outstanding: it wakes earlier when a socket becomes ready or the
    /// service reports a state change, so the interval only bounds what
    /// a missed wake costs. With nothing in flight the loop waits only
    /// for those and for the next idle eviction. Platforms without the
    /// readiness wait sleep this long after every sweep that moved
    /// nothing, loaded or not.
    pub poll_interval: Duration,
    /// Feed high-water mark, in runs: buffered input tokens beyond
    /// `feed_runs × tokens_per_run` pause reads from the connection.
    pub feed_runs: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 64,
            max_frame_bytes: 16 << 20,
            idle_timeout: Duration::from_secs(30),
            write_stall_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_micros(500),
            feed_runs: 2,
        }
    }
}

/// A shared, popped-from-the-front token buffer: the bridge between
/// `Records` frames and a session's source kernel. The app's `build`
/// closure re-registers its source to pop from the feed instead of
/// replaying canned data.
#[derive(Debug, Clone, Default)]
pub struct NetFeed {
    tokens: Arc<Mutex<VecDeque<Token>>>,
}

impl NetFeed {
    /// Creates an empty feed.
    pub fn new() -> NetFeed {
        NetFeed::default()
    }

    /// Appends tokens in stream order.
    pub fn push(&self, tokens: impl IntoIterator<Item = Token>) {
        self.tokens.lock().expect("feed lock").extend(tokens);
    }

    /// Pops up to `n` tokens from the front. A source kernel calls
    /// this with its output rate; the protocol guarantees the tokens
    /// are present (a `Barrier` is only submitted once a full run's
    /// records arrived).
    pub fn pop(&self, n: usize) -> Vec<Token> {
        let mut tokens = self.tokens.lock().expect("feed lock");
        let n = n.min(tokens.len());
        tokens.drain(..n).collect()
    }

    /// Buffered tokens.
    pub fn len(&self) -> usize {
        self.tokens.lock().expect("feed lock").len()
    }

    /// Whether the feed is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One servable application: the graph and config a `Hello` opens a
/// session with, and the wire contract of a run.
#[derive(Clone)]
pub struct NetApp {
    /// The dataflow graph each session of this app executes.
    pub graph: TpdfGraph,
    /// Per-session runtime configuration (iterations, threads,
    /// binding, selectors).
    pub config: RuntimeConfig,
    /// Input tokens one `Barrier` (one run) consumes — announced to
    /// the client in the `Hello` ack and enforced before submission.
    pub tokens_per_run: u64,
    /// Sink tokens one successful run produces, used to split the
    /// shared capture stream into per-run `Result` frames. 0 means
    /// "drain everything captured so far" — only correct when the
    /// client keeps at most one run in flight.
    pub tokens_out_per_run: u64,
    /// Builds the session's kernel registry around the connection's
    /// [`NetFeed`] (the source pops its samples from the feed) and
    /// returns the sink capture results are read from.
    #[allow(clippy::type_complexity)]
    pub build: Arc<dyn Fn(&NetFeed) -> (KernelRegistry, OutputCapture) + Send + Sync>,
}

/// The name → [`NetApp`] table a server serves.
#[derive(Clone, Default)]
pub struct NetApps {
    apps: BTreeMap<String, NetApp>,
}

impl NetApps {
    /// Creates an empty table.
    pub fn new() -> NetApps {
        NetApps::default()
    }

    /// Registers `app` under `name` (replacing any previous entry).
    pub fn register(&mut self, name: &str, app: NetApp) {
        self.apps.insert(name.to_string(), app);
    }

    fn get(&self, name: &str) -> Option<&NetApp> {
        self.apps.get(name)
    }
}

/// Why a connection ended — the `b` operand of `ConnClose` trace
/// events.
const CLOSE_CLEAN: u64 = 0;
const CLOSE_DISCONNECT: u64 = 1;
const CLOSE_EVICTED: u64 = 2;
const CLOSE_PROTOCOL: u64 = 3;

/// The ingestion server handle: owns the listener thread. Dropping it
/// (or calling [`NetServer::shutdown`]) stops the loop and joins.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    /// Wakes the loop; registered with the service, which holds it
    /// weakly, so dropping the server unregisters it.
    waker: Arc<dyn Fn() + Send + Sync>,
    handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the ingestion
    /// loop on its own thread, serving `apps` on top of `service`.
    ///
    /// The service should use [`tpdf_service::AdmissionPolicy::Reject`]
    /// (the default): refusals become `Backoff` frames. A `Block`
    /// policy would stall the single ingestion thread — and every
    /// other connection with it — whenever one client hits a bound.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn bind(
        addr: &str,
        service: Arc<TpdfService>,
        apps: NetApps,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(NetMetrics::new());
        let tracer = service.config().tracer.clone();
        let waiter = Waiter::new()?;
        let wake = waiter.wake();
        let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if LOOP_WAKE.get() != Arc::as_ptr(&wake) as usize {
                wake.wake();
            }
        });
        service.add_waker(&waker);
        let mut rt = Loop {
            listener,
            service,
            apps,
            config,
            stop: Arc::clone(&stop),
            metrics: Arc::clone(&metrics),
            tracer,
            conns: Vec::new(),
            next_conn: 1,
            waiter,
            read_buf: vec![0; 65536].into_boxed_slice(),
        };
        let handle = std::thread::Builder::new()
            .name("tpdf-net".to_string())
            .spawn(move || rt.run())?;
        Ok(NetServer {
            local_addr,
            stop,
            metrics,
            waker,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the network ledger.
    pub fn metrics(&self) -> crate::metrics::NetMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live ledger itself (all-atomic counters) — what a
    /// continuous sampler attaches to so it can take its own periodic
    /// snapshots without going through the server handle.
    pub fn metrics_handle(&self) -> Arc<NetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops the loop and joins the server thread. Open sessions of
    /// live connections are cancelled.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Relaxed);
        (self.waker)();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Per-connection state machine.
struct Conn {
    id: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// Bytes queued towards the client, written as the socket drains.
    outbuf: Vec<u8>,
    session: Option<SessionId>,
    feed: NetFeed,
    capture: Option<OutputCapture>,
    tokens_per_run: u64,
    tokens_out_per_run: u64,
    /// Tokens received but not yet claimed by a `Barrier`.
    credited: u64,
    /// Barriers submitted and awaiting completion, in order.
    pending: VecDeque<(u64, tpdf_service::RequestId)>,
    /// Barriers refused by ingress backpressure, retried each sweep.
    parked: VecDeque<u64>,
    /// Sink tokens drained from the capture, split per run.
    out_tokens: VecDeque<Token>,
    /// Socket reads paused (feed over high water); resumed when the
    /// feed drains and nothing is parked.
    paused: bool,
    /// `Bye` received: flush results, answer `Bye`, then close.
    closing: bool,
    bye_sent: bool,
    last_read: Instant,
    /// Last instant the outgoing buffer made progress (or was empty).
    last_write_progress: Instant,
    /// Set when the connection is finished; reaped at sweep end.
    dead: Option<u64>,
}

impl Conn {
    fn queue_frame(&mut self, frame: &Frame, metrics: &NetMetrics) {
        write_frame(&mut self.outbuf, frame);
        metrics.frames_out.fetch_add(1, Relaxed);
    }
}

struct Loop {
    listener: TcpListener,
    service: Arc<TpdfService>,
    apps: NetApps,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    tracer: Option<Arc<Tracer>>,
    conns: Vec<Conn>,
    next_conn: u64,
    waiter: Waiter,
    /// Socket read scratch, allocated once rather than zeroed on the
    /// stack for every read.
    read_buf: Box<[u8]>,
}

impl Loop {
    fn run(&mut self) {
        LOOP_WAKE.set(Arc::as_ptr(&self.waiter.wake()) as usize);
        while !self.stop.load(Relaxed) {
            let mut progress = false;
            progress |= self.accept();
            for i in 0..self.conns.len() {
                progress |= self.sweep_conn(i);
            }
            self.reap();
            if !progress {
                self.wait();
            }
        }
        // Shutdown: cancel what is still live so pool work stops.
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.dead.is_none() {
                conn.dead = Some(CLOSE_DISCONNECT);
            }
        }
        self.reap();
    }

    /// Blocks until a socket is ready, the service reports a state
    /// change, or the next timed event is due (see the module docs).
    fn wait(&mut self) {
        let now = Instant::now();
        let mut in_flight = false;
        let mut next_eviction: Option<Duration> = None;
        self.waiter.watch(&self.listener, true, false);
        for conn in &self.conns {
            let busy = !conn.pending.is_empty()
                || !conn.parked.is_empty()
                || !conn.outbuf.is_empty()
                || conn.paused
                || conn.closing;
            in_flight |= busy;
            if !busy {
                // `None` (an unrepresentable deadline) never evicts.
                if let Some(due) = conn.last_read.checked_add(self.config.idle_timeout) {
                    let left = due.saturating_duration_since(now);
                    next_eviction = Some(next_eviction.map_or(left, |t| t.min(left)));
                }
            }
            let read = !conn.paused && !conn.closing;
            self.waiter
                .watch(&conn.stream, read, !conn.outbuf.is_empty());
        }
        let poll = self.config.poll_interval;
        let timeout = if in_flight {
            Some(next_eviction.map_or(poll, |t| t.min(poll)))
        } else {
            next_eviction
        };
        self.waiter.wait(timeout, poll);
    }

    fn trace(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some(tracer) = &self.tracer {
            tracer.control_event(kind, 0, a, b, c);
        }
    }

    fn accept(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if self.conns.len() >= self.config.max_conns {
                        self.metrics.conns_refused.fetch_add(1, Relaxed);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.metrics.conns_refused.fetch_add(1, Relaxed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.metrics.conns_accepted.fetch_add(1, Relaxed);
                    self.trace(EventKind::ConnAccept, id, 0, 0);
                    let now = Instant::now();
                    self.conns.push(Conn {
                        id,
                        stream,
                        reader: FrameReader::new(self.config.max_frame_bytes),
                        outbuf: Vec::new(),
                        session: None,
                        feed: NetFeed::new(),
                        capture: None,
                        tokens_per_run: 0,
                        tokens_out_per_run: 0,
                        credited: 0,
                        pending: VecDeque::new(),
                        parked: VecDeque::new(),
                        out_tokens: VecDeque::new(),
                        paused: false,
                        closing: false,
                        bye_sent: false,
                        last_read: now,
                        last_write_progress: now,
                        dead: None,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        progress
    }

    /// One sweep over one connection; returns whether anything moved.
    fn sweep_conn(&mut self, i: usize) -> bool {
        let mut progress = false;
        progress |= self.take_results(i);
        progress |= self.retry_parked(i);
        self.maybe_resume(i);
        progress |= self.read_and_handle(i);
        progress |= self.flush_writes(i);
        self.finish_closing(i);
        self.check_timeouts(i);
        progress
    }

    /// Streams completed runs back as `Result` frames, in order.
    fn take_results(&mut self, i: usize) -> bool {
        let Some(session) = self.conns[i].session else {
            return false;
        };
        if self.conns[i].dead.is_some() {
            return false;
        }
        let mut progress = false;
        while let Some(&(seq, request)) = self.conns[i].pending.front() {
            let outcome = match self.service.try_take(session, request) {
                Ok(None) => break,
                Ok(Some(Ok(_metrics))) => {
                    // Move everything newly captured into the local
                    // stream, then cut one run's worth off the front.
                    let conn = &mut self.conns[i];
                    if let Some(capture) = &conn.capture {
                        conn.out_tokens.extend(capture.take_tokens());
                    }
                    let take = if conn.tokens_out_per_run == 0 {
                        conn.out_tokens.len()
                    } else {
                        (conn.tokens_out_per_run as usize).min(conn.out_tokens.len())
                    };
                    Ok(conn.out_tokens.drain(..take).collect::<Vec<_>>())
                }
                Ok(Some(Err(e))) => Err(e.to_string()),
                // The session vanished (evicted/cancelled elsewhere):
                // surface it and close.
                Err(e) => Err(e.to_string()),
            };
            let failed = outcome.is_err();
            self.conns[i].pending.pop_front();
            let frame = Frame::Result { seq, outcome };
            let conn = &mut self.conns[i];
            conn.queue_frame(&frame, &self.metrics);
            self.metrics.results_out.fetch_add(1, Relaxed);
            progress = true;
            if failed {
                // A failed run desynchronises the capture stream; end
                // the connection after the error is flushed.
                conn.closing = true;
                break;
            }
        }
        progress
    }

    /// Retries barriers parked on a full ingress queue.
    fn retry_parked(&mut self, i: usize) -> bool {
        let Some(session) = self.conns[i].session else {
            return false;
        };
        if self.conns[i].dead.is_some() {
            return false;
        }
        let mut progress = false;
        while let Some(&seq) = self.conns[i].parked.front() {
            match self.service.submit(session) {
                Ok(request) => {
                    let conn = &mut self.conns[i];
                    conn.parked.pop_front();
                    conn.pending.push_back((seq, request));
                    progress = true;
                }
                Err(ServiceError::Backpressure { .. }) => break,
                Err(e) => {
                    self.protocol_error(i, &format!("parked barrier {seq}: {e}"));
                    break;
                }
            }
        }
        progress
    }

    /// Resumes reads once the backlog cleared — or once nothing in
    /// flight is left that could ever clear it: with no parked
    /// barriers and no pending runs the feed can only drain after
    /// *more frames are read* (the next `Barrier` is still in the
    /// socket), so staying paused would wedge a legal client that
    /// streamed records ahead of its barriers.
    fn maybe_resume(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if !conn.paused || conn.dead.is_some() {
            return;
        }
        if !conn.parked.is_empty() {
            return;
        }
        let feed_cap = self.config.feed_runs.max(1) * conn.tokens_per_run.max(1);
        if (conn.feed.len() as u64) <= feed_cap || conn.pending.is_empty() {
            conn.paused = false;
        }
    }

    fn read_and_handle(&mut self, i: usize) -> bool {
        if self.conns[i].closing || self.conns[i].dead.is_some() {
            return false;
        }
        let mut progress = false;
        // A pause gates only the socket read — frames already received
        // keep decoding below, otherwise a `Barrier` sitting in the
        // reader behind the records that tripped the high-water mark
        // would never run and the feed would never drain.
        if !self.conns[i].paused {
            loop {
                let conn = &mut self.conns[i];
                let buf = &mut self.read_buf[..];
                match conn.stream.read(buf) {
                    Ok(0) => {
                        self.disconnect(i);
                        return true;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.last_read = Instant::now();
                        conn.reader.extend(&buf[..n]);
                        self.metrics.bytes_in.fetch_add(n as u64, Relaxed);
                        // One chunk per sweep is enough: a firehose
                        // client must not starve its neighbours.
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.disconnect(i);
                        return true;
                    }
                }
            }
        }
        // Decode every complete frame buffered so far.
        loop {
            if self.conns[i].dead.is_some() || self.conns[i].closing {
                break;
            }
            let buffered = self.conns[i].reader.buffered();
            match self.conns[i].reader.next_frame() {
                Ok(Some(frame)) => {
                    progress = true;
                    self.metrics.frames_in.fetch_add(1, Relaxed);
                    let len = (buffered - self.conns[i].reader.buffered()) as u64;
                    self.trace(
                        EventKind::FrameRecv,
                        self.conns[i].id,
                        frame.type_byte() as u64,
                        len,
                    );
                    // App code runs here (`NetApp::build`): its panic
                    // costs this connection, not the loop thread.
                    let handled = catch_unwind(AssertUnwindSafe(|| self.handle_frame(i, frame)));
                    if handled.is_err() {
                        self.protocol_error(i, "panic while handling a frame");
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.protocol_error(i, &e.to_string());
                    break;
                }
            }
        }
        progress
    }

    fn handle_frame(&mut self, i: usize, frame: Frame) {
        match frame {
            Frame::Hello { app, .. } => self.handle_hello(i, &app),
            Frame::Records { tokens } => self.handle_records(i, tokens),
            Frame::Barrier { seq } => self.handle_barrier(i, seq),
            Frame::Bye => {
                let Some(session) = self.conns[i].session else {
                    // A session-less Bye is a clean no-op close.
                    self.conns[i].closing = true;
                    return;
                };
                let _ = self.service.close(session);
                self.conns[i].closing = true;
            }
            // Result and Backoff are server-to-client only.
            Frame::Result { .. } | Frame::Backoff { .. } => {
                self.protocol_error(i, "client sent a server-only frame");
            }
        }
    }

    fn handle_hello(&mut self, i: usize, app_name: &str) {
        if self.conns[i].session.is_some() {
            self.protocol_error(i, "Hello on a connection with an open session");
            return;
        }
        let Some(app) = self.apps.get(app_name).cloned() else {
            self.protocol_error(i, &format!("unknown app {app_name:?}"));
            return;
        };
        let feed = self.conns[i].feed.clone();
        let (registry, capture) = (app.build)(&feed);
        match self
            .service
            .open_session(&app.graph, app.config.clone(), registry)
        {
            Ok(session) => {
                self.metrics.sessions_opened.fetch_add(1, Relaxed);
                let conn = &mut self.conns[i];
                conn.session = Some(session);
                conn.capture = Some(capture);
                conn.tokens_per_run = app.tokens_per_run;
                conn.tokens_out_per_run = app.tokens_out_per_run;
                let ack = Frame::Hello {
                    app: app_name.to_string(),
                    session: session.0,
                    tokens_per_run: app.tokens_per_run,
                };
                conn.queue_frame(&ack, &self.metrics);
            }
            Err(
                e @ (ServiceError::SessionLimit { .. }
                | ServiceError::Oversubscribed { .. }
                | ServiceError::Draining),
            ) => {
                // Admission said no: tell the client to back off and
                // keep the connection for a retry.
                let _ = e;
                self.metrics.admission_refusals.fetch_add(1, Relaxed);
                self.send_backoff(i, 0, BackoffReason::AdmissionRefused);
            }
            Err(e) => {
                self.protocol_error(i, &format!("open_session: {e}"));
            }
        }
    }

    fn handle_records(&mut self, i: usize, tokens: Vec<Token>) {
        let conn = &mut self.conns[i];
        if conn.session.is_none() {
            self.protocol_error(i, "Records before Hello");
            return;
        }
        self.metrics
            .records_in
            .fetch_add(tokens.len() as u64, Relaxed);
        conn.credited += tokens.len() as u64;
        conn.feed.push(tokens);
        let feed_cap = self.config.feed_runs.max(1) * conn.tokens_per_run.max(1);
        let buffered = conn.feed.len() as u64;
        if buffered > feed_cap.saturating_mul(FEED_HARD_CAP_RUNS) {
            self.protocol_error(
                i,
                &format!(
                    "records flood: {buffered} tokens buffered against a high-water mark of \
                     {feed_cap}"
                ),
            );
            return;
        }
        if buffered > feed_cap && !conn.paused {
            conn.paused = true;
            let session = conn.session.map_or(0, |s| s.0);
            self.send_backoff(i, session, BackoffReason::FeedFull);
        }
    }

    fn handle_barrier(&mut self, i: usize, seq: u64) {
        let Some(session) = self.conns[i].session else {
            self.protocol_error(i, "Barrier before Hello");
            return;
        };
        if self.conns[i].credited < self.conns[i].tokens_per_run {
            self.protocol_error(
                i,
                &format!(
                    "Barrier {seq} with {} of {} run tokens received",
                    self.conns[i].credited, self.conns[i].tokens_per_run
                ),
            );
            return;
        }
        self.conns[i].credited -= self.conns[i].tokens_per_run;
        // Order matters: behind a parked barrier everything parks.
        if !self.conns[i].parked.is_empty() {
            self.conns[i].parked.push_back(seq);
            return;
        }
        match self.service.submit(session) {
            Ok(request) => self.conns[i].pending.push_back((seq, request)),
            Err(ServiceError::Backpressure { .. }) => {
                self.conns[i].parked.push_back(seq);
                self.conns[i].paused = true;
                self.send_backoff(i, session.0, BackoffReason::QueueFull);
            }
            Err(e) => self.protocol_error(i, &format!("Barrier {seq}: {e}")),
        }
    }

    fn send_backoff(&mut self, i: usize, session: u64, reason: BackoffReason) {
        self.metrics.backoffs.fetch_add(1, Relaxed);
        self.trace(EventKind::Backoff, self.conns[i].id, session, 0);
        let frame = Frame::Backoff { session, reason };
        self.conns[i].queue_frame(&frame, &self.metrics);
    }

    fn flush_writes(&mut self, i: usize) -> bool {
        let conn = &mut self.conns[i];
        if conn.dead.is_some() {
            return false;
        }
        if conn.outbuf.is_empty() {
            conn.last_write_progress = Instant::now();
            return false;
        }
        let mut written = 0;
        loop {
            match conn.stream.write(&conn.outbuf[written..]) {
                Ok(0) => break,
                Ok(n) => {
                    written += n;
                    if written == conn.outbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect(i);
                    return true;
                }
            }
        }
        if written > 0 {
            let conn = &mut self.conns[i];
            conn.outbuf.drain(..written);
            conn.last_write_progress = Instant::now();
            self.metrics.bytes_out.fetch_add(written as u64, Relaxed);
        }
        written > 0
    }

    /// Completes a clean `Bye` close once every result is flushed.
    fn finish_closing(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if !conn.closing || conn.dead.is_some() {
            return;
        }
        if !conn.bye_sent && conn.pending.is_empty() && conn.parked.is_empty() {
            conn.bye_sent = true;
            let frame = Frame::Bye;
            conn.queue_frame(&frame, &self.metrics);
        }
        if conn.bye_sent && conn.outbuf.is_empty() {
            conn.dead = Some(CLOSE_CLEAN);
        }
    }

    fn check_timeouts(&mut self, i: usize) {
        let conn = &self.conns[i];
        if conn.dead.is_some() {
            return;
        }
        let idle = conn.last_read.elapsed() > self.config.idle_timeout
            && conn.pending.is_empty()
            && conn.parked.is_empty()
            && !conn.closing;
        let write_stalled = !conn.outbuf.is_empty()
            && conn.last_write_progress.elapsed() > self.config.write_stall_timeout;
        if idle || write_stalled {
            self.metrics.conns_evicted.fetch_add(1, Relaxed);
            self.conns[i].dead = Some(CLOSE_EVICTED);
        }
    }

    fn disconnect(&mut self, i: usize) {
        if self.conns[i].dead.is_none() {
            self.conns[i].dead = Some(CLOSE_DISCONNECT);
        }
    }

    fn protocol_error(&mut self, i: usize, detail: &str) {
        let _ = detail;
        self.metrics.protocol_errors.fetch_add(1, Relaxed);
        if self.conns[i].dead.is_none() {
            self.conns[i].dead = Some(CLOSE_PROTOCOL);
        }
    }

    /// Drops finished connections, cancelling sessions that did not
    /// end with a clean `Bye` (the PR 5 cancellation path: queued
    /// requests drop, the in-flight run halts at its next scheduling
    /// point).
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            let Some(reason) = self.conns[i].dead else {
                i += 1;
                continue;
            };
            let conn = self.conns.swap_remove(i);
            if let Some(session) = conn.session {
                if reason == CLOSE_CLEAN {
                    // close() already ran at Bye; nothing to cancel.
                } else {
                    let _ = self.service.cancel(session);
                }
            }
            self.metrics.conns_closed.fetch_add(1, Relaxed);
            self.trace(EventKind::ConnClose, conn.id, reason, 0);
        }
    }
}
