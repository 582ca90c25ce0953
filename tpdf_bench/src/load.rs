//! The load generator: one thread, at most two loopback connections
//! over non-blocking sockets. It sleeps to the next due time or at
//! most [`IDLE_SLEEP`] and never spins a core for longer than
//! [`SLEEP_OVERSHOOT`] per op — the server's two pool workers and its
//! poll thread already fill this host's two CPUs.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::OpSample;
use crate::sut::{
    self, CheckpointSut, CutTimes, Fig2Sessions, Reply, ReplyReader, RunCounts, WireInput,
};

/// Longest sleep while replies are outstanding. Linux adds ~55 µs of
/// timer slack, so replies are noticed within ~105 µs of arriving.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// By how much `thread::sleep` overshoots on Linux (timer slack plus
/// wake-up). The generator sleeps this much short of a due time and
/// yields through the remainder, so an op is sent within a few µs of
/// when it is due at a cost of at most this much busy time per op.
const SLEEP_OVERSHOOT: Duration = Duration::from_micros(60);
/// An op unanswered for this long is failed and ends the run.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// How ops are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Open loop: seeded exponential arrivals at this total rate,
    /// dealt to the connections in turn; latency counts from the due
    /// time, so a stall is charged to every op it delays.
    Open { ops_per_s: f64 },
    /// Closed loop: each connection keeps this many ops in flight;
    /// latency counts from the send.
    Closed { in_flight: usize },
}

/// When a run stops issuing ops (it then drains what is in flight).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Ops(u64),
    After(Duration),
}

/// What one run of the generator saw.
#[derive(Debug)]
pub struct Samples {
    /// The instant sample times count from.
    pub origin: Instant,
    /// Every verified-correct op.
    pub ops: Vec<OpSample>,
    pub attempted: u64,
    pub failed: u64,
    /// Open loop only: how late each op was sent, in ns.
    pub lateness_ns: Vec<u64>,
    pub backoffs: u64,
    /// The first failure, for the report.
    pub error: Option<String>,
    /// `figure2-checkpoint` only: where each op of `ops` spent its time.
    pub cuts: Vec<CutTimes>,
}

impl Samples {
    fn starting_now() -> Samples {
        Samples {
            origin: Instant::now(),
            ops: Vec::new(),
            attempted: 0,
            failed: 0,
            lateness_ns: Vec::new(),
            backoffs: 0,
            error: None,
            cuts: Vec::new(),
        }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn may_issue(&self, stop: Stop, now: Instant) -> bool {
        match stop {
            Stop::Ops(n) => self.attempted < n,
            Stop::After(window) => now.saturating_duration_since(self.origin) < window,
        }
    }

    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.error.get_or_insert(why);
    }
}

/// Due times in ns from the start of the window: exponential gaps from
/// `seed`, scaled so that exactly `round(rate × window)` arrivals span
/// the window. Conditioning on the count keeps the offered load equal
/// across seeds; the gaps stay exponential.
pub fn arrival_schedule(seed: u64, ops_per_s: f64, window: Duration) -> Vec<u64> {
    let count = (ops_per_s * window.as_secs_f64()).round() as usize;
    let mut state = seed ^ 0xa076_1d64_78bd_642f;
    let mut gap = || {
        // 53 uniform bits in (0, 1].
        let uniform = ((sut::splitmix(&mut state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -uniform.ln()
    };
    let mut at = 0.0;
    let due: Vec<f64> = (0..count)
        .map(|_| {
            at += gap();
            at
        })
        .collect();
    // One more gap closes the window, so that the last op is not due
    // at its very end.
    let scale = window.as_nanos() as f64 / (at + gap());
    due.into_iter().map(|t| (t * scale) as u64).collect()
}

struct InFlight {
    op: u64,
    start: Instant,
}

struct Conn {
    stream: TcpStream,
    reader: ReplyReader,
    /// Bytes queued towards the server and how many are written.
    out: Vec<u8>,
    written: usize,
    in_flight: VecDeque<InFlight>,
}

impl Conn {
    fn flush(&mut self) -> Result<bool, String> {
        let mut progressed = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(progressed)
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<bool, String> {
        let mut progressed = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => {
                    self.reader.extend(&buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// The client side of up to two wire sessions.
pub struct WireClient {
    conns: Vec<Conn>,
    next_seq: u64,
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects `connections` sockets and opens a session on each; a
    /// refused `Hello` is an error.
    pub fn connect(addr: SocketAddr, connections: usize) -> Result<WireClient, String> {
        let mut client = WireClient {
            conns: Vec::new(),
            next_seq: 0,
            buf: vec![0; 1 << 16],
        };
        for _ in 0..connections {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            let mut conn = Conn {
                stream,
                reader: ReplyReader::new(),
                out: Vec::new(),
                written: 0,
                in_flight: VecDeque::new(),
            };
            sut::put_hello(&mut conn.out);
            client.conns.push(conn);
        }
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut greeted = 0;
        while greeted < connections {
            if Instant::now() > deadline {
                return Err("Hello unanswered".to_string());
            }
            let mut progressed = false;
            for conn in &mut client.conns {
                progressed |= conn.flush()?;
                progressed |= conn.fill(&mut client.buf)?;
                while let Some(reply) = conn.reader.next_reply()? {
                    match reply {
                        Reply::Hello => greeted += 1,
                        _ => return Err("Hello refused".to_string()),
                    }
                }
            }
            if !progressed {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        Ok(client)
    }

    /// Runs ops `0..` (op `i` sends `inputs[i % len]`) until `stop`,
    /// then drains. Every result is compared with its input's
    /// reference after its completion time is taken. A connection
    /// error or a timeout fails what is in flight and ends the run.
    pub fn run(&mut self, inputs: &[WireInput], pacing: Pacing, stop: Stop, seed: u64) -> Samples {
        // Warm-up runs stop by op count; those run closed, whatever
        // the workload's pacing.
        let (schedule, limit) = match (pacing, stop) {
            // Limit 0 marks the open loop: nothing bounds what is in flight.
            (Pacing::Open { ops_per_s }, Stop::After(window)) => {
                (arrival_schedule(seed, ops_per_s, window), 0)
            }
            (Pacing::Open { .. }, Stop::Ops(_)) => (Vec::new(), 1),
            (Pacing::Closed { in_flight }, _) => (Vec::new(), in_flight),
        };
        let mut samples = Samples::starting_now();
        let outcome = self.drive(inputs, &schedule, limit, stop, &mut samples);
        if let Err(why) = outcome {
            let lost: usize = self.conns.iter().map(|c| c.in_flight.len()).sum();
            samples.fail(lost as u64, why);
        }
        // Later runs number their barriers onwards, so a stale reply
        // can never pass for a fresh one.
        self.next_seq += samples.attempted;
        samples
    }

    fn drive(
        &mut self,
        inputs: &[WireInput],
        schedule: &[u64],
        limit: usize,
        stop: Stop,
        samples: &mut Samples,
    ) -> Result<(), String> {
        let origin = samples.origin;
        loop {
            let now = Instant::now();
            let mut progressed = false;
            let next_due = schedule
                .get(samples.attempted as usize)
                .map(|&ns| origin + Duration::from_nanos(ns));

            if limit == 0 {
                if let Some(due) = next_due.filter(|due| *due <= now) {
                    samples.lateness_ns.push((now - due).as_nanos() as u64);
                    let index = samples.attempted as usize % self.conns.len();
                    self.issue(index, samples.attempted, inputs, due);
                    samples.attempted += 1;
                    progressed = true;
                }
            } else {
                for index in 0..self.conns.len() {
                    while self.conns[index].in_flight.len() < limit && samples.may_issue(stop, now)
                    {
                        self.issue(index, samples.attempted, inputs, Instant::now());
                        samples.attempted += 1;
                        progressed = true;
                    }
                }
            }

            for index in 0..self.conns.len() {
                progressed |= self.service_conn(index, inputs, samples)?;
            }

            let oldest = self
                .conns
                .iter()
                .filter_map(|c| c.in_flight.front())
                .map(|f| f.start)
                .min();
            let exhausted = if limit == 0 {
                samples.attempted as usize == schedule.len()
            } else {
                !samples.may_issue(stop, now)
            };
            if exhausted && oldest.is_none() {
                return Ok(());
            }
            if oldest.is_some_and(|start| now.saturating_duration_since(start) > OP_TIMEOUT) {
                return Err("op timed out after 30 s".to_string());
            }
            if !progressed {
                // Sleep to the next due time; with replies outstanding,
                // no longer than IDLE_SLEEP.
                let nap = match next_due.map(|due| due.saturating_duration_since(now)) {
                    Some(gap) if oldest.is_none() || gap < IDLE_SLEEP + SLEEP_OVERSHOOT => {
                        gap.saturating_sub(SLEEP_OVERSHOOT)
                    }
                    _ => IDLE_SLEEP,
                };
                if nap.is_zero() {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(nap);
                }
            }
        }
    }

    fn issue(&mut self, index: usize, op: u64, inputs: &[WireInput], start: Instant) {
        let conn = &mut self.conns[index];
        conn.out
            .extend_from_slice(&inputs[op as usize % inputs.len()].records_frame);
        // The barrier's seq names the op its result answers.
        sut::put_barrier(&mut conn.out, self.next_seq + op);
        conn.in_flight.push_back(InFlight { op, start });
    }

    fn service_conn(
        &mut self,
        index: usize,
        inputs: &[WireInput],
        samples: &mut Samples,
    ) -> Result<bool, String> {
        let conn = &mut self.conns[index];
        let mut progressed = conn.flush()?;
        progressed |= conn.fill(&mut self.buf)?;
        while let Some(reply) = conn.reader.next_reply()? {
            let done = Instant::now();
            match reply {
                Reply::Backoff => samples.backoffs += 1,
                Reply::Result { seq, outcome } => {
                    let Some(sent) = conn.in_flight.pop_front() else {
                        return Err(format!("result {seq} with no op in flight"));
                    };
                    if seq != self.next_seq + sent.op {
                        return Err(format!("result {seq} answers op {}", sent.op));
                    }
                    let expected = &inputs[sent.op as usize % inputs.len()].expected;
                    match outcome {
                        Ok(tokens) if tokens == *expected => samples.ops.push(OpSample {
                            op: sent.op,
                            start_ns: samples.since_origin(sent.start),
                            end_ns: samples.since_origin(done),
                        }),
                        Ok(_) => samples.fail(1, format!("op {} returned a wrong result", sent.op)),
                        Err(detail) => samples.fail(1, format!("op {} failed: {detail}", sent.op)),
                    }
                }
                Reply::Hello | Reply::Bye | Reply::Unexpected => {
                    return Err("out-of-protocol frame from the server".to_string());
                }
            }
        }
        Ok(progressed)
    }

    /// Sends `Bye` on every connection and waits for the acks.
    pub fn close(mut self) -> Result<(), String> {
        for conn in &mut self.conns {
            sut::put_bye(&mut conn.out);
        }
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut acked = vec![false; self.conns.len()];
        while acked.contains(&false) {
            if Instant::now() > deadline {
                return Err("Bye unanswered".to_string());
            }
            for (conn, acked) in self.conns.iter_mut().zip(&mut acked) {
                if *acked {
                    continue;
                }
                conn.flush()?;
                // The server closes right after its `Bye`, so the read
                // that delivers the ack may also report the close.
                let closed = conn.fill(&mut self.buf).is_err();
                while let Some(reply) = conn.reader.next_reply()? {
                    *acked |= matches!(reply, Reply::Bye);
                }
                if closed && !*acked {
                    return Err("connection closed without a Bye".to_string());
                }
            }
            std::thread::sleep(IDLE_SLEEP);
        }
        Ok(())
    }
}

/// `figure2-sessions`: rounds of submit-all / wait-all over every
/// session; one op is one `submit` → `wait`, compared with the
/// simulator's counts after its completion time is taken.
pub fn run_sessions(sessions: &Fig2Sessions, reference: &RunCounts, stop: Stop) -> Samples {
    let mut samples = Samples::starting_now();
    while samples.may_issue(stop, Instant::now()) {
        let mut round = Vec::with_capacity(sessions.len());
        for index in 0..sessions.len() {
            let start = Instant::now();
            let op = samples.attempted;
            samples.attempted += 1;
            match sessions.submit(index) {
                Ok(request) => round.push((index, op, start, request)),
                Err(why) => samples.fail(1, format!("submit refused: {why}")),
            }
        }
        for (index, op, start, request) in round {
            let outcome = sessions.wait(index, request);
            let done = Instant::now();
            match outcome {
                Ok(counts) if counts.same_work(reference) => samples.ops.push(OpSample {
                    op,
                    start_ns: samples.since_origin(start),
                    end_ns: samples.since_origin(done),
                }),
                Ok(_) => samples.fail(1, format!("op {op}: counts differ from the simulator's")),
                Err(why) => samples.fail(1, format!("op {op} failed: {why}")),
            }
        }
    }
    samples
}

/// `figure2-checkpoint`: one thread; one op is one cut-and-restored
/// run, which must do the work of the uncut run.
pub fn run_checkpoint(sut: &CheckpointSut, reference: &RunCounts, stop: Stop) -> Samples {
    let mut samples = Samples::starting_now();
    while samples.may_issue(stop, Instant::now()) {
        let op = samples.attempted;
        samples.attempted += 1;
        let start = Instant::now();
        let outcome = sut.cut_and_restore();
        let done = Instant::now();
        match outcome {
            Ok((counts, cut)) if counts.same_work(reference) => {
                samples.ops.push(OpSample {
                    op,
                    start_ns: samples.since_origin(start),
                    end_ns: samples.since_origin(done),
                });
                samples.cuts.push(cut);
            }
            Ok(_) => samples.fail(
                1,
                format!("op {op}: restored run differs from the uncut run"),
            ),
            Err(why) => samples.fail(1, format!("op {op} failed: {why}")),
        }
    }
    samples
}
