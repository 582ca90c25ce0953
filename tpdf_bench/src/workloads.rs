//! The five workloads, the timed run that yields the end-to-end
//! metrics and the traced run that yields the per-layer ones.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::load::{self, Pacing, Samples, Stop, WireClient};
use crate::stats::{self, mean_u64, median_f64, OpSample};
use crate::sut::{
    self, BareExecutor, CheckpointSut, DirectSession, Fig2Executor, Fig2Sessions, RunCounts,
    StackCounts, WireSut, WireWorkload,
};
use crate::trace::{write_chrome_trace, Span};

/// Offered rate of the paced workload: about a quarter of what two
/// serial connections sustain, so no backlog forms.
const PACED_OPS_PER_S: f64 = 400.0;
const EDGE_SIDE: usize = 128;
const SESSIONS: usize = 8;
const SESSIONS_P: i64 = 8;
const SESSIONS_ITERATIONS: u64 = 25;
const CHECKPOINT_P: i64 = 16;
const CHECKPOINT_CUT_AT: u64 = 8;
const CHECKPOINT_ITERATIONS: u64 = 16;
/// Rows of the traced run's replay: enough for stable medians, few
/// enough that the trace file stays a few MB.
const REPLAY_ROWS: usize = 5_000;

enum Kind {
    Wire {
        make: fn(u64) -> WireWorkload,
        pacing: Pacing,
    },
    Sessions,
    Checkpoint,
}

pub struct Workload {
    pub name: &'static str,
    /// Why it is in the suite (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ofdm-wire-paced",
        why: "open loop at 400 ops/s of small OFDM frames over 2 connections: latency is the server's sweep/sleep loop, not compute",
        kind: Kind::Wire {
            make: sut::ofdm_workload,
            pacing: Pacing::Open {
                ops_per_s: PACED_OPS_PER_S,
            },
        },
    },
    Workload {
        name: "ofdm-wire-saturate",
        why: "closed loop, 2 connections x 2 small OFDM ops in flight: per-frame cost (codec, syscalls, feed, dispatch) and how often the sweep still finds nothing and sleeps",
        kind: Kind::Wire {
            make: sut::ofdm_workload,
            pacing: Pacing::Closed { in_flight: 2 },
        },
    },
    Workload {
        name: "edge-wire-bulk",
        why: "closed loop, 2 connections x 1 in flight, a 64 KiB image each way through Fig. 6: per-byte codec and the four detector kernels dominate",
        kind: Kind::Wire {
            make: |seed| sut::edge_workload(seed, EDGE_SIDE),
            pacing: Pacing::Closed { in_flight: 1 },
        },
    },
    Workload {
        name: "figure2-sessions",
        why: "in process, 8 rate-only Figure 2 sessions on one service: no sockets, no kernels, only claim/fire/publish, rings, barrier and dispatch",
        kind: Kind::Sessions,
    },
    Workload {
        name: "figure2-checkpoint",
        why: "in process, 1 thread, Figure 2 cut once through the checkpoint codec per op: the state layer, which figure2-sessions bypasses",
        kind: Kind::Checkpoint,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long and how often a run does each of its parts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Length of one measured window.
    pub measure: Duration,
    pub warmup_ops: u64,
}

impl Plan {
    pub fn full(window_seconds: f64) -> Plan {
        Plan {
            measure: Duration::from_secs_f64(window_seconds),
            warmup_ops: 200,
        }
    }

    /// At most a second per workload: for the self-tests.
    pub fn smoke() -> Plan {
        Plan {
            measure: Duration::from_millis(400),
            warmup_ops: 16,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// What a run reports: `metrics` are the contract's (end-to-end or
/// per-layer), `info` is printed but never gated.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub error: Option<String>,
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn broken(why: String) -> Outcome {
        Outcome {
            attempted: 1,
            failed: 1,
            error: Some(why),
            ..Outcome::default()
        }
    }

    fn absorb(&mut self, samples: &Samples) {
        self.attempted += samples.attempted;
        self.failed += samples.failed;
        if self.error.is_none() {
            self.error.clone_from(&samples.error);
        }
    }
}

/// The seeded inputs and references of a workload, made before any
/// clock starts.
enum Inputs {
    Wire(Box<WireWorkload>),
    Figure2(RunCounts),
}

/// A system under test, set up and ready for ops.
enum Rig {
    Wire { sut: WireSut, client: WireClient },
    Sessions(Fig2Sessions),
    Checkpoint(CheckpointSut),
}

impl Workload {
    fn inputs(&self, seed: u64) -> Result<Inputs, String> {
        Ok(match self.kind {
            Kind::Wire { make, .. } => Inputs::Wire(Box::new(make(seed))),
            Kind::Sessions => {
                Inputs::Figure2(sut::fig2_reference(SESSIONS_P, SESSIONS_ITERATIONS)?)
            }
            Kind::Checkpoint => {
                Inputs::Figure2(sut::fig2_reference(CHECKPOINT_P, CHECKPOINT_ITERATIONS)?)
            }
        })
    }

    /// Bind, connect and `Hello` — or open the sessions, or build the
    /// executors: everything `setup_s` covers except the warm-up.
    fn setup(&self, inputs: &Inputs) -> Result<Rig, String> {
        Ok(match (&self.kind, inputs) {
            (Kind::Wire { .. }, Inputs::Wire(workload)) => {
                let sut = WireSut::start(workload).map_err(|e| format!("bind: {e}"))?;
                let client = WireClient::connect(sut.addr(), 2)?;
                Rig::Wire { sut, client }
            }
            (Kind::Sessions, _) => Rig::Sessions(Fig2Sessions::open(
                SESSIONS,
                SESSIONS_P,
                SESSIONS_ITERATIONS,
            )?),
            (Kind::Checkpoint, Inputs::Figure2(reference)) => {
                let sut =
                    CheckpointSut::new(CHECKPOINT_P, CHECKPOINT_CUT_AT, CHECKPOINT_ITERATIONS)?;
                // Ops are compared with the simulator's counts; the
                // uncut run they must equal is compared here, once.
                if !sut.uncut()?.same_work(reference) {
                    return Err("the uncut run differs from the simulator".to_string());
                }
                Rig::Checkpoint(sut)
            }
            _ => unreachable!("inputs come from self.inputs"),
        })
    }

    fn drive(&self, rig: &mut Rig, inputs: &Inputs, stop: Stop, seed: u64) -> Samples {
        match (rig, inputs, &self.kind) {
            (Rig::Wire { client, .. }, Inputs::Wire(workload), Kind::Wire { pacing, .. }) => {
                client.run(&workload.inputs, *pacing, stop, seed)
            }
            (Rig::Sessions(sessions), Inputs::Figure2(reference), _) => {
                load::run_sessions(sessions, reference, stop)
            }
            (Rig::Checkpoint(sut), Inputs::Figure2(reference), _) => {
                load::run_checkpoint(sut, reference, stop)
            }
            _ => unreachable!("rig and inputs come from the same workload"),
        }
    }

    /// Set-up and warm-up; returns the ready rig and how long it took.
    fn ready(&self, inputs: &Inputs, plan: &Plan, seed: u64) -> Result<(Rig, Duration), String> {
        let start = Instant::now();
        let mut rig = self.setup(inputs)?;
        let warmup = self.drive(&mut rig, inputs, Stop::Ops(plan.warmup_ops), seed);
        if warmup.failed > 0 {
            return Err(format!(
                "warm-up: {}",
                warmup.error.unwrap_or_else(|| "an op failed".to_string())
            ));
        }
        Ok((rig, start.elapsed()))
    }

    fn tokens_per_op(&self, inputs: &Inputs) -> f64 {
        match inputs {
            Inputs::Wire(workload) => {
                (workload.inputs[0].tokens.len() + workload.inputs[0].expected.len()) as f64
            }
            Inputs::Figure2(reference) => reference.total_tokens() as f64,
        }
    }
}

impl Rig {
    fn counts(&self) -> StackCounts {
        match self {
            Rig::Wire { sut, .. } => sut.counts(),
            Rig::Sessions(sessions) => StackCounts {
                requests_rejected: sessions.requests_rejected(),
                ..StackCounts::default()
            },
            Rig::Checkpoint(_) => StackCounts::default(),
        }
    }

    fn teardown(self) -> Result<(), String> {
        if let Rig::Wire { sut, client } = self {
            let closed = client.close();
            sut.stop();
            closed?;
        }
        Ok(())
    }
}

/// VmHWM of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One window of the timed run (tracing off): one set-up, one warm-up
/// and `plan.measure` of load in this process. Yields the end-to-end
/// metrics of this window; a run is [`crate::WINDOWS`] of these, each
/// in a fresh process.
pub fn run_window(workload: &Workload, seed: u64, window: u64, plan: &Plan) -> Outcome {
    match timed_window(workload, seed, window, plan) {
        Ok(outcome) => outcome,
        Err(why) => Outcome::broken(why),
    }
}

fn timed_window(
    workload: &Workload,
    seed: u64,
    window: u64,
    plan: &Plan,
) -> Result<Outcome, String> {
    // Every window gets the run's inputs and its own arrival schedule.
    let inputs = workload.inputs(seed)?;
    let mut schedule_seed = seed.wrapping_add(window);
    let schedule_seed = sut::splitmix(&mut schedule_seed);
    let (mut rig, setup) = workload.ready(&inputs, plan, seed)?;
    let samples = workload.drive(&mut rig, &inputs, Stop::After(plan.measure), schedule_seed);
    rig.teardown()?;

    // Wall time runs to the last completion: the drain after the
    // window belongs to the ops it completes.
    let wall_ns = samples.ops.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let latency = stats::summarize(&samples.ops);
    let mut outcome = Outcome::default();
    outcome.absorb(&samples);
    outcome.metrics = vec![
        metric("setup_s", setup.as_secs_f64(), "s"),
        metric(
            "throughput_rps",
            samples.ops.len() as f64 / (wall_ns as f64 / 1e9),
            "1/s",
        ),
        metric("latency_p50_us", latency.p50 / 1e3, "us"),
    ];
    let mut lateness = samples.lateness_ns;
    lateness.sort_unstable();
    outcome.info = vec![
        metric("latency_p99_us", latency.p99 / 1e3, "us"),
        metric("latency_p999_us", latency.p999 / 1e3, "us"),
        metric("latency_max_us", latency.max / 1e3, "us"),
        metric("window_ops", samples.ops.len() as f64, "count"),
        metric(
            "failed_share",
            samples.failed as f64 / samples.attempted.max(1) as f64,
            "ratio",
        ),
        metric(
            "gen_lateness_p99_us",
            if lateness.is_empty() {
                0.0
            } else {
                stats::percentile(&lateness, 0.99) / 1e3
            },
            "us",
        ),
        metric("backoffs", samples.backoffs as f64, "count"),
        metric("tokens_per_op", workload.tokens_per_op(&inputs), "count"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    Ok(outcome)
}

/// One replayed op: its time at each depth, in ns. Depth 0 is the op
/// over the wire, depth 1 the same op through the service in process,
/// depth 2 bare `Executor::run`, depth 3 the graph-free reference.
struct Row {
    /// The outermost span: depth 0 on a wire workload, else depth 1.
    outer_ns: u64,
    executor_ns: u64,
    work: RunCounts,
    /// What only a wire workload has.
    wire: Option<WireRow>,
    /// What only `figure2-checkpoint` has.
    cut: Option<sut::CutTimes>,
}

struct WireRow {
    service_ns: u64,
    reference_ns: u64,
    codec: sut::CodecTimes,
    feed_push_ns: u64,
    feed_pop_ns: u64,
}

/// Records spans against the traced run's origin.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Times `call` as a span of `op` and returns its value with the
    /// ns it took.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = call();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent: Some(parent),
            op,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (value, (end - start).as_nanos() as u64)
    }
}

const D0: &str = "d0.wire_op";
const D1: &str = "d1.service_op";
const D2: &str = "d2.executor_run";
const D3: &str = "d3.reference";

/// The inner depths of a workload, replayed one op at a time.
enum Replayer<'a> {
    Wire {
        wire: &'a WireWorkload,
        direct: DirectSession,
        bare: BareExecutor,
    },
    Figure2 {
        executor: Fig2Executor,
        reference: &'a RunCounts,
    },
}

impl Replayer<'_> {
    fn replay(&self, sample: &OpSample, spans: &mut Spans) -> Result<Row, String> {
        let op = sample.op;
        match self {
            Replayer::Wire { wire, direct, bare } => {
                let input = &wire.inputs[op as usize % wire.inputs.len()];
                let (served, service_ns) = spans.time(D1, D0, op, || direct.run(input));
                let (ran, _) = spans.time(D2, D1, op, || bare.run(input));
                let (sunk, work, executor_ns) = ran?;
                let (referred, reference_ns) = spans.time(D3, D2, op, || input.run_reference());
                if [&served?, &sunk, &referred]
                    .iter()
                    .any(|out| **out != input.expected)
                {
                    return Err(format!("replay of op {op} returned a wrong result"));
                }
                let (feed_push_ns, feed_pop_ns) = sut::time_feed(input);
                Ok(Row {
                    outer_ns: sample.latency_ns(),
                    executor_ns,
                    work,
                    wire: Some(WireRow {
                        service_ns,
                        reference_ns,
                        codec: sut::time_codec(input, op),
                        feed_push_ns,
                        feed_pop_ns,
                    }),
                    cut: None,
                })
            }
            Replayer::Figure2 {
                executor,
                reference,
            } => {
                let (ran, executor_ns) = spans.time(D2, D1, op, || executor.run());
                let work = ran?;
                if !work.same_work(reference) {
                    return Err(format!("bare run of op {op} differs from the simulator"));
                }
                Ok(Row {
                    outer_ns: sample.latency_ns(),
                    executor_ns,
                    work,
                    wire: None,
                    cut: None,
                })
            }
        }
    }
}

/// What a layer the workload bypasses reads: the mean duration of an
/// empty span, i.e. zero within the clock's own cost.
fn clock_floor_ns(rows: usize) -> f64 {
    let pairs: Vec<u64> = (0..rows.max(1))
        .map(|_| std::hint::black_box(Instant::now()).elapsed().as_nanos() as u64)
        .collect();
    mean_u64(&pairs)
}

/// The traced run: separate from the timed one; yields the per-layer
/// metrics and writes the spans to `trace_path`.
pub fn run_traced(workload: &Workload, seed: u64, plan: &Plan, trace_path: &Path) -> Outcome {
    match traced(workload, seed, plan, trace_path) {
        Ok(outcome) => outcome,
        Err(why) => Outcome::broken(why),
    }
}

fn traced(
    workload: &Workload,
    seed: u64,
    plan: &Plan,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let inputs = workload.inputs(seed)?;

    // Half of the time: the workload's own load. The generator's
    // samples are the outermost spans.
    let (mut rig, _) = workload.ready(&inputs, plan, seed)?;
    let before = rig.counts();
    let outer = workload.drive(&mut rig, &inputs, Stop::After(plan.measure / 2), seed);
    let counts = rig.counts().since(before);
    let rig_compile_ns = match &rig {
        Rig::Sessions(sessions) => sessions.compile_ns,
        Rig::Checkpoint(sut) => sut.compile_ns(),
        Rig::Wire { .. } => 0,
    };
    rig.teardown()?;
    let mut outcome = Outcome::default();
    outcome.absorb(&outer);

    // The other half: the same ops replayed one at a time at each
    // inner depth, every result checked against its reference again.
    let (replayer, outer_name, compile_ns) = match (&workload.kind, &inputs) {
        (Kind::Wire { .. }, Inputs::Wire(wire)) => {
            let direct = DirectSession::open(wire)?;
            let compile_ns = direct.compile_ns;
            let bare = BareExecutor::new(wire)?;
            (Replayer::Wire { wire, direct, bare }, D0, compile_ns)
        }
        (kind, Inputs::Figure2(reference)) => {
            let executor = match kind {
                Kind::Checkpoint => Fig2Executor::new(CHECKPOINT_P, CHECKPOINT_ITERATIONS)?,
                _ => Fig2Executor::new(SESSIONS_P, SESSIONS_ITERATIONS)?,
            };
            (
                Replayer::Figure2 {
                    executor,
                    reference,
                },
                D1,
                rig_compile_ns,
            )
        }
        _ => unreachable!("inputs come from the same workload"),
    };
    let outer_shift = (outer.origin - spans.origin).as_nanos() as u64;
    let deadline = Instant::now() + plan.measure / 2;
    let mut rows = Vec::new();
    let mut replay_failed = 0u64;
    for (index, sample) in outer.ops.iter().take(REPLAY_ROWS).enumerate() {
        if Instant::now() > deadline {
            break;
        }
        spans.spans.push(Span {
            name: outer_name,
            parent: None,
            op: sample.op,
            start_ns: sample.start_ns + outer_shift,
            end_ns: sample.end_ns + outer_shift,
        });
        match replayer.replay(sample, &mut spans) {
            Ok(mut row) => {
                row.cut = outer.cuts.get(index).copied();
                rows.push(row);
            }
            Err(why) => {
                replay_failed += 1;
                outcome.error.get_or_insert(why);
            }
        }
    }
    outcome.attempted += rows.len() as u64 + replay_failed;
    outcome.failed += replay_failed;
    if rows.is_empty() {
        return Err(outcome
            .error
            .unwrap_or_else(|| "the traced run completed no op".to_string()));
    }
    write_chrome_trace(trace_path, &spans.spans).map_err(|e| format!("trace file: {e}"))?;

    outcome.metrics = layer_metrics(&rows, counts, compile_ns, outer.ops.len());
    outcome.info = vec![
        metric("trace.replayed_ops", rows.len() as f64, "count"),
        metric("trace.spans", spans.spans.len() as f64, "count"),
    ];
    outcome.info.extend(decomposition_check(&rows));
    Ok(outcome)
}

/// Median over the rows that have the value; `None` marks a layer the
/// workload bypasses.
fn median_of(rows: &[Row], value: impl Fn(&Row) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = rows.iter().filter_map(value).collect();
    (!values.is_empty()).then(|| median_f64(&values))
}

/// The self times of the layers on an op's path, in ns: per op a span
/// minus its child's, then the median over ops.
struct SelfTimes {
    wire: Option<f64>,
    codec: Option<f64>,
    dispatch: Option<f64>,
    capture_restore: Option<f64>,
    cut_encode: Option<f64>,
    cut_decode: Option<f64>,
    executor: f64,
    outer: f64,
}

impl SelfTimes {
    fn of(rows: &[Row]) -> SelfTimes {
        let codec_ns = |c: &sut::CodecTimes| (c.encode_ns + c.decode_ns) as f64;
        let cut = |f: fn(&sut::CutTimes) -> u64| {
            median_of(rows, |row| row.cut.as_ref().map(|c| f(c) as f64))
        };
        SelfTimes {
            wire: median_of(rows, |row| {
                let wire = row.wire.as_ref()?;
                Some(row.outer_ns as f64 - wire.service_ns as f64 - codec_ns(&wire.codec))
            }),
            codec: median_of(rows, |row| Some(codec_ns(&row.wire.as_ref()?.codec))),
            dispatch: median_of(rows, |row| match (&row.wire, &row.cut) {
                (Some(wire), _) => Some(wire.service_ns as f64 - row.executor_ns as f64),
                (None, None) => Some(row.outer_ns as f64 - row.executor_ns as f64),
                // A cut-and-restored op never meets the service.
                (None, Some(_)) => None,
            }),
            capture_restore: median_of(rows, |row| {
                let cut = row.cut.as_ref()?;
                Some(
                    (cut.run_checkpointed_ns + cut.run_restored_ns) as f64 - row.executor_ns as f64,
                )
            }),
            cut_encode: cut(|c| c.encode_ns),
            cut_decode: cut(|c| c.decode_ns),
            executor: median_of(rows, |row| Some(row.executor_ns as f64)).unwrap_or(f64::NAN),
            outer: median_of(rows, |row| Some(row.outer_ns as f64)).unwrap_or(f64::NAN),
        }
    }
}

/// The check on the decomposition: the layers' self times must add up
/// to the outermost span within a tenth.
fn decomposition_check(rows: &[Row]) -> Vec<Metric> {
    let t = SelfTimes::of(rows);
    let layers = [
        t.wire,
        t.codec,
        t.dispatch,
        t.capture_restore,
        t.cut_encode,
        t.cut_decode,
        Some(t.executor),
    ];
    let ratio = layers.iter().flatten().sum::<f64>() / t.outer;
    vec![
        metric("trace.self_time_sum_ratio", ratio, "ratio"),
        metric(
            "trace.self_time_sum_within_10pct",
            f64::from((ratio - 1.0).abs() <= 0.10),
            "bool",
        ),
    ]
}

/// Every per-layer metric of `BENCHMARK.json`, in its order.
fn layer_metrics(
    rows: &[Row],
    counts: StackCounts,
    compile_ns: u64,
    outer_ops: usize,
) -> Vec<Metric> {
    let t = SelfTimes::of(rows);
    // A bypassed layer reads the clock floor: zero within the cost of
    // an empty span, yet a number as measured.
    let floor_ns = clock_floor_ns(rows.len());
    let ns = |layer: Option<f64>| layer.unwrap_or(floor_ns);
    let us = |layer: Option<f64>| layer.unwrap_or(floor_ns) / 1e3;
    let wire = |f: fn(&WireRow) -> f64| median_of(rows, |row| row.wire.as_ref().map(f));
    let ops = outer_ops.max(1) as f64;
    let last = &rows[rows.len() - 1].work;
    let arena_hits: u64 = rows.iter().map(|r| r.work.arena_hits).sum();
    let arena_misses: u64 = rows.iter().map(|r| r.work.arena_misses).sum();
    vec![
        metric("net.server.wire_overhead_us", us(t.wire), "us"),
        metric(
            "net.frame.encode_ns_per_frame",
            ns(wire(|w| w.codec.encode_ns as f64 / w.codec.frames as f64)),
            "ns",
        ),
        metric(
            "net.frame.decode_ns_per_frame",
            ns(wire(|w| w.codec.decode_ns as f64 / w.codec.frames as f64)),
            "ns",
        ),
        metric(
            "net.frame.encode_ns_per_byte",
            ns(wire(|w| w.codec.encode_ns as f64 / w.codec.bytes as f64)),
            "ns",
        ),
        metric(
            "net.frame.decode_ns_per_byte",
            ns(wire(|w| w.codec.decode_ns as f64 / w.codec.bytes as f64)),
            "ns",
        ),
        metric(
            "net.feed.push_ns",
            ns(wire(|w| w.feed_push_ns as f64)),
            "ns",
        ),
        metric("net.feed.pop_ns", ns(wire(|w| w.feed_pop_ns as f64)), "ns"),
        metric("net.frames_per_op", counts.frames as f64 / ops, "count"),
        metric("net.bytes_per_op", counts.bytes as f64 / ops, "B"),
        metric("net.backoffs_per_op", counts.backoffs as f64 / ops, "count"),
        metric(
            "net.protocol_errors",
            counts.protocol_errors as f64,
            "count",
        ),
        metric("service.dispatch_us", us(t.dispatch), "us"),
        metric(
            "service.requests_rejected_per_op",
            counts.requests_rejected as f64 / ops,
            "count",
        ),
        metric("runtime.executor.run_us", t.executor / 1e3, "us"),
        metric(
            "runtime.executor.firings_per_op",
            last.total_firings() as f64,
            "count",
        ),
        metric(
            "runtime.executor.tokens_per_op",
            last.total_tokens() as f64,
            "count",
        ),
        metric(
            "runtime.executor.arena_hit_rate",
            arena_hits as f64 / (arena_hits + arena_misses).max(1) as f64,
            "ratio",
        ),
        metric(
            "runtime.checkpoint.capture_restore_us",
            us(t.capture_restore),
            "us",
        ),
        metric("runtime.checkpoint.encode_us", us(t.cut_encode), "us"),
        metric("runtime.checkpoint.decode_us", us(t.cut_decode), "us"),
        metric(
            "runtime.checkpoint.bytes_per_cut",
            median_of(rows, |row| Some(row.cut.as_ref()?.checkpoint_bytes as f64)).unwrap_or(0.0),
            "B",
        ),
        metric("apps.kernel_us", us(wire(|w| w.reference_ns as f64)), "us"),
        metric("core.compile_us", compile_ns as f64 / 1e3, "us"),
        metric("trace.outer_op_p50_us", t.outer / 1e3, "us"),
    ]
}
