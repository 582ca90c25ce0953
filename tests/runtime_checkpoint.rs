//! Differential crash/restart harness for barrier-consistent
//! checkpointing.
//!
//! Every case runs twice: once uninterrupted for `total` iterations,
//! and once **split at an iteration barrier k** — run the prefix,
//! capture a [`Checkpoint`], push it through the binary codec (the
//! crash writes bytes, the restart reads them), tear the engine down,
//! and resume the remaining iterations from the decoded bytes. The
//! resumed run must produce **byte-identical sink token streams, mode
//! sequences and firing counts** to the run that never stopped — on a
//! one-call executor, on a fresh [`ExecutorPool`], on the *same* pool
//! that took the checkpoint, and across thread counts (the checkpoint
//! stores no schedule, only the Kahn state, so any schedule may finish
//! the run).
//!
//! All four case studies go through the harness: edge detection, OFDM
//! with data-dependent control, the FM radio, and Figure 2 with
//! mid-run rebinding (randomized binding sequences and value tables
//! via the deterministic proptest stub — the barrier index sweeps
//! every k in `1..total`). A Block-payload pipeline additionally
//! proves refcounted byte slices re-inline through the codec.
//!
//! Satellites verified here: captured-but-untaken sink tokens survive
//! the teardown ([`OutputCapture`] state rides in
//! [`Checkpoint::captured`]); random checkpoints round-trip through
//! the codec and single-byte corruption or truncation at any offset
//! is a structured [`CheckpointError`], never a panic; a bumped
//! version byte and an unknown trailing field are rejected by name;
//! and the committed v1 golden fixture still decodes and restores.
//!
//! CI matrix knob (same vocabulary as `runtime_vs_sim_prop`):
//! `TPDF_TEST_THREADS` (default `1,4`).

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;
use tpdf_suite::apps::edge_detection::EdgeDetectionApp;
use tpdf_suite::apps::fm_radio::FmRadioConfig;
use tpdf_suite::apps::image::GrayImage;
use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::core::control::{FnSelector, ModeSelector, TableTrace};
use tpdf_suite::core::examples::{figure2_graph, figure4a_graph};
use tpdf_suite::core::graph::TpdfGraph;
use tpdf_suite::core::mode::Mode;
use tpdf_suite::runtime::checkpoint::{checksum, VERSION};
use tpdf_suite::runtime::codec::DecodeError;
use tpdf_suite::runtime::kernel::KernelRegistry;
use tpdf_suite::runtime::{
    ChannelCheckpoint, ChannelContents, Checkpoint, CheckpointError, CompiledExecutor,
    EdgeDetectionRuntime, Executor, ExecutorPool, FmRadioRuntime, Metrics, OfdmRuntime,
    OutputCapture, PayloadEncoding, PayloadRuntime, RunOutcome, RunRequest, RuntimeConfig,
    RuntimeError, Token, TokenBytes,
};
use tpdf_suite::sim::engine::ControlPolicy;
use tpdf_suite::symexpr::Binding;

/// Worker counts to exercise on restore, from `TPDF_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    match std::env::var("TPDF_TEST_THREADS") {
        Ok(spec) => {
            let counts: Vec<usize> = spec
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            assert!(
                !counts.is_empty(),
                "TPDF_TEST_THREADS={spec:?} contains no usable thread count"
            );
            counts
        }
        Err(_) => vec![1, 4],
    }
}

/// The observable results a resumed run must reproduce exactly.
/// Rebinds are compared by `(iteration, binding, counts)`: the
/// capacities recorded at a growth barrier may legitimately differ
/// between a split and an unsplit run (restore sizes rings as the max
/// of plan and checkpoint capacity), and capacities never influence
/// token streams — that invariance is what makes restore safe at all.
fn assert_resumed_matches(resumed: &Metrics, full: &Metrics, context: &str) {
    assert_eq!(resumed.iterations, full.iterations, "iterations {context}");
    assert_eq!(resumed.firings, full.firings, "firing counts {context}");
    assert_eq!(
        resumed.mode_sequences, full.mode_sequences,
        "mode sequences {context}"
    );
    assert_eq!(
        resumed.tokens_pushed, full.tokens_pushed,
        "per-channel token counts {context}"
    );
    let rebind_key = |m: &Metrics| {
        m.rebinds
            .iter()
            .map(|r| (r.iteration, r.binding.clone(), r.counts.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(rebind_key(resumed), rebind_key(full), "rebinds {context}");
}

/// One blocking run on `pool`: the request, submitted and waited.
fn submit_and_wait(
    pool: &ExecutorPool,
    compiled: &CompiledExecutor,
    registry: &KernelRegistry,
    resume: Option<&Checkpoint>,
    checkpoint_at_end: bool,
) -> Result<RunOutcome, RuntimeError> {
    let request = RunRequest {
        resume,
        checkpoint_at_end,
    };
    pool.submit(compiled, registry, request, None).wait()
}

/// The harness core: runs `graph` uninterrupted for `total`
/// iterations, then for **every** barrier k in `1..total` crashes at
/// k, round-trips the checkpoint through the byte codec, and restores
/// under every thread count — on a one-call
/// executor, on a fresh pool with a different worker count, and (at
/// the middle barrier) on the same pool that took the checkpoint.
/// `build_registry` must wire a fresh registry + sink capture per
/// call.
fn assert_crash_restart_equivalence(
    graph: &TpdfGraph,
    config: &RuntimeConfig,
    total: u64,
    build_registry: &dyn Fn() -> (KernelRegistry, OutputCapture),
    sink: &str,
) {
    let (registry, capture) = build_registry();
    let full = Executor::new(graph, config.clone().with_iterations(total).with_threads(1))
        .expect("uninterrupted executor")
        .run(&registry)
        .expect("uninterrupted run");
    let expected = capture.take_tokens();
    assert!(
        !expected.is_empty(),
        "{sink}: the uninterrupted run produced no sink tokens — every \
         byte-identity comparison below would be vacuous"
    );

    for k in 1..total {
        // Crash at barrier k: run the prefix, checkpoint, tear down.
        // The captured-but-untaken sink tokens ride in the checkpoint —
        // without them a restart would silently lose output.
        let (registry, capture) = build_registry();
        let prefix = Executor::new(graph, config.clone().with_iterations(k).with_threads(1))
            .expect("prefix executor");
        let (_, mut checkpoint) = prefix.run_checkpointed(&registry).expect("prefix run");
        checkpoint.captured = capture.snapshot_tokens();
        assert_eq!(checkpoint.iteration, k);

        // A crash writes bytes and a restart reads them: the live
        // checkpoint must survive its own codec byte-exactly.
        let decoded = Checkpoint::decode(&checkpoint.encode())
            .unwrap_or_else(|e| panic!("{sink}: live checkpoint at barrier {k} decodes: {e}"));
        assert_eq!(
            decoded, checkpoint,
            "{sink}: codec round-trip at barrier {k}"
        );

        for &threads in &thread_counts() {
            let context = format!("for {sink} after restart at barrier {k} ({threads} threads)");
            let (registry, capture) = build_registry();
            capture.restore_tokens(decoded.captured.clone());
            let resumed = Executor::new(
                graph,
                config.clone().with_iterations(total).with_threads(threads),
            )
            .expect("restore executor")
            .run_restored(&registry, &decoded)
            .unwrap_or_else(|e| panic!("restored run {context}: {e}"));
            assert_resumed_matches(&resumed, &full, &context);
            assert_eq!(
                capture.take_tokens(),
                expected,
                "sink stream diverges {context}"
            );
        }

        // A fresh pool with its own worker count — the migration
        // target — resumes the same bytes.
        let context = format!("for {sink} on a fresh pool after barrier {k}");
        let pool = ExecutorPool::new(3);
        let compiled = Executor::new(graph, config.clone().with_iterations(total).with_threads(3))
            .expect("pool executor")
            .compile();
        let (registry, capture) = build_registry();
        capture.restore_tokens(decoded.captured.clone());
        let resumed = submit_and_wait(&pool, &compiled, &registry, Some(&decoded), false)
            .unwrap_or_else(|e| panic!("pooled restore {context}: {e}"))
            .metrics;
        assert_resumed_matches(&resumed, &full, &context);
        assert_eq!(
            capture.take_tokens(),
            expected,
            "sink stream diverges {context}"
        );
    }

    // The same pool takes the checkpoint *and* resumes it (the pool
    // survives the session's "crash"): split once at the middle
    // barrier.
    if total >= 2 {
        let k = (total / 2).max(1);
        let context = format!("for {sink} split at barrier {k} on one shared pool");
        let pool = ExecutorPool::new(2);
        let prefix = Executor::new(graph, config.clone().with_iterations(k).with_threads(2))
            .expect("pooled prefix executor")
            .compile();
        let (registry, capture) = build_registry();
        let mut checkpoint = submit_and_wait(&pool, &prefix, &registry, None, true)
            .unwrap_or_else(|e| panic!("pooled prefix {context}: {e}"))
            .checkpoint
            .expect("requested");
        checkpoint.captured = capture.snapshot_tokens();
        let compiled = Executor::new(graph, config.clone().with_iterations(total).with_threads(2))
            .expect("pooled restore executor")
            .compile();
        let (registry, capture) = build_registry();
        capture.restore_tokens(checkpoint.captured.clone());
        let resumed = submit_and_wait(&pool, &compiled, &registry, Some(&checkpoint), false)
            .unwrap_or_else(|e| panic!("same-pool restore {context}: {e}"))
            .metrics;
        assert_resumed_matches(&resumed, &full, &context);
        assert_eq!(
            capture.take_tokens(),
            expected,
            "sink stream diverges {context}"
        );
    }
}

#[test]
fn edge_detection_crash_restart_differential() {
    let port = EdgeDetectionRuntime::new(
        EdgeDetectionApp::default(),
        GrayImage::synthetic(24, 24, 11),
    );
    let graph = port.graph();
    // Alternate across detectors: the restored run must continue the
    // scripted cycle at the right offset (the checkpointed per-node
    // control-firing ordinals drive it).
    let config = RuntimeConfig::new(Binding::new()).with_policy(ControlPolicy::Alternate(vec![
        Mode::SelectOne(1),
        Mode::WaitAll,
        Mode::SelectOne(3),
    ]));
    assert_crash_restart_equivalence(&graph, &config, 3, &|| port.registry(None), "edge maps");
}

#[test]
fn ofdm_data_dependent_control_crash_restart_differential() {
    // CON computes the demap mode from the values SRC actually sends —
    // the restored run re-derives the same modes from the same stream.
    let port = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        91,
    );
    let graph = port.graph();
    let config = RuntimeConfig::new(port.config().binding())
        .with_mode_selector(port.mode_selector())
        .with_value_trace(port.value_trace());
    assert_crash_restart_equivalence(&graph, &config, 4, &|| port.registry(), "OFDM bits");
}

#[test]
fn fm_radio_crash_restart_differential() {
    let port = FmRadioRuntime::new(FmRadioConfig { bands: 3, block: 8 }, 17);
    let graph = port.graph();
    let binding = port.binding();
    // Band hopping: whole equalizer branches are rejected-and-flushed
    // each iteration, and the flush decisions must line up across the
    // split.
    let config = RuntimeConfig::new(binding).with_policy(ControlPolicy::Alternate(vec![
        Mode::SelectOne(0),
        Mode::SelectOne(2),
        Mode::SelectOne(1),
    ]));
    assert_crash_restart_equivalence(&graph, &config, 4, &|| port.registry(), "FM audio");
}

#[test]
fn payload_blocks_crash_restart_reinlines_slices() {
    // Block tokens are refcounted slices of shared backings; in the
    // checkpoint only the slice bytes travel. The restored stream must
    // still be byte-identical.
    let port = PayloadRuntime::new(4, 32, 7);
    let graph = port.graph(PayloadEncoding::Block);
    let config = RuntimeConfig::new(Binding::new());
    assert_crash_restart_equivalence(
        &graph,
        &config,
        3,
        &|| port.registry(PayloadEncoding::Block),
        "payload rows",
    );
}

/// The four [`RunRequest`] combinations (resume × checkpoint_at_end)
/// are the four kinds of segment a run can be cut into: whole, head,
/// middle, tail. Every chain of segments below ends at the same final
/// barrier and must leave the sink stream, mode sequences and firing
/// counts of the uninterrupted run, at 1 and at 4 threads; a
/// checkpoint comes back exactly when the request asked for one.
#[test]
fn every_run_request_combination_matches_the_uninterrupted_run() {
    const TOTAL: u64 = 4;
    let port = FmRadioRuntime::new(FmRadioConfig { bands: 3, block: 8 }, 29);
    let graph = port.graph();
    let config = RuntimeConfig::new(port.binding()).with_policy(ControlPolicy::Alternate(vec![
        Mode::SelectOne(2),
        Mode::SelectOne(0),
        Mode::SelectOne(1),
    ]));
    let (registry, capture) = port.registry();
    let full = Executor::new(&graph, config.clone().with_iterations(TOTAL))
        .expect("uninterrupted executor")
        .run(&registry)
        .expect("uninterrupted run");
    let expected = capture.take_tokens();
    assert!(!expected.is_empty());

    // Each chain lists the barrier every segment runs to: segment 0
    // starts fresh, later ones resume; all but the last one cut.
    let chains: [&[u64]; 3] = [&[TOTAL], &[2, TOTAL], &[1, 3, TOTAL]];
    for threads in [1usize, 4] {
        let pool = ExecutorPool::new(threads);
        for chain in chains {
            let context = format!("for segments {chain:?} at {threads} threads");
            let (registry, capture) = port.registry();
            let mut checkpoint: Option<Checkpoint> = None;
            let mut last = None;
            for (i, &barrier) in chain.iter().enumerate() {
                let cut = i + 1 < chain.len();
                let segment = config
                    .clone()
                    .with_iterations(barrier)
                    .with_threads(threads);
                let compiled = Executor::new(&graph, segment)
                    .expect("segment executor")
                    .compile();
                let outcome =
                    submit_and_wait(&pool, &compiled, &registry, checkpoint.as_ref(), cut)
                        .unwrap_or_else(|e| panic!("segment to barrier {barrier} {context}: {e}"));
                assert_eq!(outcome.metrics.iterations, barrier, "{context}");
                assert_eq!(
                    outcome.checkpoint.as_ref().map(|c| c.iteration),
                    cut.then_some(barrier),
                    "a checkpoint comes back iff requested {context}"
                );
                checkpoint = outcome.checkpoint;
                last = Some(outcome.metrics);
            }
            assert_resumed_matches(&last.expect("chains are non-empty"), &full, &context);
            assert_eq!(
                capture.take_tokens(),
                expected,
                "sink stream diverges {context}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Figure 2 with randomized binding sequences, value tables and a
    /// data-dependent selector — the harness sweeps every barrier k of
    /// the randomized iteration count, covering splits before, at and
    /// after rebinding boundaries (ring growth, count re-derivation
    /// and plan switches all interact with restore).
    #[test]
    fn figure2_rebinding_crash_restart_randomized(
        ps in proptest::collection::vec(1i64..5, 1..4),
        table in proptest::collection::vec(0i64..7, 1..6),
        total in 2u64..5,
    ) {
        let graph = figure2_graph();
        let sequence: Vec<Binding> = ps
            .iter()
            .map(|&p| Binding::from_pairs([("p", p)]))
            .collect();
        let selector: Arc<dyn ModeSelector> = Arc::new(FnSelector::new(
            "checkpoint-figure2",
            |_, inputs: &[i64]| match inputs.iter().sum::<i64>().rem_euclid(3) {
                0 => Mode::WaitAll,
                1 => Mode::SelectOne(0),
                _ => Mode::SelectOne(1),
            },
        ));
        let trace = TableTrace::new([("e2".to_string(), table.clone())]).shared();
        let config = RuntimeConfig::new(Binding::from_pairs([("p", ps[0])]))
            .with_binding_sequence(sequence)
            .with_mode_selector(selector)
            .with_value_trace(trace);
        let build_registry = move || {
            let mut registry = KernelRegistry::new();
            let values = table.clone();
            registry.register_fn("B", move |ctx| {
                let v = values[(ctx.ordinal as usize) % values.len()];
                ctx.fill_outputs_cycling(&[tpdf_suite::runtime::Token::Int(v)]);
                Ok(())
            });
            let capture = OutputCapture::new();
            capture.install(&mut registry, "F");
            (registry, capture)
        };
        assert_crash_restart_equivalence(&graph, &config, total, &build_registry, "F");
    }

    /// Every randomized checkpoint — arbitrary ring contents over the
    /// full token vocabulary (including Block slices cut from a shared
    /// backing), arbitrary mode logs, arbitrary counters grafted onto
    /// a real captured metrics body — round-trips the codec exactly.
    /// Then, with one byte flipped at a random offset or the buffer
    /// truncated at a random length, decode must return a structured
    /// [`CheckpointError`] and never panic.
    #[test]
    fn random_checkpoints_round_trip_and_resist_corruption(
        iteration in 0u64..50,
        capacities in proptest::collection::vec(1u64..9, 1..5),
        token_seeds in proptest::collection::vec(0u64..1_000_000, 1..20),
        corrupt_seed in 0u64..1_000_000_000,
    ) {
        let mut checkpoint = template_checkpoint();
        checkpoint.iteration = iteration;
        checkpoint.control_firings = token_seeds.iter().map(|s| s % 17).collect();
        let backing: Arc<[u8]> = (0u8..64).collect::<Vec<_>>().into();
        checkpoint.channels = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                let contents = if i % 2 == 0 {
                    ChannelContents::Data(
                        token_seeds.iter().map(|&s| seed_token(s, &backing)).collect(),
                    )
                } else {
                    ChannelContents::Control(
                        token_seeds.iter().map(|&s| seed_mode(s)).collect(),
                    )
                };
                ChannelCheckpoint { capacity: cap, contents }
            })
            .collect();
        checkpoint.captured = token_seeds
            .iter()
            .map(|&s| seed_token(s.rotate_left(13), &backing))
            .collect();

        let bytes = checkpoint.encode();
        let decoded = Checkpoint::decode(&bytes).expect("round trip decodes");
        prop_assert_eq!(&decoded, &checkpoint);

        // One byte flipped anywhere must be caught by the trailing
        // checksum (verified before any parsing) — structured error,
        // no panic, no garbage checkpoint.
        let offset = (corrupt_seed as usize) % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= 1 + (corrupt_seed >> 32) as u8 % 255;
        prop_assert!(
            Checkpoint::decode(&corrupted).is_err(),
            "flip at {} of {} must not decode", offset, bytes.len()
        );

        // Truncation at any random length is equally structured.
        let cut = (corrupt_seed as usize).rotate_right(7) % bytes.len();
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }
}

/// A small but real checkpoint captured from a live Figure 2 run —
/// the template the randomized codec property grafts its arbitrary
/// shapes onto (hand-building a valid `Metrics` would duplicate the
/// runtime's own accounting).
fn template_checkpoint() -> Checkpoint {
    let graph = figure2_graph();
    let config = RuntimeConfig::new(Binding::from_pairs([("p", 2)]))
        .with_threads(1)
        .with_iterations(1);
    let (_, checkpoint) = Executor::new(&graph, config)
        .expect("template executor")
        .run_checkpointed(&KernelRegistry::new())
        .expect("template run");
    checkpoint
}

/// Deterministically maps a seed to a token, covering every variant —
/// Block tokens are proper sub-slices of `backing`, so the codec's
/// re-inlining (slice bytes only, not the whole backing) is on the
/// round-trip path.
fn seed_token(seed: u64, backing: &Arc<[u8]>) -> Token {
    match seed % 7 {
        0 => Token::Unit,
        1 => Token::Int(seed as i64 - 500_000),
        2 => Token::Float(seed as f64 / 3.0),
        3 => Token::Byte((seed >> 8) as u8),
        4 => Token::Complex(tpdf_suite::apps::dsp::Complex {
            re: seed as f64,
            im: -(seed as f64) / 2.0,
        }),
        5 => {
            let w = 1 + (seed % 3) as usize;
            let h = 1 + ((seed >> 2) % 3) as usize;
            let pixels = (0..w * h).map(|i| (seed + i as u64) as f32).collect();
            Token::Image(Arc::new(GrayImage::from_pixels(w, h, pixels)))
        }
        _ => {
            let offset = (seed % 32) as usize;
            let len = 1 + ((seed >> 5) % 16) as usize;
            Token::Block(TokenBytes::new(Arc::clone(backing)).slice(offset..offset + len))
        }
    }
}

/// Deterministically maps a seed to a control-token mode.
fn seed_mode(seed: u64) -> Mode {
    match seed % 4 {
        0 => Mode::WaitAll,
        1 => Mode::SelectOne((seed >> 2) as usize % 5),
        2 => Mode::SelectMany(vec![0, 1 + (seed >> 3) as usize % 3]),
        _ => Mode::HighestPriority,
    }
}

#[test]
fn version_skew_is_rejected_with_descriptive_errors() {
    let checkpoint = template_checkpoint();
    let good = checkpoint.encode();

    // A bumped version byte: the checksum is recomputed so only the
    // version check can object — and it must, by number.
    let mut bumped = good.clone();
    bumped[4] = VERSION + 1;
    let body_len = bumped.len() - 8;
    let sum = checksum(&bumped[..body_len]).to_le_bytes();
    bumped[body_len..].copy_from_slice(&sum);
    assert_eq!(
        Checkpoint::decode(&bumped),
        Err(CheckpointError::Decode(DecodeError::UnsupportedVersion(
            VERSION + 1
        )))
    );

    // An unknown trailing field (tag 250, empty payload) appended by a
    // "newer writer": rejected by tag, not silently skipped — silent
    // tolerance would let two versions disagree about what state was
    // restored.
    let mut extended = good[..good.len() - 8].to_vec();
    extended.push(250);
    extended.extend_from_slice(&0u64.to_le_bytes());
    let sum = checksum(&extended).to_le_bytes();
    extended.extend_from_slice(&sum);
    assert_eq!(
        Checkpoint::decode(&extended),
        Err(CheckpointError::Decode(DecodeError::UnknownField(250)))
    );
}

/// The committed wire-format anchor: a v1 checkpoint of a 2-iteration
/// Figure 2 prefix. If this file stops decoding or restoring, the wire
/// format broke — bump [`VERSION`] and write a migration instead of
/// editing the fixture. (On a fresh checkout without the fixture the
/// test regenerates it; the generated bytes are committed alongside.)
#[test]
fn golden_v1_fixture_still_restores() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.bin");
    let graph = figure2_graph();
    let config = RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_threads(1);
    if !path.exists() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures/");
        let (_, checkpoint) = Executor::new(&graph, config.clone().with_iterations(2))
            .expect("fixture executor")
            .run_checkpointed(&KernelRegistry::new())
            .expect("fixture run");
        std::fs::write(&path, checkpoint.encode()).expect("write fixture");
    }
    let bytes = std::fs::read(&path).expect("read fixture");
    let checkpoint = Checkpoint::decode(&bytes)
        .expect("the committed v1 fixture must stay decodable by every future reader");
    assert_eq!(checkpoint.iteration, 2, "fixture captures barrier 2");
    // The bytes themselves are pinned, not only their meaning: the
    // decoded checkpoint re-encodes to the fixture byte for byte.
    assert!(
        checkpoint.encode() == bytes,
        "re-encoding the v1 fixture changed the bytes"
    );

    // And it still *restores*: the fixture's graph fingerprint matches
    // today's Figure 2, and resuming it reproduces the uninterrupted
    // 4-iteration run.
    let registry = KernelRegistry::new();
    let full = Executor::new(&graph, config.clone().with_iterations(4))
        .expect("reference executor")
        .run(&registry)
        .expect("reference run");
    let resumed = Executor::new(&graph, config.with_iterations(4))
        .expect("restore executor")
        .run_restored(&registry, &checkpoint)
        .expect("the v1 fixture must stay restorable");
    assert_resumed_matches(&resumed, &full, "for the golden v1 fixture");
}

#[test]
fn restore_rejects_wrong_graph_and_spent_checkpoints() {
    let checkpoint = template_checkpoint();

    // A different graph (the FM radio) must be refused by fingerprint,
    // not by crash.
    let port = FmRadioRuntime::new(FmRadioConfig { bands: 3, block: 8 }, 1);
    let fm_graph = port.graph();
    let other = Executor::new(
        &fm_graph,
        RuntimeConfig::new(port.binding()).with_iterations(2),
    )
    .expect("other executor");
    match other.run_restored(&port.registry().0, &checkpoint) {
        Err(e) => assert!(
            e.to_string().contains("different graph"),
            "fingerprint mismatch must say so: {e}"
        ),
        Ok(_) => panic!("a checkpoint must not restore into a different graph"),
    }

    // A checkpoint at iteration k restored into a k-iteration config
    // has nothing left to run.
    let graph = figure2_graph();
    let spent = Executor::new(
        &graph,
        RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_iterations(1),
    )
    .expect("spent executor");
    match spent.run_restored(&KernelRegistry::new(), &checkpoint) {
        Err(e) => assert!(
            e.to_string().contains("nothing to resume"),
            "spent checkpoint must say so: {e}"
        ),
        Ok(_) => panic!("a spent checkpoint must not restore"),
    }
}

/// The one way a graph `Executor::new` accepts can stall at run time:
/// analysis proves it live, so `Stalled` must come from a checkpoint
/// whose channel contents contradict the graph. Figure 4(a)'s B ⇄ C
/// cycle lives on its two initial tokens; a cut with them removed must
/// be reported as a stall naming B and C, promptly, at every worker
/// count, more workers than CPUs included — a stall verdict that could
/// never fire fails the 1 s bound.
#[test]
fn restore_without_the_cycle_tokens_reports_a_stall() {
    let graph = figure4a_graph();
    let config = RuntimeConfig::new(Binding::from_pairs([("p", 3)]));
    let (_, mut checkpoint) = Executor::new(&graph, config.clone().with_iterations(1))
        .expect("cut executor")
        .run_checkpointed(&KernelRegistry::new())
        .expect("cut after one iteration");
    let c_to_b = graph
        .channels()
        .position(|(_, ch)| graph.node(ch.source).name == "C" && graph.node(ch.target).name == "B")
        .expect("figure 4(a) has a C -> B channel");
    let contents = &mut checkpoint.channels[c_to_b].contents;
    assert_eq!(contents.len(), 2, "the cut holds the cycle's two tokens");
    *contents = ChannelContents::Data(Vec::new());

    for threads in [1, 2, 4, 8] {
        let (graph, checkpoint) = (graph.clone(), checkpoint.clone());
        let config = config.clone().with_threads(threads).with_iterations(2);
        let (sender, receiver) = std::sync::mpsc::channel();
        // A verdict that can never fire spins forever: run on a
        // spawned thread, joined only once it has answered, so the
        // bounded wait below fails the test instead of hanging it.
        let runner = std::thread::spawn(move || {
            let executor = Executor::new(&graph, config).expect("restore executor");
            let _ = sender.send(executor.run_restored(&KernelRegistry::new(), &checkpoint));
        });
        let received = receiver.recv_timeout(Duration::from_secs(1));
        if let Err(RecvTimeoutError::Timeout) = received {
            panic!("threads = {threads}: no stall reported within 1 s");
        }
        runner.join().expect("the restored run panicked");
        match received.expect("sent before the runner exits") {
            Err(RuntimeError::Stalled {
                blocked, iteration, ..
            }) => {
                assert!(
                    ["B", "C"].iter().all(|n| blocked.iter().any(|b| b == n)),
                    "threads = {threads}: the stall must name B and C, got {blocked:?}"
                );
                assert_eq!(iteration, 1, "threads = {threads}");
            }
            other => panic!("threads = {threads}: expected Stalled, got {other:?}"),
        }
    }
}
