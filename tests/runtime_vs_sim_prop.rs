//! Randomized sim↔runtime differential test harness.
//!
//! Generates small random TPDF graphs, parameter binding sequences and
//! **data-dependent mode selectors** (control actors computing their
//! emitted [`Mode`] from the values they consume), then executes every
//! generated case on both engines and asserts:
//!
//! * **token-stream equality** — identical firing counts and identical
//!   per-channel token production, derived per iteration from the
//!   effective binding (so mid-run rebinding is covered too);
//! * **mode-sequence equality** — the control actors of both engines
//!   emit the exact same mode at every firing, even though the runtime
//!   reads real tokens while the simulation reads the value trace;
//! * **schedule independence** — a 1-thread and a 4-thread runtime run
//!   produce identical sink values and mode sequences (the Kahn-style
//!   determinacy argument, exercised rather than assumed).
//!
//! Generation is deterministic (the offline proptest stub seeds its RNG
//! from the test name) and the case count is bounded, so this file is a
//! CI gate, not a fuzz target: every run checks the same cases in well
//! under a minute.
//!
//! CI matrix knob: `TPDF_TEST_THREADS` — comma-separated worker counts
//! to exercise (default `1,4`).

use proptest::prelude::*;
use std::sync::Arc;
use tpdf_suite::core::actors::KernelKind;
use tpdf_suite::core::control::{FnSelector, ModeSelector, TableTrace};
use tpdf_suite::core::graph::TpdfGraph;
use tpdf_suite::core::mode::Mode;
use tpdf_suite::core::rate::RateSeq;
use tpdf_suite::runtime::kernel::KernelRegistry;
use tpdf_suite::runtime::{Executor, OutputCapture, RuntimeConfig, Token};
use tpdf_suite::sim::engine::Simulator;
use tpdf_suite::symexpr::{Binding, Poly};

/// Worker counts to exercise, from `TPDF_TEST_THREADS` (default 1 and
/// 4 — the single-worker fast path and a contended pool). A spec that
/// parses to nothing is a hard error: silently running zero cases
/// would turn the whole differential gate vacuously green.
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

/// Deterministically maps a consumed-value sum to a mode valid for a
/// kernel with `ports` data inputs. Covers single selection, subset
/// selection and wait-all; `HighestPriority` is excluded on purpose —
/// its resolution depends on run-time availability, which is exactly
/// the schedule dependence this harness must not introduce.
fn mode_for_value(value: i64, ports: usize) -> Mode {
    let v = value.rem_euclid(4 * ports as i64) as usize;
    match v % 4 {
        0 => Mode::WaitAll,
        1 => Mode::SelectOne(v / 4),
        2 => {
            // A non-empty subset: every port whose bit of `v` is set,
            // plus port 0 as the non-empty guarantee.
            let mut selected: Vec<usize> = (0..ports).filter(|p| (v >> p) & 1 == 1).collect();
            if selected.is_empty() {
                selected.push(0);
            }
            Mode::SelectMany(selected)
        }
        _ => Mode::SelectOne(ports - 1 - v / 4),
    }
}

/// Runs one generated case on both engines, at every thread count,
/// and asserts the differential properties. `build_registry` must
/// return a freshly wired registry + sink capture on every call
/// (runtime runs may not share captures).
fn assert_differential(
    graph: &TpdfGraph,
    config: &RuntimeConfig,
    build_registry: &dyn Fn() -> (KernelRegistry, OutputCapture),
    sink: &str,
) {
    // Reference: the count-level simulator under the mirrored config.
    let reference = Simulator::new(graph, config.reference_sim_config())
        .expect("reference simulator")
        .run_iterations(config.iterations)
        .expect("reference run");

    // Sink token stream per thread count.
    let mut streams: Vec<Vec<Token>> = Vec::new();
    for &threads in &thread_counts() {
        let (registry, capture) = build_registry();
        let run_config = config.clone().with_threads(threads);
        let metrics = Executor::new(graph, run_config)
            .expect("executor")
            .run(&registry)
            .expect("runtime run");

        assert_eq!(
            metrics.firings, reference.firings,
            "firing counts diverge at {threads} threads"
        );
        assert_eq!(
            metrics.mode_sequences, reference.mode_sequences,
            "mode sequences diverge at {threads} threads"
        );
        // Token production per channel, derived per iteration from
        // the effective binding (covers mid-run rebinding).
        for (id, chan) in graph.channels() {
            let produced: u64 = reference
                .per_iteration
                .iter()
                .map(|record| {
                    (0..record.counts[chan.source.0])
                        .map(|k| {
                            chan.production
                                .concrete(k, &record.binding)
                                .expect("concrete rate")
                        })
                        .sum::<u64>()
                })
                .sum();
            assert_eq!(
                metrics.tokens_pushed[id.0], produced,
                "channel {} token count diverges at {threads} threads",
                chan.label
            );
        }
        for (hw, cap) in metrics
            .channel_high_water
            .iter()
            .zip(&metrics.channel_capacity)
        {
            assert!(hw <= cap, "ring exceeded its capacity");
        }
        assert_eq!(
            metrics.worker_firings.iter().sum::<u64>(),
            metrics.firings.iter().sum::<u64>(),
            "per-worker firing counts must account for every firing"
        );
        streams.push(capture.take_tokens());
    }
    // Schedule independence across thread counts (first vs each).
    for window in streams.windows(2) {
        assert_eq!(
            window[0], window[1],
            "sink {sink} values depend on the thread count"
        );
    }
}

/// Builds the fan template: `SRC → DUP → W_i → TRAN → SNK` with control
/// actor `CON` fed by `SRC` and steering `TRAN`. Channel rates come
/// from `rate_seed` (constants and multiples of the parameter `p`), so
/// repetition counts vary per channel pair and with the binding.
fn fan_graph(branches: usize, rate_seed: u64) -> TpdfGraph {
    // Rate of channel `k`: 1..3 tokens, every third one scaled by `p`.
    let rate = |k: u32| -> RateSeq {
        let base = 1 + (rate_seed >> (2 * k)) % 3;
        if k % 3 == 2 {
            RateSeq::poly(Poly::from_integer(base as i64) * Poly::param("p"))
        } else {
            RateSeq::constant(base)
        }
    };
    let mut b = TpdfGraph::builder()
        .parameter("p")
        .kernel("SRC")
        .kernel_with("DUP", KernelKind::SelectDuplicate, 1)
        .control("CON")
        .kernel_with("TRAN", KernelKind::Transaction { votes_required: 0 }, 1)
        .kernel("SNK");
    let r0 = rate(0);
    b = b.channel("SRC", "DUP", r0.clone(), r0, 0);
    for i in 0..branches {
        let w = format!("W{i}");
        let ri = rate(1 + i as u32);
        let qi = rate(8 + i as u32);
        b = b
            .kernel(&w)
            .channel("DUP", &w, ri.clone(), ri, 0)
            .channel_with_priority(&w, "TRAN", qi.clone(), qi, 0, (i + 1) as u32);
    }
    let rs = rate(20);
    b.channel("SRC", "CON", RateSeq::constant(1), RateSeq::constant(1), 0)
        .control_channel("CON", "TRAN", RateSeq::constant(1), RateSeq::constant(1))
        .channel("TRAN", "SNK", rs.clone(), rs, 0)
        .build()
        .expect("fan template is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fan graphs with data-dependent TRAN steering: CON reads
    /// the value SRC sends it and selects which branches TRAN keeps.
    #[test]
    fn random_fan_graphs_agree_across_engines(
        branches in 1usize..5,
        rate_seed in 0u64..1_000_000_000,
        table in proptest::collection::vec(0i64..9, 1..7),
        iterations in 1u64..4,
        p in 1i64..4,
    ) {
        let graph = fan_graph(branches, rate_seed);
        let con_channel = graph
            .channels()
            .find(|(_, c)| {
                c.source == graph.node_by_name("SRC").unwrap()
                    && c.target == graph.node_by_name("CON").unwrap()
            })
            .map(|(_, c)| c.label.clone())
            .unwrap();

        let selector: Arc<dyn ModeSelector> = Arc::new(FnSelector::new(
            "fan-data",
            move |_, inputs: &[i64]| mode_for_value(inputs.iter().sum(), branches),
        ));
        let trace = TableTrace::new([(con_channel, table.clone())]).shared();
        let config = RuntimeConfig::new(Binding::from_pairs([("p", p)]))
            .with_iterations(iterations)
            .with_mode_selector(selector)
            .with_value_trace(trace);

        let build_registry = move || {
            let mut registry = KernelRegistry::new();
            let values = table.clone();
            registry.register_fn("SRC", move |ctx| {
                for out in &mut ctx.outputs {
                    // Port 0 feeds DUP, port 1 feeds CON with the value
                    // the mode selector (and the sim's trace) reacts to.
                    let token = match out.port {
                        1 => Token::Int(values[(ctx.ordinal as usize) % values.len()]),
                        _ => Token::Int(ctx.ordinal as i64),
                    };
                    out.write_cycled(std::slice::from_ref(&token));
                }
                Ok(())
            });
            let capture = OutputCapture::new();
            capture.install(&mut registry, "SNK");
            (registry, capture)
        };
        assert_differential(&graph, &config, &build_registry, "SNK");
    }

    /// The paper's Figure 2 running example under random binding
    /// sequences AND a data-dependent selector: cyclo-static rates,
    /// multi-token control consumption, rejected-channel flushes and
    /// mid-run rebinding, all in one property.
    #[test]
    fn figure2_rebinding_with_data_modes_agrees(
        ps in proptest::collection::vec(1i64..5, 1..4),
        table in proptest::collection::vec(0i64..7, 1..6),
        iterations in 1u64..5,
    ) {
        let graph = tpdf_suite::core::examples::figure2_graph();
        let sequence: Vec<Binding> = ps
            .iter()
            .map(|&p| Binding::from_pairs([("p", p)]))
            .collect();

        // C consumes pairs of B's values from e2; F has two data
        // inputs.
        let selector: Arc<dyn ModeSelector> = Arc::new(FnSelector::new(
            "figure2-data",
            |_, inputs: &[i64]| mode_for_value(inputs.iter().sum(), 2),
        ));
        let trace = TableTrace::new([("e2".to_string(), table.clone())]).shared();
        let config = RuntimeConfig::new(Binding::from_pairs([("p", ps[0])]))
            .with_binding_sequence(sequence)
            .with_iterations(iterations)
            .with_mode_selector(selector)
            .with_value_trace(trace);

        let build_registry = move || {
            let mut registry = KernelRegistry::new();
            let values = table.clone();
            registry.register_fn("B", move |ctx| {
                let v = values[(ctx.ordinal as usize) % values.len()];
                ctx.fill_outputs_cycling(&[Token::Int(v)]);
                Ok(())
            });
            let capture = OutputCapture::new();
            capture.install(&mut registry, "F");
            (registry, capture)
        };
        assert_differential(&graph, &config, &build_registry, "F");
    }
}
