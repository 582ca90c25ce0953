use super::*;
use crate::token::Token;
use std::time::Instant;
use tpdf_core::actors::KernelKind;
use tpdf_core::examples::{figure2_graph, figure4_deadlocked_graph, figure4a_graph};
use tpdf_core::graph::TpdfGraph;
use tpdf_core::rate::RateSeq;
use tpdf_sim::engine::{SimulationReport, Simulator};
use tpdf_trace::EventKind;

fn binding(p: i64) -> Binding {
    Binding::from_pairs([("p", p)])
}

fn sim_reference(graph: &TpdfGraph, config: &RuntimeConfig) -> SimulationReport {
    Simulator::new(graph, config.reference_sim_config())
        .unwrap()
        .run_iterations(config.iterations)
        .unwrap()
}

#[test]
fn figure2_matches_reference_across_thread_counts() {
    let g = figure2_graph();
    for threads in [1usize, 2, 4, 8] {
        let config = RuntimeConfig::new(binding(3))
            .with_threads(threads)
            .with_iterations(4);
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&KernelRegistry::new())
            .unwrap();
        assert_eq!(metrics.firings, reference.firings, "threads = {threads}");
        assert_eq!(metrics.iterations, 4);
        assert_eq!(metrics.threads, threads);
        assert!(metrics.total_tokens > 0);
        assert!(metrics.tokens_per_sec > 0.0);
    }
}

#[test]
fn progress_beacon_counts_runs_and_barriers() {
    let g = figure2_graph();
    let exec = Executor::new(&g, RuntimeConfig::new(binding(2)).with_iterations(3)).unwrap();
    let compiled = exec.compile();
    let before = compiled.progress();
    assert_eq!(before.runs_started, 0);
    assert_eq!(before.runs_finished, 0);
    assert_eq!(before.barriers, 0);
    assert_eq!(before.since_progress, None);
    exec.run(&KernelRegistry::new()).unwrap();
    exec.run(&KernelRegistry::new()).unwrap();
    let after = compiled.progress();
    assert_eq!(after.runs_started, 2);
    assert_eq!(after.runs_finished, 2);
    assert_eq!(after.barriers, 6, "3 iterations x 2 runs");
    assert!(after.since_progress.is_some());
}

#[test]
fn alternate_policy_and_cycles_match_reference() {
    let g = figure2_graph();
    let config = RuntimeConfig::new(binding(2))
        .with_threads(4)
        .with_iterations(3)
        .with_policy(ControlPolicy::Alternate(vec![
            Mode::SelectOne(0),
            Mode::SelectOne(1),
        ]));
    let reference = sim_reference(&g, &config);
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&KernelRegistry::new())
        .unwrap();
    assert_eq!(metrics.firings, reference.firings);

    let g = figure4a_graph();
    let config = RuntimeConfig::new(binding(3))
        .with_threads(4)
        .with_iterations(2);
    let reference = sim_reference(&g, &config);
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&KernelRegistry::new())
        .unwrap();
    assert_eq!(metrics.firings, reference.firings);
}

#[test]
fn binding_sequence_rebinds_at_iteration_barriers() {
    let g = figure2_graph();
    for threads in [1usize, 4] {
        let config = RuntimeConfig::new(binding(1))
            .with_threads(threads)
            .with_iterations(4)
            .with_binding_sequence(vec![binding(1), binding(3), binding(2)]);
        let reference = sim_reference(&g, &config);
        let exec = Executor::new(&g, config).unwrap();
        // q = [2, 2p, p, p, 2p, 2p] per phase; the last phase
        // persists once the sequence is exhausted.
        assert_eq!(exec.repetition_counts_for_iteration(0), &[2, 2, 1, 1, 2, 2]);
        assert_eq!(exec.repetition_counts_for_iteration(1), &[2, 6, 3, 3, 6, 6]);
        assert_eq!(exec.repetition_counts_for_iteration(3), &[2, 4, 2, 2, 4, 4]);
        let metrics = exec.run(&KernelRegistry::new()).unwrap();
        assert_eq!(metrics.firings, reference.firings, "threads = {threads}");
        assert_eq!(metrics.iterations, 4);
        // Two rebinds: into the p = 3 phase and into the p = 2 one.
        assert_eq!(metrics.rebinds.len(), 2);
        assert_eq!(metrics.rebinds[0].iteration, 1);
        assert_eq!(metrics.rebinds[0].binding.get("p"), Some(3));
        assert_eq!(metrics.rebinds[0].counts, vec![2, 6, 3, 3, 6, 6]);
        assert_eq!(metrics.rebinds[1].iteration, 2);
        assert_eq!(metrics.rebinds[1].binding.get("p"), Some(2));
        // The rings grew to cover the widest phase and never shrank.
        for (chan, cap) in metrics.channel_capacity.iter().enumerate() {
            for iteration in 0..4 {
                assert!(
                    *cap >= exec.capacities_for_iteration(iteration)[chan],
                    "channel {chan} capacity {cap} below iteration {iteration} requirement"
                );
            }
        }
        for (hw, cap) in metrics
            .channel_high_water
            .iter()
            .zip(&metrics.channel_capacity)
        {
            assert!(hw <= cap);
        }
    }
}

#[test]
fn data_dependent_selector_matches_reference_modes() {
    use tpdf_core::control::{FnSelector, TableTrace};

    // B emits `ordinal % 3` on every output; C consumes pairs of
    // those values from e2 and selects F's data input from their
    // sum — a genuinely data-dependent control actor. The sim gets
    // the identical values through the trace.
    let g = figure2_graph();
    let mut registry = KernelRegistry::new();
    registry.register_fn("B", |ctx| {
        let v = (ctx.ordinal % 3) as i64;
        ctx.fill_outputs_cycling(&[Token::Int(v)]);
        Ok(())
    });
    let selector: Arc<dyn ModeSelector> =
        Arc::new(FnSelector::new("sum-parity", |_, inputs: &[i64]| {
            Mode::SelectOne((inputs.iter().sum::<i64>() % 2) as usize)
        }));
    let trace = TableTrace::new([("e2".to_string(), vec![0, 1, 2])]).shared();
    let config = RuntimeConfig::new(binding(2))
        .with_threads(4)
        .with_iterations(3)
        .with_mode_selector(selector)
        .with_value_trace(trace);
    let reference = sim_reference(&g, &config);
    let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
    assert_eq!(metrics.firings, reference.firings);
    assert_eq!(metrics.mode_sequences, reference.mode_sequences);
    // The emitted modes really vary with the data.
    let c = g.node_by_name("C").unwrap();
    let modes = &metrics.mode_sequences[c.0];
    assert!(modes.contains(&Mode::SelectOne(0)));
    assert!(modes.contains(&Mode::SelectOne(1)));
}

#[test]
fn varying_mode_selectors_size_rings_from_the_whole_run() {
    use tpdf_core::control::FnSelector;

    // A producer gated by a feedback loop, whose controlled
    // consumer selects its channel throughout iteration 0 but
    // rejects it throughout iteration 1: the ping-pong occupancy of
    // iteration 0 (2 tokens) is far below iteration 1's full
    // production (8 tokens piling up on the rejected channel).
    // Firing ordinals never reset, so a single reference iteration
    // would size the ring at 2 × slack and deadlock iteration 1 —
    // a varying selector must force whole-run sizing.
    let g = TpdfGraph::builder()
        .kernel("SRC")
        .control("CON")
        .kernel_with("TRAN", KernelKind::Transaction { votes_required: 0 }, 1)
        .kernel("SNK")
        .channel("SRC", "TRAN", RateSeq::constant(2), RateSeq::constant(2), 0)
        .channel("TRAN", "SRC", RateSeq::constant(1), RateSeq::constant(1), 1)
        .control_channel("CON", "TRAN", RateSeq::constant(1), RateSeq::constant(1))
        .channel("TRAN", "SNK", RateSeq::constant(1), RateSeq::constant(4), 0)
        .build()
        .unwrap();
    let selector: Arc<dyn ModeSelector> = Arc::new(FnSelector::new(
        "reject-every-other-iteration",
        |firing, _| {
            // 4 control firings per iteration: iteration 0 selects
            // the data input, iteration 1 rejects it outright.
            if (firing / 4) % 2 == 0 {
                Mode::SelectOne(0)
            } else {
                Mode::SelectMany(Vec::new())
            }
        },
    ));
    let config = RuntimeConfig::new(Binding::new())
        .with_threads(2)
        .with_iterations(2)
        .with_mode_selector(selector);
    let reference = sim_reference(&g, &config);
    let exec = Executor::new(&g, config).unwrap();
    let e1 = 0; // SRC → TRAN is the first declared channel
    assert!(
        exec.capacities()[e1] >= 8,
        "sizing must cover iteration 1's rejected-channel pile-up, got {}",
        exec.capacities()[e1]
    );
    let metrics = exec.run(&KernelRegistry::new()).unwrap();
    assert_eq!(metrics.firings, reference.firings);
    assert_eq!(metrics.mode_sequences, reference.mode_sequences);
}

#[test]
fn kernel_set_mode_overrides_the_selector() {
    // C's registered behaviour returns the mode with its outputs;
    // the configured (default WaitAll) selector is never consulted.
    let g = figure2_graph();
    let mut registry = KernelRegistry::new();
    registry.register_fn("C", |ctx| {
        ctx.set_mode(Mode::SelectOne((ctx.ordinal % 2) as usize));
        ctx.fill_outputs_from_inputs();
        Ok(())
    });
    let config = RuntimeConfig::new(binding(1))
        .with_threads(2)
        .with_iterations(2);
    let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
    let c = g.node_by_name("C").unwrap();
    assert_eq!(
        metrics.mode_sequences[c.0],
        vec![Mode::SelectOne(0), Mode::SelectOne(1)]
    );
}

#[test]
fn strict_capacities_still_complete() {
    // Slack 1 sizes every data ring at exactly the reference
    // high-water mark; the claim discipline must still find a
    // schedule.
    let g = figure2_graph();
    let config = RuntimeConfig::new(binding(4))
        .with_threads(4)
        .with_iterations(3)
        .with_capacity_slack(1);
    let reference = sim_reference(&g, &config);
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&KernelRegistry::new())
        .unwrap();
    assert_eq!(metrics.firings, reference.firings);
    for (hw, cap) in metrics
        .channel_high_water
        .iter()
        .zip(&metrics.channel_capacity)
    {
        assert!(*cap > 0, "every channel is a bounded ring now");
        assert!(hw <= cap, "high water {hw} exceeds capacity {cap}");
    }
}

#[test]
fn many_iterations_stress_the_barrier() {
    // The iteration barrier runs once per iteration; hammer it from
    // several threads to catch reset races.
    let g = figure2_graph();
    let config = RuntimeConfig::new(binding(2))
        .with_threads(8)
        .with_iterations(200);
    let reference = sim_reference(&g, &config);
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&KernelRegistry::new())
        .unwrap();
    assert_eq!(metrics.firings, reference.firings);
    assert_eq!(metrics.iterations, 200);
}

#[test]
fn firing_cost_ewma_reclassifies_between_runs() {
    // The telemetry is an EWMA, not a cumulative average: after a
    // compute-weighted run, a cheap registry on the SAME executor
    // must bring the estimate back down within its own samples. A
    // cumulative mean stays anchored at ~half the heavy cost and
    // would keep misclassifying the fine-grained workload.
    fn spin(duration: Duration) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }
    let g = figure2_graph();
    let config = RuntimeConfig::new(binding(1))
        .with_threads(2)
        .with_iterations(100);
    let exec = Executor::new(&g, config).unwrap();

    let mut heavy = KernelRegistry::new();
    for node in ["A", "B", "C", "D", "E", "F"] {
        heavy.register_fn(node, |ctx| {
            spin(Duration::from_micros(100));
            ctx.fill_outputs_from_inputs();
            Ok(())
        });
    }
    exec.run(&heavy).unwrap();
    let after_heavy = exec.sampled_firing_cost_ns().expect("samples were taken");
    assert!(
        after_heavy > FINE_GRAIN_NS,
        "100µs kernels must classify as coarse-grained, got {after_heavy}ns"
    );

    exec.run(&KernelRegistry::new()).unwrap();
    let after_cheap = exec.sampled_firing_cost_ns().expect("samples were taken");
    // 100 cheap iterations decay the 100µs estimate by (7/8)^100; a
    // cumulative mean would still sit at ~after_heavy / 2. The 4×
    // bound keeps the assertion robust to scheduling noise while
    // cleanly separating the two behaviours.
    assert!(
        after_cheap < after_heavy / 4,
        "EWMA must track the cheap registry: {after_cheap}ns vs {after_heavy}ns before"
    );
}

#[test]
fn invalid_configurations_rejected() {
    let g = figure2_graph();
    assert!(matches!(
        Executor::new(&g, RuntimeConfig::new(binding(1)).with_iterations(0)),
        Err(RuntimeError::InvalidConfig(_))
    ));
    assert!(matches!(
        Executor::new(&g, RuntimeConfig::new(Binding::new())),
        Err(RuntimeError::Analysis(_))
    ));
    // The public `threads` field can bypass with_threads' clamp.
    let mut config = RuntimeConfig::new(binding(1));
    config.threads = 0;
    assert!(matches!(
        Executor::new(&g, config),
        Err(RuntimeError::InvalidConfig(_))
    ));
}

#[test]
fn control_port_waits_for_its_full_consumption_rate() {
    // K consumes two control tokens per firing; C produces one per
    // firing and fires twice per iteration. The runtime must wait
    // for both tokens (not fire on the first), and one K firing
    // consumes both.
    let g = TpdfGraph::builder()
        .kernel("A")
        .control("C")
        .kernel("K")
        .channel("A", "C", RateSeq::constant(1), RateSeq::constant(1), 0)
        .channel("A", "K", RateSeq::constant(1), RateSeq::constant(2), 0)
        .control_channel("C", "K", RateSeq::constant(1), RateSeq::constant(2))
        .build()
        .unwrap();
    let config = RuntimeConfig::new(Binding::new())
        .with_threads(2)
        .with_iterations(3)
        .with_policy(ControlPolicy::SelectInput(0));
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&KernelRegistry::new())
        .unwrap();
    let k = g.node_by_name("K").unwrap();
    let c = g.node_by_name("C").unwrap();
    assert_eq!(metrics.firings[k.0], 3);
    assert_eq!(metrics.firings[c.0], 6);
}

#[test]
fn deadlocked_graph_reports_error() {
    let g = figure4_deadlocked_graph();
    // The reference sizing run already detects the deadlock.
    let result = Executor::new(&g, RuntimeConfig::new(binding(2)));
    assert!(matches!(result, Err(RuntimeError::Analysis(_))));
}

/// The stall post-mortem (a defensive path — a well-formed graph's
/// deadlocks are caught by analysis before the runtime ever sees
/// them) must list per-node remaining budgets and attach the
/// flight-recorder tail, bounded by [`STALL_DUMP_EVENTS`].
#[test]
fn stall_error_carries_budgets_and_bounded_recorder_tail() {
    let tracer = Tracer::flight_recorder(1, 256);
    // More history than the dump bound: the tail must be clipped.
    for i in 0..(2 * STALL_DUMP_EVENTS as u64) {
        tracer.event(0, EventKind::Steal, 0, i, 0, 0);
    }
    let g = figure2_graph();
    let executor = Executor::new(
        &g,
        RuntimeConfig::new(binding(2)).with_tracer(Arc::clone(&tracer)),
    )
    .unwrap();
    let engine = &executor.engine;
    let state = engine.initial_state(1);
    let error = engine.stall_error(&state);
    let RuntimeError::Stalled {
        blocked,
        diagnostics,
        ..
    } = &error
    else {
        panic!("expected Stalled, got {error}");
    };
    assert!(!blocked.is_empty());
    assert!(
        diagnostics.contains("firings remaining"),
        "budgets must be listed:\n{diagnostics}"
    );
    assert!(
        diagnostics.contains("flight recorder tail"),
        "the recorder tail must be attached:\n{diagnostics}"
    );
    let tail_lines = diagnostics
        .lines()
        .filter(|line| line.starts_with("    "))
        .count();
    assert!(
        tail_lines > 0 && tail_lines <= STALL_DUMP_EVENTS,
        "tail must be non-empty and bounded by {STALL_DUMP_EVENTS}, got {tail_lines}"
    );
    // The stall itself is recorded as a control-lane event, and the
    // rendered error surfaces the diagnostics.
    assert_eq!(tracer.collect().count(EventKind::Stall), 1);
    assert!(error.to_string().contains("flight recorder tail"));
}

/// Without a tracer the stall error still explains itself through
/// the per-node budgets, just without a recorder tail.
#[test]
fn stall_error_without_tracer_lists_budgets_only() {
    let g = figure2_graph();
    let executor = Executor::new(&g, RuntimeConfig::new(binding(2))).unwrap();
    let engine = &executor.engine;
    let state = engine.initial_state(1);
    let error = engine.stall_error(&state);
    let RuntimeError::Stalled { diagnostics, .. } = &error else {
        panic!("expected Stalled, got {error}");
    };
    assert!(diagnostics.contains("firings remaining"));
    assert!(!diagnostics.contains("flight recorder tail"));
}

/// A firing that commits while a worker is parking — after its hunt,
/// inside the park lock, just before the verdict — must be noticed:
/// the parker may wait or rescan, but it must not report a stall. The
/// commit is made on behalf of a second worker without taking the
/// park lock (the parker holds it); every hint is pre-queued so the
/// commit has no surplus to wake anyone for.
#[test]
fn commit_racing_the_stall_verdict_is_not_a_stall() {
    let g = figure2_graph();
    let config = RuntimeConfig::new(binding(2)).with_threads(2);
    let executor = Executor::new(&g, config).unwrap();
    let engine = &executor.engine;
    let state = engine.initial_state(2);
    for ns in &state.nodes {
        ns.queued.store(true, Ordering::Relaxed);
    }
    fn commit_as_worker_1(engine: &Engine, state: &RunState) {
        let source = engine.nodes.iter().position(|n| &*n.name == "A").unwrap();
        let mut scratch = fire::FireScratch::default();
        let registry = KernelRegistry::new();
        let fired = engine.try_fire(
            state,
            1,
            source,
            false,
            &registry,
            Instant::now(),
            false,
            &mut scratch,
        );
        assert!(fired, "the source must be claimable at the start of a run");
    }
    let seen = state.progress.load(Ordering::SeqCst);
    stall::BEFORE_VERDICT.set(Some(commit_as_worker_1));
    engine.park(&state, 0, seen, Instant::now());
    let error = state.park.lock().unwrap().error.clone();
    assert!(error.is_none(), "a racing commit was reported as {error:?}");
    assert!(!state.halt.load(Ordering::SeqCst));
}

/// Spawns participant `me` of `state` on its own thread, installing
/// `hook` as its [`stall::BEFORE_VERDICT`]. A plain spawned thread, not
/// a scoped one: a participant that misses its wake then fails the
/// test's bounded wait instead of hanging the scope's join.
fn spawn_participant(
    engine: &Arc<Engine>,
    state: &Arc<RunState>,
    me: usize,
    registry: &Arc<KernelRegistry>,
    start: Instant,
    hook: Option<stall::VerdictHook>,
) -> std::thread::JoinHandle<bool> {
    let (engine, state, registry) = (Arc::clone(engine), Arc::clone(state), Arc::clone(registry));
    std::thread::spawn(move || {
        stall::BEFORE_VERDICT.set(hook);
        engine.participate(&state, me, &registry, start)
    })
}

/// Whether `handle`'s thread has finished by `deadline` (polled).
fn finished_by<T>(handle: &std::thread::JoinHandle<T>, deadline: Instant) -> bool {
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A participant that stands down while its peer is parked wakes the
/// peer: its last commit may leave exactly the work the peer waits
/// for, with no surplus to trigger the commit-side notify. Worker 1
/// holds `x`'s only firing while worker 0 parks (the verdict hook
/// proves it reached the park, and the park lock that it is waiting);
/// then the participant count drops to 1 and `x` completes. Without
/// the wake, worker 0 stays parked for good.
#[test]
fn a_participant_that_stands_down_wakes_its_parked_peer() {
    use std::sync::atomic::AtomicBool;
    static PEER_AT_VERDICT: AtomicBool = AtomicBool::new(false);
    fn at_verdict(_: &Engine, _: &RunState) {
        PEER_AT_VERDICT.store(true, Ordering::SeqCst);
    }
    let g = TpdfGraph::builder()
        .kernel("x")
        .kernel("y")
        .channel("x", "y", RateSeq::constant(1), RateSeq::constant(1), 0)
        .build()
        .unwrap();
    let config = RuntimeConfig::new(Binding::new()).with_threads(2);
    let executor = Executor::new(&g, config).unwrap();
    let engine = &executor.engine;
    let state = Arc::new(engine.initial_state(2));
    let entered = Arc::new(AtomicBool::new(false));
    let released = Arc::new(AtomicBool::new(false));
    let mut registry = KernelRegistry::new();
    {
        let (entered, released) = (Arc::clone(&entered), Arc::clone(&released));
        registry.register_fn("x", move |ctx| {
            entered.store(true, Ordering::SeqCst);
            while !released.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
    }
    let registry = Arc::new(registry);
    let start = Instant::now();
    let holder = spawn_participant(engine, &state, 1, &registry, start, None);
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let peer = spawn_participant(engine, &state, 0, &registry, start, Some(at_verdict));
    while !PEER_AT_VERDICT.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // The peer holds the park lock from its verdict until it waits.
    drop(state.park.lock().unwrap());
    state.participants.store(1, Ordering::Relaxed);
    released.store(true, Ordering::SeqCst);
    assert!(holder.join().unwrap(), "worker 1 must stand down");
    assert!(
        finished_by(&peer, start + Duration::from_secs(5)),
        "worker 0 never came back from its park"
    );
    assert!(!peer.join().unwrap(), "worker 0 must finish the run");
    assert!(state.park.lock().unwrap().done);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "worker 0 slept out its stall timeout: {:?}",
        start.elapsed()
    );
}

/// A commit that leaves more hints than its worker takes itself wakes
/// one parked peer per surplus hint. Two peers park on worker 0's open
/// attempt (the verdict hook proves both reached the park, and the
/// park lock that both are waiting); the source firing it commits fans
/// out to four consumers, so its queue holds four hints and both peers
/// must come back from `park` at once. A single wake per commit brings
/// back one of them.
#[test]
fn a_fan_out_commit_wakes_one_parked_peer_per_surplus_hint() {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    static AT_VERDICT: AtomicUsize = AtomicUsize::new(0);
    fn at_verdict(_: &Engine, _: &RunState) {
        AT_VERDICT.fetch_add(1, Ordering::SeqCst);
    }
    const PEERS: usize = 2;
    let mut builder = TpdfGraph::builder().kernel("src");
    for i in 0..4 {
        let name = format!("w{i}");
        builder = builder.kernel(&name).channel(
            "src",
            &name,
            RateSeq::constant(1),
            RateSeq::constant(1),
            0,
        );
    }
    let g = builder.build().unwrap();
    let config = RuntimeConfig::new(Binding::new()).with_threads(PEERS + 1);
    let executor = Executor::new(&g, config).unwrap();
    let engine = Arc::clone(&executor.engine);
    let state = Arc::new(engine.initial_state(PEERS + 1));
    let entered = Arc::new(AtomicBool::new(false));
    let released = Arc::new(AtomicBool::new(false));
    let mut registry = KernelRegistry::new();
    {
        let (entered, released) = (Arc::clone(&entered), Arc::clone(&released));
        registry.register_fn("src", move |ctx| {
            entered.store(true, Ordering::SeqCst);
            while !released.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
    }
    let source = engine.nodes.iter().position(|n| &*n.name == "src").unwrap();
    let committer = {
        let (engine, state) = (Arc::clone(&engine), Arc::clone(&state));
        std::thread::spawn(move || {
            let mut scratch = fire::FireScratch::default();
            let start = Instant::now();
            engine.try_fire(
                &state,
                0,
                source,
                false,
                &registry,
                start,
                false,
                &mut scratch,
            )
        })
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // Loaded while the source's attempt is open: the peers wait for a
    // wake instead of proving a stall.
    let seen = state.progress.load(Ordering::SeqCst);
    let peers: Vec<_> = (1..=PEERS)
        .map(|me| {
            let (engine, state) = (Arc::clone(&engine), Arc::clone(&state));
            std::thread::spawn(move || {
                stall::BEFORE_VERDICT.set(Some(at_verdict));
                engine.park(&state, me, seen, Instant::now());
            })
        })
        .collect();
    while AT_VERDICT.load(Ordering::SeqCst) < PEERS {
        std::thread::yield_now();
    }
    // The last peer at its verdict holds the park lock until it waits.
    drop(state.park.lock().unwrap());
    released.store(true, Ordering::SeqCst);
    assert!(committer.join().unwrap(), "the source must fire");
    let deadline = Instant::now() + Duration::from_secs(1);
    let hints = state.queues[0].lock().unwrap().len();
    assert!(
        hints > PEERS,
        "the commit must leave a hint per peer and one more, got {hints}"
    );
    for (i, peer) in peers.iter().enumerate() {
        assert!(
            finished_by(peer, deadline),
            "peer {} of {PEERS} is still parked 1 s after a commit that left {hints} hints",
            i + 1
        );
    }
    for peer in peers {
        peer.join().unwrap();
    }
}

/// A barrier that lowers the participant count wakes the parked
/// participants: the one above the new count stands down at once
/// instead of staying parked while the run goes on without it. Worker
/// 0 holds `x`'s first firing while participant 1 parks; the telemetry
/// is primed fine-grained and the first iteration's measured cost
/// forced to 0 ns, so the barrier after `y` lowers the count to 1.
/// `x`'s second firing then holds the run open until participant 1 has
/// answered.
#[test]
fn a_barrier_that_lowers_the_count_wakes_parked_participants() {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    static PEER_AT_VERDICT: AtomicBool = AtomicBool::new(false);
    fn at_verdict(_: &Engine, _: &RunState) {
        PEER_AT_VERDICT.store(true, Ordering::SeqCst);
    }
    let g = TpdfGraph::builder()
        .kernel("x")
        .kernel("y")
        .channel("x", "y", RateSeq::constant(1), RateSeq::constant(1), 0)
        .build()
        .unwrap();
    let config = RuntimeConfig::new(Binding::new())
        .with_threads(2)
        .with_iterations(2);
    let executor = Executor::new(&g, config).unwrap();
    let engine = &executor.engine;
    engine.telemetry.record(0, WARM_UP_FIRINGS);
    let state = Arc::new(engine.initial_state(2));
    // A start "in the future": the barrier's saturating difference
    // measures the first iteration as 0 ns.
    state.barrier_ns.store(u64::MAX, Ordering::Relaxed);
    // One gate per firing of `x`, with an "entered" flag for the first.
    let entered = Arc::new(AtomicBool::new(false));
    let gates = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let mut registry = KernelRegistry::new();
    {
        let (entered, gates) = (Arc::clone(&entered), Arc::clone(&gates));
        let fired = AtomicUsize::new(0);
        registry.register_fn("x", move |ctx| {
            let gate = &gates[fired.fetch_add(1, Ordering::SeqCst).min(1)];
            entered.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
    }
    let registry = Arc::new(registry);
    let start = Instant::now();
    let holder = spawn_participant(engine, &state, 0, &registry, start, None);
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let peer = spawn_participant(engine, &state, 1, &registry, start, Some(at_verdict));
    while !PEER_AT_VERDICT.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // The peer holds the park lock from its verdict until it waits.
    drop(state.park.lock().unwrap());
    gates[0].store(true, Ordering::SeqCst);
    let answered = finished_by(&peer, Instant::now() + Duration::from_secs(1));
    // Let the run finish either way: its halt wakes a stuck peer.
    gates[1].store(true, Ordering::SeqCst);
    assert!(
        answered,
        "participant 1 stayed parked after the barrier lowered the count"
    );
    assert!(peer.join().unwrap(), "participant 1 must stand down");
    assert!(!holder.join().unwrap(), "worker 0 must finish the run");
    assert!(state.park.lock().unwrap().done);
}

#[test]
fn transaction_vote_selects_majority_value() {
    let g = fork_join_with_vote(3, 2);
    let mut registry = KernelRegistry::new();
    for (worker, value) in [("w0", 5i64), ("w1", 9), ("w2", 5)] {
        registry.register_fn(worker, move |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int(value)]);
            Ok(())
        });
    }
    let capture = crate::cases::OutputCapture::new();
    capture.install(&mut registry, "snk");
    let config = RuntimeConfig::new(Binding::new()).with_threads(4);
    let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
    // w1 disagrees; the two agreeing workers (value 5) win the vote.
    assert_eq!(capture.take_tokens(), vec![Token::Int(5)]);
    assert_eq!(metrics.vote_failures, 0);
}

#[test]
fn transaction_vote_failure_is_counted() {
    let g = fork_join_with_vote(3, 3);
    let mut registry = KernelRegistry::new();
    for (worker, value) in [("w0", 1i64), ("w1", 2), ("w2", 3)] {
        registry.register_fn(worker, move |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int(value)]);
            Ok(())
        });
    }
    let config = RuntimeConfig::new(Binding::new()).with_threads(2);
    let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
    assert_eq!(metrics.vote_failures, 1);
}

/// `fork_join` with a voting Transaction: src → dup → w0..wn → tran.
fn fork_join_with_vote(branches: usize, votes: u32) -> TpdfGraph {
    let mut b = TpdfGraph::builder()
        .kernel("src")
        .kernel_with("dup", KernelKind::SelectDuplicate, 1)
        .control("ctl")
        .kernel_with(
            "tran",
            KernelKind::Transaction {
                votes_required: votes,
            },
            1,
        )
        .kernel("snk")
        .channel("src", "dup", RateSeq::constant(1), RateSeq::constant(1), 0)
        .channel("src", "ctl", RateSeq::constant(1), RateSeq::constant(1), 0)
        .control_channel("ctl", "tran", RateSeq::constant(1), RateSeq::constant(1))
        .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0);
    for i in 0..branches {
        let name = format!("w{i}");
        b = b
            .kernel(&name)
            .channel("dup", &name, RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel_with_priority(
                &name,
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                (i + 1) as u32,
            );
    }
    b.build().unwrap()
}

/// src fans out to a fast and a slow kernel; a clock-driven
/// Transaction picks the best result available at the deadline.
fn deadline_graph() -> TpdfGraph {
    TpdfGraph::builder()
        .kernel("src")
        .kernel("fast")
        .kernel("slow")
        .kernel_with("clock", KernelKind::Clock { period: 50 }, 0)
        .kernel_with("tran", KernelKind::Transaction { votes_required: 0 }, 1)
        .kernel("snk")
        .channel("src", "fast", RateSeq::constant(1), RateSeq::constant(1), 0)
        .channel("src", "slow", RateSeq::constant(1), RateSeq::constant(1), 0)
        .channel_with_priority(
            "fast",
            "tran",
            RateSeq::constant(1),
            RateSeq::constant(1),
            0,
            1,
        )
        .channel_with_priority(
            "slow",
            "tran",
            RateSeq::constant(1),
            RateSeq::constant(1),
            0,
            2,
        )
        .control_channel("clock", "tran", RateSeq::constant(1), RateSeq::constant(1))
        .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0)
        .build()
        .unwrap()
}

fn sleepy_registry(fast_ms: u64, slow_ms: u64) -> KernelRegistry {
    let mut registry = KernelRegistry::new();
    for (name, delay, value) in [("fast", fast_ms, 1i64), ("slow", slow_ms, 2)] {
        registry.register_fn(name, move |ctx| {
            std::thread::sleep(Duration::from_millis(delay));
            ctx.fill_outputs_cycling(&[Token::Int(value)]);
            Ok(())
        });
    }
    registry
}

#[test]
fn real_deadline_takes_best_available_result() {
    // Clock period 50 units × 1 ms/unit = 50 ms deadline. The fast
    // kernel (10 ms) finishes before it, the slow one (250 ms) does
    // not: the Transaction must select the fast (lower-priority)
    // result at the deadline.
    let g = deadline_graph();
    let config = RuntimeConfig::new(Binding::new())
        .with_threads(4)
        .with_policy(ControlPolicy::HighestPriority)
        .with_real_time(Duration::from_millis(1));
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&sleepy_registry(10, 250))
        .unwrap();
    assert_eq!(metrics.deadline_misses, 0);
    assert_eq!(metrics.deadline_selections.len(), 1);
    let selection = &metrics.deadline_selections[0];
    assert_eq!(selection.selected_priority, Some(1), "fast input wins");
    let fast = g.node_by_name("fast").unwrap();
    let chan = selection.selected_channel.unwrap();
    assert_eq!(g.channel(chan).source, fast);
    // The deadline fired at ≈ 50 ms, well before the slow kernel.
    assert!(
        selection.at >= Duration::from_millis(45),
        "{:?}",
        selection.at
    );
    assert!(
        selection.at < Duration::from_millis(240),
        "{:?}",
        selection.at
    );
}

#[test]
fn real_deadline_miss_is_detected_and_survived() {
    // Both kernels are slower than the 50 ms deadline: the
    // Transaction fires empty at the deadline (a miss) and the sink
    // still receives a placeholder token.
    let g = deadline_graph();
    let config = RuntimeConfig::new(Binding::new())
        .with_threads(4)
        .with_policy(ControlPolicy::HighestPriority)
        .with_real_time(Duration::from_millis(1));
    let metrics = Executor::new(&g, config)
        .unwrap()
        .run(&sleepy_registry(150, 250))
        .unwrap();
    assert_eq!(metrics.deadline_misses, 1);
    assert_eq!(metrics.deadline_selections.len(), 1);
    assert_eq!(metrics.deadline_selections[0].selected_channel, None);
    let snk = g.node_by_name("snk").unwrap();
    assert_eq!(metrics.firings[snk.0], 1);
}
