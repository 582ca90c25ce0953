//! Reuse guarantees of the persistent [`ExecutorPool`]: repeated runs
//! on one pool must keep its worker count constant, must report
//! *per-run* metrics (nothing accumulates across runs), and must carry
//! the firing-cost EWMA across runs — a fine-grained graph classified
//! in run 1 starts run 2 on the collapsed single-worker fast path
//! without re-sampling from scratch, and a heavy graph measured on
//! short single-worker runs keeps its second worker. (That no run leaks an OS thread
//! is asserted in `tests/thread_leaks.rs`, which owns its process.)
//!
//! CI matrix knobs:
//!
//! * `TPDF_TEST_THREADS` — comma-separated pool sizes (default `1,2,4`);
//! * `TPDF_TEST_PLACEMENT` — `worksteal`, `affinity` or `all`
//!   (default `all`).

use tpdf_suite::core::examples::figure2_graph;
use tpdf_suite::manycore::MappingStrategy;
use tpdf_suite::runtime::kernel::KernelRegistry;
use tpdf_suite::runtime::{
    Executor, ExecutorPool, Metrics, PlacementPolicy, RunRequest, RuntimeConfig,
};
use tpdf_suite::sim::engine::{SimulationConfig, Simulator};
use tpdf_suite::symexpr::Binding;

/// Pool sizes from `TPDF_TEST_THREADS`. A spec that parses to nothing
/// is a hard error — running zero pools would pass vacuously.
fn pool_sizes() -> Vec<usize> {
    match std::env::var("TPDF_TEST_THREADS") {
        Ok(spec) => {
            let sizes: Vec<usize> = spec
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            assert!(
                !sizes.is_empty(),
                "TPDF_TEST_THREADS={spec:?} contains no usable pool size"
            );
            sizes
        }
        Err(_) => vec![1, 2, 4],
    }
}

fn placements() -> Vec<PlacementPolicy> {
    match std::env::var("TPDF_TEST_PLACEMENT").as_deref() {
        Ok("worksteal") => vec![PlacementPolicy::WorkStealing],
        Ok("affinity") => vec![
            PlacementPolicy::Affinity(MappingStrategy::RoundRobin),
            PlacementPolicy::Affinity(MappingStrategy::LoadBalanced),
        ],
        _ => vec![
            PlacementPolicy::WorkStealing,
            PlacementPolicy::Affinity(MappingStrategy::LoadBalanced),
        ],
    }
}

fn binding(p: i64) -> Binding {
    Binding::from_pairs([("p", p)])
}

/// A plain blocking run: the default request, submitted and waited.
fn run(pool: &ExecutorPool, executor: &Executor<'_>, registry: &KernelRegistry) -> Metrics {
    pool.submit(&executor.compile(), registry, RunRequest::default(), None)
        .wait()
        .expect("run completes")
        .metrics
}

/// N runs on one pool with *differing binding sequences*: a constant
/// worker count, per-run (not accumulated) metrics, firing counts
/// matching the count-level reference of each run's own configuration.
#[test]
fn repeated_runs_keep_the_pool_size_and_reset_metrics() {
    let graph = figure2_graph();
    let registry = KernelRegistry::new();
    for threads in pool_sizes() {
        for placement in placements() {
            let pool = ExecutorPool::new(threads);
            assert_eq!(pool.worker_count(), threads);
            assert_eq!(pool.spawned_workers(), threads - 1);

            let sequences: [Vec<Binding>; 4] = [
                vec![binding(1)],
                vec![binding(2), binding(3)],
                vec![binding(3), binding(1), binding(2)],
                vec![binding(2), binding(3)], // repeat of run 1's config
            ];
            let mut all_metrics = Vec::new();
            for sequence in &sequences {
                let config = RuntimeConfig::new(binding(1))
                    .with_threads(threads)
                    .with_iterations(4)
                    .with_placement(placement)
                    .with_binding_sequence(sequence.clone());
                let reference = Simulator::new(
                    &graph,
                    SimulationConfig::new(binding(1)).with_binding_sequence(sequence.clone()),
                )
                .unwrap()
                .run_iterations(4)
                .unwrap();
                let executor = pool.executor(&graph, config).unwrap();
                let metrics = run(&pool, &executor, &registry);
                // Per-run metrics: every run reports its own 4
                // iterations and its own reference-matching firing
                // counts — nothing carries over from earlier runs.
                assert_eq!(metrics.iterations, 4, "{placement:?} @ {threads}");
                assert_eq!(
                    metrics.firings, reference.firings,
                    "{placement:?} @ {threads}, sequence {sequence:?}"
                );
                assert_eq!(
                    metrics.worker_firings.iter().sum::<u64>(),
                    metrics.firings.iter().sum::<u64>()
                );
                all_metrics.push(metrics);
            }
            // Identical configs (runs 1 and 3) give identical counters.
            assert_eq!(all_metrics[1].firings, all_metrics[3].firings);
            assert_eq!(all_metrics[1].tokens_pushed, all_metrics[3].tokens_pushed);

            // The pool's workers were spawned at construction and
            // none were added by any run.
            assert_eq!(pool.worker_count(), threads);
            assert_eq!(pool.spawned_workers(), threads - 1);
        }
    }
}

/// Regression for the `Metrics` reset gap with *concurrent* jobs:
/// `worker_firings` / `worker_steals` must be tallied per job (indexed
/// by the job's own participation slots), never per pool-worker
/// lifetime. With the single-slot pool a worker's index doubled as its
/// job index; once several jobs share the pool, lifetime-indexed
/// counters would smear one job's firings into its neighbours'
/// metrics. Submitting many concurrent jobs and checking each job's
/// counters against its own solo reference catches both the smear and
/// any cross-job accumulation.
#[test]
fn concurrent_jobs_tally_worker_metrics_per_job() {
    let graph = figure2_graph();
    let registry = KernelRegistry::new();
    let pool = ExecutorPool::detached(4);

    let params: [i64; 6] = [1, 2, 3, 4, 2, 3];
    let mut tickets = Vec::new();
    let mut references = Vec::new();
    for (i, &p) in params.iter().enumerate() {
        let config = RuntimeConfig::new(binding(p))
            .with_threads(1 + i % 3)
            .with_iterations(3);
        references.push(
            Simulator::new(&graph, SimulationConfig::new(binding(p)))
                .unwrap()
                .run_iterations(3)
                .unwrap(),
        );
        let compiled = pool.executor(&graph, config).unwrap().compile();
        tickets.push(pool.submit(&compiled, &registry, RunRequest::default(), None));
    }
    for (ticket, reference) in tickets.into_iter().zip(&references) {
        let metrics = ticket.wait().unwrap().metrics;
        assert_eq!(metrics.firings, reference.firings);
        // Per-job tally: this job's participation slots account for
        // exactly this job's firings — no bleed from the jobs that ran
        // concurrently on the same pool workers.
        assert_eq!(
            metrics.worker_firings.len(),
            metrics.effective_workers,
            "one counter per participation slot"
        );
        assert_eq!(
            metrics.worker_firings.iter().sum::<u64>(),
            metrics.firings.iter().sum::<u64>(),
            "worker firings must sum to the job's own firings"
        );
        assert_eq!(metrics.worker_steals.len(), metrics.effective_workers);
        assert!(
            metrics.worker_steals.iter().sum::<u64>() <= metrics.firings.iter().sum::<u64>(),
            "steals are a subset of the job's own firings"
        );
    }
}

/// The EWMA telemetry carries across runs: a fine-grained graph is
/// classified during run 1, and run 2 starts already collapsed to the
/// single-worker fast path (`effective_workers == 1`) — with a
/// *different* binding sequence, proving the carry-over is on the pool,
/// not on one executor's plans.
#[test]
fn telemetry_carries_over_and_collapses_run_two() {
    let graph = figure2_graph();
    let registry = KernelRegistry::new();
    let pool = ExecutorPool::new(2);

    // Run 1: no samples yet, so the full pool is engaged; figure2's
    // rate-only kernels are far below the fine-grain threshold and the
    // ~34 firings/iteration × 5 iterations yield plenty of samples.
    let first = pool
        .executor(
            &graph,
            RuntimeConfig::new(binding(4))
                .with_threads(2)
                .with_iterations(5),
        )
        .unwrap();
    let metrics1 = run(&pool, &first, &registry);
    assert_eq!(metrics1.effective_workers, 2.min(pool.worker_count()));
    let learned = pool
        .sampled_firing_cost_ns()
        .expect("run 1 must leave samples on the pool");

    // Run 2: a fresh executor (different binding sequence) on the same
    // pool starts classified — no re-sampling from scratch.
    let second = pool
        .executor(
            &graph,
            RuntimeConfig::new(binding(1))
                .with_threads(2)
                .with_iterations(3)
                .with_binding_sequence(vec![binding(1), binding(3)]),
        )
        .unwrap();
    assert!(
        second.sampled_firing_cost_ns().is_some(),
        "a pool-built executor shares the pool's telemetry"
    );
    let metrics2 = run(&pool, &second, &registry);
    assert_eq!(
        metrics2.effective_workers, 1,
        "run 2 must start on the collapsed single-worker path \
         (pool EWMA after run 1: {learned} ns)"
    );
    assert_eq!(metrics2.iterations, 3);
}

/// Every firing of an iteration counts toward the cost estimate, so a
/// run of cheap and heavy nodes is measured by its mean, not by
/// whichever node happened to fire first. Figure 2 at `p = 1` with a
/// free `A` and 50 µs `B`–`F` costs about 40 µs per firing; ten
/// single-worker runs must leave an estimate that keeps a 2-thread run
/// on both workers. (A sampler that times only each run's first firing
/// — always the free `A` — reads well under a microsecond and collapses
/// the 2-thread run.)
#[test]
fn short_single_worker_runs_measure_every_firing() {
    fn spin(duration: std::time::Duration) {
        let start = std::time::Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }
    let graph = figure2_graph();
    let pool = ExecutorPool::new(2);
    let mut registry = KernelRegistry::new();
    for node in ["B", "C", "D", "E", "F"] {
        registry.register_fn(node, |ctx| {
            spin(std::time::Duration::from_micros(50));
            ctx.fill_outputs_from_inputs();
            Ok(())
        });
    }
    let single = pool
        .executor(&graph, RuntimeConfig::new(binding(1)).with_threads(1))
        .unwrap();
    for _ in 0..10 {
        assert_eq!(run(&pool, &single, &registry).effective_workers, 1);
    }
    let estimate = pool.sampled_firing_cost_ns().expect("ten runs measured");
    let double = pool
        .executor(&graph, RuntimeConfig::new(binding(1)).with_threads(2))
        .unwrap();
    assert_eq!(
        run(&pool, &double, &registry).effective_workers,
        2,
        "a 50 µs graph must keep its second worker (estimate: {estimate} ns)"
    );
}
