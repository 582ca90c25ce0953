//! What one small run costs on a persistent pool, split into kernels,
//! executor and the graph-free computation.
//!
//! Every row times `ExecutorPool::submit` + `JobTicket::wait` of one run
//! (one iteration, a one-thread configuration on a pool of 2, as the
//! wire sessions run it) and prints the median over 4 500 runs after
//! 500 discarded warm-up runs:
//!
//! * the Figure 7 OFDM demodulator (N = 16, L = 2, β = 2, QPSK, with
//!   its data-dependent control) on its real kernels, and on the
//!   built-in default kernels, which move the same token counts without
//!   computing anything;
//! * the graph-free `OfdmRuntime::reference_bits` of the same symbols;
//! * the rate-only Figure 2 example at `p` = 1, 8 and 16 on default
//!   kernels, with the median divided by the run's firings.
//!
//! ```text
//! cargo run --release -p tpdf-runtime --example run_cost
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use tpdf_apps::ofdm::OfdmConfig;
use tpdf_core::examples::figure2_graph;
use tpdf_runtime::{
    CompiledExecutor, ExecutorPool, KernelRegistry, OfdmRuntime, RunRequest, RuntimeConfig,
};
use tpdf_symexpr::Binding;

const WARM_UP: usize = 500;
const RUNS: usize = 4_500;

/// The median of `RUNS` timings of `op`, after `WARM_UP` discarded
/// ones.
fn p50(mut op: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..WARM_UP + RUNS).map(|_| op()).skip(WARM_UP).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The median wall time of one blocking run; `between` runs untimed
/// after each run.
fn run_p50(
    pool: &ExecutorPool,
    compiled: &CompiledExecutor,
    registry: &KernelRegistry,
    mut between: impl FnMut(),
) -> Duration {
    p50(|| {
        let start = Instant::now();
        pool.submit(compiled, registry, RunRequest::default(), None)
            .wait()
            .expect("run completes");
        let elapsed = start.elapsed();
        between();
        elapsed
    })
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let pool = ExecutorPool::new(2);
    println!("{:<40} {:>9} {:>12}", "run", "p50 µs", "ns/firing");

    let ofdm = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        1,
    );
    let graph = ofdm.graph();
    let config = RuntimeConfig::new(ofdm.config().binding())
        .with_threads(1)
        .with_mode_selector(ofdm.mode_selector())
        .with_value_trace(ofdm.value_trace());
    let compiled = pool
        .executor(&graph, config)
        .expect("OFDM configures")
        .compile();

    let (registry, capture) = ofdm.registry();
    let expected = ofdm.reference_bits();
    let real = run_p50(&pool, &compiled, &registry, || {
        // Check every run, and hand the capture its emptied buffer back
        // so the sink does not regrow it inside the next timed run.
        let mut tokens = capture.take_tokens();
        assert_eq!(tokens.len(), expected.len(), "one run's bits");
        tokens.clear();
        capture.restore_tokens(tokens);
    });
    println!("{:<40} {:>9.1}", "OFDM, real kernels", micros(real));

    let default = run_p50(&pool, &compiled, &KernelRegistry::new(), || {});
    println!("{:<40} {:>9.1}", "OFDM, default kernels", micros(default));

    let reference = p50(|| {
        let start = Instant::now();
        black_box(black_box(&ofdm).reference_bits());
        start.elapsed()
    });
    println!(
        "{:<40} {:>9.1}",
        "OFDM reference_bits (no graph)",
        micros(reference)
    );

    let figure2 = figure2_graph();
    for p in [1, 8, 16] {
        let config = RuntimeConfig::new(Binding::from_pairs([("p", p)])).with_threads(1);
        let compiled = pool
            .executor(&figure2, config)
            .expect("figure2 configures")
            .compile();
        let registry = KernelRegistry::new();
        let firings: u64 = pool
            .submit(&compiled, &registry, RunRequest::default(), None)
            .wait()
            .expect("figure2 runs")
            .metrics
            .firings
            .iter()
            .sum();
        let time = run_p50(&pool, &compiled, &registry, || {});
        println!(
            "{:<40} {:>9.1} {:>12.0}",
            format!("Figure 2, p = {p} ({firings} firings)"),
            micros(time),
            time.as_nanos() as f64 / firings as f64
        );
    }
}
