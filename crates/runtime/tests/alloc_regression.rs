//! Allocation-regression guard: a steady-state firing allocates
//! nothing.
//!
//! The per-worker [`tpdf_runtime::SlabArena`] recycles every firing
//! slab, the executor reuses its port containers and scalar buffers,
//! and the mode logs and ready queues are pre-reserved — so once the
//! arenas are warm, extra iterations must not touch the global
//! allocator at all. This test pins that down with a counting
//! allocator: a graph is run twice on the single-worker fast path, once
//! for a few iterations and once for many, and the two runs must
//! perform *exactly* the same number of allocations. Any per-firing (or
//! per-iteration) allocation that sneaks back into the hot path makes
//! the counts diverge by hundreds and fails loudly.
//!
//! Two graphs are guarded: the rate-only figure2 example on the
//! built-in kernels, and the Figure 7 OFDM demodulator on its real
//! kernels (`OfdmRuntime::registry`), which read their input slabs and
//! write their output slabs in place.
//!
//! The guard lives in its own integration-test binary because the
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tpdf_apps::ofdm::OfdmConfig;
use tpdf_core::examples::figure2_graph;
use tpdf_runtime::{Executor, KernelRegistry, OfdmRuntime, RuntimeConfig};
use tpdf_symexpr::Binding;

/// Counts every allocation (alloc, alloc_zeroed, realloc) and defers
/// to the system allocator. Deallocations are not counted: the guard
/// compares allocation *counts*, and frees mirror allocations.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations performed by running figure2 for `iterations`
/// iterations on the single-worker fast path (1 thread, virtual
/// clock — the benchmarked configuration). Executor construction stays
/// outside the measured window; the window covers the whole `run`,
/// including metrics assembly, whose allocation count is independent
/// of the iteration count.
fn allocations_for(iterations: u64) -> u64 {
    let graph = figure2_graph();
    let config = RuntimeConfig::new(Binding::from_pairs([("p", 8)]))
        .with_threads(1)
        .with_iterations(iterations);
    let executor = Executor::new(&graph, config).expect("figure2 configures");
    let registry = KernelRegistry::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let metrics = executor.run(&registry).expect("figure2 runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(metrics.iterations, iterations);
    assert!(
        metrics.arena_misses > 0,
        "cold start must warm the arena through misses"
    );
    assert!(
        metrics.arena_hits > metrics.arena_misses,
        "steady state must be served from the arena freelists"
    );
    after - before
}

/// Allocations performed by running the OFDM demodulator (N = 16,
/// L = 2, β = 2, QPSK) with its real kernels for `iterations`
/// iterations on one worker. The sink's capture is reserved up front
/// for the whole run, so its growth cannot differ between run lengths;
/// every other allocation in the window is per run, not per firing.
fn ofdm_allocations_for(iterations: u64) -> u64 {
    let port = OfdmRuntime::new(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        7,
    );
    let graph = port.graph();
    let (registry, capture) = port.registry();
    let bits_per_run = port.reference_bits().len();
    capture.restore_tokens(Vec::with_capacity(bits_per_run * iterations as usize));
    let config = RuntimeConfig::new(port.config().binding())
        .with_threads(1)
        .with_iterations(iterations)
        .with_mode_selector(port.mode_selector())
        .with_value_trace(port.value_trace());
    let executor = Executor::new(&graph, config).expect("OFDM configures");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let metrics = executor.run(&registry).expect("OFDM runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(metrics.iterations, iterations);
    let bits = capture.bits();
    assert_eq!(bits.len(), bits_per_run * iterations as usize);
    assert!(
        bits.chunks(bits_per_run)
            .all(|run| run == port.reference_bits()),
        "every iteration demodulates the reference bits"
    );
    after - before
}

/// Asserts that `allocations` counts the same at 8 and 64 iterations.
fn assert_steady(graph: &str, allocations: fn(u64) -> u64) {
    // One throwaway run absorbs process-level one-time costs (lazy
    // locks, thread-local init) so the two measured runs are
    // like-for-like.
    allocations(2);
    let short = allocations(8);
    let long = allocations(64);
    assert_eq!(
        short, long,
        "{graph}: 56 extra iterations changed the allocation count: \
         a per-firing allocation is back on the hot path"
    );
}

/// One test, not one per graph: the counter is process-wide, so two
/// tests measuring at once would count each other's allocations.
#[test]
fn steady_state_iterations_allocate_nothing() {
    assert_steady("figure2", allocations_for);
    assert_steady("OFDM", ofdm_allocations_for);
}
