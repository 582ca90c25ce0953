//! Wire-fed OFDM: the Figure 7 cognitive-radio demodulator adapted to
//! network ingestion.
//!
//! The in-memory [`OfdmRuntime`] case study replays a canned symbol
//! stream from its `SRC` kernel. [`wire_fed_ofdm`] swaps that source
//! for one popping time-domain samples from the connection's
//! [`NetFeed`] — everything downstream (`RCP`, `FFT`, the
//! data-dependent Transaction, the demappers) is byte-for-byte the
//! kernel set of the solo run, which is what makes the
//! wire-vs-solo identity tests meaningful.

use std::sync::Arc;

use tpdf_apps::ofdm::OfdmConfig;
use tpdf_runtime::cases::OfdmRuntime;
use tpdf_runtime::{RuntimeConfig, Token};

use crate::server::{NetApp, NetFeed};

/// Input tokens one run of the Figure 7 graph consumes: `SRC` emits
/// `β(N + L)` time-domain samples per iteration.
pub fn tokens_per_run(config: &OfdmConfig) -> u64 {
    (config.vectorization * (config.symbol_len + config.cyclic_prefix)) as u64
}

/// Builds a [`NetApp`] serving the OFDM demodulator with its samples
/// streamed over the wire, plus the bound [`OfdmRuntime`] (for
/// generating the matching client-side symbol stream and the solo
/// reference).
pub fn wire_fed_ofdm(config: OfdmConfig, seed: u64, threads: usize) -> (NetApp, OfdmRuntime) {
    let port = OfdmRuntime::new(config, seed);
    let runtime_config = RuntimeConfig::new(port.config().binding())
        .with_threads(threads)
        .with_mode_selector(port.mode_selector())
        .with_value_trace(port.value_trace());
    let tokens_out = port.reference_bits().len() as u64;
    let build_port = port.clone();
    let app = NetApp {
        graph: port.graph(),
        config: runtime_config,
        tokens_per_run: tokens_per_run(port.config()),
        tokens_out_per_run: tokens_out,
        build: Arc::new(move |feed: &NetFeed| {
            let (mut registry, capture) = build_port.registry();
            let feed = feed.clone();
            let m = build_port.config().bits_per_symbol;
            // Replace the canned source with the wire feed; port 1
            // still steers the control actor with the constellation.
            registry.register_fn("SRC", move |ctx| {
                for out in &mut ctx.outputs {
                    let rate = out.rate as usize;
                    match out.port {
                        0 => feed.pop_into(rate, &mut out.tokens),
                        _ => out.tokens.resize(rate, Token::Int(m as i64)),
                    }
                }
                Ok(())
            });
            (registry, capture)
        }),
    };
    (app, port)
}

/// The flattened time-domain sample stream one run consumes — what a
/// client sends between two barriers (identical to what the solo
/// `SRC` replays each iteration).
pub fn run_records(port: &OfdmRuntime) -> Vec<Token> {
    port.samples()
}
