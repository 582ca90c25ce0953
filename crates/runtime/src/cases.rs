//! The paper's case studies ported to the runtime: edge detection
//! (Section IV-A / Figure 6), the cognitive-radio OFDM demodulator
//! (Section IV-B / Figure 7) and the FM-radio multi-band equalizer
//! (the StreamIt-style benchmark of Section IV-B), running on real
//! pixels and real samples.
//!
//! Each port pairs the TPDF graph from `tpdf-apps` with a
//! [`KernelRegistry`] of executable behaviours and returns an
//! [`OutputCapture`] handle from which the tokens that reached the sink
//! can be read back after the run — that is what the cross-validation
//! suite compares against the direct (graph-free) computation.

use crate::kernel::KernelRegistry;
use crate::token::{Token, TokenBytes};
use crate::RuntimeError;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tpdf_apps::dsp::{demap, fft, random_samples, remove_cyclic_prefix, Complex};
use tpdf_apps::edge_detection::{detector_node_name, EdgeDetectionApp, EdgeDetector};
use tpdf_apps::fm_radio::{FmRadio, FmRadioConfig};
use tpdf_apps::image::GrayImage;
use tpdf_apps::ofdm::{OfdmConfig, OfdmDemodulator};
use tpdf_core::control::{ModeSelector, TableTrace, ValueMapSelector, ValueTrace};
use tpdf_core::graph::TpdfGraph;
use tpdf_core::mode::Mode;
use tpdf_core::rate::RateSeq;

/// Collects every token a sink kernel consumed, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct OutputCapture {
    tokens: Arc<Mutex<Vec<Token>>>,
}

impl OutputCapture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the named node as a capturing sink in `registry`.
    pub fn install(&self, registry: &mut KernelRegistry, node: &str) {
        let tokens = Arc::clone(&self.tokens);
        registry.register_fn(node, move |ctx| {
            let consumed = ctx.concatenated_inputs();
            tokens
                .lock()
                .expect("capture lock")
                .extend(consumed.iter().cloned());
            // A sink may still have outputs in some graphs; forward.
            ctx.fill_outputs_cycling(&consumed);
            Ok(())
        });
    }

    /// Drains the capture: all tokens collected so far, in arrival
    /// order, moved out without copying. Subsequent reads see an empty
    /// capture.
    pub fn take_tokens(&self) -> Vec<Token> {
        std::mem::take(&mut *self.tokens.lock().expect("capture lock"))
    }

    /// Clones the captured-but-untaken tokens without draining them —
    /// what a checkpoint stores in [`crate::Checkpoint::captured`] so
    /// the capture's state survives executor teardown: restore with
    /// [`OutputCapture::restore_tokens`], and a later
    /// [`OutputCapture::take_tokens`] equals the uninterrupted capture.
    pub fn snapshot_tokens(&self) -> Vec<Token> {
        self.tokens.lock().expect("capture lock").clone()
    }

    /// Replaces the capture's contents with a checkpointed snapshot
    /// (the tokens captured before the teardown), so tokens captured
    /// after the restore extend the original stream seamlessly.
    pub fn restore_tokens(&self, tokens: Vec<Token>) {
        *self.tokens.lock().expect("capture lock") = tokens;
    }

    /// Tokens captured so far.
    pub fn len(&self) -> usize {
        self.tokens.lock().expect("capture lock").len()
    }

    /// Whether nothing has been captured (yet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs a read-only view over the captured tokens under the lock —
    /// the typed accessors below project through this instead of
    /// cloning the whole stream, and none of them drain, so repeated
    /// reads agree.
    fn read<R>(&self, project: impl FnOnce(&[Token]) -> R) -> R {
        project(&self.tokens.lock().expect("capture lock"))
    }

    /// The captured tokens interpreted as a bit stream (non-byte tokens
    /// are skipped).
    pub fn bits(&self) -> Vec<u8> {
        self.read(|tokens| tokens.iter().filter_map(Token::as_byte).collect())
    }

    /// The captured tokens interpreted as images.
    pub fn images(&self) -> Vec<GrayImage> {
        self.read(|tokens| {
            tokens
                .iter()
                .filter_map(|t| t.as_image().cloned())
                .collect()
        })
    }

    /// The captured tokens interpreted as an audio stream (non-float
    /// tokens are skipped).
    pub fn floats(&self) -> Vec<f64> {
        self.read(|tokens| tokens.iter().filter_map(Token::as_float).collect())
    }

    /// The captured tokens flattened to one byte stream: `Byte` tokens
    /// contribute themselves, [`crate::token::TokenBytes`] blocks their
    /// whole payload — so a scalar-per-byte pipeline and a
    /// block-handle pipeline carrying the same data compare equal.
    pub fn byte_stream(&self) -> Vec<u8> {
        self.read(|tokens| {
            let mut bytes = Vec::new();
            for token in tokens {
                match token {
                    Token::Byte(b) => bytes.push(*b),
                    Token::Block(block) => bytes.extend_from_slice(block.as_slice()),
                    _ => {}
                }
            }
            bytes
        })
    }
}

/// The edge-detection application bound to a concrete input image.
#[derive(Debug, Clone)]
pub struct EdgeDetectionRuntime {
    app: EdgeDetectionApp,
    image: GrayImage,
}

impl EdgeDetectionRuntime {
    /// Creates the port for the given application parameters and input
    /// image.
    pub fn new(app: EdgeDetectionApp, image: GrayImage) -> Self {
        EdgeDetectionRuntime { app, image }
    }

    /// The Figure 6 TPDF graph.
    pub fn graph(&self) -> TpdfGraph {
        self.app.graph()
    }

    /// The application parameters.
    pub fn app(&self) -> &EdgeDetectionApp {
        &self.app
    }

    /// Builds the kernel registry: `IRead` emits the input image, each
    /// detector kernel runs its real detector, `IWrite` captures the
    /// result selected by the Transaction kernel.
    ///
    /// With `simulated_times = Some(unit)` every detector additionally
    /// sleeps its configured execution time (in units of `unit`) before
    /// computing, reproducing the paper's Figure 6 timing profile in
    /// real time — that is what makes the Clock's 500-unit deadline
    /// select Sobel rather than the slower, better Prewitt/Canny.
    pub fn registry(&self, simulated_times: Option<Duration>) -> (KernelRegistry, OutputCapture) {
        let mut registry = KernelRegistry::new();

        let image = self.image.clone();
        registry.register_fn("IRead", move |ctx| {
            let token = Token::image(image.clone());
            ctx.fill_outputs_cycling(std::slice::from_ref(&token));
            Ok(())
        });

        for detector in EdgeDetector::ALL {
            let delay = simulated_times.map(|unit| unit * self.app.execution_time(detector) as u32);
            registry.register_fn(detector_node_name(detector), move |ctx| {
                if let Some(delay) = delay {
                    std::thread::sleep(delay);
                }
                let input = ctx
                    .inputs
                    .first()
                    .and_then(|p| p.tokens.first())
                    .and_then(Token::as_image)
                    .ok_or_else(|| RuntimeError::KernelFailed {
                        node: ctx.node.to_string(),
                        message: "expected an image token".to_string(),
                    })?;
                let edges = Token::image(detector.run(input));
                ctx.fill_outputs_cycling(std::slice::from_ref(&edges));
                Ok(())
            });
        }

        let capture = OutputCapture::new();
        capture.install(&mut registry, "IWrite");
        (registry, capture)
    }

    /// The edge map the graph-free reference computation produces for
    /// `detector` on the bound image.
    pub fn reference_edges(&self, detector: EdgeDetector) -> GrayImage {
        detector.run(&self.image)
    }
}

/// The OFDM demodulator bound to a concrete generated symbol stream.
#[derive(Debug, Clone)]
pub struct OfdmRuntime {
    demod: OfdmDemodulator,
    symbols: Vec<Vec<Complex>>,
    sent_bits: Vec<u8>,
}

impl OfdmRuntime {
    /// Creates the port: generates `β` OFDM symbols (and the payload
    /// bits they encode) with the transmitter-side model.
    pub fn new(config: OfdmConfig, seed: u64) -> Self {
        let demod = OfdmDemodulator::new(config);
        let (symbols, sent_bits) = demod.generate_symbols(seed);
        OfdmRuntime {
            demod,
            symbols,
            sent_bits,
        }
    }

    /// The Figure 7 TPDF graph.
    pub fn graph(&self) -> TpdfGraph {
        self.demod.tpdf_graph()
    }

    /// The demodulator configuration.
    pub fn config(&self) -> &OfdmConfig {
        self.demod.config()
    }

    /// The payload bits encoded in the generated symbols.
    pub fn sent_bits(&self) -> &[u8] {
        &self.sent_bits
    }

    /// The flattened time-domain sample stream `SRC` replays each
    /// iteration — exactly what a wire-fed source must be sent per
    /// run to match the solo execution byte for byte.
    pub fn samples(&self) -> Vec<Token> {
        self.symbols
            .iter()
            .flat_map(|symbol| symbol.iter().map(|&c| Token::Complex(c)))
            .collect()
    }

    /// The bit stream the graph-free reference demodulation produces
    /// (`RCP → FFT → demap` applied directly).
    pub fn reference_bits(&self) -> Vec<u8> {
        self.demod.demodulate(&self.symbols)
    }

    /// Builds the kernel registry implementing Figure 7 on real samples:
    /// `SRC` replays the generated symbols, `RCP` strips cyclic
    /// prefixes, `FFT` transforms each symbol, `QPSK`/`QAM` demap, and
    /// the Transaction forwards the constellation selected by the
    /// control token to the capturing `SNK`.
    pub fn registry(&self) -> (KernelRegistry, OutputCapture) {
        let mut registry = KernelRegistry::new();
        let config = *self.demod.config();
        let n = config.symbol_len;
        let cp = config.cyclic_prefix;
        let m = config.bits_per_symbol;

        let samples: Vec<Token> = self
            .symbols
            .iter()
            .flat_map(|symbol| symbol.iter().map(|&c| Token::Complex(c)))
            .collect();
        registry.register_fn("SRC", move |ctx| {
            // Port 0: the β(N+L) time-domain samples; port 1: the active
            // constellation (M) towards the control actor.
            for out in &mut ctx.outputs {
                out.tokens = match out.port {
                    0 => samples.iter().take(out.rate as usize).cloned().collect(),
                    _ => vec![Token::Int(m as i64); out.rate as usize],
                };
            }
            Ok(())
        });

        registry.register_fn("RCP", move |ctx| {
            let samples = complex_inputs(ctx)?;
            let trimmed: Vec<Token> = samples
                .chunks(n + cp)
                .flat_map(|symbol| remove_cyclic_prefix(symbol, cp))
                .map(Token::Complex)
                .collect();
            ctx.fill_outputs_cycling(&trimmed);
            Ok(())
        });

        registry.register_fn("FFT", move |ctx| {
            let samples = complex_inputs(ctx)?;
            let spectrum: Vec<Token> = samples
                .chunks(n)
                .flat_map(fft)
                .map(Token::Complex)
                .collect();
            ctx.fill_outputs_cycling(&spectrum);
            Ok(())
        });

        registry.register_fn("QPSK", move |ctx| {
            let spectrum = complex_inputs(ctx)?;
            let bits: Vec<Token> = demap(&spectrum, 2).into_iter().map(Token::Byte).collect();
            ctx.fill_outputs_cycling(&bits);
            Ok(())
        });

        registry.register_fn("QAM", move |ctx| {
            let spectrum = complex_inputs(ctx)?;
            let bits: Vec<Token> = demap(&spectrum, 4).into_iter().map(Token::Byte).collect();
            ctx.fill_outputs_cycling(&bits);
            Ok(())
        });

        let capture = OutputCapture::new();
        capture.install(&mut registry, "SNK");
        (registry, capture)
    }

    /// The data-input port of `TRAN` matching the configured
    /// constellation (0 = QPSK, 1 = QAM), i.e. the `SelectInput` policy
    /// choice that makes the runtime demodulate correctly.
    pub fn matching_port(&self) -> usize {
        if self.demod.config().bits_per_symbol == 4 {
            1
        } else {
            0
        }
    }

    /// The data-dependent mode selector of Figure 7's `CON`: the
    /// control actor reads the constellation size `M` out of the tokens
    /// `SRC` sends it and steers `TRAN` to the matching demap path
    /// (`M = 2` → the QPSK input, `M = 4` → the QAM input). No scripted
    /// `ControlPolicy` is involved — the graph reacts to its own
    /// stream, which is the paper's context dependence.
    pub fn mode_selector(&self) -> Arc<dyn ModeSelector> {
        Arc::new(ValueMapSelector::new(
            [(2, Mode::SelectOne(0)), (4, Mode::SelectOne(1))],
            Mode::WaitAll,
        ))
    }

    /// The value trace the count-level simulation (cross-validation and
    /// the executor's sizing reference) uses for `CON`'s input: `SRC`
    /// emits its configured `M` on every token of the `SRC → CON`
    /// channel, exactly as the registered `SRC` behaviour does with
    /// real tokens.
    pub fn value_trace(&self) -> Arc<dyn ValueTrace> {
        let graph = self.graph();
        let src = graph.node_by_name("SRC").expect("Figure 7 has SRC");
        let con = graph.node_by_name("CON").expect("Figure 7 has CON");
        let label = graph
            .channels()
            .find(|(_, c)| c.source == src && c.target == con)
            .map(|(_, c)| c.label.clone())
            .expect("SRC feeds CON");
        let m = self.demod.config().bits_per_symbol as i64;
        TableTrace::new([(label, vec![m])]).shared()
    }
}

/// The FM-radio multi-band equalizer bound to a concrete generated RF
/// block.
///
/// This is the third cross-validation target: unlike edge detection
/// and OFDM (whose Transactions select between *different algorithms*
/// computing comparable results), the FM radio's control actor steers a
/// wide Select-Duplicate fan-out — one channel per equalizer band — of
/// which a mode typically enables a small subset. Its rejected band
/// channels exercise the iteration-boundary flush rule on many
/// channels at once.
#[derive(Debug, Clone)]
pub struct FmRadioRuntime {
    radio: FmRadio,
    samples: Vec<Complex>,
}

impl FmRadioRuntime {
    /// Taps of the complex low-pass front-end filter.
    const LOWPASS_TAPS: usize = 4;

    /// Creates the port: generates one deterministic block of baseband
    /// samples which the source replays on every firing.
    pub fn new(config: FmRadioConfig, seed: u64) -> Self {
        let samples = random_samples(config.block, seed);
        FmRadioRuntime {
            radio: FmRadio::new(config),
            samples,
        }
    }

    /// The TPDF graph (`src → lowpass → demod → dup → band_i → sum →
    /// sink` with a control actor steering `sum`).
    pub fn graph(&self) -> TpdfGraph {
        self.radio.tpdf_graph()
    }

    /// The benchmark configuration.
    pub fn config(&self) -> &FmRadioConfig {
        self.radio.config()
    }

    /// The parameter binding of the graph (`B` = block size).
    pub fn binding(&self) -> tpdf_symexpr::Binding {
        self.radio.binding()
    }

    /// The per-band gain of the equalizer (a fixed, deterministic
    /// profile: band `i` is scaled by `0.5 + i/4`).
    fn band_gain(band: usize) -> f64 {
        0.5 + band as f64 * 0.25
    }

    /// The graph-free reference computation of band `band`: low-pass,
    /// FM-demodulate, then apply the band's gain and smoothing.
    pub fn reference_audio(&self, band: usize) -> Vec<f64> {
        let demodulated = FmRadio::fm_demodulate(&Self::lowpass_block(&self.samples));
        Self::band_transform(band, &demodulated)
    }

    /// The band selected by the built-in Transaction under `WaitAll`:
    /// the highest-priority input, i.e. the last band.
    pub fn waitall_band(&self) -> usize {
        self.radio.config().bands - 1
    }

    fn lowpass_block(samples: &[Complex]) -> Vec<Complex> {
        let res: Vec<f64> = samples.iter().map(|c| c.re).collect();
        let ims: Vec<f64> = samples.iter().map(|c| c.im).collect();
        let res = FmRadio::low_pass(&res, Self::LOWPASS_TAPS);
        let ims = FmRadio::low_pass(&ims, Self::LOWPASS_TAPS);
        res.into_iter()
            .zip(ims)
            .map(|(re, im)| Complex::new(re, im))
            .collect()
    }

    fn band_transform(band: usize, audio: &[f64]) -> Vec<f64> {
        let gain = Self::band_gain(band);
        FmRadio::low_pass(audio, band + 2)
            .into_iter()
            .map(|x| x * gain)
            .collect()
    }

    /// Builds the kernel registry implementing the pipeline on real
    /// samples: `src` replays the RF block (and feeds the profile
    /// control actor), `lowpass` filters, `demod` FM-demodulates, the
    /// built-in Select-Duplicate fans the audio out to every band
    /// kernel, and the built-in Transaction (`sum`) forwards the band
    /// selected by the control token to the capturing `sink`.
    pub fn registry(&self) -> (KernelRegistry, OutputCapture) {
        let mut registry = KernelRegistry::new();

        let samples: Vec<Token> = self.samples.iter().map(|&c| Token::Complex(c)).collect();
        registry.register_fn("src", move |ctx| {
            // Port 0: the B baseband samples; port 1: a profile marker
            // towards the control actor.
            for out in &mut ctx.outputs {
                match out.port {
                    0 => out.write_cycled(&samples),
                    _ => out.write_cycled(&[Token::Int(1)]),
                }
            }
            Ok(())
        });

        registry.register_fn("lowpass", move |ctx| {
            let filtered: Vec<Token> = Self::lowpass_block(&complex_inputs(ctx)?)
                .into_iter()
                .map(Token::Complex)
                .collect();
            ctx.fill_outputs_cycling(&filtered);
            Ok(())
        });

        registry.register_fn("demod", move |ctx| {
            let audio: Vec<Token> = FmRadio::fm_demodulate(&complex_inputs(ctx)?)
                .into_iter()
                .map(Token::Float)
                .collect();
            ctx.fill_outputs_cycling(&audio);
            Ok(())
        });

        for band in 0..self.radio.config().bands {
            registry.register_fn(format!("band{band}"), move |ctx| {
                let audio = float_inputs(ctx)?;
                let shaped: Vec<Token> = Self::band_transform(band, &audio)
                    .into_iter()
                    .map(Token::Float)
                    .collect();
                ctx.fill_outputs_cycling(&shaped);
                Ok(())
            });
        }

        let capture = OutputCapture::new();
        capture.install(&mut registry, "sink");
        (registry, capture)
    }
}

/// How a [`PayloadRuntime`] pipeline encodes its bytes as tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadEncoding {
    /// One `Token::Byte` per payload byte — every hop copies the whole
    /// payload token by token (the clone baseline).
    Scalar,
    /// One refcounted [`TokenBytes`] block per row — hops move a
    /// handle, the payload bytes are never copied.
    Block,
}

/// A large-payload pipeline (`SRC → RELAY → SNK`) moving the same
/// bytes either as per-byte scalar tokens or as refcounted
/// [`TokenBytes`] row handles — the runtime's demonstration (and
/// benchmark substrate) for zero-copy payload movement, standing in
/// for the case studies' image rows and OFDM symbol blocks.
///
/// Both encodings carry an identical byte stream to the sink
/// ([`OutputCapture::byte_stream`] compares them directly); only the
/// token count per firing differs, so the graphs are rebuilt per
/// encoding with matching rates.
#[derive(Debug, Clone)]
pub struct PayloadRuntime {
    rows: usize,
    row_bytes: usize,
    payload: Vec<u8>,
    row_blocks: Vec<TokenBytes>,
}

impl PayloadRuntime {
    /// Creates the pipeline state: `rows` rows of `row_bytes`
    /// deterministic pseudo-random bytes each.
    pub fn new(rows: usize, row_bytes: usize, seed: u64) -> Self {
        let mut state = seed | 1;
        let payload: Vec<u8> = (0..rows * row_bytes)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let row_blocks = payload.chunks(row_bytes).map(TokenBytes::from).collect();
        PayloadRuntime {
            rows,
            row_bytes,
            payload,
            row_blocks,
        }
    }

    /// The payload bytes one iteration delivers to the sink.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The per-row block handles the `Block` source emits; every
    /// captured block must [share storage](TokenBytes::shares_storage)
    /// with one of these for the run to have been zero-copy.
    pub fn row_blocks(&self) -> &[TokenBytes] {
        &self.row_blocks
    }

    fn tokens_per_firing(&self, encoding: PayloadEncoding) -> u64 {
        match encoding {
            PayloadEncoding::Scalar => (self.rows * self.row_bytes) as u64,
            PayloadEncoding::Block => self.rows as u64,
        }
    }

    /// The three-stage pipeline graph for the given encoding (rates are
    /// the encoding's tokens per firing; the repetition vector is all
    /// ones).
    pub fn graph(&self, encoding: PayloadEncoding) -> TpdfGraph {
        let rate = self.tokens_per_firing(encoding);
        TpdfGraph::builder()
            .kernel("SRC")
            .kernel("RELAY")
            .kernel("SNK")
            .channel(
                "SRC",
                "RELAY",
                RateSeq::constant(rate),
                RateSeq::constant(rate),
                0,
            )
            .channel(
                "RELAY",
                "SNK",
                RateSeq::constant(rate),
                RateSeq::constant(rate),
                0,
            )
            .build()
            .expect("payload pipeline is well-formed")
    }

    /// Builds the kernel registry for the given encoding: `SRC` replays
    /// the payload (as bytes or as row handles), `RELAY` forwards, and
    /// the capturing `SNK` collects what arrives.
    pub fn registry(&self, encoding: PayloadEncoding) -> (KernelRegistry, OutputCapture) {
        let mut registry = KernelRegistry::new();
        let tokens: Vec<Token> = match encoding {
            PayloadEncoding::Scalar => self.payload.iter().map(|&b| Token::Byte(b)).collect(),
            PayloadEncoding::Block => self.row_blocks.iter().cloned().map(Token::Block).collect(),
        };
        registry.register_fn("SRC", move |ctx| {
            ctx.fill_outputs_cycling(&tokens);
            Ok(())
        });
        registry.register_fn("RELAY", move |ctx| {
            let consumed = ctx.concatenated_inputs();
            ctx.fill_outputs_cycling(&consumed);
            Ok(())
        });
        let capture = OutputCapture::new();
        capture.install(&mut registry, "SNK");
        (registry, capture)
    }
}

/// The complex payloads of every consumed token, in order.
fn complex_inputs(ctx: &crate::kernel::FiringContext) -> Result<Vec<Complex>, RuntimeError> {
    ctx.concatenated_inputs()
        .iter()
        .map(|t| {
            t.as_complex().ok_or_else(|| RuntimeError::KernelFailed {
                node: ctx.node.to_string(),
                message: format!("expected a complex sample, got {t}"),
            })
        })
        .collect()
}

/// The float payloads of every consumed token, in order.
fn float_inputs(ctx: &crate::kernel::FiringContext) -> Result<Vec<f64>, RuntimeError> {
    ctx.concatenated_inputs()
        .iter()
        .map(|t| {
            t.as_float().ok_or_else(|| RuntimeError::KernelFailed {
                node: ctx.node.to_string(),
                message: format!("expected an audio sample, got {t}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, RunRequest, RuntimeConfig};
    use crate::metrics::Metrics;
    use crate::pool::ExecutorPool;
    use tpdf_sim::engine::ControlPolicy;
    use tpdf_symexpr::Binding;

    /// A plain blocking run on a shared pool.
    fn run(pool: &ExecutorPool, executor: &Executor<'_>, registry: &KernelRegistry) -> Metrics {
        pool.submit(&executor.compile(), registry, RunRequest::default(), None)
            .wait()
            .expect("run completes")
            .metrics
    }

    #[test]
    fn edge_detection_runs_real_pixels_on_four_threads() {
        let port =
            EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(48, 48, 9));
        let graph = port.graph();
        let (registry, capture) = port.registry(None);
        // WaitAll: the Transaction sees all four detectors and forwards
        // the highest-priority (Canny) result.
        let config = RuntimeConfig::new(Binding::new())
            .with_threads(4)
            .with_iterations(2);
        let metrics = Executor::new(&graph, config)
            .unwrap()
            .run(&registry)
            .unwrap();
        assert_eq!(metrics.iterations, 2);
        let images = capture.images();
        assert_eq!(images.len(), 2);
        let expected = port.reference_edges(EdgeDetector::Canny);
        assert_eq!(images[0], expected);
        assert_eq!(images[1], expected);
    }

    #[test]
    fn edge_detection_select_input_forwards_that_detector() {
        let port =
            EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(40, 40, 4));
        let graph = port.graph();
        for (input, detector) in EdgeDetector::ALL.iter().enumerate() {
            let (registry, capture) = port.registry(None);
            let config = RuntimeConfig::new(Binding::new())
                .with_threads(4)
                .with_policy(ControlPolicy::SelectInput(input));
            Executor::new(&graph, config)
                .unwrap()
                .run(&registry)
                .unwrap();
            assert_eq!(capture.images(), vec![port.reference_edges(*detector)]);
        }
    }

    #[test]
    fn ofdm_qpsk_demodulates_error_free_on_four_threads() {
        let config = OfdmConfig {
            symbol_len: 32,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 3,
        };
        let port = OfdmRuntime::new(config, 77);
        let graph = port.graph();
        let (registry, capture) = port.registry();
        // CON derives the constellation from SRC's data — no scripted
        // ControlPolicy.
        let run_config = RuntimeConfig::new(port.config().binding())
            .with_threads(4)
            .with_mode_selector(port.mode_selector())
            .with_value_trace(port.value_trace());
        let metrics = Executor::new(&graph, run_config)
            .unwrap()
            .run(&registry)
            .unwrap();
        assert_eq!(metrics.iterations, 1);
        assert_eq!(capture.bits(), port.reference_bits());
        assert_eq!(capture.bits(), port.sent_bits());
        let con = graph.node_by_name("CON").unwrap();
        assert_eq!(
            metrics.mode_sequences[con.0],
            vec![Mode::SelectOne(port.matching_port())]
        );
    }

    #[test]
    fn fm_radio_selects_the_band_of_the_control_mode() {
        let port = FmRadioRuntime::new(
            FmRadioConfig {
                bands: 4,
                block: 16,
            },
            11,
        );
        let graph = port.graph();
        for band in 0..port.config().bands {
            let (registry, capture) = port.registry();
            let config = RuntimeConfig::new(port.binding())
                .with_threads(4)
                .with_policy(ControlPolicy::SelectInput(band));
            Executor::new(&graph, config)
                .unwrap()
                .run(&registry)
                .unwrap();
            assert_eq!(capture.floats(), port.reference_audio(band), "band {band}");
        }
    }

    #[test]
    fn fm_radio_waitall_forwards_highest_priority_band() {
        let port = FmRadioRuntime::new(FmRadioConfig { bands: 3, block: 8 }, 7);
        let graph = port.graph();
        let (registry, capture) = port.registry();
        let config = RuntimeConfig::new(port.binding())
            .with_threads(2)
            .with_iterations(2);
        let metrics = Executor::new(&graph, config)
            .unwrap()
            .run(&registry)
            .unwrap();
        assert_eq!(metrics.iterations, 2);
        let expected = port.reference_audio(port.waitall_band());
        let audio = capture.floats();
        assert_eq!(audio.len(), expected.len() * 2);
        assert_eq!(&audio[..expected.len()], expected.as_slice());
        assert_eq!(&audio[expected.len()..], expected.as_slice());
    }

    /// All three case studies, one after another on a shared
    /// persistent 4-worker pool, reproduce their reference pixels, bits
    /// and audio — the schedule varies from run to run, the result
    /// never does.
    #[test]
    fn case_studies_agree_on_a_shared_pool() {
        let pool = ExecutorPool::new(4);

        // Edge detection: identical edge maps.
        let edge =
            EdgeDetectionRuntime::new(EdgeDetectionApp::default(), GrayImage::synthetic(32, 32, 5));
        let edge_graph = edge.graph();
        let (registry, capture) = edge.registry(None);
        let config = RuntimeConfig::new(Binding::new()).with_threads(4);
        let executor = pool.executor(&edge_graph, config).unwrap();
        run(&pool, &executor, &registry);
        assert_eq!(
            capture.images(),
            vec![edge.reference_edges(EdgeDetector::Canny)],
            "edge detection"
        );

        // OFDM: identical (error-free) bit streams, identical modes.
        let ofdm = OfdmRuntime::new(
            OfdmConfig {
                symbol_len: 16,
                cyclic_prefix: 2,
                bits_per_symbol: 2,
                vectorization: 2,
            },
            31,
        );
        let ofdm_graph = ofdm.graph();
        let (registry, capture) = ofdm.registry();
        let config = RuntimeConfig::new(ofdm.config().binding())
            .with_threads(4)
            .with_mode_selector(ofdm.mode_selector())
            .with_value_trace(ofdm.value_trace());
        let executor = pool.executor(&ofdm_graph, config).unwrap();
        run(&pool, &executor, &registry);
        assert_eq!(capture.bits(), ofdm.sent_bits(), "OFDM");

        // FM radio: identical audio per selected band.
        let radio = FmRadioRuntime::new(FmRadioConfig { bands: 3, block: 8 }, 3);
        let radio_graph = radio.graph();
        let (registry, capture) = radio.registry();
        let config = RuntimeConfig::new(radio.binding())
            .with_threads(4)
            .with_policy(ControlPolicy::SelectInput(1));
        let executor = pool.executor(&radio_graph, config).unwrap();
        run(&pool, &executor, &registry);
        assert_eq!(capture.floats(), radio.reference_audio(1), "FM radio");
    }

    #[test]
    fn payload_encodings_deliver_identical_byte_streams() {
        let port = PayloadRuntime::new(8, 64, 42);
        let mut streams = Vec::new();
        for encoding in [PayloadEncoding::Scalar, PayloadEncoding::Block] {
            let graph = port.graph(encoding);
            let (registry, capture) = port.registry(encoding);
            let config = RuntimeConfig::new(Binding::new())
                .with_threads(2)
                .with_iterations(2);
            let metrics = Executor::new(&graph, config)
                .unwrap()
                .run(&registry)
                .unwrap();
            assert_eq!(metrics.iterations, 2, "{encoding:?}");
            streams.push(capture.byte_stream());
        }
        let expected: Vec<u8> = port
            .payload()
            .iter()
            .chain(port.payload())
            .copied()
            .collect();
        assert_eq!(streams[0], expected, "scalar stream");
        assert_eq!(streams[0], streams[1], "encodings must agree byte-for-byte");
    }

    #[test]
    fn payload_blocks_arrive_without_copying_the_bytes() {
        let port = PayloadRuntime::new(4, 128, 9);
        let graph = port.graph(PayloadEncoding::Block);
        let (registry, capture) = port.registry(PayloadEncoding::Block);
        let config = RuntimeConfig::new(Binding::new()).with_threads(1);
        Executor::new(&graph, config)
            .unwrap()
            .run(&registry)
            .unwrap();
        let tokens = capture.take_tokens();
        assert_eq!(tokens.len(), 4);
        for (row, token) in tokens.iter().enumerate() {
            let block = token.as_block().expect("block token");
            assert!(
                block.shares_storage(&port.row_blocks()[row]),
                "row {row} was copied somewhere between SRC and SNK"
            );
        }
    }

    #[test]
    fn ofdm_qam_demodulates_error_free() {
        let config = OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 1,
            bits_per_symbol: 4,
            vectorization: 2,
        };
        let port = OfdmRuntime::new(config, 5);
        let graph = port.graph();
        let (registry, capture) = port.registry();
        let run_config = RuntimeConfig::new(port.config().binding())
            .with_threads(4)
            .with_mode_selector(port.mode_selector())
            .with_value_trace(port.value_trace());
        let metrics = Executor::new(&graph, run_config)
            .unwrap()
            .run(&registry)
            .unwrap();
        assert_eq!(capture.bits(), port.sent_bits());
        let con = graph.node_by_name("CON").unwrap();
        assert_eq!(metrics.mode_sequences[con.0], vec![Mode::SelectOne(1)]);
    }
}
