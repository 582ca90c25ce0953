//! The cognitive-radio OFDM demodulator (Section IV-B, Figures 7 and 8).

use crate::dsp::{add_cyclic_prefix, demap, fft, ifft, remove_cyclic_prefix, Complex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpdf_core::actors::KernelKind;
use tpdf_core::graph::TpdfGraph;
use tpdf_core::rate::RateSeq;
use tpdf_sim::buffer_analysis::{compare_buffers, BufferComparison, PortSelection};
use tpdf_symexpr::{Binding, Poly};

/// Configuration of the OFDM demodulator: the four principal parameters
/// of the paper (`β`, `M`, `N`, `L`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfdmConfig {
    /// OFDM symbol length `N` (512 or 1024 in the paper).
    pub symbol_len: usize,
    /// Cyclic prefix length `L`.
    pub cyclic_prefix: usize,
    /// Bits per sub-carrier `M`: 2 selects QPSK, 4 selects 16-QAM.
    pub bits_per_symbol: usize,
    /// Vectorization degree `β`: number of OFDM symbols processed per
    /// actor activation (1–100 in Figure 8).
    pub vectorization: usize,
}

impl OfdmConfig {
    /// The paper's default-ish configuration: `N = 512`, `L = 1`,
    /// QPSK, `β = 10`.
    pub fn paper_default() -> Self {
        OfdmConfig {
            symbol_len: 512,
            cyclic_prefix: 1,
            bits_per_symbol: 2,
            vectorization: 10,
        }
    }

    /// Returns the parameter binding (`beta`, `N`, `L`, `M`) for this
    /// configuration.
    pub fn binding(&self) -> Binding {
        Binding::from_pairs([
            ("beta", self.vectorization as i64),
            ("N", self.symbol_len as i64),
            ("L", self.cyclic_prefix as i64),
            ("M", self.bits_per_symbol as i64),
        ])
    }

    /// Minimum buffer size of one iteration for the **TPDF**
    /// implementation according to the paper's Figure 8 formula:
    /// `Buff = 3 + β·(12·N + L)`.
    pub fn paper_tpdf_buffer(&self) -> u64 {
        3 + self.vectorization as u64 * (12 * self.symbol_len as u64 + self.cyclic_prefix as u64)
    }

    /// Minimum buffer size of one iteration for the **CSDF** baseline
    /// according to the paper's Figure 8 formula: `Buff = β·(17·N + L)`.
    pub fn paper_csdf_buffer(&self) -> u64 {
        self.vectorization as u64 * (17 * self.symbol_len as u64 + self.cyclic_prefix as u64)
    }

    /// Relative improvement of TPDF over CSDF predicted by the paper's
    /// formulas, in percent (≈ 29 % for large `β·N`).
    pub fn paper_improvement_percent(&self) -> f64 {
        let tpdf = self.paper_tpdf_buffer() as f64;
        let csdf = self.paper_csdf_buffer() as f64;
        100.0 * (csdf - tpdf) / csdf
    }
}

/// The symbolic Figure 8 formulas as polynomials over `beta`, `N`, `L`.
pub fn paper_buffer_polynomials() -> (Poly, Poly) {
    let beta = Poly::param("beta");
    let n = Poly::param("N");
    let l = Poly::param("L");
    let tpdf =
        Poly::from_integer(3) + beta.clone() * (Poly::from_integer(12) * n.clone() + l.clone());
    let csdf = beta * (Poly::from_integer(17) * n + l);
    (tpdf, csdf)
}

/// The OFDM demodulator: TPDF graph (Figure 7), CSDF baseline, buffer
/// comparison (Figure 8) and an executable demodulation pipeline.
#[derive(Debug, Clone)]
pub struct OfdmDemodulator {
    config: OfdmConfig,
}

impl OfdmDemodulator {
    /// Creates a demodulator for the given configuration.
    pub fn new(config: OfdmConfig) -> Self {
        OfdmDemodulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &OfdmConfig {
        &self.config
    }

    /// Builds the TPDF graph of **Figure 7**:
    /// `SRC → RCP → FFT → DUP → {QPSK, QAM} → TRAN → SNK`, with control
    /// actor `CON` fed by `SRC` and steering `TRAN` (and conceptually
    /// `DUP`) towards the demapping path selected by `M`.
    ///
    /// Rates follow the figure: `β(N+L)` samples into the prefix removal,
    /// `βN` per symbol path, `2βN` bits out of QPSK and `4βN` bits out of
    /// QAM, `βMN` bits into the sink.
    pub fn tpdf_graph(&self) -> TpdfGraph {
        let beta = Poly::param("beta");
        let n = Poly::param("N");
        let l = Poly::param("L");
        let bn = beta.clone() * n.clone();
        let bnl = beta.clone() * (n.clone() + l);
        let two_bn = Poly::from_integer(2) * bn.clone();
        let four_bn = Poly::from_integer(4) * bn.clone();
        let bmn = beta * Poly::param("M") * n;

        TpdfGraph::builder()
            .parameter("beta")
            .parameter("N")
            .parameter("L")
            .parameter("M")
            .kernel_with("SRC", KernelKind::Regular, 4)
            .kernel_with("RCP", KernelKind::Regular, 2)
            .kernel_with("FFT", KernelKind::Regular, 16)
            .kernel_with("DUP", KernelKind::SelectDuplicate, 1)
            .kernel_with("QPSK", KernelKind::Regular, 6)
            .kernel_with("QAM", KernelKind::Regular, 9)
            .control_with("CON", 1)
            .kernel_with("TRAN", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel_with("SNK", KernelKind::Regular, 2)
            // Sample path.
            .channel(
                "SRC",
                "RCP",
                RateSeq::poly(bnl.clone()),
                RateSeq::poly(bnl),
                0,
            )
            .channel(
                "RCP",
                "FFT",
                RateSeq::poly(bn.clone()),
                RateSeq::poly(bn.clone()),
                0,
            )
            .channel(
                "FFT",
                "DUP",
                RateSeq::poly(bn.clone()),
                RateSeq::poly(bn.clone()),
                0,
            )
            .channel(
                "DUP",
                "QPSK",
                RateSeq::poly(bn.clone()),
                RateSeq::poly(bn.clone()),
                0,
            )
            .channel(
                "DUP",
                "QAM",
                RateSeq::poly(bn.clone()),
                RateSeq::poly(bn),
                0,
            )
            // Demapped bits; QPSK yields 2 bits and QAM 4 bits per carrier.
            .channel_with_priority(
                "QPSK",
                "TRAN",
                RateSeq::poly(two_bn.clone()),
                RateSeq::poly(two_bn),
                0,
                1,
            )
            .channel_with_priority(
                "QAM",
                "TRAN",
                RateSeq::poly(four_bn.clone()),
                RateSeq::poly(four_bn),
                0,
                2,
            )
            // Control path: SRC informs CON which constellation is active.
            .channel("SRC", "CON", RateSeq::constant(1), RateSeq::constant(1), 0)
            .control_channel("CON", "TRAN", RateSeq::constant(1), RateSeq::constant(1))
            // Selected bits to the sink (βMN bits per iteration).
            .channel(
                "TRAN",
                "SNK",
                RateSeq::poly(bmn.clone()),
                RateSeq::poly(bmn),
                0,
            )
            .build()
            .expect("OFDM demodulator graph is well-formed")
    }

    /// The port selection corresponding to the configured constellation:
    /// `TRAN` keeps its QPSK input when `M = 2`, its QAM input when
    /// `M = 4`.
    pub fn selection(&self) -> PortSelection {
        let port = if self.config.bits_per_symbol == 4 {
            1
        } else {
            0
        };
        PortSelection::from([("TRAN".to_string(), port)])
    }

    /// Measures the minimum buffer sizes of the TPDF implementation and
    /// the CSDF baseline for this configuration (the Figure 8
    /// experiment).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph analysis fails for this
    /// configuration.
    pub fn buffer_comparison(&self) -> Result<BufferComparison, tpdf_sim::SimError> {
        compare_buffers(
            &self.tpdf_graph(),
            &self.config.binding(),
            &self.selection(),
        )
    }

    /// Generates `β` random OFDM symbols (time domain, with cyclic
    /// prefix) together with the payload bits they encode, simulating the
    /// sampler + transmitter side.
    pub fn generate_symbols(&self, seed: u64) -> (Vec<Vec<Complex>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.config.symbol_len;
        let m = self.config.bits_per_symbol;
        let mut all_bits = Vec::new();
        let mut symbols = Vec::new();
        for _ in 0..self.config.vectorization {
            let bits: Vec<u8> = (0..n * m).map(|_| rng.gen_range(0..2u8)).collect();
            let carriers: Vec<Complex> = bits.chunks(m).map(|chunk| modulate(chunk, m)).collect();
            let time_domain = ifft(&carriers);
            symbols.push(add_cyclic_prefix(&time_domain, self.config.cyclic_prefix));
            all_bits.extend(bits);
        }
        (symbols, all_bits)
    }

    /// Demodulates a stream of OFDM symbols: removes the cyclic prefix,
    /// applies the FFT and demaps every carrier with the configured
    /// constellation — the RCP → FFT → QPSK/QAM → SNK path of Figure 7.
    pub fn demodulate(&self, symbols: &[Vec<Complex>]) -> Vec<u8> {
        let mut bits = Vec::new();
        for symbol in symbols {
            let without_cp = remove_cyclic_prefix(symbol, self.config.cyclic_prefix);
            let spectrum = fft(&without_cp);
            bits.extend(demap(&spectrum, self.config.bits_per_symbol));
        }
        bits
    }

    /// Bit error rate between transmitted and received bits.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn bit_error_rate(sent: &[u8], received: &[u8]) -> f64 {
        assert_eq!(sent.len(), received.len(), "bit streams differ in length");
        if sent.is_empty() {
            return 0.0;
        }
        let errors = sent.iter().zip(received).filter(|(a, b)| a != b).count();
        errors as f64 / sent.len() as f64
    }
}

/// Maps `m` bits to one constellation point (the transmitter-side inverse
/// of [`qpsk_demap`] / [`qam16_demap`]).
fn modulate(bits: &[u8], m: usize) -> Complex {
    match m {
        2 => {
            let re = if bits[0] == 0 { 1.0 } else { -1.0 };
            let im = if bits[1] == 0 { 1.0 } else { -1.0 };
            Complex::new(re / 2f64.sqrt(), im / 2f64.sqrt())
        }
        4 => {
            let scale = 1.0 / 10.0f64.sqrt();
            let axis = |sign_bit: u8, inner_bit: u8| -> f64 {
                let magnitude = if inner_bit == 1 { 1.0 } else { 3.0 };
                let sign = if sign_bit == 0 { 1.0 } else { -1.0 };
                sign * magnitude * scale
            };
            Complex::new(axis(bits[0], bits[1]), axis(bits[2], bits[3]))
        }
        other => panic!("unsupported constellation: {other} bits/symbol"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tpdf_core::analysis::analyze;

    fn small_config(m: usize, beta: usize) -> OfdmConfig {
        OfdmConfig {
            symbol_len: 64,
            cyclic_prefix: 4,
            bits_per_symbol: m,
            vectorization: beta,
        }
    }

    #[test]
    fn paper_formulas() {
        let cfg = OfdmConfig::paper_default();
        assert_eq!(cfg.paper_tpdf_buffer(), 3 + 10 * (12 * 512 + 1));
        assert_eq!(cfg.paper_csdf_buffer(), 10 * (17 * 512 + 1));
        let improvement = cfg.paper_improvement_percent();
        assert!(
            (improvement - 29.0).abs() < 1.0,
            "improvement = {improvement}"
        );
        let (tpdf, csdf) = paper_buffer_polynomials();
        let b = cfg.binding();
        assert_eq!(tpdf.eval(&b).unwrap() as u64, cfg.paper_tpdf_buffer());
        assert_eq!(csdf.eval(&b).unwrap() as u64, cfg.paper_csdf_buffer());
    }

    #[test]
    fn graph_is_bounded_for_qpsk_and_qam() {
        for m in [2usize, 4] {
            let demod = OfdmDemodulator::new(small_config(m, 4));
            let g = demod.tpdf_graph();
            let report = analyze(&g).unwrap();
            assert!(report.is_bounded());
            // Every actor fires once per iteration (all rates matched).
            assert!(report
                .repetition()
                .concrete(&demod.config().binding())
                .unwrap()
                .iter()
                .all(|&c| c == 1));
        }
    }

    #[test]
    fn measured_buffers_follow_figure8_shape() {
        let demod = OfdmDemodulator::new(small_config(2, 8));
        let cmp = demod.buffer_comparison().unwrap();
        assert!(cmp.tpdf_total < cmp.csdf_total);
        assert!(cmp.improvement_percent > 10.0 && cmp.improvement_percent < 60.0);
    }

    #[test]
    fn buffers_scale_linearly_with_beta() {
        let small = OfdmDemodulator::new(small_config(2, 5))
            .buffer_comparison()
            .unwrap();
        let large = OfdmDemodulator::new(small_config(2, 20))
            .buffer_comparison()
            .unwrap();
        let ratio_tpdf = large.tpdf_total as f64 / small.tpdf_total as f64;
        let ratio_csdf = large.csdf_total as f64 / small.csdf_total as f64;
        assert!((ratio_tpdf - 4.0).abs() < 0.6, "TPDF ratio {ratio_tpdf}");
        assert!((ratio_csdf - 4.0).abs() < 0.6, "CSDF ratio {ratio_csdf}");
    }

    #[test]
    fn qam_selection_targets_port_one() {
        assert_eq!(
            OfdmDemodulator::new(small_config(4, 1))
                .selection()
                .get("TRAN"),
            Some(&1)
        );
        assert_eq!(
            OfdmDemodulator::new(small_config(2, 1))
                .selection()
                .get("TRAN"),
            Some(&0)
        );
    }

    #[test]
    fn qpsk_roundtrip_has_zero_ber() {
        let demod = OfdmDemodulator::new(small_config(2, 3));
        let (symbols, sent) = demod.generate_symbols(7);
        let received = demod.demodulate(&symbols);
        assert_eq!(sent.len(), received.len());
        assert_eq!(OfdmDemodulator::bit_error_rate(&sent, &received), 0.0);
    }

    #[test]
    fn qam_roundtrip_has_zero_ber() {
        let demod = OfdmDemodulator::new(small_config(4, 2));
        let (symbols, sent) = demod.generate_symbols(11);
        let received = demod.demodulate(&symbols);
        assert_eq!(OfdmDemodulator::bit_error_rate(&sent, &received), 0.0);
    }

    #[test]
    fn ber_counts_flipped_bits() {
        assert_eq!(
            OfdmDemodulator::bit_error_rate(&[0, 1, 1, 0], &[0, 1, 0, 0]),
            0.25
        );
        assert_eq!(OfdmDemodulator::bit_error_rate(&[], &[]), 0.0);
    }

    proptest! {
        /// The paper's formulas always favour TPDF and the advantage
        /// converges towards 5/17 ≈ 29.4 % as β·N grows.
        #[test]
        fn prop_formula_improvement(beta in 1u64..100, n in prop::sample::select(vec![512usize, 1024])) {
            let cfg = OfdmConfig {
                symbol_len: n,
                cyclic_prefix: 1,
                bits_per_symbol: 2,
                vectorization: beta as usize,
            };
            prop_assert!(cfg.paper_tpdf_buffer() < cfg.paper_csdf_buffer());
            let imp = cfg.paper_improvement_percent();
            prop_assert!(imp > 28.0 && imp < 30.0);
        }

        /// Round trips stay error-free for every constellation and small
        /// vectorization degree.
        #[test]
        fn prop_roundtrip_ber_zero(m in prop::sample::select(vec![2usize, 4]), beta in 1usize..4, seed in 0u64..20) {
            let demod = OfdmDemodulator::new(OfdmConfig {
                symbol_len: 32,
                cyclic_prefix: 2,
                bits_per_symbol: m,
                vectorization: beta,
            });
            let (symbols, sent) = demod.generate_symbols(seed);
            let received = demod.demodulate(&symbols);
            prop_assert_eq!(OfdmDemodulator::bit_error_rate(&sent, &received), 0.0);
        }
    }
}
