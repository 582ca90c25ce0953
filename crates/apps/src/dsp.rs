//! DSP kernels of the cognitive-radio case study: complex samples,
//! radix-2 FFT, cyclic-prefix handling and QPSK/QAM demapping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complex sample (re, im).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

// The inherent `mul`/`add`/`sub` are the crate's established call style
// (`a.mul(b)` reads naturally in the FFT butterflies); silence clippy's
// suggestion to move them onto the std operator traits.
#[allow(clippy::should_implement_trait)]
impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Complex multiplication.
    pub fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    /// Complex addition.
    pub fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    /// Complex subtraction.
    pub fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

/// Generates `count` pseudo-random complex samples in `[-1, 1]²`, the
/// "data source that generates random values to simulate a sampler" of
/// the paper.
pub fn random_samples(count: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Prepends a cyclic prefix of length `cp_len` (the last `cp_len` samples
/// of the symbol) to an OFDM symbol.
///
/// # Panics
///
/// Panics if `cp_len > symbol.len()`.
pub fn add_cyclic_prefix(symbol: &[Complex], cp_len: usize) -> Vec<Complex> {
    assert!(cp_len <= symbol.len(), "cyclic prefix longer than symbol");
    let mut out = Vec::with_capacity(symbol.len() + cp_len);
    out.extend_from_slice(&symbol[symbol.len() - cp_len..]);
    out.extend_from_slice(symbol);
    out
}

/// Removes a cyclic prefix of length `cp_len` (the RCP actor of
/// Figure 7).
///
/// # Panics
///
/// Panics if the input is shorter than `cp_len`.
pub fn remove_cyclic_prefix(symbol: &[Complex], cp_len: usize) -> Vec<Complex> {
    assert!(
        symbol.len() >= cp_len,
        "input shorter than the cyclic prefix"
    );
    symbol[cp_len..].to_vec()
}

/// Iterative radix-2 decimation-in-time FFT into a fresh vector (see
/// [`fft_in_place`]).
///
/// # Panics
///
/// Panics if the input length is not a power of two.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    fft_in_place(&mut data);
    data
}

/// In-place iterative radix-2 decimation-in-time FFT: `data` is
/// replaced by its spectrum.
///
/// # Panics
///
/// Panics if the input length is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let a = data[start + k];
                let b = data[start + k + len / 2].mul(w);
                data[start + k] = a.add(b);
                data[start + k + len / 2] = a.sub(b);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// Inverse FFT (used by tests to verify the round trip).
///
/// # Panics
///
/// Panics if the input length is not a power of two.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let conj: Vec<Complex> = input.iter().map(|c| Complex::new(c.re, -c.im)).collect();
    let transformed = fft(&conj);
    let n = transformed.len() as f64;
    transformed
        .iter()
        .map(|c| Complex::new(c.re / n, -c.im / n))
        .collect()
}

/// Demaps one QPSK symbol to 2 bits (Gray mapping).
pub fn qpsk_demap(symbol: Complex) -> [u8; 2] {
    [u8::from(symbol.re < 0.0), u8::from(symbol.im < 0.0)]
}

/// Demaps one 16-QAM symbol to 4 bits (per-axis Gray mapping with
/// decision threshold at ±2/√10).
pub fn qam16_demap(symbol: Complex) -> [u8; 4] {
    let threshold = 2.0 / 10.0f64.sqrt();
    let axis_bits = |v: f64| -> (u8, u8) { (u8::from(v < 0.0), u8::from(v.abs() < threshold)) };
    let (b0, b1) = axis_bits(symbol.re);
    let (b2, b3) = axis_bits(symbol.im);
    [b0, b1, b2, b3]
}

/// Demaps a whole vector of frequency-domain symbols with QPSK (`m = 2`
/// bits/symbol) or 16-QAM (`m = 4`), matching the `M` parameter of the
/// OFDM case study.
///
/// # Panics
///
/// Panics if `bits_per_symbol` is neither 2 nor 4.
pub fn demap(symbols: &[Complex], bits_per_symbol: usize) -> Vec<u8> {
    match bits_per_symbol {
        2 => symbols.iter().flat_map(|&s| qpsk_demap(s)).collect(),
        4 => symbols.iter().flat_map(|&s| qam16_demap(s)).collect(),
        other => panic!("unsupported constellation: {other} bits/symbol"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let m = a.mul(b);
        assert!((m.re - 5.0).abs() < 1e-12);
        assert!((m.im - 5.0).abs() < 1e-12);
        assert!((a.add(b).re - 4.0).abs() < 1e-12);
        assert!((a.sub(b).im - 3.0).abs() < 1e-12);
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cyclic_prefix_roundtrip() {
        let symbol = random_samples(16, 1);
        let with_cp = add_cyclic_prefix(&symbol, 4);
        assert_eq!(with_cp.len(), 20);
        assert_eq!(remove_cyclic_prefix(&with_cp, 4), symbol);
        // The prefix really is the tail of the symbol.
        assert_eq!(with_cp[0], symbol[12]);
    }

    #[test]
    #[should_panic(expected = "longer than symbol")]
    fn oversized_prefix_panics() {
        let symbol = random_samples(4, 1);
        let _ = add_cyclic_prefix(&symbol, 5);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut impulse = vec![Complex::default(); 8];
        impulse[0] = Complex::new(1.0, 0.0);
        let spectrum = fft(&impulse);
        for bin in spectrum {
            assert!((bin.re - 1.0).abs() < 1e-9);
            assert!(bin.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let constant = vec![Complex::new(1.0, 0.0); 16];
        let spectrum = fft(&constant);
        assert!((spectrum[0].re - 16.0).abs() < 1e-9);
        for bin in &spectrum[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = fft(&random_samples(12, 0));
    }

    #[test]
    fn qpsk_demapping() {
        assert_eq!(qpsk_demap(Complex::new(0.7, 0.7)), [0, 0]);
        assert_eq!(qpsk_demap(Complex::new(-0.7, 0.7)), [1, 0]);
        assert_eq!(qpsk_demap(Complex::new(0.7, -0.7)), [0, 1]);
        assert_eq!(qpsk_demap(Complex::new(-0.7, -0.7)), [1, 1]);
    }

    #[test]
    fn qam_demapping_produces_four_bits() {
        let bits = qam16_demap(Complex::new(0.1, -0.9));
        assert_eq!(bits.len(), 4);
        assert!(bits.iter().all(|&b| b <= 1));
        assert_eq!(demap(&random_samples(8, 2), 2).len(), 16);
        assert_eq!(demap(&random_samples(8, 2), 4).len(), 32);
    }

    #[test]
    #[should_panic(expected = "unsupported constellation")]
    fn unsupported_constellation_panics() {
        let _ = demap(&random_samples(2, 0), 3);
    }

    proptest! {
        /// IFFT(FFT(x)) == x within numerical tolerance.
        #[test]
        fn prop_fft_roundtrip(seed in 0u64..200, log_n in 2u32..8) {
            let n = 1usize << log_n;
            let samples = random_samples(n, seed);
            let restored = ifft(&fft(&samples));
            for (a, b) in samples.iter().zip(&restored) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
        }

        /// Parseval's theorem: energy is preserved up to the 1/N factor.
        #[test]
        fn prop_parseval(seed in 0u64..100, log_n in 2u32..7) {
            let n = 1usize << log_n;
            let samples = random_samples(n, seed);
            let spectrum = fft(&samples);
            let time_energy: f64 = samples.iter().map(|c| c.abs().powi(2)).sum();
            let freq_energy: f64 = spectrum.iter().map(|c| c.abs().powi(2)).sum::<f64>() / n as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
        }

        /// Demapping always yields m bits per symbol.
        #[test]
        fn prop_demap_length(count in 1usize..64, m in prop::sample::select(vec![2usize, 4])) {
            let symbols = random_samples(count, 9);
            prop_assert_eq!(demap(&symbols, m).len(), count * m);
        }
    }
}
