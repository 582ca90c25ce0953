//! Parametric (symbolic) cyclic rate sequences.

use crate::TpdfError;
use std::fmt;
use tpdf_symexpr::{Binding, Poly};

/// A cyclic sequence of symbolic rates, the TPDF generalisation of the
/// CSDF per-phase rate list.
///
/// The `n`-th firing of an actor produces/consumes `seq[n mod len]`
/// tokens, where each entry is a [`Poly`] over the graph's integer
/// parameters (constant rates are just constant polynomials).
///
/// # Examples
///
/// ```
/// use tpdf_core::RateSeq;
/// use tpdf_symexpr::{Binding, Poly};
///
/// # fn main() -> Result<(), tpdf_core::TpdfError> {
/// // The output rate `[p]` of kernel A in Figure 2.
/// let rate = RateSeq::param("p");
/// let binding = Binding::from_pairs([("p", 4)]);
/// assert_eq!(rate.rate_at(0).to_string(), "p");
/// assert_eq!(rate.concrete(0, &binding)?, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateSeq {
    seq: Vec<Poly>,
}

impl RateSeq {
    /// Creates a rate sequence from symbolic entries.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty; use the graph builder for fallible
    /// construction.
    pub fn new(seq: Vec<Poly>) -> Self {
        assert!(!seq.is_empty(), "rate sequence must not be empty");
        RateSeq { seq }
    }

    /// A single-phase constant rate.
    pub fn constant(rate: u64) -> Self {
        RateSeq::new(vec![Poly::from_integer(rate as i64)])
    }

    /// A multi-phase constant-rate sequence (CSDF style), e.g. `[1, 0, 1]`.
    pub fn constants(rates: &[u64]) -> Self {
        RateSeq::new(
            rates
                .iter()
                .map(|&r| Poly::from_integer(r as i64))
                .collect(),
        )
    }

    /// A single-phase parametric rate consisting of one parameter.
    pub fn param(name: &str) -> Self {
        RateSeq::new(vec![Poly::param(name)])
    }

    /// A single-phase rate given by an arbitrary polynomial.
    pub fn poly(p: Poly) -> Self {
        RateSeq::new(vec![p])
    }

    /// Number of phases in the cyclic sequence.
    pub fn phases(&self) -> usize {
        self.seq.len()
    }

    /// The symbolic rate of the `n`-th firing.
    pub fn rate_at(&self, firing: u64) -> &Poly {
        &self.seq[(firing as usize) % self.seq.len()]
    }

    /// Iterates over the per-phase rates.
    pub fn iter(&self) -> impl Iterator<Item = &Poly> {
        self.seq.iter()
    }

    /// Sum of the rates over one full cycle (the `X_j^u(τ_j)` /
    /// `Y_j^u(τ_j)` quantity of the balance equations).
    pub fn cycle_sum(&self) -> Poly {
        self.seq.iter().cloned().sum()
    }

    /// Total tokens transferred during the first `n` firings
    /// (`X_j^u(n)` / `Y_j^u(n)` in the paper), as a polynomial.
    pub fn cumulative(&self, n: u64) -> Poly {
        let len = self.seq.len() as u64;
        let full_cycles = n / len;
        let remainder = (n % len) as usize;
        let mut acc = self
            .cycle_sum()
            .scale(tpdf_symexpr::Rational::from_integer(full_cycles as i128));
        for r in &self.seq[..remainder] {
            acc += r.clone();
        }
        acc
    }

    /// The concrete rate of the `n`-th firing under a binding.
    ///
    /// # Errors
    ///
    /// Returns an error if a parameter is unbound or the rate evaluates
    /// to a negative or fractional value.
    pub fn concrete(&self, firing: u64, binding: &Binding) -> Result<u64, TpdfError> {
        Ok(self.rate_at(firing).eval_unsigned(binding)?)
    }

    /// The concrete cumulative token count of the first `n` firings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RateSeq::concrete`].
    pub fn concrete_cumulative(&self, n: u64, binding: &Binding) -> Result<u64, TpdfError> {
        Ok(self.cumulative(n).eval_unsigned(binding)?)
    }

    /// Returns `true` if every phase rate is a constant.
    pub fn is_constant(&self) -> bool {
        self.seq.iter().all(Poly::is_constant)
    }
}

impl fmt::Display for RateSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.seq.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

impl From<u64> for RateSeq {
    fn from(value: u64) -> Self {
        RateSeq::constant(value)
    }
}

impl From<Poly> for RateSeq {
    fn from(value: Poly) -> Self {
        RateSeq::poly(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_sequences() {
        let r = RateSeq::constants(&[1, 0, 1]);
        assert_eq!(r.phases(), 3);
        assert_eq!(r.cycle_sum().as_constant().unwrap().to_integer(), Some(2));
        assert_eq!(r.cumulative(0).as_constant().unwrap().to_integer(), Some(0));
        assert_eq!(r.cumulative(2).as_constant().unwrap().to_integer(), Some(1));
        assert_eq!(r.cumulative(7).as_constant().unwrap().to_integer(), Some(5));
        assert!(r.is_constant());
        assert_eq!(r.to_string(), "[1,0,1]");
    }

    #[test]
    fn parametric_sequences() {
        let r = RateSeq::param("p");
        assert!(!r.is_constant());
        let b = Binding::from_pairs([("p", 5)]);
        assert_eq!(r.concrete(3, &b).unwrap(), 5);
        assert_eq!(r.concrete_cumulative(4, &b).unwrap(), 20);
        assert_eq!(r.cumulative(4).to_string(), "4*p");
    }

    #[test]
    fn unbound_parameter_errors() {
        let r = RateSeq::param("p");
        assert!(r.concrete(0, &Binding::new()).is_err());
    }

    #[test]
    fn negative_rate_errors() {
        let r = RateSeq::poly(Poly::from_integer(-1));
        assert!(r.concrete(0, &Binding::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_sequence_panics() {
        let _ = RateSeq::new(vec![]);
    }

    #[test]
    fn conversions() {
        assert_eq!(RateSeq::from(3u64), RateSeq::constant(3));
        assert_eq!(RateSeq::from(Poly::param("q")), RateSeq::param("q"));
    }

    proptest! {
        /// Cumulative counts are consistent with per-firing rates.
        #[test]
        fn prop_cumulative_matches_sum(rates in proptest::collection::vec(0u64..9, 1..5), n in 0u64..20) {
            let seq = RateSeq::constants(&rates);
            let b = Binding::new();
            let expected: u64 = (0..n).map(|i| seq.concrete(i, &b).unwrap()).sum();
            prop_assert_eq!(seq.concrete_cumulative(n, &b).unwrap(), expected);
        }

        /// Cumulative of a parametric rate equals rate * firings.
        #[test]
        fn prop_param_cumulative(p in 1i64..50, n in 0u64..30) {
            let seq = RateSeq::param("p");
            let b = Binding::from_pairs([("p", p)]);
            prop_assert_eq!(seq.concrete_cumulative(n, &b).unwrap(), (p as u64) * n);
        }
    }
}
