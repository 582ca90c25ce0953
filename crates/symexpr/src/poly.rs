//! Multivariate polynomials with rational coefficients.

use crate::{Binding, Monomial, Rational, SymExprError};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A multivariate polynomial: a sum of [`Monomial`]s over named integer
/// parameters with rational coefficients.
///
/// `Poly` is the general symbolic quantity used across the workspace:
/// channel rates (`βN`, `4βN`), repetition-vector entries (`2p`), and
/// buffer formulas (`3 + β(12N + L)`) are all polynomials.
///
/// # Examples
///
/// ```
/// use tpdf_symexpr::{Poly, Binding};
///
/// # fn main() -> Result<(), tpdf_symexpr::SymExprError> {
/// let p = Poly::param("p");
/// let expr = Poly::from_integer(2) * p.clone() + Poly::from_integer(3);
/// let binding = Binding::from_pairs([("p", 5)]);
/// assert_eq!(expr.eval(&binding)?, 13);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    /// variable-part key → monomial. Keeping a map keyed by the variable
    /// part guarantees like terms are always merged (canonical form).
    terms: BTreeMap<BTreeMap<String, u32>, Monomial>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly {
            terms: BTreeMap::new(),
        }
    }

    /// The unit polynomial `1`.
    pub fn one() -> Self {
        Poly::from_integer(1)
    }

    /// A constant integer polynomial.
    pub fn from_integer(value: i64) -> Self {
        Poly::from_monomial(Monomial::from(value))
    }

    /// A constant rational polynomial.
    pub fn from_rational(value: Rational) -> Self {
        Poly::from_monomial(Monomial::constant(value))
    }

    /// The polynomial consisting of a single parameter.
    pub fn param<S: Into<String>>(name: S) -> Self {
        Poly::from_monomial(Monomial::param(name))
    }

    /// Builds a polynomial from a single monomial.
    pub fn from_monomial(m: Monomial) -> Self {
        let mut p = Poly::zero();
        p.add_monomial(m);
        p
    }

    /// Returns `true` if the polynomial is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the polynomial is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
            || (self.terms.len() == 1 && self.terms.contains_key(&BTreeMap::new()))
    }

    /// Returns the constant value if this polynomial has no parameters.
    pub fn as_constant(&self) -> Option<Rational> {
        if self.is_zero() {
            return Some(Rational::ZERO);
        }
        if self.is_constant() {
            self.terms.get(&BTreeMap::new()).map(|m| m.coeff())
        } else {
            None
        }
    }

    /// Returns the single monomial if the polynomial has exactly one term
    /// (or the zero monomial for the zero polynomial).
    pub fn as_monomial(&self) -> Option<Monomial> {
        match self.terms.len() {
            0 => Some(Monomial::zero()),
            1 => self.terms.values().next().cloned(),
            _ => None,
        }
    }

    /// Iterates over the monomials of the polynomial in canonical order.
    pub fn terms(&self) -> impl Iterator<Item = &Monomial> {
        self.terms.values()
    }

    /// Returns the number of (non-zero) terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Returns the set of parameter names appearing in the polynomial.
    pub fn params(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for m in self.terms.values() {
            for (name, _) in m.vars() {
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        names
    }

    /// Returns the total degree of the polynomial (0 for constants).
    pub fn degree(&self) -> u32 {
        self.terms.values().map(Monomial::degree).max().unwrap_or(0)
    }

    fn add_monomial(&mut self, m: Monomial) {
        if m.is_zero() {
            return;
        }
        let key = m.key();
        match self.terms.remove(&key) {
            None => {
                self.terms.insert(key, m);
            }
            Some(existing) => {
                let merged = Monomial::from_parts(existing.coeff() + m.coeff(), key.clone());
                if !merged.is_zero() {
                    self.terms.insert(key, merged);
                }
            }
        }
    }

    /// Multiplies the polynomial by a rational scalar.
    pub fn scale(&self, factor: Rational) -> Poly {
        if factor.is_zero() {
            return Poly::zero();
        }
        let mut out = Poly::zero();
        for m in self.terms.values() {
            out.add_monomial(m.scale(factor));
        }
        out
    }

    /// Attempts exact division by another polynomial.
    ///
    /// Division is supported when the divisor is a single monomial (which
    /// covers every case needed by the dataflow analyses: dividing
    /// repetition-vector entries by `gcd`-like monomials). Each term of
    /// the dividend must be divisible by the divisor.
    ///
    /// # Errors
    ///
    /// * [`SymExprError::DivisionByZero`] if `divisor` is zero.
    /// * [`SymExprError::InexactDivision`] if the divisor is not a single
    ///   monomial or some term is not divisible.
    pub fn checked_div(&self, divisor: &Poly) -> Result<Poly, SymExprError> {
        if divisor.is_zero() {
            return Err(SymExprError::DivisionByZero);
        }
        let divisor_mono = divisor
            .as_monomial()
            .ok_or_else(|| SymExprError::InexactDivision {
                dividend: self.to_string(),
                divisor: divisor.to_string(),
            })?;
        let mut out = Poly::zero();
        for m in self.terms.values() {
            out.add_monomial(m.checked_div(&divisor_mono)?);
        }
        Ok(out)
    }

    /// Substitutes a parameter with a polynomial.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpdf_symexpr::Poly;
    /// let e = Poly::param("p") * Poly::from_integer(2);
    /// let s = e.substitute("p", &Poly::from_integer(3));
    /// assert_eq!(s.as_constant().unwrap().to_integer(), Some(6));
    /// ```
    pub fn substitute(&self, name: &str, replacement: &Poly) -> Poly {
        let mut out = Poly::zero();
        for m in self.terms.values() {
            let mut term = Poly::from_rational(m.coeff());
            for (var, exp) in m.vars() {
                let factor = if var == name {
                    replacement.clone()
                } else {
                    Poly::param(var)
                };
                for _ in 0..exp {
                    term *= factor.clone();
                }
            }
            out += term;
        }
        out
    }

    /// Evaluates the polynomial against a binding, returning an exact
    /// rational.
    ///
    /// # Errors
    ///
    /// Returns [`SymExprError::UnboundParameter`] if a parameter has no
    /// bound value.
    pub fn eval_rational(&self, binding: &Binding) -> Result<Rational, SymExprError> {
        let mut acc = Rational::ZERO;
        for m in self.terms.values() {
            acc += m.eval(binding)?;
        }
        Ok(acc)
    }

    /// Evaluates the polynomial against a binding and requires the result
    /// to be an integer.
    ///
    /// # Errors
    ///
    /// * [`SymExprError::UnboundParameter`] if a parameter is unbound.
    /// * [`SymExprError::InexactDivision`] if the result is fractional.
    pub fn eval(&self, binding: &Binding) -> Result<i64, SymExprError> {
        let r = self.eval_rational(binding)?;
        r.to_integer()
            .map(|v| v as i64)
            .ok_or_else(|| SymExprError::InexactDivision {
                dividend: self.to_string(),
                divisor: format!("denominator {}", r.denom()),
            })
    }

    /// Evaluates the polynomial and requires the result to be a
    /// non-negative integer (e.g. a dataflow rate or repetition count).
    ///
    /// # Errors
    ///
    /// In addition to [`Poly::eval`]'s errors, returns
    /// [`SymExprError::NegativeValue`] if the result is negative.
    pub fn eval_unsigned(&self, binding: &Binding) -> Result<u64, SymExprError> {
        let v = self.eval(binding)?;
        if v < 0 {
            return Err(SymExprError::NegativeValue(self.to_string()));
        }
        Ok(v as u64)
    }
}

impl Default for Poly {
    fn default() -> Self {
        Poly::zero()
    }
}

impl From<i64> for Poly {
    fn from(value: i64) -> Self {
        Poly::from_integer(value)
    }
}

impl From<Rational> for Poly {
    fn from(value: Rational) -> Self {
        Poly::from_rational(value)
    }
}

impl From<Monomial> for Poly {
    fn from(value: Monomial) -> Self {
        Poly::from_monomial(value)
    }
}

impl Add for Poly {
    type Output = Poly;
    fn add(mut self, rhs: Poly) -> Poly {
        for m in rhs.terms.into_values() {
            self.add_monomial(m);
        }
        self
    }
}

impl AddAssign for Poly {
    fn add_assign(&mut self, rhs: Poly) {
        for m in rhs.terms.into_values() {
            self.add_monomial(m);
        }
    }
}

impl Sub for Poly {
    type Output = Poly;
    fn sub(self, rhs: Poly) -> Poly {
        self + (-rhs)
    }
}

impl SubAssign for Poly {
    fn sub_assign(&mut self, rhs: Poly) {
        *self += -rhs;
    }
}

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        self.scale(Rational::from_integer(-1))
    }
}

impl Mul for Poly {
    type Output = Poly;
    fn mul(self, rhs: Poly) -> Poly {
        let mut out = Poly::zero();
        for a in self.terms.values() {
            for b in rhs.terms.values() {
                out.add_monomial(a.clone() * b.clone());
            }
        }
        out
    }
}

impl MulAssign for Poly {
    fn mul_assign(&mut self, rhs: Poly) {
        let lhs = std::mem::take(self);
        *self = lhs * rhs;
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for m in self.terms.values() {
            if first {
                write!(f, "{m}")?;
                first = false;
            } else if m.coeff().is_negative() {
                write!(f, " - {}", m.scale(Rational::from_integer(-1)))?;
            } else {
                write!(f, " + {m}")?;
            }
        }
        Ok(())
    }
}

impl std::iter::Sum for Poly {
    fn sum<I: Iterator<Item = Poly>>(iter: I) -> Poly {
        iter.fold(Poly::zero(), |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn binding() -> Binding {
        Binding::from_pairs([("p", 4), ("N", 512), ("L", 1), ("beta", 10)])
    }

    #[test]
    fn constants_and_params() {
        assert!(Poly::zero().is_zero());
        assert!(Poly::one().is_constant());
        assert_eq!(
            Poly::from_integer(7).as_constant().unwrap().to_integer(),
            Some(7)
        );
        assert!(!Poly::param("p").is_constant());
        assert_eq!(Poly::param("p").params(), vec!["p".to_string()]);
    }

    #[test]
    fn addition_merges_like_terms() {
        let p = Poly::param("p");
        let sum = p.clone() + p.clone();
        assert_eq!(sum.term_count(), 1);
        assert_eq!(sum.to_string(), "2*p");
        let cancel = p.clone() - p;
        assert!(cancel.is_zero());
    }

    #[test]
    fn multiplication_distributes() {
        let p = Poly::param("p");
        let q = Poly::param("q");
        let prod = (p.clone() + Poly::one()) * (q.clone() + Poly::one());
        // p*q + p + q + 1
        assert_eq!(prod.term_count(), 4);
        assert_eq!(prod.degree(), 2);
    }

    #[test]
    fn figure8_formulas() {
        // TPDF: 3 + beta*(12*N + L); CSDF: beta*(17*N + L)
        let beta = Poly::param("beta");
        let n = Poly::param("N");
        let l = Poly::param("L");
        let tpdf =
            Poly::from_integer(3) + beta.clone() * (Poly::from_integer(12) * n.clone() + l.clone());
        let csdf = beta * (Poly::from_integer(17) * n + l);
        let b = binding();
        assert_eq!(tpdf.eval(&b).unwrap(), 3 + 10 * (12 * 512 + 1));
        assert_eq!(csdf.eval(&b).unwrap(), 10 * (17 * 512 + 1));
        // TPDF needs less memory.
        assert!(tpdf.eval(&b).unwrap() < csdf.eval(&b).unwrap());
    }

    #[test]
    fn division_by_monomial() {
        let p = Poly::param("p");
        let expr =
            Poly::from_integer(2) * p.clone() * p.clone() + Poly::from_integer(4) * p.clone();
        let quot = expr.checked_div(&p).unwrap();
        assert_eq!(quot.to_string(), "4 + 2*p");
        assert!(expr.checked_div(&Poly::zero()).is_err());
        // Dividing by a 2-term polynomial is unsupported.
        let two_terms = Poly::param("p") + Poly::one();
        assert!(expr.checked_div(&two_terms).is_err());
        // p + 1 is not divisible by p.
        assert!((Poly::param("p") + Poly::one()).checked_div(&p).is_err());
    }

    #[test]
    fn substitution() {
        let e = Poly::param("p") * Poly::param("p") + Poly::param("q");
        let s = e.substitute("p", &(Poly::param("q") + Poly::one()));
        // (q+1)^2 + q = q^2 + 3q + 1
        let b = Binding::from_pairs([("q", 2)]);
        assert_eq!(s.eval(&b).unwrap(), 4 + 6 + 1);
    }

    #[test]
    fn eval_errors() {
        let e = Poly::param("unknown");
        assert!(matches!(
            e.eval(&binding()),
            Err(SymExprError::UnboundParameter(_))
        ));
        let half = Poly::from_rational(Rational::new(1, 2));
        assert!(half.eval(&binding()).is_err());
        let neg = Poly::from_integer(-3);
        assert!(matches!(
            neg.eval_unsigned(&binding()),
            Err(SymExprError::NegativeValue(_))
        ));
        assert_eq!(Poly::from_integer(3).eval_unsigned(&binding()).unwrap(), 3);
    }

    #[test]
    fn display() {
        let e = Poly::param("p") - Poly::from_integer(3);
        assert_eq!(e.to_string(), "-3 + p");
        assert_eq!(Poly::zero().to_string(), "0");
    }

    #[test]
    fn sum_iterator() {
        let total: Poly = (1..=4).map(Poly::from_integer).sum();
        assert_eq!(total.as_constant().unwrap().to_integer(), Some(10));
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in -20i64..20, b in -20i64..20, c in -20i64..20) {
            let x = Poly::from_integer(a) * Poly::param("p") + Poly::from_integer(b);
            let y = Poly::from_integer(c) * Poly::param("q");
            prop_assert_eq!(x.clone() + y.clone(), y + x);
        }

        #[test]
        fn prop_mul_distributes_over_add(a in -10i64..10, b in -10i64..10, c in -10i64..10) {
            let x = Poly::from_integer(a) * Poly::param("p");
            let y = Poly::from_integer(b) * Poly::param("q") + Poly::one();
            let z = Poly::from_integer(c);
            prop_assert_eq!(x.clone() * (y.clone() + z.clone()), x.clone() * y + x * z);
        }

        #[test]
        fn prop_eval_homomorphic(a in -10i64..10, b in -10i64..10, p in 1i64..20, q in 1i64..20) {
            let binding = Binding::from_pairs([("p", p), ("q", q)]);
            let x = Poly::from_integer(a) * Poly::param("p") + Poly::one();
            let y = Poly::from_integer(b) * Poly::param("q");
            let sum_eval = (x.clone() + y.clone()).eval(&binding).unwrap();
            prop_assert_eq!(sum_eval, x.eval(&binding).unwrap() + y.eval(&binding).unwrap());
            let mul_eval = (x.clone() * y.clone()).eval(&binding).unwrap();
            prop_assert_eq!(mul_eval, x.eval(&binding).unwrap() * y.eval(&binding).unwrap());
        }

        #[test]
        fn prop_sub_self_is_zero(a in -10i64..10, e in 0u32..3) {
            let mut x = Poly::from_integer(a);
            for _ in 0..e { x *= Poly::param("p"); }
            prop_assert!((x.clone() - x).is_zero());
        }
    }
}
