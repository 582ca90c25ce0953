//! Monomials: a rational coefficient times a product of parameters.

use crate::{Binding, Rational, SymExprError};
use std::collections::BTreeMap;
use std::fmt;

/// A monomial `c · x₁^e₁ · x₂^e₂ · …` with a rational coefficient `c` and
/// non-negative integer exponents over named parameters.
///
/// Monomials are the workhorse of parametric rate analysis: production
/// and consumption rates in TPDF are (sums of) monomials such as `p`,
/// `2p`, `β·N` or `4·β·N`, and entries of the symbolic repetition vector
/// are monomials with rational coefficients before normalisation.
///
/// # Examples
///
/// ```
/// use tpdf_symexpr::{Monomial, Rational};
///
/// let two_p = Monomial::constant(Rational::from_integer(2)) * Monomial::param("p");
/// assert_eq!(two_p.to_string(), "2*p");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Monomial {
    coeff: Rational,
    /// parameter name → exponent (≥ 1); the map never stores zero
    /// exponents and is empty for constants.
    vars: BTreeMap<String, u32>,
}

impl Monomial {
    /// The zero monomial.
    pub fn zero() -> Self {
        Monomial {
            coeff: Rational::ZERO,
            vars: BTreeMap::new(),
        }
    }

    /// The unit monomial `1`.
    pub fn one() -> Self {
        Monomial::constant(Rational::ONE)
    }

    /// A constant monomial.
    pub fn constant(value: Rational) -> Self {
        Monomial {
            coeff: value,
            vars: BTreeMap::new(),
        }
    }

    /// The monomial consisting of a single parameter with exponent 1 and
    /// coefficient 1.
    pub fn param<S: Into<String>>(name: S) -> Self {
        let mut vars = BTreeMap::new();
        vars.insert(name.into(), 1);
        Monomial {
            coeff: Rational::ONE,
            vars,
        }
    }

    /// Returns the rational coefficient.
    pub fn coeff(&self) -> Rational {
        self.coeff
    }

    /// Returns `true` if the monomial is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.coeff.is_zero()
    }

    /// Returns `true` if the monomial is a constant (no parameters).
    pub fn is_constant(&self) -> bool {
        self.vars.is_empty() || self.is_zero()
    }

    /// Returns the constant value if this monomial has no parameters.
    pub fn as_constant(&self) -> Option<Rational> {
        if self.is_constant() {
            Some(self.coeff)
        } else {
            None
        }
    }

    /// Iterates over `(parameter, exponent)` pairs in name order.
    pub fn vars(&self) -> impl Iterator<Item = (&str, u32)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Returns the total degree (sum of exponents).
    pub fn degree(&self) -> u32 {
        if self.is_zero() {
            0
        } else {
            self.vars.values().sum()
        }
    }

    /// Returns the "variable part" key used to group like terms: the
    /// exponent map without the coefficient.
    pub(crate) fn key(&self) -> BTreeMap<String, u32> {
        if self.is_zero() {
            BTreeMap::new()
        } else {
            self.vars.clone()
        }
    }

    /// Builds a monomial from a coefficient and an exponent map,
    /// normalising zero coefficients and zero exponents.
    pub fn from_parts(coeff: Rational, vars: BTreeMap<String, u32>) -> Self {
        if coeff.is_zero() {
            return Monomial::zero();
        }
        let vars = vars.into_iter().filter(|(_, e)| *e > 0).collect();
        Monomial { coeff, vars }
    }

    /// Multiplies by a rational scalar.
    pub fn scale(&self, factor: Rational) -> Monomial {
        Monomial::from_parts(self.coeff * factor, self.vars.clone())
    }

    /// Returns `true` if `self` and `other` have the same variable part
    /// (and therefore can be added into a single monomial).
    pub fn same_vars(&self, other: &Monomial) -> bool {
        self.key() == other.key()
    }

    /// Attempts exact division by another monomial.
    ///
    /// Succeeds when every parameter of the divisor appears in the
    /// dividend with at least the same exponent. The coefficient division
    /// is always exact over the rationals.
    ///
    /// # Errors
    ///
    /// * [`SymExprError::DivisionByZero`] if `divisor` is zero.
    /// * [`SymExprError::InexactDivision`] if some parameter of
    ///   `divisor` does not divide the dividend.
    pub fn checked_div(&self, divisor: &Monomial) -> Result<Monomial, SymExprError> {
        if divisor.is_zero() {
            return Err(SymExprError::DivisionByZero);
        }
        if self.is_zero() {
            return Ok(Monomial::zero());
        }
        let mut vars = self.vars.clone();
        for (name, exp) in &divisor.vars {
            let have = vars.get(name).copied().unwrap_or(0);
            if have < *exp {
                return Err(SymExprError::InexactDivision {
                    dividend: self.to_string(),
                    divisor: divisor.to_string(),
                });
            }
            if have == *exp {
                vars.remove(name);
            } else {
                vars.insert(name.clone(), have - exp);
            }
        }
        Ok(Monomial::from_parts(self.coeff / divisor.coeff, vars))
    }

    /// Evaluates the monomial under a parameter binding.
    ///
    /// # Errors
    ///
    /// * [`SymExprError::UnboundParameter`] if a parameter has no value.
    /// * [`SymExprError::Overflow`] if the result does not fit `i128` or
    ///   the coefficient does not evaluate to an integer after
    ///   multiplication.
    pub fn eval(&self, binding: &Binding) -> Result<Rational, SymExprError> {
        let mut acc = self.coeff;
        if acc.is_zero() {
            return Ok(Rational::ZERO);
        }
        for (name, exp) in &self.vars {
            let value = binding
                .get(name)
                .ok_or_else(|| SymExprError::UnboundParameter(name.clone()))?;
            for _ in 0..*exp {
                acc *= Rational::from_integer(value as i128);
            }
        }
        Ok(acc)
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::zero()
    }
}

impl From<Rational> for Monomial {
    fn from(value: Rational) -> Self {
        Monomial::constant(value)
    }
}

impl From<i64> for Monomial {
    fn from(value: i64) -> Self {
        Monomial::constant(Rational::from_integer(value as i128))
    }
}

impl std::ops::Mul for Monomial {
    type Output = Monomial;
    fn mul(self, rhs: Monomial) -> Monomial {
        if self.is_zero() || rhs.is_zero() {
            return Monomial::zero();
        }
        let mut vars = self.vars;
        for (name, exp) in rhs.vars {
            *vars.entry(name).or_insert(0) += exp;
        }
        Monomial::from_parts(self.coeff * rhs.coeff, vars)
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.coeff != Rational::ONE || self.vars.is_empty() {
            parts.push(self.coeff.to_string());
        }
        for (name, exp) in &self.vars {
            if *exp == 1 {
                parts.push(name.clone());
            } else {
                parts.push(format!("{name}^{exp}"));
            }
        }
        write!(f, "{}", parts.join("*"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert!(Monomial::zero().is_zero());
        assert!(Monomial::one().is_constant());
        assert_eq!(Monomial::one().as_constant(), Some(Rational::ONE));
        let p = Monomial::param("p");
        assert!(!p.is_constant());
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn multiplication_merges_exponents() {
        let p = Monomial::param("p");
        let p2 = p.clone() * p.clone();
        assert_eq!(p2.degree(), 2);
        assert_eq!(p2.to_string(), "p^2");
        let two = Monomial::from(2i64);
        assert_eq!((two * p).to_string(), "2*p");
    }

    #[test]
    fn zero_annihilates() {
        let p = Monomial::param("p");
        assert!((Monomial::zero() * p).is_zero());
    }

    #[test]
    fn division() {
        let p = Monomial::param("p");
        let n = Monomial::param("N");
        let pn2 = p.clone() * n.clone() * Monomial::from(2);
        let q = pn2.checked_div(&n).unwrap();
        assert_eq!(q.to_string(), "2*p");
        assert!(p.checked_div(&n).is_err());
        assert!(p.checked_div(&Monomial::zero()).is_err());
        assert!(Monomial::zero().checked_div(&p).unwrap().is_zero());
    }

    #[test]
    fn eval() {
        let b = Binding::from_pairs([("p", 3), ("N", 4)]);
        let m = Monomial::param("p") * Monomial::param("N") * Monomial::from(2);
        assert_eq!(m.eval(&b).unwrap(), Rational::from_integer(24));
        let unbound = Monomial::param("q");
        assert!(matches!(
            unbound.eval(&b),
            Err(SymExprError::UnboundParameter(_))
        ));
    }

    #[test]
    fn display() {
        assert_eq!(Monomial::zero().to_string(), "0");
        assert_eq!(Monomial::from(5).to_string(), "5");
        assert_eq!(Monomial::param("p").to_string(), "p");
        let m = Monomial::constant(Rational::new(1, 2)) * Monomial::param("p");
        assert_eq!(m.to_string(), "1/2*p");
    }

    #[test]
    fn same_vars() {
        let a = Monomial::param("p").scale(Rational::from_integer(2));
        let b = Monomial::param("p").scale(Rational::from_integer(7));
        assert!(a.same_vars(&b));
        assert!(!a.same_vars(&Monomial::param("q")));
    }

    proptest! {
        #[test]
        fn prop_mul_commutative(c1 in -20i64..20, c2 in -20i64..20) {
            let a = Monomial::from(c1) * Monomial::param("p");
            let b = Monomial::from(c2) * Monomial::param("q");
            prop_assert_eq!(a.clone() * b.clone(), b * a);
        }

        #[test]
        fn prop_div_then_mul_roundtrip(c in 1i64..50, e1 in 1u32..4, e2 in 1u32..4) {
            // (c * p^(e1+e2)) / p^e1 * p^e1 == original
            let mut big = Monomial::from(c);
            for _ in 0..(e1 + e2) { big = big * Monomial::param("p"); }
            let mut div = Monomial::one();
            for _ in 0..e1 { div = div * Monomial::param("p"); }
            let q = big.checked_div(&div).unwrap();
            prop_assert_eq!(q * div, big);
        }

        #[test]
        fn prop_eval_mul_homomorphic(c1 in -10i64..10, c2 in -10i64..10, p in 1i64..20) {
            let binding = Binding::from_pairs([("p", p)]);
            let a = Monomial::from(c1) * Monomial::param("p");
            let b = Monomial::from(c2);
            let lhs = (a.clone() * b.clone()).eval(&binding).unwrap();
            let rhs = a.eval(&binding).unwrap() * b.eval(&binding).unwrap();
            prop_assert_eq!(lhs, rhs);
        }
    }
}
