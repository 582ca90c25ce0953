//! Exact rational numbers backed by `i128`.

use crate::{gcd, SymExprError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always stored in
/// lowest terms.
///
/// Rationals appear throughout dataflow analysis: the null-space vector
/// `r` of the topology matrix (Theorem 1 in the paper) generally has
/// fractional entries (`r_C = p/2` in Example 2) that are later
/// normalised to integers.
///
/// # Examples
///
/// ```
/// use tpdf_symexpr::Rational;
///
/// let half = Rational::new(1, 2);
/// let third = Rational::new(1, 3);
/// assert_eq!(half + third, Rational::new(5, 6));
/// assert_eq!((half * third).to_string(), "1/6");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num / den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational denominator must be non-zero");
        let sign = if (num < 0) ^ (den < 0) { -1 } else { 1 };
        let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(num, den).max(1);
        Rational {
            num: sign * (num / g) as i128,
            den: (den / g) as i128,
        }
    }

    /// Creates a rational from an integer.
    pub fn from_integer(value: i128) -> Self {
        Rational { num: value, den: 1 }
    }

    /// Returns the numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Returns the (positive) denominator.
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is a (possibly negative) integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns the integer value if this rational is an integer.
    pub fn to_integer(&self) -> Option<i128> {
        if self.is_integer() {
            Some(self.num)
        } else {
            None
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`SymExprError::DivisionByZero`] if the value is zero.
    pub fn recip(&self) -> Result<Rational, SymExprError> {
        if self.is_zero() {
            return Err(SymExprError::DivisionByZero);
        }
        Ok(Rational::new(self.den, self.num))
    }

    /// Returns the absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`SymExprError::DivisionByZero`] if `other` is zero.
    pub fn checked_div(&self, other: &Rational) -> Result<Rational, SymExprError> {
        Ok(*self * other.recip()?)
    }

    /// Approximate conversion to `f64` (for reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from_integer(value as i128)
    }
}

impl From<i128> for Rational {
    fn from(value: i128) -> Self {
        Rational::from_integer(value)
    }
}

impl From<u64> for Rational {
    fn from(value: u64) -> Self {
        Rational::from_integer(value as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl Div for Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero. Use [`Rational::checked_div`] for a
    /// fallible variant.
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

/// Computes the least common multiple of the denominators of a slice of
/// rationals. Returns `1` for an empty slice.
///
/// This is the normalisation step used to turn a fractional null-space
/// solution into the smallest integer repetition vector (Example 2 in the
/// paper multiplies `[1, p, p/2, p/2, p, p/2]` by 2).
pub fn denominator_lcm(values: &[Rational]) -> i128 {
    values
        .iter()
        .fold(1u128, |acc, v| crate::lcm(acc, v.denom() as u128)) as i128
}

/// Computes the greatest common divisor of the numerators of a slice of
/// rationals (after taking absolute values). Returns `0` for an all-zero
/// slice.
pub fn numerator_gcd(values: &[Rational]) -> i128 {
    values
        .iter()
        .fold(0u128, |acc, v| gcd(acc, v.numer().unsigned_abs())) as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_normalises() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, 4), Rational::new(1, -2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert_eq!(
            Rational::new(2, 4).cmp(&Rational::new(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn recip_and_div() {
        assert_eq!(Rational::new(2, 3).recip().unwrap(), Rational::new(3, 2));
        assert!(Rational::ZERO.recip().is_err());
        assert!(Rational::ONE.checked_div(&Rational::ZERO).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 1).to_string(), "3");
        assert_eq!(Rational::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn denominator_lcm_and_numerator_gcd() {
        let v = vec![
            Rational::new(1, 2),
            Rational::new(3, 4),
            Rational::new(5, 6),
        ];
        assert_eq!(denominator_lcm(&v), 12);
        let v = vec![Rational::from_integer(4), Rational::from_integer(6)];
        assert_eq!(numerator_gcd(&v), 2);
        assert_eq!(denominator_lcm(&[]), 1);
        assert_eq!(numerator_gcd(&[Rational::ZERO]), 0);
    }

    #[test]
    fn conversions() {
        assert_eq!(Rational::from(3i64), Rational::from_integer(3));
        assert_eq!(Rational::from(3u64), Rational::from_integer(3));
        assert_eq!(Rational::from(3i128).to_integer(), Some(3));
        assert_eq!(Rational::new(1, 2).to_integer(), None);
        assert!((Rational::new(1, 2).to_f64() - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in -1000i128..1000, b in 1i128..100, c in -1000i128..1000, d in 1i128..100) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn prop_mul_associative(a in -50i128..50, b in 1i128..20, c in -50i128..50, d in 1i128..20, e in -50i128..50, f in 1i128..20) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            let z = Rational::new(e, f);
            prop_assert_eq!((x * y) * z, x * (y * z));
        }

        #[test]
        fn prop_distributive(a in -50i128..50, b in 1i128..20, c in -50i128..50, d in 1i128..20, e in -50i128..50, f in 1i128..20) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            let z = Rational::new(e, f);
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn prop_add_neg_is_zero(a in -1000i128..1000, b in 1i128..100) {
            let x = Rational::new(a, b);
            prop_assert_eq!(x + (-x), Rational::ZERO);
        }

        #[test]
        fn prop_always_lowest_terms(a in -1000i128..1000, b in 1i128..1000) {
            let x = Rational::new(a, b);
            let g = crate::gcd(x.numer().unsigned_abs(), x.denom() as u128);
            prop_assert!(g <= 1 || x.numer() == 0);
            prop_assert!(x.denom() > 0);
        }
    }
}
