//! Exact rational arithmetic over `i128`.
//!
//! Polyhedral computations (vertex enumeration, Fourier–Motzkin) must be
//! exact: floating point would misclassify touching/empty polyhedra. All
//! coefficients in this workspace are small (loop bounds, strides), so an
//! `i128` numerator/denominator pair with eager normalisation is ample; all
//! arithmetic panics on overflow in debug and is checked in release.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number. The denominator is always positive and the
/// fraction is always in lowest terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of `|a|` and `|b|` (`gcd(0, 0) == 0`) — the
/// crate's one Euclid loop. Loop bounds and strides fit machine words, so
/// the common case runs on hardware `u64` division; `i128 %` is a library
/// call.
pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    if let (Ok(mut x), Ok(mut y)) = (u64::try_from(a), u64::try_from(b)) {
        while y != 0 {
            (x, y) = (y, x % y);
        }
        return x as i128;
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a as i128
}

impl Rat {
    /// Zero.
    pub(crate) const ZERO: Rat = Rat { num: 0, den: 1 };

    /// Creates `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Creates the integer `n`.
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub(crate) fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub(crate) fn den(self) -> i128 {
        self.den
    }

    /// True if the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// True if zero.
    pub(crate) fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Sign: -1, 0 or 1.
    pub fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub(crate) fn recip(self) -> Rat {
        Rat::new(self.den, self.num)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl Add for Rat {
    type Output = Rat;
    // a/b + c/d needs cross-multiplication.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return Rat::int(self.num.checked_add(o.num).expect("rat overflow"));
        }
        Rat::new(
            self.num
                .checked_mul(o.den)
                .and_then(|a| a.checked_add(o.num * self.den))
                .expect("rat overflow"),
            self.den * o.den,
        )
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        self + (-o)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return Rat::int(self.num.checked_mul(o.num).expect("rat overflow"));
        }
        Rat::new(self.num.checked_mul(o.num).expect("rat overflow"), self.den * o.den)
    }
}

impl Div for Rat {
    type Output = Rat;
    // Division is multiplication by the reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, o: Rat) -> Rat {
        self * o.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -self.num, den: self.den }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, o: &Rat) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Rat {
    fn cmp(&self, o: &Rat) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        (self.num * o.den).cmp(&(o.num * self.den))
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::int(v as i128)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert_eq!(Rat::new(2, 4).cmp(&Rat::new(1, 2)), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn integer_queries() {
        assert!(Rat::int(3).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
    }
}
