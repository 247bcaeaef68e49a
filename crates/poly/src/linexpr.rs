//! Linear expressions over a fixed variable space.

use crate::rat::{gcd, Rat};
use std::hash::{Hash, Hasher};
use std::{fmt, ops};

/// The variable space of a polyhedron: `dims` set variables followed by
/// `params` symbolic parameters.
///
/// Coefficient vectors are laid out `[d0 … d_{dims-1}, p0 … p_{params-1}, 1]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Space {
    /// Number of set dimensions (e.g. loop counters).
    pub dims: usize,
    /// Number of symbolic parameters (e.g. block offsets, sizes).
    pub params: usize,
}

impl Space {
    /// Creates a space with `dims` dimensions and `params` parameters.
    pub fn new(dims: usize, params: usize) -> Space {
        Space { dims, params }
    }

    /// Total coefficient-vector length (dims + params + constant).
    pub(crate) fn width(&self) -> usize {
        self.dims + self.params + 1
    }

    /// Column index of dimension `d`.
    pub fn dim_col(&self, d: usize) -> usize {
        assert!(d < self.dims, "dim out of range");
        d
    }

    /// Column index of parameter `p`.
    pub fn param_col(&self, p: usize) -> usize {
        assert!(p < self.params, "param out of range");
        self.dims + p
    }

    /// Column index of the constant term.
    pub(crate) fn const_col(&self) -> usize {
        self.dims + self.params
    }
}

/// Columns a [`Coeffs`] holds without a heap allocation: a space of up to
/// seven dims and parameters — every space the compiler builds for the
/// corpus.
const INLINE: usize = 8;

/// The coefficient vector of a [`LinExpr`]: a slice of `i128`, stored in
/// place up to eight columns and on the heap beyond, so building,
/// cloning and combining the expressions of small spaces never allocates.
#[derive(Clone)]
pub struct Coeffs(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]`; the rest of `buf` is zero.
    Inline {
        len: u8,
        buf: [i128; INLINE],
    },
    Heap(Vec<i128>),
}

impl Coeffs {
    /// `n` zero coefficients.
    fn zeros(n: usize) -> Coeffs {
        Coeffs(if n <= INLINE {
            Repr::Inline { len: n as u8, buf: [0; INLINE] }
        } else {
            Repr::Heap(vec![0; n])
        })
    }

    /// Removes column `i`, shifting the later ones down.
    fn remove(&mut self, i: usize) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                buf.copy_within(i + 1..*len as usize, i);
                *len -= 1;
                buf[*len as usize] = 0;
            }
            Repr::Heap(v) => {
                v.remove(i);
            }
        }
    }
}

impl ops::Deref for Coeffs {
    type Target = [i128];

    fn deref(&self) -> &[i128] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl ops::DerefMut for Coeffs {
    fn deref_mut(&mut self) -> &mut [i128] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Coeffs {
    type Item = &'a i128;
    type IntoIter = std::slice::Iter<'a, i128>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Coeffs {
    type Item = &'a mut i128;
    type IntoIter = std::slice::IterMut<'a, i128>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl PartialEq for Coeffs {
    fn eq(&self, other: &Coeffs) -> bool {
        **self == **other
    }
}

impl Eq for Coeffs {}

impl Hash for Coeffs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Coeffs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// An integer-coefficient linear expression `Σ ci·di + Σ kj·pj + c`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    /// Owning space.
    pub space: Space,
    /// Coefficients, laid out per [`Space`].
    pub coeffs: Coeffs,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero(space: Space) -> LinExpr {
        LinExpr { space, coeffs: Coeffs::zeros(space.width()) }
    }

    /// The constant expression `c`.
    pub fn constant(space: Space, c: i128) -> LinExpr {
        let mut e = LinExpr::zero(space);
        e.coeffs[space.const_col()] = c;
        e
    }

    /// The expression `1·d`.
    pub fn dim(space: Space, d: usize) -> LinExpr {
        let mut e = LinExpr::zero(space);
        e.coeffs[space.dim_col(d)] = 1;
        e
    }

    /// Coefficient of dimension `d`.
    pub fn dim_coeff(&self, d: usize) -> i128 {
        self.coeffs[self.space.dim_col(d)]
    }

    /// Coefficient of parameter `p`.
    pub fn param_coeff(&self, p: usize) -> i128 {
        self.coeffs[self.space.param_col(p)]
    }

    /// The constant term.
    pub fn const_term(&self) -> i128 {
        self.coeffs[self.space.const_col()]
    }

    /// Sets the coefficient of dimension `d` (builder style).
    pub fn with_dim(mut self, d: usize, c: i128) -> LinExpr {
        self.coeffs[self.space.dim_col(d)] = c;
        self
    }

    /// Sets the coefficient of parameter `p` (builder style).
    pub fn with_param(mut self, p: usize, c: i128) -> LinExpr {
        self.coeffs[self.space.param_col(p)] = c;
        self
    }

    /// Sets the constant term (builder style).
    pub fn with_const(mut self, c: i128) -> LinExpr {
        self.coeffs[self.space.const_col()] = c;
        self
    }

    /// `self + k·o`, in place: no scaled copy of `o` is built.
    pub(crate) fn add_scaled(mut self, k: i128, o: &LinExpr) -> LinExpr {
        assert_eq!(self.space, o.space);
        for (a, b) in self.coeffs.iter_mut().zip(&o.coeffs) {
            *a += b * k;
        }
        self
    }

    /// The expression plus the constant `c`.
    pub fn add_const(mut self, c: i128) -> LinExpr {
        self.coeffs[self.space.const_col()] += c;
        self
    }

    /// Scaled by an integer.
    pub fn scale(mut self, k: i128) -> LinExpr {
        for c in &mut self.coeffs {
            *c *= k;
        }
        self
    }

    /// Divides all coefficients by their (positive) gcd; no-op for zero.
    pub(crate) fn normalize(mut self) -> LinExpr {
        let mut g: i128 = 0;
        for &c in &self.coeffs {
            g = gcd(g, c);
        }
        if g > 1 {
            for c in &mut self.coeffs {
                *c /= g;
            }
        }
        self
    }

    /// Evaluates at rational dimension values with integer parameter values.
    pub(crate) fn eval(&self, dim_vals: &[Rat], param_vals: &[i64]) -> Rat {
        assert_eq!(dim_vals.len(), self.space.dims);
        assert_eq!(param_vals.len(), self.space.params);
        let mut acc = Rat::int(self.const_term());
        for (d, v) in dim_vals.iter().enumerate() {
            acc = acc + *v * Rat::int(self.dim_coeff(d));
        }
        for (p, v) in param_vals.iter().enumerate() {
            acc = acc + Rat::int(self.param_coeff(p) * *v as i128);
        }
        acc
    }

    /// Evaluates at integer dimension values and integer parameters.
    pub fn eval_int(&self, dim_vals: &[i64], param_vals: &[i64]) -> i128 {
        let mut acc = self.const_term();
        for (d, v) in dim_vals.iter().enumerate() {
            acc += self.dim_coeff(d) * *v as i128;
        }
        for (p, v) in param_vals.iter().enumerate() {
            acc += self.param_coeff(p) * *v as i128;
        }
        acc
    }

    /// Evaluates a parameter-free expression with the leading dims set to
    /// `dim_vals` and the remaining dims to zero; `None` when the sum
    /// leaves `i128`.
    pub(crate) fn checked_eval_prefix(&self, dim_vals: &[i64]) -> Option<i128> {
        debug_assert_eq!(self.space.params, 0);
        let mut acc = self.const_term();
        for (c, v) in self.coeffs.iter().zip(dim_vals) {
            acc = acc.checked_add(c.checked_mul(*v as i128)?)?;
        }
        Some(acc)
    }

    /// The same expression in a space without dimension `d` (whose term is
    /// dropped); dims above `d` shift down.
    pub(crate) fn without_dim(mut self, d: usize) -> LinExpr {
        self.coeffs.remove(self.space.dim_col(d));
        LinExpr { space: Space::new(self.space.dims - 1, self.space.params), coeffs: self.coeffs }
    }

    /// Exchanges the roles of dimensions `a` and `b`.
    pub(crate) fn swap_dims(&mut self, a: usize, b: usize) {
        self.coeffs.swap(self.space.dim_col(a), self.space.dim_col(b));
    }

    /// Rewrites into a space with the same layout but with parameters
    /// substituted by concrete values (result has zero params).
    pub(crate) fn instantiate_params(&self, values: &[i64]) -> LinExpr {
        assert_eq!(values.len(), self.space.params);
        let new_space = Space::new(self.space.dims, 0);
        let mut e = LinExpr::zero(new_space);
        for d in 0..self.space.dims {
            e.coeffs[d] = self.dim_coeff(d);
        }
        let mut c = self.const_term();
        for (p, v) in values.iter().enumerate() {
            c += self.param_coeff(p) * *v as i128;
        }
        e.coeffs[new_space.const_col()] = c;
        e
    }
}

/// Pointwise difference, in place.
impl ops::Sub<&LinExpr> for LinExpr {
    type Output = LinExpr;

    fn sub(self, o: &LinExpr) -> LinExpr {
        self.add_scaled(-1, o)
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut write_term = |f: &mut fmt::Formatter<'_>, c: i128, name: String| -> fmt::Result {
            if c == 0 {
                return Ok(());
            }
            if first {
                first = false;
                if c == 1 {
                    write!(f, "{name}")?;
                } else if c == -1 {
                    write!(f, "-{name}")?;
                } else {
                    write!(f, "{c}{name}")?;
                }
            } else if c > 0 {
                write!(f, " + {}{name}", if c == 1 { String::new() } else { c.to_string() })?;
            } else {
                write!(f, " - {}{name}", if c == -1 { String::new() } else { (-c).to_string() })?;
            }
            Ok(())
        };
        for d in 0..self.space.dims {
            write_term(f, self.dim_coeff(d), format!("d{d}"))?;
        }
        for p in 0..self.space.params {
            write_term(f, self.param_coeff(p), format!("n{p}"))?;
        }
        let c = self.const_term();
        if first {
            write!(f, "{c}")
        } else if c > 0 {
            write!(f, " + {c}")
        } else if c < 0 {
            write!(f, " - {}", -c)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout() {
        let s = Space::new(2, 1);
        assert_eq!(s.width(), 4);
        assert_eq!(s.dim_col(1), 1);
        assert_eq!(s.param_col(0), 2);
        assert_eq!(s.const_col(), 3);
    }

    #[test]
    fn eval() {
        let s = Space::new(2, 1);
        // 3*d0 - d1 + 2*n0 + 7
        let e = LinExpr::zero(s).with_dim(0, 3).with_dim(1, -1).with_param(0, 2).with_const(7);
        assert_eq!(e.eval_int(&[1, 2], &[5]), 3 - 2 + 10 + 7);
        assert_eq!(e.eval(&[Rat::new(1, 2), Rat::ZERO], &[0]), Rat::new(17, 2));
    }

    #[test]
    fn instantiate() {
        let s = Space::new(1, 2);
        let e = LinExpr::zero(s).with_dim(0, 1).with_param(0, 4).with_param(1, -1).with_const(3);
        let i = e.instantiate_params(&[10, 2]);
        assert_eq!(i.space.params, 0);
        assert_eq!(i.const_term(), 3 + 40 - 2);
        assert_eq!(i.dim_coeff(0), 1);
    }

    #[test]
    fn normalize_divides_gcd() {
        let s = Space::new(1, 0);
        let e = LinExpr::zero(s).with_dim(0, 4).with_const(8);
        let n = e.normalize();
        assert_eq!(n.dim_coeff(0), 1);
        assert_eq!(n.const_term(), 2);
        // zero expr normalizes to itself
        assert_eq!(LinExpr::zero(s).normalize(), LinExpr::zero(s));
    }

    #[test]
    fn debug_format() {
        let s = Space::new(2, 1);
        let e = LinExpr::zero(s).with_dim(0, 1).with_dim(1, -2).with_param(0, 3).with_const(-4);
        assert_eq!(format!("{e:?}"), "d0 - 2d1 + 3n0 - 4");
    }
}
