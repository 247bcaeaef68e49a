//! Loop-nest extraction: turning a polyhedron into scanning loop bounds.
//!
//! This is the code-generation back half of §5.1: once the convex hull of
//! the accessed cells is known, the compiler "generates the loop nest of
//! minimal depth required to prefetch these addresses". A
//! [`LoopNestSpec`] gives, for every dimension in order, the affine lower
//! and upper bounds (in outer dimensions and parameters) obtained by
//! Fourier–Motzkin projection; `dae-core` lowers the spec to IR loops.

use crate::linexpr::LinExpr;
use crate::polyhedron::{DimBound, Levels, Polyhedron, RowBudget, ScanError};
use crate::tables::Tables;

/// One bound of a dimension: `coeff · d ⋛ expr` with `coeff > 0`.
///
/// For a lower bound the scan starts at `ceil(-expr / coeff)`; for an upper
/// bound it ends at `floor(expr / coeff)` (inclusive). `expr` has non-zero
/// coefficients only for outer dimensions and parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bound {
    /// Positive coefficient of the bounded dimension.
    pub coeff: i128,
    /// The bound expression.
    pub expr: LinExpr,
}

/// Bounds of one scanning dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimBounds {
    /// Lower bounds; the effective bound is their maximum.
    pub lowers: Vec<Bound>,
    /// Upper bounds (inclusive); the effective bound is their minimum.
    pub uppers: Vec<Bound>,
}

impl DimBounds {
    /// True if both bound sets are unit-coefficient (no division needed when
    /// lowering to IR).
    pub(crate) fn is_unit(&self) -> bool {
        self.lowers.iter().chain(&self.uppers).all(|b| b.coeff == 1)
    }
}

/// A scanning loop nest for a polyhedron: one [`DimBounds`] per dimension,
/// outermost first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopNestSpec {
    /// Per-dimension bounds.
    pub dims: Vec<DimBounds>,
}

impl LoopNestSpec {
    /// Depth of the nest.
    pub fn depth(&self) -> usize {
        self.dims.len()
    }

    /// True when every bound has unit coefficient — directly lowerable
    /// without floor/ceil division.
    pub fn is_unit(&self) -> bool {
        self.dims.iter().all(DimBounds::is_unit)
    }
}

/// Extracts a scanning loop nest from `p` in dimension order `0, 1, …`.
///
/// Returns `None` if some dimension ends up without both a lower and an
/// upper bound (an unbounded scan cannot be generated).
pub fn extract_loop_nest(p: &Polyhedron) -> Option<LoopNestSpec> {
    let mut levels = Levels::default();
    levels.build(p);
    loop_nest_of(&levels)
}

impl Tables {
    /// The integer-point count of the parameter-free polyhedron `p` (as
    /// [`Polyhedron::try_count_integer_points`]) and its scanning loop nest
    /// (as [`extract_loop_nest`]), both read from one projection chain.
    pub fn try_count_and_nest(
        &mut self,
        p: &Polyhedron,
        budget: &mut RowBudget,
    ) -> Result<(u64, Option<LoopNestSpec>), ScanError> {
        assert_eq!(p.space().params, 0, "instantiate parameters before enumerating");
        self.levels.build(p);
        let count = self.levels.try_count(budget)?;
        Ok((count, loop_nest_of(&self.levels)))
    }
}

/// The scanning loop nest of the polyhedron `levels` was last built from:
/// the bounds its counting scan reads, as [`Bound`]s.
pub(crate) fn loop_nest_of(levels: &Levels) -> Option<LoopNestSpec> {
    // A level's bounds are `coeff·d + rest >= 0` for lowers
    // (d >= -rest/coeff) and `-coeff·d + rest >= 0` for uppers
    // (d <= rest/coeff), `coeff` positive. Normalise so Bound::expr is the
    // RHS of `coeff·d >= expr` / `coeff·d <= expr`.
    let bounds = |v: &[DimBound], negate: bool| -> Vec<Bound> {
        v.iter()
            .map(|(coeff, rest)| Bound {
                coeff: *coeff,
                expr: if negate { rest.clone().scale(-1) } else { rest.clone() },
            })
            .collect()
    };
    let levels = levels.get();
    if levels.iter().any(|l| l.lowers.is_empty() || l.uppers.is_empty()) {
        return None;
    }
    let dims = levels
        .iter()
        .map(|l| DimBounds { lowers: bounds(&l.lowers, true), uppers: bounds(&l.uppers, false) });
    Some(LoopNestSpec { dims: dims.collect() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::Space;

    #[test]
    fn box_nest() {
        // { (i, j) | 0 <= i < n, 0 <= j < n } — Listing 1(c).
        let s = Space::new(2, 1);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        p.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        p.add_ge0(LinExpr::dim(s, 1));
        p.add_ge0(LinExpr::dim(s, 1).scale(-1).with_param(0, 1).with_const(-1));
        let nest = extract_loop_nest(&p).expect("bounded");
        assert_eq!(nest.depth(), 2);
        assert!(nest.dims.iter().all(|d| d.lowers.len() == 1 && d.uppers.len() == 1));
        assert!(nest.is_unit());
        // dim 0 lower bound: 0; upper: n - 1
        let d0 = &nest.dims[0];
        assert_eq!(d0.lowers[0].expr.const_term(), 0);
        assert_eq!(d0.uppers[0].expr.param_coeff(0), 1);
        assert_eq!(d0.uppers[0].expr.const_term(), -1);
    }

    #[test]
    fn triangular_nest_has_outer_dim_in_inner_bound() {
        // { (i, j) | 0 <= i < n, i+1 <= j < n }
        let s = Space::new(2, 1);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        p.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        p.add_ge0(LinExpr::dim(s, 1).with_dim(0, -1).with_const(-1));
        p.add_ge0(LinExpr::dim(s, 1).scale(-1).with_param(0, 1).with_const(-1));
        let nest = extract_loop_nest(&p).expect("bounded");
        // inner lower bound is i + 1: expr = d0 + 1
        let inner_low = &nest.dims[1].lowers[0];
        assert_eq!(inner_low.coeff, 1);
        assert_eq!(inner_low.expr.dim_coeff(0), 1);
        assert_eq!(inner_low.expr.const_term(), 1);
        // after projection the outer dim keeps usable bounds
        assert!(nest.dims[0].lowers.iter().any(|b| b.expr.const_term() <= 0));
    }

    #[test]
    fn unbounded_dimension_rejected() {
        let s = Space::new(1, 0);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0)); // only a lower bound
        assert!(extract_loop_nest(&p).is_none());
    }

    #[test]
    fn non_unit_coefficient_detected() {
        // { i | 0 <= 2i <= 9 } — bounds have coefficient 2.
        let s = Space::new(1, 0);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0).scale(2));
        p.add_ge0(LinExpr::dim(s, 0).scale(-2).with_const(9));
        let nest = extract_loop_nest(&p).expect("bounded");
        assert!(!nest.is_unit());
    }
}
