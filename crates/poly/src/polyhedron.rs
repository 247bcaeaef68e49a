//! Polyhedra as conjunctions of affine constraints, with Fourier–Motzkin
//! projection and exact emptiness testing.

use crate::linexpr::{LinExpr, Space};
use crate::rat::Rat;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `expr >= 0`.
    GeZero,
    /// `expr == 0`.
    EqZero,
}

/// One affine constraint over a space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Sense.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `expr >= 0`.
    pub(crate) fn ge0(expr: LinExpr) -> Constraint {
        Constraint { expr, kind: ConstraintKind::GeZero }
    }

    /// `expr == 0`.
    pub(crate) fn eq0(expr: LinExpr) -> Constraint {
        Constraint { expr, kind: ConstraintKind::EqZero }
    }
}

/// One bound on a dimension, as returned by [`Polyhedron::dim_bounds`]:
/// `(coeff, expr)` with `coeff·d + expr >= 0`.
pub(crate) type DimBound = (i128, LinExpr);

/// Why the integer points of a polyhedron could not be counted or
/// enumerated. Callers in the compiler treat every variant as a refusal
/// (§5.1 profitability demands a finite, affordable cell count) and fall
/// back to the skeleton strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanError {
    /// Some dimension has no finite lower or upper bound.
    Unbounded {
        /// The first dimension (in scanning order) with a missing bound.
        dim: usize,
    },
    /// The scan would visit more than [`ROW_BUDGET`] rows or points.
    OverBudget,
    /// A bound, coordinate or count does not fit its integer type.
    Overflow,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Unbounded { dim } => write!(f, "polyhedron unbounded in dim {dim}"),
            ScanError::OverBudget => write!(f, "scan exceeds {ROW_BUDGET} rows"),
            ScanError::Overflow => write!(f, "bound or count overflows"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Scan nodes (rows, outer-loop iterations and, on per-point paths, points)
/// one [`RowBudget`] admits. Trip counts come from untrusted IR, so the
/// work spent counting them is capped; the full-size corpus peaks near
/// 200 nodes per generated access phase.
pub const ROW_BUDGET: u64 = 1 << 20;

static ROWS_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// The most nodes any single [`RowBudget`] of this process has visited so
/// far (recorded when a budget is dropped). Never exceeds [`ROW_BUDGET`].
pub fn rows_high_water() -> u64 {
    ROWS_HIGH_WATER.load(Ordering::Relaxed)
}

/// The work allowance of one counting session — in the compiler, one
/// `generate_affine_access` call. Every `try_*` scan charges it.
#[derive(Debug, Default)]
pub struct RowBudget {
    visited: u64,
}

impl RowBudget {
    /// A fresh allowance of [`ROW_BUDGET`] nodes.
    pub fn new() -> RowBudget {
        RowBudget::default()
    }

    /// Nodes visited so far.
    #[cfg(test)]
    pub(crate) fn visited(&self) -> u64 {
        self.visited
    }

    /// Accounts for one visited node.
    pub(crate) fn charge(&mut self) -> Result<(), ScanError> {
        if self.visited == ROW_BUDGET {
            return Err(ScanError::OverBudget);
        }
        self.visited += 1;
        Ok(())
    }
}

impl Drop for RowBudget {
    fn drop(&mut self) {
        // A statistic: publishes no other data.
        ROWS_HIGH_WATER.fetch_max(self.visited, Ordering::Relaxed);
    }
}

/// The bounds of one scanning depth, derived once per scan: `lowers` and
/// `uppers` as in [`Polyhedron::dim_bounds`], and the constraints of the
/// projection onto dims `0..=depth` that do not mention dim `depth`.
struct Level {
    lowers: Vec<DimBound>,
    uppers: Vec<DimBound>,
    guards: Vec<Constraint>,
}

/// A checked `i128` result as a coordinate, or [`ScanError::Overflow`].
pub(crate) fn to_i64(v: Option<i128>) -> Result<i64, ScanError> {
    v.and_then(|v| i64::try_from(v).ok()).ok_or(ScanError::Overflow)
}

/// A convex polyhedron `{ x | A·x + B·n + c >= 0, E·x + F·n + g == 0 }`
/// over [`Space`] variables `x` (dims) and parameters `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polyhedron {
    space: Space,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The universe (no constraints) of `space`.
    pub fn universe(space: Space) -> Polyhedron {
        Polyhedron { space, constraints: Vec::new() }
    }

    /// The owning space.
    pub fn space(&self) -> Space {
        self.space
    }

    /// The constraint list.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds `expr >= 0`.
    pub fn add_ge0(&mut self, expr: LinExpr) {
        assert_eq!(expr.space, self.space);
        self.constraints.push(Constraint::ge0(expr.normalize()));
    }

    /// Adds `expr == 0`.
    pub fn add_eq0(&mut self, expr: LinExpr) {
        assert_eq!(expr.space, self.space);
        self.constraints.push(Constraint::eq0(expr.normalize()));
    }

    /// Adds `lo <= dim` and `dim <= hi` for constants.
    pub fn bound_dim(&mut self, d: usize, lo: i128, hi: i128) {
        let s = self.space;
        self.add_ge0(LinExpr::dim(s, d).with_const(-lo)); // d - lo >= 0
        self.add_ge0(LinExpr::dim(s, d).scale(-1).with_const(hi)); // hi - d >= 0
    }

    /// True if the given integer point (dims) with parameters satisfies all
    /// constraints.
    pub fn contains_int(&self, point: &[i64], params: &[i64]) -> bool {
        self.constraints.iter().all(|c| {
            let v = c.expr.eval_int(point, params);
            match c.kind {
                ConstraintKind::GeZero => v >= 0,
                ConstraintKind::EqZero => v == 0,
            }
        })
    }

    /// True if the given rational point satisfies all constraints.
    pub fn contains_rat(&self, point: &[Rat], params: &[i64]) -> bool {
        self.constraints.iter().all(|c| {
            let v = c.expr.eval(point, params);
            match c.kind {
                ConstraintKind::GeZero => v >= Rat::ZERO,
                ConstraintKind::EqZero => v.is_zero(),
            }
        })
    }

    /// Substitutes concrete parameter values, producing a param-free
    /// polyhedron.
    pub fn instantiate_params(&self, values: &[i64]) -> Polyhedron {
        let mut out = Polyhedron::universe(Space::new(self.space.dims, 0));
        for c in &self.constraints {
            let e = c.expr.instantiate_params(values);
            match c.kind {
                ConstraintKind::GeZero => out.add_ge0(e),
                ConstraintKind::EqZero => out.add_eq0(e),
            }
        }
        out
    }

    /// Eliminates dimension `d` by Fourier–Motzkin (existential projection
    /// over the rationals). The result lives in a space with one fewer dim;
    /// dims above `d` shift down.
    pub fn eliminate_dim(&self, d: usize) -> Polyhedron {
        assert!(d < self.space.dims);
        let new_space = Space::new(self.space.dims - 1, self.space.params);

        // If an equality involves d, use it to substitute d away exactly.
        if let Some(eq_pos) = self
            .constraints
            .iter()
            .position(|c| c.kind == ConstraintKind::EqZero && c.expr.dim_coeff(d) != 0)
        {
            let eq = &self.constraints[eq_pos].expr;
            let a = eq.dim_coeff(d);
            let mut out = Polyhedron::universe(new_space);
            for (i, c) in self.constraints.iter().enumerate() {
                if i == eq_pos {
                    continue;
                }
                let b = c.expr.dim_coeff(d);
                let combined = if b == 0 {
                    c.expr.clone()
                } else {
                    // a*c.expr - b*eq has zero coefficient at d; keep the
                    // inequality direction by multiplying with |a| signs.
                    c.expr.clone().scale(a.abs()).add_scaled(-(b * a.signum()), eq)
                };
                let e = combined.without_dim(d);
                match c.kind {
                    ConstraintKind::GeZero => out.add_ge0(e),
                    ConstraintKind::EqZero => out.add_eq0(e),
                }
            }
            return out;
        }

        // Classic FM on inequalities.
        let mut lowers: Vec<&LinExpr> = Vec::new(); // coeff(d) > 0: d >= -rest/coeff
        let mut uppers: Vec<&LinExpr> = Vec::new(); // coeff(d) < 0
        let mut free: Vec<&Constraint> = Vec::new();
        for c in &self.constraints {
            let k = c.expr.dim_coeff(d);
            if k == 0 {
                free.push(c);
            } else if k > 0 {
                lowers.push(&c.expr);
            } else {
                uppers.push(&c.expr);
            }
        }
        let mut out = Polyhedron::universe(new_space);
        for c in free {
            let e = c.expr.clone().without_dim(d);
            match c.kind {
                ConstraintKind::GeZero => out.add_ge0(e),
                ConstraintKind::EqZero => out.add_eq0(e),
            }
        }
        for lo in &lowers {
            for up in &uppers {
                let a = lo.dim_coeff(d); // > 0
                let b = -up.dim_coeff(d); // > 0
                                          // b*lo + a*up has zero coeff at d and stays >= 0.
                let combined = (*lo).clone().scale(b).add_scaled(a, up);
                out.add_ge0(combined.without_dim(d));
            }
        }
        out
    }

    /// Lower and upper bounds of dimension `d` as functions of dimensions
    /// `< d` and the parameters, obtained by eliminating all dimensions
    /// `> d` first.
    ///
    /// Returns `(lowers, uppers)` where each entry is `(coeff, expr)` meaning
    /// `coeff·d >= -expr` (lower, `coeff > 0`) or `coeff·d <= expr`
    /// rewritten as: for lowers `d >= ceil(-expr / coeff)` and for uppers
    /// `d <= floor(expr / |coeff|)`; `expr` has zero coefficients for dims
    /// `>= d`.
    pub(crate) fn dim_bounds(&self, d: usize) -> (Vec<DimBound>, Vec<DimBound>) {
        let mut p = Cow::Borrowed(self);
        while p.space.dims > d + 1 {
            p = Cow::Owned(p.eliminate_dim(p.space.dims - 1));
        }
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        for c in &p.constraints {
            let k = c.expr.dim_coeff(d);
            let mut rest = c.expr.clone();
            rest.coeffs[d] = 0;
            match c.kind {
                ConstraintKind::GeZero => {
                    if k > 0 {
                        lowers.push((k, rest));
                    } else if k < 0 {
                        uppers.push((-k, rest));
                    }
                }
                ConstraintKind::EqZero => {
                    if k != 0 {
                        // k·d + rest == 0  ⇒  |k|·d == -sign(k)·rest, which
                        // acts as both a lower bound (|k|·d + sign·rest >= 0)
                        // and an upper bound (d <= -sign·rest / |k|).
                        let sign = k.signum();
                        lowers.push((k * sign, rest.clone().scale(sign)));
                        uppers.push((k * sign, rest.scale(-sign)));
                    }
                }
            }
        }
        (lowers, uppers)
    }

    /// Exchanges the roles of dimensions `a` and `b` (a relabelling: the
    /// same point set with two coordinates swapped).
    pub(crate) fn swap_dims(&mut self, a: usize, b: usize) {
        for c in &mut self.constraints {
            c.expr.swap_dims(a, b);
        }
    }

    /// Integer-exact projection: eliminates dimension `d` when every
    /// constraint that mentions it does so with coefficient ±1 and bounds it
    /// on both sides. Then each bound of `d` is an integer at every integer
    /// point of the other dims, so Fourier–Motzkin's rational shadow *is*
    /// the integer shadow. `None` when the guard fails (a `2·d` term, or a
    /// missing bound, which must stay visible as [`ScanError::Unbounded`]).
    pub fn project_unit_dim(&self, d: usize) -> Option<Polyhedron> {
        let (mut lower, mut upper) = (false, false);
        for c in &self.constraints {
            let k = c.expr.dim_coeff(d);
            if k.abs() > 1 {
                return None;
            }
            let eq = c.kind == ConstraintKind::EqZero;
            lower |= k > 0 || (eq && k != 0);
            upper |= k < 0 || (eq && k != 0);
        }
        (lower && upper).then(|| self.eliminate_dim(d))
    }

    /// The per-depth bounds of a scan in dimension order: the
    /// Fourier–Motzkin projections onto the leading dims, each reduced to
    /// the bounds of its last dim and the guards that do not mention it.
    fn levels(&self) -> Vec<Level> {
        assert_eq!(self.space.params, 0, "instantiate parameters before enumerating");
        // projs[k] = projection of self onto its first `dims - 1 - k` dims;
        // the deepest level reads `self` itself.
        let mut projs: Vec<Polyhedron> = Vec::with_capacity(self.space.dims);
        for d in (1..self.space.dims).rev() {
            let next = projs.last().unwrap_or(self).eliminate_dim(d);
            projs.push(next);
        }
        projs
            .iter()
            .rev()
            .chain([self])
            .enumerate()
            .map(|(depth, p)| {
                let (lowers, uppers) = p.dim_bounds(depth);
                let guards = p
                    .constraints
                    .iter()
                    .filter(|c| c.expr.dim_coeff(depth) == 0)
                    .cloned()
                    .collect();
                Level { lowers, uppers, guards }
            })
            .collect()
    }

    /// Scans a **parameter-free** polyhedron with at least one dimension by
    /// *rows*: for every integer assignment `prefix` of the leading
    /// `dims − 1` dimensions (in lexicographic order) whose innermost range
    /// is non-empty, calls `f(budget, prefix, lo, hi)` — the points
    /// `(prefix, lo) ..= (prefix, hi)` are exactly the polyhedron's integer
    /// points on that row. Bounds are derived once per depth; the scan
    /// itself does not allocate. Every visited node (row or outer
    /// iteration) is charged to `budget`; `f` charges what it does per
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron has parameters or no dimensions.
    pub fn try_for_each_row(
        &self,
        budget: &mut RowBudget,
        mut f: impl FnMut(&mut RowBudget, &[i64], i64, i64) -> Result<(), ScanError>,
    ) -> Result<(), ScanError> {
        assert!(self.space.dims > 0, "a row needs an innermost dimension");
        let levels = self.levels();
        let mut point = vec![0i64; self.space.dims];
        fn recurse(
            levels: &[Level],
            point: &mut [i64],
            depth: usize,
            budget: &mut RowBudget,
            f: &mut impl FnMut(&mut RowBudget, &[i64], i64, i64) -> Result<(), ScanError>,
        ) -> Result<(), ScanError> {
            budget.charge()?;
            let level = &levels[depth];
            let eval = |e: &LinExpr| e.checked_eval_prefix(&point[..depth]);
            // A guard that fails (e.g. `-1 >= 0` produced by FM from an
            // empty polyhedron) empties this subtree, whatever the bounds.
            for g in &level.guards {
                let v = eval(&g.expr).ok_or(ScanError::Overflow)?;
                let holds = match g.kind {
                    ConstraintKind::GeZero => v >= 0,
                    ConstraintKind::EqZero => v == 0,
                };
                if !holds {
                    return Ok(());
                }
            }
            if level.lowers.is_empty() || level.uppers.is_empty() {
                return Err(ScanError::Unbounded { dim: depth });
            }
            // k·d + rest >= 0 => d >= ceil(-rest / k); k·d <= rest => d <= floor(rest / k).
            let (mut lo, mut hi) = (i64::MIN, i64::MAX);
            for (k, rest) in &level.lowers {
                lo = lo.max(to_i64(eval(rest).and_then(|v| v.div_euclid(*k).checked_neg()))?);
            }
            for (k, rest) in &level.uppers {
                hi = hi.min(to_i64(eval(rest).map(|v| v.div_euclid(*k)))?);
            }
            if lo > hi {
                return Ok(());
            }
            if depth + 1 == levels.len() {
                return f(budget, &point[..depth], lo, hi);
            }
            for v in lo..=hi {
                point[depth] = v;
                recurse(levels, point, depth + 1, budget, f)?;
            }
            Ok(())
        }
        recurse(&levels, &mut point, 0, budget, &mut f)
    }

    /// Enumerates all integer points of a **parameter-free** polyhedron in
    /// lexicographic order, invoking `f` on each (an error from `f` ends
    /// the scan) and charging `budget` per point.
    ///
    /// Returns a [`ScanError`] when some dimension has no finite bound, the
    /// budget runs out or a bound overflows, so callers can refuse
    /// generation instead of aborting.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron still has parameters.
    pub(crate) fn try_for_each_integer_point(
        &self,
        budget: &mut RowBudget,
        mut f: impl FnMut(&[i64]) -> Result<(), ScanError>,
    ) -> Result<(), ScanError> {
        let Some(inner) = self.space.dims.checked_sub(1) else {
            budget.charge()?;
            return if self.contains_int(&[], &[]) { f(&[]) } else { Ok(()) };
        };
        let mut point = vec![0i64; self.space.dims];
        self.try_for_each_row(budget, |budget, prefix, lo, hi| {
            point[..inner].copy_from_slice(prefix);
            for v in lo..=hi {
                budget.charge()?;
                point[inner] = v;
                // Every constraint bounds or guards the dim of its highest
                // variable, so the scan needs no membership filter.
                debug_assert!(self.contains_int(&point, &[]));
                f(&point)?;
            }
            Ok(())
        })
    }

    /// Collects all integer points, or a [`ScanError`] when they cannot be
    /// enumerated (see `Polyhedron::try_for_each_integer_point`).
    pub fn try_integer_points(&self, budget: &mut RowBudget) -> Result<Vec<Vec<i64>>, ScanError> {
        let mut out = Vec::new();
        self.try_for_each_integer_point(budget, |p| {
            out.push(p.to_vec());
            Ok(())
        })?;
        Ok(out)
    }

    /// Collects all integer points of a polyhedron that is bounded and small
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron has parameters or cannot be scanned.
    pub fn integer_points(&self) -> Vec<Vec<i64>> {
        self.try_integer_points(&mut RowBudget::new()).expect("scannable polyhedron")
    }

    /// Counts the integer points of a parameter-free polyhedron row by row
    /// (`hi − lo + 1` each, no point is visited), or a [`ScanError`] when
    /// the count is infinite, unaffordable or leaves `u64`.
    pub fn try_count_integer_points(&self, budget: &mut RowBudget) -> Result<u64, ScanError> {
        if self.space.dims == 0 {
            budget.charge()?;
            return Ok(self.contains_int(&[], &[]) as u64);
        }
        let mut n = 0u64;
        self.try_for_each_row(budget, |_, _, lo, hi| {
            n = row_len(lo, hi).and_then(|len| n.checked_add(len)).ok_or(ScanError::Overflow)?;
            Ok(())
        })?;
        Ok(n)
    }

    /// Counts integer points of a parameter-free bounded polyhedron.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron has parameters or cannot be scanned.
    pub fn count_integer_points(&self) -> u64 {
        self.try_count_integer_points(&mut RowBudget::new()).expect("scannable polyhedron")
    }
}

/// Number of integers in the non-empty interval `[lo, hi]`; `None` for the
/// one interval (all of `i64`) whose length leaves `u64`.
pub(crate) fn row_len(lo: i64, hi: i64) -> Option<u64> {
    debug_assert!(lo <= hi);
    u64::try_from(hi as i128 - lo as i128 + 1).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n: i128) -> Polyhedron {
        // { (x, y) | 0 <= x < n, 0 <= y < n }
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 0, n - 1);
        p.bound_dim(1, 0, n - 1);
        p
    }

    #[test]
    fn unbounded_enumeration_is_refused_not_fatal() {
        // { x | x >= 0 } has no upper bound: enumeration must report the
        // offending dimension instead of aborting the process.
        let s = Space::new(1, 0);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        let mut b = RowBudget::new();
        assert_eq!(p.try_count_integer_points(&mut b), Err(ScanError::Unbounded { dim: 0 }));
        assert_eq!(p.try_integer_points(&mut b), Err(ScanError::Unbounded { dim: 0 }));

        // Unbounded in an inner dimension only: { (x, y) | 0<=x<4, y>=x }.
        let s2 = Space::new(2, 0);
        let mut q = Polyhedron::universe(s2);
        q.bound_dim(0, 0, 3);
        q.add_ge0(LinExpr::dim(s2, 1).with_dim(0, -1));
        assert_eq!(q.try_count_integer_points(&mut b), Err(ScanError::Unbounded { dim: 1 }));
    }

    #[test]
    fn counting_is_by_rows_and_bounded_by_the_budget() {
        // A 1-D stream of any length is one row.
        let s = Space::new(1, 0);
        let mut stream = Polyhedron::universe(s);
        stream.bound_dim(0, 0, 999_999_999);
        let mut b = RowBudget::new();
        assert_eq!(stream.try_count_integer_points(&mut b), Ok(1_000_000_000));
        assert_eq!(b.visited(), 1);
        // …but visiting its points is not affordable.
        assert_eq!(stream.try_integer_points(&mut b), Err(ScanError::OverBudget));
        assert_eq!(b.visited(), ROW_BUDGET);

        // 2^21 rows of one point each: refused after ROW_BUDGET nodes.
        let s2 = Space::new(2, 0);
        let mut tall = Polyhedron::universe(s2);
        tall.bound_dim(0, 0, (1 << 21) - 1);
        tall.bound_dim(1, 0, 0);
        let mut b = RowBudget::new();
        assert_eq!(tall.try_count_integer_points(&mut b), Err(ScanError::OverBudget));
        assert_eq!(b.visited(), ROW_BUDGET);
        drop(b);
        assert_eq!(rows_high_water(), ROW_BUDGET);
    }

    #[test]
    fn bounds_beyond_i64_are_refused_not_truncated() {
        // { x | 2^100 <= x <= 2^100 + 5 }: six points, none an i64. The old
        // `as i64` casts scanned a wrapped range instead.
        let s = Space::new(1, 0);
        let big = 1i128 << 100;
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, big, big + 5);
        assert_eq!(p.try_count_integer_points(&mut RowBudget::new()), Err(ScanError::Overflow));
        // All of i64 is a legal row whose length is not a u64.
        let mut all = Polyhedron::universe(s);
        all.bound_dim(0, i64::MIN as i128, i64::MAX as i128);
        assert_eq!(all.try_count_integer_points(&mut RowBudget::new()), Err(ScanError::Overflow));
        all.bound_dim(0, 1, i64::MAX as i128);
        assert_eq!(all.try_count_integer_points(&mut RowBudget::new()), Ok(i64::MAX as u64));
    }

    #[test]
    fn unit_projection_guard() {
        // { (i, j) | 0 <= i <= 3, i + 1 <= j <= 5 }: both dims are unit.
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 0, 3);
        p.add_ge0(LinExpr::dim(s, 1).with_dim(0, -1).with_const(-1));
        p.add_ge0(LinExpr::dim(s, 1).scale(-1).with_const(5));
        assert_eq!(p.project_unit_dim(0).expect("unit").integer_points().len(), 5); // j in 1..=5
        assert_eq!(p.project_unit_dim(1).expect("unit").count_integer_points(), 4);
        // 2i <= j: i has a non-unit coefficient; its rational shadow in j
        // would keep j = 1 for { 1 <= 2i <= j }, which no integer i reaches.
        let mut q = Polyhedron::universe(s);
        q.bound_dim(1, 0, 5);
        q.add_ge0(LinExpr::dim(s, 0).scale(2).with_const(-1));
        q.add_ge0(LinExpr::dim(s, 1).with_dim(0, -2));
        assert!(q.project_unit_dim(0).is_none());
        assert!(q.project_unit_dim(1).is_some());
        // A dim without an upper bound stays, so the scan still reports it.
        let mut r = Polyhedron::universe(s);
        r.bound_dim(0, 0, 3);
        r.add_ge0(LinExpr::dim(s, 1));
        assert!(r.project_unit_dim(1).is_none());
    }

    #[test]
    fn contains_and_count_square() {
        let p = square(4);
        assert!(p.contains_int(&[0, 0], &[]));
        assert!(p.contains_int(&[3, 3], &[]));
        assert!(!p.contains_int(&[4, 0], &[]));
        assert_eq!(p.count_integer_points(), 16);
    }

    #[test]
    fn triangle_count() {
        // { (i, j) | 0 <= i < 4, i+1 <= j < 4 } — the LU inner domain.
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 0, 3);
        // j - i - 1 >= 0
        p.add_ge0(LinExpr::dim(s, 1).with_dim(0, -1).with_const(-1));
        // 3 - j >= 0
        p.add_ge0(LinExpr::dim(s, 1).scale(-1).with_const(3));
        assert_eq!(p.count_integer_points(), 3 + 2 + 1);
        let pts = p.integer_points();
        assert!(pts.contains(&vec![0, 1]));
        assert!(!pts.contains(&vec![3, 3]));
    }

    #[test]
    fn fm_projection_of_triangle() {
        // project {0<=i<4, i<j<=4} onto i: i in [0, 3]
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 0, 3);
        p.add_ge0(LinExpr::dim(s, 1).with_dim(0, -1).with_const(-1)); // j >= i+1
        p.add_ge0(LinExpr::dim(s, 1).scale(-1).with_const(4)); // j <= 4
        let q = p.eliminate_dim(1);
        assert_eq!(q.space().dims, 1);
        assert!(q.contains_int(&[0], &[]));
        assert!(q.contains_int(&[3], &[]));
        assert!(!q.contains_int(&[4], &[]));
        assert!(!q.contains_int(&[-1], &[]));
    }

    #[test]
    fn equality_substitution() {
        // { (x, y) | x == 2y, 0 <= y <= 3 } project out x
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.add_eq0(LinExpr::dim(s, 0).with_dim(1, -2)); // x - 2y == 0
        p.bound_dim(1, 0, 3);
        let q = p.eliminate_dim(0);
        assert!(q.contains_int(&[0], &[]));
        assert!(q.contains_int(&[3], &[]));
        assert!(!q.contains_int(&[4], &[]));
    }

    #[test]
    fn parametric_bounds() {
        // { i | 0 <= i < n } with parameter n
        let s = Space::new(1, 1);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0)); // i >= 0
        p.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1)); // n - 1 - i >= 0
        let (lowers, uppers) = p.dim_bounds(0);
        assert_eq!(lowers.len(), 1);
        assert_eq!(uppers.len(), 1);
        let inst = p.instantiate_params(&[8]);
        assert_eq!(inst.count_integer_points(), 8);
    }

    #[test]
    fn empty_enumeration_is_empty() {
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 3, 2); // empty range
        p.bound_dim(1, 0, 5);
        assert_eq!(p.count_integer_points(), 0);
    }

    #[test]
    fn rational_membership() {
        let p = square(2);
        assert!(p.contains_rat(&[Rat::new(1, 2), Rat::new(1, 2)], &[]));
        assert!(!p.contains_rat(&[Rat::new(3, 2), Rat::new(5, 2)], &[]));
    }
}
