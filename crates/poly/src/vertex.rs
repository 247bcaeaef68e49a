//! Vertex enumeration for bounded, parameter-free polyhedra.
//!
//! Uses the basis-enumeration method: every vertex of a `d`-dimensional
//! polyhedron is the unique solution of `d` linearly independent active
//! constraints. With the small constraint systems produced by loop nests
//! (a handful of inequalities, `d <= 3`) the `C(m, d)` enumeration is
//! instantaneous and exact. Each basis is solved in integers, by
//! fraction-free elimination: a vertex is an integer vector over one common
//! denominator, the basis determinant, and its membership is tested on
//! those integers. Only the points handed out become [`Rat`]s.

use crate::linexpr::LinExpr;
use crate::polyhedron::{ConstraintKind, Polyhedron, ScanError};
use crate::rat::{gcd, Rat};

/// The tables of one enumeration, kept for the next: the augmented rows
/// `[coefficients…, rhs]` of the equalities used and of the inequalities,
/// the active system of one basis and the basis itself.
#[derive(Debug, Default)]
pub(crate) struct VertexScratch {
    eqs: Vec<i128>,
    ineqs: Vec<i128>,
    system: Vec<i128>,
    choice: Vec<usize>,
}

/// Solves the square integer system held in `a` — `n` augmented rows
/// `[coefficients…, rhs]`, row-major — by fraction-free Gauss–Jordan
/// elimination in place. Returns `None` if singular, else the determinant
/// `det` (of the row-permuted system), with `a[r·(n+1) + n] == det·x_r` for
/// the solution `x`. Every entry stays a minor of the input (Bareiss), so
/// each division is exact; an entry outside `i128` is an error.
fn solve(a: &mut [i128], n: usize) -> Result<Option<i128>, ScanError> {
    let w = n + 1;
    let mut prev = 1i128;
    for k in 0..n {
        let Some(pivot) = (k..n).find(|&r| a[r * w + k] != 0) else {
            return Ok(None);
        };
        for c in 0..w {
            a.swap(k * w + c, pivot * w + c);
        }
        let p = a[k * w + k];
        for r in 0..n {
            if r == k {
                continue;
            }
            let f = a[r * w + k];
            if f == 0 && p == prev {
                continue; // the row stays as it is
            }
            for c in 0..w {
                if c != k {
                    let v = cross(p, a[r * w + c], f, a[k * w + c]).ok_or(ScanError::Overflow)?;
                    a[r * w + c] = exact_div(v, prev)?;
                }
            }
            a[r * w + k] = 0;
        }
        prev = p;
    }
    Ok(Some(prev))
}

/// `a·b − c·d`, or `None` outside `i128`.
fn cross(a: i128, b: i128, c: i128, d: i128) -> Option<i128> {
    a.checked_mul(b)?.checked_sub(c.checked_mul(d)?)
}

/// `v / d` for a `d` that divides `v`; an error for the one quotient
/// outside `i128`.
fn exact_div(v: i128, d: i128) -> Result<i128, ScanError> {
    v.checked_div(d).ok_or(ScanError::Overflow)
}

/// Appends the augmented row of an active constraint to `rows`: `expr =
/// Σ ci·xi + c` is active when `expr == 0`, i.e. `Σ ci·xi = -c`.
fn push_row(rows: &mut Vec<i128>, e: &LinExpr) {
    let d = e.space.dims;
    rows.extend((0..d).map(|i| e.dim_coeff(i)).chain([-e.const_term()]));
}

/// `e` at the point `num / det`, times `det`: `Σ ci·numi + c·det`.
pub(crate) fn eval_scaled(e: &LinExpr, num: &[i128], det: i128) -> Result<i128, ScanError> {
    let k = e.const_term();
    let terms = num.iter().zip(&e.coeffs[..num.len()]).chain([(&det, &k)]);
    let mut acc = Some(0i128);
    for (v, c) in terms {
        acc = acc.and_then(|a| a.checked_add(v.checked_mul(*c)?));
    }
    acc.ok_or(ScanError::Overflow)
}

/// Appends the vertices of a parameter-free polyhedron to `out`, one
/// record `[num…, det]` of `dims + 1` entries each: the vertex is
/// `num / det`, in lowest terms with `det > 0`, so equal vertices have
/// equal records.
///
/// Equalities are active in every candidate basis. The vertices are
/// distinct, in the order of their first basis (bases in lexicographic
/// order); none means the polyhedron is empty, a single point,
/// lower-dimensional with no vertices in the chosen bases, or unbounded
/// with no vertices at all. An error when a solution or a membership test
/// leaves `i128`.
pub(crate) fn push_vertices(
    p: &Polyhedron,
    scratch: &mut VertexScratch,
    out: &mut Vec<i128>,
) -> Result<(), ScanError> {
    assert_eq!(p.space().params, 0, "instantiate parameters before vertex enumeration");
    let d = p.space().dims;
    let w = d + 1;
    let VertexScratch { eqs, ineqs, system, choice } = scratch;
    // The rows of the equalities (at most `d`) and of the inequalities.
    eqs.clear();
    ineqs.clear();
    for c in p.constraints() {
        match c.kind {
            ConstraintKind::EqZero if eqs.len() < d * w => push_row(eqs, &c.expr),
            ConstraintKind::EqZero => {}
            ConstraintKind::GeZero => push_row(ineqs, &c.expr),
        }
    }
    let n_ineqs = ineqs.len() / w;
    let need = d - eqs.len() / w;
    if need > n_ineqs {
        return Ok(());
    }
    let first = out.len();
    choice.clear();
    choice.extend(0..need);
    loop {
        system.clear();
        system.extend_from_slice(eqs);
        for &i in choice.iter() {
            system.extend_from_slice(&ineqs[i * w..(i + 1) * w]);
        }
        if let Some(det) = solve(system, d)? {
            // The solution is `system[r·w + d] / det`. The constraints of
            // the basis hold at it with equality; every other one is
            // tested on the integers, scaled by `det`.
            let at = out.len();
            out.extend((0..d).map(|r| system[r * w + d]).chain([det]));
            let num = &out[at..at + d];
            let (mut member, mut ineq, mut eq) = (true, 0, 0);
            let mut basis = choice.iter().peekable();
            for c in p.constraints() {
                let ge = c.kind == ConstraintKind::GeZero;
                let active = if ge {
                    ineq += 1;
                    basis.next_if_eq(&&(ineq - 1)).is_some()
                } else {
                    eq += 1;
                    eq <= d
                };
                if active {
                    continue;
                }
                let v = eval_scaled(&c.expr, num, det)?;
                member = v == 0 || (ge && (v > 0) == (det > 0));
                if !member {
                    break;
                }
            }
            if member {
                // In lowest terms, with `det > 0`.
                let record = &mut out[at..];
                let g = record.iter().fold(0, |g, &v| gcd(g, v)).checked_mul(det.signum());
                let g = g.ok_or(ScanError::Overflow)?;
                for v in record.iter_mut() {
                    *v = exact_div(*v, g)?;
                }
            }
            let (seen, record) = out[first..].split_at(at - first);
            if !member || seen.chunks_exact(w).any(|v| v == record) {
                out.truncate(at);
            }
        }
        if !next_combination(choice, n_ineqs) {
            return Ok(());
        }
    }
}

/// Enumerates the vertices of a parameter-free polyhedron, as rationals.
///
/// Equalities are active in every candidate basis. Returns deduplicated
/// rational points; an empty result means the polyhedron is empty, a single
/// point, lower-dimensional with no vertices in the chosen bases, or
/// unbounded with no vertices at all.
///
/// # Panics
///
/// Panics if the polyhedron has parameters, or if a vertex's integer
/// solution leaves `i128`.
pub fn vertices(p: &Polyhedron) -> Vec<Vec<Rat>> {
    let mut rows = Vec::new();
    push_vertices(p, &mut VertexScratch::default(), &mut rows).expect("vertices within i128");
    let w = p.space().dims + 1;
    let rat = |r: &[i128]| r[..w - 1].iter().map(|&n| Rat::new(n, r[w - 1])).collect();
    rows.chunks_exact(w).map(rat).collect()
}

/// Advances `cur`, a `k`-element subset of `0..n` in increasing order, to
/// the next subset in lexicographic order; `false` after the last.
fn next_combination(cur: &mut [usize], n: usize) -> bool {
    let k = cur.len();
    let Some(i) = (0..k).rev().find(|&i| cur[i] < n - k + i) else {
        return false;
    };
    cur[i] += 1;
    for j in i + 1..k {
        cur[j] = cur[j - 1] + 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::Space;

    #[test]
    fn unit_square_vertices() {
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 0, 3);
        p.bound_dim(1, 0, 2);
        let mut vs = vertices(&p);
        vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vs.len(), 4);
        assert_eq!(vs[0], vec![Rat::int(0), Rat::int(0)]);
        assert_eq!(vs[3], vec![Rat::int(3), Rat::int(2)]);
    }

    #[test]
    fn triangle_vertices() {
        // { (i,j) | 0 <= i, 0 <= j, i + j <= 4 }
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        p.add_ge0(LinExpr::dim(s, 1));
        p.add_ge0(LinExpr::dim(s, 0).scale(-1).with_dim(1, -1).with_const(4));
        let mut vs = vertices(&p);
        vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0], vec![Rat::int(0), Rat::int(0)]);
        assert_eq!(vs[1], vec![Rat::int(0), Rat::int(4)]);
        assert_eq!(vs[2], vec![Rat::int(4), Rat::int(0)]);
    }

    #[test]
    fn rational_vertex() {
        // { x | 2x <= 5, x >= 0 } in 1-D: vertices at 0 and 5/2.
        let s = Space::new(1, 0);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        p.add_ge0(LinExpr::dim(s, 0).scale(-2).with_const(5));
        let mut vs = vertices(&p);
        vs.sort();
        assert_eq!(vs, vec![vec![Rat::int(0)], vec![Rat::new(5, 2)]]);
    }

    #[test]
    fn equality_restricts_to_segment() {
        // { (x,y) | x == y, 0 <= x <= 3 }
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.add_eq0(LinExpr::dim(s, 0).with_dim(1, -1));
        p.bound_dim(0, 0, 3);
        let mut vs = vertices(&p);
        vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0], vec![Rat::int(0), Rat::int(0)]);
        assert_eq!(vs[1], vec![Rat::int(3), Rat::int(3)]);
    }

    #[test]
    fn empty_polyhedron_has_no_vertices() {
        let s = Space::new(1, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, 5, 2);
        assert!(vertices(&p).is_empty());
    }

    #[test]
    fn solve_rejects_singular() {
        // x + 2y = 1, 2x + 4y = 2
        let mut system = [1, 2, 1, 2, 4, 2];
        assert_eq!(solve(&mut system, 2), Ok(None));
        // x + 2y = 5, 3x + 4y = 6  =>  (-4, 9/2) = (8, -9) / -2
        let mut system = [1, 2, 5, 3, 4, 6];
        assert_eq!(solve(&mut system, 2), Ok(Some(-2)));
        assert_eq!((system[2], system[5]), (8, -9));
        // A zero leading pivot swaps rows: y = 3, x + y = 5  =>  (2, 3).
        let mut system = [0, 1, 3, 1, 1, 5];
        let det = solve(&mut system, 2).unwrap().unwrap();
        assert_eq!((system[2] / det, system[5] / det), (2, 3));
    }

    #[test]
    fn vertices_are_in_lowest_terms() {
        // { x | 4x >= 2, 4x <= 10 }: vertices 1/2 and 5/2, whatever the
        // bases' determinants.
        let s = Space::new(1, 0);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0).scale(4).with_const(-2));
        p.add_ge0(LinExpr::dim(s, 0).scale(-4).with_const(10));
        let mut rows = Vec::new();
        push_vertices(&p, &mut VertexScratch::default(), &mut rows).unwrap();
        assert_eq!(rows, [1, 2, 5, 2]);
    }

    #[test]
    fn combinations_run_in_lexicographic_order() {
        let mut cur = vec![0, 1];
        let mut seen = vec![cur.clone()];
        while next_combination(&mut cur, 4) {
            seen.push(cur.clone());
        }
        assert_eq!(seen, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]);
        assert!(!next_combination(&mut [], 3), "the one empty subset is the last");
    }
}
