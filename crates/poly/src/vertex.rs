//! Vertex enumeration for bounded, parameter-free polyhedra.
//!
//! Uses the basis-enumeration method: every vertex of a `d`-dimensional
//! polyhedron is the unique solution of `d` linearly independent active
//! constraints. With the small constraint systems produced by loop nests
//! (a handful of inequalities, `d <= 3`) the `C(m, d)` enumeration is
//! instantaneous and exact.

use crate::linexpr::LinExpr;
use crate::polyhedron::{ConstraintKind, Polyhedron};
use crate::rat::Rat;

/// Solves the square rational system held in `a` — `n` augmented rows
/// `[coefficients…, rhs]`, row-major — by Gaussian elimination in place.
/// Returns `None` if singular.
fn solve(a: &mut [Rat], n: usize) -> Option<Vec<Rat>> {
    let w = n + 1;
    for col in 0..n {
        // Find pivot.
        let pivot = (col..n).find(|&r| !a[r * w + col].is_zero())?;
        for c in 0..w {
            a.swap(col * w + c, pivot * w + c);
        }
        let p = a[col * w + col];
        for c in col..w {
            a[col * w + c] = a[col * w + c] / p;
        }
        for r in 0..n {
            let factor = a[r * w + col];
            if r != col && !factor.is_zero() {
                for c in col..w {
                    a[r * w + c] = a[r * w + c] - factor * a[col * w + c];
                }
            }
        }
    }
    Some((0..n).map(|r| a[r * w + n]).collect())
}

/// The augmented row of an active constraint: `expr = Σ ci·xi + c` is
/// active when `expr == 0`, i.e. `Σ ci·xi = -c`.
fn expr_row(e: &LinExpr) -> Vec<Rat> {
    let d = e.space.dims;
    (0..d).map(|i| e.dim_coeff(i)).chain([-e.const_term()]).map(Rat::int).collect()
}

/// Enumerates the vertices of a parameter-free polyhedron.
///
/// Equalities are active in every candidate basis. Returns deduplicated
/// rational points; an empty result means the polyhedron is empty, a single
/// point, lower-dimensional with no vertices in the chosen bases, or
/// unbounded with no vertices at all.
pub fn vertices(p: &Polyhedron) -> Vec<Vec<Rat>> {
    assert_eq!(p.space().params, 0, "instantiate parameters before vertex enumeration");
    let d = p.space().dims;
    let rows_of = |kind: ConstraintKind| -> Vec<Vec<Rat>> {
        p.constraints().iter().filter(|c| c.kind == kind).map(|c| expr_row(&c.expr)).collect()
    };
    let mut eqs = rows_of(ConstraintKind::EqZero);
    eqs.truncate(d);
    let ineqs = rows_of(ConstraintKind::GeZero);

    let need = d - eqs.len();
    let mut out: Vec<Vec<Rat>> = Vec::new();
    // The active system of one basis: all equalities plus `need`
    // inequalities, copied into one scratch matrix and solved there.
    let mut system: Vec<Rat> = Vec::with_capacity(d * (d + 1));
    for choice in combinations(ineqs.len(), need) {
        system.clear();
        for row in eqs.iter().chain(choice.iter().map(|&i| &ineqs[i])) {
            system.extend_from_slice(row);
        }
        if let Some(x) = solve(&mut system, d) {
            if p.contains_rat(&x, &[]) && !out.contains(&x) {
                out.push(x);
            }
        }
    }
    out
}

/// All `k`-element subsets of `0..n`, in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut cur: Vec<usize> = Vec::with_capacity(k);
    fn rec(n: usize, k: usize, start: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(n, k, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(n, k, 0, &mut cur, &mut out);
    out
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
        let mut system = [1, 2, 1, 2, 4, 2].map(Rat::int);
        assert!(solve(&mut system, 2).is_none());
        // x + 2y = 5, 3x + 4y = 6  =>  (-4, 9/2)
        let mut system = [1, 2, 5, 3, 4, 6].map(Rat::int);
        assert_eq!(solve(&mut system, 2), Some(vec![Rat::int(-4), Rat::new(9, 2)]));
    }
}
