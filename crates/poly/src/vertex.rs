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
/// Returns `false` if singular, else `true` with the solution in `x`.
fn solve(a: &mut [Rat], n: usize, x: &mut Vec<Rat>) -> bool {
    let w = n + 1;
    for col in 0..n {
        // Find pivot.
        let Some(pivot) = (col..n).find(|&r| !a[r * w + col].is_zero()) else {
            return false;
        };
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
    x.clear();
    x.extend((0..n).map(|r| a[r * w + n]));
    true
}

/// Appends the augmented row of an active constraint to `rows`: `expr =
/// Σ ci·xi + c` is active when `expr == 0`, i.e. `Σ ci·xi = -c`.
fn push_row(rows: &mut Vec<Rat>, e: &LinExpr) {
    let d = e.space.dims;
    rows.extend((0..d).map(|i| e.dim_coeff(i)).chain([-e.const_term()]).map(Rat::int));
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
    let w = d + 1;
    // The augmented rows of the equalities (at most `d`) and of the
    // inequalities, `w` entries each.
    let (mut eqs, mut ineqs) = (Vec::new(), Vec::new());
    for c in p.constraints() {
        match c.kind {
            ConstraintKind::EqZero if eqs.len() < d * w => push_row(&mut eqs, &c.expr),
            ConstraintKind::EqZero => {}
            ConstraintKind::GeZero => push_row(&mut ineqs, &c.expr),
        }
    }
    let n_ineqs = ineqs.len() / w;

    let need = d - eqs.len() / w;
    let mut out: Vec<Vec<Rat>> = Vec::new();
    // The active system of one basis: all equalities plus `need`
    // inequalities, copied into one scratch matrix and solved there.
    let mut system: Vec<Rat> = Vec::with_capacity(d * w);
    let mut x: Vec<Rat> = Vec::with_capacity(d);
    if need > n_ineqs {
        return out;
    }
    let mut choice: Vec<usize> = (0..need).collect();
    loop {
        system.clear();
        system.extend_from_slice(&eqs);
        for &i in &choice {
            system.extend_from_slice(&ineqs[i * w..(i + 1) * w]);
        }
        if solve(&mut system, d, &mut x) && p.contains_rat(&x, &[]) && !out.contains(&x) {
            out.push(x.clone());
        }
        if !next_combination(&mut choice, n_ineqs) {
            return out;
        }
    }
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
        let mut system = [1, 2, 1, 2, 4, 2].map(Rat::int);
        let mut x = Vec::new();
        assert!(!solve(&mut system, 2, &mut x));
        // x + 2y = 5, 3x + 4y = 6  =>  (-4, 9/2)
        let mut system = [1, 2, 5, 3, 4, 6].map(Rat::int);
        assert!(solve(&mut system, 2, &mut x));
        assert_eq!(x, vec![Rat::int(-4), Rat::new(9, 2)]);
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
