//! Convex hulls of rational point sets, as constraint-form polyhedra.
//!
//! This is the §5.1.2 machinery: the compiler computes "the convex hull of
//! the union" of per-instruction access sets. Exact hulls are implemented in
//! one and two dimensions (covering every array-subscript space in the
//! paper's benchmarks); higher dimensions fall back to the axis-aligned
//! bounding box. Any over-approximation introduced by the fallback is caught
//! by the paper's own profitability check (`NconvUn <= NOrig`).

use crate::linexpr::{LinExpr, Space};
use crate::polyhedron::Polyhedron;
use crate::rat::{gcd, Rat};

/// Computes the convex hull of `points` (each of dimension `dims`) as a
/// constraint-form polyhedron in a parameter-free space.
///
/// * 1-D and 2-D: exact hull (interval / Andrew monotone chain).
/// * ≥3-D: axis-aligned bounding box (documented over-approximation).
/// * No points: the empty polyhedron.
pub fn convex_hull(dims: usize, points: &[Vec<Rat>]) -> Polyhedron {
    let space = Space::new(dims, 0);
    if points.is_empty() {
        let mut p = Polyhedron::universe(space);
        p.add_ge0(LinExpr::constant(space, -1)); // -1 >= 0 : empty
        return p;
    }
    for pt in points {
        assert_eq!(pt.len(), dims, "point dimension mismatch");
    }
    match dims {
        1 => hull_1d(space, points),
        2 => hull_2d(space, points),
        _ => bounding_box(space, points),
    }
}

/// Axis-aligned bounding box of a point set, exact per dimension.
pub fn bounding_box(space: Space, points: &[Vec<Rat>]) -> Polyhedron {
    let mut p = Polyhedron::universe(space);
    for d in 0..space.dims {
        let lo = points.iter().map(|pt| pt[d]).min().expect("nonempty");
        let hi = points.iter().map(|pt| pt[d]).max().expect("nonempty");
        // d - ceil(lo) >= 0 is wrong for rational lo: the hull constraint is
        // den*d - num >= 0 to stay exact.
        p.add_ge0(LinExpr::dim(space, d).scale(lo.den()).with_const(-lo.num()));
        p.add_ge0(LinExpr::dim(space, d).scale(-hi.den()).with_const(hi.num()));
    }
    p
}

fn hull_1d(space: Space, points: &[Vec<Rat>]) -> Polyhedron {
    bounding_box(space, points)
}

fn cross(o: &[Rat], a: &[Rat], b: &[Rat]) -> Rat {
    (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
}

fn hull_2d(space: Space, points: &[Vec<Rat>]) -> Polyhedron {
    // Andrew's monotone chain over deduplicated sorted points, each point
    // named by its index in `points`.
    let mut pts: Vec<usize> = (0..points.len()).collect();
    pts.sort_by(|&a, &b| points[a].partial_cmp(&points[b]).unwrap());
    pts.dedup_by(|a, b| points[*a] == points[*b]);

    if pts.len() == 1 {
        let mut p = Polyhedron::universe(space);
        for (d, &v) in points[pts[0]].iter().enumerate().take(2) {
            p.add_eq0(LinExpr::dim(space, d).scale(v.den()).with_const(-v.num()));
        }
        return p;
    }

    let turns_left = |chain: &[usize], pt: usize| {
        let (o, a) = (&points[chain[chain.len() - 2]], &points[chain[chain.len() - 1]]);
        cross(o, a, &points[pt]).signum() > 0
    };
    let mut hull: Vec<usize> = Vec::with_capacity(2 * pts.len());
    for &pt in &pts {
        while hull.len() >= 2 && !turns_left(&hull, pt) {
            hull.pop();
        }
        hull.push(pt);
    }
    hull.pop();
    let lower_len = hull.len();
    for &pt in pts.iter().rev() {
        while hull.len() >= lower_len + 2 && !turns_left(&hull[lower_len..], pt) {
            hull.pop();
        }
        hull.push(pt);
    }
    hull.pop();
    let hull: Vec<&[Rat]> = hull.into_iter().map(|i| &points[i][..]).collect(); // CCW

    if hull.len() == 2 {
        // Degenerate: all points collinear. Constrain to the segment: the
        // carrier line as an equality plus the bounding box.
        let (p0, p1) = (&hull[0], &hull[1]);
        let mut p = bounding_box(space, points);
        // line through p0,p1: (y1-y0)(x-x0) - (x1-x0)(y-y0) == 0
        let dy = p1[1] - p0[1];
        let dx = p1[0] - p0[0];
        // scale to integer coefficients
        let mult = Rat::int(dy.den() * dx.den() * p0[0].den() * p0[1].den());
        let a = dy * mult; // coeff of x
        let b = -(dx * mult); // coeff of y
        let c = -(dy * mult * p0[0]) + dx * mult * p0[1];
        debug_assert!(a.is_integer() && b.is_integer() && c.is_integer());
        p.add_eq0(
            LinExpr::zero(space).with_dim(0, a.num()).with_dim(1, b.num()).with_const(c.num()),
        );
        return p;
    }

    // Each CCW edge (p, q) contributes: cross(q-p, x-p) >= 0.
    let mut poly = Polyhedron::universe(space);
    let n = hull.len();
    for i in 0..n {
        let p0 = &hull[i];
        let p1 = &hull[(i + 1) % n];
        let dx = p1[0] - p0[0];
        let dy = p1[1] - p0[1];
        // (x - p0x)*dy' ... expand cross((dx,dy), (x-p0x, y-p0y)) >= 0:
        //   dx*(y-p0y) - dy*(x-p0x) >= 0
        // Scale by the lcm of all denominators to integer coefficients.
        let scale = Rat::int(lcm(lcm(dx.den(), dy.den()), lcm(p0[0].den(), p0[1].den())));
        let a = -(dy * scale); // coeff of x
        let b = dx * scale; // coeff of y
        let c = dy * scale * p0[0] - dx * scale * p0[1];
        debug_assert!(a.is_integer() && b.is_integer() && c.is_integer());
        poly.add_ge0(
            LinExpr::zero(space).with_dim(0, a.num()).with_dim(1, b.num()).with_const(c.num()),
        );
    }
    poly
}

fn lcm(a: i128, b: i128) -> i128 {
    let g = gcd(a, b);
    if g == 0 {
        0
    } else {
        (a / g) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: i64, y: i64) -> Vec<Rat> {
        vec![Rat::from(x), Rat::from(y)]
    }

    #[test]
    fn hull_of_square_corners() {
        let pts = vec![pt(0, 0), pt(3, 0), pt(0, 3), pt(3, 3), pt(1, 1)];
        let h = convex_hull(2, &pts);
        assert_eq!(h.count_integer_points(), 16);
        assert!(h.contains_int(&[2, 2], &[]));
        assert!(!h.contains_int(&[4, 0], &[]));
    }

    #[test]
    fn hull_of_triangle() {
        let pts = vec![pt(0, 0), pt(4, 0), pt(0, 4)];
        let h = convex_hull(2, &pts);
        // integer points of the closed triangle: 15
        assert_eq!(h.count_integer_points(), 15);
        assert!(h.contains_int(&[1, 1], &[]));
        assert!(!h.contains_int(&[3, 3], &[]));
    }

    #[test]
    fn hull_1d_interval() {
        let pts = vec![vec![Rat::from(7)], vec![Rat::from(2)], vec![Rat::from(5)]];
        let h = convex_hull(1, &pts);
        assert_eq!(h.count_integer_points(), 6);
        assert!(h.contains_int(&[2], &[]));
        assert!(h.contains_int(&[7], &[]));
        assert!(!h.contains_int(&[8], &[]));
    }

    #[test]
    fn hull_of_single_point() {
        let h = convex_hull(2, &[pt(3, 5)]);
        assert_eq!(h.count_integer_points(), 1);
        assert!(h.contains_int(&[3, 5], &[]));
    }

    #[test]
    fn hull_of_collinear_points() {
        let pts = vec![pt(0, 0), pt(2, 2), pt(4, 4)];
        let h = convex_hull(2, &pts);
        // Segment (0,0)-(4,4): integer points on the diagonal only.
        assert_eq!(h.count_integer_points(), 5);
        assert!(h.contains_int(&[3, 3], &[]));
        assert!(!h.contains_int(&[3, 2], &[]));
    }

    #[test]
    fn empty_point_set_gives_empty_polyhedron() {
        let h = convex_hull(2, &[]);
        assert_eq!(h.count_integer_points(), 0);
    }

    #[test]
    fn bounding_box_fallback_3d() {
        let pts = vec![
            vec![Rat::from(0), Rat::from(0), Rat::from(0)],
            vec![Rat::from(1), Rat::from(2), Rat::from(3)],
        ];
        let h = convex_hull(3, &pts);
        assert_eq!(h.count_integer_points(), 2 * 3 * 4);
    }

    #[test]
    fn rational_points_are_handled_exactly() {
        // hull of {1/2, 5/2} in 1-D contains integers 1 and 2 only.
        let pts = vec![vec![Rat::new(1, 2)], vec![Rat::new(5, 2)]];
        let h = convex_hull(1, &pts);
        assert_eq!(h.count_integer_points(), 2);
    }
}
