//! Property-based tests of the polyhedral substrate's invariants.

use dae_poly::{
    convex_hull, try_count_union_distinct, vertices, AffineImage, ConstraintKind, LinExpr,
    Polyhedron, Rat, RowBudget, Space,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn rat() -> impl Strategy<Value = Rat> {
    (-50i128..50, 1i128..10).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    // ---- exact rational arithmetic ------------------------------------

    #[test]
    fn rat_add_commutes(a in rat(), b in rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rat_mul_distributes(a in rat(), b in rat(), c in rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in rat()) {
        let f = a.floor();
        let c = a.ceil();
        prop_assert!(Rat::int(f) <= a && a <= Rat::int(c));
        prop_assert!(c - f <= 1);
        if a.is_integer() {
            prop_assert_eq!(f, c);
        }
    }

    #[test]
    fn rat_order_consistent_with_sub(a in rat(), b in rat()) {
        prop_assert_eq!(a < b, (b - a).signum() > 0);
    }

    // ---- polyhedra ------------------------------------------------------

    /// Counting equals the length of the enumeration, and every enumerated
    /// point is a member.
    #[test]
    fn count_matches_enumeration(
        x0 in -5i128..5, w in 0i128..6,
        y0 in -5i128..5, h in 0i128..6,
        slope in -2i128..3,
    ) {
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, x0, x0 + w);
        p.bound_dim(1, y0, y0 + h);
        // an extra half-plane: y <= slope*x + y0 + h (keeps it bounded)
        p.add_ge0(
            LinExpr::dim(s, 1).scale(-1).with_dim(0, slope).with_const(y0 + h),
        );
        let pts = p.integer_points();
        prop_assert_eq!(pts.len() as u64, p.count_integer_points());
        for pt in &pts {
            prop_assert!(p.contains_int(pt, &[]));
        }
    }

    /// Fourier–Motzkin projection is sound: the projection of any member
    /// point is a member of the projection.
    #[test]
    fn fm_projection_sound(
        x0 in -4i128..4, w in 0i128..5,
        y0 in -4i128..4, h in 0i128..5,
        a in -2i128..3, b in -2i128..3, c in -6i128..7,
    ) {
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, x0, x0 + w);
        p.bound_dim(1, y0, y0 + h);
        p.add_ge0(LinExpr::zero(s).with_dim(0, a).with_dim(1, b).with_const(c));
        let proj = p.eliminate_dim(1);
        for pt in p.integer_points() {
            prop_assert!(
                proj.contains_int(&[pt[0]], &[]),
                "projection lost x = {}",
                pt[0]
            );
        }
    }

    /// The convex hull contains every input point, and its integer count is
    /// at least the number of distinct integer inputs.
    #[test]
    fn hull_contains_inputs(pts in proptest::collection::vec((-6i64..6, -6i64..6), 1..12)) {
        let rpts: Vec<Vec<Rat>> =
            pts.iter().map(|(x, y)| vec![Rat::from(*x), Rat::from(*y)]).collect();
        let hull = convex_hull(2, &rpts);
        for (x, y) in &pts {
            prop_assert!(hull.contains_int(&[*x, *y], &[]), "lost ({x},{y})");
        }
        let mut distinct = pts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(hull.count_integer_points() >= distinct.len() as u64);
    }

    /// Hull membership respects convexity: the midpoint of two input points
    /// (when integral) is inside.
    #[test]
    fn hull_is_convex_on_midpoints(
        ax in -6i64..6, ay in -6i64..6, bx in -6i64..6, by in -6i64..6,
    ) {
        let pts = vec![
            vec![Rat::from(ax), Rat::from(ay)],
            vec![Rat::from(bx), Rat::from(by)],
        ];
        let hull = convex_hull(2, &pts);
        if (ax + bx) % 2 == 0 && (ay + by) % 2 == 0 {
            prop_assert!(hull.contains_int(&[(ax + bx) / 2, (ay + by) / 2], &[]));
        }
    }

    /// Instantiating parameters commutes with membership.
    #[test]
    fn instantiation_consistent(n in 1i64..8, x in -2i64..10) {
        let s = Space::new(1, 1);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        p.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        let inst = p.instantiate_params(&[n]);
        prop_assert_eq!(p.contains_int(&[x], &[n]), inst.contains_int(&[x], &[]));
    }

    /// Vertex enumeration returns points satisfying all constraints.
    #[test]
    fn vertices_are_members(
        x0 in -4i128..4, w in 1i128..5,
        y0 in -4i128..4, h in 1i128..5,
    ) {
        let s = Space::new(2, 0);
        let mut p = Polyhedron::universe(s);
        p.bound_dim(0, x0, x0 + w);
        p.bound_dim(1, y0, y0 + h);
        let vs = dae_poly::vertices(&p);
        prop_assert_eq!(vs.len(), 4);
        for v in vs {
            prop_assert!(p.contains_rat(&v, &[]));
        }
    }
}

// ---- differential oracle for the row-granular counts -------------------
//
// The compiler's `NOrig`/`NconvUn` come from `try_count_union_distinct`
// and `try_count_integer_points`, which never visit a point. The oracle
// here does nothing else: it scans a bounding box, filters by
// `contains_int` and collects mapped points in a hash set.

/// Every generated domain lies in `[-BOX, BOX]^dims`.
const BOX: i64 = 8;

/// One extra constraint: dim coefficients, parameter coefficient, constant,
/// equality?
type RawConstraint = (Vec<i128>, i128, i128, bool);

/// A domain over `1..=3` dims and one parameter: a box (possibly empty:
/// width −1) cut by up to two half-planes or equalities with coefficients
/// in `-3..=3` — triangles `i + 1 <= j`, bands, strided lattices `i == 2k`.
fn domain() -> impl Strategy<Value = Polyhedron> {
    let coeff = || -3i128..4;
    let extra = (proptest::collection::vec(coeff(), 3..4), -1i128..2, -6i128..7, 0u8..4)
        .prop_map(|(c, p, k, eq)| (c, p, k, eq == 0));
    (
        1usize..4,
        proptest::collection::vec((-3i128..3, -1i128..5), 3..4),
        proptest::collection::vec(extra, 0..3),
    )
        .prop_map(|(dims, sides, extras): (usize, Vec<(i128, i128)>, Vec<RawConstraint>)| {
            let s = Space::new(dims, 1);
            let mut p = Polyhedron::universe(s);
            for (d, (lo, w)) in sides.iter().take(dims).enumerate() {
                p.bound_dim(d, *lo, lo + w);
            }
            for (c, param, k, eq) in extras {
                let mut e = LinExpr::constant(s, k).with_param(0, param);
                for (d, c) in c.iter().take(dims).enumerate() {
                    e = e.with_dim(d, *c);
                }
                if eq {
                    p.add_eq0(e);
                } else {
                    p.add_ge0(e);
                }
            }
            p
        })
}

/// `targets` subscripts over `domain`: mostly 0/±1 coefficients (dropped,
/// permuted, shifted, collapsed `i + j` dims), some strides 2–3.
fn image(targets: usize) -> impl Strategy<Value = AffineImage> {
    let subscript = (proptest::collection::vec(0usize..8, 3..4), -3i128..4);
    (domain(), proptest::collection::vec(subscript, 3..4)).prop_map(move |(dom, subs)| {
        let s = dom.space();
        let map = subs
            .iter()
            .take(targets)
            .map(|(coeffs, k)| {
                let mut e = LinExpr::constant(s, *k);
                for (d, c) in coeffs.iter().take(s.dims).enumerate() {
                    e = e.with_dim(d, [0, 0, 0, 1, 1, -1, 2, 3][*c]);
                }
                e
            })
            .collect();
        AffineImage::new(dom, map)
    })
}

/// The integer points of `p` at parameter `n`, by box scan.
fn brute_points(p: &Polyhedron, n: i64) -> Vec<Vec<i64>> {
    let dims = p.space().dims;
    let mut out = Vec::new();
    let mut pt = vec![-BOX; dims];
    loop {
        if p.contains_int(&pt, &[n]) {
            out.push(pt.clone());
        }
        let Some(d) = (0..dims).rev().find(|&d| pt[d] < BOX) else { return out };
        pt[d] += 1;
        pt[d + 1..].fill(-BOX);
    }
}

fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(ProptestConfig::default().cases.max(256))
}

proptest! {
    #![proptest_config(cases())]

    /// `NOrig`: the row/run count of a union of images equals the size of
    /// the brute-force point set, whichever of the projection, run and
    /// per-point paths each image takes.
    #[test]
    fn union_count_matches_point_set(
        targets in 1usize..4,
        images in proptest::collection::vec(image(3), 1..5),
        n in 0i64..4,
    ) {
        let images: Vec<AffineImage> = images
            .into_iter()
            .map(|i| AffineImage::new(i.domain, i.map[..targets].to_vec()))
            .collect();
        let mut cells: HashSet<Vec<i64>> = HashSet::new();
        for img in &images {
            for pt in brute_points(&img.domain, n) {
                cells.insert(img.map.iter().map(|e| e.eval_int(&pt, &[n]) as i64).collect());
            }
        }
        let mut budget = RowBudget::new();
        prop_assert_eq!(
            try_count_union_distinct(&images, &[n], &mut budget),
            Ok(cells.len() as u64),
            "{:?}", images
        );
        // …and one image's sorted enumeration is that image's cells.
        let mut first: Vec<Vec<i64>> = brute_points(&images[0].domain, n)
            .iter()
            .map(|pt| images[0].map.iter().map(|e| e.eval_int(pt, &[n]) as i64).collect())
            .collect();
        first.sort_unstable();
        first.dedup();
        prop_assert_eq!(images[0].try_enumerate(&[n]), Ok(first));
    }

    /// Row enumeration and row counting equal a box scan filtered by
    /// `contains_int` — so the scan needs no per-leaf membership filter.
    #[test]
    fn rows_match_box_scan(dom in domain(), n in 0i64..4) {
        let p = dom.instantiate_params(&[n]);
        let brute = brute_points(&dom, n);
        let mut budget = RowBudget::new();
        prop_assert_eq!(p.try_count_integer_points(&mut budget), Ok(brute.len() as u64), "{:?}", p);
        prop_assert_eq!(p.try_integer_points(&mut budget), Ok(brute.clone()), "{:?}", p);
        let mut from_rows = Vec::new();
        p.try_for_each_row(&mut budget, |_, prefix, lo, hi| {
            assert!(lo <= hi, "empty row reported");
            from_rows.extend((lo..=hi).map(|x| [prefix, &[x]].concat()));
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(from_rows, brute);
    }

    /// The projection fast path is taken exactly when the unit-coefficient
    /// guard holds, and then drops the dim from every integer point — no
    /// more, no fewer.
    #[test]
    fn unit_projection_is_the_integer_shadow(dom in domain(), n in 0i64..4, pick in 0usize..3) {
        let p = dom.instantiate_params(&[n]);
        let d = pick % p.space().dims;
        let coeffs = || p.constraints().iter().map(|c| c.expr.dim_coeff(d));
        // (The box always bounds `d` on both sides, with ±1 coefficients.)
        let guard = coeffs().all(|k| k.abs() <= 1);
        let projected = p.project_unit_dim(d);
        prop_assert_eq!(projected.is_some(), guard, "{:?} dim {}", p, d);
        if let Some(q) = projected {
            let shadow: HashSet<Vec<i64>> = brute_points(&dom, n)
                .into_iter()
                .map(|mut pt| {
                    pt.remove(d);
                    pt
                })
                .collect();
            if q.space().dims == 0 {
                prop_assert_eq!(q.contains_int(&[], &[]), !shadow.is_empty(), "{:?}", p);
            } else {
                let got: HashSet<Vec<i64>> = q.integer_points().into_iter().collect();
                prop_assert_eq!(got, shadow, "{:?} dim {}", p, d);
            }
        }
    }
}

// ---- differential oracle for the integer vertex kernel ------------------
//
// `vertices` solves every basis in integers (fraction-free elimination over
// the basis determinant). The model below is the rational Gaussian
// elimination it replaced: the same bases in the same order, the same
// membership test and the same first-seen deduplication, in `Rat`s.

/// Solves the square rational system `a` (`n` augmented rows) by Gaussian
/// elimination; `None` if singular.
fn solve_model(a: &mut [Vec<Rat>], n: usize) -> Option<Vec<Rat>> {
    let zero = Rat::int(0);
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != zero)?;
        a.swap(col, pivot);
        let p = a[col][col];
        for v in &mut a[col][col..] {
            *v = *v / p;
        }
        let pivot_row = a[col].clone();
        for (r, row) in a.iter_mut().enumerate() {
            let factor = row[col];
            if r != col && factor != zero {
                for (v, pv) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *v = *v - factor * *pv;
                }
            }
        }
    }
    Some(a.iter().map(|row| row[n]).collect())
}

/// The vertices of a parameter-free polyhedron by the model.
fn vertices_model(p: &Polyhedron) -> Vec<Vec<Rat>> {
    let d = p.space().dims;
    let row = |e: &LinExpr| -> Vec<Rat> {
        (0..d).map(|i| e.dim_coeff(i)).chain([-e.const_term()]).map(Rat::int).collect()
    };
    let (mut eqs, mut ineqs) = (Vec::new(), Vec::new());
    for c in p.constraints() {
        match c.kind {
            ConstraintKind::EqZero if eqs.len() < d => eqs.push(row(&c.expr)),
            ConstraintKind::EqZero => {}
            ConstraintKind::GeZero => ineqs.push(row(&c.expr)),
        }
    }
    let need = d - eqs.len();
    let mut out: Vec<Vec<Rat>> = Vec::new();
    if need > ineqs.len() {
        return out;
    }
    let mut choice: Vec<usize> = (0..need).collect();
    loop {
        let mut system: Vec<Vec<Rat>> =
            eqs.iter().chain(choice.iter().map(|&i| &ineqs[i])).cloned().collect();
        if let Some(x) = solve_model(&mut system, d) {
            if p.contains_rat(&x, &[]) && !out.contains(&x) {
                out.push(x);
            }
        }
        // The next basis, in lexicographic order.
        let k = choice.len();
        let Some(i) = (0..k).rev().find(|&i| choice[i] < ineqs.len() - k + i) else {
            return out;
        };
        choice[i] += 1;
        for j in i + 1..k {
            choice[j] = choice[j - 1] + 1;
        }
    }
}

/// A parameter-free polyhedron over `1..=4` dims: a box whose sides may be
/// empty (width −1) or open (no upper bound), cut by up to three
/// half-spaces or equalities with coefficients in `-3..=3` — triangles,
/// slanted faces, rational vertices, lines and points, empty sets.
fn polyhedron() -> impl Strategy<Value = Polyhedron> {
    let extra = (proptest::collection::vec(-3i128..4, 4..5), -8i128..9, 0u8..3)
        .prop_map(|(c, k, eq)| (c, k, eq == 0));
    (
        1usize..5,
        proptest::collection::vec((-3i128..3, -1i128..5, 0u8..8), 4..5),
        proptest::collection::vec(extra, 0..4),
    )
        .prop_map(|(dims, sides, extras)| {
            let s = Space::new(dims, 0);
            let mut p = Polyhedron::universe(s);
            for (d, (lo, w, open)) in sides.into_iter().take(dims).enumerate() {
                if open == 0 {
                    p.add_ge0(LinExpr::dim(s, d).with_const(-lo));
                } else {
                    p.bound_dim(d, lo, lo + w);
                }
            }
            for (c, k, eq) in extras {
                let mut e = LinExpr::constant(s, k);
                for (d, c) in c.into_iter().take(dims).enumerate() {
                    e = e.with_dim(d, c);
                }
                if eq {
                    p.add_eq0(e);
                } else {
                    p.add_ge0(e);
                }
            }
            p
        })
}

proptest! {
    #![proptest_config(cases())]

    /// The integer kernel yields exactly the model's vertices, in the
    /// model's order.
    #[test]
    fn vertices_equal_the_rational_model(p in polyhedron()) {
        prop_assert_eq!(vertices(&p), vertices_model(&p), "{:?}", p);
    }
}
