//! Affine images of polyhedra (Z-polytopes) and unions thereof.
//!
//! An [`AffineImage`] is the compiler's model of one memory instruction: the
//! set of array cells it touches is the image of its iteration domain under
//! the affine subscript map. The paper's `NOrig` is the number of *distinct*
//! points in the union of these images (a union of Z-polytopes, counted in
//! the paper with Ehrhart polynomials; counted here exactly for
//! instantiated parameters, row by row — see [`try_count_union_distinct`]).

use crate::linexpr::LinExpr;
use crate::polyhedron::{row_len, to_i64, Polyhedron, RowBudget, ScanError};
use crate::rat::Rat;
use crate::vertex::vertices;
use std::borrow::Cow;

/// The image of an iteration domain under an affine subscript map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineImage {
    /// Iteration domain (dims = loop counters; params allowed).
    pub domain: Polyhedron,
    /// One affine expression per target (subscript) coordinate, over the
    /// domain's space.
    pub map: Vec<LinExpr>,
}

impl AffineImage {
    /// Creates an image; all map expressions must live in the domain's space.
    pub fn new(domain: Polyhedron, map: Vec<LinExpr>) -> Self {
        for e in &map {
            assert_eq!(e.space, domain.space(), "map expression space mismatch");
        }
        AffineImage { domain, map }
    }

    /// Number of target coordinates.
    pub(crate) fn target_dims(&self) -> usize {
        self.map.len()
    }

    /// The parameter-free image at concrete parameter values.
    pub(crate) fn instantiate(&self, params: &[i64]) -> AffineImage {
        AffineImage {
            domain: self.domain.instantiate_params(params),
            map: self.map.iter().map(|e| e.instantiate_params(params)).collect(),
        }
    }

    /// The same set of target points from a domain without the dims no
    /// subscript reads, as far as [`Polyhedron::project_unit_dim`] can drop
    /// them exactly: the image of `A[j][k]` under `i < j, i < k` needs no
    /// scan over `i`.
    pub(crate) fn without_unread_dims(mut self) -> AffineImage {
        for d in (0..self.domain.space().dims).rev() {
            if self.map.iter().any(|e| e.dim_coeff(d) != 0) {
                continue;
            }
            if let Some(projected) = self.domain.project_unit_dim(d) {
                self.domain = projected;
                self.map =
                    std::mem::take(&mut self.map).into_iter().map(|e| e.without_dim(d)).collect();
            }
        }
        self
    }

    /// Appends one record `[other coordinates…, lo, hi]` per run of target
    /// points of this parameter-free image: the points that agree on every
    /// coordinate but the last, where they cover `lo..=hi`. The domain is
    /// scanned with a dim innermost that moves only the last coordinate, by
    /// one cell per step, if there is one (`A[j][i]` is scanned `j`-major);
    /// then a whole domain row is one run. Otherwise every point is its
    /// own run (and is charged to `budget`).
    fn push_runs(mut self, budget: &mut RowBudget, runs: &mut Vec<i64>) -> Result<(), ScanError> {
        let dims = self.domain.space().dims;
        let moves_last_only = |d: usize| {
            let (last, keys) = self.map.split_last().expect("a target coordinate");
            last.dim_coeff(d).abs() == 1 && keys.iter().all(|e| e.dim_coeff(d) == 0)
        };
        let Some(run_dim) = (0..dims).rev().find(|&d| moves_last_only(d)) else {
            return self.domain.try_for_each_integer_point(budget, |pt| self.push_point(pt, runs));
        };
        let inner = dims - 1;
        self.domain.swap_dims(run_dim, inner);
        self.map.iter_mut().for_each(|e| e.swap_dims(run_dim, inner));
        let (last, keys) = self.map.split_last().expect("a target coordinate");
        let step = last.dim_coeff(inner);
        self.domain.try_for_each_row(budget, |_, prefix, lo, hi| {
            for e in keys {
                runs.push(to_i64(e.checked_eval_prefix(prefix))?);
            }
            let at_zero = last.checked_eval_prefix(prefix);
            let end = |x: i64| to_i64(at_zero.and_then(|v| v.checked_add(step * x as i128)));
            let (a, b) = (end(lo)?, end(hi)?);
            runs.extend([a.min(b), a.max(b)]);
            Ok(())
        })
    }

    /// Appends the single-point run of the domain point `point`.
    fn push_point(&self, point: &[i64], runs: &mut Vec<i64>) -> Result<(), ScanError> {
        for e in &self.map {
            runs.push(to_i64(e.checked_eval_prefix(point))?);
        }
        runs.extend_from_within(runs.len() - 1..); // lo == hi
        Ok(())
    }

    /// Enumerates the distinct integer target points for concrete parameter
    /// values, sorted, or a [`ScanError`] when the instantiated domain
    /// cannot be scanned within one [`RowBudget`].
    pub fn try_enumerate(&self, params: &[i64]) -> Result<Vec<Vec<i64>>, ScanError> {
        let inst = self.instantiate(params);
        let mut out: Vec<Vec<i64>> = Vec::new();
        inst.domain.try_for_each_integer_point(&mut RowBudget::new(), |pt| {
            let image = inst.map.iter().map(|e| to_i64(e.checked_eval_prefix(pt)));
            out.push(image.collect::<Result<_, _>>()?);
            Ok(())
        })?;
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Appends to `out` the images of rational domain points under this
    /// parameter-free map that it does not hold yet, in first-appearance
    /// order. `img` is scratch.
    fn push_new_images(&self, points: &[Vec<Rat>], img: &mut Vec<Rat>, out: &mut Vec<Vec<Rat>>) {
        for v in points {
            img.clear();
            img.extend(self.map.iter().map(|e| e.eval(v, &[])));
            if !out.contains(img) {
                out.push(img.clone());
            }
        }
    }
}

/// The distinct rational vertices of several images for concrete parameter
/// values, in first-appearance order — the point set whose convex hull the
/// §5.1 generator scans. An image's vertices are the images of its domain's
/// vertices (the image of a convex hull is the hull of the vertex images);
/// the vertices of a domain are computed once however many images share it
/// (the accesses of a loop body all do).
pub fn union_image_vertices(images: &[AffineImage], params: &[i64]) -> Vec<Vec<Rat>> {
    // A parameter-free image is its own instance.
    let images: Vec<Cow<'_, AffineImage>> = images
        .iter()
        .map(|i| match i.domain.space().params == 0 && params.is_empty() {
            true => Cow::Borrowed(i),
            false => Cow::Owned(i.instantiate(params)),
        })
        .collect();
    let mut domains: Vec<(&Polyhedron, Vec<Vec<Rat>>)> = Vec::new();
    let mut out: Vec<Vec<Rat>> = Vec::new();
    let mut img = Vec::new();
    for image in &images {
        let known = domains.iter().position(|(d, _)| *d == &image.domain).unwrap_or_else(|| {
            domains.push((&image.domain, vertices(&image.domain)));
            domains.len() - 1
        });
        image.push_new_images(&domains[known].1, &mut img, &mut out);
    }
    out
}

/// Counts the distinct points in the union of several images for concrete
/// parameter values (the paper's `NOrig`), or a [`ScanError`] when some
/// image's domain cannot be scanned within `budget` — the caller should
/// refuse generation rather than abort.
///
/// The cost follows the number of domain *rows*, not points: identical
/// images are counted once, dims no subscript reads are projected away
/// (`AffineImage::without_unread_dims`), each remaining row contributes
/// one interval of the last coordinate where the map allows it (the scan
/// order is chosen per image so that it does), and the union is the merged
/// length of the sorted intervals.
pub fn try_count_union_distinct(
    images: &[AffineImage],
    params: &[i64],
    budget: &mut RowBudget,
) -> Result<u64, ScanError> {
    let mut distinct: Vec<AffineImage> = Vec::new();
    for img in images {
        assert_eq!(img.target_dims(), images[0].target_dims(), "one target space per union");
        let mut inst = img.instantiate(params);
        if inst.map.is_empty() {
            // No coordinates: every domain point maps to the one point `()`.
            inst.map.push(LinExpr::zero(inst.domain.space()));
        }
        if !distinct.contains(&inst) {
            distinct.push(inst);
        }
    }
    // Fixed-width records `[key…, lo, hi]`, `width - 2` key coordinates.
    let width = distinct.first().map_or(2, |i| i.target_dims() + 1);
    let mut runs: Vec<i64> = Vec::new();
    for img in distinct {
        img.without_unread_dims().push_runs(budget, &mut runs)?;
    }
    let run = |i: u32| &runs[i as usize * width..][..width];
    // Each record was charged to the budget, so the index fits `u32`.
    let mut order: Vec<u32> = (0..(runs.len() / width) as u32).collect();
    order.sort_unstable_by(|&a, &b| run(a).cmp(run(b)));

    // Sorted by (key, lo): a run adds what lies beyond `covered`, the
    // highest cell counted so far under the same key.
    let mut total = 0u64;
    let mut prev: Option<(&[i64], i64)> = None;
    for &i in &order {
        let (key, ends) = run(i).split_at(width - 2);
        let (mut lo, hi) = (ends[0], ends[1]);
        if let Some((_, covered)) = prev.filter(|(k, _)| *k == key) {
            if hi <= covered {
                continue;
            }
            lo = lo.max(covered + 1);
        }
        total = row_len(lo, hi).and_then(|n| total.checked_add(n)).ok_or(ScanError::Overflow)?;
        prev = Some((key, hi));
    }
    Ok(total)
}

/// Counts the distinct points in the union of several images for concrete
/// parameter values (the paper's `NOrig`).
///
/// # Panics
///
/// Panics if some image's domain cannot be scanned; compiler paths use
/// [`try_count_union_distinct`] and refuse instead.
pub fn count_union_distinct(images: &[AffineImage], params: &[i64]) -> u64 {
    try_count_union_distinct(images, params, &mut RowBudget::new())
        .expect("scannable image domains")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::Space;

    /// Builds the iteration domain { (i, j) | 0 <= i < n, 0 <= j < n } with
    /// one parameter n.
    fn square_domain() -> Polyhedron {
        let s = Space::new(2, 1);
        let mut p = Polyhedron::universe(s);
        p.add_ge0(LinExpr::dim(s, 0));
        p.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        p.add_ge0(LinExpr::dim(s, 1));
        p.add_ge0(LinExpr::dim(s, 1).scale(-1).with_param(0, 1).with_const(-1));
        p
    }

    #[test]
    fn identity_image_counts_square() {
        let s = Space::new(2, 1);
        let img = AffineImage::new(square_domain(), vec![LinExpr::dim(s, 0), LinExpr::dim(s, 1)]);
        assert_eq!(img.try_enumerate(&[4]).unwrap().len(), 16);
    }

    #[test]
    fn collapsing_image_dedupes() {
        // map (i, j) -> (i): all j collapse.
        let s = Space::new(2, 1);
        let img = AffineImage::new(square_domain(), vec![LinExpr::dim(s, 0)]);
        assert_eq!(img.try_enumerate(&[5]).unwrap().len(), 5);
    }

    #[test]
    fn union_counts_overlap_once() {
        // A[i][j] and A[i][j] again (two instructions, same cells) — union
        // must not double count. Third image shifted by 1 row adds n cells.
        let s = Space::new(2, 1);
        let a = AffineImage::new(square_domain(), vec![LinExpr::dim(s, 0), LinExpr::dim(s, 1)]);
        let b = a.clone();
        let c = AffineImage::new(
            square_domain(),
            vec![LinExpr::dim(s, 0).with_const(1), LinExpr::dim(s, 1)],
        );
        assert_eq!(count_union_distinct(&[a.clone(), b], &[4]), 16);
        assert_eq!(count_union_distinct(&[a, c], &[4]), 20);
    }

    #[test]
    fn image_vertices_are_mapped_domain_vertices() {
        let s = Space::new(2, 1);
        // map (i,j) -> (i + j, j): a shear.
        let img = AffineImage::new(
            square_domain(),
            vec![LinExpr::dim(s, 0).with_dim(1, 1), LinExpr::dim(s, 1)],
        );
        let vs = union_image_vertices(&[img], &[3]);
        assert_eq!(vs.len(), 4);
        assert!(vs.contains(&vec![Rat::int(0), Rat::int(0)]));
        assert!(vs.contains(&vec![Rat::int(4), Rat::int(2)]));
    }

    #[test]
    fn strided_image_is_sparse() {
        // map i -> 2i over 0..n : n distinct points, not 2n.
        let s = Space::new(1, 1);
        let mut dom = Polyhedron::universe(s);
        dom.add_ge0(LinExpr::dim(s, 0));
        dom.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        let img = AffineImage::new(dom, vec![LinExpr::dim(s, 0).scale(2)]);
        let pts = img.try_enumerate(&[6]).unwrap();
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&vec![10]));
        assert!(!pts.contains(&vec![9]));
        assert_eq!(count_union_distinct(&[img], &[6]), 6);
    }

    #[test]
    fn a_stream_of_any_length_is_one_run() {
        // A[i] and A[i + 5] over 0 <= i < 10^9: two rows, two runs.
        let s = Space::new(1, 1);
        let mut dom = Polyhedron::universe(s);
        dom.add_ge0(LinExpr::dim(s, 0));
        dom.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        let a = AffineImage::new(dom.clone(), vec![LinExpr::dim(s, 0)]);
        let b = AffineImage::new(dom, vec![LinExpr::dim(s, 0).with_const(5)]);
        let mut budget = RowBudget::new();
        let n = 1_000_000_000;
        assert_eq!(try_count_union_distinct(&[a, b], &[n], &mut budget), Ok(n as u64 + 5));
        assert_eq!(budget.visited(), 2);
    }

    #[test]
    fn unread_dims_are_projected_and_transposed_runs_merge() {
        // The LU inner body over { 0 <= i < n, i < j < n, i < k < n }:
        // A[j][k] and A[i][k] never read j resp. i, A[j][i] never reads k.
        let s = Space::new(3, 1);
        let mut dom = Polyhedron::universe(s);
        dom.add_ge0(LinExpr::dim(s, 0));
        dom.add_ge0(LinExpr::dim(s, 0).scale(-1).with_param(0, 1).with_const(-1));
        for d in [1, 2] {
            dom.add_ge0(LinExpr::dim(s, d).with_dim(0, -1).with_const(-1));
            dom.add_ge0(LinExpr::dim(s, d).scale(-1).with_param(0, 1).with_const(-1));
        }
        let image =
            |r, c| AffineImage::new(dom.clone(), vec![LinExpr::dim(s, r), LinExpr::dim(s, c)]);
        let images = [image(1, 2), image(1, 0), image(0, 2)];
        for img in &images {
            assert_eq!(img.instantiate(&[8]).without_unread_dims().domain.space().dims, 2);
        }
        // Every cell of the 8×8 block but the diagonal below (0, 0)… by
        // brute force: the union of the three enumerations.
        let mut cells: Vec<Vec<i64>> =
            images.iter().flat_map(|i| i.try_enumerate(&[8]).unwrap()).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(count_union_distinct(&images, &[8]), cells.len() as u64);
    }

    #[test]
    fn coordinates_beyond_i64_are_refused_not_truncated() {
        // i -> i64::MAX·i over 0 <= i <= 2: the third point is not an i64.
        // The old `as i64` cast folded it onto a wrapped cell.
        let s = Space::new(1, 0);
        let mut dom = Polyhedron::universe(s);
        dom.bound_dim(0, 0, 2);
        let far = AffineImage::new(dom.clone(), vec![LinExpr::dim(s, 0).scale(i64::MAX as i128)]);
        assert_eq!(far.try_enumerate(&[]), Err(ScanError::Overflow));
        let mut budget = RowBudget::new();
        assert_eq!(try_count_union_distinct(&[far], &[], &mut budget), Err(ScanError::Overflow));
        // …while a run that ends exactly at i64::MAX counts.
        let edge = AffineImage::new(dom, vec![LinExpr::dim(s, 0).with_const(i64::MAX as i128 - 2)]);
        assert_eq!(try_count_union_distinct(&[edge], &[], &mut budget), Ok(3));
    }
}
