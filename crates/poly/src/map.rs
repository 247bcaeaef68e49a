//! Affine images of polyhedra (Z-polytopes) and unions thereof.
//!
//! An [`AffineImage`] is the compiler's model of one memory instruction: the
//! set of array cells it touches is the image of its iteration domain under
//! the affine subscript map. The paper's `NOrig` is the number of *distinct*
//! points in the union of these images (a union of Z-polytopes, counted in
//! the paper with Ehrhart polynomials; counted here exactly for
//! instantiated parameters, row by row — see [`try_count_union_distinct`]).
//! The accesses of one loop nest share one domain: an image holds it by
//! reference count, so it is not copied per access, and the domain's
//! vertices ([`VertexRecords`]) are enumerated once for every union over it.

use crate::linexpr::LinExpr;
use crate::polyhedron::{row_len, to_i64, Polyhedron, RowBudget, ScanError};
use crate::rat::Rat;
use crate::tables::Tables;
use crate::vertex::{eval_scaled, push_vertices};
use std::borrow::Cow;
use std::rc::Rc;

/// The image of an iteration domain under an affine subscript map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineImage {
    /// Iteration domain (dims = loop counters; params allowed), shared by
    /// the images of one loop nest.
    pub domain: Rc<Polyhedron>,
    /// One affine expression per target (subscript) coordinate, over the
    /// domain's space.
    pub map: Vec<LinExpr>,
}

impl AffineImage {
    /// Creates an image; all map expressions must live in the domain's space.
    pub fn new(domain: impl Into<Rc<Polyhedron>>, map: Vec<LinExpr>) -> Self {
        let domain = domain.into();
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
            domain: Rc::new(self.domain.instantiate_params(params)),
            map: self.map.iter().map(|e| e.instantiate_params(params)).collect(),
        }
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
}

/// The images at concrete parameter values: the images themselves when
/// they are parameter-free already.
fn instantiated<'a>(images: &'a [AffineImage], params: &[i64]) -> Cow<'a, [AffineImage]> {
    if params.is_empty() && images.iter().all(|i| i.domain.space().params == 0) {
        Cow::Borrowed(images)
    } else {
        Cow::Owned(images.iter().map(|i| i.instantiate(params)).collect())
    }
}

/// The vertices of one parameter-free domain, enumerated once and read by
/// every union over that domain (the accesses of one loop nest share it).
/// Each vertex is an integer record `[num…, det]`: the point `num / det`,
/// in lowest terms with `det > 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexRecords {
    dims: usize,
    records: Vec<i128>,
}

impl Tables {
    /// [`try_count_union_distinct`] on these tables.
    pub fn try_count_union_distinct(
        &mut self,
        images: &[AffineImage],
        params: &[i64],
        budget: &mut RowBudget,
    ) -> Result<u64, ScanError> {
        let images = instantiated(images, params);
        self.distinct.clear();
        for (i, img) in images.iter().enumerate() {
            assert_eq!(img.target_dims(), images[0].target_dims(), "one target space per union");
            if !self.distinct.iter().any(|&j| images[j] == *img) {
                self.distinct.push(i);
            }
        }
        // Fixed-width records `[key…, lo, hi]`, `width - 2` key coordinates;
        // an image without coordinates maps every point to the one point `()`,
        // counted as the coordinate 0.
        let width = images.first().map_or(1, |i| i.target_dims().max(1)) + 1;
        self.runs.clear();
        for k in 0..self.distinct.len() {
            self.push_runs(&images[self.distinct[k]], budget)?;
        }
        let runs = &self.runs;
        let run = |i: u32| &runs[i as usize * width..][..width];
        // Each record was charged to the budget, so the index fits `u32`.
        self.order.clear();
        self.order.extend(0..(runs.len() / width) as u32);
        self.order.sort_unstable_by(|&a, &b| run(a).cmp(run(b)));

        // Sorted by (key, lo): a run adds what lies beyond `covered`, the
        // highest cell counted so far under the same key.
        let mut total = 0u64;
        let mut prev: Option<(&[i64], i64)> = None;
        for &i in &self.order {
            let (key, ends) = run(i).split_at(width - 2);
            let (mut lo, hi) = (ends[0], ends[1]);
            if let Some((_, covered)) = prev.filter(|(k, _)| *k == key) {
                if hi <= covered {
                    continue;
                }
                lo = lo.max(covered + 1);
            }
            total =
                row_len(lo, hi).and_then(|n| total.checked_add(n)).ok_or(ScanError::Overflow)?;
            prev = Some((key, hi));
        }
        Ok(total)
    }

    /// Appends to `self.runs` one record `[other coordinates…, lo, hi]` per
    /// run of target points of the parameter-free image `img`: the points
    /// that agree on every coordinate but the last, where they cover
    /// `lo..=hi`.
    ///
    /// The domain is first stripped of the dims no subscript reads, as far
    /// as [`Polyhedron::project_unit_dim`] can drop them exactly (the image
    /// of `A[j][k]` under `i < j, i < k` needs no scan over `i`). It is then
    /// scanned with a dim innermost that moves only the last coordinate, by
    /// one cell per step, if there is one (`A[j][i]` is scanned `j`-major):
    /// a whole domain row is one run. Otherwise every point is its own run
    /// (and is charged to `budget`).
    fn push_runs(&mut self, img: &AffineImage, budget: &mut RowBudget) -> Result<(), ScanError> {
        self.load_without_unread_dims(img);
        let Tables { levels, runs, dom, map, .. } = self;
        let dims = dom.space().dims;
        let moves_last_only = |d: usize| {
            let (last, keys) = map.split_last().expect("a target coordinate");
            last.dim_coeff(d).abs() == 1 && keys.iter().all(|e| e.dim_coeff(d) == 0)
        };
        let Some(run_dim) = (0..dims).rev().find(|&d| moves_last_only(d)) else {
            levels.build(dom);
            return levels.try_for_each_integer_point(budget, |pt| {
                debug_assert!(dom.contains_int(pt, &[]), "the scan needs no membership filter");
                for e in map.iter() {
                    runs.push(to_i64(e.checked_eval_prefix(pt))?);
                }
                runs.extend_from_within(runs.len() - 1..); // lo == hi
                Ok(())
            });
        };
        let inner = dims - 1;
        dom.swap_dims(run_dim, inner);
        map.iter_mut().for_each(|e| e.swap_dims(run_dim, inner));
        let (last, keys) = map.split_last().expect("a target coordinate");
        let step = last.dim_coeff(inner);
        levels.build(dom);
        levels.try_for_each_row(budget, |_, prefix, lo, hi| {
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

    /// Copies `img` into `self.dom` and `self.map` (a map without
    /// coordinates gets the one coordinate 0), without the dims no
    /// subscript reads that project exactly.
    fn load_without_unread_dims(&mut self, img: &AffineImage) {
        let Tables { dom, spare, map, .. } = self;
        dom.copy_from(&img.domain);
        map.clone_from(&img.map);
        if map.is_empty() {
            map.push(LinExpr::zero(dom.space()));
        }
        for d in (0..dom.space().dims).rev() {
            if map.iter().any(|e| e.dim_coeff(d) != 0) || !dom.projects_unit_dim(d) {
                continue;
            }
            dom.eliminate_dim_into(d, spare);
            std::mem::swap(dom, spare);
            for e in map.iter_mut() {
                *e = e.clone().without_dim(d);
            }
        }
    }

    /// The vertices of the parameter-free `domain`; an error when one
    /// leaves `i128`.
    pub fn try_vertex_records(&mut self, domain: &Polyhedron) -> Result<VertexRecords, ScanError> {
        self.verts.clear();
        push_vertices(domain, &mut self.vertex, &mut self.verts)?;
        Ok(VertexRecords { dims: domain.space().dims, records: self.verts.clone() })
    }

    /// The distinct images of the vertices of some domains, in
    /// first-appearance order: each part is a domain's vertices and a map
    /// over that domain's space. An error when an image leaves `i128`.
    pub fn try_union_vertex_images<'a>(
        &mut self,
        parts: impl IntoIterator<Item = (&'a VertexRecords, &'a [LinExpr])>,
    ) -> Result<Vec<Vec<Rat>>, ScanError> {
        let img = &mut self.img;
        let mut out: Vec<Vec<Rat>> = Vec::new();
        for (vertices, map) in parts {
            let dims = vertices.dims;
            for record in vertices.records.chunks_exact(dims + 1) {
                let (num, det) = (&record[..dims], record[dims]);
                img.clear();
                for e in map {
                    img.push(Rat::new(eval_scaled(e, num, det)?, det));
                }
                if !out.contains(img) {
                    out.push(img.clone());
                }
            }
        }
        Ok(out)
    }
}

/// The distinct rational vertices of several images for concrete parameter
/// values, in first-appearance order — the point set whose convex hull the
/// §5.1 generator scans. An image's vertices are the images of its domain's
/// vertices (the image of a convex hull is the hull of the vertex images).
/// The generator enumerates each loop nest's vertices once
/// ([`Tables::try_vertex_records`]) and maps them for every class over that
/// nest ([`Tables::try_union_vertex_images`]).
///
/// # Panics
///
/// Panics if a vertex or its image leaves `i128`; compiler paths use the
/// two `Tables` steps and refuse instead.
pub fn union_image_vertices(images: &[AffineImage], params: &[i64]) -> Vec<Vec<Rat>> {
    let images = instantiated(images, params);
    Tables::with(|t| {
        let domain_vertices: Vec<VertexRecords> =
            images.iter().map(|i| t.try_vertex_records(&i.domain)).collect::<Result<_, _>>()?;
        t.try_union_vertex_images(domain_vertices.iter().zip(images.iter().map(|i| &i.map[..])))
    })
    .expect("vertices within i128")
}

/// Counts the distinct points in the union of several images for concrete
/// parameter values (the paper's `NOrig`), or a [`ScanError`] when some
/// image's domain cannot be scanned within `budget` — the caller should
/// refuse generation rather than abort.
///
/// The cost follows the number of domain *rows*, not points: identical
/// images are counted once, dims no subscript reads are projected away,
/// each remaining row contributes one interval of the last coordinate where
/// the map allows it (the scan order is chosen per image so that it does),
/// and the union is the merged length of the sorted intervals.
pub fn try_count_union_distinct(
    images: &[AffineImage],
    params: &[i64],
    budget: &mut RowBudget,
) -> Result<u64, ScanError> {
    Tables::with(|t| t.try_count_union_distinct(images, params, budget))
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
    fn one_domains_records_serve_every_map_over_it() {
        // A[i][j] and A[j][i] over 0 <= i <= 3, 0 <= j <= 2: the corner
        // (0, 0) is shared, so 4 + 4 - 1 points.
        let s = Space::new(2, 0);
        let mut dom = Polyhedron::universe(s);
        dom.bound_dim(0, 0, 3);
        dom.bound_dim(1, 0, 2);
        let a = AffineImage::new(dom.clone(), vec![LinExpr::dim(s, 0), LinExpr::dim(s, 1)]);
        let b = AffineImage::new(dom.clone(), vec![LinExpr::dim(s, 1), LinExpr::dim(s, 0)]);
        let mut tables = Tables::new();
        let records = tables.try_vertex_records(&dom).unwrap();
        let points =
            tables.try_union_vertex_images([(&records, &a.map[..]), (&records, &b.map[..])]);
        let points = points.unwrap();
        assert_eq!(points.len(), 7);
        assert_eq!(points, union_image_vertices(&[a, b], &[]));
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
        let mut tables = Tables::new();
        for img in &images {
            tables.load_without_unread_dims(&img.instantiate(&[8]));
            assert_eq!(tables.dom.space().dims, 2);
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
