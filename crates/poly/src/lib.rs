//! # dae-poly — an exact polyhedral library (PolyLib stand-in)
//!
//! The polyhedral substrate of the CGO 2014 DAE reproduction. The paper uses
//! PolyLib (plus Ehrhart counting and Z-polytope machinery) for its §5.1
//! affine access analysis; this crate implements exactly the facilities that
//! analysis needs, from scratch, over exact `i128` rationals:
//!
//! * [`rat::Rat`] — exact rational arithmetic,
//! * [`linexpr::LinExpr`]/[`linexpr::Space`] — integer affine expressions
//!   over dimensions and symbolic parameters,
//! * [`polyhedron::Polyhedron`] — constraint-form polyhedra with
//!   intersection, Fourier–Motzkin projection, exact emptiness, bound
//!   extraction and integer-point enumeration/counting,
//! * [`vertex::vertices`] — exact vertex enumeration (basis enumeration),
//! * [`hull::convex_hull`] — convex hulls of point sets (exact in 1-D/2-D),
//! * [`map::AffineImage`] — Z-polytopes as affine images of domains, with
//!   distinct-point counting for the paper's `NOrig`,
//! * [`codegen::extract_loop_nest`] — scanning loop bounds for a polyhedron
//!   (the "loop nest of minimal depth" generation),
//! * [`tables::Tables`] — the reusable buffers of the steps above, one set
//!   per compile thread.
//!
//! # Examples
//!
//! The paper's Listing 1 profitability check in miniature: two transposed
//! accesses cover the full block; the convex hull of the union adds no
//! extra cells, so the `NconvUn <= NOrig` check accepts the hull scan.
//!
//! ```
//! use dae_poly::{
//!     convex_hull, count_union_distinct, union_image_vertices, AffineImage, LinExpr, Polyhedron,
//!     Space,
//! };
//!
//! // domain { (i, j) | 0 <= i < 8, 0 <= j < 8 }
//! let s = Space::new(2, 0);
//! let mut dom = Polyhedron::universe(s);
//! dom.bound_dim(0, 0, 7);
//! dom.bound_dim(1, 0, 7);
//!
//! // two accesses: A[i][j] and A[j][i]
//! let a1 = AffineImage::new(dom.clone(), vec![LinExpr::dim(s, 0), LinExpr::dim(s, 1)]);
//! let a2 = AffineImage::new(dom.clone(), vec![LinExpr::dim(s, 1), LinExpr::dim(s, 0)]);
//!
//! let n_orig = count_union_distinct(&[a1.clone(), a2.clone()], &[]);
//! let hull = convex_hull(2, &union_image_vertices(&[a1, a2], &[]));
//! let n_conv = hull.count_integer_points();
//! assert_eq!(n_orig, 64);
//! assert_eq!(n_conv, 64); // hull adds nothing: scan it
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod codegen;
pub mod hull;
pub(crate) mod linexpr;
pub(crate) mod map;
pub(crate) mod polyhedron;
pub(crate) mod rat;
pub(crate) mod tables;
pub(crate) mod vertex;

pub use codegen::{extract_loop_nest, Bound, DimBounds, LoopNestSpec};
pub use hull::convex_hull;
pub use linexpr::{Coeffs, LinExpr, Space};
pub use map::{
    count_union_distinct, try_count_union_distinct, union_image_vertices, AffineImage,
    VertexRecords,
};
pub use polyhedron::{
    rows_high_water, Constraint, ConstraintKind, Polyhedron, RowBudget, ScanError, ROW_BUDGET,
};
pub use rat::Rat;
pub use tables::Tables;
pub use vertex::vertices;
