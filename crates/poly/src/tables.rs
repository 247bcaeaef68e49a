//! The reusable tables of the polyhedral steps: scan levels with their
//! projection chain, vertex records, run records and the copy of a domain a
//! union count reshapes. One compile thread keeps one set
//! ([`Tables::with`]) across all the classes and tasks it counts.

use crate::linexpr::LinExpr;
use crate::polyhedron::{Levels, Polyhedron};
use crate::rat::Rat;
use crate::vertex::VertexScratch;
use std::cell::RefCell;

/// The buffers the counting, vertex and loop-nest steps fill; each step
/// clears what it uses before filling it.
#[derive(Debug, Default)]
pub struct Tables {
    /// The scan of the polyhedron being counted or turned into a nest.
    pub(crate) levels: Levels,
    /// Vertex enumeration: the basis systems, and the records `[num…, det]`
    /// of the domain being enumerated.
    pub(crate) vertex: VertexScratch,
    pub(crate) verts: Vec<i128>,
    /// One vertex image.
    pub(crate) img: Vec<Rat>,
    /// Union counting: the distinct images, their run records and the
    /// records' sorted order.
    pub(crate) distinct: Vec<usize>,
    pub(crate) runs: Vec<i64>,
    pub(crate) order: Vec<u32>,
    /// The domain and map of the image being scanned, and the other half
    /// of the domain's projections.
    pub(crate) dom: Polyhedron,
    pub(crate) spare: Polyhedron,
    pub(crate) map: Vec<LinExpr>,
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables::new());
}

impl Tables {
    /// Empty tables.
    pub fn new() -> Tables {
        Tables::default()
    }

    /// Runs `f` on this thread's tables. A call nested inside another (the
    /// thread's tables are already lent out) gets fresh ones.
    pub fn with<R>(f: impl FnOnce(&mut Tables) -> R) -> R {
        TABLES.with(|cell| match cell.try_borrow_mut() {
            Ok(mut t) => f(&mut t),
            Err(_) => f(&mut Tables::new()),
        })
    }
}
