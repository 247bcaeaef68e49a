//! The §5.1 polyhedral access generator.
//!
//! Pipeline, mirroring the paper:
//!
//! 1. partition the task's affine accesses into **classes** — accesses to
//!    the same array whose subscripts use the same parameters (trade-off 3,
//!    Listing 3);
//! 2. per class, compute the **union of per-instruction access sets**
//!    (`NOrig`, counted exactly on representative parameters) and the
//!    **convex hull of the union** (`NconvUn`, integer points of the hull);
//! 3. apply the **profitability check** `NconvUn − th ≤ NOrig` — when it
//!    fails the caller falls back to the §5.2 skeleton path;
//! 4. extract the **minimal-depth scanning loop nest** for each class hull
//!    and **merge** nests with identical bounds (trade-off 2, Listing 2);
//! 5. emit a fresh IR function that scans the hulls and prefetches
//!    `base + elem·Σ strideₖ·(dimₖ + param-partₖ)` for every class.

use crate::access_info::{AffineAccess, TaskAccessInfo};
use crate::options::{AffineStats, CompilerOptions};
use dae_analysis::transform::{compact_in, strength_reduce_and_clean_compacted};
use dae_analysis::Workspace;
use dae_ir::{Function, FunctionBuilder, Type, Value};
use dae_poly::{
    convex_hull, extract_loop_nest, AffineImage, LinExpr, LoopNestSpec, Polyhedron, RowBudget,
    Space, Tables, VertexRecords,
};
use std::rc::Rc;

/// One access class: the unit of hull computation and codegen.
struct Class<'a> {
    /// The class's first access: its array, element size, strides and
    /// per-subscript parameter coefficients (added back at
    /// address-generation time; constants are part of the hull space) are
    /// the class's.
    first: &'a AffineAccess,
    n_orig: u64,
    n_conv: u64,
    nest: LoopNestSpec,
}

/// A generated affine access phase.
pub(crate) struct AffineResult {
    /// The access function (same signature as the task, `void` return).
    pub func: Function,
    /// Decision statistics.
    pub stats: AffineStats,
}

/// Runs the §5.1 pipeline. Returns `None` when the task is not fully
/// affine, parameters lack representative hints, the hull check fails, or a
/// hull cannot be scanned with unit-coefficient bounds.
pub(crate) fn generate_affine_access(
    ws: &mut Workspace,
    task: &Function,
    info: &TaskAccessInfo,
    opts: &CompilerOptions,
) -> Option<AffineResult> {
    if !opts.enable_polyhedral || !info.counts.fully_affine() || info.affine.is_empty() {
        return None;
    }
    let n_params = task.params.len();
    if n_params > 0 && opts.param_hints.len() != n_params {
        return None; // cannot evaluate profitability counts
    }
    let hints = &opts.param_hints[..];

    // 1. classes, grouped in first-appearance order so the emitted function
    //    is a deterministic (reproducible, cacheable) artifact of the input.
    let mut class_accs: Vec<Vec<&AffineAccess>> = Vec::new();
    for acc in &info.affine {
        match class_accs.iter_mut().find(|accs| accs[0].same_class(acc)) {
            Some(accs) => accs.push(acc),
            None => class_accs.push(vec![acc]),
        }
    }

    // 2. per-class union, hull, counts — all on one work budget, over one
    //    instantiated domain per loop nest
    let domains: Vec<Rc<Polyhedron>> =
        info.nests.iter().map(|n| Rc::new(n.domain.instantiate_params(hints))).collect();
    // Each nest's vertices, enumerated when a class over it first needs them.
    let mut vertices: Vec<Option<VertexRecords>> = vec![None; domains.len()];
    let mut budget = RowBudget::new();
    let mut classes: Vec<Class> = Vec::new();
    Tables::with(|tables| {
        for accs in class_accs {
            let target_dims = accs[0].subscripts.len();
            let images: Vec<AffineImage> =
                accs.iter().map(|acc| acc.image(&domains[acc.nest])).collect();
            // A domain that cannot be counted within the budget — unbounded,
            // or a hostile trip count — cannot be scanned either: refuse
            // this task (skeleton fallback) instead of aborting or stalling.
            let n_orig = tables.try_count_union_distinct(&images, &[], &mut budget).ok()?;
            if n_orig == 0 {
                continue; // empty domain: nothing to prefetch for this class
            }
            for acc in &accs {
                if vertices[acc.nest].is_none() {
                    vertices[acc.nest] = Some(tables.try_vertex_records(&domains[acc.nest]).ok()?);
                }
            }
            let parts = accs.iter().zip(&images).map(|(acc, img)| {
                (vertices[acc.nest].as_ref().expect("enumerated above"), &img.map[..])
            });
            let points = tables.try_union_vertex_images(parts).ok()?;
            let hull = convex_hull(target_dims, &points);
            let (n_conv, nest) = tables.try_count_and_nest(&hull, &mut budget).ok()?;
            let nest = match nest {
                Some(n) if n.is_unit() => n,
                _ => {
                    // Fall back to the bounding box of the points, which
                    // always yields unit bounds; the profitability check
                    // still guards the over-approximation.
                    let bb = dae_poly::hull::bounding_box(Space::new(target_dims, 0), &points);
                    extract_loop_nest(&bb)?
                }
            };
            classes.push(Class { first: accs[0], n_orig, n_conv: n_conv.max(1), nest });
        }
        Some(())
    })?;
    if classes.is_empty() {
        return None;
    }

    // 3. profitability
    let n_orig = classes.iter().try_fold(0u64, |n, c| n.checked_add(c.n_orig))?;
    let n_conv = classes.iter().try_fold(0u64, |n, c| n.checked_add(c.n_conv))?;
    if !opts.skip_hull_check && n_conv as i128 - opts.hull_threshold as i128 > n_orig as i128 {
        return None;
    }

    // 4. merge classes with identical scanning nests
    let mut groups: Vec<(LoopNestSpec, Vec<usize>)> = Vec::new();
    for (i, c) in classes.iter().enumerate() {
        match groups.iter_mut().find(|(spec, _)| *spec == c.nest) {
            Some((_, members)) => members.push(i),
            None => groups.push((c.nest.clone(), vec![i])),
        }
    }

    // 5. codegen
    let mut b =
        FunctionBuilder::new(format!("{}__access", task.name), task.params.clone(), Type::Void);
    for (spec, members) in &groups {
        let line_step = if opts.line_dedup
            && members.iter().all(|&i| {
                let first = classes[i].first;
                first.subscripts.last().map(|s| s.stride_elems) == Some(1) && first.elem_bytes == 8
            }) {
            8
        } else {
            1
        };
        emit_nest(&mut b, spec, 0, &mut Vec::new(), &classes, members, line_step);
    }
    b.ret(None);
    // -O3-style clean-up including strength reduction: the scanning nests
    // become tight pointer-increment prefetch streams.
    let func = compact_in(ws, b.finish());
    let func = strength_reduce_and_clean_compacted(ws, func);

    let stats = AffineStats {
        n_orig,
        n_conv_un: n_conv,
        classes: classes.len(),
        nests: groups.len(),
        orig_depth: info.affine.iter().map(|a| info.nests[a.nest].loops.len()).max().unwrap_or(0),
        gen_depth: groups.iter().map(|(s, _)| s.depth()).max().unwrap_or(0),
    };
    Some(AffineResult { func, stats })
}

/// Evaluates a bound expression over already-emitted dim values and the
/// function's parameters.
fn emit_bound_expr(b: &mut FunctionBuilder, e: &LinExpr, dims: &[Value]) -> Value {
    let mut acc = Value::i64(e.const_term() as i64);
    for (d, v) in dims.iter().enumerate() {
        let c = e.dim_coeff(d);
        if c != 0 {
            let t = b.imul(*v, c as i64);
            acc = b.iadd(acc, t);
        }
    }
    for p in 0..e.space.params {
        let c = e.param_coeff(p);
        if c != 0 {
            let t = b.imul(Value::Arg(p as u32), c as i64);
            acc = b.iadd(acc, t);
        }
    }
    acc
}

/// Max of several lower bounds / min of several upper bounds via selects.
fn emit_bound(
    b: &mut FunctionBuilder,
    bounds: &[dae_poly::Bound],
    dims: &[Value],
    is_lower: bool,
) -> Value {
    let mut acc: Option<Value> = None;
    for bound in bounds {
        debug_assert_eq!(bound.coeff, 1, "caller guarantees unit bounds");
        let v = emit_bound_expr(b, &bound.expr, dims);
        acc = Some(match acc {
            None => v,
            Some(cur) => {
                let cond = if is_lower {
                    b.cmp(dae_ir::CmpOp::Gt, v, cur)
                } else {
                    b.cmp(dae_ir::CmpOp::Lt, v, cur)
                };
                b.select(cond, v, cur)
            }
        });
    }
    acc.expect("at least one bound")
}

/// Emits the scanning loops of `spec` from `depth` in, `dims` holding the
/// IVs of the loops already open (pushed and popped around each level).
fn emit_nest(
    b: &mut FunctionBuilder,
    spec: &LoopNestSpec,
    depth: usize,
    dims: &mut Vec<Value>,
    classes: &[Class],
    members: &[usize],
    line_step: i64,
) {
    if depth == spec.depth() {
        // innermost body: one prefetch per class
        for &ci in members {
            let c = classes[ci].first;
            let mut elems: Option<Value> = None;
            for (dim_v, s) in dims.iter().zip(&c.subscripts) {
                // subscript value = dim + Σ param_coeff·arg + const
                let mut sub = *dim_v;
                for (p, coeff) in s.param_coeffs.iter().enumerate() {
                    if *coeff != 0 {
                        let t = b.imul(Value::Arg(p as u32), *coeff);
                        sub = b.iadd(sub, t);
                    }
                }
                let term = b.imul(sub, s.stride_elems);
                elems = Some(match elems {
                    None => term,
                    Some(cur) => b.iadd(cur, term),
                });
            }
            let elems = elems.expect("at least one subscript");
            let bytes = b.imul(elems, c.elem_bytes);
            let addr = b.ptr_add(Value::Global(c.global), bytes);
            b.prefetch(addr);
        }
        return;
    }
    let d = &spec.dims[depth];
    let lo = emit_bound(b, &d.lowers, dims, true);
    let hi_incl = emit_bound(b, &d.uppers, dims, false);
    let hi = b.iadd(hi_incl, 1i64);
    let step = if depth + 1 == spec.depth() { line_step } else { 1 };
    b.counted_loop(lo, hi, Value::i64(step), |b, iv| {
        dims.push(iv);
        emit_nest(b, spec, depth + 1, dims, classes, members, line_step);
        dims.pop();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_info::analyze_task;
    use dae_ir::{verify_function, InstKind, Module};

    /// Counts prefetches executed by interpreting the generated function is
    /// not available here (dae-sim would be a dependency cycle); instead we
    /// check structure: loop depth and prefetch count.
    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        let mut n = 0;
        f.for_each_placed_inst(|_, i| {
            if pred(&f.inst(i).kind) {
                n += 1;
            }
        });
        n
    }

    fn lu_like(n: i64) -> (Module, Function) {
        // The Listing 1(a) kernel: 3-deep nest touching the whole matrix.
        let mut m = Module::new();
        let a = m.add_global("A", Type::F64, (n * n) as u64);
        let ga = Value::Global(a);
        let mut b = FunctionBuilder::new("lu", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::i64(n), Value::i64(1), |b, i| {
            let lo = b.iadd(i, 1i64);
            b.counted_loop(lo, Value::i64(n), Value::i64(1), |b, j| {
                let ji = {
                    let r = b.imul(j, n);
                    let x = b.iadd(r, i);
                    b.elem_addr(ga, x, Type::F64)
                };
                let ii = {
                    let r = b.imul(i, n);
                    let x = b.iadd(r, i);
                    b.elem_addr(ga, x, Type::F64)
                };
                let vji = b.load(Type::F64, ji);
                let vii = b.load(Type::F64, ii);
                let q = b.fdiv(vji, vii);
                b.store(ji, q);
                let lo2 = b.iadd(i, 1i64);
                b.counted_loop(lo2, Value::i64(n), Value::i64(1), |b, k| {
                    let jk = {
                        let r = b.imul(j, n);
                        let x = b.iadd(r, k);
                        b.elem_addr(ga, x, Type::F64)
                    };
                    let ik = {
                        let r = b.imul(i, n);
                        let x = b.iadd(r, k);
                        b.elem_addr(ga, x, Type::F64)
                    };
                    let vjk = b.load(Type::F64, jk);
                    let vji2 = b.load(Type::F64, ji);
                    let vik = b.load(Type::F64, ik);
                    let t = b.fmul(vji2, vik);
                    let s = b.fsub(vjk, t);
                    b.store(jk, s);
                });
            });
        });
        b.ret(None);
        (m, b.finish())
    }

    #[test]
    fn lu_gets_a_2deep_access_nest() {
        // The paper's headline example: a 3-deep loop nest whose accesses
        // cover the whole matrix is prefetched by a 2-deep nest. The
        // diagonal access A[i][i] delinearises to a separate stride-17
        // class (its own 1-D scan); the off-diagonal accesses form one 2-D
        // class whose hull is the matrix minus the (0,0) corner.
        let (_, f) = lu_like(16);
        let info = analyze_task(&mut Workspace::new(), &f);
        let opts = CompilerOptions { param_hints: vec![16], ..Default::default() };
        let r = generate_affine_access(&mut Workspace::new(), &f, &info, &opts)
            .expect("affine access generated");
        verify_function(&r.func, None).unwrap();
        assert_eq!(r.stats.orig_depth, 3);
        assert_eq!(r.stats.gen_depth, 2, "{}", dae_ir::print_function(&r.func, None));
        assert_eq!(r.stats.classes, 2);
        // 255 cells in the 2-D class (corner cut) + 15 diagonal cells
        // (A[i][i] sits inside the j-loop, whose domain excludes i = 15 —
        // the exact-set analysis at work).
        assert_eq!(r.stats.n_orig, 255 + 15);
        assert_eq!(r.stats.n_conv_un, 255 + 15, "hull adds nothing");
        assert_eq!(count_kind(&r.func, |k| matches!(k, InstKind::Prefetch { .. })), 2);
        assert_eq!(count_kind(&r.func, |k| matches!(k, InstKind::Store { .. })), 0);
        assert_eq!(count_kind(&r.func, |k| matches!(k, InstKind::Load { .. })), 0);
    }

    #[test]
    fn two_arrays_merge_into_one_nest() {
        // Listing 2: A[j][k] -= D[j][i] * A[i][k] under a full box domain.
        let n = 8i64;
        let mut m = Module::new();
        let a = m.add_global("A", Type::F64, (n * n) as u64);
        let d = m.add_global("D", Type::F64, (n * n) as u64);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(n), Value::i64(1), |b, i| {
            b.counted_loop(Value::i64(0), Value::i64(n), Value::i64(1), |b, j| {
                b.counted_loop(Value::i64(0), Value::i64(n), Value::i64(1), |b, k| {
                    let ajk = {
                        let r = b.imul(j, n);
                        let x = b.iadd(r, k);
                        b.elem_addr(Value::Global(a), x, Type::F64)
                    };
                    let dji = {
                        let r = b.imul(j, n);
                        let x = b.iadd(r, i);
                        b.elem_addr(Value::Global(d), x, Type::F64)
                    };
                    let aik = {
                        let r = b.imul(i, n);
                        let x = b.iadd(r, k);
                        b.elem_addr(Value::Global(a), x, Type::F64)
                    };
                    let v1 = b.load(Type::F64, ajk);
                    let v2 = b.load(Type::F64, dji);
                    let v3 = b.load(Type::F64, aik);
                    let t = b.fmul(v2, v3);
                    let s = b.fsub(v1, t);
                    b.store(ajk, s);
                });
            });
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        let opts = CompilerOptions { param_hints: vec![n], ..Default::default() };
        let r = generate_affine_access(&mut Workspace::new(), &f, &info, &opts).expect("generated");
        verify_function(&r.func, None).unwrap();
        assert_eq!(r.stats.classes, 2, "A and D form separate classes");
        assert_eq!(r.stats.nests, 1, "identical bounds merge into one nest");
        assert_eq!(count_kind(&r.func, |k| matches!(k, InstKind::Prefetch { .. })), 2);
        assert_eq!(r.stats.gen_depth, 2);
    }

    #[test]
    fn blocks_of_one_array_split_into_classes() {
        // Listing 3: A[Ax+j][Ay+k] … A[Dx+j][Dy+i] — same array, distinct
        // parameter offsets.
        let n = 64i64; // row stride
        let blk = 4i64;
        let mut m = Module::new();
        let a = m.add_global("A", Type::F64, (n * n) as u64);
        // params: Ax, Ay, Dx, Dy (block size fixed for simplicity)
        let mut b =
            FunctionBuilder::new("t", vec![Type::I64, Type::I64, Type::I64, Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
            b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, k| {
                let a1 = {
                    let row = b.iadd(Value::Arg(0), j);
                    let col = b.iadd(Value::Arg(1), k);
                    let r = b.imul(row, n);
                    let x = b.iadd(r, col);
                    b.elem_addr(Value::Global(a), x, Type::F64)
                };
                let a2 = {
                    let row = b.iadd(Value::Arg(2), j);
                    let col = b.iadd(Value::Arg(3), k);
                    let r = b.imul(row, n);
                    let x = b.iadd(r, col);
                    b.elem_addr(Value::Global(a), x, Type::F64)
                };
                let v1 = b.load(Type::F64, a1);
                let v2 = b.load(Type::F64, a2);
                let s = b.fadd(v1, v2);
                b.store(a1, s);
            });
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        let opts = CompilerOptions { param_hints: vec![0, 0, 32, 32], ..Default::default() };
        let r = generate_affine_access(&mut Workspace::new(), &f, &info, &opts).expect("generated");
        verify_function(&r.func, None).unwrap();
        assert_eq!(r.stats.classes, 2, "parameter-distinct blocks split");
        assert_eq!(r.stats.nests, 1, "equal-iteration nests merge");
        // Each class covers exactly the blk×blk block: no hull waste.
        assert_eq!(r.stats.n_orig, 2 * (blk * blk) as u64);
        assert_eq!(r.stats.n_conv_un, 2 * (blk * blk) as u64);
    }

    #[test]
    fn hull_check_rejects_wasteful_scan() {
        // Two far-apart constant-offset regions of one array: same class
        // (classes split on *parameters*, not constants, per §5.1), so the
        // convex hull spans the gap and NconvUn ≫ NOrig → refused.
        let mut m = Module::new();
        let a = m.add_global("A", Type::F64, 2048);
        let mut b = FunctionBuilder::new("gapped", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(16), Value::i64(1), |b, i| {
            let p1 = b.elem_addr(Value::Global(a), i, Type::F64);
            let _ = b.load(Type::F64, p1);
            let far = b.iadd(i, 1000i64);
            let p2 = b.elem_addr(Value::Global(a), far, Type::F64);
            let _ = b.load(Type::F64, p2);
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.affine.len(), 2);
        let opts = CompilerOptions { param_hints: vec![16], ..Default::default() };
        assert!(
            generate_affine_access(&mut Workspace::new(), &f, &info, &opts).is_none(),
            "hull spanning the [16, 1000) gap must fail NconvUn <= NOrig"
        );
        // …but with the check disabled (ablation) it generates.
        let opts2 =
            CompilerOptions { param_hints: vec![16], skip_hull_check: true, ..Default::default() };
        assert!(generate_affine_access(&mut Workspace::new(), &f, &info, &opts2).is_some());
        // …and a large enough threshold also admits it.
        let opts3 =
            CompilerOptions { param_hints: vec![16], hull_threshold: 2000, ..Default::default() };
        assert!(generate_affine_access(&mut Workspace::new(), &f, &info, &opts3).is_some());
    }

    #[test]
    fn extreme_hull_thresholds_compare_exactly() {
        // `NconvUn − th` with th near i64::MIN used to overflow i64 (a panic
        // in debug, a wrapped "profitable" in release); compared in i128
        // it is simply a very unprofitable hull. th near i64::MAX admits.
        let (_, f) = lu_like(16);
        let info = analyze_task(&mut Workspace::new(), &f);
        let with = |th| CompilerOptions {
            param_hints: vec![16],
            hull_threshold: th,
            ..Default::default()
        };
        assert!(generate_affine_access(&mut Workspace::new(), &f, &info, &with(i64::MIN)).is_none());
        assert!(generate_affine_access(&mut Workspace::new(), &f, &info, &with(i64::MAX)).is_some());
    }

    #[test]
    fn missing_param_hints_fall_back() {
        let (_, f) = lu_like(8);
        let info = analyze_task(&mut Workspace::new(), &f);
        let opts = CompilerOptions::default(); // no hints
        assert!(generate_affine_access(&mut Workspace::new(), &f, &info, &opts).is_none());
    }

    #[test]
    fn line_dedup_steps_by_line() {
        let (_, f) = lu_like(16);
        let info = analyze_task(&mut Workspace::new(), &f);
        let base = CompilerOptions { param_hints: vec![16], ..Default::default() };
        let dedup = CompilerOptions { line_dedup: true, ..base.clone() };
        let r1 = generate_affine_access(&mut Workspace::new(), &f, &info, &base).unwrap();
        let r2 = generate_affine_access(&mut Workspace::new(), &f, &info, &dedup).unwrap();
        let text1 = dae_ir::print_function(&r1.func, None);
        let text2 = dae_ir::print_function(&r2.func, None);
        assert!(text1.contains("iadd") && text2.contains("iadd"));
        assert_ne!(text1, text2, "line dedup must change the inner step");
    }
}
