//! Extraction of affine access descriptors from a task.
//!
//! Bridges `dae-analysis` scalar evolution and `dae-poly`: every load whose
//! address is an affine function of counted-loop induction variables and
//! task parameters becomes an [`AffineAccess`] — an iteration-domain
//! polyhedron plus a delinearised subscript map — ready for the §5.1 convex
//! union analysis.

use dae_analysis::scev::{Affine, AffineVar};
use dae_analysis::{CountedLoop, FunctionAnalysis, LoopId, ScalarEvolution, Workspace};
use dae_ir::{CmpOp, Function, GlobalId, InstKind, Value};
use dae_poly::{AffineImage, LinExpr, Polyhedron, Space};
use std::rc::Rc;

/// One subscript dimension of a delinearised access.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SubScript {
    /// Multiplier of this subscript in the linearised element offset.
    pub stride_elems: i64,
    /// Induction-variable-and-constant part, as a polyhedral expression over
    /// the access's iteration-domain dims (no parameters).
    pub residual: LinExpr,
    /// Parameter part in element units (the class signature of §5.1
    /// trade-off 3: accesses with equal parameter coefficients share a
    /// class). Constants stay in `residual` so that constant-offset accesses
    /// (stencils, disjoint regions) participate in the hull computation.
    pub param_coeffs: Vec<i64>,
}

/// One loop nest of a task's affine accesses: built once however many
/// loads it encloses, and shared by their images.
#[derive(Debug)]
pub(crate) struct LoopNest {
    /// The counted loops, outermost first.
    pub loops: Vec<LoopId>,
    /// Iteration domain: dims = the loops' IVs (in order), params = task
    /// args.
    pub domain: Polyhedron,
    /// The IV substitutions of `build_domain`, `subst[d]` for the IV of
    /// `loops[d]`.
    subst: Vec<Affine>,
}

/// A fully-analysed affine memory access.
#[derive(Clone, Debug)]
pub(crate) struct AffineAccess {
    /// The array accessed.
    pub global: GlobalId,
    /// Element size in bytes used for delinearisation (8, or 1 when the
    /// offset is not element-aligned).
    pub elem_bytes: i64,
    /// The enclosing loop nest: an index into [`TaskAccessInfo::nests`].
    pub nest: usize,
    /// Delinearised subscripts, largest stride first.
    pub subscripts: Vec<SubScript>,
}

impl AffineAccess {
    /// Whether `self` and `other` share an access class (§5.1): the same
    /// array, and per subscript the same stride and parameter parts —
    /// compared in place.
    pub(crate) fn same_class(&self, other: &AffineAccess) -> bool {
        self.global == other.global
            && self.subscripts.len() == other.subscripts.len()
            && self
                .subscripts
                .iter()
                .zip(&other.subscripts)
                .all(|(a, b)| a.stride_elems == b.stride_elems && a.param_coeffs == b.param_coeffs)
    }

    /// The cells this access touches within its class, over `domain` — its
    /// nest's iteration domain with the parameters substituted — mapped
    /// through the subscripts' residuals (the parameter parts are the class
    /// signature and stay symbolic).
    pub(crate) fn image(&self, domain: &Rc<Polyhedron>) -> AffineImage {
        AffineImage::new(
            Rc::clone(domain),
            self.subscripts.iter().map(|s| s.residual.clone()).collect(),
        )
    }
}

/// Table 1's counts for one task: what [`GeneratedAccess`] and
/// [`DaeMap::info_of`] report, and what the driver's cache stores.
///
/// [`GeneratedAccess`]: crate::GeneratedAccess
/// [`DaeMap::info_of`]: crate::DaeMap::info_of
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Total loads encountered.
    pub total_loads: usize,
    /// Loads that could not be described (indirect, non-counted loops, …).
    pub non_affine_loads: usize,
    /// Loops in the task, total.
    pub loops_total: usize,
    /// Loops in which every contained load is affine (the paper's
    /// "# affine loops" of Table 1).
    pub loops_affine: usize,
    /// True when the task has a branch that is not the exit test of a
    /// counted loop — data-dependent control flow, which the polyhedral
    /// model cannot represent (non-SCoP).
    pub has_data_dependent_cf: bool,
}

impl AccessCounts {
    /// True when the whole task is analysable by the polyhedral path: every
    /// load affine and every branch a counted-loop exit test (static
    /// control flow).
    pub(crate) fn fully_affine(&self) -> bool {
        self.total_loads > 0 && self.non_affine_loads == 0 && !self.has_data_dependent_cf
    }
}

/// Result of scanning one task for affine accesses.
#[derive(Debug, Default)]
pub(crate) struct TaskAccessInfo {
    /// Loads with a complete affine description (read by the §5.1
    /// generator only).
    pub affine: Vec<AffineAccess>,
    /// The loop nests the accesses of `affine` index.
    pub nests: Vec<LoopNest>,
    /// The task's Table 1 counts.
    pub counts: AccessCounts,
}

/// The dim of `lp` in a loop nest: its position, outermost first.
fn dim_of(nest: &[LoopId], lp: LoopId) -> Option<usize> {
    nest.iter().position(|&l| l == lp)
}

/// Converts a scalar-evolution [`Affine`] into a polyhedral [`LinExpr`] over
/// `space`, mapping the IV of `nest[d]` to dim `d` and `Param(i)` to
/// parameter `i`. Returns `None` when the expression uses an IV outside the
/// nest or a coefficient overflows the polyhedral range.
fn to_linexpr(space: Space, nest: &[LoopId], a: &Affine) -> Option<LinExpr> {
    let mut e = LinExpr::constant(space, a.constant as i128);
    for (v, c) in a.terms() {
        let col = match v {
            AffineVar::Iv(lp) => space.dim_col(dim_of(nest, lp)?),
            AffineVar::Param(p) => {
                if (p as usize) >= space.params {
                    return None;
                }
                space.param_col(p as usize)
            }
        };
        e.coeffs[col] += c as i128;
    }
    Some(e)
}

/// Applies the simultaneous IV-normalisation substitution to an affine
/// expression: every original IV is replaced by `init + step·k` where `k`
/// is the zero-based normalised counter of its loop. `subst[d]` is the
/// substitution of the IV of `nest[d]`; an IV without one fails.
fn normalize_affine(a: &Affine, nest: &[LoopId], subst: &[Affine]) -> Option<Affine> {
    let mut out = Affine::constant(a.constant);
    for (v, c) in a.terms() {
        out = match v {
            AffineVar::Param(_) => out.add_term(v, c),
            AffineVar::Iv(l) => out.add_scaled(c, subst.get(dim_of(nest, l)?)?),
        };
    }
    Some(out)
}

/// Builds the iteration-domain polyhedron of a loop nest.
///
/// IVs whose initial value involves **parameters** (the chunked-task
/// pattern `for i in base .. base+B`) are *normalised*: the dim becomes the
/// zero-based counter `k` with `iv = init + step·k`, so the parametric
/// offset migrates into the access subscripts (the class parameter part of
/// §5.1, trade-off 3). IVs with parameter-free inits (constant or
/// triangular bounds) keep their natural coordinates. Parametric *trip
/// counts* remain as parameter terms in the domain and are rejected by the
/// caller — the skeleton path handles them.
///
/// Returns the domain plus the IV substitutions, `subst[d]` for the IV of
/// `nest[d]`.
fn build_domain(
    space: Space,
    nest: &[LoopId],
    scev: &mut ScalarEvolution<'_>,
) -> Option<(Polyhedron, Vec<Affine>)> {
    let mut dom = Polyhedron::universe(space);
    let mut subst: Vec<Affine> = Vec::with_capacity(nest.len());
    for (k, lp) in nest.iter().enumerate() {
        let counted: CountedLoop = scev.counted(*lp)?.clone();
        if counted.step.abs() != 1 {
            return None;
        }
        let init = normalize_affine(&scev.affine_of(counted.init)?, nest, &subst)?;
        let bound = normalize_affine(&scev.affine_of(counted.bound)?, nest, &subst)?;
        let init_has_params = init.vars().any(|v| matches!(v, AffineVar::Param(_)));

        let init_e = to_linexpr(space, nest, &init)?;
        let bound_e = to_linexpr(space, nest, &bound)?;
        // Bounds may only reference outer dims.
        for d in k..space.dims {
            if init_e.dim_coeff(d) != 0 || bound_e.dim_coeff(d) != 0 {
                return None;
            }
        }
        let dim_v = LinExpr::dim(space, k);
        if init_has_params {
            // Normalise: iv = init + step·k, 0 <= k < trip count.
            subst.push(init.add_term(AffineVar::Iv(*lp), counted.step));
            dom.add_ge0(dim_v.clone()); // k >= 0
            let diff = if counted.step == 1 { bound_e - &init_e } else { init_e - &bound_e };
            match (counted.step, counted.cmp) {
                (1, CmpOp::Lt) | (1, CmpOp::Ne) | (-1, CmpOp::Gt) | (-1, CmpOp::Ne) => {
                    dom.add_ge0((diff - &dim_v).add_const(-1));
                }
                (1, CmpOp::Le) | (-1, CmpOp::Ge) => {
                    dom.add_ge0(diff - &dim_v);
                }
                _ => return None,
            }
        } else {
            // Natural coordinates: the dim is the IV itself.
            subst.push(Affine::var(AffineVar::Iv(*lp)));
            if counted.step == 1 {
                dom.add_ge0(dim_v.clone() - &init_e); // iv >= init
                match counted.cmp {
                    CmpOp::Lt | CmpOp::Ne => dom.add_ge0((bound_e - &dim_v).add_const(-1)),
                    CmpOp::Le => dom.add_ge0(bound_e - &dim_v),
                    _ => return None,
                }
            } else {
                dom.add_ge0(init_e - &dim_v); // iv <= init
                match counted.cmp {
                    CmpOp::Gt | CmpOp::Ne => dom.add_ge0((dim_v - &bound_e).add_const(-1)),
                    CmpOp::Ge => dom.add_ge0(dim_v - &bound_e),
                    _ => return None,
                }
            }
        }
    }
    Some((dom, subst))
}

/// Delinearises an element-space affine offset into stride-ordered
/// subscripts. Falls back to a single 1-D subscript (the §5.1.1
/// memory-range behaviour) when parameter terms don't divide cleanly.
fn delinearize(space: Space, offset_elems: &Affine, n_params: usize) -> Vec<SubScript> {
    // Distinct |coeff| of IV terms, descending.
    let mut strides: Vec<i64> = offset_elems
        .vars()
        .filter(|v| matches!(v, AffineVar::Iv(_)))
        .map(|v| offset_elems.coeff(v).abs())
        .filter(|&c| c != 0)
        .collect();
    strides.sort_unstable_by(|a, b| b.cmp(a));
    strides.dedup();
    if strides.is_empty() {
        strides.push(1);
    }

    // Partition terms by stride.
    let mut subs: Vec<SubScript> = strides
        .iter()
        .map(|&s| SubScript {
            stride_elems: s,
            residual: LinExpr::zero(Space::new(space.dims, 0)),
            param_coeffs: vec![0; n_params],
        })
        .collect();

    let mut fallback = false;
    for v in offset_elems.vars() {
        let c = offset_elems.coeff(v);
        match v {
            AffineVar::Iv(_) => { /* handled by caller, which knows dim mapping */ }
            AffineVar::Param(p) => {
                // Largest stride dividing the coefficient.
                match strides.iter().position(|&s| c % s == 0) {
                    Some(k) => subs[k].param_coeffs[p as usize] += c / strides[k],
                    None => fallback = true,
                }
            }
        }
    }
    // Constant: greedy decomposition into the residuals, largest stride
    // first (constants live in hull space, not in the class signature).
    let mut rem = offset_elems.constant;
    for (k, &s) in strides.iter().enumerate() {
        let q = if k + 1 == strides.len() { rem / s } else { rem.div_euclid(s) };
        let old = subs[k].residual.const_term();
        subs[k].residual = subs[k].residual.clone().with_const(old + q as i128);
        rem -= q * s;
    }
    if rem != 0 {
        fallback = true;
    }

    if fallback {
        // Single 1-D subscript covering the whole expression.
        let mut s = SubScript {
            stride_elems: 1,
            residual: LinExpr::constant(Space::new(space.dims, 0), offset_elems.constant as i128),
            param_coeffs: vec![0; n_params],
        };
        for v in offset_elems.vars() {
            if let AffineVar::Param(p) = v {
                s.param_coeffs[p as usize] = offset_elems.coeff(v);
            }
        }
        return vec![s];
    }
    subs
}

/// Scans `task` and produces its [`TaskAccessInfo`].
pub(crate) fn analyze_task(ws: &mut Workspace, task: &Function) -> TaskAccessInfo {
    let analysis = ws.analyze(task);
    let mut scev = ws.scev(&analysis);
    let forest = &analysis.forest;
    let mut affine = Vec::new();
    let mut counts = AccessCounts { loops_total: forest.len(), ..Default::default() };
    // Per innermost loop (slot 0: outside every loop), once built: the
    // index of its nest in `nests`, or `None` when it has no domain.
    let mut nests = Vec::new();
    let mut nest_of_loop: Vec<Option<Option<usize>>> = vec![None; forest.len() + 1];

    // Track per-loop affineness, indexed by loop id: a loop counts as
    // affine if all loads in it (transitively) are affine.
    let mut loop_has_nonaffine = vec![false; forest.len()];
    let mut mark_nest = |bb: dae_ir::BlockId| {
        let mut cur = forest.innermost(bb);
        while let Some(lp) = cur {
            loop_has_nonaffine[lp.0 as usize] = true;
            cur = forest.get(lp).parent;
        }
    };

    task.for_each_placed_inst(|bb, inst| {
        let InstKind::Load { addr } = task.inst(inst).kind else { return };
        counts.total_loads += 1;
        let slot = forest.innermost(bb).map_or(0, |lp| lp.0 as usize + 1);
        let nest = &mut nest_of_loop[slot];
        match describe_load(task, &analysis, &mut scev, (nest, &mut nests), bb, addr) {
            Some(acc) => affine.push(acc),
            None => {
                counts.non_affine_loads += 1;
                mark_nest(bb);
            }
        }
    });

    // Static-control-flow check: every conditional branch must be the exit
    // test of a recognised counted loop.
    for bb in task.block_ids() {
        if !analysis.cfg.is_reachable(bb) {
            continue;
        }
        if matches!(task.terminator(bb), dae_ir::Terminator::Branch { .. }) {
            let is_counted_header =
                forest.loop_with_header(bb).map(|lp| scev.counted(lp).is_some()).unwrap_or(false);
            if !is_counted_header {
                counts.has_data_dependent_cf = true;
                // Loops containing the irregular branch are not affine.
                mark_nest(bb);
            }
        }
    }

    counts.loops_affine = forest
        .loops()
        .filter(|(id, _)| !loop_has_nonaffine[id.0 as usize] && scev.counted(*id).is_some())
        .count();
    ws.reclaim_scev(scev);
    ws.reclaim(analysis);
    TaskAccessInfo { affine, nests, counts }
}

/// The loop nest around `bb` as an index into `nests`, built there (with
/// its iteration domain) unless it is already; `None` when the nest has no
/// domain the polyhedral path can scan.
fn loop_nest(
    task: &Function,
    analysis: &FunctionAnalysis<'_>,
    scev: &mut ScalarEvolution<'_>,
    bb: dae_ir::BlockId,
    nests: &mut Vec<LoopNest>,
) -> Option<usize> {
    let loops = analysis.forest.nest_of(bb);
    let n_params = task.params.len();
    let (domain, subst) = build_domain(Space::new(loops.len(), n_params), &loops, scev)?;
    // Parametric trip counts cannot be scanned by a concretely-hulled nest:
    // leave those to the skeleton path.
    if domain.constraints().iter().any(|c| (0..n_params).any(|p| c.expr.param_coeff(p) != 0)) {
        return None;
    }
    nests.push(LoopNest { loops, domain, subst });
    Some(nests.len() - 1)
}

/// Describes the load of `addr` in `bb`. `nest` is the memo of `bb`'s loop
/// nest (see [`loop_nest`]), `nests` the nests built so far.
fn describe_load(
    task: &Function,
    analysis: &FunctionAnalysis<'_>,
    scev: &mut ScalarEvolution<'_>,
    (nest, nests): (&mut Option<Option<usize>>, &mut Vec<LoopNest>),
    bb: dae_ir::BlockId,
    addr: Value,
) -> Option<AffineAccess> {
    let ptr = scev.pointer_of(addr)?;
    let index = match *nest {
        Some(built) => built?,
        None => (*nest.insert(loop_nest(task, analysis, scev, bb, nests)))?,
    };
    let (loops, subst) = (&nests[index].loops[..], &nests[index].subst[..]);
    let n_params = task.params.len();
    let space = Space::new(loops.len(), n_params);

    // Every IV in the offset must belong to the enclosing nest.
    for v in ptr.offset.vars() {
        if let AffineVar::Iv(lp) = v {
            dim_of(loops, lp)?;
        }
    }

    // Rewrite the byte offset onto the normalised counters.
    let ptr_offset = normalize_affine(&ptr.offset, loops, subst)?;

    // Bytes → elements.
    let elem: i64 = 8;
    let divisible = ptr_offset.constant % elem == 0
        && ptr_offset.vars().all(|v| ptr_offset.coeff(v) % elem == 0);
    let (elem_bytes, offset_elems) = if divisible {
        let mut o = Affine::constant(ptr_offset.constant / elem);
        for (v, c) in ptr_offset.terms() {
            o = o.add_term(v, c / elem);
        }
        (elem, o)
    } else {
        (1, ptr_offset.clone())
    };

    let mut subscripts = delinearize(space, &offset_elems, n_params);
    // Fill the residual (IV) parts now that the dim mapping is known.
    let res_space = Space::new(space.dims, 0);
    for v in offset_elems.vars() {
        if let AffineVar::Iv(lp) = v {
            let c = offset_elems.coeff(v);
            let d = dim_of(loops, lp).expect("checked above");
            // Find the subscript whose stride divides this coefficient
            // exactly (by construction |c| is one of the strides, unless we
            // fell back to 1-D).
            let k = subscripts
                .iter()
                .position(|s| {
                    c % s.stride_elems == 0
                        && (c / s.stride_elems).abs() >= 1
                        && s.stride_elems == c.abs()
                })
                .or_else(|| subscripts.iter().position(|s| c % s.stride_elems == 0))?;
            let stride = subscripts[k].stride_elems;
            subscripts[k].residual.coeffs[res_space.dim_col(d)] += (c / stride) as i128;
        }
    }

    Some(AffineAccess { global: ptr.base, elem_bytes, nest: index, subscripts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Module, Type};

    /// Builds the paper's Listing 1(b) LU block loop nest over an N×N
    /// matrix (constant trip counts, as in the block-sized task setting).
    fn lu_task(n: i64) -> (Module, Function) {
        let mut m = Module::new();
        let a = m.add_global("A", Type::F64, (n * n) as u64);
        let mut b = FunctionBuilder::new("lu", vec![Type::I64], Type::Void);
        b.set_task();
        let ga = Value::Global(a);
        b.counted_loop(Value::i64(0), Value::i64(n), Value::i64(1), |b, i| {
            let lo = b.iadd(i, 1i64);
            b.counted_loop(lo, Value::i64(n), Value::i64(1), |b, j| {
                // A[j][i] /= A[i][i]
                let ji = {
                    let r = b.imul(j, n);
                    let idx = b.iadd(r, i);
                    b.elem_addr(ga, idx, Type::F64)
                };
                let ii = {
                    let r = b.imul(i, n);
                    let idx = b.iadd(r, i);
                    b.elem_addr(ga, idx, Type::F64)
                };
                let vji = b.load(Type::F64, ji);
                let vii = b.load(Type::F64, ii);
                let q = b.fdiv(vji, vii);
                b.store(ji, q);
                let lo2 = b.iadd(i, 1i64);
                b.counted_loop(lo2, Value::i64(n), Value::i64(1), |b, k| {
                    // A[j][k] -= A[j][i] * A[i][k]
                    let jk = {
                        let r = b.imul(j, n);
                        let idx = b.iadd(r, k);
                        b.elem_addr(ga, idx, Type::F64)
                    };
                    let ik = {
                        let r = b.imul(i, n);
                        let idx = b.iadd(r, k);
                        b.elem_addr(ga, idx, Type::F64)
                    };
                    let vjk = b.load(Type::F64, jk);
                    let vji2 = b.load(Type::F64, ji);
                    let vik = b.load(Type::F64, ik);
                    let p = b.fmul(vji2, vik);
                    let d = b.fsub(vjk, p);
                    b.store(jk, d);
                });
            });
        });
        b.ret(None);
        (m, b.finish())
    }

    #[test]
    fn lu_is_fully_affine() {
        let (_, f) = lu_task(16);
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.counts.total_loads, 5);
        assert_eq!(info.counts.non_affine_loads, 0);
        assert!(info.counts.fully_affine());
        assert_eq!(info.counts.loops_total, 3);
        assert_eq!(info.counts.loops_affine, 3);
    }

    #[test]
    fn lu_access_shapes() {
        let (_, f) = lu_task(16);
        let info = analyze_task(&mut Workspace::new(), &f);
        // A[i][i] delinearises to one subscript of stride N+1 = 17 with
        // residual i (offset = 17·i elements).
        let diag = info
            .affine
            .iter()
            .find(|a| a.subscripts.len() == 1 && a.subscripts[0].stride_elems == 17)
            .expect("A[i][i] found");
        assert_eq!(diag.subscripts[0].residual.dim_coeff(0), 1);
        // An off-diagonal access like A[j][i] keeps the (16, 1) shape.
        let off = info
            .affine
            .iter()
            .find(|a| a.subscripts.len() == 2)
            .expect("off-diagonal access found");
        assert_eq!(off.subscripts[0].stride_elems, 16);
        assert_eq!(off.subscripts[1].stride_elems, 1);
        // Domain of the innermost accesses has 3 dims.
        let deepest = info.affine.iter().map(|a| info.nests[a.nest].loops.len()).max().unwrap();
        assert_eq!(deepest, 3);
    }

    #[test]
    fn domain_counts_triangle() {
        let (_, f) = lu_task(8);
        let info = analyze_task(&mut Workspace::new(), &f);
        // A 2-level access (A[j][i] in the j-loop): the normalised domain is
        // the triangle {0<=i<8, 0<=k<7-i} — 28 points.
        let two_level = info
            .affine
            .iter()
            .find(|a| info.nests[a.nest].loops.len() == 2)
            .expect("2-level access");
        let dom = info.nests[two_level.nest].domain.instantiate_params(&[0]);
        assert_eq!(dom.count_integer_points(), 28);
    }

    #[test]
    fn indirect_access_is_rejected() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 64);
        let idx = m.add_global("idx", Type::I64, 64);
        let mut b = FunctionBuilder::new("gather", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
            let ia = b.elem_addr(Value::Global(idx), i, Type::I64);
            let iv = b.load(Type::I64, ia);
            let aa = b.elem_addr(Value::Global(a), iv, Type::F64);
            let _ = b.load(Type::F64, aa);
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.counts.total_loads, 2);
        assert_eq!(info.counts.non_affine_loads, 1); // a[idx[i]] rejected
        assert_eq!(info.affine.len(), 1); // idx[i] itself is affine
        assert!(!info.counts.fully_affine());
        assert_eq!(info.counts.loops_affine, 0, "loop contains a non-affine load");
    }

    #[test]
    fn parameter_offsets_form_classes() {
        // A[Ax + i] and A[Dx + i] — Listing 3's two classes.
        let mut m = Module::new();
        let a = m.add_global("A", Type::F64, 4096);
        let mut b =
            FunctionBuilder::new("blocks", vec![Type::I64, Type::I64, Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(32), Value::i64(1), |b, i| {
            let i1 = b.iadd(Value::Arg(1), i);
            let p1 = b.elem_addr(Value::Global(a), i1, Type::F64);
            let _ = b.load(Type::F64, p1);
            let i2 = b.iadd(Value::Arg(2), i);
            let p2 = b.elem_addr(Value::Global(a), i2, Type::F64);
            let _ = b.load(Type::F64, p2);
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.affine.len(), 2);
        assert!(
            !info.affine[0].same_class(&info.affine[1]),
            "different parameter offsets must split classes"
        );
        assert!(info.affine[0].same_class(&info.affine[0]));
    }

    #[test]
    fn parametric_init_normalises_into_param_part() {
        // for i in arg0 .. arg0+64 { touch a[i] } — the quickstart pattern:
        // the chunk offset must land in the subscript's parameter part, and
        // the normalised domain must be concrete.
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 1 << 16);
        let mut b = FunctionBuilder::new("chunked", vec![Type::I64], Type::Void);
        let hi = b.iadd(Value::Arg(0), 64i64);
        b.counted_loop(Value::Arg(0), hi, Value::i64(1), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            let _ = b.load(Type::F64, p);
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.affine.len(), 1, "{info:?}");
        let acc = &info.affine[0];
        assert_eq!(acc.subscripts.len(), 1);
        assert_eq!(acc.subscripts[0].param_coeffs, vec![1], "offset in param part");
        let dom = info.nests[acc.nest].domain.instantiate_params(&[0]);
        assert_eq!(dom.count_integer_points(), 64);
    }

    #[test]
    fn parametric_trip_count_is_rejected() {
        // for i in 0..n { touch a[i] } — a parametric trip count cannot be
        // scanned by a concretely-hulled nest; the skeleton path takes over.
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 1 << 16);
        let mut b = FunctionBuilder::new("pn", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            let _ = b.load(Type::F64, p);
        });
        b.ret(None);
        let f = b.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.affine.len(), 0);
        assert_eq!(info.counts.non_affine_loads, 1);
    }

    #[test]
    fn descending_loop_domain() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 64);
        let mut bld = FunctionBuilder::new("down", vec![], Type::Void);
        let header = bld.create_block();
        let body = bld.create_block();
        let exit = bld.create_block();
        let iv = bld.block_param(header, Type::I64);
        bld.jump(header, vec![Value::i64(9)]);
        bld.switch_to(header);
        let c = bld.cmp(CmpOp::Ge, iv, 0i64);
        bld.branch(c, body, vec![], exit, vec![]);
        bld.switch_to(body);
        let addr = bld.elem_addr(Value::Global(a), iv, Type::F64);
        let _ = bld.load(Type::F64, addr);
        let next = bld.isub(iv, 1i64);
        bld.jump(header, vec![next]);
        bld.switch_to(exit);
        bld.ret(None);
        let f = bld.finish();
        let info = analyze_task(&mut Workspace::new(), &f);
        assert_eq!(info.affine.len(), 1);
        let dom = info.nests[info.affine[0].nest].domain.instantiate_params(&[]);
        assert_eq!(dom.count_integer_points(), 10);
    }
}
