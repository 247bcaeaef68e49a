//! The §5.2 skeleton access generator for non-affine codes.
//!
//! The algorithm of §5.2.2, step by step:
//!
//! 1. **Inline** all calls; refuse the task if any call is non-inlinable.
//!    [`crate::generate_access`] does this once per task and hands the
//!    inlined body over.
//! 2. **Clone** the task (all SSA state is thereby privatised): the
//!    inlined body is already a private copy, which this path takes over.
//! 3. **Simplified CFG** (§5.2.2): conditionals embedded in loop bodies that
//!    do not maintain the loop's control flow are eliminated — the branch is
//!    replaced by its fall-through edge, so only reads guaranteed to execute
//!    remain, "reducing unnecessary prefetching".
//! 4. **Mark**: every remaining load is *accompanied* (not replaced) by a
//!    prefetch of its address; duplicate prefetches of the same SSA address
//!    are emitted once.
//! 5. **Discard stores** — the paper found write prefetching useless, and
//!    removing stores lets DCE erase the computation that fed them.
//! 6. **DCE + `-O3` cleanup** removes everything not needed for prefetch
//!    addresses or loop control flow.
//! 7. **Safety**: refuse if the access version's control flow would consume
//!    memory the original task writes (the write-visibility condition).

use crate::options::{CompilerOptions, RefuseReason};
use dae_analysis::effects;
use dae_analysis::transform::{compact_in, optimize_in, strength_reduce_and_clean_compacted};
use dae_analysis::Workspace;
use dae_ir::{BlockId, Function, InstId, InstKind, Terminator, Type, Value};

/// Runs the §5.2 pipeline (steps 2–7) on `inlined`, a task with every
/// call already inlined, in a module of `globals` globals.
///
/// Nothing here needs dense ids, so the body is compacted only by the
/// cleanup: the analyses and the prefetch insertion skip the blocks the
/// entry does not reach, and the cleanup drops them.
///
/// # Errors
///
/// Refuses per the paper's safety conditions; see [`RefuseReason`].
pub(crate) fn generate_skeleton_access(
    ws: &mut Workspace,
    inlined: Function,
    globals: usize,
    opts: &CompilerOptions,
) -> Result<Function, RefuseReason> {
    // Side effects of the *original* task, for the step-7 safety check.
    let original_effects = effects::summarize(ws, &inlined);

    // 2. a private clone
    let mut f = inlined;
    f.name.push_str("__access");
    f.is_task = false;

    // 3. simplified CFG
    if opts.cfg_simplify {
        simplify_in_loop_conditionals(ws, &mut f);
    }

    // 4–5. prefetch insertion + store discarding
    insert_prefetches(ws, &mut f, globals, opts.prefetch_writes);
    if !opts.prefetch_writes {
        remove_stores(&mut f);
    }

    // 6. cleanup (-O3 part one: fold, DCE, merge)
    let f = optimize_in(ws, f);

    // 7. safety: control flow must not consume task-written memory. Checked
    // before strength reduction, whose derived pointer IVs would hide the
    // load bases from the base-tracing analysis.
    if control_depends_on_writes(ws, &f, globals, &original_effects) {
        return Err(RefuseReason::ControlDependsOnTaskWrites);
    }

    // Profile-guided line dedup (measured prefetch accuracy said the
    // element-granular streams are redundant): re-step eligible prefetch
    // loops to one touch per cache line before strength reduction.
    // The re-stepped function is compacted again; `optimize`'s output
    // already is.
    let f = if opts.line_dedup {
        let restepped = crate::dedup::restep_prefetch_loops(ws, &f);
        compact_in(ws, restepped)
    } else {
        f
    };

    // -O3 part two: strength-reduce the surviving address streams.
    let f = strength_reduce_and_clean_compacted(ws, f);

    let mut prefetches = 0;
    f.for_each_placed_inst(|_, i| {
        prefetches += matches!(f.inst(i).kind, InstKind::Prefetch { .. }) as usize;
    });
    if prefetches == 0 {
        return Err(RefuseReason::NothingToPrefetch);
    }
    Ok(f)
}

/// §5.2.2: rewrites conditional branches whose both targets stay inside the
/// same loop into unconditional jumps, eliminating data-dependent control
/// flow while preserving loop control. The false edge is taken (for
/// builder-generated `if-then` diamonds that is the skip edge).
fn simplify_in_loop_conditionals(ws: &mut Workspace, f: &mut Function) {
    let analysis = ws.analyze(f);
    let mut rewrites: Vec<(BlockId, Terminator)> = Vec::new();
    for bb in f.block_ids() {
        if !analysis.cfg.is_reachable(bb) {
            continue;
        }
        let lp = match analysis.forest.innermost(bb) {
            Some(l) => l,
            None => continue, // conditionals outside loops are kept
        };
        let blocks = &analysis.forest.get(lp).blocks;
        if let Terminator::Branch { then_dest, else_dest, .. } = f.terminator(bb) {
            let both_inside = blocks.contains(then_dest.block) && blocks.contains(else_dest.block);
            // The loop header's own test and any branch with an exit edge
            // maintain the loop's control flow — keep those.
            let is_header = analysis.forest.get(lp).header == bb;
            if both_inside && !is_header {
                rewrites.push((bb, Terminator::Jump(else_dest.clone())));
            }
        }
    }
    ws.reclaim(analysis);
    for (bb, term) in rewrites {
        f.set_terminator(bb, term);
    }
}

/// A set of one function's values, in tables indexed by id: instruction
/// results, block parameters (a block's from its slot in `param_at`),
/// arguments and the module's globals. Constants — never an address, and
/// skipped by the control slice — are never members, nor is a global the
/// module does not declare.
struct ValueSet {
    insts: Vec<bool>,
    param_at: Vec<u32>,
    params: Vec<bool>,
    args: Vec<bool>,
    globals: Vec<bool>,
}

impl ValueSet {
    /// The empty set over the values of `f`, in a module of `globals`
    /// globals.
    fn new(f: &Function, globals: usize) -> ValueSet {
        let mut param_at = Vec::with_capacity(f.num_blocks() + 1);
        let mut slots = 0;
        for bb in f.block_ids() {
            param_at.push(slots);
            slots += f.block(bb).params.len() as u32;
        }
        param_at.push(slots);
        ValueSet {
            insts: vec![false; f.num_insts()],
            param_at,
            params: vec![false; slots as usize],
            args: vec![false; f.params.len()],
            globals: vec![false; globals],
        }
    }

    /// Adds `v`; `false` when it was a member already.
    fn insert(&mut self, v: Value) -> bool {
        let slot = match v {
            Value::Inst(id) => self.insts.get_mut(id.0 as usize),
            Value::BlockParam { block, index } => {
                let b = block.0 as usize;
                let at = self.param_at[b] + index;
                (at < self.param_at[b + 1]).then(|| &mut self.params[at as usize])
            }
            Value::Arg(i) => self.args.get_mut(i as usize),
            Value::Global(g) => self.globals.get_mut(g.0 as usize),
            Value::ConstI64(_) | Value::ConstF64(_) | Value::ConstBool(_) => None,
        };
        slot.is_none_or(|slot| !std::mem::replace(slot, true))
    }
}

/// Accompanies every load (and optionally store) with a prefetch of its
/// address, deduplicated per SSA address value: the first load of an
/// address in reverse postorder gets the prefetch, as in the block order
/// of the compacted function. Unreachable blocks get none.
fn insert_prefetches(ws: &mut Workspace, f: &mut Function, globals: usize, prefetch_writes: bool) {
    let mut seen = ValueSet::new(f, globals);
    // Each block's new list is built in the list the previous block gave up.
    let mut new_list: Vec<InstId> = Vec::new();
    for &bb in ws.cfg(f).rpo() {
        let insts = std::mem::take(&mut f.block_mut(bb).insts);
        new_list.clear();
        for &inst in &insts {
            new_list.push(inst);
            let addr = match &f.inst(inst).kind {
                InstKind::Load { addr } => Some(*addr),
                InstKind::Store { addr, .. } if prefetch_writes => Some(*addr),
                _ => None,
            };
            if let Some(addr) = addr {
                if seen.insert(addr) {
                    let p = f.create_inst(InstKind::Prefetch { addr }, Type::Void);
                    new_list.push(p);
                }
            }
        }
        f.block_mut(bb).insts = std::mem::replace(&mut new_list, insts);
    }
}

/// Drops every store instruction.
fn remove_stores(f: &mut Function) {
    for bb in f.block_ids() {
        let mut insts = std::mem::take(&mut f.block_mut(bb).insts);
        insts.retain(|&i| !matches!(f.inst(i).kind, InstKind::Store { .. }));
        f.block_mut(bb).insts = insts;
    }
}

/// True when any branch condition of `f` (transitively) consumes a load of
/// memory the original task writes.
fn control_depends_on_writes(
    ws: &mut Workspace,
    f: &Function,
    globals: usize,
    orig: &effects::EffectSummary,
) -> bool {
    let bases = ws.bases(f);
    // Backward slice from every branch condition.
    let mut work: Vec<Value> = Vec::new();
    for bb in f.block_ids() {
        if let Terminator::Branch { cond, .. } = f.terminator(bb) {
            work.push(*cond);
        }
    }
    let mut visited = ValueSet::new(f, globals);
    while let Some(v) = work.pop() {
        if v.is_const() || !visited.insert(v) {
            continue;
        }
        match v {
            Value::Inst(id) => {
                if let InstKind::Load { addr } = &f.inst(id).kind {
                    match bases.of(*addr) {
                        Some(g) => {
                            if orig.writes_globals.contains(&g) {
                                return true;
                            }
                        }
                        None => {
                            // Untraceable base: conservative when the task
                            // writes anything at all.
                            if !orig.is_read_only() {
                                return true;
                            }
                        }
                    }
                }
                f.inst(id).kind.for_each_operand(|o| work.push(o));
            }
            Value::BlockParam { block, index } => {
                // Follow every incoming edge argument.
                for pred in f.block_ids() {
                    if f.block(pred).term.is_none() {
                        continue;
                    }
                    for dest in f.terminator(pred).successors() {
                        if dest.block == block {
                            if let Some(a) = dest.args.get(index as usize) {
                                work.push(*a);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_function, CmpOp, FuncId, FunctionBuilder, Module};

    /// The skeleton of `task`, from the body `generate_access` inlines.
    fn skeleton(
        m: &Module,
        task: FuncId,
        opts: &CompilerOptions,
    ) -> Result<Function, RefuseReason> {
        let inlined = crate::generate::inline_task(m, task)?;
        generate_skeleton_access(&mut Workspace::new(), inlined, m.num_globals(), opts)
    }

    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        let mut n = 0;
        f.for_each_placed_inst(|_, i| {
            if pred(&f.inst(i).kind) {
                n += 1;
            }
        });
        n
    }

    /// An indirect gather: x[col[j]] — the CG pattern.
    fn gather_module() -> (Module, FuncId) {
        let mut m = Module::new();
        let x = m.add_global("x", Type::F64, 256);
        let col = m.add_global("col", Type::I64, 256);
        let y = m.add_global("y", Type::F64, 256);
        let mut b = FunctionBuilder::new("gather", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, j| {
            let ca = b.elem_addr(Value::Global(col), j, Type::I64);
            let c = b.load(Type::I64, ca);
            let xa = b.elem_addr(Value::Global(x), c, Type::F64);
            let v = b.load(Type::F64, xa);
            let ya = b.elem_addr(Value::Global(y), j, Type::F64);
            let old = b.load(Type::F64, ya);
            let s = b.fadd(old, v);
            b.store(ya, s);
        });
        b.ret(None);
        let id = m.add_function(b.finish());
        (m, id)
    }

    #[test]
    fn gather_skeleton_keeps_index_load_drops_data_math() {
        let (m, task) = gather_module();
        let f = skeleton(&m, task, &CompilerOptions::default()).expect("generated");
        verify_function(&f, None).unwrap();
        // The col[j] load survives (feeds the x address); its prefetch and
        // the x/y prefetches exist; the fadd and store are gone.
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Prefetch { .. })), 3);
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Store { .. })), 0);
        assert!(count_kind(&f, |k| matches!(k, InstKind::Load { .. })) >= 1);
        assert_eq!(
            count_kind(&f, |k| matches!(k, InstKind::Binary { op, .. } if op.is_float())),
            0,
            "float compute must be sliced away:\n{}",
            dae_ir::print_function(&f, None)
        );
    }

    #[test]
    fn conditional_loads_are_discarded() {
        // for i { if (data[i] > 0) { touch extra[i] } } — the conditional
        // body's load must vanish under cfg_simplify.
        let mut m = Module::new();
        let data = m.add_global("data", Type::F64, 128);
        let extra = m.add_global("extra", Type::F64, 128);
        let out = m.add_global("out", Type::F64, 128);
        let mut b = FunctionBuilder::new("cond", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let da = b.elem_addr(Value::Global(data), i, Type::F64);
            let d = b.load(Type::F64, da);
            let c = b.cmp(CmpOp::Gt, d, 0.0f64);
            b.if_then(c, |b| {
                let ea = b.elem_addr(Value::Global(extra), i, Type::F64);
                let e = b.load(Type::F64, ea);
                let oa = b.elem_addr(Value::Global(out), i, Type::F64);
                b.store(oa, e);
            });
        });
        b.ret(None);
        let task = m.add_function(b.finish());

        let f = skeleton(&m, task, &CompilerOptions::default()).unwrap();
        verify_function(&f, None).unwrap();
        let text = dae_ir::print_function(&f, None);
        // Only data[i] is prefetched; the conditional extra[i] is gone.
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Prefetch { .. })), 1, "{text}");

        // Without cfg_simplify the conditional structure (and both
        // prefetches) survive.
        let keep = CompilerOptions { cfg_simplify: false, ..Default::default() };
        let f2 = skeleton(&m, task, &keep).unwrap();
        assert_eq!(count_kind(&f2, |k| matches!(k, InstKind::Prefetch { .. })), 2);
    }

    #[test]
    fn calls_are_inlined_into_the_skeleton() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 64);
        let mut helper = FunctionBuilder::new("helper", vec![Type::I64], Type::F64);
        let addr = helper.elem_addr(Value::Global(a), Value::Arg(0), Type::F64);
        let v = helper.load(Type::F64, addr);
        helper.ret(Some(v));
        let h = m.add_function(helper.finish());
        let mut b = FunctionBuilder::new("caller", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let _ = b.call(h, vec![i], Type::F64);
        });
        b.ret(None);
        let task = m.add_function(b.finish());

        let f = skeleton(&m, task, &CompilerOptions::default()).unwrap();
        verify_function(&f, None).unwrap();
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Call { .. })), 0);
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Prefetch { .. })), 1);
    }

    #[test]
    fn recursion_is_refused() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("r", vec![], Type::Void);
        b.call(FuncId(0), vec![], Type::Void);
        b.ret(None);
        let r = m.add_function(b.finish());
        let e = skeleton(&m, r, &CompilerOptions::default()).unwrap_err();
        assert!(matches!(e, RefuseReason::NonInlinableCall(_)));
    }

    #[test]
    fn pure_compute_task_is_refused() {
        let mut m = Module::new();
        let g = m.add_global("out", Type::F64, 1);
        let mut b = FunctionBuilder::new("compute", vec![Type::I64], Type::Void);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::f64(1.0)],
            |b, _, c| vec![b.fmul(c[0], 1.0001f64)],
        );
        let p = b.ptr_add(Value::Global(g), 0i64);
        b.store(p, out[0]);
        b.ret(None);
        let task = m.add_function(b.finish());
        let e = skeleton(&m, task, &CompilerOptions::default()).unwrap_err();
        assert_eq!(e, RefuseReason::NothingToPrefetch);
    }

    #[test]
    fn control_dependent_on_task_writes_is_refused() {
        // while (flag[0] != 0) { ... ; store flag[0] } — loop control reads
        // memory the task writes.
        let mut m = Module::new();
        let flag = m.add_global("flag", Type::I64, 1);
        let data = m.add_global("data", Type::F64, 64);
        let mut b = FunctionBuilder::new("converge", vec![], Type::Void);
        b.set_task();
        b.while_loop(
            vec![Value::i64(0)],
            |b, c| {
                let fa = b.ptr_add(Value::Global(flag), 0i64);
                let fv = b.load(Type::I64, fa);
                let _ = c;
                b.cmp(CmpOp::Ne, fv, 0i64)
            },
            |b, c| {
                let da = b.elem_addr(Value::Global(data), c[0], Type::F64);
                let _ = b.load(Type::F64, da);
                let fa = b.ptr_add(Value::Global(flag), 0i64);
                b.store(fa, 0i64);
                vec![b.iadd(c[0], 1i64)]
            },
        );
        b.ret(None);
        let task = m.add_function(b.finish());
        let e = skeleton(&m, task, &CompilerOptions::default()).unwrap_err();
        assert_eq!(e, RefuseReason::ControlDependsOnTaskWrites);
    }

    #[test]
    fn pointer_chase_skeleton_is_generated() {
        // Read-only pointer chase: control depends on loaded pointers, but
        // the task writes nothing, so generation is allowed.
        let mut m = Module::new();
        let _nodes = m.add_global("nodes", Type::I64, 1024);
        let mut b = FunctionBuilder::new("chase", vec![Type::Ptr, Type::I64], Type::I64);
        b.set_task();
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(1),
            Value::i64(1),
            vec![Value::Arg(0), Value::i64(0)],
            |b, _, c| {
                let next = b.load(Type::Ptr, c[0]);
                let va = b.ptr_add(c[0], 8i64);
                let v = b.load(Type::I64, va);
                let acc = b.iadd(c[1], v);
                vec![next, acc]
            },
        );
        b.ret(Some(out[1]));
        let task = m.add_function(b.finish());
        let f = skeleton(&m, task, &CompilerOptions::default()).unwrap();
        verify_function(&f, None).unwrap();
        // Both loads prefetched; the `next` load itself must survive (it
        // feeds the address chain).
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Prefetch { .. })), 2);
        assert!(count_kind(&f, |k| matches!(k, InstKind::Load { .. })) >= 1);
    }

    #[test]
    fn duplicate_addresses_prefetched_once() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 64);
        let mut b = FunctionBuilder::new("dup", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(a), i, Type::F64);
            let v1 = b.load(Type::F64, addr);
            let v2 = b.load(Type::F64, addr); // same SSA address
            let s = b.fadd(v1, v2);
            let o = b.elem_addr(Value::Global(a), i, Type::F64);
            b.store(o, s);
        });
        b.ret(None);
        let task = m.add_function(b.finish());
        let f = skeleton(&m, task, &CompilerOptions::default()).unwrap();
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Prefetch { .. })), 1);
    }
}
