//! Strength reduction: rewriting per-iteration multiplies into derived
//! induction variables.
//!
//! Address computations like `A[i·N + j]` naively cost an `imul` (and an
//! `iadd` and a `ptradd`) every iteration. Production compilers rewrite
//! these as *derived induction variables* that advance by a constant step —
//! which is precisely why the paper's access phases, "derived … after
//! applying traditional compiler optimizations to the original (execute)
//! code", are lean streams of prefetches. This pass provides that
//! capability for both execute and access phases:
//!
//! for every counted loop and every integer/pointer-typed instruction in its
//! body whose value is an **affine** function of the loop's IV (coefficient
//! `c`) and of loop-invariant terms, the instruction is replaced by a new
//! loop-carried block parameter initialised in the preheader and advanced
//! by `c·step` on the back edge.

use crate::loops::LoopId;
use crate::scev::{Affine, AffineVar};
use crate::Workspace;
use dae_ir::{BinOp, BlockId, Function, InstId, InstKind, Terminator, Type, Value};

/// One rewrite candidate discovered during analysis.
struct Candidate {
    inst: InstId,
    /// The instruction's affine form.
    affine: Affine,
    /// The loop whose IV we reduce over.
    lp: LoopId,
    /// Coefficient of that loop's IV.
    coeff: i64,
    /// `true` when the value is a pointer (PtrAdd from a global base).
    ptr_base: Option<dae_ir::GlobalId>,
}

/// A counted loop strength reduction can rewrite in: single entry, and an
/// initial IV value with an affine form.
struct LoopCtx {
    header: BlockId,
    /// The one predecessor of the header outside the loop.
    entry_pred: BlockId,
    /// The loop's latches are `StrengthScratch::latches[at..at + len]`.
    latches: (u32, u32),
    init_affine: Affine,
    step: i64,
}

/// The tables of strength reduction, kept by a [`Workspace`].
#[derive(Default)]
pub(crate) struct StrengthScratch {
    /// Indexed by loop id: the context of each loop rewrites can go in.
    loops: Vec<Option<LoopCtx>>,
    /// Indexed by loop id: the IV value (the recognised header parameter)
    /// of every counted loop.
    iv_values: Vec<Option<Value>>,
    latches: Vec<BlockId>,
    candidates: Vec<Candidate>,
    /// Indexed by instruction id: the derived IV its uses move to.
    redirect: Vec<Option<Value>>,
}

/// Emits IR computing `affine` evaluated with the given IV substitution
/// available: every [`AffineVar::Iv`] must be resolvable through
/// `iv_values` (indexed by loop id), every parameter through `Value::Arg`.
fn emit_affine(
    func: &mut Function,
    block: BlockId,
    affine: &Affine,
    iv_values: &[Option<Value>],
) -> Option<Value> {
    let mut acc = Value::i64(affine.constant);
    let mut acc_is_const = true;
    let add_term =
        |func: &mut Function, acc: &mut Value, acc_is_const: &mut bool, v: Value, c: i64| {
            let scaled = if c == 1 {
                v
            } else {
                let m = func.create_inst(
                    InstKind::Binary { op: BinOp::IMul, lhs: v, rhs: Value::i64(c) },
                    Type::I64,
                );
                func.append_inst(block, m);
                Value::Inst(m)
            };
            if *acc_is_const && acc.as_i64() == Some(0) {
                *acc = scaled;
            } else {
                let a = func.create_inst(
                    InstKind::Binary { op: BinOp::IAdd, lhs: *acc, rhs: scaled },
                    Type::I64,
                );
                func.append_inst(block, a);
                *acc = Value::Inst(a);
            }
            *acc_is_const = false;
        };
    for var in affine.vars() {
        let c = affine.coeff(var);
        match var {
            AffineVar::Param(p) => add_term(func, &mut acc, &mut acc_is_const, Value::Arg(p), c),
            AffineVar::Iv(l) => {
                let v = iv_values.get(l.0 as usize).copied().flatten()?;
                add_term(func, &mut acc, &mut acc_is_const, v, c)
            }
        }
    }
    Some(acc)
}

/// Runs strength reduction on `func`. Returns `true` on change.
///
/// Only instructions directly computing an `imul`, or a `ptradd` whose
/// offset contains a multiply, are rewritten — pure adds are already cheap.
///
/// Each rewritten instruction's uses move to its derived induction
/// variable. The redirects are recorded in a table indexed by instruction
/// id and applied in one operand rewrite once every candidate is placed: a
/// replacement is always a fresh block parameter, never another candidate,
/// so the order they apply in does not matter.
pub fn strength_reduce(func: &mut Function) -> bool {
    Workspace::with(|ws| strength_reduce_in(ws, func))
}

/// [`strength_reduce`] on the buffers of `ws`.
fn strength_reduce_in(ws: &mut Workspace, func: &mut Function) -> bool {
    let mut redirect = std::mem::take(&mut ws.strength.redirect);
    redirect.clear();
    let changed = reduce_loops(ws, func, |func, inst, dv| {
        if redirect.is_empty() {
            redirect.resize(func.num_insts(), None);
        }
        redirect[inst.0 as usize] = Some(dv);
    });
    if changed {
        super::map_all_operands(func, |v| match v {
            Value::Inst(i) => redirect.get(i.0 as usize).copied().flatten().unwrap_or(v),
            other => other,
        });
    }
    ws.strength.redirect = redirect;
    changed
}

/// The body of [`strength_reduce`]: places every candidate's derived
/// induction variable and hands `redirect` each `(instruction, derived IV)`
/// whose uses must move.
pub(crate) fn reduce_loops(
    ws: &mut Workspace,
    func: &mut Function,
    mut redirect: impl FnMut(&mut Function, InstId, Value),
) -> bool {
    // Nothing to rewrite without a multiply or a global-based ptradd, and
    // nowhere to rewrite it without a cycle (which needs an edge into a
    // block of no higher id): decide both before paying for dominators, the
    // loop forest and scalar evolution.
    let mut rewritable = false;
    func.for_each_placed_inst(|_, inst| {
        rewritable |= matches!(
            func.inst(inst).kind,
            InstKind::Binary { op: BinOp::IMul, .. }
                | InstKind::PtrAdd { base: Value::Global(_), .. }
        );
    });
    let retreats = |bb: BlockId| func.terminator(bb).successors().any(|d| d.block.0 <= bb.0);
    if !rewritable || !func.block_ids().any(retreats) {
        return false;
    }

    // Analysis snapshot (invalidated by our edits; we gather all candidates
    // first, then rewrite).
    let mut scratch = std::mem::take(&mut ws.strength);
    let found = find_candidates(ws, func, &mut scratch);
    let changed = found && rewrite(func, &scratch, &mut redirect);
    ws.strength = scratch;
    changed
}

/// Fills `s` with the loops rewrites can go in and the candidates in
/// them; `false` when there is none.
fn find_candidates(ws: &mut Workspace, func: &Function, s: &mut StrengthScratch) -> bool {
    let analysis = ws.analyze(func);
    let mut scev = ws.scev(&analysis);

    // Counted-loop info per loop (header, init value, step), and the IV
    // value of every counted loop = its recognised header parameter.
    let n_loops = analysis.forest.len();
    s.loops.clear();
    s.loops.resize_with(n_loops, || None);
    s.iv_values.clear();
    s.iv_values.resize(n_loops, None);
    s.latches.clear();
    s.candidates.clear();
    let mut reducible = 0;
    for (id, l) in analysis.forest.loops() {
        let Some(c) = scev.counted(id) else { continue };
        let (iv, init, step) = (c.iv, c.init, c.step);
        s.iv_values[id.0 as usize] = Some(iv);
        let Some(init_affine) = scev.affine_of(init) else { continue };
        let mut entry_preds =
            analysis.cfg.preds(l.header).iter().copied().filter(|p| !l.latches.contains(p));
        let (Some(entry_pred), None) = (entry_preds.next(), entry_preds.next()) else {
            continue; // keep it simple: single-entry loops only
        };
        let at = s.latches.len() as u32;
        s.latches.extend_from_slice(&l.latches);
        s.loops[id.0 as usize] = Some(LoopCtx {
            header: l.header,
            entry_pred,
            latches: (at, l.latches.len() as u32),
            init_affine,
            step,
        });
        reducible += 1;
    }

    // Candidates: multiplies (or global-based ptradds with a multiply in the
    // offset) inside a counted loop whose value is affine with a non-zero
    // IV coefficient for that loop.
    if reducible > 0 {
        for bb in func.block_ids() {
            let Some(lp) = analysis.forest.innermost(bb) else { continue };
            if s.loops[lp.0 as usize].is_none() {
                continue;
            }
            for &inst in &func.block(bb).insts {
                let (is_mul, ptr_base) = match &func.inst(inst).kind {
                    InstKind::Binary { op: BinOp::IMul, .. } => (true, None),
                    InstKind::PtrAdd { base: Value::Global(g), offset } => {
                        // only worth it if the offset chain contains a multiply
                        let has_mul = matches!(
                            offset,
                            Value::Inst(o) if matches!(func.inst(*o).kind, InstKind::Binary { op: BinOp::IMul, .. } | InstKind::Binary { op: BinOp::IAdd, .. })
                        );
                        (has_mul, Some(*g))
                    }
                    _ => (false, None),
                };
                if !is_mul {
                    continue;
                }
                let affine = if ptr_base.is_some() {
                    match scev.pointer_of(Value::Inst(inst)) {
                        Some(p) => p.offset,
                        None => continue,
                    }
                } else {
                    match scev.affine_of(Value::Inst(inst)) {
                        Some(a) => a,
                        None => continue,
                    }
                };
                let coeff = affine.coeff(AffineVar::Iv(lp));
                if coeff == 0 {
                    continue;
                }
                // Every *other* IV in the form must belong to an enclosing loop
                // (so its header param is in scope at the preheader).
                let nest = std::iter::successors(Some(lp), |&l| analysis.forest.get(l).parent);
                if !affine.vars().all(|v| match v {
                    AffineVar::Iv(l) => nest.clone().any(|n| n == l),
                    AffineVar::Param(_) => true,
                }) {
                    continue;
                }
                s.candidates.push(Candidate { inst, affine, lp, coeff, ptr_base });
            }
        }
    }
    ws.reclaim_scev(scev);
    ws.reclaim(analysis);
    !s.candidates.is_empty()
}

/// Places the derived induction variable of every candidate in `s`.
fn rewrite(
    func: &mut Function,
    s: &StrengthScratch,
    redirect: &mut impl FnMut(&mut Function, InstId, Value),
) -> bool {
    let mut changed = false;
    for cand in &s.candidates {
        let ctx = s.loops[cand.lp.0 as usize].as_ref().expect("candidates sit in reducible loops");

        // Entry value: the affine form with this loop's IV replaced by its
        // init expression, emitted in the (unique) entry predecessor.
        let init_sub = cand.affine.substitute(AffineVar::Iv(cand.lp), &ctx.init_affine);
        let pred = ctx.entry_pred;
        let Some(entry_int) = emit_affine(func, pred, &init_sub, &s.iv_values) else { continue };
        let (param_ty, entry_val) = match cand.ptr_base {
            Some(g) => {
                let p = func.create_inst(
                    InstKind::PtrAdd { base: Value::Global(g), offset: entry_int },
                    Type::Ptr,
                );
                func.append_inst(pred, p);
                (Type::Ptr, Value::Inst(p))
            }
            None => (Type::I64, entry_int),
        };

        // New derived-IV block parameter.
        let dv = func.add_block_param(ctx.header, param_ty);

        // Entry edge argument.
        match func.terminator_mut(pred) {
            Terminator::Jump(d) if d.block == ctx.header => d.args.push(entry_val),
            Terminator::Branch { then_dest, else_dest, .. } => {
                if then_dest.block == ctx.header {
                    then_dest.args.push(entry_val);
                }
                if else_dest.block == ctx.header {
                    else_dest.args.push(entry_val);
                }
            }
            _ => continue,
        }

        // Back-edge arguments: dv + coeff·step.
        let delta = cand.coeff * ctx.step;
        let (at, len) = (ctx.latches.0 as usize, ctx.latches.1 as usize);
        for &latch in &s.latches[at..at + len] {
            let next = match param_ty {
                Type::Ptr => func.create_inst(
                    InstKind::PtrAdd { base: dv, offset: Value::i64(delta) },
                    Type::Ptr,
                ),
                _ => func.create_inst(
                    InstKind::Binary { op: BinOp::IAdd, lhs: dv, rhs: Value::i64(delta) },
                    Type::I64,
                ),
            };
            func.append_inst(latch, next);
            match func.terminator_mut(latch) {
                Terminator::Jump(d) if d.block == ctx.header => d.args.push(Value::Inst(next)),
                Terminator::Branch { then_dest, else_dest, .. } => {
                    if then_dest.block == ctx.header {
                        then_dest.args.push(Value::Inst(next));
                    }
                    if else_dest.block == ctx.header {
                        else_dest.args.push(Value::Inst(next));
                    }
                }
                _ => {}
            }
        }

        // All uses of the original instruction move to the derived IV.
        redirect(func, cand.inst, dv);
        changed = true;
    }
    changed
}

/// Convenience: strength reduction followed by the standard clean-up
/// pipeline (drops the now-dead multiplies).
pub fn strength_reduce_and_clean(func: &Function) -> Function {
    Workspace::with(|ws| {
        let f = super::compact_in(ws, func.clone());
        strength_reduce_and_clean_compacted(ws, f)
    })
}

/// [`strength_reduce_and_clean`] on the buffers of `ws`, of a function the
/// caller gives up and has already compacted — the output of
/// [`compact`](super::compact) or [`optimize`](super::optimize) — so no
/// copy is compacted again.
pub fn strength_reduce_and_clean_compacted(ws: &mut Workspace, mut f: Function) -> Function {
    // One round is enough for the patterns the builder generates; a second
    // round catches derived IVs exposed by the first.
    let mut settled = false; // `f` is the output of `optimize`, untouched since
    for _ in 0..2 {
        let insts = f.num_insts();
        let reduced = strength_reduce_in(ws, &mut f);
        // A candidate abandoned half-way leaves dead arithmetic behind even
        // when the round reports no change.
        settled &= f.num_insts() == insts;
        if !reduced {
            break;
        }
        f = super::optimize_in(ws, f);
        settled = true;
    }
    // `optimize` is idempotent: nothing is left to do on its own output.
    if settled {
        f
    } else {
        super::optimize_in(ws, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_function, FunctionBuilder};

    fn count_muls(f: &Function) -> usize {
        let mut n = 0;
        f.for_each_placed_inst(|_, i| {
            n += matches!(f.inst(i).kind, InstKind::Binary { op: BinOp::IMul, .. }) as usize;
        });
        n
    }

    #[test]
    fn removes_mul_from_streaming_loop() {
        let mut m = dae_ir::Module::new();
        let g = m.add_global("a", Type::F64, 1024);
        let mut b = FunctionBuilder::new("s", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(g), i, Type::F64);
            let v = b.load(Type::F64, addr);
            let w = b.fadd(v, 1.0f64);
            b.store(addr, w);
        });
        b.ret(None);
        let f = b.finish();
        assert_eq!(count_muls(&f), 1);
        let out = strength_reduce_and_clean(&f);
        verify_function(&out, None).unwrap();
        assert_eq!(count_muls(&out), 0, "{}", dae_ir::print_function(&out, None));
    }

    #[test]
    fn semantics_preserved_in_interpreterless_check() {
        // Structural check: loop still there, stores still there, derived
        // pointer parameter present.
        let mut m = dae_ir::Module::new();
        let g = m.add_global("a", Type::F64, 64);
        let mut b = FunctionBuilder::new("s", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(g), i, Type::F64);
            b.store(addr, 1.5f64);
        });
        b.ret(None);
        let out = strength_reduce_and_clean(&b.finish());
        verify_function(&out, None).unwrap();
        let mut stores = 0;
        out.for_each_placed_inst(|_, i| {
            stores += matches!(out.inst(i).kind, InstKind::Store { .. }) as usize;
        });
        assert_eq!(stores, 1);
        let header_has_ptr_param =
            out.block_ids().any(|bb| out.block(bb).params.contains(&Type::Ptr));
        assert!(header_has_ptr_param, "{}", dae_ir::print_function(&out, None));
    }

    #[test]
    fn nested_row_major_reduces_both_levels() {
        let n = 64i64;
        let mut m = dae_ir::Module::new();
        let g = m.add_global("a", Type::F64, (n * n) as u64);
        let mut b = FunctionBuilder::new("mm", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, j| {
                let r = b.imul(i, n);
                let idx = b.iadd(r, j);
                let addr = b.elem_addr(Value::Global(g), idx, Type::F64);
                let v = b.load(Type::F64, addr);
                let w = b.fmul(v, 2.0f64);
                b.store(addr, w);
            });
        });
        b.ret(None);
        let out = strength_reduce_and_clean(&b.finish());
        verify_function(&out, None).unwrap();
        // The inner loop body should be mul-free (the row mul moves to the
        // outer loop or becomes a derived IV).
        let mut ws = Workspace::new();
        let analysis = ws.analyze(&out);
        let inner = analysis
            .forest
            .loops()
            .find(|(_, l)| l.depth == 2)
            .map(|(_, l)| l.blocks.clone())
            .expect("inner loop");
        let mut inner_muls = 0;
        for bb in inner.iter() {
            for &i in &out.block(bb).insts {
                inner_muls +=
                    matches!(out.inst(i).kind, InstKind::Binary { op: BinOp::IMul, .. }) as usize;
            }
        }
        assert_eq!(inner_muls, 0, "{}", dae_ir::print_function(&out, None));
    }

    #[test]
    fn non_counted_loops_untouched() {
        let mut b = FunctionBuilder::new("w", vec![Type::I64], Type::I64);
        let out = b.while_loop(
            vec![Value::Arg(0)],
            |b, c| b.cmp(dae_ir::CmpOp::Gt, c[0], 0i64),
            |b, c| {
                let h = b.imul(c[0], 3i64);
                let r = b.irem(h, 7i64);
                vec![b.isub(r, 1i64)]
            },
        );
        b.ret(Some(out[0]));
        let f = b.finish();
        let before = dae_ir::print_function(&f, None);
        let g = strength_reduce_and_clean(&f);
        // The multiply is of a non-affine chaotic value: unchanged count.
        assert_eq!(
            count_muls(&g),
            1,
            "before:\n{before}\nafter:\n{}",
            dae_ir::print_function(&g, None)
        );
    }
}
