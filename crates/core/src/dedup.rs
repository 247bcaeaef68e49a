//! Line-granularity re-stepping of skeleton prefetch loops — what the
//! profile-guided `line_dedup` knob does on the §5.2 (non-affine) path.
//!
//! The affine generator steps its synthesised prefetch nests a cache
//! line at a time natively ([`crate::affine`]); a skeleton access
//! version instead inherits the task's own loops, which touch every
//! *element* and therefore prefetch each 64-byte line up to eight times.
//! Measured prefetch accuracy exposes that redundancy, and because an
//! access version has no architectural side effects (stores are
//! discarded, results unused), thinning its prefetch stream can never
//! change program semantics — only how much issue bandwidth the access
//! phase burns at `fmin`.
//!
//! [`restep_prefetch_loops`] multiplies the step of eligible innermost
//! counted loops by `64 / max prefetch byte-stride`, so each surviving
//! iteration still touches every line the original touched. A loop is
//! eligible only when the re-step provably cannot hurt coverage or leak:
//!
//! * recognised counted loop, single latch, IV its only header
//!   parameter, and an order-safe continue predicate (`lt`/`le`/`gt`/
//!   `ge` — overshooting an `ne` bound would spin);
//! * body free of loads, stores and calls — an index load (the CG
//!   gather pattern) means skipped iterations would skip *useful*
//!   prefetch addresses, so such loops are left at element granularity;
//! * every prefetch address has a scalar-evolution form whose stride in
//!   this loop is known, with the largest stride dividing the line;
//! * nothing defined in the loop is consumed outside it (the trip count
//!   changes, so live-outs would observe different values).

use dae_analysis::{AffineVar, BlockSet, FunctionAnalysis, Workspace};
use dae_ir::{BinOp, BlockId, CmpOp, Function, InstKind, Terminator, Value};

/// Cache line size the re-step targets, in bytes.
const LINE_BYTES: i64 = 64;

/// One planned loop rewrite: replace the latch's IV increment.
struct Restep {
    latch: BlockId,
    iv: Value,
    iv_arg_index: usize,
    new_step: i64,
}

/// Returns `func` with every eligible innermost prefetch loop re-stepped
/// to line granularity. Ineligible loops (and functions with none) come
/// back byte-identical.
pub(crate) fn restep_prefetch_loops(ws: &mut Workspace, func: &Function) -> Function {
    let plans = plan_resteps(ws, func);
    if plans.is_empty() {
        return func.clone();
    }
    let mut f = func.clone();
    for p in plans {
        let inc = f.create_inst(
            InstKind::Binary { op: BinOp::IAdd, lhs: p.iv, rhs: Value::i64(p.new_step) },
            dae_ir::Type::I64,
        );
        f.append_inst(p.latch, inc);
        if let Terminator::Jump(dest) = f.terminator(p.latch).clone() {
            let mut dest = dest;
            dest.args[p.iv_arg_index] = Value::Inst(inc);
            f.set_terminator(p.latch, Terminator::Jump(dest));
        }
    }
    f
}

fn plan_resteps(ws: &mut Workspace, func: &Function) -> Vec<Restep> {
    let analysis = ws.analyze(func);
    let mut scev = ws.scev(&analysis);
    let mut plans = Vec::new();

    for (lp, l) in analysis.forest.loops() {
        if !l.children.is_empty() || l.latches.len() != 1 {
            continue;
        }
        let counted = match scev.counted(lp) {
            Some(c) => c.clone(),
            None => continue,
        };
        if counted.step == 0
            || !matches!(counted.cmp, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
            || func.block(l.header).params.len() != 1
        {
            continue;
        }
        let latch = l.latches[0];

        // Body scan: refuse memory/calls, collect prefetch addresses in
        // deterministic block order.
        let mut prefetches: Vec<Value> = Vec::new();
        let mut eligible = true;
        for bb in l.blocks.iter() {
            for &inst in &func.block(bb).insts {
                match &func.inst(inst).kind {
                    InstKind::Load { .. } | InstKind::Store { .. } | InstKind::Call { .. } => {
                        eligible = false;
                    }
                    InstKind::Prefetch { addr } => prefetches.push(*addr),
                    _ => {}
                }
            }
        }
        if !eligible || prefetches.is_empty() {
            continue;
        }

        // Every prefetch stride in this loop must be known; the largest
        // bounds the re-step factor so no line goes untouched.
        let mut max_stride: i64 = 0;
        for &addr in &prefetches {
            match scev.pointer_of(addr) {
                Some(ptr) => {
                    let d = ptr.offset.coeff(AffineVar::Iv(lp)).abs();
                    max_stride = max_stride.max(d);
                }
                None => {
                    eligible = false;
                    break;
                }
            }
        }
        if !eligible || max_stride == 0 {
            continue;
        }
        let k = LINE_BYTES / max_stride;
        if k < 2 {
            continue;
        }
        let new_step = match counted.step.checked_mul(k) {
            Some(s) => s,
            None => continue,
        };

        if loop_values_escape(func, &analysis, &l.blocks) {
            continue;
        }

        // The latch must pass `iv + step` straight back to the header.
        let arg = match func.terminator(latch) {
            Terminator::Jump(dest) if dest.block == l.header => {
                dest.args.get(counted.iv_index as usize).copied()
            }
            _ => None,
        };
        let add_is_increment = |v: Value| match v {
            Value::Inst(id) => match &func.inst(id).kind {
                InstKind::Binary { op: BinOp::IAdd, lhs, rhs } => {
                    (*lhs == counted.iv && *rhs == Value::i64(counted.step))
                        || (*rhs == counted.iv && *lhs == Value::i64(counted.step))
                }
                _ => false,
            },
            _ => false,
        };
        if !arg.is_some_and(add_is_increment) {
            continue;
        }

        plans.push(Restep {
            latch,
            iv: counted.iv,
            iv_arg_index: counted.iv_index as usize,
            new_step,
        });
    }
    ws.reclaim_scev(scev);
    ws.reclaim(analysis);
    plans
}

/// True when any value defined inside the loop (an instruction placed in
/// a loop block, or a loop block's parameter) is consumed outside it —
/// including by edge arguments leaving the loop.
fn loop_values_escape(func: &Function, analysis: &FunctionAnalysis<'_>, blocks: &BlockSet) -> bool {
    let defined_inside = |v: Value| match v {
        Value::Inst(id) => {
            let mut home = None;
            func.for_each_placed_inst(|bb, i| {
                if i == id {
                    home = Some(bb);
                }
            });
            home.is_some_and(|bb| blocks.contains(bb))
        }
        Value::BlockParam { block, .. } => blocks.contains(block),
        _ => false,
    };

    let mut escapes = false;
    for bb in func.block_ids() {
        if !analysis.cfg.is_reachable(bb) || func.block(bb).term.is_none() {
            continue;
        }
        if blocks.contains(bb) {
            // Edges leaving the loop must not carry loop-defined values.
            for dest in func.terminator(bb).successors() {
                if !blocks.contains(dest.block) {
                    escapes = escapes || dest.args.iter().any(|&a| defined_inside(a));
                }
            }
        } else {
            for &inst in &func.block(bb).insts {
                func.inst(inst).kind.for_each_operand(|o| {
                    escapes = escapes || defined_inside(o);
                });
            }
            func.terminator(bb).for_each_operand(|o| {
                escapes = escapes || defined_inside(o);
            });
        }
    }
    escapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{print_function, verify_function, FunctionBuilder, Type, Value};

    /// `for i in 0..n { prefetch &a[i] }` over f64 (8-byte stride).
    fn prefetch_loop(stride_elems: i64) -> Function {
        let mut b = FunctionBuilder::new("acc", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let scaled = b.imul(i, stride_elems);
            let off = b.imul(scaled, 8i64);
            let addr = b.ptr_add(Value::Global(dae_ir::GlobalId(0)), off);
            b.prefetch(addr);
        });
        b.ret(None);
        b.finish()
    }

    fn latch_step(f: &Function) -> Option<i64> {
        // The largest IAdd constant anywhere: the (only) loop's step.
        let mut step = None;
        f.for_each_placed_inst(|_, i| {
            if let InstKind::Binary { op: BinOp::IAdd, rhs: Value::ConstI64(c), .. } =
                f.inst(i).kind
            {
                step = Some(step.unwrap_or(i64::MIN).max(c));
            }
        });
        step
    }

    #[test]
    fn unit_stride_prefetch_loop_is_restepped_to_the_line() {
        let f = prefetch_loop(1);
        let out = restep_prefetch_loops(&mut Workspace::new(), &f);
        verify_function(&out, None).unwrap();
        assert_eq!(latch_step(&out), Some(8), "{}", print_function(&out, None));
        assert_ne!(print_function(&f, None), print_function(&out, None));
    }

    #[test]
    fn line_stride_and_coarser_loops_are_left_alone() {
        for stride in [8i64, 16] {
            let f = prefetch_loop(stride);
            let out = restep_prefetch_loops(&mut Workspace::new(), &f);
            assert_eq!(print_function(&f, None), print_function(&out, None));
        }
    }

    #[test]
    fn loops_with_loads_are_left_alone() {
        // The gather shape: prefetch x[col[j]] needs col[j] loaded every
        // iteration — restepping would skip useful addresses.
        let mut b = FunctionBuilder::new("acc", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, j| {
            let ca = b.elem_addr(Value::Global(dae_ir::GlobalId(0)), j, Type::I64);
            let c = b.load(Type::I64, ca);
            let xa = b.elem_addr(Value::Global(dae_ir::GlobalId(1)), c, Type::F64);
            b.prefetch(xa);
        });
        b.ret(None);
        let f = b.finish();
        let out = restep_prefetch_loops(&mut Workspace::new(), &f);
        assert_eq!(print_function(&f, None), print_function(&out, None));
    }

    #[test]
    fn restepped_loop_still_covers_every_line() {
        // Trip 100 at stride 8 bytes touches byte offsets 0..800 — lines
        // 0..=12. After the re-step (step 8, offsets 0,64,...), the same
        // lines are all still prefetched.
        let f = prefetch_loop(1);
        let out = restep_prefetch_loops(&mut Workspace::new(), &f);
        let lines = |f: &Function, n: i64| -> Vec<i64> {
            // Interpret the loop symbolically: collect i*8 for each
            // surviving iteration, mapped to line indices.
            let step = latch_step(f).unwrap();
            (0..n).step_by(step as usize).map(|i| i * 8 / 64).collect()
        };
        let orig: std::collections::BTreeSet<i64> = lines(&f, 100).into_iter().collect();
        let new: std::collections::BTreeSet<i64> = lines(&out, 100).into_iter().collect();
        assert_eq!(orig, new);
    }
}
