//! The clean-up passes as they were written before one graph served a
//! whole merge sweep and one operand rewrite a whole strength reduction,
//! kept as the oracle the tests compare against: [`merge_straightline`]
//! rebuilds the CFG after every single merge and rewrites every operand of
//! the function per merge, and [`strength_reduce`] rewrites every operand
//! once per reduced instruction. Both passes must leave a function exactly
//! as these do — same arenas, same ids — on generated functions and on
//! every task of the benchmark corpus.
//!
//! [`merge_straightline`]: super::merge_straightline
//! [`strength_reduce`]: super::strength_reduce

use super::strength::reduce_loops;
use crate::cfg::Cfg;
use dae_ir::{Function, Terminator, Value};

/// [`super::merge_straightline`] by the model.
pub(crate) fn merge_straightline_model(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let cfg = Cfg::new(func);
        let mut merged = false;
        for &bb in cfg.rpo() {
            let dest = match func.terminator(bb) {
                Terminator::Jump(d) => d.clone(),
                _ => continue,
            };
            let s = dest.block;
            if s == bb || s == func.entry {
                continue;
            }
            if cfg.preds(s).len() != 1 {
                continue;
            }
            // Substitute s's params with the edge arguments everywhere.
            if !dest.args.is_empty() {
                super::map_all_operands(func, |v| match v {
                    Value::BlockParam { block, index } if block == s => {
                        dest.args.get(index as usize).copied().unwrap_or(v)
                    }
                    other => other,
                });
            }
            let s_insts = func.block(s).insts.clone();
            let s_term = func.block_mut(s).term.take().expect("terminated");
            func.block_mut(s).insts.clear();
            func.block_mut(s).params.clear();
            func.set_terminator(s, Terminator::Ret(None));
            func.block_mut(bb).insts.extend(s_insts);
            func.set_terminator(bb, s_term);
            merged = true;
            changed = true;
            break; // CFG changed; recompute
        }
        if !merged {
            return changed;
        }
    }
}

/// [`super::strength_reduce`] by the model: every reduced instruction's
/// uses are redirected as soon as its derived induction variable exists.
pub(crate) fn strength_reduce_model(func: &mut Function) -> bool {
    reduce_loops(&mut crate::Workspace::new(), func, |func, inst, dv| {
        let target = Value::Inst(inst);
        super::map_all_operands(func, |v| if v == target { dv } else { v });
    })
}

mod tests {
    use super::*;
    use crate::transform::{
        compact, compact_in, dce_fixpoint, fold_constant_branches, fold_constants, inline_all,
        merge_straightline, optimize, optimize_in, skip_trivial_blocks, strength_reduce,
        strength_reduce_and_clean_compacted,
    };
    use crate::Workspace;
    use dae_ir::{verify_function, CmpOp, FunctionBuilder, GlobalId, Type};
    use proptest::prelude::*;

    /// Both passes leave `f` exactly as their models do.
    fn agrees(f: &Function) {
        let (mut new, mut old) = (f.clone(), f.clone());
        assert_eq!(
            merge_straightline(&mut Workspace::new(), &mut new),
            merge_straightline_model(&mut old),
            "{}",
            f.name
        );
        assert_eq!(new, old, "merge_straightline left {} unlike the model", f.name);
        let (mut new, mut old) = (f.clone(), f.clone());
        assert_eq!(strength_reduce(&mut new), strength_reduce_model(&mut old), "{}", f.name);
        assert_eq!(new, old, "strength_reduce left {} unlike the model", f.name);
    }

    /// [`agrees`] on `f` and on the states the clean-up pipeline hands the
    /// passes: compacted, folded and swept as `optimize`'s first round
    /// leaves it before merging, and fully optimized.
    fn agrees_at_every_stage(f: &Function) {
        agrees(f);
        let ws = &mut Workspace::new();
        let mut g = compact(f.clone());
        agrees(&g);
        fold_constants(ws, &mut g);
        fold_constant_branches(&mut g);
        skip_trivial_blocks(ws, &mut g);
        dce_fixpoint(ws, &mut g);
        agrees(&g);
        agrees(&optimize(f));
    }

    /// A recipe step; indices pick from the `i64` values in scope, modulo
    /// their number.
    #[derive(Clone, Debug)]
    enum Op {
        /// A fresh block with `n` parameters, entered by a jump passing
        /// values in scope: one link of a straight-line chain.
        Link(usize, usize),
        /// A counted loop `0..16` or `0..arg0` by `step`, whose body is the
        /// steps up to the matching `End`.
        Loop(bool, i64),
        /// `if` on a constant (true, false) or a compare, body up to `End`.
        If(u8, usize),
        Mul(usize, i64),
        Add(usize, usize),
        /// A prefetch, load or store of `a[v]`, or a gather `b[v]`.
        Access(usize, u8),
        End,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..4, 0usize..64).prop_map(|(n, i)| Op::Link(n, i)),
            (any::<bool>(), 1i64..4).prop_map(|(p, s)| Op::Loop(p, s)),
            (0u8..3, 0usize..64).prop_map(|(k, i)| Op::If(k, i)),
            (0usize..64, -3i64..9).prop_map(|(i, k)| Op::Mul(i, k)),
            (0usize..64, 0usize..64).prop_map(|(i, j)| Op::Add(i, j)),
            (0usize..64, 0u8..4).prop_map(|(i, k)| Op::Access(i, k)),
            Just(Op::End),
        ]
    }

    fn emit(b: &mut FunctionBuilder, ops: &mut std::slice::Iter<'_, Op>, scope: &mut Vec<Value>) {
        let pick = |scope: &Vec<Value>, i: usize| scope[i % scope.len()];
        while let Some(op) = ops.next() {
            match *op {
                Op::End => return,
                Op::Link(n, i) => {
                    let bb = b.create_block();
                    let params: Vec<Value> = (0..n).map(|_| b.block_param(bb, Type::I64)).collect();
                    b.jump(bb, (0..n).map(|k| pick(scope, i + k)).collect());
                    b.switch_to(bb);
                    scope.extend(params);
                }
                Op::Loop(by_param, step) => {
                    let hi = if by_param { Value::Arg(0) } else { Value::i64(16) };
                    let outer = scope.len();
                    b.counted_loop(Value::i64(0), hi, Value::i64(step), |b, iv| {
                        scope.push(iv);
                        emit(b, ops, scope);
                    });
                    scope.truncate(outer);
                }
                Op::If(kind, i) => {
                    let cond = match kind {
                        0 => Value::ConstBool(true),
                        1 => Value::ConstBool(false),
                        _ => b.cmp(CmpOp::Lt, pick(scope, i), 8i64),
                    };
                    let outer = scope.len();
                    b.if_then(cond, |b| emit(b, ops, scope));
                    scope.truncate(outer);
                }
                Op::Mul(i, k) => {
                    let v = b.imul(pick(scope, i), k);
                    scope.push(v);
                }
                Op::Add(i, j) => {
                    let v = b.iadd(pick(scope, i), pick(scope, j));
                    scope.push(v);
                }
                Op::Access(i, kind) => {
                    let (a, idx) = (Value::Global(GlobalId(0)), pick(scope, i));
                    match kind {
                        0 => {
                            let p = b.elem_addr(a, idx, Type::F64);
                            b.prefetch(p);
                        }
                        1 => {
                            let p = b.elem_addr(a, idx, Type::F64);
                            b.load(Type::F64, p);
                        }
                        2 => {
                            let p = b.elem_addr(a, idx, Type::F64);
                            b.store(p, 1.5f64);
                        }
                        _ => {
                            let p = b.elem_addr(Value::Global(GlobalId(1)), idx, Type::I64);
                            let v = b.load(Type::I64, p);
                            scope.push(v);
                        }
                    }
                }
            }
        }
    }

    fn generated(ops: &[Op]) -> Function {
        let mut b = FunctionBuilder::new("g", vec![Type::I64, Type::I64], Type::Void);
        let mut scope = vec![Value::Arg(0), Value::Arg(1), Value::i64(3)];
        emit(&mut b, &mut ops.iter(), &mut scope);
        b.ret(None);
        b.finish()
    }

    /// What the clean-up pipeline and strength reduction make of `f` on `ws`.
    fn cleaned(ws: &mut Workspace, f: &Function) -> [Function; 2] {
        let compacted = compact_in(ws, f.clone());
        [optimize_in(ws, f.clone()), strength_reduce_and_clean_compacted(ws, compacted)]
    }

    proptest! {
        #[test]
        fn a_reused_workspace_cleans_generated_functions_as_a_fresh_one_does(
            first in proptest::collection::vec(op(), 1..40),
            second in proptest::collection::vec(op(), 1..40),
        ) {
            let (f, g) = (generated(&first), generated(&second));
            for (a, b) in [(&f, &g), (&g, &f)] {
                let ws = &mut Workspace::new();
                cleaned(ws, a);
                prop_assert_eq!(cleaned(ws, b), cleaned(&mut Workspace::new(), b));
            }
            let once = optimize(&f);
            prop_assert_eq!(compact(once.clone()), once, "optimize's output is compact");
        }

        #[test]
        fn the_passes_equal_their_models_on_generated_functions(
            ops in proptest::collection::vec(op(), 1..40)
        ) {
            let f = generated(&ops);
            prop_assert!(verify_function(&f, None).is_ok());
            agrees_at_every_stage(&f);
        }
    }

    #[test]
    fn the_passes_equal_their_models_on_every_corpus_task() {
        let suites = [dae_workloads::all_benchmarks_small(), dae_workloads::all_benchmarks()];
        for mut w in suites.into_iter().flatten() {
            // The inlined bodies the pipeline starts from…
            for task in w.module.task_ids() {
                agrees_at_every_stage(&inline_all(&w.module, task).expect("inlinable"));
            }
            // …and every function of the compiled module: the generated
            // access phases, the hand-written ones and the tasks.
            w.compile_auto();
            for (_, f) in w.module.funcs() {
                agrees_at_every_stage(f);
            }
        }
    }

    #[test]
    fn generated_functions_reach_both_passes() {
        // A chain with parameters behind a folded branch, and a row-major
        // multiply in a loop: both passes have work to do.
        let ops = [
            Op::If(0, 0),
            Op::Link(2, 1),
            Op::End,
            Op::Loop(false, 1),
            Op::Mul(3, 8),
            Op::Access(4, 0),
            Op::End,
        ];
        let f = compact(generated(&ops));
        let mut g = f.clone();
        fold_constant_branches(&mut g);
        assert!(merge_straightline(&mut Workspace::new(), &mut g.clone()));
        assert!(strength_reduce(&mut f.clone()));
        agrees_at_every_stage(&f);
    }
}
