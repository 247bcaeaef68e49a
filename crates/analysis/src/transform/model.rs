//! The clean-up passes as they were written before one graph served a
//! whole merge sweep and one operand rewrite a whole strength reduction,
//! kept as the oracle the tests compare against: [`merge_straightline`]
//! rebuilds the CFG after every single merge and rewrites every operand of
//! the function per merge, [`strength_reduce`] rewrites every operand
//! once per reduced instruction, [`fold_constants`] folds and rewrites in
//! rounds until a round changes no operand, and [`optimize_in`] runs every
//! pass in every round, compacting after each, until a round changes
//! nothing. The passes must leave a function exactly as these do — same
//! arenas, same ids — on generated functions and on every task of the
//! benchmark corpus.
//!
//! [`merge_straightline`]: super::merge_straightline
//! [`strength_reduce`]: super::strength_reduce
//! [`fold_constants`]: super::fold_constants
//! [`optimize_in`]: super::optimize_in

use super::constfold::fold_inst;
use super::strength::reduce_loops;
use super::{
    compact_in, dce_fixpoint, fold_constant_branches, merge_straightline, skip_trivial_blocks,
};
use crate::cfg::Cfg;
use crate::Workspace;
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

/// [`super::fold_constants`] by the model: each round folds every
/// instruction on its current operands, resolves chains and rewrites every
/// operand, until a round changes none.
pub(crate) fn fold_constants_model(func: &mut Function) -> bool {
    let mut changed_any = false;
    loop {
        let mut repl: Vec<Option<Value>> = vec![None; func.num_insts()];
        let mut folded = 0;
        for bb in func.block_ids() {
            for &inst in &func.block(bb).insts {
                if let Some(v) = fold_inst(func, &func.inst(inst).kind) {
                    repl[inst.0 as usize] = Some(v);
                    folded += 1;
                }
            }
        }
        if folded == 0 {
            return changed_any;
        }
        let resolve = |mut v: Value| -> Value {
            let mut hops = 0;
            while let Value::Inst(id) = v {
                let Some(n) = repl[id.0 as usize] else { break };
                v = n;
                hops += 1;
                if hops > folded {
                    break;
                }
            }
            v
        };
        let mut changed = false;
        super::map_all_operands(func, |v| {
            let n = resolve(v);
            changed |= n != v;
            n
        });
        changed_any |= changed;
        if !changed {
            return changed_any;
        }
    }
}

/// [`super::optimize_in`] by the model: every round runs every pass, and
/// only a round that changes nothing ends the loop.
pub(crate) fn optimize_model(ws: &mut Workspace, func: Function) -> Function {
    let mut f = compact_in(ws, func);
    loop {
        let mut changed = false;
        changed |= fold_constants_model(&mut f);
        changed |= fold_constant_branches(&mut f);
        changed |= skip_trivial_blocks(ws, &mut f);
        changed |= dce_fixpoint(ws, &mut f);
        changed |= merge_straightline(ws, &mut f);
        if !changed {
            return f;
        }
        f = compact_in(ws, f);
    }
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

    /// The passes leave `f` exactly as their models do.
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
        let ws = &mut Workspace::new();
        let (mut new, mut old) = (compact_in(ws, f.clone()), compact(f.clone()));
        assert_eq!(fold_constants(ws, &mut new), fold_constants_model(&mut old), "{}", f.name);
        assert_eq!(new, old, "fold_constants left {} unlike the model", f.name);
        let new = optimize_in(ws, f.clone());
        assert_eq!(new, optimize_model(ws, f.clone()), "optimize left {} unlike the model", f.name);
    }

    /// [`agrees`] on `f` and on the states the clean-up pipeline hands the
    /// passes: compacted, strength-reduced as `strength_reduce_and_clean`
    /// hands it to `optimize`, folded and swept as `optimize`'s first
    /// round leaves it before merging, and fully optimized.
    fn agrees_at_every_stage(f: &Function) {
        agrees(f);
        let ws = &mut Workspace::new();
        let mut g = compact(f.clone());
        agrees(&g);
        let mut reduced = g.clone();
        strength_reduce(&mut reduced);
        agrees(&reduced);
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

    /// A step of a folding recipe; indices pick an operator and operands
    /// from the pool of their type, modulo its size.
    #[derive(Clone, Debug)]
    enum Fold {
        Float(usize, usize, usize),
        Int(usize, usize, usize),
        /// A compare of two floats or, when the flag is set, two ints.
        Cmp(bool, usize, usize, usize),
        /// A select between two floats or two ints.
        Select(bool, usize, usize, usize),
        /// `fneg`, `fsqrt`, `itof`, `ftoi` or `not`.
        Unary(usize, usize),
        /// The steps after it go into an `if` on a pooled condition.
        If(usize),
    }

    fn fold_step() -> impl Strategy<Value = Fold> {
        prop_oneof![
            (0usize..6, 0usize..64, 0usize..64).prop_map(|(o, a, b)| Fold::Float(o, a, b)),
            (0usize..6, 0usize..64, 0usize..64).prop_map(|(o, a, b)| Fold::Int(o, a, b)),
            (any::<bool>(), 0usize..6, 0usize..64, 0usize..64)
                .prop_map(|(i, o, a, b)| Fold::Cmp(i, o, a, b)),
            (any::<bool>(), 0usize..64, 0usize..64, 0usize..64)
                .prop_map(|(i, c, a, b)| Fold::Select(i, c, a, b)),
            (0usize..5, 0usize..64).prop_map(|(o, a)| Fold::Unary(o, a)),
            (0usize..64).prop_map(Fold::If),
        ]
    }

    /// The values a folding recipe has defined so far, one pool per type.
    #[derive(Clone)]
    struct FoldPools {
        floats: Vec<Value>,
        ints: Vec<Value>,
        bools: Vec<Value>,
    }

    fn emit_folds(b: &mut FunctionBuilder, steps: &[Fold], mut pools: FoldPools) {
        use dae_ir::{BinOp::*, UnOp};
        const CMPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let pick = |pool: &[Value], i: usize| pool[i % pool.len()];
        for (k, step) in steps.iter().enumerate() {
            let FoldPools { floats, ints, bools } = &mut pools;
            match *step {
                Fold::Float(o, x, y) => {
                    let op = [FAdd, FSub, FMul, FDiv, FMin, FMax][o];
                    floats.push(b.binary(op, pick(floats, x), pick(floats, y)));
                }
                Fold::Int(o, x, y) => {
                    let op = [IAdd, ISub, IMul, IDiv, And, Shl][o];
                    ints.push(b.binary(op, pick(ints, x), pick(ints, y)));
                }
                Fold::Cmp(int, o, x, y) => {
                    let pool = if int { &*ints } else { &*floats };
                    // A third of the compares read one value twice.
                    let (x, y) = (pick(pool, x), pick(pool, if y % 3 == 0 { x } else { y }));
                    bools.push(b.cmp(CMPS[o], x, y));
                }
                Fold::Select(int, c, x, y) => {
                    let pool = if int { ints } else { floats };
                    let v = b.select(pick(bools, c), pick(pool, x), pick(pool, y));
                    pool.push(v);
                }
                Fold::Unary(o, x) => match o {
                    0 => floats.push(b.unary(UnOp::FNeg, pick(floats, x))),
                    1 => floats.push(b.unary(UnOp::FSqrt, pick(floats, x))),
                    2 => floats.push(b.unary(UnOp::IToF, pick(ints, x))),
                    3 => ints.push(b.unary(UnOp::FToI, pick(floats, x))),
                    _ => bools.push(b.unary(UnOp::Not, pick(bools, x))),
                },
                Fold::If(c) => {
                    let cond = pick(bools, c);
                    let rest = &steps[k + 1..];
                    b.if_then(cond, |b| emit_folds(b, rest, pools.clone()));
                    return;
                }
            }
        }
    }

    /// A function of `steps` over the float constants that fold unlike
    /// their neighbours (`-0.0`, `0.0`, NaN, `±inf`, `1.0`), a few ints and
    /// an unknown value of each type: compares of a value with itself,
    /// `fadd` with a zero of either sign, selects whose condition folds a
    /// round or more after the select is reached.
    fn folding(steps: &[Fold]) -> Function {
        let mut b = FunctionBuilder::new("fold", vec![Type::I64, Type::F64], Type::Void);
        let floats = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0];
        let pools = FoldPools {
            floats: floats.into_iter().map(Value::f64).chain([Value::Arg(1)]).collect(),
            ints: vec![Value::i64(0), Value::i64(1), Value::i64(-3), Value::Arg(0)],
            bools: vec![Value::ConstBool(true), Value::ConstBool(false)],
        };
        emit_folds(&mut b, steps, pools);
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

    proptest! {
        /// Folding each instruction once, on operands already folded,
        /// reaches the round-by-round fixpoint: every rule holds for
        /// `-0.0`, NaN and `±inf` operands, so no fold depends on the round
        /// it is tried in.
        #[test]
        fn one_folding_pass_reaches_the_fixpoint_of_folding_rounds(
            steps in proptest::collection::vec(fold_step(), 1..48)
        ) {
            let f = folding(&steps);
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
    fn a_block_emptied_by_dead_code_removal_is_forwarded() {
        // `b` holds only a dead add and then forwards its parameter to `t`;
        // both of `t`'s predecessors end in different blocks and the entry
        // branches, so the first round removes only dead code. The round
        // after it must still find `b` a forwarder.
        let mut fb = FunctionBuilder::new("f", vec![Type::I64, Type::I64], Type::Void);
        let (b, d, t) = (fb.create_block(), fb.create_block(), fb.create_block());
        let (p, r, q) = (
            fb.block_param(b, Type::I64),
            fb.block_param(d, Type::I64),
            fb.block_param(t, Type::I64),
        );
        let c = fb.cmp(CmpOp::Lt, Value::Arg(0), 8i64);
        fb.branch(c, b, vec![Value::Arg(0)], d, vec![Value::Arg(1)]);
        fb.switch_to(b);
        fb.iadd(p, 1i64);
        fb.jump(t, vec![p]);
        fb.switch_to(d);
        let at = fb.elem_addr(Value::Global(GlobalId(0)), r, Type::F64);
        fb.store(at, 1.5f64);
        fb.jump(t, vec![r]);
        fb.switch_to(t);
        let at = fb.elem_addr(Value::Global(GlobalId(0)), q, Type::F64);
        fb.prefetch(at);
        fb.ret(None);
        let f = fb.finish();

        let ws = &mut Workspace::new();
        let mut g = compact_in(ws, f.clone());
        assert!(!fold_constants(ws, &mut g) && !fold_constant_branches(&mut g));
        assert!(!skip_trivial_blocks(ws, &mut g));
        assert!(dce_fixpoint(ws, &mut g));
        assert!(!merge_straightline(ws, &mut g));
        let optimized = optimize_in(ws, f.clone());
        assert_eq!(optimized.num_blocks(), 3, "{}", dae_ir::print_function(&optimized, None));
        agrees(&f);
    }

    #[test]
    fn folding_takes_each_value_from_the_round_it_folds_in() {
        // `c` folds in round 1, so `s` (→ -0.0) and `t` (→ 1.5) fold in
        // round 2, and `y` reads `s, 0.0` in round 3: `-0.0 + 0.0`, which is
        // 0.0, as the function computes it unfolded. `e` is `t == t`, true
        // once `t` is a float constant other than NaN.
        let mut b = FunctionBuilder::new("f", vec![], Type::F64);
        let c = b.cmp(CmpOp::Lt, 1i64, 2i64);
        let s = b.select(c, -0.0f64, 5.0f64);
        let z = b.fadd(0.0f64, 0.0f64);
        let y = b.fadd(s, z);
        let t = b.select(c, 1.5f64, 2.5f64);
        let e = b.cmp(CmpOp::Eq, t, t);
        let r = b.select(e, y, 7.0f64);
        b.ret(Some(r));
        let f = b.finish();
        let (mut new, mut old) = (f.clone(), f.clone());
        assert!(fold_constants(&mut Workspace::new(), &mut new));
        assert!(fold_constants_model(&mut old));
        assert_eq!(new, old);
        match new.terminator(new.entry) {
            Terminator::Ret(Some(v)) => {
                assert_eq!(v.as_f64().map(f64::to_bits), Some(0.0f64.to_bits()))
            }
            t => panic!("{t:?}"),
        }
        agrees(&f);
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
