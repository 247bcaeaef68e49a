//! Property-based tests of the analyses' compact representations against
//! the plain models they replace.
//!
//! * [`Cfg`] keeps predecessors and successors in flat arrays; a
//!   per-block-`Vec` graph built the obvious way, with a recursive DFS for
//!   the order, must agree with it on every block of random graphs —
//!   unreachable blocks, self-loops and duplicate edges included.
//! * [`Affine`] keeps its terms in a sorted vector, in place up to six
//!   terms; a `BTreeMap` model with wrapping arithmetic that never stores a
//!   zero coefficient must agree with it after every operation, on
//!   coefficients chosen to wrap and on forms of up to eight terms.
//! * A [`Workspace`] reused across functions must leave no trace: the
//!   clean-up pipeline and compaction plus strength reduction on a
//!   workspace that has just processed another function print exactly what
//!   they print on a fresh one, on random graphs and on every corpus task,
//!   in either order. The graphs carry instructions, block parameters and
//!   trivial forwarding blocks, some of whose parameters are read further
//!   down, so a pass table left over from the first function redirects or
//!   keeps an edge it should not.
//! * [`optimize`]'s output is already compact: compacting it again changes
//!   nothing, which is why the skeleton path hands it to strength reduction
//!   as it is.

use std::collections::BTreeMap;

use dae_analysis::transform::{
    compact, compact_in, inline_all, optimize, optimize_in, strength_reduce_and_clean_compacted,
};
use dae_analysis::{verify_ssa, Affine, AffineVar, Cfg, LoopId, Workspace};
use dae_ir::{
    print_function, verify_function, BinOp, BlockCall, BlockId, CmpOp, Function, InstKind,
    Terminator, Type, Value,
};
use proptest::prelude::*;

/// A block recipe `(kind, a, b, k)`: kind `0` returns, `1` jumps to `a`,
/// `2` branches to `a` or `b` (block indices modulo the block count) and
/// `3` is a trivial forwarder, an empty block whose jump to `a` passes its
/// parameter on. Every block but the entry takes one `i64`; the others add
/// to it (the entry to the function's argument) the parameter of a block
/// that dominates them, picked by `k` — so a forwarder's parameter may be
/// read downstream — or `k` itself, and return, pass on or compare the sum.
fn graph(n: usize, recipe: &[(u8, usize, usize, usize)]) -> Function {
    let mut f = Function::new("g", vec![Type::I64], Type::I64);
    for _ in 1..n {
        f.add_block();
    }
    let input: Vec<Value> = (0..n)
        .map(|b| match b {
            0 => Value::Arg(0),
            _ => f.add_block_param(BlockId(b as u32), Type::I64),
        })
        .collect();
    let to = |i: usize| BlockId((i % n) as u32);
    // The entry takes no arguments.
    let call = |i: usize, v: Value| {
        let args = if to(i) == BlockId(0) { vec![] } else { vec![v] };
        BlockCall::with_args(to(i), args)
    };
    // The edges first: which parameters an instruction may read depends on
    // them alone.
    for (bb, &(kind, a, b, _)) in recipe.iter().take(n).enumerate() {
        let term = match kind {
            0 => Terminator::Ret(None),
            1 | 3 => Terminator::Jump(BlockCall::new(to(a))),
            _ => Terminator::Branch {
                cond: Value::ConstBool(true),
                then_dest: BlockCall::new(to(a)),
                else_dest: BlockCall::new(to(b)),
            },
        };
        f.set_terminator(BlockId(bb as u32), term);
    }
    let dom = dominators(&NaiveCfg::new(&f));
    for (bb, &(kind, a, b, k)) in recipe.iter().take(n).enumerate() {
        let block = BlockId(bb as u32);
        if kind == 3 && bb != 0 {
            f.set_terminator(block, Terminator::Jump(call(a, input[bb])));
            continue;
        }
        let add = |f: &mut Function, kind: InstKind, ty: Type| {
            let inst = f.create_inst(kind, ty);
            f.append_inst(block, inst);
            Value::Inst(inst)
        };
        let above: Vec<usize> = (1..n).filter(|&d| d != bb && dom[bb] >> d & 1 == 1).collect();
        let rhs = match above.len() {
            0 => Value::i64(k as i64),
            len => input[above[k % len]],
        };
        let v = add(&mut f, InstKind::Binary { op: BinOp::IAdd, lhs: input[bb], rhs }, Type::I64);
        let term = match kind {
            0 => Terminator::Ret(Some(v)),
            2 => {
                let cmp = InstKind::Cmp { op: CmpOp::Lt, lhs: v, rhs: Value::i64(k as i64) };
                let cond = add(&mut f, cmp, Type::Bool);
                Terminator::Branch { cond, then_dest: call(a, v), else_dest: call(b, v) }
            }
            _ => Terminator::Jump(call(a, v)),
        };
        f.set_terminator(block, term);
    }
    verify_function(&f, None).expect("a well-formed graph");
    verify_ssa(&f).expect("every use dominated by its definition");
    f
}

/// Each block's dominators as a bit set (bit `d` for block `d`), by the
/// textbook fixpoint over the model graph; zero for an unreachable block.
fn dominators(cfg: &NaiveCfg) -> Vec<u32> {
    let all = u32::MAX >> (32 - cfg.preds.len());
    let mut dom = vec![0; cfg.preds.len()];
    for &bb in &cfg.rpo {
        dom[bb.0 as usize] = all;
    }
    dom[cfg.rpo[0].0 as usize] = 1 << cfg.rpo[0].0;
    let mut changed = true;
    while changed {
        changed = false;
        for &bb in &cfg.rpo[1..] {
            let b = bb.0 as usize;
            let meet = cfg.preds[b].iter().fold(all, |m, p| match dom[p.0 as usize] {
                0 => m,
                d => m & d,
            });
            let next = meet | 1 << b;
            changed |= next != dom[b];
            dom[b] = next;
        }
    }
    dom
}

/// The per-block-`Vec` graph and its reverse postorder, by recursion.
struct NaiveCfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
}

impl NaiveCfg {
    fn new(f: &Function) -> NaiveCfg {
        let n = f.num_blocks();
        let (mut preds, mut succs) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for bb in f.block_ids() {
            for dest in f.terminator(bb).successors() {
                succs[bb.0 as usize].push(dest.block);
                preds[dest.block.0 as usize].push(bb);
            }
        }
        fn dfs(bb: BlockId, succs: &[Vec<BlockId>], seen: &mut [bool], post: &mut Vec<BlockId>) {
            seen[bb.0 as usize] = true;
            for &s in &succs[bb.0 as usize] {
                if !seen[s.0 as usize] {
                    dfs(s, succs, seen, post);
                }
            }
            post.push(bb);
        }
        let mut post = Vec::new();
        dfs(f.entry, &succs, &mut vec![false; n], &mut post);
        post.reverse();
        NaiveCfg { preds, succs, rpo: post }
    }
}

fn recipe() -> impl Strategy<Value = (u8, usize, usize, usize)> {
    (0u8..4, 0usize..64, 0usize..64, 0usize..64)
}

/// What the clean-up pipeline and strength reduction make of `f` on `ws`.
fn cleaned(ws: &mut Workspace, f: &Function) -> [Function; 2] {
    let compacted = compact_in(ws, f.clone());
    [optimize_in(ws, f.clone()), strength_reduce_and_clean_compacted(ws, compacted)]
}

/// Runs `first` then `second` on one workspace: `second` must come out as
/// it does on a fresh workspace, arenas and printed text alike.
fn reuse_leaves_no_trace(first: &Function, second: &Function) {
    let fresh = cleaned(&mut Workspace::new(), second);
    let ws = &mut Workspace::new();
    cleaned(ws, first);
    let reused = cleaned(ws, second);
    for (r, f) in reused.iter().zip(&fresh) {
        assert_eq!(
            print_function(r, None),
            print_function(f, None),
            "{} after {}",
            second.name,
            first.name
        );
        assert_eq!(r, f, "{} after {}", second.name, first.name);
    }
}

/// `compact` leaves `optimize`'s output exactly as it is.
fn optimize_output_is_compact(f: &Function) {
    let once = optimize(f);
    let again = compact(once.clone());
    assert_eq!(print_function(&again, None), print_function(&once, None), "{}", f.name);
    assert_eq!(again, once, "{}", f.name);
}

/// The inlined body of every task of the small and the full corpus.
fn corpus_tasks() -> Vec<Function> {
    let suites = [dae_workloads::all_benchmarks_small(), dae_workloads::all_benchmarks()];
    let mut out = Vec::new();
    for w in suites.iter().flatten() {
        for task in w.module.task_ids() {
            out.push(inline_all(&w.module, task).expect("inlinable"));
        }
    }
    out
}

/// One step of an affine-expression program over the expressions built so
/// far (indices modulo their number).
#[derive(Clone, Debug)]
enum Step {
    Const(i64),
    Var(AffineVar),
    Add(usize, usize),
    Sub(usize, usize),
    Scale(usize, i64),
    Mul(usize, usize),
    Substitute(usize, AffineVar, usize),
}

/// Coefficients and constants that wrap when multiplied or added.
fn wide() -> impl Strategy<Value = i64> {
    prop_oneof![
        -4i64..5,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(1 << 62),
        Just(-(1 << 62)),
        Just(1 << 32),
        Just(3 << 61),
    ]
}

/// Eight variables: enough for a form to outgrow its in-place terms.
fn var() -> impl Strategy<Value = AffineVar> {
    prop_oneof![
        (0u32..4).prop_map(|l| AffineVar::Iv(LoopId(l))),
        (0u32..4).prop_map(AffineVar::Param),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        wide().prop_map(Step::Const),
        var().prop_map(Step::Var),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Step::Add(a, b)),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Step::Sub(a, b)),
        (0usize..32, wide()).prop_map(|(a, k)| Step::Scale(a, k)),
        (0usize..32, 0usize..32).prop_map(|(a, b)| Step::Mul(a, b)),
        (0usize..32, var(), 0usize..32).prop_map(|(a, v, b)| Step::Substitute(a, v, b)),
    ]
}

/// `constant + Σ coeff·var`, zero coefficients never stored.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    constant: i64,
    terms: BTreeMap<AffineVar, i64>,
}

impl Model {
    fn constant(c: i64) -> Model {
        Model { constant: c, terms: BTreeMap::new() }
    }

    /// `self + k·other`.
    fn add_scaled(&self, k: i64, other: &Model) -> Model {
        let mut out = self.clone();
        out.constant = out.constant.wrapping_add(other.constant.wrapping_mul(k));
        for (v, c) in &other.terms {
            let e = out.terms.entry(*v).or_insert(0);
            *e = e.wrapping_add(c.wrapping_mul(k));
            if *e == 0 {
                out.terms.remove(v);
            }
        }
        out
    }

    fn scale(&self, k: i64) -> Model {
        Model::constant(0).add_scaled(k, self)
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }
}

const VARS: [AffineVar; 6] = [
    AffineVar::Iv(LoopId(0)),
    AffineVar::Iv(LoopId(1)),
    AffineVar::Iv(LoopId(2)),
    AffineVar::Param(0),
    AffineVar::Param(1),
    AffineVar::Param(2),
];

fn assert_agrees(a: &Affine, m: &Model) {
    assert_eq!(a.constant, m.constant, "{a} vs {m:?}");
    for v in VARS {
        assert_eq!(a.coeff(v), m.terms.get(&v).copied().unwrap_or(0), "{v:?} in {a} vs {m:?}");
    }
    assert_eq!(a.vars().collect::<Vec<_>>(), m.terms.keys().copied().collect::<Vec<_>>());
    assert_eq!(a.is_const(), m.terms.is_empty(), "{a} vs {m:?}");
    assert_eq!(a.as_const(), m.as_const());
}

proptest! {
    #[test]
    fn the_flat_cfg_equals_the_per_block_model(
        n in 1usize..24,
        terms in proptest::collection::vec(recipe(), 24..25),
    ) {
        let f = graph(n, &terms);
        let (cfg, naive) = (Cfg::new(&f), NaiveCfg::new(&f));
        prop_assert_eq!(cfg.rpo(), &naive.rpo[..]);
        for bb in f.block_ids() {
            let b = bb.0 as usize;
            prop_assert_eq!(cfg.preds(bb), &naive.preds[b][..], "preds of {}", bb);
            prop_assert_eq!(cfg.succs(bb), &naive.succs[b][..], "succs of {}", bb);
            let at = naive.rpo.iter().position(|&r| r == bb);
            prop_assert_eq!(cfg.rpo_index(bb), at);
            prop_assert_eq!(cfg.is_reachable(bb), at.is_some());
        }
    }

    #[test]
    fn a_reused_workspace_cleans_random_graphs_as_a_fresh_one_does(
        n in 1usize..24,
        m in 1usize..24,
        terms in proptest::collection::vec(recipe(), 24..25),
        others in proptest::collection::vec(recipe(), 24..25),
    ) {
        let (f, g) = (graph(n, &terms), graph(m, &others));
        reuse_leaves_no_trace(&f, &g);
        reuse_leaves_no_trace(&g, &f);
        optimize_output_is_compact(&f);
    }

    #[test]
    fn affine_forms_equal_the_map_model(steps in proptest::collection::vec(step(), 1..40)) {
        let mut built: Vec<(Affine, Model)> = vec![(Affine::constant(0), Model::constant(0))];
        for s in &steps {
            let pick = |i: usize| &built[i % built.len()];
            let next = match *s {
                Step::Const(c) => (Affine::constant(c), Model::constant(c)),
                Step::Var(v) => {
                    (Affine::var(v), Model { constant: 0, terms: BTreeMap::from([(v, 1)]) })
                }
                Step::Add(a, b) => {
                    let ((x, mx), (y, my)) = (pick(a), pick(b));
                    (x.add(y), mx.add_scaled(1, my))
                }
                Step::Sub(a, b) => {
                    let ((x, mx), (y, my)) = (pick(a), pick(b));
                    (x.sub(y), mx.add_scaled(-1, my))
                }
                Step::Scale(a, k) => {
                    let (x, mx) = pick(a);
                    (x.scale(k), mx.scale(k))
                }
                Step::Mul(a, b) => {
                    let ((x, mx), (y, my)) = (pick(a), pick(b));
                    let model = match (mx.as_const(), my.as_const()) {
                        (_, Some(k)) => Some(mx.scale(k)),
                        (Some(k), None) => Some(my.scale(k)),
                        (None, None) => None,
                    };
                    match (x.mul(y), model) {
                        (Some(p), Some(m)) => (p, m),
                        (None, None) => continue,
                        (p, m) => panic!("mul: {p:?} vs {m:?}"),
                    }
                }
                Step::Substitute(a, v, b) => {
                    let ((x, mx), (y, my)) = (pick(a), pick(b));
                    let mut rest = mx.clone();
                    let model = match rest.terms.remove(&v) {
                        Some(c) => rest.add_scaled(c, my),
                        None => mx.clone(),
                    };
                    (x.substitute(v, y), model)
                }
            };
            assert_agrees(&next.0, &next.1);
            // Canonical forms: equal expressions compare equal.
            for (x, mx) in &built {
                prop_assert_eq!(x == &next.0, mx == &next.1, "{} vs {}", x, next.0);
            }
            built.push(next);
        }
    }
}

#[test]
fn a_product_that_wraps_to_zero_leaves_no_term() {
    let p = Affine::var(AffineVar::Param(0)).scale(1 << 62).scale(4);
    assert!(p.is_const(), "{p}");
    assert_eq!(p, Affine::constant(0));
}

#[test]
fn a_reused_workspace_cleans_every_corpus_task_as_a_fresh_one_does() {
    let tasks = corpus_tasks();
    // Each task after its neighbour and before it: a larger function
    // leaves longer tables behind, a smaller one shorter.
    for pair in tasks.windows(2) {
        reuse_leaves_no_trace(&pair[0], &pair[1]);
        reuse_leaves_no_trace(&pair[1], &pair[0]);
    }
}

#[test]
fn optimize_output_compacts_to_itself_on_every_corpus_task() {
    for f in corpus_tasks() {
        optimize_output_is_compact(&f);
    }
}
