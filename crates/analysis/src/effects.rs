//! Side-effect and externals analysis.
//!
//! The paper's safety conditions (§3.1, §5.2) require knowing whether a task
//! (a) computes addresses / control flow only from values visible inside the
//! task and (b) contains calls that cannot be inlined. This module answers
//! both questions.

use crate::Workspace;
use dae_ir::{FuncId, Function, GlobalId, InstId, InstKind, Module, Value};
use std::collections::HashSet;

/// Summary of a function's interactions with state visible outside it.
#[derive(Clone, Debug, Default)]
pub struct EffectSummary {
    /// Globals read through statically-known bases.
    pub reads_globals: HashSet<GlobalId>,
    /// Globals written through statically-known bases.
    pub writes_globals: HashSet<GlobalId>,
    /// Loads whose base pointer could not be traced to a global (e.g. a
    /// pointer argument or a loaded pointer).
    pub reads_unknown_ptr: bool,
    /// Stores whose base pointer could not be traced to a global.
    pub writes_unknown_ptr: bool,
    /// Direct callees.
    pub callees: Vec<FuncId>,
}

impl EffectSummary {
    /// True if the function performs no stores at all.
    pub fn is_read_only(&self) -> bool {
        self.writes_globals.is_empty() && !self.writes_unknown_ptr
    }
}

/// What [`Bases`] knows of one instruction.
#[derive(Clone, Copy, PartialEq)]
enum Base {
    Unseen,
    /// On the trace's stack, its operands not all known yet.
    Tracing,
    Known(Option<GlobalId>),
}

/// The global each pointer of one function is based on, looking through
/// `ptradd` chains and through a `select` whose arms share a base; `None`
/// for argument pointers, loaded pointers and everything else. Every
/// instruction is traced once, on an explicit stack, so a chain of
/// `select`s costs one step per link however often its arms meet.
#[derive(Default)]
pub struct Bases {
    base: Vec<Base>,
    stack: Vec<InstId>,
}

impl Bases {
    /// The global `v` is based on.
    pub fn of(&self, v: Value) -> Option<GlobalId> {
        match v {
            Value::Global(g) => Some(g),
            Value::Inst(id) => match self.base[id.0 as usize] {
                Base::Known(g) => g,
                // Only a cycle, which no verified function has, meets an
                // instruction still being traced.
                Base::Unseen | Base::Tracing => None,
            },
            _ => None,
        }
    }

    /// Traces every instruction of `func`.
    fn fill(&mut self, func: &Function) {
        self.base.clear();
        self.base.resize(func.num_insts(), Base::Unseen);
        for i in 0..func.num_insts() {
            self.trace(func, InstId(i as u32));
        }
    }

    /// Traces `root` and every instruction its base depends on, operands
    /// first.
    fn trace(&mut self, func: &Function, root: InstId) {
        self.stack.push(root);
        while let Some(&id) = self.stack.last() {
            let kind = &func.inst(id).kind;
            let arms = match *kind {
                InstKind::PtrAdd { base, .. } => [base, base],
                InstKind::Select { then_value, else_value, .. } => [then_value, else_value],
                _ => [Value::ConstBool(false); 2],
            };
            match self.base[id.0 as usize] {
                Base::Known(_) => {
                    // Pushed twice, by both arms of a select.
                    self.stack.pop();
                    continue;
                }
                Base::Unseen => {
                    self.base[id.0 as usize] = Base::Tracing;
                    let before = self.stack.len();
                    for arm in arms {
                        if let Value::Inst(a) = arm {
                            if self.base[a.0 as usize] == Base::Unseen {
                                self.stack.push(a);
                            }
                        }
                    }
                    if self.stack.len() > before {
                        continue;
                    }
                }
                Base::Tracing => {}
            }
            let [a, b] = arms.map(|arm| self.of(arm));
            let base = match kind {
                InstKind::PtrAdd { .. } => a,
                InstKind::Select { .. } => a.filter(|_| a == b),
                _ => None,
            };
            self.base[id.0 as usize] = Base::Known(base);
            self.stack.pop();
        }
    }
}

impl Workspace {
    /// The bases of `func`'s pointers, each instruction traced once.
    pub fn bases(&mut self, func: &Function) -> &Bases {
        self.bases.fill(func);
        &self.bases
    }
}

/// Computes the [`EffectSummary`] of `func`.
pub fn summarize(ws: &mut Workspace, func: &Function) -> EffectSummary {
    let bases = ws.bases(func);
    let mut s = EffectSummary::default();
    func.for_each_placed_inst(|_, inst| match &func.inst(inst).kind {
        InstKind::Load { addr } => match bases.of(*addr) {
            Some(g) => {
                s.reads_globals.insert(g);
            }
            None => s.reads_unknown_ptr = true,
        },
        InstKind::Store { addr, .. } => match bases.of(*addr) {
            Some(g) => {
                s.writes_globals.insert(g);
            }
            None => s.writes_unknown_ptr = true,
        },
        InstKind::Call { callee, .. } => s.callees.push(*callee),
        _ => {}
    });
    s
}

/// True if inlining every (transitive) call in `func` terminates — i.e. the
/// call graph reachable from `func` contains no cycle through `func` or any
/// callee.
pub(crate) fn is_fully_inlinable(module: &Module, func: FuncId) -> bool {
    /// Per function, by id: not reached, on the DFS stack, or done.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        New,
        OnStack,
        Done,
    }
    // DFS with an on-stack mark detects recursion.
    fn dfs(module: &Module, f: FuncId, marks: &mut [Mark]) -> bool {
        match marks[f.0 as usize] {
            Mark::Done => return true,
            Mark::OnStack => return false,
            Mark::New => marks[f.0 as usize] = Mark::OnStack,
        }
        let func = module.func(f);
        let mut callees = Vec::new();
        func.for_each_placed_inst(|_, inst| {
            if let InstKind::Call { callee, .. } = func.inst(inst).kind {
                callees.push(callee);
            }
        });
        for callee in callees {
            if !dfs(module, callee, marks) {
                return false;
            }
        }
        marks[f.0 as usize] = Mark::Done;
        true
    }
    dfs(module, func, &mut vec![Mark::New; module.num_funcs()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type};

    #[test]
    fn summarizes_reads_and_writes() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 8);
        let b_g = m.add_global("b", Type::F64, 8);
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let pa = b.ptr_add(Value::Global(a), 0i64);
        let x = b.load(Type::F64, pa);
        let pb = b.ptr_add(Value::Global(b_g), 8i64);
        b.store(pb, x);
        b.ret(None);
        let f = b.finish();
        let s = summarize(&mut Workspace::new(), &f);
        assert!(s.reads_globals.contains(&a));
        assert!(s.writes_globals.contains(&b_g));
        assert!(!s.reads_unknown_ptr);
        assert!(!s.is_read_only());
    }

    #[test]
    fn pointer_args_are_unknown() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr], Type::Void);
        let x = b.load(Type::F64, Value::Arg(0));
        let _ = x;
        b.ret(None);
        let s = summarize(&mut Workspace::new(), &b.finish());
        assert!(s.reads_unknown_ptr);
        assert!(s.is_read_only());
    }

    #[test]
    fn loaded_pointer_is_unknown() {
        let mut m = Module::new();
        let a = m.add_global("list", Type::Ptr, 8);
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let head = b.load(Type::Ptr, Value::Global(a));
        let _ = b.load(Type::F64, head);
        b.ret(None);
        let s = summarize(&mut Workspace::new(), &b.finish());
        assert!(s.reads_globals.contains(&a));
        assert!(s.reads_unknown_ptr);
    }

    #[test]
    fn recursion_blocks_inlining() {
        let mut m = Module::new();
        // fn r() { r() }
        let mut b = FunctionBuilder::new("r", vec![], Type::Void);
        // FuncId(0) will be r itself (first added function).
        b.call(FuncId(0), vec![], Type::Void);
        b.ret(None);
        let r = m.add_function(b.finish());
        assert!(!is_fully_inlinable(&m, r));
    }

    #[test]
    fn dag_calls_are_inlinable() {
        let mut m = Module::new();
        let mut leaf = FunctionBuilder::new("leaf", vec![], Type::Void);
        leaf.ret(None);
        let leaf = m.add_function(leaf.finish());
        let mut mid = FunctionBuilder::new("mid", vec![], Type::Void);
        mid.call(leaf, vec![], Type::Void);
        mid.call(leaf, vec![], Type::Void);
        mid.ret(None);
        let mid = m.add_function(mid.finish());
        let mut top = FunctionBuilder::new("top", vec![], Type::Void);
        top.call(mid, vec![], Type::Void);
        top.call(leaf, vec![], Type::Void);
        top.ret(None);
        let top = m.add_function(top.finish());
        assert!(is_fully_inlinable(&m, top));
        assert!(is_fully_inlinable(&m, mid));
        assert!(is_fully_inlinable(&m, leaf));
    }

    #[test]
    fn a_chain_of_selects_over_one_pointer_traces_once_per_link() {
        // Both arms of every link are the link before: a trace that
        // followed each arm would take 2^60 steps.
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 16);
        let mut b = FunctionBuilder::new("f", vec![Type::Bool], Type::Void);
        let mut p = b.ptr_add(Value::Global(a), 8i64);
        for _ in 0..60 {
            p = b.select(Value::Arg(0), p, p);
        }
        let _ = b.load(Type::F64, p);
        let q = b.select(Value::Arg(0), p, Value::Arg(0));
        b.store(q, 1.0f64);
        b.ret(None);
        let s = summarize(&mut Workspace::new(), &b.finish());
        assert!(s.reads_globals.contains(&a) && !s.reads_unknown_ptr);
        assert!(s.writes_globals.is_empty() && s.writes_unknown_ptr, "the arms' bases differ");
    }

    #[test]
    fn select_of_same_base_traces() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 16);
        let mut b = FunctionBuilder::new("f", vec![Type::Bool], Type::Void);
        let p1 = b.ptr_add(Value::Global(a), 0i64);
        let p2 = b.ptr_add(Value::Global(a), 64i64);
        let p = b.select(Value::Arg(0), p1, p2);
        let _ = b.load(Type::F64, p);
        b.ret(None);
        let f = b.finish();
        let s = summarize(&mut Workspace::new(), &f);
        assert!(s.reads_globals.contains(&a));
        assert!(!s.reads_unknown_ptr);
    }
}
