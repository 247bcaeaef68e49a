//! Scalar evolution: affine forms of integer values and addresses.
//!
//! This is the stand-in for LLVM's ScalarEvolution pass that the paper uses
//! to classify code (§5): "Based on the expressions provided by the Scalar
//! Evolution pass, we compute linear functions to describe the access
//! pattern of each memory instruction, when possible."
//!
//! A value is *affine* here when it can be written as
//! `c0 + Σ ci·iv_i + Σ dj·param_j` with integer constant coefficients, where
//! `iv_i` are induction variables of recognised counted loops and `param_j`
//! are the task's scalar arguments. An address is affine when it is a global
//! array base plus an affine byte offset.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::loops::{recognize_counted, CountedLoop, LoopForest, LoopId};
use dae_ir::{BinOp, Function, GlobalId, InstId, InstKind, UnOp, Value};
use std::borrow::Cow;
use std::fmt;

/// A symbolic variable of an affine form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AffineVar {
    /// The induction variable of a counted loop.
    Iv(LoopId),
    /// The `u32`-th argument of the analysed function.
    Param(u32),
}

/// An affine integer expression `constant + Σ coeff·var`.
///
/// The terms are a short vector sorted by variable with no zero
/// coefficient, so every combination is one merge and equal expressions
/// compare equal. Up to six terms — every form the corpus
/// produces — are stored in place: building and combining those forms
/// never allocates.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Affine {
    /// Constant term.
    pub constant: i64,
    /// `(variable, coefficient)` pairs sorted by variable; zero
    /// coefficients are not stored.
    terms: Terms,
}

/// Terms an [`Affine`] holds without a heap allocation.
const INLINE_TERMS: usize = 6;

/// The term list of an [`Affine`]: in place up to [`INLINE_TERMS`]
/// entries, on the heap beyond.
#[derive(Clone)]
enum Terms {
    /// `buf[..len]`; the entries past `len` are unused filler.
    Inline {
        len: u8,
        buf: [(AffineVar, i64); INLINE_TERMS],
    },
    Heap(Vec<(AffineVar, i64)>),
}

impl Default for Terms {
    fn default() -> Self {
        Terms::Inline { len: 0, buf: [(AffineVar::Param(0), 0); INLINE_TERMS] }
    }
}

impl Terms {
    fn as_slice(&self) -> &[(AffineVar, i64)] {
        match self {
            Terms::Inline { len, buf } => &buf[..*len as usize],
            Terms::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(AffineVar, i64)] {
        match self {
            Terms::Inline { len, buf } => &mut buf[..*len as usize],
            Terms::Heap(v) => v,
        }
    }

    fn insert(&mut self, i: usize, t: (AffineVar, i64)) {
        match self {
            Terms::Inline { len, buf } if (*len as usize) < INLINE_TERMS => {
                let n = *len as usize;
                buf.copy_within(i..n, i + 1);
                buf[i] = t;
                *len += 1;
            }
            Terms::Inline { buf, .. } => {
                let mut v = buf.to_vec();
                v.insert(i, t);
                *self = Terms::Heap(v);
            }
            Terms::Heap(v) => v.insert(i, t),
        }
    }

    fn push(&mut self, t: (AffineVar, i64)) {
        let n = self.as_slice().len();
        self.insert(n, t);
    }

    fn remove(&mut self, i: usize) {
        match self {
            Terms::Inline { len, buf } => {
                buf.copy_within(i + 1..*len as usize, i);
                *len -= 1;
            }
            Terms::Heap(v) => {
                v.remove(i);
            }
        }
    }
}

impl std::ops::Deref for Terms {
    type Target = [(AffineVar, i64)];

    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Terms {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.as_mut_slice()
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Terms {}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Affine {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        Affine { constant: c, terms: Terms::default() }
    }

    /// The expression `1·var`.
    pub fn var(v: AffineVar) -> Self {
        let mut terms = Terms::default();
        terms.push((v, 1));
        Affine { constant: 0, terms }
    }

    /// True if the expression has no variable terms.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value, if [`Affine::is_const`].
    pub fn as_const(&self) -> Option<i64> {
        if self.is_const() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: AffineVar) -> i64 {
        self.terms.binary_search_by_key(&v, |t| t.0).map_or(0, |i| self.terms[i].1)
    }

    /// The expression plus `c·v`, in place.
    pub fn add_term(mut self, v: AffineVar, c: i64) -> Affine {
        match self.terms.binary_search_by_key(&v, |t| t.0) {
            Ok(i) => {
                let sum = self.terms[i].1.wrapping_add(c);
                if sum == 0 {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) if c != 0 => self.terms.insert(i, (v, c)),
            Err(_) => {}
        }
        self
    }

    /// `self + k·other`, every coefficient wrapping, built in one pass: no
    /// scaled copy of `other` is made.
    pub fn add_scaled(&self, k: i64, other: &Affine) -> Affine {
        self.merge(None, k, other)
    }

    /// [`Affine::add_scaled`] with the term of `skip` in `self` left out.
    fn merge(&self, skip: Option<AffineVar>, k: i64, other: &Affine) -> Affine {
        let mut terms = Terms::default();
        let mine = self.terms.iter().filter(|t| Some(t.0) != skip);
        let (mut a, mut b) = (mine.peekable(), other.terms.iter().peekable());
        loop {
            let (v, c) = match (a.peek(), b.peek()) {
                (Some(&&(va, ca)), Some(&&(vb, _))) if va < vb => {
                    a.next();
                    (va, ca)
                }
                (Some(&&(va, ca)), Some(&&(vb, cb))) if va == vb => {
                    a.next();
                    b.next();
                    (va, ca.wrapping_add(cb.wrapping_mul(k)))
                }
                (_, Some(&&(vb, cb))) => {
                    b.next();
                    (vb, cb.wrapping_mul(k))
                }
                (Some(&&(va, ca)), None) => {
                    a.next();
                    (va, ca)
                }
                (None, None) => break,
            };
            if c != 0 {
                terms.push((v, c));
            }
        }
        Affine { constant: self.constant.wrapping_add(other.constant.wrapping_mul(k)), terms }
    }

    /// Sum of two affine expressions.
    pub fn add(&self, other: &Affine) -> Affine {
        self.add_scaled(1, other)
    }

    /// Difference of two affine expressions.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add_scaled(-1, other)
    }

    /// The expression multiplied by a constant. A coefficient whose product
    /// wraps to zero is dropped, like any other zero.
    pub fn scale(&self, k: i64) -> Affine {
        Affine::constant(0).add_scaled(k, self)
    }

    /// Product, defined only when at least one side is constant.
    pub fn mul(&self, other: &Affine) -> Option<Affine> {
        if let Some(k) = other.as_const() {
            Some(self.scale(k))
        } else {
            self.as_const().map(|k| other.scale(k))
        }
    }

    /// Substitutes `var := repl` (used to rewrite IVs into normalized loop
    /// counters).
    pub fn substitute(&self, var: AffineVar, repl: &Affine) -> Affine {
        match self.coeff(var) {
            0 => self.clone(),
            c => self.merge(Some(var), c, repl),
        }
    }

    /// All variables appearing with non-zero coefficient, in order.
    pub fn vars(&self) -> impl Iterator<Item = AffineVar> + '_ {
        self.terms.iter().map(|t| t.0)
    }

    /// `(variable, coefficient)` for every non-zero term, in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (AffineVar, i64)> + '_ {
        self.terms.iter().copied()
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in self.terms.iter() {
            if first {
                if c == 1 {
                    write!(f, "{v:?}")?;
                } else {
                    write!(f, "{c}*{v:?}")?;
                }
                first = false;
            } else if c >= 0 {
                write!(f, " + {}*{v:?}", c)?;
            } else {
                write!(f, " - {}*{v:?}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)
        } else {
            Ok(())
        }
    }
}

/// A pointer expressed as `global base + affine byte offset`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PtrAffine {
    /// The global array the pointer points into.
    pub base: GlobalId,
    /// Byte offset from the base.
    pub offset: Affine,
}

/// Scalar-evolution engine for one function.
///
/// Construction runs counted-loop recognition for every loop; the affine
/// forms of instructions are memoised, found through tables indexed by
/// instruction id, and an operand's form is read in place, never copied.
pub struct ScalarEvolution<'f> {
    func: &'f Function,
    forest: &'f LoopForest,
    memo: ScevMemo,
}

/// The tables of a [`ScalarEvolution`], kept by a
/// [`Workspace`](crate::Workspace) between functions.
#[derive(Default)]
pub(crate) struct ScevMemo {
    /// Indexed by loop id.
    counted: Vec<Option<CountedLoop>>,
    /// Indexed by instruction id: [`UNSEEN`] until computed, then the
    /// form's position in `ints`, or [`NO_FORM`] — also while the form is
    /// being computed, which cuts cycles through malformed IR. Four bytes
    /// an instruction, so building an engine clears little.
    int_at: Vec<u32>,
    ints: Vec<Affine>,
    /// [`ScevMemo::int_at`] and [`ScevMemo::ints`] for pointer forms.
    ptr_at: Vec<u32>,
    ptrs: Vec<PtrAffine>,
    /// The forms being computed, innermost last, with the number of their
    /// operands already memoised: the walk keeps its own stack, so an
    /// operand chain as deep as the function is long costs no thread stack.
    stack: Vec<(Form, InstId, u8)>,
}

/// Which memo a form goes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Form {
    Int,
    Ptr,
}

/// A memo slot not computed yet.
const UNSEEN: u32 = u32::MAX;
/// A memo slot without a form, or whose form is being computed.
const NO_FORM: u32 = u32::MAX - 1;

impl<'f> ScalarEvolution<'f> {
    /// Builds the engine; `cfg`, `dom` and `forest` must describe `func`.
    pub fn new(func: &'f Function, cfg: &Cfg, _dom: &DomTree, forest: &'f LoopForest) -> Self {
        ScalarEvolution::with_memo(ScevMemo::default(), func, cfg, forest)
    }

    /// [`ScalarEvolution::new`] on tables left by another function.
    pub(crate) fn with_memo(
        mut memo: ScevMemo,
        func: &'f Function,
        cfg: &Cfg,
        forest: &'f LoopForest,
    ) -> Self {
        memo.counted.clear();
        memo.counted.extend(forest.loops().map(|(id, _)| recognize_counted(func, cfg, forest, id)));
        memo.int_at.clear();
        memo.int_at.resize(func.num_insts(), UNSEEN);
        memo.ints.clear();
        memo.ptr_at.clear();
        memo.ptr_at.resize(func.num_insts(), UNSEEN);
        memo.ptrs.clear();
        memo.stack.clear();
        ScalarEvolution { func, forest, memo }
    }

    /// The engine's tables, for the next function.
    pub(crate) fn into_memo(self) -> ScevMemo {
        self.memo
    }

    /// The recognised counted loop for `id`, if recognition succeeded.
    pub fn counted(&self, id: LoopId) -> Option<&CountedLoop> {
        self.memo.counted.get(id.0 as usize)?.as_ref()
    }

    /// Affine form of an integer value, if one exists.
    pub fn affine_of(&mut self, v: Value) -> Option<Affine> {
        self.memoise_form(Form::Int, v);
        self.affine_in_place(v).map(Cow::into_owned)
    }

    /// Marks the `form` slot of `id` as being computed; `false` when it was
    /// seen before.
    fn begin(&mut self, form: Form, id: InstId) -> bool {
        let at = match form {
            Form::Int => &mut self.memo.int_at[id.0 as usize],
            Form::Ptr => &mut self.memo.ptr_at[id.0 as usize],
        };
        (*at == UNSEEN).then(|| *at = NO_FORM).is_some()
    }

    /// The `k`-th operand whose form the `form` of `id` is built from:
    /// both sides of a binary instruction, a negation's operand, a
    /// `ptradd`'s base pointer and offset.
    fn operand(&self, form: Form, id: InstId, k: u8) -> Option<(Form, Value)> {
        let kind = &self.func.inst(id).kind;
        match (form, kind, k) {
            (Form::Int, InstKind::Binary { lhs, .. }, 0) => Some((Form::Int, *lhs)),
            (Form::Int, InstKind::Binary { rhs, .. }, 1) => Some((Form::Int, *rhs)),
            (Form::Int, InstKind::Unary { op: UnOp::INeg, operand }, 0) => {
                Some((Form::Int, *operand))
            }
            (Form::Ptr, InstKind::PtrAdd { base, .. }, 0) => Some((Form::Ptr, *base)),
            (Form::Ptr, InstKind::PtrAdd { offset, .. }, 1) => Some((Form::Int, *offset)),
            _ => None,
        }
    }

    /// Computes and records the `form` of `v` and of every operand it is
    /// built from, depth first in operand order: a form is computed once
    /// its operands' are, and a slot being computed reads as no form, which
    /// cuts cycles through malformed IR.
    fn memoise_form(&mut self, form: Form, v: Value) {
        let Value::Inst(id) = v else { return };
        if !self.begin(form, id) {
            return;
        }
        let mut stack = std::mem::take(&mut self.memo.stack);
        stack.push((form, id, 0));
        while let Some(&(form, id, k)) = stack.last() {
            if let Some((operand_form, operand)) = self.operand(form, id, k) {
                stack.last_mut().expect("not empty").2 += 1;
                if let Value::Inst(op) = operand {
                    if self.begin(operand_form, op) {
                        stack.push((operand_form, op, 0));
                    }
                }
                continue;
            }
            stack.pop();
            match form {
                Form::Int => {
                    if let Some(f) = self.affine_of_inst(id) {
                        self.memo.int_at[id.0 as usize] = self.memo.ints.len() as u32;
                        self.memo.ints.push(f);
                    }
                }
                Form::Ptr => {
                    if let Some(f) = self.pointer_of_inst(id) {
                        self.memo.ptr_at[id.0 as usize] = self.memo.ptrs.len() as u32;
                        self.memo.ptrs.push(f);
                    }
                }
            }
        }
        self.memo.stack = stack;
    }

    /// The affine form of `v`, borrowed from the memo for an instruction
    /// (which [`ScalarEvolution::memoise_form`] has recorded).
    fn affine_in_place(&self, v: Value) -> Option<Cow<'_, Affine>> {
        match v {
            Value::Inst(id) => {
                self.memo.ints.get(self.memo.int_at[id.0 as usize] as usize).map(Cow::Borrowed)
            }
            Value::ConstI64(c) => Some(Cow::Owned(Affine::constant(c))),
            Value::ConstBool(_) | Value::ConstF64(_) | Value::Global(_) => None,
            Value::Arg(i) => Some(Cow::Owned(Affine::var(AffineVar::Param(i)))),
            Value::BlockParam { block, index } => {
                // Is this the IV of a recognised counted loop?
                let lp = self.forest.loop_with_header(block)?;
                let c = self.counted(lp)?;
                (c.iv_index == index).then(|| Cow::Owned(Affine::var(AffineVar::Iv(lp))))
            }
        }
    }

    /// The affine form of `id`, from the memoised forms of its operands.
    fn affine_of_inst(&self, id: InstId) -> Option<Affine> {
        match self.func.inst(id).kind {
            InstKind::Binary { op, lhs, rhs } => {
                let (l, r) = (self.affine_in_place(lhs)?, self.affine_in_place(rhs)?);
                match op {
                    BinOp::IAdd => Some(l.add(&r)),
                    BinOp::ISub => Some(l.sub(&r)),
                    BinOp::IMul => l.mul(&r),
                    BinOp::Shl => {
                        let k = r.as_const()?;
                        if (0..63).contains(&k) {
                            Some(l.scale(1i64 << k))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            InstKind::Unary { op: UnOp::INeg, operand } => {
                Some(self.affine_in_place(operand)?.scale(-1))
            }
            _ => None,
        }
    }

    /// Affine pointer form of a `ptr` value, if one exists.
    pub fn pointer_of(&mut self, v: Value) -> Option<PtrAffine> {
        self.memoise_form(Form::Ptr, v);
        self.pointer_in_place(v).map(Cow::into_owned)
    }

    /// [`ScalarEvolution::affine_in_place`] for pointer forms.
    fn pointer_in_place(&self, v: Value) -> Option<Cow<'_, PtrAffine>> {
        match v {
            Value::Global(g) => {
                Some(Cow::Owned(PtrAffine { base: g, offset: Affine::constant(0) }))
            }
            Value::Inst(id) => {
                self.memo.ptrs.get(self.memo.ptr_at[id.0 as usize] as usize).map(Cow::Borrowed)
            }
            _ => None,
        }
    }

    /// The pointer form of `id`, from the memoised forms of its operands.
    fn pointer_of_inst(&self, id: InstId) -> Option<PtrAffine> {
        let InstKind::PtrAdd { base, offset } = self.func.inst(id).kind else { return None };
        let (b, o) = (self.pointer_in_place(base)?, self.affine_in_place(offset)?);
        Some(PtrAffine { base: b.base, offset: b.offset.add(&o) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type};

    fn engine(func: &Function) -> (Cfg, DomTree, LoopForest) {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        let forest = LoopForest::new(func, &cfg, &dom);
        (cfg, dom, forest)
    }

    #[test]
    fn affine_arithmetic() {
        let a = Affine::var(AffineVar::Param(0));
        let b = Affine::var(AffineVar::Param(1));
        let e = a.scale(3).add(&b).add(&Affine::constant(5));
        assert_eq!(e.coeff(AffineVar::Param(0)), 3);
        assert_eq!(e.coeff(AffineVar::Param(1)), 1);
        assert_eq!(e.constant, 5);
        let d = e.sub(&e);
        assert!(d.is_const());
        assert_eq!(d.as_const(), Some(0));
    }

    #[test]
    fn mul_requires_constant_side() {
        let a = Affine::var(AffineVar::Param(0));
        assert_eq!(a.mul(&Affine::constant(4)), Some(a.scale(4)));
        assert_eq!(a.mul(&a), None);
    }

    #[test]
    fn substitute_rewrites_var() {
        // 2*iv + 1 with iv := p + 3  ==>  2*p + 7
        let lp = LoopId(0);
        let e = Affine::var(AffineVar::Iv(lp)).scale(2).add(&Affine::constant(1));
        let repl = Affine::var(AffineVar::Param(0)).add(&Affine::constant(3));
        let out = e.substitute(AffineVar::Iv(lp), &repl);
        assert_eq!(out.coeff(AffineVar::Param(0)), 2);
        assert_eq!(out.constant, 7);
        assert_eq!(out.coeff(AffineVar::Iv(lp)), 0);
    }

    #[test]
    fn recognises_affine_row_major_access() {
        // for i in 0..n: for j in 0..n: touch a[i*64 + j]  (N = 64 elems/row)
        let mut m = dae_ir::Module::new();
        let g = m.add_global("a", Type::F64, 64 * 64);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        let mut addr_val = None;
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, j| {
                let row = b.imul(i, 64i64);
                let idx = b.iadd(row, j);
                let addr = b.elem_addr(Value::Global(g), idx, Type::F64);
                addr_val = Some(addr);
                let _ = b.load(Type::F64, addr);
            });
        });
        b.ret(None);
        let f = b.finish();
        let (cfg, dom, forest) = engine(&f);
        let mut scev = ScalarEvolution::new(&f, &cfg, &dom, &forest);
        let p = scev.pointer_of(addr_val.unwrap()).expect("affine pointer");
        assert_eq!(p.base, g);
        // offset = 8*(64*i + j) = 512*i + 8*j
        let ivs: Vec<AffineVar> = p.offset.vars().collect();
        assert_eq!(ivs.len(), 2);
        let coeffs: Vec<i64> = ivs.iter().map(|v| p.offset.coeff(*v)).collect();
        let mut sorted = coeffs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![8, 512]);
        assert_eq!(p.offset.constant, 0);
    }

    #[test]
    fn data_dependent_address_is_not_affine() {
        // touch a[b[i]] — the classic non-affine indirection (CG/LibQ style).
        let mut m = dae_ir::Module::new();
        let a = m.add_global("a", Type::F64, 128);
        let idx = m.add_global("b", Type::I64, 128);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        let mut addr_val = None;
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let ia = b.elem_addr(Value::Global(idx), i, Type::I64);
            let iv = b.load(Type::I64, ia);
            let addr = b.elem_addr(Value::Global(a), iv, Type::F64);
            addr_val = Some(addr);
            let _ = b.load(Type::F64, addr);
        });
        b.ret(None);
        let f = b.finish();
        let (cfg, dom, forest) = engine(&f);
        let mut scev = ScalarEvolution::new(&f, &cfg, &dom, &forest);
        assert!(scev.pointer_of(addr_val.unwrap()).is_none());
    }

    #[test]
    fn params_stay_symbolic() {
        // touch a[base + i] with `base` a task parameter (Listing 3 pattern).
        let mut m = dae_ir::Module::new();
        let a = m.add_global("a", Type::F64, 4096);
        let mut b = FunctionBuilder::new("t", vec![Type::I64, Type::I64], Type::Void);
        let mut addr_val = None;
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let idx = b.iadd(Value::Arg(1), i);
            let addr = b.elem_addr(Value::Global(a), idx, Type::F64);
            addr_val = Some(addr);
            let _ = b.load(Type::F64, addr);
        });
        b.ret(None);
        let f = b.finish();
        let (cfg, dom, forest) = engine(&f);
        let mut scev = ScalarEvolution::new(&f, &cfg, &dom, &forest);
        let p = scev.pointer_of(addr_val.unwrap()).expect("affine");
        assert_eq!(p.offset.coeff(AffineVar::Param(1)), 8);
    }

    #[test]
    fn display_is_readable() {
        let e = Affine::var(AffineVar::Param(0)).scale(2).add(&Affine::constant(-3));
        assert_eq!(e.to_string(), "2*Param(0) - 3");
        assert_eq!(Affine::constant(0).to_string(), "0");
    }
}
