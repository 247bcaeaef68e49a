//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] keeps a current insertion block and offers one method
//! per instruction plus structured-control-flow helpers ([`FunctionBuilder::counted_loop`],
//! [`FunctionBuilder::while_loop`], [`FunctionBuilder::if_then`]) that create
//! the header/body/exit block plumbing with SSA block parameters. All
//! workloads in this repository are built through this API.

use crate::function::Function;
use crate::inst::{BinOp, BlockCall, CmpOp, InstKind, Terminator, UnOp};
use crate::types::Type;
use crate::value::{BlockId, FuncId, Value};

/// Incremental builder for one [`Function`].
///
/// # Examples
///
/// ```
/// use dae_ir::{FunctionBuilder, Type, Value};
///
/// // fn double_sum(n: i64) -> i64 { let mut s = 0; for i in 0..n { s += 2*i; } s }
/// let mut b = FunctionBuilder::new("double_sum", vec![Type::I64], Type::I64);
/// let n = Value::Arg(0);
/// let sums = b.counted_loop_carried(0i64.into(), n, 1i64.into(), vec![0i64.into()], |b, i, carried| {
///     let twice = b.imul(i, 2i64);
///     vec![b.iadd(carried[0], twice)]
/// });
/// b.ret(Some(sums[0]));
/// let func = b.finish();
/// assert!(func.num_blocks() >= 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Starts building a function; the insertion point is its entry block.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Self {
        let func = Function::new(name, params, ret);
        let cur = func.entry;
        FunctionBuilder { func, cur }
    }

    /// Consumes the builder, returning the finished function.
    ///
    /// # Panics
    ///
    /// Panics if the current block has no terminator (every path must end in
    /// `ret`/`jump`/`branch`).
    pub fn finish(self) -> Function {
        assert!(
            self.func.block(self.cur).term.is_some(),
            "function {}: current block {} left unterminated",
            self.func.name,
            self.cur
        );
        self.func
    }

    /// Moves the insertion point.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = block;
    }

    /// Creates a fresh empty block (does not move the insertion point).
    pub fn create_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Adds an SSA parameter to `block`.
    pub fn block_param(&mut self, block: BlockId, ty: Type) -> Value {
        self.func.add_block_param(block, ty)
    }

    /// Marks the function as a schedulable task.
    pub fn set_task(&mut self) {
        self.func.is_task = true;
    }

    fn push(&mut self, kind: InstKind, ty: Type) -> Value {
        let id = self.func.create_inst(kind, ty);
        self.func.append_inst(self.cur, id);
        Value::Inst(id)
    }

    /// Emits a binary operation.
    pub fn binary(&mut self, op: BinOp, lhs: impl Into<Value>, rhs: impl Into<Value>) -> Value {
        let ty = op.result_type();
        self.push(InstKind::Binary { op, lhs: lhs.into(), rhs: rhs.into() }, ty)
    }

    /// Emits a unary operation.
    pub fn unary(&mut self, op: UnOp, operand: impl Into<Value>) -> Value {
        let ty = op.result_type();
        self.push(InstKind::Unary { op, operand: operand.into() }, ty)
    }

    /// Integer add.
    pub fn iadd(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::IAdd, a, b)
    }
    /// Integer subtract.
    pub fn isub(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::ISub, a, b)
    }
    /// Integer multiply.
    pub fn imul(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::IMul, a, b)
    }
    /// Integer divide.
    pub fn idiv(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::IDiv, a, b)
    }
    /// Integer remainder.
    pub fn irem(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::IRem, a, b)
    }
    /// Bitwise and.
    pub fn and(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::And, a, b)
    }
    /// Bitwise xor.
    pub fn xor(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::Xor, a, b)
    }
    /// Float add.
    pub fn fadd(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::FAdd, a, b)
    }
    /// Float subtract.
    pub fn fsub(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::FSub, a, b)
    }
    /// Float multiply.
    pub fn fmul(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::FMul, a, b)
    }
    /// Float divide.
    pub fn fdiv(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.binary(BinOp::FDiv, a, b)
    }
    /// Float square root.
    pub fn fsqrt(&mut self, a: impl Into<Value>) -> Value {
        self.unary(UnOp::FSqrt, a)
    }
    /// Convert i64 → f64.
    pub fn itof(&mut self, a: impl Into<Value>) -> Value {
        self.unary(UnOp::IToF, a)
    }
    /// Convert f64 → i64.
    pub fn ftoi(&mut self, a: impl Into<Value>) -> Value {
        self.unary(UnOp::FToI, a)
    }

    /// Comparison producing a `bool`.
    pub fn cmp(&mut self, op: CmpOp, lhs: impl Into<Value>, rhs: impl Into<Value>) -> Value {
        self.push(InstKind::Cmp { op, lhs: lhs.into(), rhs: rhs.into() }, Type::Bool)
    }

    /// `cond ? t : e`; the operand types must match.
    pub fn select(
        &mut self,
        cond: impl Into<Value>,
        t: impl Into<Value>,
        e: impl Into<Value>,
    ) -> Value {
        let t = t.into();
        let ty = self.func.value_type(t);
        self.push(InstKind::Select { cond: cond.into(), then_value: t, else_value: e.into() }, ty)
    }

    /// Pointer plus byte offset.
    pub fn ptr_add(&mut self, base: impl Into<Value>, offset: impl Into<Value>) -> Value {
        self.push(InstKind::PtrAdd { base: base.into(), offset: offset.into() }, Type::Ptr)
    }

    /// Address of the `index`-th element of a typed array starting at `base`.
    ///
    /// Scales `index` by `elem_ty.size_bytes()`.
    pub fn elem_addr(
        &mut self,
        base: impl Into<Value>,
        index: impl Into<Value>,
        elem_ty: Type,
    ) -> Value {
        let scaled = self.imul(index, elem_ty.size_bytes() as i64);
        self.ptr_add(base, scaled)
    }

    /// Typed load.
    pub fn load(&mut self, ty: Type, addr: impl Into<Value>) -> Value {
        self.push(InstKind::Load { addr: addr.into() }, ty)
    }

    /// Store.
    pub fn store(&mut self, addr: impl Into<Value>, value: impl Into<Value>) {
        self.push(InstKind::Store { addr: addr.into(), value: value.into() }, Type::Void);
    }

    /// Software prefetch.
    pub fn prefetch(&mut self, addr: impl Into<Value>) {
        self.push(InstKind::Prefetch { addr: addr.into() }, Type::Void);
    }

    /// Call; `ret` must be the callee's return type. Returns `None` for void
    /// callees.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>, ret: Type) -> Option<Value> {
        let v = self.push(InstKind::Call { callee, args }, ret);
        if ret == Type::Void {
            None
        } else {
            Some(v)
        }
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, dest: BlockId, args: Vec<Value>) {
        self.func.set_terminator(self.cur, Terminator::Jump(BlockCall::with_args(dest, args)));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(
        &mut self,
        cond: impl Into<Value>,
        then_dest: BlockId,
        then_args: Vec<Value>,
        else_dest: BlockId,
        else_args: Vec<Value>,
    ) {
        self.func.set_terminator(
            self.cur,
            Terminator::Branch {
                cond: cond.into(),
                then_dest: BlockCall::with_args(then_dest, then_args),
                else_dest: BlockCall::with_args(else_dest, else_args),
            },
        );
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.func.set_terminator(self.cur, Terminator::Ret(value));
    }

    /// Builds `for (i = lo; i < hi; i += step) body(i)` and leaves the
    /// insertion point in the loop exit.
    pub fn counted_loop(
        &mut self,
        lo: Value,
        hi: Value,
        step: Value,
        body: impl FnOnce(&mut Self, Value),
    ) {
        self.counted_loop_carried(lo, hi, step, vec![], |b, i, _| {
            body(b, i);
            vec![]
        });
    }

    /// Builds a counted loop with loop-carried SSA values.
    ///
    /// `init` supplies the entry values of the carried slots; `body` receives
    /// the induction variable and the current carried values and returns the
    /// next-iteration values (same arity). The final carried values are
    /// returned and usable after the loop.
    pub fn counted_loop_carried(
        &mut self,
        lo: Value,
        hi: Value,
        step: Value,
        init: Vec<Value>,
        body: impl FnOnce(&mut Self, Value, &[Value]) -> Vec<Value>,
    ) -> Vec<Value> {
        let carried_tys: Vec<Type> = init.iter().map(|v| self.func.value_type(*v)).collect();
        let header = self.create_block();
        let body_bb = self.create_block();
        let exit = self.create_block();

        let iv = self.block_param(header, Type::I64);
        let carried: Vec<Value> =
            carried_tys.iter().map(|ty| self.func.add_block_param(header, *ty)).collect();

        // entry -> header(lo, init...)
        let mut entry_args = vec![lo];
        entry_args.extend(init);
        self.jump(header, entry_args);

        // header: if iv < hi goto body else exit(carried...)
        self.switch_to(header);
        let cond = self.cmp(CmpOp::Lt, iv, hi);
        self.branch(cond, body_bb, vec![], exit, carried.clone());

        // exit params mirror the carried slots
        let exit_vals: Vec<Value> =
            carried_tys.iter().map(|ty| self.func.add_block_param(exit, *ty)).collect();

        // body
        self.switch_to(body_bb);
        let next = body(self, iv, &carried);
        assert_eq!(next.len(), carried.len(), "carried arity mismatch");
        let next_iv = self.iadd(iv, step);
        let mut back_args = vec![next_iv];
        back_args.extend(next);
        self.jump(header, back_args);

        self.switch_to(exit);
        exit_vals
    }

    /// Builds a general `while` loop with loop-carried state.
    ///
    /// `init` supplies entry values; `cond` is evaluated in the header over
    /// the carried values; `body` returns next-iteration values. Returns the
    /// carried values as visible after the loop.
    pub fn while_loop(
        &mut self,
        init: Vec<Value>,
        cond: impl FnOnce(&mut Self, &[Value]) -> Value,
        body: impl FnOnce(&mut Self, &[Value]) -> Vec<Value>,
    ) -> Vec<Value> {
        let carried_tys: Vec<Type> = init.iter().map(|v| self.func.value_type(*v)).collect();
        let header = self.create_block();
        let body_bb = self.create_block();
        let exit = self.create_block();

        let carried: Vec<Value> =
            carried_tys.iter().map(|ty| self.func.add_block_param(header, *ty)).collect();
        self.jump(header, init);

        self.switch_to(header);
        let c = cond(self, &carried);
        self.branch(c, body_bb, vec![], exit, carried.clone());

        let exit_vals: Vec<Value> =
            carried_tys.iter().map(|ty| self.func.add_block_param(exit, *ty)).collect();

        self.switch_to(body_bb);
        let next = body(self, &carried);
        assert_eq!(next.len(), carried.len(), "carried arity mismatch");
        self.jump(header, next);

        self.switch_to(exit);
        exit_vals
    }

    /// Builds `if (cond) { then() }` with a join block; the insertion point
    /// ends in the join block.
    pub fn if_then(&mut self, cond: Value, then: impl FnOnce(&mut Self)) {
        let then_bb = self.create_block();
        let join = self.create_block();
        self.branch(cond, then_bb, vec![], join, vec![]);
        self.switch_to(then_bb);
        then(self);
        self.jump(join, vec![]);
        self.switch_to(join);
    }

    /// Builds `cond ? then() : else()` where each arm produces values of the
    /// same types, merged as join-block parameters.
    pub fn if_then_else(
        &mut self,
        cond: Value,
        result_tys: Vec<Type>,
        then: impl FnOnce(&mut Self) -> Vec<Value>,
        els: impl FnOnce(&mut Self) -> Vec<Value>,
    ) -> Vec<Value> {
        let then_bb = self.create_block();
        let else_bb = self.create_block();
        let join = self.create_block();
        let join_vals: Vec<Value> =
            result_tys.iter().map(|ty| self.func.add_block_param(join, *ty)).collect();
        self.branch(cond, then_bb, vec![], else_bb, vec![]);

        self.switch_to(then_bb);
        let tv = then(self);
        assert_eq!(tv.len(), join_vals.len(), "then arity mismatch");
        self.jump(join, tv);

        self.switch_to(else_bb);
        let ev = els(self);
        assert_eq!(ev.len(), join_vals.len(), "else arity mismatch");
        self.jump(join, ev);

        self.switch_to(join);
        join_vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straightline() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64, Type::I64], Type::I64);
        let s = b.iadd(Value::Arg(0), Value::Arg(1));
        let p = b.imul(s, 3i64);
        b.ret(Some(p));
        let f = b.finish();
        assert_eq!(f.placed_inst_count(), 2);
    }

    #[test]
    fn counted_loop_shape() {
        let mut b = FunctionBuilder::new("loop", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let _ = b.imul(i, i);
        });
        b.ret(None);
        let f = b.finish();
        // entry + header + body + exit
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn carried_values_flow_to_exit() {
        let mut b = FunctionBuilder::new("sum", vec![Type::I64], Type::I64);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(Some(out[0]));
        let f = b.finish();
        // exit block carries one param
        match out[0] {
            Value::BlockParam { .. } => {}
            v => panic!("expected block param, got {v:?}"),
        }
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn if_then_else_merges() {
        let mut b = FunctionBuilder::new("max", vec![Type::I64, Type::I64], Type::I64);
        let c = b.cmp(CmpOp::Gt, Value::Arg(0), Value::Arg(1));
        let m =
            b.if_then_else(c, vec![Type::I64], |_| vec![Value::Arg(0)], |_| vec![Value::Arg(1)]);
        b.ret(Some(m[0]));
        let f = b.finish();
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    #[should_panic(expected = "carried arity mismatch")]
    fn arity_mismatch_panics() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.counted_loop_carried(
            Value::i64(0),
            Value::i64(4),
            Value::i64(1),
            vec![Value::i64(0)],
            |_, _, _| vec![],
        );
    }

    #[test]
    #[should_panic(expected = "left unterminated")]
    fn finish_requires_terminator() {
        let b = FunctionBuilder::new("open", vec![], Type::Void);
        let _ = b.finish();
    }

    #[test]
    fn while_loop_shape() {
        let mut b = FunctionBuilder::new("w", vec![Type::I64], Type::I64);
        let out = b.while_loop(
            vec![Value::Arg(0)],
            |b, c| b.cmp(CmpOp::Gt, c[0], 0i64),
            |b, c| vec![b.isub(c[0], 1i64)],
        );
        b.ret(Some(out[0]));
        let f = b.finish();
        assert_eq!(f.num_blocks(), 4);
    }
}
