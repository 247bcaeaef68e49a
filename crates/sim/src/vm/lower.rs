//! Lowering: one [`Function`] → one [`CompiledFunc`], a flat bytecode
//! program over a dense virtual-register frame.
//!
//! # Frame layout
//!
//! One contiguous slot region per activation, carved out of the machine's
//! shared frame stack:
//!
//! ```text
//! [ args | block params (contiguous per block) | one slot per inst | temp | consts ]
//! ```
//!
//! Every [`Value`] resolves to a frame index at lower time; constants
//! (including resolved global addresses — the memory layout of a module is
//! fixed at machine construction) are deduplicated into a pool that is
//! copied into the frame tail on entry. The single `temp` slot breaks
//! parallel-move cycles.
//!
//! # Accounting fidelity
//!
//! Lowering decides *statically* everything the tree-walker decides per
//! dynamic instruction: whether an op folds into an addressing mode
//! (`ptradd`, power-of-two-scale `imul`), which trace counters it bumps,
//! and in which order its operands fail on type errors. Fused super-ops
//! carry every constituent's accounting and perform every constituent's
//! step-budget check, so a run that exhausts its budget *between* the
//! parts stops at exactly the same step as the tree-walker.
//!
//! # Super-ops
//!
//! A super-op is a chain of *adjacent* instructions of one block, chosen
//! from the corpus's measured dynamic op pairs (EXPERIMENTS.md,
//! "Dispatch-loop components"), matched with one look at the next
//! instruction:
//!
//! | super-op | constituents | steps | counters |
//! |---|---|---|---|
//! | `CmpBr` | `cmp` → the block's own `br` on it | 2 | 2 `instrs`, 1 `branches` |
//! | `AddJump` | `iadd` (last in block) → `jump` | 2 | 2 `instrs`, 1 `branches` |
//! | `ScaleAdd` | `imul x, 1/2/4/8` → `ptradd base, %mul` | 2 | 2 `addr_ops` |
//! | `ScaleAddLoadF/I` | … → `load` f64/i64 of that address | 3 | 2 `addr_ops`, 1 `instrs`, 1 `loads` |
//! | `MulAdd` | `imul` → `iadd` with it as an operand | 2 | 2 `instrs` (1 `addr_ops` + 1 `instrs` when the multiply folds) |
//!
//! Every intermediate result is still written to its own slot (later
//! code may read it), in program order: a fused form reads an operand
//! only after the constituents before it have stored theirs. The
//! operand-failure order is the tree-walker's because the value handed
//! from one constituent to the next is always fresh and of the right
//! type — only the *other* operands can fail, one per constituent.
//! Shapes that look alike but are not listed stay unfused on purpose: a
//! multiply used as the `ptradd`'s *base* (an integer where a pointer
//! must be — the plain `PtrAdd` reports it), a consumer that is not the
//! next instruction, a multiply that does not fold, an `iadd` that is its
//! block's `AddJump`, loads of `ptr`/`bool` (generic `Load`).

use std::collections::HashMap;

use super::LowerSpan;
use crate::interp::Slot;
use crate::memory::{Memory, Val};
use dae_ir::{
    BinOp, BlockCall, BlockId, CmpOp, FuncId, Function, InstId, InstKind, Terminator, Type, UnOp,
    Value,
};

/// A pooled parallel-move step: `frame[dst] = frame[src]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Move {
    /// Source frame index.
    pub(crate) src: u32,
    /// Destination frame index.
    pub(crate) dst: u32,
}

/// `(start, len)` range into a [`CompiledFunc`] side pool.
pub(crate) type PoolRange = (u32, u32);

/// One pre-resolved bytecode operation. All operands are frame indices;
/// all targets are instruction offsets (after patching).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// A binary ALU op. `folded` marks power-of-two-scale multiplies that
    /// fold into an addressing mode (counted as `addr_ops`). Only the cold
    /// binops reach this generic form — the hot ones lower to the
    /// specialised single-dispatch variants below.
    Bin { op: BinOp, a: u32, b: u32, dst: u32, folded: bool },
    /// Specialised `BinOp::IAdd`: the opcode dispatch IS the op dispatch,
    /// no second jump table per executed instruction.
    IAdd { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::ISub`.
    ISub { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::IMul` (keeps the addressing-mode `folded` bit).
    IMul { a: u32, b: u32, dst: u32, folded: bool },
    /// Specialised `BinOp::And`.
    IAnd { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::Or`.
    IOr { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::Xor`.
    IXor { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::Shl`.
    IShl { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::AShr`.
    IAShr { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::FAdd`.
    FAdd { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::FSub`.
    FSub { a: u32, b: u32, dst: u32 },
    /// Specialised `BinOp::FMul`.
    FMul { a: u32, b: u32, dst: u32 },
    /// A unary op.
    Un { op: UnOp, a: u32, dst: u32 },
    /// A comparison producing a bool.
    Cmp { op: CmpOp, a: u32, b: u32, dst: u32 },
    /// A select between two already-computed slots.
    Select { cond: u32, then_s: u32, else_s: u32, dst: u32 },
    /// Pointer arithmetic (always folded: `addr_ops`).
    PtrAdd { base: u32, offset: u32, dst: u32 },
    /// A demand load (generic over the loaded type; the common F64/I64
    /// loads lower to the specialised variants below).
    Load { ty: Type, addr: u32, dst: u32 },
    /// Specialised `Load` of an `F64`.
    LoadF { addr: u32, dst: u32 },
    /// Specialised `Load` of an `I64`.
    LoadI { addr: u32, dst: u32 },
    /// A store.
    Store { addr: u32, value: u32 },
    /// A software prefetch hint.
    Prefetch { addr: u32 },
    /// A call; `args` ranges into the call-args pool (caller frame
    /// indices), `dst` receives the callee's result if it returns one.
    Call { callee: FuncId, args: PoolRange, dst: u32 },
    /// An unconditional jump: apply `moves`, continue at `target`.
    Jump { target: u32, moves: PoolRange },
    /// A conditional branch on the bool in `cond`.
    Branch {
        cond: u32,
        then_target: u32,
        then_moves: PoolRange,
        else_target: u32,
        else_moves: PoolRange,
    },
    /// Return, optionally with a value slot.
    Ret { val: Option<u32> },
    /// Fused compare+branch: the block's final compare feeding its own
    /// terminator. Still writes the compare result to `dst` (dominated
    /// blocks may use it) and performs both constituents' step checks.
    CmpBr {
        op: CmpOp,
        a: u32,
        b: u32,
        dst: u32,
        then_target: u32,
        then_moves: PoolRange,
        else_target: u32,
        else_moves: PoolRange,
    },
    /// Fused counter-increment+back-edge: an integer add as the block's
    /// final instruction, followed by an unconditional jump.
    AddJump { a: u32, b: u32, dst: u32, target: u32, moves: PoolRange },
    /// Fused element address: a folded scale multiply (`idx * 1/2/4/8`,
    /// held as `idx << shift`) immediately consumed as the *offset* of the
    /// next instruction's `ptradd`. Writes the product to `mul_dst` and the
    /// address to `dst`; both constituents count as `addr_ops`.
    ScaleAdd { idx: u32, shift: u32, mul_dst: u32, base: u32, dst: u32 },
    /// `ScaleAdd` whose address (`ptr_dst`) the third instruction loads as
    /// an `F64`: three constituents, three step checks.
    ScaleAddLoadF { idx: u32, shift: u32, mul_dst: u32, base: u32, ptr_dst: u32, dst: u32 },
    /// `ScaleAddLoadF` for an `I64` load.
    ScaleAddLoadI { idx: u32, shift: u32, mul_dst: u32, base: u32, ptr_dst: u32, dst: u32 },
    /// Fused multiply+add: an `imul` (result in `mul_dst`) immediately
    /// consumed by the next instruction's `iadd`, whose other operand is
    /// `c` (`mul_dst` itself for `iadd %m, %m`). `folded` as in `IMul`.
    MulAdd { a: u32, b: u32, mul_dst: u32, c: u32, dst: u32, folded: bool },
}

impl Op {
    /// Index into [`LowerSpan::FUSED_OPS`] when this is a super-op.
    /// Exhaustive on purpose: a new variant must say which it is.
    fn fused_kind(&self) -> Option<usize> {
        match self {
            Op::CmpBr { .. } => Some(0),
            Op::AddJump { .. } => Some(1),
            Op::ScaleAdd { .. } => Some(2),
            Op::ScaleAddLoadF { .. } => Some(3),
            Op::ScaleAddLoadI { .. } => Some(4),
            Op::MulAdd { .. } => Some(5),
            Op::Bin { .. }
            | Op::IAdd { .. }
            | Op::ISub { .. }
            | Op::IMul { .. }
            | Op::IAnd { .. }
            | Op::IOr { .. }
            | Op::IXor { .. }
            | Op::IShl { .. }
            | Op::IAShr { .. }
            | Op::FAdd { .. }
            | Op::FSub { .. }
            | Op::FMul { .. }
            | Op::Un { .. }
            | Op::Cmp { .. }
            | Op::Select { .. }
            | Op::PtrAdd { .. }
            | Op::Load { .. }
            | Op::LoadF { .. }
            | Op::LoadI { .. }
            | Op::Store { .. }
            | Op::Prefetch { .. }
            | Op::Call { .. }
            | Op::Jump { .. }
            | Op::Branch { .. }
            | Op::Ret { .. } => None,
        }
    }
}

/// One function lowered to bytecode. Immutable once built; shared by
/// every activation through an `Rc`.
pub(crate) struct CompiledFunc {
    /// Function name (for trap messages).
    pub(crate) name: String,
    /// Declared parameter count (arity check).
    pub(crate) params: usize,
    /// Total frame slots one activation needs.
    pub(crate) frame_len: usize,
    /// Frame index where the constant pool is copied on entry.
    pub(crate) const_base: usize,
    /// The pooled constants (untainted), global addresses resolved.
    pub(crate) consts: Vec<Slot>,
    /// Instruction offset of the entry block.
    pub(crate) entry_pc: u32,
    /// The flat program.
    pub(crate) ops: Vec<Op>,
    /// Pooled parallel-move sequences, referenced by [`PoolRange`]s.
    pub(crate) moves: Vec<Move>,
    /// Pooled call-argument frame indices, referenced by [`PoolRange`]s.
    pub(crate) call_args: Vec<u32>,
    /// Fused super-ops emitted, per [`LowerSpan::FUSED_OPS`] entry
    /// (telemetry).
    pub(crate) fused_by_op: [u32; LowerSpan::FUSED_OPS.len()],
}

/// Mirrors the tree-walker's x86 addressing-mode folding test: `ptradd`
/// always; `imul` when either operand is a constant 1, 2, 4 or 8.
fn is_folded(kind: &InstKind) -> bool {
    match kind {
        InstKind::PtrAdd { .. } => true,
        InstKind::Binary { op: BinOp::IMul, lhs, rhs } => scaled_index(*lhs, *rhs).is_some(),
        _ => false,
    }
}

/// A folded scale multiply as `(index, shift)`: the operand that is not
/// the constant 1, 2, 4 or 8, and that constant's log2. The constant
/// operand is an `i64` by construction, so the index is the only operand
/// whose type check can fail at run time.
fn scaled_index(lhs: Value, rhs: Value) -> Option<(Value, u32)> {
    let shift = |v: Value| match v.as_i64() {
        Some(k @ (1 | 2 | 4 | 8)) => Some(k.trailing_zeros()),
        _ => None,
    };
    shift(rhs).map(|s| (lhs, s)).or_else(|| shift(lhs).map(|s| (rhs, s)))
}

/// Constant pools up to this size are searched linearly (the corpus's hot
/// functions pool 5–9 constants); a larger one gets a hash index, so a
/// hostile function of n distinct constants still lowers in O(n).
const LINEAR_POOL: usize = 32;

struct Lowerer<'f> {
    func: &'f Function,
    memory: &'f Memory,
    /// Frame index of each block's first parameter slot.
    param_base: Vec<u32>,
    inst_base: u32,
    temp: u32,
    const_base: u32,
    consts: Vec<Slot>,
    /// The `Value` behind each pooled constant, parallel to `consts`.
    const_vals: Vec<Value>,
    /// Pool positions by value; empty until the pool outgrows
    /// [`LINEAR_POOL`].
    const_ix: HashMap<Value, u32>,
    ops: Vec<Op>,
    moves: Vec<Move>,
    call_args: Vec<u32>,
    /// Instruction offset of each block (targets are patched from this).
    block_pc: Vec<u32>,
}

/// Lowers `func` against the machine's memory (whose global layout is
/// fixed for the machine's lifetime, so global addresses pool as
/// constants).
pub(crate) fn lower(func: &Function, memory: &Memory) -> CompiledFunc {
    let nargs = func.params.len() as u32;
    let mut param_base = Vec::with_capacity(func.num_blocks());
    let mut next = nargs;
    for b in 0..func.num_blocks() {
        param_base.push(next);
        next += func.block(BlockId(b as u32)).params.len() as u32;
    }
    let inst_base = next;
    let temp = inst_base + func.num_insts() as u32;
    let const_base = temp + 1;
    let mut l = Lowerer {
        func,
        memory,
        param_base,
        inst_base,
        temp,
        const_base,
        consts: Vec::new(),
        const_vals: Vec::new(),
        const_ix: HashMap::new(),
        ops: Vec::with_capacity(func.num_insts() + func.num_blocks()),
        moves: Vec::new(),
        call_args: Vec::new(),
        block_pc: vec![0; func.num_blocks()],
    };
    for b in 0..func.num_blocks() {
        l.lower_block(BlockId(b as u32));
    }
    l.patch_targets();
    let mut fused_by_op = [0; LowerSpan::FUSED_OPS.len()];
    for k in l.ops.iter().filter_map(Op::fused_kind) {
        fused_by_op[k] += 1;
    }
    let cf = CompiledFunc {
        name: func.name.clone(),
        params: func.params.len(),
        frame_len: const_base as usize + l.consts.len(),
        const_base: const_base as usize,
        consts: l.consts,
        entry_pc: l.block_pc[func.entry.0 as usize],
        ops: l.ops,
        moves: l.moves,
        call_args: l.call_args,
        fused_by_op,
    };
    validate(&cf);
    cf
}

/// Checks the in-bounds invariant the execution loop's unchecked indexing
/// relies on: every operand is a frame index below `frame_len`, every
/// branch target (and the entry) is an instruction offset below
/// `ops.len()`, every pool range lies inside its pool, and control can
/// never fall off the end of the program (every fall-through op has a
/// successor because the final op is a terminator).
///
/// Runs once per function per machine — not on the hot path.
///
/// # Panics
///
/// Panics if lowering produced an out-of-bounds reference; that is a bug
/// in this module, never a property of the input program.
fn validate(cf: &CompiledFunc) {
    let flen = cf.frame_len as u32;
    let plen = cf.ops.len() as u32;
    let slot = |s: u32| assert!(s < flen, "{}: frame index {s} out of bounds", cf.name);
    let target = |t: u32| assert!(t < plen, "{}: branch target {t} out of bounds", cf.name);
    let pool = |(s, l): PoolRange, len: usize| {
        assert!((s + l) as usize <= len, "{}: pool range out of bounds", cf.name)
    };
    target(cf.entry_pc);
    assert!(
        matches!(
            cf.ops.last(),
            Some(
                Op::Jump { .. }
                    | Op::Branch { .. }
                    | Op::Ret { .. }
                    | Op::CmpBr { .. }
                    | Op::AddJump { .. }
            )
        ),
        "{}: program must end with a terminator",
        cf.name
    );
    for m in &cf.moves {
        slot(m.src);
        slot(m.dst);
    }
    for &a in &cf.call_args {
        slot(a);
    }
    for op in &cf.ops {
        match *op {
            Op::Bin { a, b, dst, .. }
            | Op::IAdd { a, b, dst }
            | Op::ISub { a, b, dst }
            | Op::IMul { a, b, dst, .. }
            | Op::IAnd { a, b, dst }
            | Op::IOr { a, b, dst }
            | Op::IXor { a, b, dst }
            | Op::IShl { a, b, dst }
            | Op::IAShr { a, b, dst }
            | Op::FAdd { a, b, dst }
            | Op::FSub { a, b, dst }
            | Op::FMul { a, b, dst }
            | Op::Cmp { a, b, dst, .. } => {
                slot(a);
                slot(b);
                slot(dst);
            }
            Op::Un { a, dst, .. } => {
                slot(a);
                slot(dst);
            }
            Op::Select { cond, then_s, else_s, dst } => {
                slot(cond);
                slot(then_s);
                slot(else_s);
                slot(dst);
            }
            Op::PtrAdd { base, offset, dst } => {
                slot(base);
                slot(offset);
                slot(dst);
            }
            Op::Load { addr, dst, .. } | Op::LoadF { addr, dst } | Op::LoadI { addr, dst } => {
                slot(addr);
                slot(dst);
            }
            Op::Store { addr, value } => {
                slot(addr);
                slot(value);
            }
            Op::Prefetch { addr } => slot(addr),
            Op::Call { args, dst, .. } => {
                pool(args, cf.call_args.len());
                slot(dst);
            }
            Op::Jump { target: t, moves } => {
                target(t);
                pool(moves, cf.moves.len());
            }
            Op::Branch { cond, then_target, then_moves, else_target, else_moves, .. } => {
                slot(cond);
                target(then_target);
                target(else_target);
                pool(then_moves, cf.moves.len());
                pool(else_moves, cf.moves.len());
            }
            Op::Ret { val } => {
                if let Some(v) = val {
                    slot(v);
                }
            }
            Op::CmpBr { a, b, dst, then_target, then_moves, else_target, else_moves, .. } => {
                slot(a);
                slot(b);
                slot(dst);
                target(then_target);
                target(else_target);
                pool(then_moves, cf.moves.len());
                pool(else_moves, cf.moves.len());
            }
            Op::ScaleAdd { idx, shift, mul_dst, base, dst } => {
                assert!(shift <= 3, "{}: scale shift {shift} out of range", cf.name);
                slot(idx);
                slot(mul_dst);
                slot(base);
                slot(dst);
            }
            Op::ScaleAddLoadF { idx, shift, mul_dst, base, ptr_dst, dst }
            | Op::ScaleAddLoadI { idx, shift, mul_dst, base, ptr_dst, dst } => {
                assert!(shift <= 3, "{}: scale shift {shift} out of range", cf.name);
                slot(idx);
                slot(mul_dst);
                slot(base);
                slot(ptr_dst);
                slot(dst);
            }
            Op::MulAdd { a, b, mul_dst, c, dst, .. } => {
                slot(a);
                slot(b);
                slot(mul_dst);
                slot(c);
                slot(dst);
            }
            Op::AddJump { a, b, dst, target: t, moves } => {
                slot(a);
                slot(b);
                slot(dst);
                target(t);
                pool(moves, cf.moves.len());
            }
        }
    }
}

impl Lowerer<'_> {
    /// Resolves a value to its frame index, interning constants.
    fn slot_of(&mut self, v: Value) -> u32 {
        match v {
            Value::Arg(i) => i,
            Value::BlockParam { block, index } => self.param_base[block.0 as usize] + index,
            Value::Inst(id) => self.inst_base + id.0,
            c => {
                let pooled = if self.const_vals.len() <= LINEAR_POOL {
                    self.const_vals.iter().position(|&k| k == c).map(|i| i as u32)
                } else {
                    self.const_ix.get(&c).copied()
                };
                if let Some(i) = pooled {
                    return self.const_base + i;
                }
                let slot = match c {
                    Value::ConstI64(x) => (Val::I(x), false),
                    Value::ConstF64(bits) => (Val::F(f64::from_bits(bits)), false),
                    Value::ConstBool(b) => (Val::B(b), false),
                    Value::Global(g) => (Val::P(self.memory.global_addr(g)), false),
                    _ => unreachable!("non-constant handled above"),
                };
                let i = self.consts.len() as u32;
                self.consts.push(slot);
                self.const_vals.push(c);
                if self.const_vals.len() == LINEAR_POOL + 1 {
                    self.const_ix =
                        self.const_vals.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
                } else if self.const_vals.len() > LINEAR_POOL {
                    self.const_ix.insert(c, i);
                }
                self.const_base + i
            }
        }
    }

    fn lower_block(&mut self, b: BlockId) {
        self.block_pc[b.0 as usize] = self.ops.len() as u32;
        let func = self.func;
        let insts = &func.block(b).insts;
        let term = func.terminator(b);
        let mut i = 0;
        while i < insts.len() {
            let id = insts[i];
            let data = func.inst(id);
            let dst = self.inst_base + id.0;
            let Some(&next) = insts.get(i + 1) else {
                if self.fuse_with_terminator(id, term) {
                    return;
                }
                let op = self.lower_inst(&data.kind, data.ty, dst);
                self.ops.push(op);
                break;
            };
            // Super-ops are chains of *adjacent* instructions, so one look
            // at the next instruction decides (the compiler schedules an
            // element address as multiply, ptradd, access back to back).
            let ndata = func.inst(next);
            let ndst = self.inst_base + next.0;
            let me = Value::Inst(id);
            match (&data.kind, &ndata.kind) {
                // Element address: folded scale multiply taken as the
                // ptradd's offset (as its base it is an integer where a
                // pointer must be: left to fail in the plain `PtrAdd`).
                (
                    InstKind::Binary { op: BinOp::IMul, lhs, rhs },
                    InstKind::PtrAdd { base, offset },
                ) if *offset == me && *base != me => {
                    if let Some((index, shift)) = scaled_index(*lhs, *rhs) {
                        let idx = self.slot_of(index);
                        let base = self.slot_of(*base);
                        let (mul_dst, ptr_dst) = (dst, ndst);
                        // ... and the typed load of that address, if it
                        // comes third.
                        let load = insts.get(i + 2).and_then(|&l| {
                            let d = func.inst(l);
                            matches!(d.kind, InstKind::Load { addr } if addr == Value::Inst(next))
                                .then_some((self.inst_base + l.0, d.ty))
                        });
                        let (op, len) = match load {
                            Some((dst, Type::F64)) => {
                                (Op::ScaleAddLoadF { idx, shift, mul_dst, base, ptr_dst, dst }, 3)
                            }
                            Some((dst, Type::I64)) => {
                                (Op::ScaleAddLoadI { idx, shift, mul_dst, base, ptr_dst, dst }, 3)
                            }
                            _ => (Op::ScaleAdd { idx, shift, mul_dst, base, dst: ptr_dst }, 2),
                        };
                        self.ops.push(op);
                        i += len;
                        continue;
                    }
                }
                // Multiply consumed by the adjacent add — unless that add
                // is the block's counter-increment+back-edge.
                (
                    InstKind::Binary { op: BinOp::IMul, lhs, rhs },
                    InstKind::Binary { op: BinOp::IAdd, lhs: l2, rhs: r2 },
                ) if (*l2 == me || *r2 == me)
                    && !(i + 2 == insts.len() && matches!(term, Terminator::Jump(_))) =>
                {
                    let other = if *l2 == me { *r2 } else { *l2 };
                    let op = Op::MulAdd {
                        a: self.slot_of(*lhs),
                        b: self.slot_of(*rhs),
                        mul_dst: dst,
                        c: self.slot_of(other),
                        dst: ndst,
                        folded: is_folded(&data.kind),
                    };
                    self.ops.push(op);
                    i += 2;
                    continue;
                }
                _ => {}
            }
            let op = self.lower_inst(&data.kind, data.ty, dst);
            self.ops.push(op);
            i += 1;
        }
        let op = match term {
            Terminator::Jump(d) => {
                let (target, moves) = self.lower_edge(d);
                Op::Jump { target, moves }
            }
            Terminator::Branch { cond, then_dest, else_dest } => {
                let cond = self.slot_of(*cond);
                let (then_target, then_moves) = self.lower_edge(then_dest);
                let (else_target, else_moves) = self.lower_edge(else_dest);
                Op::Branch { cond, then_target, then_moves, else_target, else_moves }
            }
            Terminator::Ret(v) => Op::Ret { val: v.map(|v| self.slot_of(v)) },
        };
        self.ops.push(op);
    }

    /// Emits the block's last instruction `id` and its terminator as one
    /// super-op when they form one: a compare feeding the block's own
    /// branch, or an integer add in front of an unconditional jump (the
    /// counter increment and back-edge of a loop).
    fn fuse_with_terminator(&mut self, id: InstId, term: &Terminator) -> bool {
        let dst = self.inst_base + id.0;
        let func = self.func;
        match (&func.inst(id).kind, term) {
            (InstKind::Cmp { op, lhs, rhs }, Terminator::Branch { cond, then_dest, else_dest })
                if *cond == Value::Inst(id) =>
            {
                let (a, b) = (self.slot_of(*lhs), self.slot_of(*rhs));
                let (then_target, then_moves) = self.lower_edge(then_dest);
                let (else_target, else_moves) = self.lower_edge(else_dest);
                self.ops.push(Op::CmpBr {
                    op: *op,
                    a,
                    b,
                    dst,
                    then_target,
                    then_moves,
                    else_target,
                    else_moves,
                });
                true
            }
            (InstKind::Binary { op: BinOp::IAdd, lhs, rhs }, Terminator::Jump(dest)) => {
                let (a, b) = (self.slot_of(*lhs), self.slot_of(*rhs));
                let (target, moves) = self.lower_edge(dest);
                self.ops.push(Op::AddJump { a, b, dst, target, moves });
                true
            }
            _ => false,
        }
    }

    fn lower_inst(&mut self, kind: &InstKind, ty: Type, dst: u32) -> Op {
        match kind {
            InstKind::Binary { op, lhs, rhs } => {
                let a = self.slot_of(*lhs);
                let b = self.slot_of(*rhs);
                match op {
                    BinOp::IAdd => Op::IAdd { a, b, dst },
                    BinOp::ISub => Op::ISub { a, b, dst },
                    BinOp::IMul => Op::IMul { a, b, dst, folded: is_folded(kind) },
                    BinOp::And => Op::IAnd { a, b, dst },
                    BinOp::Or => Op::IOr { a, b, dst },
                    BinOp::Xor => Op::IXor { a, b, dst },
                    BinOp::Shl => Op::IShl { a, b, dst },
                    BinOp::AShr => Op::IAShr { a, b, dst },
                    BinOp::FAdd => Op::FAdd { a, b, dst },
                    BinOp::FSub => Op::FSub { a, b, dst },
                    BinOp::FMul => Op::FMul { a, b, dst },
                    op => Op::Bin { op: *op, a, b, dst, folded: is_folded(kind) },
                }
            }
            InstKind::Unary { op, operand } => Op::Un { op: *op, a: self.slot_of(*operand), dst },
            InstKind::Cmp { op, lhs, rhs } => {
                Op::Cmp { op: *op, a: self.slot_of(*lhs), b: self.slot_of(*rhs), dst }
            }
            InstKind::Select { cond, then_value, else_value } => Op::Select {
                cond: self.slot_of(*cond),
                then_s: self.slot_of(*then_value),
                else_s: self.slot_of(*else_value),
                dst,
            },
            InstKind::PtrAdd { base, offset } => {
                Op::PtrAdd { base: self.slot_of(*base), offset: self.slot_of(*offset), dst }
            }
            InstKind::Load { addr } => {
                let addr = self.slot_of(*addr);
                match ty {
                    Type::F64 => Op::LoadF { addr, dst },
                    Type::I64 => Op::LoadI { addr, dst },
                    ty => Op::Load { ty, addr, dst },
                }
            }
            InstKind::Store { addr, value } => {
                Op::Store { addr: self.slot_of(*addr), value: self.slot_of(*value) }
            }
            InstKind::Prefetch { addr } => Op::Prefetch { addr: self.slot_of(*addr) },
            InstKind::Call { callee, args } => {
                let start = self.call_args.len() as u32;
                for a in args {
                    let s = self.slot_of(*a);
                    self.call_args.push(s);
                }
                Op::Call { callee: *callee, args: (start, args.len() as u32), dst }
            }
        }
    }

    /// Lowers one CFG edge: its block-argument binding becomes a
    /// sequentialised move list, its destination a (pre-patch) block id.
    fn lower_edge(&mut self, dest: &BlockCall) -> (u32, PoolRange) {
        let pbase = self.param_base[dest.block.0 as usize];
        let pending: Vec<Move> = dest
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| Move { src: self.slot_of(*a), dst: pbase + i as u32 })
            .filter(|m| m.src != m.dst)
            .collect();
        let start = self.moves.len() as u32;
        sequentialize(pending, self.temp, &mut self.moves);
        (dest.block.0, (start, self.moves.len() as u32 - start))
    }

    /// Rewrites block-id targets to instruction offsets.
    fn patch_targets(&mut self) {
        let block_pc = &self.block_pc;
        for op in &mut self.ops {
            match op {
                Op::Jump { target, .. } | Op::AddJump { target, .. } => {
                    *target = block_pc[*target as usize];
                }
                Op::Branch { then_target, else_target, .. }
                | Op::CmpBr { then_target, else_target, .. } => {
                    *then_target = block_pc[*then_target as usize];
                    *else_target = block_pc[*else_target as usize];
                }
                _ => {}
            }
        }
    }
}

/// Orders a set of parallel moves (distinct destinations) so sequential
/// execution preserves the all-reads-before-all-writes semantics, using
/// `temp` to break cycles. Appends the ordered steps to `out`.
fn sequentialize(mut pending: Vec<Move>, temp: u32, out: &mut Vec<Move>) {
    while !pending.is_empty() {
        // Emit every move whose destination no other pending move reads.
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            let dst = pending[i].dst;
            if pending.iter().enumerate().all(|(j, m)| j == i || m.src != dst) {
                out.push(pending.swap_remove(i));
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            // Only cycles remain: save one live source to the temp slot
            // and redirect its readers there, freeing its destination.
            let s = pending[0].src;
            out.push(Move { src: s, dst: temp });
            for m in &mut pending {
                if m.src == s {
                    m.src = temp;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Module};

    /// Lowers `main(i: i64)` of a module with one 64-element `f64` global
    /// `g`, built by `body`.
    fn lowered(body: impl FnOnce(&mut FunctionBuilder, Value)) -> Vec<Op> {
        let mut m = Module::new();
        let g = m.add_global("g", Type::F64, 64);
        let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::Void);
        body(&mut b, Value::Global(g));
        b.ret(None);
        let f = m.add_function(b.finish());
        // `lower` validates every index of what it emits (and panics).
        lower(m.func(f), &Memory::for_module(&m)).ops
    }

    /// The variant names of `ops`, in order.
    fn kinds(ops: &[Op]) -> Vec<String> {
        let name = |op| format!("{op:?}").split([' ', '{']).next().expect("variant name").into();
        ops.iter().map(name).collect()
    }

    #[test]
    fn element_addresses_fuse_with_their_typed_load() {
        let i = Value::Arg(0);
        let ops = lowered(|b, g| {
            let p = b.elem_addr(g, i, Type::F64);
            let _ = b.load(Type::F64, p);
            let scaled = b.imul(4i64, i);
            let q = b.ptr_add(g, scaled);
            let _ = b.load(Type::I64, q);
            let r = b.elem_addr(g, i, Type::F64);
            b.prefetch(r);
        });
        assert_eq!(kinds(&ops), ["ScaleAddLoadF", "ScaleAddLoadI", "ScaleAdd", "Prefetch", "Ret"]);
        assert!(matches!(ops[0], Op::ScaleAddLoadF { shift: 3, .. }), "{ops:?}");
        assert!(matches!(ops[1], Op::ScaleAddLoadI { shift: 2, .. }), "{ops:?}");
    }

    #[test]
    fn near_misses_of_the_element_address_stay_plain() {
        let i = Value::Arg(0);
        // The multiply as the ptradd's base (alone, and on both sides).
        let ops = lowered(|b, _| {
            let scaled = b.imul(i, 8i64);
            let p = b.ptr_add(scaled, i);
            b.prefetch(p);
            let scaled = b.imul(i, 8i64);
            let q = b.ptr_add(scaled, scaled);
            b.prefetch(q);
        });
        assert_eq!(
            kinds(&ops),
            ["IMul", "PtrAdd", "Prefetch", "IMul", "PtrAdd", "Prefetch", "Ret"]
        );
        // A consumer that is not adjacent.
        let ops = lowered(|b, g| {
            let scaled = b.imul(i, 8i64);
            let _ = b.xor(i, 1i64);
            let p = b.ptr_add(g, scaled);
            b.prefetch(p);
        });
        assert_eq!(kinds(&ops), ["IMul", "IXor", "PtrAdd", "Prefetch", "Ret"]);
        // A multiply that does not fold into an addressing mode.
        let ops = lowered(|b, g| {
            let scaled = b.imul(i, 3i64);
            let p = b.ptr_add(g, scaled);
            let _ = b.load(Type::F64, p);
        });
        assert_eq!(kinds(&ops), ["IMul", "PtrAdd", "LoadF", "Ret"]);
        assert!(matches!(ops[0], Op::IMul { folded: false, .. }), "{ops:?}");
        // Loads of the rarer types: the address fuses, the load does not.
        for ty in [Type::Ptr, Type::Bool] {
            let ops = lowered(|b, g| {
                let p = b.elem_addr(g, i, Type::F64);
                let _ = b.load(ty, p);
            });
            assert_eq!(kinds(&ops), ["ScaleAdd", "Load", "Ret"]);
        }
        // A load of some other pointer behind the address.
        let ops = lowered(|b, g| {
            let _ = b.elem_addr(g, i, Type::F64);
            let _ = b.load(Type::F64, g);
        });
        assert_eq!(kinds(&ops), ["ScaleAdd", "LoadF", "Ret"]);
    }

    #[test]
    fn multiply_add_fuses_unless_the_add_closes_a_loop() {
        let i = Value::Arg(0);
        let ops = lowered(|b, _| {
            let t = b.imul(i, i);
            let _ = b.iadd(t, 1i64);
            let u = b.imul(i, 2i64);
            let _ = b.iadd(i, u);
            let v = b.imul(i, 5i64);
            let _ = b.iadd(v, v);
            let w = b.imul(i, 7i64);
            let _ = b.isub(w, 1i64);
        });
        assert_eq!(kinds(&ops), ["MulAdd", "MulAdd", "MulAdd", "IMul", "ISub", "Ret"]);
        assert!(matches!(ops[0], Op::MulAdd { folded: false, .. }), "{ops:?}");
        assert!(matches!(ops[1], Op::MulAdd { folded: true, .. }), "{ops:?}");
        // `iadd %v, %v` reads the product back through its own slot.
        assert!(matches!(ops[2], Op::MulAdd { c, mul_dst, .. } if c == mul_dst), "{ops:?}");
        // The add in front of a back edge is the counter increment.
        let ops = lowered(|b, _| {
            let _ = b.while_loop(
                vec![Value::i64(1)],
                |b, c| b.cmp(CmpOp::Lt, c[0], 50i64),
                |b, c| {
                    let t = b.imul(c[0], 3i64);
                    vec![b.iadd(t, 1i64)]
                },
            );
        });
        assert_eq!(kinds(&ops), ["Jump", "CmpBr", "IMul", "AddJump", "Ret"]);
    }

    #[test]
    fn constants_are_pooled_once_on_both_sides_of_the_index_threshold() {
        for distinct in [3, LINEAR_POOL, LINEAR_POOL + 1, 4 * LINEAR_POOL] {
            let mut m = Module::new();
            let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::Void);
            // Every constant twice, the second round in reverse order.
            let ks = (0..distinct as i64).chain((0..distinct as i64).rev());
            for k in ks {
                let _ = b.xor(Value::Arg(0), k * 1000 + 17);
            }
            b.ret(None);
            let f = m.add_function(b.finish());
            let cf = lower(m.func(f), &Memory::for_module(&m));
            assert_eq!(cf.consts.len(), distinct);
            let b_slot = |op: &Op| match *op {
                Op::IXor { b, .. } => b,
                ref other => panic!("expected an xor, got {other:?}"),
            };
            let firsts = cf.ops[..distinct].iter().map(b_slot);
            let seconds = cf.ops[distinct..2 * distinct].iter().rev().map(b_slot);
            assert!(firsts.eq(seconds), "{:?}", cf.ops);
        }
    }

    /// Applies `moves` to a register file, for checking sequentialisation.
    fn apply(moves: &[Move], regs: &mut [i64]) {
        for m in moves {
            regs[m.dst as usize] = regs[m.src as usize];
        }
    }

    #[test]
    fn parallel_moves_handle_chains_cycles_and_swaps() {
        let cases: Vec<Vec<(u32, u32)>> = vec![
            vec![(0, 1)],                         // plain copy
            vec![(0, 1), (1, 2)],                 // overlapping chain
            vec![(0, 1), (1, 0)],                 // swap
            vec![(0, 1), (1, 2), (2, 0)],         // 3-cycle
            vec![(0, 1), (1, 0), (2, 3), (3, 2)], // two disjoint swaps
            vec![(5, 0), (5, 1), (0, 5)],         // shared source inside a cycle
        ];
        for pairs in cases {
            let pending: Vec<Move> = pairs.iter().map(|&(src, dst)| Move { src, dst }).collect();
            let mut out = Vec::new();
            sequentialize(pending, 9, &mut out);
            let mut regs: Vec<i64> = (0..10).collect();
            let expected: Vec<i64> = {
                let snapshot = regs.clone();
                let mut e = regs.clone();
                for &(src, dst) in &pairs {
                    e[dst as usize] = snapshot[src as usize];
                }
                e[9] = regs[9]; // temp is scratch; exclude from the check
                e
            };
            apply(&out, &mut regs);
            assert_eq!(regs[..9], expected[..9], "pairs {pairs:?} -> {out:?}");
        }
    }
}
