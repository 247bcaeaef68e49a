//! Execution: the `loop { match op }` dispatch core and the per-machine
//! VM state (bytecode cache + reusable frame stack).
//!
//! Every trace-counter bump, error-production order and step-budget
//! decrement below mirrors `crate::interp::Machine::run_frame` /
//! `exec_inst` exactly — when editing either, edit both, and let
//! `tests/engine_equivalence.rs` arbitrate.
//!
//! The frame stack is threaded through as a plain `&mut Vec` (taken out of
//! [`VmState`] for the duration of a run) rather than accessed through
//! `self`, and each activation slices its own frame out of it once, so
//! the dispatch loop's slot accesses index a `noalias` slice whose base
//! the optimiser keeps in a register across the opaque cache and memory
//! calls. The step budget is one local (`fuel`) that is also the
//! instruction count — see "Step accounting" on `vm_exec`.

use std::rc::Rc;
use std::time::Instant;

use crate::interp::{exec_binop, exec_cmp, exec_unop, CachePort, InterpError, Machine, Slot};
use crate::memory::Val;
use crate::timing::{level_index, DemandMiss, PhaseTrace, TimingConfig};
use dae_ir::{CmpOp, FuncId, UnOp};
use dae_mem::HitLevel;

use super::lower::{lower, CompiledFunc, Op};
use super::LowerSpan;

/// Per-machine VM state: lazily lowered bytecode per `FuncId`, one frame
/// stack reused across every call, and the pending lower-time spans.
#[derive(Default)]
pub(crate) struct VmState {
    compiled: Vec<Option<Rc<CompiledFunc>>>,
    stack: Vec<Slot>,
    lower_spans: Vec<LowerSpan>,
}

/// Where a callee's arguments come from.
enum ArgSrc<'a> {
    /// Top-level entry: plain values, untainted.
    Vals(&'a [Val]),
    /// A `Call` op: slot indices into the caller's frame region.
    Frame { caller_base: usize, idxs: &'a [u32] },
}

impl ArgSrc<'_> {
    fn len(&self) -> usize {
        match self {
            ArgSrc::Vals(v) => v.len(),
            ArgSrc::Frame { idxs, .. } => idxs.len(),
        }
    }
}

impl Machine<'_> {
    /// Pending bytecode-lowering spans, drained. Lowering happens at most
    /// once per function per machine, so the list is bounded by the
    /// module's function count even when nobody drains it.
    pub fn take_lower_spans(&mut self) -> Vec<LowerSpan> {
        std::mem::take(&mut self.vm.lower_spans)
    }

    /// Bytecode-engine twin of the tree-walking `run`.
    pub(crate) fn vm_run(
        &mut self,
        func: FuncId,
        args: &[Val],
        caches: &mut CachePort<'_>,
        trace: &mut PhaseTrace,
    ) -> Result<Option<Val>, InterpError> {
        let mut steps_left = self.config.max_steps;
        let mut stack = std::mem::take(&mut self.vm.stack);
        let r = self.vm_invoke(
            func,
            ArgSrc::Vals(args),
            &mut stack,
            0,
            caches,
            trace,
            &mut steps_left,
            0,
        );
        self.vm.stack = stack;
        Ok(r?.map(|(v, _)| v))
    }

    /// The cached bytecode of `func_id`, lowering (and recording a
    /// [`LowerSpan`]) on first use.
    fn compiled(&mut self, func_id: FuncId) -> Rc<CompiledFunc> {
        let ix = func_id.0 as usize;
        if self.vm.compiled.len() <= ix {
            self.vm.compiled.resize(ix + 1, None);
        }
        if let Some(c) = &self.vm.compiled[ix] {
            return Rc::clone(c);
        }
        let t0 = Instant::now();
        let func = self.module.func(func_id);
        let cf = Rc::new(lower(func, &self.memory));
        self.vm.lower_spans.push(LowerSpan {
            func: cf.name.clone(),
            ops: cf.ops.len() as u32,
            fused: cf.fused_by_op.iter().sum(),
            fused_by_op: cf.fused_by_op,
            wall_s: t0.elapsed().as_secs_f64(),
        });
        self.vm.compiled[ix] = Some(Rc::clone(&cf));
        cf
    }

    /// One activation: depth/arity checks (same order and messages as the
    /// tree-walker), frame carve-out at `base`, execute.
    ///
    /// The stack is high-water-marked: it grows to cover `base + frame_len`
    /// and is never truncated, so a call re-entering a popped region reuses
    /// the (stale but initialised) slots without a zero-fill. Program
    /// results never observe the stale values — lowered code for a verified
    /// (SSA-dominant) function writes every slot it reads, and the constant
    /// pool is (re)copied on every entry.
    #[allow(clippy::too_many_arguments)]
    fn vm_invoke(
        &mut self,
        func_id: FuncId,
        args: ArgSrc<'_>,
        stack: &mut Vec<Slot>,
        base: usize,
        caches: &mut CachePort<'_>,
        trace: &mut PhaseTrace,
        steps_left: &mut u64,
        depth: usize,
    ) -> Result<Option<Slot>, InterpError> {
        if depth > self.config.max_call_depth {
            return Err(InterpError::Trap("call depth exceeded".into()));
        }
        let f = self.compiled(func_id);
        if f.params != args.len() {
            return Err(InterpError::Trap(format!(
                "function `{}` expects {} args, got {}",
                f.name,
                f.params,
                args.len()
            )));
        }
        if stack.len() < base + f.frame_len {
            stack.resize(base + f.frame_len, (Val::I(0), false));
        }
        let cb = base + f.const_base;
        stack[cb..cb + f.consts.len()].copy_from_slice(&f.consts);
        match args {
            ArgSrc::Vals(vals) => {
                for (i, v) in vals.iter().enumerate() {
                    stack[base + i] = (*v, false);
                }
            }
            ArgSrc::Frame { caller_base, idxs } => {
                for (i, &s) in idxs.iter().enumerate() {
                    stack[base + i] = stack[caller_base + s as usize];
                }
            }
        }
        self.vm_exec(&f, base, stack, caches, trace, steps_left, depth)
    }

    /// The dispatch loop over one frame.
    ///
    /// # Safety of the unchecked indexing
    ///
    /// Every frame index, branch target and pool range in a
    /// [`CompiledFunc`] was checked by `lower::validate` when the function
    /// was lowered: frame indices are `< frame_len`, targets are
    /// `< ops.len()`, pool ranges lie inside their pools, and the program
    /// cannot fall off the end (the final op is a terminator, so every
    /// fall-through op has a successor). `frame` is the checked slice
    /// `stack[base..base + frame_len]`, so every validated index is inside
    /// it.
    ///
    /// # Step accounting
    ///
    /// Every dynamic instruction and terminator takes one unit of `fuel`
    /// and bumps exactly one of `instrs` / `addr_ops`, here and in every
    /// callee, so `instrs + addr_ops + fuel` never changes during a run.
    /// The loop therefore carries only `fuel` and `n_addr` and derives
    /// `instrs` from that sum wherever it is observed: when the counters
    /// are flushed to the trace and when a demand miss records its
    /// position.
    #[allow(clippy::too_many_arguments)]
    fn vm_exec(
        &mut self,
        f: &CompiledFunc,
        base: usize,
        stack: &mut Vec<Slot>,
        caches: &mut CachePort<'_>,
        trace: &mut PhaseTrace,
        steps_left: &mut u64,
        depth: usize,
    ) -> Result<Option<Slot>, InterpError> {
        let cfg_extra = TimingConfig::default();
        let ops: &[Op] = &f.ops;
        let mut pc = f.entry_pc as usize;
        // This activation's frame, sliced once so that operand accesses
        // index off a register-held base instead of going through the
        // `Vec` header each time. A `Call` hands `stack` to the callee,
        // which may grow (reallocate) it: the slice is taken again after.
        let mut frame: &mut [Slot] = &mut stack[base..base + f.frame_len];
        // The budget and the per-op trace counters live in locals for the
        // duration of the frame (a register add instead of a
        // read-modify-write through `&mut` on every dispatched op); `sync!`
        // flushes them around calls and on every exit, so an error-path
        // trace is indistinguishable from the tree-walker's.
        let mut fuel = *steps_left;
        let mut n_addr = trace.addr_ops;
        let mut n_branches = trace.branches;
        let mut n_fp = trace.fp_ops;
        // Wrapping: a `u64::MAX` budget is legal, and the identity holds
        // modulo 2^64 with a true value that fits.
        let steps_sum = trace.instrs.wrapping_add(n_addr).wrapping_add(fuel);
        /// `trace.instrs` as of now (see "Step accounting").
        macro_rules! instrs {
            () => {
                steps_sum.wrapping_sub(fuel).wrapping_sub(n_addr)
            };
        }
        /// Flushes the budget and the local counters.
        macro_rules! sync {
            () => {
                *steps_left = fuel;
                trace.instrs = instrs!();
                trace.addr_ops = n_addr;
                trace.branches = n_branches;
                trace.fp_ops = n_fp;
            };
        }
        /// `?`, flushing the local counters on the error path first.
        macro_rules! tryv {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => {
                        sync!();
                        return Err(e.into());
                    }
                }
            };
        }
        /// Budget check-and-decrement preceding every dynamic instruction
        /// and terminator, exactly like the tree-walker's block loop. A
        /// step counts as an `instr` unless the op also bumps `n_addr`.
        macro_rules! step {
            () => {
                if fuel == 0 {
                    sync!();
                    return Err(InterpError::StepLimit);
                }
                fuel -= 1;
            };
        }
        /// Reads frame slot `$i`.
        macro_rules! slot {
            ($i:expr) => {{
                debug_assert!(($i as usize) < frame.len());
                // SAFETY: `lower::validate` checked `$i < frame_len`, the
                // length `frame` was sliced to.
                unsafe { *frame.get_unchecked($i as usize) }
            }};
        }
        /// Writes frame slot `$i`.
        macro_rules! set {
            ($i:expr, $v:expr) => {{
                debug_assert!(($i as usize) < frame.len());
                let v = $v;
                // SAFETY: as in `slot!`.
                unsafe { *frame.get_unchecked_mut($i as usize) = v };
            }};
        }
        macro_rules! moves {
            ($r:expr) => {
                let (s, l) = $r;
                debug_assert!((s + l) as usize <= f.moves.len());
                // SAFETY: `lower::validate` checked the range against
                // `moves`.
                for m in unsafe { f.moves.get_unchecked(s as usize..(s + l) as usize) } {
                    set!(m.dst, slot!(m.src));
                }
            };
        }
        /// A specialised integer binop: same operand evaluation and error
        /// order as `exec_binop`, without its per-execution op dispatch.
        macro_rules! ibin {
            ($a:expr, $b:expr, $dst:expr, $f:expr) => {
                ibin!($a, $b, $dst, $f, false)
            };
            ($a:expr, $b:expr, $dst:expr, $f:expr, $folded:expr) => {{
                step!();
                if $folded {
                    n_addr += 1;
                }
                let (av, ta) = slot!($a);
                let (bv, tb) = slot!($b);
                let v = Val::I($f(tryv!(av.try_i()), tryv!(bv.try_i())));
                set!($dst, (v, ta || tb));
                pc += 1;
            }};
        }
        /// A specialised float binop (bumps `fp_ops` like the tree-walker).
        macro_rules! fbin {
            ($a:expr, $b:expr, $dst:expr, $f:expr) => {{
                step!();
                let (av, ta) = slot!($a);
                let (bv, tb) = slot!($b);
                let v = Val::F($f(tryv!(av.try_f()), tryv!(bv.try_f())));
                n_fp += 1;
                set!($dst, (v, ta || tb));
                pc += 1;
            }};
        }
        /// A compare. The integer case — every loop bound of the corpus —
        /// is decided here; the other type pairs (and the mismatches) go
        /// through the tree-walker's `exec_cmp`.
        macro_rules! cmp {
            ($op:expr, $a:expr, $b:expr, $dst:expr) => {{
                step!();
                let (av, ta) = slot!($a);
                let (bv, tb) = slot!($b);
                let r = match (av, bv) {
                    (Val::I(x), Val::I(y)) => icmp($op, x, y),
                    // Read again, so that the hot case above does not hold
                    // whole `Val`s across the out-of-line call.
                    _ => tryv!(exec_cmp($op, slot!($a).0, slot!($b).0)),
                };
                set!($dst, (Val::B(r), ta || tb));
                r
            }};
        }
        /// A conditional branch on the already-checked `$taken`. The two
        /// edges stay two code paths: a host branch the predictor sees,
        /// not a select feeding the next dispatch.
        macro_rules! branch {
            ($taken:expr, $then:expr, $else:expr) => {{
                step!();
                n_branches += 1;
                if $taken {
                    let (target, mv) = $then;
                    moves!(mv);
                    pc = target as usize;
                } else {
                    let (target, mv) = $else;
                    moves!(mv);
                    pc = target as usize;
                }
            }};
        }
        /// A folded scale multiply and the `ptradd` taking it as offset:
        /// two `addr_ops`, the product written to `$mul_dst` before the
        /// base is read, the address (returned with its taint) to `$dst`.
        /// The offset is a fresh `i64`, so only the index and the base can
        /// fail their type checks, in that order.
        macro_rules! scale_add {
            ($idx:expr, $shift:expr, $mul_dst:expr, $base:expr, $dst:expr) => {{
                step!();
                n_addr += 1;
                let (iv, ti) = slot!($idx);
                let scaled = tryv!(iv.try_i()) << $shift;
                set!($mul_dst, (Val::I(scaled), ti));
                step!();
                n_addr += 1;
                let (bv, tb) = slot!($base);
                let p = (tryv!(bv.try_p()) as i64).wrapping_add(scaled) as u64;
                set!($dst, (Val::P(p), tb || ti));
                (p, tb || ti)
            }};
        }
        /// A demand load of address `$addr` (carrying `$taint`) into
        /// `$dst`; `$read` produces the value from the address `$a`.
        macro_rules! load {
            ($addr:expr, $taint:expr, $dst:expr, |$a:ident| $read:expr) => {{
                step!();
                let $a: u64 = $addr;
                trace.loads += 1;
                let (level, hw_covered) = caches.core.access_demand(caches.llc, $a);
                let missed = level == HitLevel::Memory;
                if missed && hw_covered {
                    trace.hw_prefetch_lines += 1;
                } else {
                    trace.demand_hits[level_index(level)] += 1;
                    if missed {
                        trace
                            .demand_misses
                            .push(DemandMiss { instr_idx: instrs!(), dependent: $taint });
                    }
                }
                let v = $read;
                set!($dst, (v, missed && !hw_covered));
                pc += 1;
            }};
        }
        macro_rules! read_f {
            ($a:expr) => {
                Val::F(f64::from_bits(self.memory.read_u64($a)))
            };
        }
        macro_rules! read_i {
            ($a:expr) => {
                Val::I(self.memory.read_u64($a) as i64)
            };
        }
        loop {
            debug_assert!(pc < ops.len());
            // Matched by reference on purpose: dereferencing would copy the
            // whole `Op` (up to 9 words for `CmpBr`) on every dispatch.
            // SAFETY: `pc` is the validated entry, a validated target, or
            // the successor of a fall-through op, which `lower::validate`
            // showed to exist.
            #[allow(clippy::match_ref_pats)]
            match unsafe { ops.get_unchecked(pc) } {
                &Op::Bin { op, a, b, dst, folded } => {
                    step!();
                    if folded {
                        n_addr += 1;
                    }
                    let (av, ta) = slot!(a);
                    let (bv, tb) = slot!(b);
                    let v = tryv!(exec_binop(op, av, bv));
                    if op.is_float() {
                        n_fp += 1;
                    }
                    match op {
                        dae_ir::BinOp::IDiv | dae_ir::BinOp::IRem => {
                            trace.extra_lat_cycles += cfg_extra.idiv_cyc;
                        }
                        dae_ir::BinOp::FDiv => trace.extra_lat_cycles += cfg_extra.fdiv_cyc,
                        _ => {}
                    }
                    set!(dst, (v, ta || tb));
                    pc += 1;
                }
                &Op::IAdd { a, b, dst } => ibin!(a, b, dst, i64::wrapping_add),
                &Op::ISub { a, b, dst } => ibin!(a, b, dst, i64::wrapping_sub),
                &Op::IMul { a, b, dst, folded } => ibin!(a, b, dst, i64::wrapping_mul, folded),
                &Op::IAnd { a, b, dst } => ibin!(a, b, dst, |x, y| x & y),
                &Op::IOr { a, b, dst } => ibin!(a, b, dst, |x, y| x | y),
                &Op::IXor { a, b, dst } => ibin!(a, b, dst, |x, y| x ^ y),
                &Op::IShl { a, b, dst } => ibin!(a, b, dst, |x: i64, y| x.wrapping_shl(y as u32)),
                &Op::IAShr { a, b, dst } => ibin!(a, b, dst, |x: i64, y| x.wrapping_shr(y as u32)),
                &Op::FAdd { a, b, dst } => fbin!(a, b, dst, |x, y| x + y),
                &Op::FSub { a, b, dst } => fbin!(a, b, dst, |x, y| x - y),
                &Op::FMul { a, b, dst } => fbin!(a, b, dst, |x, y| x * y),
                &Op::Un { op, a, dst } => {
                    step!();
                    let (av, t) = slot!(a);
                    if matches!(op, UnOp::FSqrt) {
                        n_fp += 1;
                        trace.extra_lat_cycles += cfg_extra.fsqrt_cyc;
                    }
                    set!(dst, (tryv!(exec_unop(op, av)), t));
                    pc += 1;
                }
                &Op::Cmp { op, a, b, dst } => {
                    cmp!(op, a, b, dst);
                    pc += 1;
                }
                &Op::Select { cond, then_s, else_s, dst } => {
                    step!();
                    let (c, tc) = slot!(cond);
                    let (v, tv) = if tryv!(c.try_b()) { slot!(then_s) } else { slot!(else_s) };
                    set!(dst, (v, tc || tv));
                    pc += 1;
                }
                &Op::PtrAdd { base: pb, offset, dst } => {
                    step!();
                    n_addr += 1;
                    let (bv, tb) = slot!(pb);
                    let (ov, to) = slot!(offset);
                    let p = (tryv!(bv.try_p()) as i64).wrapping_add(tryv!(ov.try_i())) as u64;
                    set!(dst, (Val::P(p), tb || to));
                    pc += 1;
                }
                &Op::Load { ty, addr, dst } => {
                    let (av, taint) = slot!(addr);
                    load!(tryv!(av.try_p()), taint, dst, |a| tryv!(self.memory.try_read(ty, a)))
                }
                &Op::LoadF { addr, dst } => {
                    let (av, taint) = slot!(addr);
                    load!(tryv!(av.try_p()), taint, dst, |a| read_f!(a))
                }
                &Op::LoadI { addr, dst } => {
                    let (av, taint) = slot!(addr);
                    load!(tryv!(av.try_p()), taint, dst, |a| read_i!(a))
                }
                &Op::Store { addr, value } => {
                    step!();
                    let (av, _) = slot!(addr);
                    let a = tryv!(av.try_p());
                    let (v, _) = slot!(value);
                    trace.stores += 1;
                    let (level, writebacks) = caches.core.access_write(caches.llc, a);
                    if level == HitLevel::Memory {
                        trace.store_mem_misses += 1;
                    }
                    trace.writeback_lines += writebacks;
                    self.memory.write(a, v);
                    pc += 1;
                }
                &Op::Prefetch { addr } => {
                    step!();
                    let (av, _) = slot!(addr);
                    trace.prefetches += 1;
                    let p = tryv!(av.try_p());
                    if (p as usize) < self.memory.size() && p >= 0x1000 {
                        let level = caches.core.access(caches.llc, p);
                        trace.prefetch_hits[level_index(level)] += 1;
                    }
                    pc += 1;
                }
                &Op::Call { callee, args: (s, l), dst } => {
                    step!();
                    debug_assert!((s + l) as usize <= f.call_args.len());
                    // SAFETY: `lower::validate` checked the range against
                    // `call_args`.
                    let idxs = unsafe { f.call_args.get_unchecked(s as usize..(s + l) as usize) };
                    sync!();
                    let r = self.vm_invoke(
                        callee,
                        ArgSrc::Frame { caller_base: base, idxs },
                        stack,
                        base + f.frame_len,
                        caches,
                        trace,
                        steps_left,
                        depth + 1,
                    )?;
                    // The callee kept the step identity, so `steps_sum`
                    // stands; everything else is read back.
                    fuel = *steps_left;
                    n_addr = trace.addr_ops;
                    n_branches = trace.branches;
                    n_fp = trace.fp_ops;
                    debug_assert_eq!(trace.instrs, instrs!());
                    frame = &mut stack[base..base + f.frame_len];
                    if let Some(slot) = r {
                        set!(dst, slot);
                    }
                    pc += 1;
                }
                &Op::Jump { target, moves: mv } => {
                    step!();
                    n_branches += 1;
                    moves!(mv);
                    pc = target as usize;
                }
                // The two branching ops bind their fields by reference: each
                // is loaded where it is used (the not-taken edge never), not
                // all nine up front across the compare.
                Op::Branch { cond, then_target, then_moves, else_target, else_moves } => {
                    let (c, _) = slot!(*cond);
                    branch!(
                        tryv!(c.try_b()),
                        (*then_target, *then_moves),
                        (*else_target, *else_moves)
                    );
                }
                &Op::Ret { val } => {
                    step!();
                    n_branches += 1;
                    sync!();
                    return Ok(val.map(|i| slot!(i)));
                }
                Op::CmpBr { op, a, b, dst, then_target, then_moves, else_target, else_moves } => {
                    // The compare, then the branch on its fresh bool (the
                    // tree-walker's try_b cannot fail).
                    let taken = cmp!(*op, *a, *b, *dst);
                    branch!(taken, (*then_target, *then_moves), (*else_target, *else_moves));
                }
                &Op::AddJump { a, b, dst, target, moves: mv } => {
                    // Constituent 1: the integer add.
                    step!();
                    let (av, ta) = slot!(a);
                    let (bv, tb) = slot!(b);
                    let v = Val::I(tryv!(av.try_i()).wrapping_add(tryv!(bv.try_i())));
                    set!(dst, (v, ta || tb));
                    // Constituent 2: the back-edge jump.
                    step!();
                    n_branches += 1;
                    moves!(mv);
                    pc = target as usize;
                }
                &Op::ScaleAdd { idx, shift, mul_dst, base: pb, dst } => {
                    scale_add!(idx, shift, mul_dst, pb, dst);
                    pc += 1;
                }
                &Op::ScaleAddLoadF { idx, shift, mul_dst, base: pb, ptr_dst, dst } => {
                    let (p, pt) = scale_add!(idx, shift, mul_dst, pb, ptr_dst);
                    load!(p, pt, dst, |a| read_f!(a))
                }
                &Op::ScaleAddLoadI { idx, shift, mul_dst, base: pb, ptr_dst, dst } => {
                    let (p, pt) = scale_add!(idx, shift, mul_dst, pb, ptr_dst);
                    load!(p, pt, dst, |a| read_i!(a))
                }
                &Op::MulAdd { a, b, mul_dst, c, dst, folded } => {
                    // Constituent 1: the multiply, stored before the add
                    // reads `c` (which is `mul_dst` for `iadd %m, %m`).
                    step!();
                    if folded {
                        n_addr += 1;
                    }
                    let (av, ta) = slot!(a);
                    let (bv, tb) = slot!(b);
                    let m = tryv!(av.try_i()).wrapping_mul(tryv!(bv.try_i()));
                    set!(mul_dst, (Val::I(m), ta || tb));
                    // Constituent 2: the add. The product is a fresh i64,
                    // so `c` is the only operand that can fail.
                    step!();
                    let (cv, tc) = slot!(c);
                    let v = Val::I(m.wrapping_add(tryv!(cv.try_i())));
                    set!(dst, (v, ta || tb || tc));
                    pc += 1;
                }
            }
        }
    }
}

/// The `(i64, i64)` case of [`exec_cmp`], without a branch on `op`: the
/// ordering of `x` and `y` is one of three bits, and each predicate is
/// the set of orderings it accepts.
#[inline(always)]
fn icmp(op: CmpOp, x: i64, y: i64) -> bool {
    const LT: u8 = 1;
    const EQ: u8 = 2;
    const GT: u8 = 4;
    let accepts = match op {
        CmpOp::Eq => EQ,
        CmpOp::Ne => LT | GT,
        CmpOp::Lt => LT,
        CmpOp::Le => LT | EQ,
        CmpOp::Gt => GT,
        CmpOp::Ge => GT | EQ,
    };
    // `Ordering` is -1, 0, 1: shift it onto LT, EQ, GT.
    let ordering = 1u8 << (x.cmp(&y) as i8 + 1);
    accepts & ordering != 0
}
